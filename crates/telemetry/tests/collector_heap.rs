//! Heap pins for the collectors' aggregate store and the reports it
//! builds, measured with a counting global allocator: a collector keeps
//! one boxed [`CycleSketch`] per metric it observed and nothing else on
//! the heap for its aggregates, and so does its report. A map-backed
//! store fails the first pin, and a map of inline sketches the second:
//! their first insert allocates a node sized for eleven inline sketches
//! (~170 KB).
//!
//! The allocator counts per thread, so each test measures only what its
//! own thread allocates while the test harness runs others beside it.

use planaria_telemetry::{Collector, CycleSketch, Metric, RecordingCollector, StatsCollector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

struct CountingAlloc;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed. Const-initialized
    /// and without a destructor, so the allocator may touch it at any
    /// point of a thread's life.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get().wrapping_add(delta)));
}

fn bytes(size: usize) -> isize {
    isize::try_from(size).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a thread-local
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-bytes(layout.size()));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(bytes(new_size) - bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Live heap `f`'s result holds, as this thread allocated it.
fn held_by<T>(f: impl FnOnce() -> T) -> usize {
    let before = LIVE.with(Cell::get);
    let kept = f();
    let held = LIVE.with(Cell::get).saturating_sub(before);
    drop(kept);
    usize::try_from(held).unwrap_or(0)
}

/// A fresh collector after observing the first `k` metrics once each
/// (and one counter add and one histogram sample).
fn observing<C: Collector + Default>(k: usize) -> C {
    let mut c = C::default();
    for m in &Metric::ALL[..k] {
        c.observe(*m, 1_000);
    }
    c.add(planaria_telemetry::Counter::Completions, 1);
    c.sample(Metric::QueueDepth, 2.0);
    c
}

#[test]
fn a_collector_holds_one_sketch_per_observed_metric() {
    let sketch = size_of::<CycleSketch>();
    for k in 0..=Metric::ALL.len() {
        for (name, held) in [
            ("StatsCollector", held_by(|| observing::<StatsCollector>(k))),
            (
                "RecordingCollector",
                held_by(|| observing::<RecordingCollector>(k)),
            ),
        ] {
            assert!(
                held < (k + 1) * sketch,
                "{name} holds {held} B after observing {k} metric(s); \
                 {} sketches are {} B",
                k + 1,
                (k + 1) * sketch
            );
        }
    }
}

#[test]
fn a_report_of_one_metric_holds_less_than_two_sketches() {
    let sketch = size_of::<CycleSketch>();
    let stats = observing::<StatsCollector>(1);
    let recording = observing::<RecordingCollector>(1);
    for (name, held) in [
        ("StatsCollector", held_by(|| stats.report())),
        ("RecordingCollector", held_by(|| recording.report())),
    ] {
        assert!(
            held < 2 * sketch,
            "a {name} report of one metric holds {held} B; two sketches are {} B",
            2 * sketch
        );
    }
}
