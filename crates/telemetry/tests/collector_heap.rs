//! Heap pin for the collectors' aggregate store, measured with a
//! counting global allocator: a collector keeps one boxed
//! [`CycleSketch`] per metric it observed and nothing else on the heap
//! for its aggregates. A map-backed store fails this: its first insert
//! allocates a node sized for eleven inline sketches (~170 KB).
//!
//! The allocator is process-global, so this binary holds one test and
//! nothing else allocates while it measures.

use planaria_telemetry::{Collector, CycleSketch, Metric, RecordingCollector, StatsCollector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `LIVE` is a statistic that
// publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Live heap a fresh collector holds after observing the first `k`
/// metrics once each (and one counter add and one histogram sample).
fn held_after_observing<C: Collector + Default>(k: usize) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    let mut c = C::default();
    for m in &Metric::ALL[..k] {
        c.observe(*m, 1_000);
    }
    c.add(planaria_telemetry::Counter::Completions, 1);
    c.sample(Metric::QueueDepth, 2.0);
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    drop(c);
    held
}

#[test]
fn a_collector_holds_one_sketch_per_observed_metric() {
    let sketch = size_of::<CycleSketch>();
    for k in 0..=Metric::ALL.len() {
        for (name, held) in [
            ("StatsCollector", held_after_observing::<StatsCollector>(k)),
            (
                "RecordingCollector",
                held_after_observing::<RecordingCollector>(k),
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
