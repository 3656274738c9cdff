//! Allocation pin for the sleeping backlog, measured with a counting
//! global allocator: a run whose backlog parks and waits allocates a
//! bounded number of times, however many tenants sleep and wake.
//!
//! The kernel's sleeping indexes are flat heaps beside one slot array,
//! and the policy's per-event buffers grow to their high-water marks
//! once, so a 2·10^4-request run allocates only while those buffers grow.
//! Ordered-set indexes allocated tree nodes as tenants slept and woke:
//! thousands of allocations per such run.
//!
//! The allocator counts per thread, so the pin measures only what its
//! own thread allocates while the test harness runs others beside it.

use planaria_arch::AcceleratorConfig;
use planaria_core::PlanariaEngine;
use planaria_sim::run_streamed_sink;
use planaria_telemetry::NullCollector;
use planaria_workload::{DiscardSink, QosLevel, Scenario, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations (and reallocations) this thread made. Const-initialized
    /// and without a destructor, so the allocator may touch it at any
    /// point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a thread-local
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The most allocations one 2·10^4-request run may make.
const MAX_ALLOCS: u64 = 1_000;

#[test]
fn a_sleeping_backlog_allocates_a_bounded_number_of_times() {
    let cfg = AcceleratorConfig::planaria();
    let engine = PlanariaEngine::new(cfg);
    let n = 20_000;
    for (name, trace) in [
        // perfbench's serve-burst shape: bursts park a backlog past its
        // deadlines.
        (
            "bursty QoS-Hard λ=500",
            TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, n, 5).with_burstiness(6.0),
        ),
        // Overload with long slack: a backlog that waits.
        (
            "Poisson QoS-Soft λ=2000",
            TraceConfig::new(Scenario::C, QosLevel::Soft, 2000.0, n, 5),
        ),
    ] {
        let trace = trace.generate();
        let mut policy = engine.spatial_policy();
        let before = ALLOCS.with(Cell::get);
        let (_, summary) = run_streamed_sink(
            &cfg,
            trace.iter().copied(),
            &mut policy,
            &mut NullCollector,
            DiscardSink,
        );
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(summary.completed, n as u64, "{name}");
        assert!(
            allocs < MAX_ALLOCS,
            "{name}: {allocs} allocations in one {n}-request run (at most {MAX_ALLOCS})"
        );
    }
}
