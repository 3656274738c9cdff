//! Scale-path guarantees, measured with a counting global allocator:
//!
//! 1. **Steady-state events are allocation-free.** The `SpatialPolicy`
//!    scratch buffers, the persistent chip mask, placements that are
//!    `Copy` ring segments and the estimate memo stored inline on each
//!    tenant record leave only amortized `Vec` growth per request: well
//!    under one allocation, where one allocation per placement (an id
//!    list per re-placed tenant) read about 1.0 and fresh `Vec`s per
//!    event read O(live tenants).
//! 2. **Streamed runs never materialize the request trace.** A streamed
//!    run's peak live memory stays below the materialized run's by at
//!    least half the trace's size, and its resident request state is
//!    O(live tenants).
//!
//! The counting allocator is process-global, so this file keeps all
//! measurements inside single test functions (the default harness runs
//! tests in one process; measurements here tolerate harness noise via
//! generous headroom but must not race another measuring test).

use planaria::arch::AcceleratorConfig;
use planaria::core::{CompiledLibrary, PlanariaEngine};
use planaria::workload::{QosLevel, Request, Scenario, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocation count during `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Peak live bytes above the starting level during `f`.
fn peak_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let floor = LIVE.load(Ordering::Relaxed);
    PEAK.store(floor, Ordering::Relaxed);
    let r = f();
    (PEAK.load(Ordering::Relaxed).saturating_sub(floor), r)
}

fn trace_cfg(requests: usize) -> TraceConfig {
    // λ sustained by the chip for Scenario B's light models, so the live
    // tenant count stays bounded and the queue reaches a steady state.
    TraceConfig::new(Scenario::B, QosLevel::Soft, 60.0, requests, 17)
}

#[test]
fn steady_state_allocs_are_constant_per_request_and_streams_stay_lean() {
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let engine = PlanariaEngine::with_library(library);

    // --- marginal allocations per request -------------------------------
    // Comparing two run lengths cancels the per-run fixed cost (policy
    // scratch growth, result buffers): what remains is the steady-state
    // per-request cost, which must stay well under one allocation.
    let n1 = 400usize;
    let n2 = 1600usize;
    let t1 = trace_cfg(n1).generate();
    let t2 = trace_cfg(n2).generate();
    let (warm, _) = allocs_during(|| engine.run(&t1)); // warm compiled tables
    let (a1, r1) = allocs_during(|| engine.run(&t1));
    let (a2, r2) = allocs_during(|| engine.run(&t2));
    assert_eq!(r1.completions.len(), n1);
    assert_eq!(r2.completions.len(), n2);
    let marginal = (a2.saturating_sub(a1)) as f64 / (n2 - n1) as f64;
    assert!(
        marginal < 0.5,
        "steady-state marginal allocations per request too high: {marginal:.3} \
         (a1={a1}, a2={a2}, warmup={warm})"
    );

    // --- streamed runs never materialize the trace ----------------------
    let n = 30_000usize;
    let cfg = trace_cfg(n);
    let trace_bytes = (n * std::mem::size_of::<Request>()) as u64;
    let (peak_materialized, rm) = peak_during(|| {
        let trace = cfg.generate();
        engine.run(&trace)
    });
    let (peak_streamed, rs) = peak_during(|| engine.run(cfg.stream()));
    assert_eq!(rm.completions.len(), n);
    assert_eq!(rs.completions, rm.completions);
    assert!(
        peak_streamed + trace_bytes / 2 < peak_materialized,
        "streaming must save at least half the trace bytes: \
         streamed peak {peak_streamed}, materialized peak {peak_materialized}, \
         trace {trace_bytes}"
    );
}

/// The full million-request criterion (expensive; run explicitly with
/// `cargo test --release --test scale_memory -- --ignored`). Resident
/// request state stays O(live tenants): peak live bytes above the
/// completions output is a small fraction of what materializing the
/// 40 MB request trace would cost.
#[test]
#[ignore = "million-request run; minutes in debug builds"]
fn million_request_streamed_run_is_o_tenants_resident() {
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let engine = PlanariaEngine::with_library(library);
    let n = 1_000_000usize;
    let cfg = trace_cfg(n);
    let trace_bytes = (n * std::mem::size_of::<Request>()) as u64;
    let (peak, r) = peak_during(|| engine.run(cfg.stream()));
    assert_eq!(r.completions.len(), n);
    // The unavoidable output: one `Completion` per request (the results
    // vector, with doubling-growth headroom). Everything else — tenants,
    // event heap, scratch — must be far below the trace size.
    let completion_bytes = (n * std::mem::size_of::<planaria::workload::Completion>()) as u64 * 2;
    assert!(
        peak < completion_bytes + trace_bytes / 4,
        "streamed 10^6 run resident too high: peak {peak}, \
         completions bound {completion_bytes}, trace {trace_bytes}"
    );
}
