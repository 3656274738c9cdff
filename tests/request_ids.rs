//! Request ids are labels, not keys: the kernel indexes live tenants by
//! the node's admission counter, which is dense and increasing by
//! construction, so a trace's ids may arrive out of order, be sparse, or
//! repeat.
//!
//! Keyed by request id, the index kept one slot for every id between the
//! oldest and the newest live one, and panicked on an id below its base.
//! Each test below is one of the traces that broke it: out-of-order ids
//! panicked, two ids 2^22 apart held tens of MB of empty slots, and
//! non-decreasing duplicate ids panicked on some bursty traces.
//!
//! Peak memory is read from a counting global allocator. It is
//! process-global, so only one test in this file measures.

use planaria::arch::AcceleratorConfig;
use planaria::core::{CompiledLibrary, PlanariaEngine, SchedulingMode};
use planaria::model::DnnId;
use planaria::prema::PremaEngine;
use planaria::workload::{QosLevel, Request, Scenario, SimResult, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn req(id: u64, dnn: DnnId, arrival: f64) -> Request {
    Request {
        id,
        dnn,
        arrival,
        priority: 5,
        qos: 1.0,
    }
}

/// Request ids of a result, sorted.
fn ids(r: &SimResult) -> Vec<u64> {
    let mut ids: Vec<u64> = r.completions.iter().map(|c| c.request.id).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn out_of_order_ids_complete_on_both_engines() {
    let trace = [req(1, DnnId::ResNet50, 0.0), req(0, DnnId::TinyYolo, 1e-4)];
    let planaria = PlanariaEngine::new(AcceleratorConfig::planaria()).run(trace);
    assert_eq!(ids(&planaria), [0, 1]);
    let prema = PremaEngine::new_default().run(trace);
    assert_eq!(ids(&prema), [0, 1]);
}

#[test]
fn sparse_ids_cost_no_memory_per_skipped_id() {
    // Built outside the measurement: compiling the suite allocates.
    let planaria = PlanariaEngine::new(AcceleratorConfig::planaria());
    let prema = PremaEngine::new_default();
    let trace = [
        req(0, DnnId::ResNet50, 0.0),
        req(1 << 22, DnnId::TinyYolo, 1e-4),
    ];
    for (name, run) in [
        (
            "planaria",
            &(|| planaria.run(trace)) as &dyn Fn() -> SimResult,
        ),
        ("prema", &|| prema.run(trace)),
    ] {
        let floor = LIVE.load(Ordering::Relaxed);
        PEAK.store(floor, Ordering::Relaxed);
        let r = run();
        let peak = PEAK.load(Ordering::Relaxed).saturating_sub(floor);
        assert_eq!(ids(&r), [0, 1 << 22], "{name}");
        // Two live tenants need a few KB; one slot per skipped id would
        // need 2^22 of them.
        assert!(peak < 16 << 20, "{name}: {peak} B peak for two requests");
    }
}

#[test]
fn non_decreasing_duplicate_ids_complete_on_both_engines() {
    // Bursty QoS-Hard traces with every id divided by 2, 3 or 5. Over
    // seeds 0..40 the id-keyed index panicked on 10 of these 120 traces
    // under Planaria and 2 under PREMA; these seeds cover both engines'
    // failures.
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let incremental = PlanariaEngine::with_library(library.clone());
    let oracle = PlanariaEngine::with_library(library).with_mode(SchedulingMode::FullRescan);
    let prema = PremaEngine::new_default();
    for seed in [0, 2, 3, 5, 14, 23] {
        for div in [2, 3, 5] {
            let mut trace = TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, 400, seed)
                .with_burstiness(6.0)
                .generate();
            for r in &mut trace {
                r.id /= div;
            }
            let mut want: Vec<u64> = trace.iter().map(|r| r.id).collect();
            want.sort_unstable();
            let fast = incremental.run(&trace);
            assert_eq!(ids(&fast), want, "planaria seed {seed} div {div}");
            let slow = oracle.run(&trace);
            assert_eq!(
                fast.completions, slow.completions,
                "planaria seed {seed} div {div}: incremental diverged from the oracle"
            );
            assert_eq!(ids(&prema.run(&trace)), want, "prema seed {seed} div {div}");
        }
    }
}
