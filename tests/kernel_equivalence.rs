//! Exactness oracle: the tiered-queue/slab hot path must reproduce the
//! pre-overhaul reference kernel (`planaria_sim::oracle`) byte for byte.
//!
//! The reference keeps the replaced containers alive — one plain
//! `BinaryHeap` event queue, a `BTreeMap` tenant index, no stale ledger,
//! no compaction — driving the same event loop. Both lanes run each
//! engine's production policy, so a comparison isolates the kernel: the
//! scheduler has its own oracle (the full-rescan mode pinned by
//! `incremental_equivalence`). Both engines' policies are run through
//! both kernels across the scenario/QoS grid, at rates that keep the node
//! saturated (deep backlogs are where the tiers, the slab window and
//! compaction actually engage), and every result must digest identically.

use planaria_core::PlanariaEngine;
use planaria_prema::{Policy, PremaEngine};
use planaria_sim::oracle::run_streamed_reference;
use planaria_telemetry::NullCollector;
use planaria_workload::{QosLevel, Scenario, TraceConfig};

fn assert_identical(a: &planaria_workload::SimResult, b: &planaria_workload::SimResult, tag: &str) {
    assert_eq!(a.completions, b.completions, "{tag}: completions diverged");
    assert_eq!(a.total_energy, b.total_energy, "{tag}: energy diverged");
    assert_eq!(a.makespan, b.makespan, "{tag}: makespan diverged");
    assert_eq!(a.digest(), b.digest(), "{tag}: digest diverged");
}

#[test]
fn planaria_policy_matches_reference_across_the_grid() {
    let engine = PlanariaEngine::new(planaria_arch::AcceleratorConfig::planaria());
    let cfg = *engine.library().config();
    for scenario in Scenario::ALL {
        for qos in QosLevel::ALL {
            for lambda in [40.0, 400.0] {
                let trace = TraceConfig::new(scenario, qos, lambda, 160, 0xBEEF).generate();
                let hot = engine.run(&trace);
                let mut policy = engine.spatial_policy();
                let oracle = run_streamed_reference(&cfg, &trace, &mut policy, &mut NullCollector);
                assert_identical(&hot, &oracle, &format!("{scenario}/{qos}/{lambda}"));
            }
        }
    }
}

#[test]
fn prema_policy_matches_reference_across_the_grid() {
    let engine = PremaEngine::new(
        planaria_arch::AcceleratorConfig::monolithic(),
        Policy::Prema,
    );
    let cfg = *engine.library().config();
    for scenario in Scenario::ALL {
        for qos in QosLevel::ALL {
            let trace = TraceConfig::new(scenario, qos, 120.0, 160, 0xFACE).generate();
            let hot = engine.run(&trace);
            let mut policy = engine.node_policy();
            let oracle = run_streamed_reference(&cfg, &trace, &mut policy, &mut NullCollector);
            assert_identical(&hot, &oracle, &format!("prema {scenario}/{qos}"));
        }
    }
}

#[test]
fn streamed_path_matches_streamed_reference_on_a_bursty_trace() {
    // The bursty high-churn regime from the scale/kernel benches: deep
    // backlogs, constant re-estimation, heavy stale churn — the regime
    // compaction was built for.
    let engine = PlanariaEngine::new(planaria_arch::AcceleratorConfig::planaria());
    let cfg = *engine.library().config();
    let trace_cfg =
        TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, 5_000, 0x5ca1e).with_burstiness(6.0);
    let hot = engine.run(trace_cfg.stream());
    let mut policy = engine.spatial_policy();
    let oracle = run_streamed_reference(&cfg, trace_cfg.stream(), &mut policy, &mut NullCollector);
    assert_identical(&hot, &oracle, "bursty streamed");
}
