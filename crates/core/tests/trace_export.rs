//! Golden round-trip and bit-identity tests for the telemetry path.
//!
//! 1. A contended multi-tenant run must export a Chrome trace that the
//!    in-repo validator accepts, and that parses back with the expected
//!    structure (multiple tenant processes, nested/disjoint spans,
//!    globally monotonic timestamps — the validator enforces the last
//!    two).
//! 2. The collector hooks must be invisible to the simulation:
//!    `run` (NullCollector) and `run_with_collector` with a
//!    `RecordingCollector` or a `StatsCollector` must produce
//!    bit-identical results.
//! 3. The two recording collectors aggregate identically: over one
//!    engine run and one 4-node fleet run, a `StatsCollector` reports
//!    exactly what a `RecordingCollector` reports.

use planaria_arch::AcceleratorConfig;
use planaria_core::{ClusterDispatcher, DispatchPolicy, Fleet, PlanariaEngine};
use planaria_prema::PremaEngine;
use planaria_sim::{run_fabric_summary, FabricTuning};
use planaria_telemetry::{
    chrome_trace, mean_occupancy, occupancy_strip, occupancy_tsv, validate_chrome_trace, Event,
    RecordingCollector, StatsCollector,
};
use planaria_workload::{QosLevel, Scenario, SimResult, TraceConfig};

/// A contended trace: all nine models arriving faster than the
/// 16-subarray chip can absorb, forcing queueing and reallocation.
fn contended_workload() -> Vec<planaria_workload::Request> {
    TraceConfig::new(Scenario::C, QosLevel::Medium, 2000.0, 40, 42).generate()
}

/// Collapses a result into exact bit patterns (f64 `to_bits`), so "equal"
/// means *identical*, not merely within float tolerance.
fn bits(r: &SimResult) -> Vec<u64> {
    let mut v = vec![r.makespan.to_bits(), r.total_energy.as_pj().to_bits()];
    for c in &r.completions {
        v.push(c.request.id);
        v.push(c.request.arrival.to_bits());
        v.push(c.finish.to_bits());
        v.push(c.energy.as_pj().to_bits());
    }
    v
}

#[test]
fn contended_run_exports_a_valid_chrome_trace() {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let workload = contended_workload();
    let mut rec = RecordingCollector::new();
    engine.run_with_collector(&workload, &mut rec);

    let json = chrome_trace(&rec);
    let stats = validate_chrome_trace(&json).expect("exported trace must validate");
    assert!(stats.complete > 0, "expected exec/queue spans");
    assert!(stats.instants > 0, "expected arrival/completion instants");
    assert!(stats.counters > 0, "expected occupancy counters");
    assert!(
        stats.processes > 2,
        "expected the chip plus multiple tenant processes, got {}",
        stats.processes
    );
    // Structural markers of the track layout.
    for marker in [
        "\"process_name\"",
        "subarray 00",
        "lifecycle",
        "occupancy",
        "queued",
        "arrival",
        "complete",
    ] {
        assert!(json.contains(marker), "trace JSON missing {marker:?}");
    }

    // The recording itself must show contention: at least one queue wait
    // with nonzero duration, and at least one allocation shrink/regrow.
    let events: Vec<&Event> = rec.events().iter().map(|t| &t.event).collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::QueueWait { duration, .. } if !duration.is_zero())),
        "expected a nonzero queue wait under contention"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Allocation { from, to, .. } if *from > 0 && *to > 0 && from != to)),
        "expected a mid-flight reallocation under contention"
    );

    // The occupancy timeline and its summaries cover the same run.
    let tsv = occupancy_tsv(&rec);
    assert!(tsv.lines().count() > 2, "expected occupancy samples");
    let occ = mean_occupancy(&rec);
    assert!(occ > 0.0 && occ <= 1.0, "mean occupancy {occ}");
    let strip = occupancy_strip(&rec, 32);
    assert!(strip.starts_with("occupancy [0.0000s.."), "{strip}");
    assert!(
        strip.chars().rev().take(32).all(|c| c.is_ascii_digit()),
        "{strip}"
    );
}

#[test]
fn prema_contended_run_exports_a_valid_chrome_trace() {
    let engine = PremaEngine::new_default();
    let workload = contended_workload();
    let mut rec = RecordingCollector::new();
    engine.run_with_collector(&workload, &mut rec);
    let stats = validate_chrome_trace(&chrome_trace(&rec)).expect("PREMA trace must validate too");
    assert!(stats.complete > 0);
    assert!(stats.processes > 2);
    // The temporal baseline preempts under contention.
    assert!(
        rec.events()
            .iter()
            .any(|t| matches!(t.event, Event::Preemption { .. })),
        "expected PREMA preemptions under contention"
    );
}

#[test]
fn planaria_results_are_bit_identical_across_collectors() {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let workload = contended_workload();

    let plain = engine.run(&workload);
    let mut rec = RecordingCollector::new();
    let recorded = engine.run_with_collector(&workload, &mut rec);
    let mut stats = StatsCollector::new();
    let aggregated = engine.run_with_collector(&workload, &mut stats);

    assert_eq!(
        bits(&plain),
        bits(&recorded),
        "RecordingCollector changed results"
    );
    assert_eq!(
        bits(&plain),
        bits(&aggregated),
        "StatsCollector changed results"
    );
    assert!(!rec.is_empty());
    assert_eq!(stats.events(), rec.len() as u64);
}

#[test]
fn prema_results_are_bit_identical_across_collectors() {
    let engine = PremaEngine::new_default();
    let workload = contended_workload();
    let plain = engine.run(&workload);
    let mut rec = RecordingCollector::new();
    let recorded = engine.run_with_collector(&workload, &mut rec);
    assert_eq!(
        bits(&plain),
        bits(&recorded),
        "RecordingCollector changed results"
    );
    assert!(!rec.is_empty());
}

#[test]
fn chrome_export_is_byte_deterministic_across_runs() {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let workload = contended_workload();
    let export = |engine: &PlanariaEngine| {
        let mut rec = RecordingCollector::new();
        engine.run_with_collector(&workload, &mut rec);
        (chrome_trace(&rec), occupancy_tsv(&rec))
    };
    let (j1, t1) = export(&engine);
    let (j2, t2) = export(&engine);
    assert_eq!(j1, j2, "Chrome export must be byte-deterministic");
    assert_eq!(t1, t2, "occupancy TSV must be byte-deterministic");
}

#[test]
fn stats_and_recording_collectors_report_identically() {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let workload = contended_workload();
    let mut rec = RecordingCollector::new();
    engine.run_with_collector(&workload, &mut rec);
    let mut stats = StatsCollector::new();
    engine.run_with_collector(&workload, &mut stats);
    let report = stats.report();
    assert!(!report.counters.is_empty() && !report.sketches.is_empty());
    assert_eq!(report, rec.report(), "engine run");

    // A 4-node fleet: `run_recorded`'s recorders against the per-node
    // and fabric `StatsCollector`s of the flat path `run_stats` drives.
    const NODES: usize = 4;
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 800.0, 200, 7).generate();
    let policy = DispatchPolicy::JoinShortestQueue;
    let fleet = Fleet::new(vec![engine.clone(); NODES]).expect("uniform fleet");
    let (_, _, recording) = fleet.run_recorded(&trace, policy);
    let mut fabric = StatsCollector::new();
    let (_, _, sinks) = run_fabric_summary(
        &fleet.configs(),
        (0..NODES).map(|_| engine.spatial_policy()).collect(),
        trace.iter().copied(),
        &mut ClusterDispatcher::new(engine.library(), NODES, policy),
        &FabricTuning::default(),
        &mut fabric,
        (0..NODES).map(|_| StatsCollector::new()).collect(),
    );
    assert_eq!(fabric.report(), recording.fabric.report(), "fabric");
    assert_eq!(recording.nodes.len(), NODES);
    for ((node, rec), sink) in recording.nodes.iter().zip(&sinks) {
        assert_eq!(sink.report(), rec.report(), "node {node}");
    }
    let (cluster, _) = fleet.run_stats(&trace, policy);
    assert_eq!(cluster.metrics, recording.merged_report(), "merged");
}
