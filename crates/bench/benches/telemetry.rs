//! Overhead of the telemetry layer: `NullCollector` (disabled path)
//! versus `RecordingCollector` (full event/counter/histogram capture)
//! versus `StatsCollector` (aggregates only) — per hook, end-to-end
//! through the engines, and end-to-end through the cluster fabric.
//!
//! Emits `results/BENCH_telemetry.json` with ns/event figures so the
//! "zero overhead when off" claim is a measured number, not a slogan.
//! Every lane pair is raced with [`planaria_bench::race`]: the two lanes
//! run interleaved, one call each in turn after a warmup, and each
//! reports its median, so a ratio repeats on a shared host; single lanes
//! (the sketch's record and query costs) report medians too.
//! The fabric lanes:
//!
//! * `fabric_summary_{null,stats}_s` — the *equal-sink* pair:
//!   `run_fabric_summary` with a `NullCollector` fabric collector and a
//!   `DiscardSink` per node in both lanes, `NullCollector` vs
//!   `StatsCollector` node collectors, so
//!   `fabric_summary_stats_overhead_pct` is the node collectors' cost
//!   alone;
//! * `fabric_{null,stats,recorded}_s` — the `Fleet` entry points:
//!   `Fleet::run` (a `VecSink` per node plus `SimResult` assembly) raced
//!   against `Fleet::run_stats` (a `DiscardSink`, `StatsCollector`s for
//!   fabric and nodes) and, separately, against `Fleet::run_recorded`
//!   (`VecSink`s, `RecordingCollector`s); each `fabric_*_overhead_pct`
//!   comes from its own race, and `fabric_null_s` is the `run_stats`
//!   race's null lane.
//!
//! Runs under `cargo bench -p planaria-bench --bench telemetry`; plain
//! `Instant`-based harness (wall-clock measurement infrastructure, exempt
//! from the determinism lint like the rest of this crate).
//! `PLANARIA_BENCH_SMOKE=1` runs reduced sizes (CI smoke) and does not
//! overwrite the JSON record.

use planaria_arch::AcceleratorConfig;
use planaria_bench::{median, race};
use planaria_core::{ClusterDispatcher, DispatchPolicy, Fleet, PlanariaEngine};
use planaria_model::units::Cycles;
use planaria_model::SplitMix64;
use planaria_prema::PremaEngine;
use planaria_sim::{run_fabric_summary, FabricTuning};
use planaria_telemetry::{
    Collector, Counter, CycleSketch, Event, Metric, NullCollector, RecordingCollector,
    StatsCollector,
};
use planaria_workload::{QosLevel, Request, Scenario, TraceConfig};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Formats seconds per call for the console.
fn show(secs: f64) -> String {
    if secs >= 1e-3 {
        format!("{:>10.3} ms", secs * 1e3)
    } else {
        format!("{:>10.3} us", secs * 1e6)
    }
}

/// Races lane `a` against lane `b` (see [`race`]), prints both medians
/// and `b`'s overhead over `a`, and returns the medians.
fn race_pair(
    name: &str,
    lanes: [&str; 2],
    iters: u32,
    a: impl FnMut(),
    b: impl FnMut(),
) -> (f64, f64) {
    let (ta, tb) = race(iters, a, b);
    println!(
        "{name:<30} {:<10} {}/call  {:<10} {}/call  {:+7.1}%  ({iters} iters each)",
        lanes[0],
        show(ta),
        lanes[1],
        show(tb),
        (tb / ta - 1.0) * 100.0
    );
    (ta, tb)
}

/// Median seconds per call of `f` over `iters` calls, after one warmup.
fn time_median(name: &str, iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let samples = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    let t = median(samples);
    println!("{name:<30} {}/call  ({iters} iters)", show(t));
    t
}

/// One representative mix of collector hooks (event + counter + sample).
fn hooks<C: Collector>(c: &mut C, i: u64) {
    if c.is_enabled() {
        c.record(
            Cycles::new(i),
            Event::Completion {
                tenant: i,
                latency: Cycles::new(i * 3),
            },
        );
    }
    c.add(Counter::SchedulingEvents, 1);
    c.sample(Metric::QueueDepth, (i % 7) as f64);
}

const HOOK_BATCH: u64 = 10_000;

/// Fires [`HOOK_BATCH`] hook triples into a fresh collector.
fn hook_batch<C: Collector + Default>() {
    let mut c = C::default();
    for i in 0..HOOK_BATCH {
        hooks(black_box(&mut c), black_box(i));
    }
    black_box(&c);
}

fn bench_hooks(record: &mut Vec<(String, f64)>) {
    let per = |secs: f64| secs / HOOK_BATCH as f64 * 1e9;
    let (null, rec) = race_pair(
        "collector/10k_hook_triples",
        ["null", "recording"],
        201,
        hook_batch::<NullCollector>,
        hook_batch::<RecordingCollector>,
    );
    let (_, stats) = race_pair(
        "collector/10k_hook_triples",
        ["null", "stats"],
        201,
        hook_batch::<NullCollector>,
        hook_batch::<StatsCollector>,
    );
    record.push(("null_ns_per_hook_triple".into(), per(null)));
    record.push(("recording_ns_per_hook_triple".into(), per(rec)));
    record.push(("stats_ns_per_hook_triple".into(), per(stats)));
}

fn bench_engines(record: &mut Vec<(String, f64)>) {
    let planaria = PlanariaEngine::new(AcceleratorConfig::planaria());
    let prema = PremaEngine::new_default();
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 100.0, 200, 1).generate();
    let (p_null, p_rec) = race_pair(
        "engine/planaria_200req",
        ["null", "recording"],
        201,
        || {
            black_box(planaria.run(black_box(&trace)));
        },
        || {
            let mut c = RecordingCollector::new();
            black_box(planaria.run_with_collector(black_box(&trace), &mut c));
            black_box(c.len());
        },
    );
    let (m_null, m_rec) = race_pair(
        "engine/prema_200req",
        ["null", "recording"],
        201,
        || {
            black_box(prema.run(black_box(&trace)));
        },
        || {
            let mut c = RecordingCollector::new();
            black_box(prema.run_with_collector(black_box(&trace), &mut c));
            black_box(c.len());
        },
    );
    // Per-event figure for the recording engine path.
    let mut c = RecordingCollector::new();
    planaria.run_with_collector(&trace, &mut c);
    let events = c.len().max(1) as f64;
    record.push(("planaria_run_null_s".into(), p_null));
    record.push(("planaria_run_recording_s".into(), p_rec));
    record.push((
        "planaria_recording_overhead_pct".into(),
        (p_rec / p_null - 1.0) * 100.0,
    ));
    record.push((
        "planaria_recording_ns_per_event".into(),
        (p_rec - p_null).max(0.0) / events * 1e9,
    ));
    record.push(("prema_run_null_s".into(), m_null));
    record.push(("prema_run_recording_s".into(), m_rec));
    record.push((
        "prema_recording_overhead_pct".into(),
        (m_rec / m_null - 1.0) * 100.0,
    ));
}

const SKETCH_BATCH: u64 = 100_000;

fn bench_sketch(record: &mut Vec<(String, f64)>) {
    // Mixed magnitudes: exact small values, mid-range, and full-width.
    let per = time_median("sketch/record_100k_mixed_values", 101, || {
        let mut rng = SplitMix64::new(0x5ce7);
        let mut s = CycleSketch::new();
        for _ in 0..SKETCH_BATCH {
            s.record(black_box(rng.next_u64() >> (rng.next_u64() % 48)));
        }
        black_box(s.count());
    });
    let q = time_median("sketch/build_1k_and_p99", 201, || {
        let mut rng = SplitMix64::new(0x5ce7);
        let mut s = CycleSketch::new();
        for _ in 0..1_000 {
            s.record(rng.next_u64() % 1_000_000);
        }
        black_box(s.value_at_ratio(99, 100));
    });
    record.push((
        "sketch_record_ns_per_value".into(),
        per / SKETCH_BATCH as f64 * 1e9,
    ));
    record.push(("sketch_build_and_p99_us".into(), q * 1e6));
}

const FABRIC_NODES: usize = 4;

/// One `run_fabric_summary` over `engine` clones with a `NullCollector`
/// fabric collector and the given node collectors.
fn summary_run<N: Collector + Send>(
    engine: &PlanariaEngine,
    trace: &[Request],
    policy: DispatchPolicy,
    sinks: Vec<N>,
) {
    let cfgs = vec![*engine.library().config(); sinks.len()];
    let (summary, _, sinks) = run_fabric_summary(
        &cfgs,
        cfgs.iter().map(|_| engine.spatial_policy()).collect(),
        trace.iter().copied(),
        &mut ClusterDispatcher::new(engine.library(), cfgs.len(), policy),
        &FabricTuning::default(),
        &mut NullCollector,
        sinks,
    );
    black_box((summary, sinks));
}

fn bench_fabric(record: &mut Vec<(String, f64)>, smoke: bool) {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let (requests, iters): (usize, u32) = if smoke { (500, 3) } else { (5_000, 61) };
    let trace =
        TraceConfig::new(Scenario::C, QosLevel::Medium, 1_000.0, requests, 0x7e1e).generate();
    let fleet = Fleet::new(vec![engine.clone(); FABRIC_NODES]).expect("uniform fleet");
    let policy = DispatchPolicy::LeastWork;

    // The equal-sink pair: everything but the node collectors is shared.
    let (sum_null, sum_stats) = race_pair(
        "fabric/summary_equal_sinks",
        ["null", "stats"],
        iters,
        || summary_run(&engine, &trace, policy, vec![NullCollector; FABRIC_NODES]),
        || {
            summary_run(
                &engine,
                &trace,
                policy,
                vec![StatsCollector::new(); FABRIC_NODES],
            )
        },
    );

    let (plain, stats) = race_pair(
        "fabric/fleet_run_vs_run_stats",
        ["run", "run_stats"],
        iters,
        || {
            black_box(fleet.run(&trace, policy));
        },
        || {
            black_box(fleet.run_stats(&trace, policy));
        },
    );
    let (plain_r, recorded) = race_pair(
        "fabric/fleet_run_vs_recorded",
        ["run", "recorded"],
        iters,
        || {
            black_box(fleet.run(&trace, policy));
        },
        || {
            black_box(fleet.run_recorded(&trace, policy));
        },
    );
    record.push(("fabric_summary_null_s".into(), sum_null));
    record.push(("fabric_summary_stats_s".into(), sum_stats));
    record.push((
        "fabric_summary_stats_overhead_pct".into(),
        (sum_stats / sum_null - 1.0) * 100.0,
    ));
    record.push(("fabric_null_s".into(), plain));
    record.push(("fabric_stats_s".into(), stats));
    record.push(("fabric_recorded_s".into(), recorded));
    record.push((
        "fabric_stats_overhead_pct".into(),
        (stats / plain - 1.0) * 100.0,
    ));
    record.push((
        "fabric_recorded_overhead_pct".into(),
        (recorded / plain_r - 1.0) * 100.0,
    ));
}

fn emit_json(record: &[(String, f64)]) {
    let mut s = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(s, "  \"host_logical_cores\": {cores},");
    for (i, (k, v)) in record.iter().enumerate() {
        let comma = if i + 1 == record.len() { "" } else { "," };
        let _ = writeln!(s, "  \"{k}\": {v:.6}{comma}");
    }
    s.push_str("}\n");
    let dir = planaria_bench::results_dir();
    let path = dir.join("BENCH_telemetry.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, s)) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn main() {
    let smoke = std::env::var("PLANARIA_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let mut record = Vec::new();
    bench_hooks(&mut record);
    bench_sketch(&mut record);
    bench_engines(&mut record);
    bench_fabric(&mut record, smoke);
    if smoke {
        println!("[smoke mode: results/BENCH_telemetry.json left untouched]");
        return;
    }
    emit_json(&record);
}
