//! Overhead of the telemetry layer: `NullCollector` (disabled path)
//! versus `RecordingCollector` (full event/counter/histogram capture)
//! versus `StatsCollector` (sketch-only flat path) — per-hook,
//! end-to-end through the engines, and end-to-end through the cluster
//! fabric.
//!
//! Emits `results/BENCH_telemetry.json` with ns/event figures so the
//! "zero overhead when off" claim is a measured number, not a slogan;
//! `fabric_{stats,recorded}_overhead_pct` are the measured costs of the
//! flat-memory and recording fleet runs over `Fleet::run`, whose
//! per-node collectors are `NullCollector`s.
//!
//! Runs under `cargo bench -p planaria-bench --bench telemetry`; plain
//! `Instant`-based harness (wall-clock measurement infrastructure, exempt
//! from the determinism lint like the rest of this crate).
//! `PLANARIA_BENCH_SMOKE=1` runs reduced sizes (CI smoke) and does not
//! overwrite the JSON record.

use planaria_arch::AcceleratorConfig;
use planaria_core::{DispatchPolicy, Fleet, PlanariaEngine};
use planaria_model::units::Cycles;
use planaria_model::SplitMix64;
use planaria_prema::PremaEngine;
use planaria_telemetry::{
    Collector, Counter, CycleSketch, Event, Metric, NullCollector, RecordingCollector,
};
use planaria_workload::{QosLevel, Scenario, TraceConfig};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` for `iters` iterations and returns mean seconds/iteration.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = start.elapsed().as_secs_f64() / f64::from(iters);
    let (scaled, unit) = if per_iter >= 1e-3 {
        (per_iter * 1e3, "ms")
    } else {
        (per_iter * 1e6, "us")
    };
    println!("{name:<44} {scaled:>10.3} {unit}/iter  ({iters} iters)");
    per_iter
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

fn bench_hooks(record: &mut Vec<(String, f64)>) {
    let null = bench("collector/null_10k_hook_triples", 200, || {
        let mut c = NullCollector;
        for i in 0..HOOK_BATCH {
            hooks(black_box(&mut c), black_box(i));
        }
        black_box(&c);
    });
    let rec = bench("collector/recording_10k_hook_triples", 200, || {
        let mut c = RecordingCollector::new();
        for i in 0..HOOK_BATCH {
            hooks(black_box(&mut c), black_box(i));
        }
        black_box(c.len());
    });
    record.push((
        "null_ns_per_hook_triple".into(),
        null / HOOK_BATCH as f64 * 1e9,
    ));
    record.push((
        "recording_ns_per_hook_triple".into(),
        rec / HOOK_BATCH as f64 * 1e9,
    ));
}

fn bench_engines(record: &mut Vec<(String, f64)>) {
    let planaria = PlanariaEngine::new(AcceleratorConfig::planaria());
    let prema = PremaEngine::new_default();
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 100.0, 200, 1).generate();
    let p_null = bench("engine/planaria_200req_null", 10, || {
        black_box(planaria.run(black_box(&trace)));
    });
    let p_rec = bench("engine/planaria_200req_recording", 10, || {
        let mut c = RecordingCollector::new();
        black_box(planaria.run_with_collector(black_box(&trace), &mut c));
        black_box(c.len());
    });
    let m_null = bench("engine/prema_200req_null", 10, || {
        black_box(prema.run(black_box(&trace)));
    });
    let m_rec = bench("engine/prema_200req_recording", 10, || {
        let mut c = RecordingCollector::new();
        black_box(prema.run_with_collector(black_box(&trace), &mut c));
        black_box(c.len());
    });
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
    let per = bench("sketch/record_100k_mixed_values", 100, || {
        let mut rng = SplitMix64::new(0x5ce7);
        let mut s = CycleSketch::new();
        for _ in 0..SKETCH_BATCH {
            s.record(black_box(rng.next_u64() >> (rng.next_u64() % 48)));
        }
        black_box(s.count());
    });
    let q = bench("sketch/p99_query_on_100k", 200, || {
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

fn bench_fabric(record: &mut Vec<(String, f64)>, smoke: bool) {
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let (requests, iters): (usize, u32) = if smoke { (500, 2) } else { (5_000, 5) };
    let trace =
        TraceConfig::new(Scenario::C, QosLevel::Medium, 1_000.0, requests, 0x7e1e).generate();
    let fleet = Fleet::new(vec![engine; 4]).expect("uniform fleet");
    let policy = DispatchPolicy::LeastWork;
    let plain = bench("fabric/cluster_null_path", iters, || {
        black_box(fleet.run(&trace, policy));
    });
    let stats = bench("fabric/cluster_stats_path", iters, || {
        black_box(fleet.run_stats(&trace, policy));
    });
    let recorded = bench("fabric/cluster_recorded_path", iters, || {
        black_box(fleet.run_recorded(&trace, policy));
    });
    record.push(("fabric_null_s".into(), plain));
    record.push(("fabric_stats_s".into(), stats));
    record.push(("fabric_recorded_s".into(), recorded));
    record.push((
        "fabric_stats_overhead_pct".into(),
        (stats / plain - 1.0) * 100.0,
    ));
    record.push((
        "fabric_recorded_overhead_pct".into(),
        (recorded / plain - 1.0) * 100.0,
    ));
}

fn emit_json(record: &[(String, f64)]) {
    let mut s = String::from("{\n");
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
