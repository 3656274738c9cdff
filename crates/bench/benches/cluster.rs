//! Cluster-fabric scaling: a 12-node fabric swept across worker counts
//! 1 → 12 under two dispatch policies, with every point asserted
//! bit-identical to the serial (jobs=1) run.
//!
//! The two lanes sit on opposite sides of the fabric's fan-out rule. The
//! LeastWork lane is feedback-free, so its rounds are full
//! `max_batch`-request batches, which the fabric fans out over the
//! workers. The JoinShortestQueue lane reads load feedback, so the
//! 100 µs lookahead window cuts a round every request or two; those
//! rounds advance inline on the caller, and its time should not move
//! with the worker count. Each lane records its round count and the
//! median and spread (max − min) of the per-iteration wall time at each
//! jobs value, so both claims can be read off the JSON.
//!
//! The fabric's epoch-synchronized design means worker count changes
//! only wall-clock, never results — the `digest()` asserts below turn
//! that claim into a measured invariant on every bench run. Speedup is
//! bounded by the host's logical cores (recorded as
//! `host_logical_cores`). Measured on a 2-core host: the LeastWork lane
//! ran 1.60× faster at jobs=2 than at jobs=1 (118 vs 190 ms per
//! iteration), and jobs above the core count gave some of that back
//! (1.45× at 12). The JSQ lane's 62 936 rounds took 171 ms at jobs=2
//! and 188 ms at jobs=1, within its run-to-run spread.
//!
//! Writes `results/BENCH_cluster.json`. `PLANARIA_BENCH_SMOKE=1` runs a
//! reduced trace and jobs sweep (CI smoke) and does not overwrite the
//! JSON record.

use planaria_arch::AcceleratorConfig;
use planaria_core::{DispatchPolicy, Fleet, PlanariaEngine};
use planaria_workload::{QosLevel, Scenario, TraceConfig};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 12;

/// The measured lanes: a record-key prefix and the dispatch policy.
const LANES: [(&str, DispatchPolicy); 2] = [
    ("least_work", DispatchPolicy::LeastWork),
    ("jsq", DispatchPolicy::JoinShortestQueue),
];

/// A rate high enough to keep all 12 nodes busy: roughly 12× the
/// per-node saturation rate of the fig16 sweep, Scenario C's heavy mix.
fn cluster_cfg(requests: usize) -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Medium, 4_000.0, requests, 0xfab).with_burstiness(3.0)
}

/// Runs `f` once to warm up, then `iters` times, and returns the median
/// and the spread (max − min) of the per-iteration seconds.
fn time_iters(iters: usize, mut f: impl FnMut()) -> (f64, f64) {
    f(); // warmup (also warms the compiled tables)
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[iters / 2], times[iters - 1] - times[0])
}

fn main() {
    let smoke = std::env::var("PLANARIA_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let engine = PlanariaEngine::new(AcceleratorConfig::planaria());
    let (requests, iters): (usize, usize) = if smoke { (2_000, 1) } else { (100_000, 5) };
    let jobs_sweep: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8, 12] };
    let trace = cluster_cfg(requests).generate();
    let fleet = Fleet::new(vec![engine; NODES]).expect("uniform fleet");

    let mut record: Vec<(String, f64)> = Vec::new();
    for (lane, policy) in LANES {
        let run = || fleet.run(&trace, policy);

        // Serial reference: results at every jobs setting must digest equal.
        std::env::set_var(planaria_parallel::JOBS_ENV, "1");
        let (reference, stats) = run();
        assert_eq!(
            reference.completions.len(),
            requests,
            "{policy:?}: fabric lost requests"
        );
        println!(
            "{policy:?}: {NODES}-node fabric, {requests} requests, {} kernel events, {} rounds",
            stats.events, stats.rounds
        );
        println!(
            "{:<6} {:>10} {:>10} {:>10} {:>15} {:>9}",
            "jobs", "ms/iter", "spread", "us/round", "agg ev/s", "speedup"
        );
        let mut serial_time = 0.0f64;
        for &jobs in jobs_sweep {
            std::env::set_var(planaria_parallel::JOBS_ENV, jobs.to_string());
            let (t, spread) = time_iters(iters, || {
                let (result, _) = black_box(run());
                assert_eq!(
                    result.digest(),
                    reference.digest(),
                    "{policy:?}: fabric output differs between jobs=1 and jobs={jobs}"
                );
            });
            if jobs == 1 {
                serial_time = t;
            }
            let us_per_round = t * 1e6 / stats.rounds as f64;
            let ev_per_s = stats.events as f64 / t;
            let speedup = serial_time / t;
            println!(
                "{jobs:<6} {:>10.2} {:>10.2} {us_per_round:>10.3} {ev_per_s:>15.1} {speedup:>8.2}x",
                t * 1e3,
                spread * 1e3
            );
            record.push((format!("{lane}_ms_per_iter_jobs_{jobs}"), t * 1e3));
            record.push((format!("{lane}_ms_spread_jobs_{jobs}"), spread * 1e3));
            record.push((format!("{lane}_us_per_round_jobs_{jobs}"), us_per_round));
            record.push((format!("{lane}_events_per_s_jobs_{jobs}"), ev_per_s));
            record.push((format!("{lane}_speedup_jobs_{jobs}"), speedup));
        }
        std::env::remove_var(planaria_parallel::JOBS_ENV);
        record.push((format!("{lane}_kernel_events"), stats.events as f64));
        record.push((format!("{lane}_rounds"), stats.rounds as f64));
    }

    if smoke {
        println!("[smoke mode: results/BENCH_cluster.json left untouched]");
        return;
    }
    let mut s = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(s, "  \"host_logical_cores\": {cores},");
    let _ = writeln!(s, "  \"nodes\": {NODES},");
    let _ = writeln!(s, "  \"requests\": {requests},");
    let _ = writeln!(s, "  \"iterations\": {iters},");
    for (i, (k, v)) in record.iter().enumerate() {
        let comma = if i + 1 == record.len() { "" } else { "," };
        let _ = writeln!(s, "  \"{k}\": {v:.3}{comma}");
    }
    s.push_str("}\n");
    let path = planaria_bench::results_dir().join("BENCH_cluster.json");
    match std::fs::create_dir_all(planaria_bench::results_dir())
        .and_then(|()| std::fs::write(&path, s))
    {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
