//! Fan-out determinism: every parallelized figure pipeline must be
//! bit-identical at any `PLANARIA_JOBS` setting. This is the test-level
//! half of the proof (CI additionally diffs the full `fig12_throughput`
//! TSV under `PLANARIA_JOBS=1` vs `=2`); here the same code paths —
//! `max_throughput`'s per-seed probes, `sla_satisfaction_rate`'s per-seed
//! sweep, and the `par_grid` scenario × QoS fan-out — run on reduced
//! traces so the comparison fits in a debug-profile test run.
//!
//! Everything lives in one `#[test]` because `PLANARIA_JOBS` is process
//! state: a single test function serializes the env mutations.

use planaria_bench::{par_grid, Systems};
use planaria_parallel::JOBS_ENV;
use planaria_workload::{
    max_throughput, sla_satisfaction_rate, QosLevel, Request, Scenario, TraceConfig,
};

/// A short trace (so the debug-profile engines stay fast).
fn mini_trace(scenario: Scenario, qos: QosLevel, lambda: f64, seed: u64) -> Vec<Request> {
    TraceConfig::new(scenario, qos, lambda, 60, seed).generate()
}

/// Runs `f` with `PLANARIA_JOBS` pinned to `jobs`.
fn with_jobs<R>(jobs: &str, f: impl FnOnce() -> R) -> R {
    std::env::set_var(JOBS_ENV, jobs);
    let r = f();
    std::env::remove_var(JOBS_ENV);
    r
}

#[test]
fn figure_pipelines_are_bit_identical_across_job_counts() {
    let sys = Systems::new();
    let scenario = Scenario::ALL[0];
    let qos = QosLevel::ALL[0];
    let seeds: Vec<u64> = (1..=4).collect();

    // Fig. 12 path: throughput bisection with parallel per-seed probes.
    let throughput = |jobs: &str| {
        with_jobs(jobs, || {
            max_throughput(
                |lambda, seed| {
                    sys.planaria
                        .run(mini_trace(scenario, qos, lambda, seed))
                        .completions
                },
                &seeds,
                0.5,
                2_000.0,
                8,
            )
        })
    };
    let t1 = throughput("1");
    let t4 = throughput("4");
    assert_eq!(
        t1.to_bits(),
        t4.to_bits(),
        "fig12 throughput differs across job counts: {t1} vs {t4}"
    );

    // Fig. 13 path: SLA satisfaction rate with a parallel seed sweep.
    let rate = |jobs: &str| {
        with_jobs(jobs, || {
            sla_satisfaction_rate(
                |seed| {
                    sys.prema
                        .run(mini_trace(scenario, qos, 40.0, seed))
                        .completions
                },
                &seeds,
            )
        })
    };
    assert_eq!(
        rate("1").to_bits(),
        rate("4").to_bits(),
        "fig13 SLA rate differs across job counts"
    );

    // The scenario × QoS grid every figure binary fans out over: the full
    // per-cell result (latencies and energy down to the last bit) must not
    // depend on which worker computed which cell.
    let rows = |jobs: &str| {
        with_jobs(jobs, || {
            par_grid(|sc, q| {
                let r = sys.planaria.run(mini_trace(sc, q, 40.0, 7));
                (
                    r.mean_latency().to_bits(),
                    r.latency_stats().map(|s| s.p99.to_bits()),
                    r.total_energy.to_joules().to_bits(),
                )
            })
        })
    };
    assert_eq!(
        rows("1"),
        rows("4"),
        "grid fan-out differs across job counts"
    );
}
