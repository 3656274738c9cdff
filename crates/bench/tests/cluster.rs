//! Cluster-fabric determinism: a multi-node fabric run must be
//! bit-identical at any `PLANARIA_JOBS` setting, for every dispatch
//! policy. Inside each epoch-synchronized round the fabric advances its
//! nodes in place, fanning them out to worker threads when the round
//! routed a full batch or drains the fleet, so this pins the core claim
//! of the parallel design — per-node event sequences are fixed by the
//! serial dispatcher before any node advances, making worker count
//! invisible to the simulation.
//!
//! Everything lives in one `#[test]` because `PLANARIA_JOBS` is process
//! state: a single test function serializes the env mutations (and this
//! file is its own process, so other test binaries are unaffected).

use planaria_core::{DispatchPolicy, Fleet, PlanariaEngine};
use planaria_parallel::JOBS_ENV;
use planaria_sim::{FabricStats, FabricTuning};
use planaria_workload::{QosLevel, Request, Scenario, TraceConfig};

/// Runs `f` with `PLANARIA_JOBS` pinned to `jobs`.
fn with_jobs<R>(jobs: &str, f: impl FnOnce() -> R) -> R {
    std::env::set_var(JOBS_ENV, jobs);
    let r = f();
    std::env::remove_var(JOBS_ENV);
    r
}

/// Asserts that `policy` routes `trace` across `fleet` to the same
/// result at every job count in `jobs`, against a jobs=1 reference, and
/// returns the reference run's fabric stats.
fn assert_jobs_invariant(
    fleet: &Fleet<PlanariaEngine>,
    trace: &[Request],
    policy: DispatchPolicy,
    jobs: &[&str],
) -> FabricStats {
    let run = |jobs: &str| with_jobs(jobs, || fleet.run(trace, policy));
    let (serial, stats) = run("1");
    assert_eq!(
        serial.completions.len(),
        trace.len(),
        "{policy:?}: fabric lost requests"
    );
    for &jobs in jobs {
        let (parallel, _) = run(jobs);
        assert_eq!(
            serial.digest(),
            parallel.digest(),
            "{policy:?}: fabric output differs between jobs=1 and jobs={jobs}"
        );
        // digest() is the cheap summary; on mismatch the line above
        // fires first, and this keeps the guarantee honest if the
        // digest ever collides.
        assert_eq!(serial.completions, parallel.completions, "{policy:?}");
        assert_eq!(
            serial.makespan.to_bits(),
            parallel.makespan.to_bits(),
            "{policy:?}"
        );
    }
    stats
}

#[test]
fn fabric_runs_are_bit_identical_across_job_counts() {
    let engine = PlanariaEngine::new(planaria_arch::AcceleratorConfig::planaria());
    let fleet = Fleet::new(vec![engine; 5]).expect("uniform fleet");

    // Enough load that all 5 nodes stay busy and the dispatcher's
    // feedback (for JSQ/P2C/QoS-aware) actually varies across rounds.
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 600.0, 600, 99).generate();
    for policy in DispatchPolicy::ALL {
        assert_jobs_invariant(&fleet, &trace, policy, &["2", "4", "8"]);
    }

    // 600 requests never fill a batch, so every feedback-free run above
    // is one drain round. Past `max_batch` the first round is a full
    // batch advanced to the next arrival — a bounded round fanned out
    // over the workers.
    let max_batch = FabricTuning::default().max_batch;
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 600.0, 4_500, 99).generate();
    assert!(trace.len() > max_batch);
    for policy in [DispatchPolicy::RoundRobin, DispatchPolicy::LeastWork] {
        let stats = assert_jobs_invariant(&fleet, &trace, policy, &["2", "4"]);
        assert_eq!(
            stats.rounds, 2,
            "{policy:?}: one full batch, then the drain"
        );
    }
}
