//! The benchmark's own checks, at small sizes: the traced wrappers must
//! not perturb a simulation, and a wrong fingerprint must surface as
//! failed requests. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::host::jobs_for;
use crate::run::{run, Spec};
use crate::workloads::{self, expected_fingerprint, Setup, Workload};

/// Small per-workload sizes (figure-sweep's probe size is fixed).
fn small(w: Workload) -> usize {
    match w {
        Workload::ServeBurst => 4_000,
        Workload::FleetJsq => 1_000,
        Workload::FigureSweep => w.default_requests(),
    }
}

fn spec(w: Workload, trace: bool, expected: Option<u64>) -> Spec {
    Spec {
        workload: w,
        seed: 3,
        seconds: 0.0,
        trace,
        requests: small(w),
        expected,
        jobs: 2,
    }
}

#[test]
fn traced_runs_digest_like_bare_runs() {
    for w in Workload::ALL {
        let setup = Setup::build(w);
        let bare = workloads::rep(w, &setup, 3, small(w), false);
        let traced = workloads::rep(w, &setup, 3, small(w), true);
        assert_eq!(bare.outcome.retired, bare.attempted, "{}", w.name());
        assert_eq!(bare.fingerprint, traced.fingerprint, "{}", w.name());
        assert_eq!(bare.outcome, traced.outcome, "{}", w.name());
        let t = traced
            .traced
            .as_ref()
            .expect("traced repetition carries a trace");
        assert!(t.tally.policy_ns() > 0, "{}: policy never timed", w.name());
        assert!(t.tally.source.calls > 0, "{}: source never timed", w.name());
        assert_eq!(
            traced.events(),
            Some(t.tally.core_reschedule.calls + t.tally.prema_reschedule.calls),
            "{}: one reschedule per kernel event",
            w.name()
        );
    }
}

#[test]
fn traced_report_passes_its_checks() {
    for w in [Workload::ServeBurst, Workload::FleetJsq] {
        let r = run(&spec(w, true, None));
        assert!(r.correct, "{}: {:?}", w.name(), r.problems);
        assert_eq!(r.failed, 0);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        assert!(names.contains(&"sim.kernel_self_ns"), "{names:?}");
        assert!(names.contains(&"telemetry.trace_overhead_pct"));
    }
}

#[test]
fn planted_fingerprint_mismatch_fails_every_request() {
    let honest = run(&spec(Workload::ServeBurst, false, None));
    assert!(
        honest.correct && honest.failed == 0,
        "{:?}",
        honest.problems
    );
    let planted = run(&spec(Workload::ServeBurst, false, Some(0xdead_beef)));
    assert!(!planted.correct);
    assert_eq!(planted.failed, planted.attempted, "{:?}", planted.problems);
    let frac = planted
        .extra
        .iter()
        .find(|m| m.name == "failed_frac")
        .map(|m| m.value);
    assert_eq!(frac, Some(1.0));
}

#[test]
fn expected_tables_cover_the_tuning_and_held_out_seeds() {
    for w in Workload::ALL {
        for seed in (0..64).chain([w.held_out_seed()]) {
            assert!(
                expected_fingerprint(w.expected_table(), seed).is_some(),
                "{} has no fingerprint for seed {seed}",
                w.name()
            );
        }
    }
}

#[test]
fn golden_grid_is_the_published_figure() {
    let g = workloads::golden_grid();
    assert_eq!(g.len(), 9);
    assert_eq!(g[0], ("374.7".to_string(), "161.0".to_string()));
    assert_eq!(workloads::probe_seeds(0), planaria_bench::PROBE_SEEDS);
}

#[test]
fn worker_count_never_exceeds_the_cores() {
    assert_eq!(jobs_for(None, 1), Ok(1));
    assert_eq!(jobs_for(None, 8), Ok(2));
    assert_eq!(jobs_for(Some("2"), 2), Ok(2));
    assert!(jobs_for(Some("3"), 2).is_err());
    assert!(jobs_for(Some("0"), 2).is_err());
}
