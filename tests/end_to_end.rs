//! Cross-crate integration tests: full pipeline from network description
//! through compilation, scheduling, and multi-tenant simulation.

use planaria::arch::AcceleratorConfig;
use planaria::core::{DispatchPolicy, Fleet, PlanariaEngine};
use planaria::model::DnnId;
use planaria::prema::{Policy, PremaEngine};
use planaria::workload::{meets_sla, violation_rate, QosLevel, Request, Scenario, TraceConfig};
use std::sync::OnceLock;

fn planaria_engine() -> &'static PlanariaEngine {
    static E: OnceLock<PlanariaEngine> = OnceLock::new();
    E.get_or_init(|| PlanariaEngine::new(AcceleratorConfig::planaria()))
}

fn prema_engine() -> &'static PremaEngine {
    static E: OnceLock<PremaEngine> = OnceLock::new();
    E.get_or_init(PremaEngine::new_default)
}

#[test]
fn every_request_completes_exactly_once_on_both_engines() {
    let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 80.0, 120, 5).generate();
    for completions in [
        planaria_engine().run(&trace).completions,
        prema_engine().run(&trace).completions,
    ] {
        assert_eq!(completions.len(), trace.len());
        let mut ids: Vec<u64> = completions.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.len(), "duplicate completions");
        assert!(completions.iter().all(|c| c.finish >= c.request.arrival));
    }
}

#[test]
fn identical_seeds_give_identical_simulations() {
    let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 60, 9).generate();
    let a = planaria_engine().run(&trace);
    let b = planaria_engine().run(&trace);
    assert_eq!(a.completions, b.completions);
    assert!((a.total_energy.to_joules() - b.total_energy.to_joules()).abs() < 1e-12);
}

#[test]
fn planaria_dominates_prema_under_depthwise_load() {
    // Moderate load of Workload-B: the monolithic baseline chokes on
    // depthwise layers while fission keeps violations near zero.
    let trace = TraceConfig::new(Scenario::B, QosLevel::Medium, 60.0, 150, 3).generate();
    let vp = violation_rate(&planaria_engine().run(&trace).completions);
    let vr = violation_rate(&prema_engine().run(&trace).completions);
    assert!(vp < vr, "planaria {vp} vs prema {vr}");
    assert!(vp < 0.05, "planaria should barely violate: {vp}");
}

#[test]
fn offered_load_monotonically_degrades_latency() {
    let mut prev_mean = 0.0;
    for lambda in [20.0, 200.0, 2000.0] {
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, lambda, 120, 77).generate();
        let mean = planaria_engine().run(&trace).mean_latency();
        assert!(
            mean >= prev_mean * 0.70,
            "latency collapsed when load rose: {prev_mean} -> {mean} at {lambda}"
        );
        prev_mean = prev_mean.max(mean);
    }
}

#[test]
fn cluster_scaling_reduces_violations() {
    let e = planaria_engine();
    let trace = TraceConfig::new(Scenario::C, QosLevel::Hard, 150.0, 120, 21).generate();
    let violations = |nodes| {
        let fleet = Fleet::new(vec![e.clone(); nodes]).expect("uniform fleet");
        violation_rate(&fleet.run(&trace, DispatchPolicy::LeastWork).0.completions)
    };
    let (v1, v4) = (violations(1), violations(4));
    assert!(v4 <= v1, "4 nodes ({v4}) should beat 1 node ({v1})");
}

#[test]
fn priorities_matter_under_prema_contention() {
    // Same heavy trace with one request's priority flipped: the higher
    // priority must not finish later.
    let mk = |priority| {
        let mut t: Vec<Request> = (0..6)
            .map(|i| Request {
                id: i,
                dnn: DnnId::YoloV3,
                arrival: 0.0001 * i as f64,
                priority: 2,
                qos: 1.0,
            })
            .collect();
        t[5].priority = priority;
        t
    };
    let low = prema_engine().run(mk(2));
    let high = prema_engine().run(mk(11));
    let finish = |r: &planaria::workload::SimResult| {
        r.completions
            .iter()
            .find(|c| c.request.id == 5)
            .unwrap()
            .finish
    };
    assert!(finish(&high) <= finish(&low) + 1e-9);
}

#[test]
fn sjf_policy_beats_fcfs_on_mixed_sizes() {
    let fcfs = PremaEngine::new(AcceleratorConfig::monolithic(), Policy::Fcfs);
    let sjf = PremaEngine::new(AcceleratorConfig::monolithic(), Policy::Sjf);
    let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 150.0, 100, 13).generate();
    let mf = fcfs.run(&trace).mean_latency();
    let ms = sjf.run(&trace).mean_latency();
    assert!(ms <= mf, "SJF mean {ms} vs FCFS {mf}");
}

#[test]
fn sla_holds_at_low_rate_and_breaks_at_absurd_rate() {
    let e = planaria_engine();
    let low = TraceConfig::new(Scenario::C, QosLevel::Medium, 5.0, 150, 8).generate();
    assert!(meets_sla(&e.run(&low).completions));
    let high = TraceConfig::new(Scenario::C, QosLevel::Medium, 50_000.0, 150, 8).generate();
    assert!(!meets_sla(&e.run(&high).completions));
}

#[test]
fn energy_grows_with_request_count() {
    let e = planaria_engine();
    let short = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 40, 2).generate();
    let long = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 160, 2).generate();
    let es = e.run(&short).total_energy.to_joules();
    let el = e.run(&long).total_energy.to_joules();
    assert!(
        el > es * 2.0,
        "4x the requests should cost >2x energy: {es} -> {el}"
    );
}
