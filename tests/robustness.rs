//! Failure-injection and adversarial-input tests for the engines and the
//! scheduler: pathological traces must never hang, panic, drop, or
//! duplicate requests.

use planaria::arch::AcceleratorConfig;
use planaria::core::PlanariaEngine;
use planaria::model::DnnId;
use planaria::prema::PremaEngine;
use planaria::workload::Request;
use std::sync::OnceLock;

fn planaria_engine() -> &'static PlanariaEngine {
    static E: OnceLock<PlanariaEngine> = OnceLock::new();
    E.get_or_init(|| PlanariaEngine::new(AcceleratorConfig::planaria()))
}

fn prema_engine() -> &'static PremaEngine {
    static E: OnceLock<PremaEngine> = OnceLock::new();
    E.get_or_init(PremaEngine::new_default)
}

fn req(id: u64, dnn: DnnId, arrival: f64, priority: u32, qos: f64) -> Request {
    Request {
        id,
        dnn,
        arrival,
        priority,
        qos,
    }
}

/// Thundering herd: many tenants arriving at the exact same instant.
#[test]
fn simultaneous_burst_of_twenty() {
    let trace: Vec<Request> = (0..20)
        .map(|i| {
            req(
                i,
                DnnId::ALL[(i % 9) as usize],
                0.5,
                (i % 11 + 1) as u32,
                0.05,
            )
        })
        .collect();
    for completions in [
        planaria_engine().run(&trace).completions,
        prema_engine().run(&trace).completions,
    ] {
        assert_eq!(completions.len(), 20);
        assert!(completions.iter().all(|c| c.finish >= 0.5));
    }
}

/// Zero slack: deadlines already passed at arrival. Everything must still
/// complete (late), never wedge.
#[test]
fn hopeless_deadlines_still_complete() {
    let trace: Vec<Request> = (0..8)
        .map(|i| req(i, DnnId::SsdResNet34, 0.001 * i as f64, 5, 1e-9))
        .collect();
    let r = planaria_engine().run(&trace);
    assert_eq!(r.completions.len(), 8);
    assert!(r.completions.iter().all(|c| !c.met_qos()));
}

/// Absurdly loose deadlines: slack so large every estimate is 1 subarray.
#[test]
fn infinite_slack_runs_and_meets_qos() {
    let trace: Vec<Request> = (0..16)
        .map(|i| req(i, DnnId::TinyYolo, 0.0, 5, 1e6))
        .collect();
    let r = planaria_engine().run(&trace);
    assert_eq!(r.completions.len(), 16);
    assert!(r.completions.iter().all(|c| c.met_qos()));
}

/// One tenant of every priority level arriving back-to-back: the engine
/// must respect the scheduler's priority weighting without starving anyone.
#[test]
fn full_priority_ladder_completes() {
    let trace: Vec<Request> = (0..11)
        .map(|i| req(i, DnnId::GoogLeNet, 1e-6 * i as f64, i as u32 + 1, 0.1))
        .collect();
    let r = planaria_engine().run(&trace);
    assert_eq!(r.completions.len(), 11);
}

/// Single-request traces of every network on both engines.
#[test]
fn every_network_runs_alone_on_both_systems() {
    for id in DnnId::ALL {
        let trace = [req(0, id, 0.0, 5, 10.0)];
        let p = planaria_engine().run(trace);
        let m = prema_engine().run(trace);
        assert_eq!(p.completions.len(), 1, "{id} planaria");
        assert_eq!(m.completions.len(), 1, "{id} prema");
        assert!(p.completions[0].latency() > 0.0);
        assert!(m.completions[0].latency() > 0.0);
    }
}

/// A long convoy of the heaviest network with a tiny interloper arriving
/// mid-convoy: the interloper must not be lost and must finish well before
/// the convoy drains on Planaria.
#[test]
fn interloper_cuts_through_convoy() {
    let mut trace: Vec<Request> = (0..10)
        .map(|i| req(i, DnnId::YoloV3, 0.0001 * i as f64, 3, 10.0))
        .collect();
    trace.push(req(10, DnnId::MobileNetV1, 0.005, 11, 0.025));
    trace.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap());
    let r = planaria_engine().run(&trace);
    let interloper = r
        .completions
        .iter()
        .find(|c| c.request.id == 10)
        .expect("interloper completes");
    let convoy_last = r
        .completions
        .iter()
        .filter(|c| c.request.id != 10)
        .map(|c| c.finish)
        .fold(0.0, f64::max);
    assert!(
        interloper.finish < convoy_last,
        "high-priority tiny task should finish before the convoy"
    );
}

/// Identical ids are tolerated (the engine treats requests positionally and
/// reports one completion per input row).
#[test]
fn duplicate_ids_dont_collapse() {
    let trace = [
        req(7, DnnId::TinyYolo, 0.0, 5, 1.0),
        req(7, DnnId::TinyYolo, 0.0, 5, 1.0),
    ];
    assert_eq!(planaria_engine().run(trace).completions.len(), 2);
}

/// Makespan and energy stay finite and sane under a 1000-request stress
/// trace.
#[test]
fn thousand_request_stress() {
    use planaria::workload::{QosLevel, Scenario, TraceConfig};
    let trace = TraceConfig::new(Scenario::C, QosLevel::Soft, 300.0, 1000, 99).generate();
    let r = planaria_engine().run(&trace);
    assert_eq!(r.completions.len(), 1000);
    assert!(r.makespan.is_finite() && r.makespan > 0.0);
    assert!(r.total_energy.to_joules().is_finite() && r.total_energy.to_joules() > 0.0);
}
