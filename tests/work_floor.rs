//! An oracle from outside the code: a work floor for every run.
//!
//! A tenant holding k subarrays progresses by 1/T_k of its network per
//! cycle, where T_k is the network's table total for k subarrays. So
//! whatever the scheduler does, serving one request of a network takes
//! at least min_k k·T_k subarray-cycles and at least min_k T_k cycles;
//! reconfigurations, configuration loads and truncated progress only add.
//! Every Planaria run therefore satisfies Σ over completions of min_k
//! k·T_k ≤ subarrays × makespan, every PREMA run, one tenant at a time on
//! the whole chip's table, satisfies Σ T_mono ≤ makespan, and every
//! latency is at least its network's fastest table time. The test reads
//! only the compiled tables and each run's completions.
//!
//! Both sides are compared in integer cycles. The makespan runs from the
//! first arrival, which is the run clock's cycle 0, to the last
//! completion, so it converts back to whole cycles exactly. A latency
//! starts at an arrival rounded to the nearest cycle, so its seconds may
//! read up to half a cycle short of its cycles: the latency floor allows
//! one cycle.

use planaria_arch::AcceleratorConfig;
use planaria_compiler::CompiledLibrary;
use planaria_core::PlanariaEngine;
use planaria_model::DnnId;
use planaria_prema::{Policy, PremaEngine};
use planaria_workload::{QosLevel, Request, Scenario, SimResult, TraceConfig};

/// From light load to overload, in requests per second.
const LAMBDAS: [f64; 4] = [100.0, 300.0, 1000.0, 3000.0];

/// Per network: the fewest subarray-cycles and the fewest cycles one
/// request can take on `lib`'s chip.
fn floors(lib: &CompiledLibrary) -> Vec<(u128, u64)> {
    DnnId::ALL
        .iter()
        .map(|&id| {
            let row = lib.get(id).total_cycles_row();
            let work = (1..).zip(row).map(|(k, t)| k * u128::from(t.get())).min();
            let fastest = row.iter().map(|t| t.get()).min();
            work.zip(fastest).expect("a table per size")
        })
        .collect()
}

/// Checks `r`, a run of `trace` on `cfg`, against the floors, and
/// returns the work floor's share of `subarrays × makespan`.
fn check(what: &str, cfg: &AcceleratorConfig, trace: &[Request], r: &SimResult) -> f64 {
    let lib = CompiledLibrary::shared_for(cfg);
    let floors = floors(&lib);
    assert_eq!(
        r.completions.len(),
        trace.len(),
        "{what}: every request retires"
    );
    let mut work = 0u128;
    for c in &r.completions {
        let (min_work, fastest) = floors[c.request.dnn as usize];
        work += min_work;
        let latency = c.latency() * cfg.freq_hz;
        assert!(
            latency + 1.0 >= fastest as f64,
            "{what}: request {} took {latency} cycles, under its network's fastest {fastest}",
            c.request.id
        );
    }
    let makespan = (r.makespan * cfg.freq_hz).round() as u128;
    let capacity = u128::from(cfg.num_subarrays()) * makespan;
    assert!(
        work <= capacity,
        "{what}: the requests need {work} subarray-cycles, the run had {capacity}"
    );
    work as f64 / capacity as f64
}

/// Runs Planaria on the paper chip and PREMA on the monolithic one over
/// Scenarios A–C at QoS-S and QoS-H and every load in [`LAMBDAS`], each
/// trace `requests` long, and returns the largest work-floor shares.
fn grid(requests: usize) -> (f64, f64) {
    let planaria_cfg = AcceleratorConfig::planaria();
    let prema_cfg = AcceleratorConfig::monolithic();
    let planaria = PlanariaEngine::new(planaria_cfg);
    let prema = PremaEngine::new(prema_cfg, Policy::Prema);
    let (mut planaria_max, mut prema_max) = (0.0f64, 0.0f64);
    let mut seed = 0;
    for scenario in [Scenario::A, Scenario::B, Scenario::C] {
        for qos in [QosLevel::Soft, QosLevel::Hard] {
            for lambda in LAMBDAS {
                seed += 1;
                let trace = TraceConfig::new(scenario, qos, lambda, requests, seed).generate();
                let what = format!("{scenario:?} {qos:?} λ = {lambda}, seed {seed}");
                let r = planaria.run(&trace);
                let share = check(&format!("Planaria {what}"), &planaria_cfg, &trace, &r);
                planaria_max = planaria_max.max(share);
                let r = prema.run(&trace);
                let share = check(&format!("PREMA {what}"), &prema_cfg, &trace, &r);
                prema_max = prema_max.max(share);
            }
        }
    }
    (planaria_max, prema_max)
}

#[test]
fn every_run_does_at_least_its_work_floor() {
    let (planaria, prema) = grid(1_000);
    // Overload fills both chips: the floor is nearly the whole run.
    assert!(planaria > 0.9, "Planaria's largest share {planaria}");
    assert!(prema > 0.9, "PREMA's largest share {prema}");
}

#[test]
#[ignore = "24 runs of 4 000 requests per engine: CI's release step"]
fn every_run_does_at_least_its_work_floor_at_full_size() {
    let (planaria, prema) = grid(4_000);
    assert!(planaria > 0.9, "Planaria's largest share {planaria}");
    assert!(prema > 0.9, "PREMA's largest share {prema}");
}
