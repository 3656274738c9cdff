//! An oracle from outside the code: the two engines that never preempt a
//! runner, run on Poisson traffic, are M/G/1 FCFS queues, so their mean
//! wait must match the Pollaczek–Khinchine formula.
//!
//! PREMA under `Policy::Fcfs` on the monolithic chip runs the oldest
//! tenant to completion, and Planaria's `SchedulingMode::ExclusiveFifo`
//! grants the whole chip to the oldest tenant. A Poisson trace (no
//! bursts) draws each request's network uniformly from the scenario's
//! members, so the service time `S` is what each engine charges a fresh
//! start on the whole chip, mixed uniformly over those networks: the
//! network's whole-chip table total, plus `CONFIG_LOAD_CYCLES` under
//! ExclusiveFifo. At load `ρ = λE[S]` the mean wait is
//! `λE[S²] / (2(1 − ρ))`.
//!
//! The simulated mean wait is averaged over `SEEDS` independent traces,
//! and the formula must lie within [`Z`] seed-to-seed standard errors of
//! it. The test shares no code with the kernel it checks: it reads only
//! the compiled tables and each completion's latency.

use planaria_arch::AcceleratorConfig;
use planaria_compiler::CompiledLibrary;
use planaria_core::{PlanariaEngine, SchedulingMode};
use planaria_model::units::Cycles;
use planaria_model::DnnId;
use planaria_prema::{Policy, PremaEngine};
use planaria_timing::CONFIG_LOAD_CYCLES;
use planaria_workload::{QosLevel, Request, Scenario, SimResult, TraceConfig};

/// Independent traces per row.
const SEEDS: u64 = 5;

/// The tolerance, in seed-to-seed standard errors of the mean wait. At
/// 2·10^5 requests per trace the rows read at most 1.99 (−1.25 … +0.59 %
/// of the formula). At 4 000 they read at most 3.42: a run starts empty,
/// which shortens the early waits, and −12 % of the formula at ρ = 0.8
/// is still within reach of five short traces.
const Z: f64 = 4.0;

/// The loads checked.
const LOADS: [f64; 4] = [0.3, 0.5, 0.7, 0.8];

/// One engine's run of a trace.
type Run = Box<dyn Fn(&[Request]) -> SimResult>;

/// One engine as a queue: its runs and its service time per network.
struct Server {
    name: &'static str,
    run: Run,
    /// Seconds of service for a fresh start of each network.
    service: Box<dyn Fn(DnnId) -> f64>,
}

/// Seconds of `cycles` on `cfg`'s clock.
fn seconds(cfg: &AcceleratorConfig, cycles: Cycles) -> f64 {
    cycles.as_f64() / cfg.freq_hz
}

fn servers() -> [Server; 2] {
    let mono = AcceleratorConfig::monolithic();
    let prema = PremaEngine::new(mono, Policy::Fcfs);
    let mono_lib = CompiledLibrary::shared_for(&mono);
    let planaria = AcceleratorConfig::planaria();
    let fifo = PlanariaEngine::new(planaria).with_mode(SchedulingMode::ExclusiveFifo);
    let fifo_lib = CompiledLibrary::shared_for(&planaria);
    [
        Server {
            name: "PREMA FCFS",
            run: Box::new(move |trace| prema.run(trace)),
            service: Box::new(move |id| {
                let table = mono_lib.get(id).table(mono.num_subarrays());
                seconds(&mono, table.total_cycles())
            }),
        },
        Server {
            name: "ExclusiveFifo",
            run: Box::new(move |trace| fifo.run(trace)),
            service: Box::new(move |id| {
                let table = fifo_lib.get(id).table(planaria.num_subarrays());
                seconds(&planaria, table.total_cycles() + CONFIG_LOAD_CYCLES)
            }),
        },
    ]
}

/// Checks every server on every scenario and load at `requests` per
/// trace, returning the largest deviation in standard errors.
fn check_pollaczek_khinchine(requests: usize) -> f64 {
    let mut worst: f64 = 0.0;
    for server in servers() {
        for scenario in Scenario::ALL {
            let members = scenario.members();
            let k = members.len() as f64;
            let s1 = members.iter().map(|&d| (server.service)(d)).sum::<f64>() / k;
            let s2 = members
                .iter()
                .map(|&d| (server.service)(d).powi(2))
                .sum::<f64>()
                / k;
            for rho in LOADS {
                let lambda = rho / s1;
                let want = lambda * s2 / (2.0 * (1.0 - rho));
                let waits: Vec<f64> = (0..SEEDS)
                    .map(|seed| {
                        let trace =
                            TraceConfig::new(scenario, QosLevel::Soft, lambda, requests, seed)
                                .generate();
                        let r = (server.run)(&trace);
                        assert_eq!(r.completions.len(), requests);
                        r.completions
                            .iter()
                            .map(|c| c.latency() - (server.service)(c.request.dnn))
                            .sum::<f64>()
                            / requests as f64
                    })
                    .collect();
                let n = waits.len() as f64;
                let mean = waits.iter().sum::<f64>() / n;
                let var = waits.iter().map(|w| (w - mean).powi(2)).sum::<f64>() / (n - 1.0);
                let se = (var / n).sqrt();
                let z = (mean - want).abs() / se;
                println!(
                    "{} {scenario} ρ={rho}: wait {mean:.6e} s, P-K {want:.6e} s \
                     ({:+.2} %), {z:.2} standard errors",
                    server.name,
                    100.0 * (mean / want - 1.0)
                );
                assert!(
                    z <= Z,
                    "{} {scenario} ρ={rho}: mean wait {mean:.6e} s is {z:.2} standard \
                     errors from Pollaczek–Khinchine's {want:.6e} s (at most {Z})",
                    server.name
                );
                worst = worst.max(z);
            }
        }
    }
    worst
}

#[test]
fn non_preemptive_engines_wait_as_mg1_queues() {
    check_pollaczek_khinchine(4_000);
}

/// The same check at 2·10^5 requests per trace, where the standard error
/// is about 7× smaller. It takes seconds in release and minutes in
/// debug, so CI runs it in its release step.
#[test]
#[ignore = "release only: cargo test --release --test queueing_theory -- --ignored"]
fn non_preemptive_engines_wait_as_mg1_queues_at_full_size() {
    check_pollaczek_khinchine(200_000);
}
