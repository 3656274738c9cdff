//! Exactness oracle: the production kernel must reproduce the reference
//! kernel (`planaria_sim::oracle`) byte for byte.
//!
//! The two find wake-ups by different algorithms. The kernel wakes at the
//! earlier of the pending arrival and the minimum `now + remaining` over
//! tenants holding subarrays; the reference pops a binary heap of
//! completion estimates, invalidated lazily by per-tenant epochs, and
//! runs its retire scan after every event. Both lanes run each engine's
//! production policy, so a comparison isolates the kernel: the scheduler
//! has its own oracle (the full-rescan mode pinned by
//! `incremental_equivalence`). Both engines' policies are run through
//! both kernels across the scenario/QoS grid, at rates that keep the node
//! saturated (deep backlogs re-estimate every running tenant at every
//! event), on adversarial traces (same-instant bursts, hopeless
//! deadlines, convoys, out-of-order and repeated ids, where Planaria's
//! ExclusiveFifo ablation runs too), on a finer-grained chip, and under
//! overload, where Planaria parks nearly the whole backlog (QoS-Hard) or
//! lets it wait by deadline (QoS-Soft and QoS-Medium) and the kernel
//! walks only the rest; every result must digest identically.
//!
//! The reference lane also audits the chip after every scheduling event
//! ([`Audit`]): no subarray is double-booked, a sleeping tenant holds
//! none, and a PREMA node lends its whole ring to at most one tenant.

use planaria_arch::{AcceleratorConfig, Allocation};
use planaria_compiler::CompiledDnn;
use planaria_core::{PlanariaEngine, SchedulingMode};
use planaria_model::DnnId;
use planaria_prema::{Policy, PremaEngine};
use planaria_sim::oracle::run_streamed_reference;
use planaria_sim::{EnginePolicy, SimState};
use planaria_telemetry::{Collector, NullCollector};
use planaria_workload::{QosLevel, Request, Scenario, SimResult, TraceConfig};
use std::borrow::Borrow;
use std::sync::Arc;

/// A policy wrapper that audits the placements after every `reschedule`:
/// live placements are pairwise disjoint and together fit on the chip,
/// tenants outside `awake()` hold none, and with `whole_ring` (PREMA's
/// monolithic chip) at most one tenant holds a placement, the whole ring.
struct Audit<P> {
    inner: P,
    whole_ring: bool,
}

impl<P: EnginePolicy> EnginePolicy for Audit<P> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        self.inner.compiled_for(request)
    }

    fn admit_subarrays(&self) -> u32 {
        self.inner.admit_subarrays()
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        self.inner.reschedule(sim, c);
        let total = sim.total_subarrays();
        let chip = u128::MAX >> (128 - total);
        let (mut used, mut held, mut holders) = (0u128, 0u32, 0usize);
        for (i, t) in sim.tenants().iter().enumerate() {
            let Some(p) = t.placement else {
                continue;
            };
            let at = (sim.now, t.request.id, i, p);
            assert!(sim.awake().binary_search(&i).is_ok(), "asleep: {at:?}");
            assert_eq!(used & p.mask(), 0, "subarrays double-booked: {at:?}");
            assert_eq!(p.mask() & !chip, 0, "off the chip: {at:?}");
            if self.whole_ring {
                assert_eq!(p, Allocation::contiguous(0, total, total), "{at:?}");
            }
            used |= p.mask();
            held += p.len();
            holders += 1;
        }
        assert!(held <= total, "cycle {}: {held} of {total} held", sim.now);
        assert!(
            !self.whole_ring || holders <= 1,
            "cycle {}: {holders} runners",
            sim.now
        );
    }
}

/// The reference kernel's run of `policy`, audited after every event.
fn audited_reference<P: EnginePolicy>(
    cfg: &AcceleratorConfig,
    trace: impl IntoIterator<Item = impl Borrow<Request>>,
    policy: P,
    whole_ring: bool,
) -> SimResult {
    let mut audit = Audit {
        inner: policy,
        whole_ring,
    };
    run_streamed_reference(cfg, trace, &mut audit, &mut NullCollector)
}

/// Planaria's reference lane on `engine`'s chip.
fn spatial_reference(
    engine: &PlanariaEngine,
    trace: impl IntoIterator<Item = impl Borrow<Request>>,
) -> SimResult {
    let cfg = *engine.library().config();
    audited_reference(&cfg, trace, engine.spatial_policy(), false)
}

/// PREMA's reference lane on `engine`'s monolithic chip.
fn prema_reference(
    engine: &PremaEngine,
    trace: impl IntoIterator<Item = impl Borrow<Request>>,
) -> SimResult {
    let cfg = *engine.library().config();
    audited_reference(&cfg, trace, engine.node_policy(), true)
}

fn assert_identical(a: &planaria_workload::SimResult, b: &planaria_workload::SimResult, tag: &str) {
    assert_eq!(a.completions, b.completions, "{tag}: completions diverged");
    assert_eq!(a.total_energy, b.total_energy, "{tag}: energy diverged");
    assert_eq!(a.makespan, b.makespan, "{tag}: makespan diverged");
    assert_eq!(a.digest(), b.digest(), "{tag}: digest diverged");
}

#[test]
fn planaria_policy_matches_reference_across_the_grid() {
    let engine = PlanariaEngine::new(planaria_arch::AcceleratorConfig::planaria());
    for scenario in Scenario::ALL {
        for qos in QosLevel::ALL {
            for lambda in [40.0, 400.0] {
                let trace = TraceConfig::new(scenario, qos, lambda, 160, 0xBEEF).generate();
                let hot = engine.run(&trace);
                let oracle = spatial_reference(&engine, &trace);
                assert_identical(&hot, &oracle, &format!("{scenario}/{qos}/{lambda}"));
            }
        }
    }
}

#[test]
fn prema_policy_matches_reference_across_the_grid() {
    let engine = PremaEngine::new(
        planaria_arch::AcceleratorConfig::monolithic(),
        Policy::Prema,
    );
    for scenario in Scenario::ALL {
        for qos in QosLevel::ALL {
            let trace = TraceConfig::new(scenario, qos, 120.0, 160, 0xFACE).generate();
            let hot = engine.run(&trace);
            let oracle = prema_reference(&engine, &trace);
            assert_identical(&hot, &oracle, &format!("prema {scenario}/{qos}"));
        }
    }
}

#[test]
fn streamed_path_matches_streamed_reference_on_a_bursty_trace() {
    // The bursty high-churn regime from the scale/kernel benches: deep
    // backlogs and constant re-estimation, so the heap lane carries many
    // superseded estimates past the kernel's one minimum.
    let engine = PlanariaEngine::new(planaria_arch::AcceleratorConfig::planaria());
    let trace_cfg =
        TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, 5_000, 0x5ca1e).with_burstiness(6.0);
    let hot = engine.run(trace_cfg.stream());
    let oracle = spatial_reference(&engine, trace_cfg.stream());
    assert_identical(&hot, &oracle, "bursty streamed");

    // PREMA on the same trace: one runner, preempted as tokens build up
    // across a deep queue.
    let prema = PremaEngine::new_default();
    let hot = prema.run(trace_cfg.stream());
    let oracle = prema_reference(&prema, trace_cfg.stream());
    assert_identical(&hot, &oracle, "prema bursty streamed");
}

/// Serve-burst's trace shape at three times what each engine serves on
/// it (about 660 q/s for Planaria on either chip, 330 q/s for PREMA), so
/// the backlog grows for the whole trace: Planaria parks nearly all of
/// it, and PREMA walks all of it.
fn assert_overload_matches(requests: usize) {
    let overload = |lambda: f64| {
        TraceConfig::new(Scenario::C, QosLevel::Hard, lambda, requests, 0x0e7104d)
            .with_burstiness(6.0)
            .generate()
    };
    let trace = overload(2000.0);
    for chip in [
        AcceleratorConfig::planaria(),
        AcceleratorConfig::with_granularity(16),
    ] {
        let engine = PlanariaEngine::new(chip);
        let hot = engine.run(&trace);
        let oracle = spatial_reference(&engine, &trace);
        let tag = format!("overload on {} subarrays", chip.num_subarrays());
        assert_identical(&hot, &oracle, &tag);
    }
    let trace = overload(1000.0);
    let prema = PremaEngine::new_default();
    let hot = prema.run(&trace);
    let oracle = prema_reference(&prema, &trace);
    assert_identical(&hot, &oracle, "prema overload");
}

#[test]
fn waiting_backlog_matches_reference_on_both_spatial_chips() {
    // QoS-Soft and QoS-Medium overload on Scenarios A and C: the queued
    // backlog keeps slack for a while, so Planaria lets it wait in
    // deadline order before it parks, and the kernel walks neither.
    for chip in [
        AcceleratorConfig::planaria(),
        AcceleratorConfig::with_granularity(16),
    ] {
        let engine = PlanariaEngine::new(chip);
        for qos in [QosLevel::Soft, QosLevel::Medium] {
            for scenario in [Scenario::A, Scenario::C] {
                for lambda in [2000.0, 5000.0] {
                    let trace = TraceConfig::new(scenario, qos, lambda, 1_500, 0x3a17)
                        .with_burstiness(6.0)
                        .generate();
                    let hot = engine.run(&trace);
                    let oracle = spatial_reference(&engine, &trace);
                    let tag = format!(
                        "{scenario}/{qos}/{lambda} on {} subarrays",
                        chip.num_subarrays()
                    );
                    assert_identical(&hot, &oracle, &tag);
                }
            }
        }
    }
}

#[test]
fn overload_matches_reference_on_three_chips() {
    assert_overload_matches(2_000);
}

/// The overload case at 10^4 requests. The oracle kernel walks the whole
/// backlog at every event, reading each tenant's estimate by admission
/// number, so this takes about 1.7 s in release and 18 s in debug on a
/// 2-core x86-64 host.
#[test]
fn overload_matches_reference_on_three_chips_at_ten_thousand() {
    assert_overload_matches(10_000);
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

/// The adversarial traces of `tests/robustness.rs` and
/// `tests/request_ids.rs`, by name.
fn stress_traces() -> Vec<(String, Vec<Request>)> {
    let mut traces = vec![
        (
            "same-instant burst of twenty".to_string(),
            (0..20)
                .map(|i| {
                    let dnn = DnnId::ALL[(i % 9) as usize];
                    req(i, dnn, 0.5, (i % 11 + 1) as u32, 0.05)
                })
                .collect(),
        ),
        (
            "hopeless deadlines".to_string(),
            (0..8)
                .map(|i| req(i, DnnId::SsdResNet34, 0.001 * i as f64, 5, 1e-9))
                .collect(),
        ),
        (
            "out-of-order ids".to_string(),
            vec![
                req(1, DnnId::ResNet50, 0.0, 5, 1.0),
                req(0, DnnId::TinyYolo, 1e-4, 5, 1.0),
            ],
        ),
    ];
    let mut convoy: Vec<Request> = (0..10)
        .map(|i| req(i, DnnId::YoloV3, 0.0001 * i as f64, 3, 10.0))
        .collect();
    convoy.push(req(10, DnnId::MobileNetV1, 0.005, 11, 0.025));
    convoy.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    traces.push(("convoy with an interloper".to_string(), convoy));
    for seed in [0, 2, 3, 5, 14, 23] {
        for div in [2, 3, 5] {
            let mut trace = TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, 400, seed)
                .with_burstiness(6.0)
                .generate();
            for r in &mut trace {
                r.id /= div;
            }
            traces.push((format!("bursty seed {seed}, ids / {div}"), trace));
        }
    }
    traces
}

#[test]
fn stress_traces_match_reference_on_three_chips() {
    // Planaria and its ExclusiveFifo ablation on the paper chip and on 64
    // finer subarrays, PREMA on the monolithic chip.
    let mut spatial = Vec::new();
    for chip in [
        AcceleratorConfig::planaria(),
        AcceleratorConfig::with_granularity(16),
    ] {
        let engine = PlanariaEngine::new(chip);
        for mode in [SchedulingMode::Spatial, SchedulingMode::ExclusiveFifo] {
            spatial.push((mode, engine.clone().with_mode(mode)));
        }
    }
    let prema = PremaEngine::new_default();
    for (name, trace) in stress_traces() {
        for (mode, engine) in &spatial {
            let hot = engine.run(&trace);
            let oracle = spatial_reference(engine, &trace);
            let tag = format!(
                "{name} on {} subarrays, {mode:?}",
                engine.library().config().num_subarrays()
            );
            assert_identical(&hot, &oracle, &tag);
        }
        let hot = prema.run(&trace);
        let oracle = prema_reference(&prema, &trace);
        assert_identical(&hot, &oracle, &format!("prema {name}"));
    }
}
