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
//! walks only the rest; every result must digest identically. The
//! bursty trace also streams into a `DiscardSink` and a `VecSink`, whose
//! node summaries must agree bit for bit.
//!
//! The reference lane also audits the chip after every scheduling event
//! ([`Audit`]): no subarray is double-booked, a sleeping tenant holds
//! none, and a PREMA node lends its whole ring to at most one tenant.
//!
//! PREMA's policy reads only its awake tenants and the kernel's heap
//! roots. [`PickAudit`] checks each of its picks on the production
//! kernel against `pick_with_threshold` over every tenant, for the three
//! temporal policies at six thresholds, and [`AwakeCount`] pins the
//! tenants an event reads as a count.

use planaria_arch::{AcceleratorConfig, Allocation};
use planaria_compiler::CompiledDnn;
use planaria_core::{PlanariaEngine, SchedulingMode};
use planaria_model::units::Cycles;
use planaria_model::DnnId;
use planaria_prema::{pick_with_threshold, policy::PolicyTask, Policy, PremaEngine};
use planaria_sim::oracle::run_streamed_reference;
use planaria_sim::{run_streamed_sink, EnginePolicy, NodeSummary, SimClock, SimState};
use planaria_telemetry::{Collector, NullCollector};
use planaria_workload::{
    DiscardSink, QosLevel, Request, Scenario, SimResult, TraceConfig, VecSink,
};
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

/// Streams `trace` once more into a `DiscardSink` and into a `VecSink`,
/// each with a fresh `policy()`: the sink decides only what is
/// remembered, so the two summaries agree bit for bit, and their count
/// and makespan are the materialized result's.
fn assert_sinks_agree<P: EnginePolicy>(
    cfg: &AcceleratorConfig,
    trace: &TraceConfig,
    mut policy: impl FnMut() -> P,
    materialized: &SimResult,
    tag: &str,
) {
    let bits = |s: NodeSummary| {
        (
            s.completed,
            s.total_energy.as_pj().to_bits(),
            s.static_energy.as_pj().to_bits(),
            s.makespan.to_bits(),
        )
    };
    let (DiscardSink, discarded) = run_streamed_sink(
        cfg,
        trace.stream(),
        &mut policy(),
        &mut NullCollector,
        DiscardSink,
    );
    let (_, vec) = run_streamed_sink(
        cfg,
        trace.stream(),
        &mut policy(),
        &mut NullCollector,
        VecSink::default(),
    );
    assert_eq!(
        bits(discarded),
        bits(vec),
        "{tag}: the sink moved the summary"
    );
    assert_eq!(
        discarded.completed,
        materialized.completions.len() as u64,
        "{tag}: completed"
    );
    assert_eq!(
        discarded.makespan.to_bits(),
        materialized.makespan.to_bits(),
        "{tag}: makespan"
    );
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
    let cfg = *engine.library().config();
    assert_sinks_agree(
        &cfg,
        &trace_cfg,
        || engine.spatial_policy(),
        &hot,
        "bursty sinks",
    );

    // PREMA on the same trace: one runner, preempted as tokens build up
    // across a deep queue.
    let prema = PremaEngine::new_default();
    let hot = prema.run(trace_cfg.stream());
    let oracle = prema_reference(&prema, trace_cfg.stream());
    assert_identical(&hot, &oracle, "prema bursty streamed");
    let cfg = *prema.library().config();
    assert_sinks_agree(
        &cfg,
        &trace_cfg,
        || prema.node_policy(),
        &hot,
        "prema bursty sinks",
    );
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

/// A temporal policy wrapper that checks every pick against its oracle:
/// before each `reschedule` it runs `pick_with_threshold` over every
/// tenant in position order (a runner with its banked tokens, a queued
/// tenant with the tokens it has earned since `queued_since`), and after
/// it asserts that exactly that tenant holds the ring, or that nobody
/// does.
struct PickAudit<P> {
    inner: P,
    policy: Policy,
    /// The starvation bar in token units, converted as the engine does.
    threshold: u64,
    picks: usize,
}

/// A queued tenant's tokens, re-derived: `banked` plus `priority` per
/// cycle waited, saturating.
fn queued_tokens(banked: u64, priority: u32, waited: Cycles) -> u64 {
    banked.saturating_add(u64::from(priority).saturating_mul(waited.get()))
}

impl<P: EnginePolicy> EnginePolicy for PickAudit<P> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        self.inner.compiled_for(request)
    }

    fn admit_subarrays(&self) -> u32 {
        self.inner.admit_subarrays()
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        let now = sim.now;
        let tasks = sim.tenants().iter().enumerate().map(|(i, t)| PolicyTask {
            index: i,
            tokens: if t.placement.is_some() {
                t.tokens
            } else {
                queued_tokens(
                    t.tokens,
                    t.request.priority,
                    now.saturating_sub(t.queued_since),
                )
            },
            arrival: t.arrival_cycle,
            remaining: t.remaining(),
        });
        let want = pick_with_threshold(self.policy, tasks, self.threshold);
        self.inner.reschedule(sim, c);
        let holders: Vec<usize> = (0..sim.tenants().len())
            .filter(|&i| sim.tenants()[i].placement.is_some())
            .collect();
        assert_eq!(
            holders,
            Vec::from_iter(want),
            "{:?} at threshold {} picked wrong at cycle {}",
            self.policy,
            self.threshold,
            now
        );
        self.picks += 1;
    }
}

/// The six starvation thresholds the audit runs, in seconds.
const THRESHOLDS: [f64; 6] = [0.0, 0.001, 0.015, 0.06, 0.24, f64::INFINITY];

/// Runs `trace` on the production kernel under every temporal policy and
/// threshold with each pick audited, returning the picks checked.
fn audit_picks(trace: &[Request], tag: &str) -> usize {
    let cfg = AcceleratorConfig::monolithic();
    let mut picks = 0;
    for policy in [Policy::Prema, Policy::Fcfs, Policy::Sjf] {
        for secs in THRESHOLDS {
            let engine = PremaEngine::new(cfg, policy).with_token_threshold(secs);
            let mut audit = PickAudit {
                inner: engine.node_policy(),
                policy,
                threshold: SimClock::for_config(&cfg).duration_cycles(secs).get(),
                picks: 0,
            };
            let (kept, _) = run_streamed_sink(
                &cfg,
                trace,
                &mut audit,
                &mut NullCollector,
                VecSink::default(),
            );
            assert_eq!(
                kept.completions.len(),
                trace.len(),
                "{tag}: {policy:?} at {secs} s"
            );
            picks += audit.picks;
        }
    }
    picks
}

#[test]
fn every_temporal_pick_matches_its_oracle() {
    // The QoS-Hard overload trace the scale bench's PREMA lanes run: a
    // backlog that starves, parks and wakes for the whole trace.
    let overload = TraceConfig::new(Scenario::C, QosLevel::Hard, 1000.0, 2_000, 5)
        .with_burstiness(6.0)
        .generate();
    assert!(audit_picks(&overload, "overload") > 18 * 3_000);
    // Poisson QoS-Soft traffic near PREMA's capacity: short queues.
    let poisson = TraceConfig::new(Scenario::A, QosLevel::Soft, 150.0, 1_000, 0x9015).generate();
    audit_picks(&poisson, "poisson");
    for (name, trace) in stress_traces() {
        audit_picks(&trace, &name);
    }
}

/// A policy wrapper that counts the awake tenants at each `reschedule`:
/// every tenant an event's kernel passes and a sleeping policy's pick
/// read beyond the heap roots.
struct AwakeCount<P> {
    inner: P,
    events: usize,
    awake: usize,
    max: usize,
}

impl<P: EnginePolicy> EnginePolicy for AwakeCount<P> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        self.inner.compiled_for(request)
    }

    fn admit_subarrays(&self) -> u32 {
        self.inner.admit_subarrays()
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        let awake = sim.awake().len();
        self.events += 1;
        self.awake += awake;
        self.max = self.max.max(awake);
        self.inner.reschedule(sim, c);
    }
}

#[test]
fn temporal_events_read_a_flat_count_of_tenants() {
    // The QoS-Hard overload trace at n and 4n requests: the backlog grows
    // to thousands, while each event reads the runner and the arrivals
    // of its cycle. A policy without sleeping reads every tenant: a mean
    // of 527 at 2 500 requests and 1 957 at 10^4 under PREMA.
    let cfg = AcceleratorConfig::monolithic();
    for policy in [Policy::Prema, Policy::Fcfs, Policy::Sjf] {
        let engine = PremaEngine::new(cfg, policy);
        let mut max = Vec::new();
        for n in [2_500, 10_000] {
            let trace = TraceConfig::new(Scenario::C, QosLevel::Hard, 1000.0, n, 5)
                .with_burstiness(6.0)
                .generate();
            let mut count = AwakeCount {
                inner: engine.node_policy(),
                events: 0,
                awake: 0,
                max: 0,
            };
            run_streamed_sink(&cfg, &trace, &mut count, &mut NullCollector, DiscardSink);
            let mean = count.awake as f64 / count.events as f64;
            assert!(
                mean <= 2.0,
                "{policy:?} at {n} requests: {mean:.2} awake tenants per event"
            );
            max.push(count.max);
        }
        assert!(
            max[1] <= max[0],
            "{policy:?}: the most awake tenants grew from {} to {}",
            max[0],
            max[1]
        );
    }
}
