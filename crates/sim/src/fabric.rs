//! Multi-node cluster fabric: per-node kernels advanced in
//! epoch-synchronized rounds behind an online dispatcher.
//!
//! One streamed arrival source feeds a serial [`Dispatcher`]; each node
//! owns an independent kernel plus its own policy, and every round the
//! fabric (1) routes a window of arrivals into per-node inboxes, (2)
//! advances each node in place up to a shared bound — on worker threads
//! only when the round routed a full batch or drains the fleet, inline
//! otherwise — and (3) refreshes the [`NodeLoad`] snapshot the
//! dispatcher reads next round.
//!
//! # Determinism
//!
//! Nodes interact only through dispatched arrivals, and the dispatcher
//! runs serially between rounds, so the per-node event sequences are
//! fixed before any node advances — a conservative ("lookahead")
//! parallelization. `par_for_each_mut` hands each node to one worker; no
//! shared mutable state exists during a round, so the result is
//! byte-identical at any worker count.
//!
//! # Lookahead soundness
//!
//! The round bound is `window start + lookahead` (the modeled dispatch
//! latency): every arrival inside the window is delivered to its inbox
//! *before* the owning node's clock passes its arrival cycle, so no
//! arrival is ever delivered late. Load snapshots are at most one
//! lookahead stale — exactly the information delay a real online
//! dispatcher has. Dispatchers that report `feedback() == false` route
//! from dispatcher-local state only, so their routing (and therefore the
//! whole simulation) is independent of window size; the fabric then
//! batches by count alone, keeping rounds rare and fan-out cheap.

use crate::clock::{checked_arrivals, Arrival, SimClock};
use crate::kernel::{EnginePolicy, NodeKernel, NodeSummary};
use planaria_arch::AcceleratorConfig;
use planaria_model::units::{Cycles, Picojoules};
use planaria_parallel::{effective_jobs, par_for_each_mut};
use planaria_telemetry::{Collector, Counter, Event, Metric};
use planaria_workload::{CompletionSink, DiscardSink, Request, SimResult, VecSink};
use std::borrow::Borrow;
use std::collections::VecDeque;

/// Per-node load snapshot, refreshed at each round barrier.
///
/// The capacity field (`subarrays`) describes the node's chip geometry
/// and is constant for a run: heterogeneous fleets expose different
/// values per node, and geometry-aware dispatchers read it instead of
/// assuming uniform chips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// Live (running or queued) tenants at the last barrier.
    pub tenants: usize,
    /// Work left across those tenants at the last barrier, in cycles.
    pub backlog: Cycles,
    /// Requests routed to this node since the last barrier (the
    /// dispatcher's own in-flight count — fresh, not stale).
    pub routed: usize,
    /// Fission granules this node's chip exposes (static per run).
    pub subarrays: u32,
}

/// An online routing policy: sees one request at a time, in arrival
/// order, plus the latest load snapshot, and picks a node.
pub trait Dispatcher {
    /// Routes `req` (arriving at cycle `at` on the fabric clock) to a
    /// node index in `0..loads.len()`.
    fn route(&mut self, req: &Request, at: Cycles, clock: &SimClock, loads: &[NodeLoad]) -> usize;

    /// Whether routing reads the node load snapshot. Feedback-free
    /// dispatchers are batched by request count alone (their decisions
    /// cannot depend on window size), which keeps rounds rare.
    fn feedback(&self) -> bool {
        true
    }
}

/// Fabric pacing knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricTuning {
    /// Modeled dispatch latency, seconds: the width of each routing
    /// window and the staleness bound on load snapshots.
    pub lookahead_seconds: f64,
    /// Hard cap on requests routed per round (bounds inbox growth for
    /// feedback-free dispatchers, whose windows are otherwise unbounded).
    pub max_batch: usize,
}

impl Default for FabricTuning {
    fn default() -> Self {
        Self {
            // 100 µs: generous for a datacenter-tier dispatcher yet far
            // below the millisecond-scale inference latencies being
            // load-balanced, so snapshot staleness is immaterial.
            lookahead_seconds: 100e-6,
            max_batch: 4096,
        }
    }
}

/// Aggregate fabric counters for benchmarking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Kernel wake-ups processed across all nodes.
    pub events: u64,
    /// Dispatch rounds (barriers) executed.
    pub rounds: u64,
}

/// One node's private slice of the fabric: kernel (generic over its
/// completion sink), inbox of checked arrivals, policy, and its own
/// telemetry sink (merged node-id-deterministically afterwards).
struct Lane<P, N, S: CompletionSink> {
    node: NodeKernel<S>,
    inbox: VecDeque<Arrival>,
    policy: P,
    sink: N,
}

/// Runs a multi-node cluster keeping every completion: `policies[i]`
/// owns node `i` (configured by `cfgs[i]`), `dispatcher` routes the
/// requests (a slice or a stream alike) online, and nodes advance in
/// epoch-synchronized rounds (fanned out only for full batches and the
/// final drain), all on one clock anchored at the first arrival.
///
/// `fabric_c` records dispatch decisions, round barriers and load
/// gauges; `node_sinks[i]` receives node `i`'s kernel events exactly as
/// a single-node collector would and comes back in node-id order, so
/// recording changes nothing and merges byte-deterministically at any
/// `PLANARIA_JOBS`. Each node's result is assembled as a single-node
/// run's ([`SimResult::from_completions`]), then merged: completions by
/// request id, energy in node-id order, the slowest node's makespan.
///
/// # Panics
///
/// Panics if the shapes disagree (`cfgs.len() != policies.len()`, zero
/// nodes, zero `max_batch`, mixed clock frequencies), if the source
/// yields arrivals out of order, an arrival the clock cannot represent
/// ([`SimClock::check_arrival`]) or a QoS that is negative or NaN, or if
/// the dispatcher routes out of range.
// lint: telemetry threading adds two sinks to an already-wide entry
// point; run_fabric_summary mirrors it parameter for parameter
#[allow(clippy::too_many_arguments)]
pub fn run_fabric_with<P, D, I, C, N>(
    cfgs: &[AcceleratorConfig],
    policies: Vec<P>,
    requests: I,
    dispatcher: &mut D,
    tuning: &FabricTuning,
    fabric_c: &mut C,
    node_sinks: Vec<N>,
) -> (SimResult, FabricStats, Vec<N>)
where
    P: EnginePolicy + Send,
    D: Dispatcher + ?Sized,
    I: IntoIterator,
    I::Item: Borrow<Request>,
    C: Collector,
    N: Collector + Send,
{
    let (lanes, rounds) = drive_fabric(
        cfgs,
        policies,
        requests,
        dispatcher,
        tuning,
        fabric_c,
        node_sinks,
        VecSink::default,
    );

    let mut stats = FabricStats { events: 0, rounds };
    let mut completions = Vec::new();
    let mut total_energy = Picojoules::ZERO;
    let mut makespan = 0.0f64;
    let mut sinks: Vec<N> = Vec::new();
    for lane in lanes {
        debug_assert!(lane.inbox.is_empty(), "undelivered requests in inbox");
        stats.events += lane.node.events_processed();
        let (kept, s) = lane.node.into_sink();
        let r = SimResult::from_completions(kept.completions, s.static_energy, s.makespan);
        completions.extend(r.completions);
        total_energy += r.total_energy;
        makespan = makespan.max(r.makespan);
        sinks.push(lane.sink);
    }
    completions.sort_by_key(|c| c.request.id);
    (
        SimResult {
            completions,
            total_energy,
            makespan,
        },
        stats,
        sinks,
    )
}

/// The flat-memory fabric: identical scheduling to [`run_fabric_with`],
/// but nodes never materialize completion vectors — each retirement only
/// bumps aggregate tallies, so a 10^6-request run is O(live tenants)
/// resident while percentiles still come out of the sinks' quantile
/// sketches. Returns the per-node summaries folded in node-id order:
/// counts and energies summed, the slowest node's makespan.
///
/// # Panics
///
/// Panics where [`run_fabric_with`] does.
// lint: mirrors run_fabric_with's signature exactly (same sinks, same
// dispatcher) so the two paths stay interchangeable
#[allow(clippy::too_many_arguments)]
pub fn run_fabric_summary<P, D, I, C, N>(
    cfgs: &[AcceleratorConfig],
    policies: Vec<P>,
    requests: I,
    dispatcher: &mut D,
    tuning: &FabricTuning,
    fabric_c: &mut C,
    node_sinks: Vec<N>,
) -> (NodeSummary, FabricStats, Vec<N>)
where
    P: EnginePolicy + Send,
    D: Dispatcher + ?Sized,
    I: IntoIterator,
    I::Item: Borrow<Request>,
    C: Collector,
    N: Collector + Send,
{
    let (lanes, rounds) = drive_fabric(
        cfgs,
        policies,
        requests,
        dispatcher,
        tuning,
        fabric_c,
        node_sinks,
        || DiscardSink,
    );

    let mut stats = FabricStats { events: 0, rounds };
    let mut summary = NodeSummary::default();
    let mut sinks: Vec<N> = Vec::new();
    for lane in lanes {
        debug_assert!(lane.inbox.is_empty(), "undelivered requests in inbox");
        stats.events += lane.node.events_processed();
        let s = lane.node.into_sink().1;
        summary.completed += s.completed;
        summary.total_energy += s.total_energy;
        summary.static_energy += s.static_energy;
        summary.makespan = summary.makespan.max(s.makespan);
        sinks.push(lane.sink);
    }
    (summary, stats, sinks)
}

/// The shared round loop: routes windows, fans nodes out, records
/// fabric-level telemetry, and returns the drained lanes plus the round
/// count. Scheduling is a pure function of `(cfgs, policies, requests,
/// dispatcher, tuning)` — collectors and the per-node completion sinks
/// built by `mk_sink` only decide what is *remembered*, never what
/// happens.
// lint: the shared round loop takes both public signatures' parameters
// plus the sink factory; internal only
#[allow(clippy::too_many_arguments)]
fn drive_fabric<P, D, I, C, N, S, F>(
    cfgs: &[AcceleratorConfig],
    policies: Vec<P>,
    requests: I,
    dispatcher: &mut D,
    tuning: &FabricTuning,
    fabric_c: &mut C,
    node_sinks: Vec<N>,
    mk_sink: F,
) -> (Vec<Lane<P, N, S>>, u64)
where
    P: EnginePolicy + Send,
    D: Dispatcher + ?Sized,
    I: IntoIterator,
    I::Item: Borrow<Request>,
    C: Collector,
    N: Collector + Send,
    S: CompletionSink + Send,
    F: Fn() -> S,
{
    let n = policies.len();
    assert!(n > 0, "fabric needs at least one node");
    assert_eq!(cfgs.len(), n, "one config per node");
    assert_eq!(node_sinks.len(), n, "one telemetry sink per node");
    assert!(tuning.max_batch > 0, "max_batch must be at least 1");
    // Every node geometry must be individually valid, and the fleet must
    // share one clock: the epoch-synchronized rounds run a single cycle
    // domain (lookahead, window cuts, and barrier timestamps are all
    // cycles on the shared clock).
    if let Err(e) = planaria_arch::validate_fleet(cfgs) {
        panic!("{e}");
    }

    let (clock, mut arrivals) = checked_arrivals(requests, cfgs[0].freq_hz);
    let lookahead = clock.duration_cycles(tuning.lookahead_seconds);
    fabric_c.set_meta(clock.meta(0));

    let mut lanes: Vec<Lane<P, N, S>> = cfgs
        .iter()
        .zip(policies.into_iter().zip(node_sinks))
        .map(|(cfg, (policy, mut sink))| {
            sink.set_meta(clock.meta(cfg.num_subarrays()));
            Lane {
                node: NodeKernel::with_sink(cfg, clock, mk_sink()),
                inbox: VecDeque::new(),
                policy,
                sink,
            }
        })
        .collect();
    let mut loads: Vec<NodeLoad> = cfgs
        .iter()
        .map(|cfg| NodeLoad {
            subarrays: cfg.num_subarrays(),
            ..NodeLoad::default()
        })
        .collect();
    let mut rounds: u64 = 0;
    let jobs = effective_jobs();

    let mut pending = arrivals.next();
    while let Some(first) = pending {
        // Open a routing window at the next undelivered arrival.
        let w_start = first.at;
        let w_end = if dispatcher.feedback() {
            // +1 so a zero lookahead still admits the opening arrival.
            Some(
                w_start
                    .saturating_add(lookahead)
                    .saturating_add(Cycles::new(1)),
            )
        } else {
            None
        };
        let mut batched = 0usize;
        while let Some(arrival) = pending {
            let Arrival { request: r, at, .. } = arrival;
            if batched == tuning.max_batch || w_end.is_some_and(|e| at >= e) {
                break;
            }
            let target = dispatcher.route(&r, at, &clock, &loads);
            assert!(target < n, "dispatcher routed to node {target} of {n}");
            lanes[target].inbox.push_back(arrival);
            loads[target].routed += 1;
            batched += 1;
            if fabric_c.is_enabled() {
                fabric_c.record(
                    at,
                    Event::Dispatch {
                        tenant: r.id,
                        dnn: r.dnn,
                        node: u32::try_from(target).unwrap_or(u32::MAX),
                        tenants: u32::try_from(loads[target].tenants).unwrap_or(u32::MAX),
                        backlog: loads[target].backlog,
                        routed: u32::try_from(loads[target].routed).unwrap_or(u32::MAX),
                    },
                );
                fabric_c.add(Counter::DispatchDecisions, 1);
            }
            pending = arrivals.next();
        }

        // Advance every node to the cut: the next undelivered arrival
        // (nothing may simulate past it — it could route anywhere) or
        // the window end, whichever is earlier. A dry source means no
        // future arrival can exist: drain to completion.
        let bound = pending.map(|next| w_end.map_or(next.at, |e| e.min(next.at)));
        // A windowed round is too little work to pay for a thread hand-off.
        let fan_out = batched == tuning.max_batch || bound.is_none();
        par_for_each_mut(&mut lanes, if fan_out { jobs } else { 1 }, |l| {
            let mut inbox = std::iter::from_fn(|| l.inbox.pop_front());
            l.node
                .advance(bound, &mut inbox, &mut l.policy, &mut l.sink);
        });
        rounds += 1;
        for (load, lane) in loads.iter_mut().zip(&lanes) {
            load.tenants = lane.node.live_tenants();
            load.backlog = lane.node.outstanding_cycles();
            load.routed = 0;
        }
        if fabric_c.is_enabled() {
            // The barrier timestamp is the cut every node advanced to;
            // with a dry source (no bound) nodes drained fully, so the
            // latest node clock is the cut. Both are monotone across
            // rounds: every dispatch this window happened at or before
            // the cut, and the next window opens at or after it.
            let cut = bound.unwrap_or_else(|| {
                lanes
                    .iter()
                    .map(|l| l.node.now())
                    .fold(Cycles::ZERO, Cycles::max)
            });
            fabric_c.record(cut, Event::RoundBarrier { seq: rounds });
            fabric_c.add(Counter::FabricRounds, 1);
            for (i, load) in loads.iter().enumerate() {
                fabric_c.record(
                    cut,
                    Event::NodeGauge {
                        node: u32::try_from(i).unwrap_or(u32::MAX),
                        tenants: u32::try_from(load.tenants).unwrap_or(u32::MAX),
                        backlog: load.backlog,
                    },
                );
                fabric_c.observe(Metric::NodeBacklogCycles, load.backlog.get());
                fabric_c.observe(
                    Metric::NodeQueueDepth,
                    u64::try_from(load.tenants).unwrap_or(u64::MAX),
                );
            }
        }
    }

    (lanes, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{run_streamed_sink, SimState};
    use planaria_compiler::CompiledDnn;
    use planaria_model::DnnId;
    use planaria_telemetry::{Collector, NullCollector};
    use planaria_workload::Completion;
    use std::sync::Arc;

    /// A standalone single-node run keeping every completion.
    fn run(cfg: &AcceleratorConfig, trace: &[Request], policy: &mut WholeChipFifo) -> SimResult {
        let (sink, s) = run_streamed_sink(
            cfg,
            trace.iter().copied(),
            policy,
            &mut NullCollector,
            VecSink::default(),
        );
        SimResult::from_completions(sink.completions, s.static_energy, s.makespan)
    }

    /// A fabric run with telemetry off.
    fn fabric(
        cfgs: &[AcceleratorConfig],
        policies: Vec<WholeChipFifo>,
        requests: impl IntoIterator<Item = Request>,
        dispatcher: &mut impl Dispatcher,
        tuning: &FabricTuning,
    ) -> (SimResult, FabricStats) {
        let sinks = policies.iter().map(|_| NullCollector).collect();
        let (r, stats, _) = run_fabric_with(
            cfgs,
            policies,
            requests,
            dispatcher,
            tuning,
            &mut NullCollector,
            sinks,
        );
        (r, stats)
    }

    /// The kernel test policy, duplicated here: oldest queued tenant
    /// gets the whole chip.
    struct WholeChipFifo {
        library: planaria_compiler::CompiledLibrary,
    }

    impl EnginePolicy for WholeChipFifo {
        fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
            self.library.shared(request.dnn)
        }

        fn reschedule<C: Collector>(&mut self, sim: &mut SimState, _c: &mut C) {
            let total = sim.total_subarrays();
            if sim.tenants().iter().any(|t| t.placement.is_some()) {
                return;
            }
            let Some(i) = sim
                .tenants()
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.arrival_cycle)
                .map(|(i, _)| i)
            else {
                return;
            };
            let now = sim.now;
            let t = &mut sim.tenants_mut()[i];
            t.placement = Some(planaria_arch::Allocation::contiguous(0, total, total));
            let (wt, en) = {
                let table = t.compiled.table(total);
                (table.total_cycles(), table.total_energy())
            };
            t.switch_table(wt, en);
            t.slice_start = now;
        }
    }

    fn policy() -> WholeChipFifo {
        policy_for(planaria_arch::AcceleratorConfig::planaria())
    }

    fn policy_for(cfg: planaria_arch::AcceleratorConfig) -> WholeChipFifo {
        WholeChipFifo {
            library: planaria_compiler::CompiledLibrary::clone(
                &planaria_compiler::CompiledLibrary::shared_for(&cfg),
            ),
        }
    }

    fn req(id: u64, arrival: f64) -> Request {
        Request {
            id,
            dnn: DnnId::TinyYolo,
            arrival,
            priority: 5,
            qos: 1.0,
        }
    }

    /// Round-robin over node index — feedback-free.
    struct Rr {
        next: usize,
    }

    impl Dispatcher for Rr {
        fn route(&mut self, _r: &Request, _at: Cycles, _c: &SimClock, loads: &[NodeLoad]) -> usize {
            let t = self.next;
            self.next = (self.next + 1) % loads.len();
            t
        }

        fn feedback(&self) -> bool {
            false
        }
    }

    /// Joins the shortest queue using the barrier snapshot — feedback.
    struct Jsq;

    impl Dispatcher for Jsq {
        fn route(&mut self, _r: &Request, _at: Cycles, _c: &SimClock, loads: &[NodeLoad]) -> usize {
            loads
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.tenants + l.routed)
                .map_or(0, |(i, _)| i)
        }
    }

    fn fabric_trace(n: usize) -> Vec<Request> {
        (0..n).map(|i| req(i as u64, 0.002 * i as f64)).collect()
    }

    #[test]
    fn single_node_fabric_equals_run() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = fabric_trace(12);
        let serial = run(&cfg, &trace, &mut policy());
        let (fab, stats) = fabric(
            &[cfg],
            vec![policy()],
            trace.iter().copied(),
            &mut Rr { next: 0 },
            &FabricTuning::default(),
        );
        assert_eq!(serial.completions, fab.completions);
        assert_eq!(serial.total_energy, fab.total_energy);
        assert_eq!(serial.makespan.to_bits(), fab.makespan.to_bits());
        assert!(stats.events > 0 && stats.rounds > 0);
    }

    #[test]
    fn feedback_free_routing_is_window_size_invariant() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = fabric_trace(24);
        let mut results: Vec<SimResult> = Vec::new();
        for tuning in [
            FabricTuning::default(),
            FabricTuning {
                lookahead_seconds: 0.0,
                max_batch: 1,
            },
            FabricTuning {
                lookahead_seconds: 10.0,
                max_batch: 7,
            },
        ] {
            let (r, _) = fabric(
                &[cfg, cfg, cfg],
                vec![policy(), policy(), policy()],
                trace.iter().copied(),
                &mut Rr { next: 0 },
                &tuning,
            );
            results.push(r);
        }
        assert_eq!(results[0].completions, results[1].completions);
        assert_eq!(results[0].completions, results[2].completions);
        assert_eq!(results[0].makespan.to_bits(), results[1].makespan.to_bits());
    }

    #[test]
    fn feedback_dispatcher_sees_loads_and_completes_everything() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = fabric_trace(30);
        let (r, stats) = fabric(
            &[cfg, cfg, cfg],
            vec![policy(), policy(), policy()],
            trace.iter().copied(),
            &mut Jsq,
            &FabricTuning::default(),
        );
        assert_eq!(r.completions.len(), 30);
        let ids: Vec<u64> = r.completions.iter().map(|c| c.request.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted by id");
        assert!(stats.rounds >= 1);
    }

    #[test]
    fn empty_stream_yields_empty_result() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let (r, stats) = fabric(
            &[cfg, cfg],
            vec![policy(), policy()],
            std::iter::empty(),
            &mut Rr { next: 0 },
            &FabricTuning::default(),
        );
        assert!(r.completions.is_empty());
        assert_eq!(r.makespan, 0.0);
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn completions_match_serial_per_node_runs() {
        // Routing fixed (feedback-free round-robin), the fabric must
        // reproduce each node's standalone simulation exactly: same
        // completion set per node, identical finish timestamps.
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = fabric_trace(20);
        let (fab, _) = fabric(
            &[cfg, cfg],
            vec![policy(), policy()],
            trace.iter().copied(),
            &mut Rr { next: 0 },
            &FabricTuning::default(),
        );
        let mut expected: Vec<Completion> = Vec::new();
        for node in 0..2 {
            let sub: Vec<Request> = trace
                .iter()
                .copied()
                .filter(|r| (r.id as usize) % 2 == node)
                .collect();
            // Standalone runs anchor their clock at the node's own first
            // arrival; re-anchor finishes on the shared fabric clock via
            // the absolute seconds they already carry.
            let r = run(&cfg, &sub, &mut policy());
            expected.extend(r.completions);
        }
        expected.sort_by_key(|c| c.request.id);
        assert_eq!(fab.completions.len(), expected.len());
        for (f, e) in fab.completions.iter().zip(&expected) {
            assert_eq!(f.request.id, e.request.id);
            // Clock origins differ per node (shared fabric origin vs the
            // node's own first arrival), so finishes may differ by the
            // sub-cycle rounding of the origin shift: within 2 cycles.
            let tol = 2.0 / cfg.freq_hz;
            assert!(
                (f.finish - e.finish).abs() <= tol,
                "id {}: fabric {} vs serial {}",
                f.request.id,
                f.finish,
                e.finish
            );
        }
    }

    /// Routes everything to the node exposing the most fission granules
    /// — only possible if the load snapshot carries per-node capacity.
    struct FinestChip;

    impl Dispatcher for FinestChip {
        fn route(&mut self, _r: &Request, _at: Cycles, _c: &SimClock, loads: &[NodeLoad]) -> usize {
            loads
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| l.subarrays)
                .map_or(0, |(i, _)| i)
        }
    }

    #[test]
    fn heterogeneous_geometries_expose_capacity_to_the_dispatcher() {
        let coarse = planaria_arch::AcceleratorConfig::throughput_tuned();
        let fine = planaria_arch::AcceleratorConfig::latency_tuned();
        assert_eq!(coarse.freq_hz.to_bits(), fine.freq_hz.to_bits());
        let trace = fabric_trace(10);
        let (r, _) = fabric(
            &[coarse, fine],
            vec![policy_for(coarse), policy_for(fine)],
            trace.iter().copied(),
            &mut FinestChip,
            &FabricTuning::default(),
        );
        assert_eq!(r.completions.len(), 10);
        // All ten landed on the fine-granule node: rerunning the same
        // sub-trace on a standalone fine-geometry node must agree on the
        // completion count (the coarse node never saw a request).
        let serial = run(&fine, &trace, &mut policy_for(fine));
        assert_eq!(serial.completions.len(), r.completions.len());
        assert_eq!(serial.total_energy, r.total_energy);
    }

    #[test]
    #[should_panic(expected = "request 2 arrives at inf s")]
    fn infinite_arrival_rejected() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = [req(0, 0.0), req(1, 1e-4), req(2, f64::INFINITY)];
        let _ = fabric(
            &[cfg],
            vec![policy()],
            trace,
            &mut Jsq,
            &FabricTuning::default(),
        );
    }

    #[test]
    #[should_panic(expected = "request 1 has a QoS of -0.001 s, not a duration")]
    fn negative_qos_rejected() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let mut trace = [req(0, 0.0), req(1, 1e-4), req(2, 2e-4)];
        trace[1].qos = -1e-3;
        let _ = fabric(
            &[cfg],
            vec![policy()],
            trace,
            &mut Jsq,
            &FabricTuning::default(),
        );
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_rejected() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = [req(0, 1.0), req(1, 0.5)];
        let _ = fabric(
            &[cfg, cfg],
            vec![policy(), policy()],
            trace,
            &mut Jsq,
            &FabricTuning::default(),
        );
    }

    #[test]
    #[should_panic(expected = "outside the clock's range")]
    fn arrival_past_the_cycle_range_rejected() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = [req(0, 0.0), req(1, 1e-4), req(2, 3e10)];
        let _ = fabric(
            &[cfg],
            vec![policy()],
            trace,
            &mut Jsq,
            &FabricTuning::default(),
        );
    }

    #[test]
    #[should_panic(expected = "granularity 48 must divide")]
    fn invalid_node_geometry_rejected() {
        let mut bad = planaria_arch::AcceleratorConfig::planaria();
        bad.subarray_dim = 48;
        let _ = fabric(
            &[bad],
            vec![policy()],
            std::iter::once(req(0, 0.0)),
            &mut Rr { next: 0 },
            &FabricTuning::default(),
        );
    }

    #[test]
    #[should_panic(expected = "share one clock frequency")]
    fn mixed_frequencies_rejected() {
        let a = planaria_arch::AcceleratorConfig::planaria();
        let mut b = a;
        b.freq_hz = a.freq_hz * 2.0;
        let _ = fabric(
            &[a, b],
            vec![policy(), policy()],
            std::iter::once(req(0, 0.0)),
            &mut Rr { next: 0 },
            &FabricTuning::default(),
        );
    }
}
