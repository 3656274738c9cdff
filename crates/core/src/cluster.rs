//! Online dispatch for scaled-out serving (the Fig. 16 experiment): the
//! [`DispatchPolicy`] menu and the [`ClusterDispatcher`] that routes a
//! [`Fleet`](crate::Fleet)'s request stream across its nodes.
//!
//! Dispatch accounting lives in the [`Cycles`] domain: the LeastWork
//! horizon per node is integer cycles on the fabric clock, and the work
//! estimate is the compiled full-chip cycle count from the timing memo
//! (`table(total).total_cycles()`), not a float-seconds latency requery.

use planaria_compiler::CompiledLibrary;
use planaria_model::units::Cycles;
use planaria_model::{DnnId, SplitMix64};
use planaria_sim::{Dispatcher, NodeLoad, SimClock};
use planaria_workload::Request;

/// Policy for spreading requests over the cluster's nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispatchPolicy {
    /// Send each request to the node with the least outstanding estimated
    /// work (compiled full-chip cycle counts as the estimate).
    #[default]
    LeastWork,
    /// Cycle through nodes in arrival order.
    RoundRobin,
    /// Pin each network to a fixed node (weight locality: a node serves a
    /// model subset and never reloads foreign weights).
    DnnAffinity,
    /// Join the node with the fewest requests in flight (live tenants at
    /// the last barrier plus requests routed since).
    JoinShortestQueue,
    /// Sample two nodes uniformly and join the less loaded of the pair —
    /// the classic O(1) approximation of shortest-queue.
    PowerOfTwo,
    /// Deadline-aware routing: requests whose QoS budget is tight
    /// relative to their compiled work go to the least-loaded node;
    /// relaxed requests round-robin.
    QosAware,
    /// Geometry-aware routing for heterogeneous fleets: tight-deadline
    /// requests join the least-loaded node among those exposing the most
    /// fission granules (fine-granule chips carve out a logical
    /// accelerator soonest), relaxed requests the least-loaded among the
    /// coarsest nodes (big systolic granules serve batch traffic
    /// cheapest). The class preference is soft: when the preferred class
    /// runs much deeper than the emptiest node in the fleet the request
    /// spills to plain shortest-queue, so a skewed tight/relaxed mix
    /// cannot strand half the fleet idle. On a homogeneous fleet every
    /// node ties and this is exactly
    /// [`JoinShortestQueue`](DispatchPolicy::JoinShortestQueue).
    GeometryAware,
}

impl DispatchPolicy {
    /// Every dispatch policy, for sweeps and determinism tests.
    pub const ALL: [DispatchPolicy; 7] = [
        DispatchPolicy::LeastWork,
        DispatchPolicy::RoundRobin,
        DispatchPolicy::DnnAffinity,
        DispatchPolicy::JoinShortestQueue,
        DispatchPolicy::PowerOfTwo,
        DispatchPolicy::QosAware,
        DispatchPolicy::GeometryAware,
    ];
}

/// Fixed seed for the power-of-two sampler: routing must be a pure
/// function of the arrival stream, so every run draws the same sequence.
const POWER_OF_TWO_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A request is QoS-tight when its whole budget is under this many times
/// its full-chip compiled latency — it cannot afford to queue behind
/// much, so [`DispatchPolicy::QosAware`] sends it to the emptiest node.
const QOS_TIGHT_FACTOR: u64 = 8;

/// Queue-depth slack before [`DispatchPolicy::GeometryAware`] spills a
/// request out of its preferred granularity class: the preferred node
/// may run this many requests deeper than the fleet's emptiest node
/// before shortest-queue takes over.
const GEOMETRY_SPILL_SLACK: usize = 2;

/// The online routing state behind every [`DispatchPolicy`], plugged
/// into the fabric as its [`Dispatcher`].
///
/// All state is in the cycle domain or integer counters: LeastWork
/// horizons are [`Cycles`] on the fabric clock, work estimates come from
/// the compiled timing tables once at construction, and the
/// power-of-two sampler is a seeded [`SplitMix64`].
#[derive(Debug, Clone)]
pub struct ClusterDispatcher {
    policy: DispatchPolicy,
    nodes: usize,
    nodes_u64: u64,
    /// Full-chip work per node per network: `work[node]` is indexed by
    /// [`DnnId::ALL`] position and holds that node's compiled full-chip
    /// cycle counts. Uniform fleets carry identical rows, so every
    /// homogeneous routing decision is unchanged from the
    /// single-geometry dispatcher.
    work: Vec<Vec<Cycles>>,
    /// Per-network best-case work across the fleet (the fastest node's
    /// full-chip cycles) — the geometry-independent yardstick the
    /// QoS-tightness tests compare deadlines against.
    min_work: Vec<Cycles>,
    /// LeastWork: when each node is estimated to drain, fabric-clock
    /// cycles.
    horizons: Vec<Cycles>,
    rr: usize,
    rng: SplitMix64,
}

impl ClusterDispatcher {
    /// A dispatcher over `nodes` identical nodes compiled in `library`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(library: &CompiledLibrary, nodes: usize, policy: DispatchPolicy) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        let libraries = vec![library; nodes];
        Self::heterogeneous(&libraries, policy)
    }

    /// A dispatcher over nodes with per-node geometries: `libraries[i]`
    /// is node `i`'s compiled library, and every work estimate is looked
    /// up in the owning node's tables — a coarse-granule node and a
    /// fine-granule node advertise different full-chip cycle counts for
    /// the same network.
    ///
    /// # Panics
    ///
    /// Panics if `libraries` is empty.
    pub fn heterogeneous(libraries: &[&CompiledLibrary], policy: DispatchPolicy) -> Self {
        let nodes = libraries.len();
        assert!(nodes > 0, "cluster needs at least one node");
        let work: Vec<Vec<Cycles>> = libraries
            .iter()
            .map(|lib| {
                let total = lib.config().num_subarrays();
                DnnId::ALL
                    .iter()
                    .map(|&id| lib.get(id).table(total).total_cycles())
                    .collect()
            })
            .collect();
        let min_work = (0..DnnId::ALL.len())
            .map(|d| work.iter().map(|row| row[d]).min().unwrap_or(Cycles::ZERO))
            .collect();
        Self {
            policy,
            nodes,
            // lint: node counts are small; usize always fits u64 here
            nodes_u64: u64::try_from(nodes).expect("node count fits u64"),
            work,
            min_work,
            horizons: vec![Cycles::ZERO; nodes],
            rr: 0,
            rng: SplitMix64::new(POWER_OF_TWO_SEED),
        }
    }

    fn dnn_index(dnn: DnnId) -> usize {
        DnnId::ALL.iter().position(|&id| id == dnn).unwrap_or(0)
    }

    /// In-flight key: live tenants at the last barrier plus requests
    /// routed since, ties broken by remaining backlog.
    fn in_flight(load: &NodeLoad) -> (usize, Cycles) {
        (load.tenants + load.routed, load.backlog)
    }

    fn least_loaded(loads: &[NodeLoad]) -> usize {
        loads
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| Self::in_flight(l))
            .map_or(0, |(i, _)| i)
    }

    /// Least-loaded node among those whose granule count matches the
    /// fleet extreme: the finest chips (most subarrays) when `fine`,
    /// the coarsest otherwise. Homogeneous fleets tie everywhere, so
    /// this reduces to [`least_loaded`](Self::least_loaded).
    fn least_loaded_by_granularity(loads: &[NodeLoad], fine: bool) -> usize {
        let pick = loads.iter().map(|l| l.subarrays);
        let target = if fine {
            pick.max().unwrap_or(0)
        } else {
            pick.min().unwrap_or(0)
        };
        loads
            .iter()
            .enumerate()
            .filter(|(_, l)| l.subarrays == target)
            .min_by_key(|(_, l)| Self::in_flight(l))
            .map_or(0, |(i, _)| i)
    }

    fn next_round_robin(&mut self) -> usize {
        let t = self.rr;
        self.rr = (self.rr + 1) % self.nodes;
        t
    }
}

impl Dispatcher for ClusterDispatcher {
    fn route(&mut self, req: &Request, at: Cycles, clock: &SimClock, loads: &[NodeLoad]) -> usize {
        match self.policy {
            DispatchPolicy::LeastWork => {
                let target = self
                    .horizons
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, h)| **h)
                    .map_or(0, |(i, _)| i);
                // The chosen node's own estimate: heterogeneous chips
                // advertise different full-chip cycle counts.
                let work = self.work[target][Self::dnn_index(req.dnn)];
                self.horizons[target] = self.horizons[target].max(at) + work;
                target
            }
            DispatchPolicy::RoundRobin => self.next_round_robin(),
            DispatchPolicy::DnnAffinity => Self::dnn_index(req.dnn) % self.nodes,
            DispatchPolicy::JoinShortestQueue => Self::least_loaded(loads),
            DispatchPolicy::PowerOfTwo => {
                let a = usize::try_from(self.rng.next_below(self.nodes_u64))
                    // lint: next_below(n) < n <= usize::MAX
                    .expect("sample fits usize");
                let b = usize::try_from(self.rng.next_below(self.nodes_u64))
                    // lint: next_below(n) < n <= usize::MAX
                    .expect("sample fits usize");
                if Self::in_flight(&loads[b]) < Self::in_flight(&loads[a]) {
                    b
                } else {
                    a
                }
            }
            DispatchPolicy::QosAware => {
                let work = self.min_work[Self::dnn_index(req.dnn)];
                let budget = clock.duration_cycles(req.qos);
                if budget < work.saturating_mul(QOS_TIGHT_FACTOR) {
                    Self::least_loaded(loads)
                } else {
                    self.next_round_robin()
                }
            }
            DispatchPolicy::GeometryAware => {
                let work = self.min_work[Self::dnn_index(req.dnn)];
                let budget = clock.duration_cycles(req.qos);
                let tight = budget < work.saturating_mul(QOS_TIGHT_FACTOR);
                let preferred = Self::least_loaded_by_granularity(loads, tight);
                let fallback = Self::least_loaded(loads);
                let depth = |i: usize| loads[i].tenants + loads[i].routed;
                if depth(preferred) > depth(fallback).saturating_add(GEOMETRY_SPILL_SLACK) {
                    fallback
                } else {
                    preferred
                }
            }
        }
    }

    /// Only the queue-feedback policies read the barrier load snapshot;
    /// the open-loop ones are batched by count alone.
    fn feedback(&self) -> bool {
        matches!(
            self.policy,
            DispatchPolicy::JoinShortestQueue
                | DispatchPolicy::PowerOfTwo
                | DispatchPolicy::QosAware
                | DispatchPolicy::GeometryAware
        )
    }
}

/// The minimum number of nodes achieving the SLA on every probe seed
/// (Fig. 16), up to `max_nodes`; `None` when even `max_nodes` fail.
pub fn min_nodes_for_sla<F>(run: F, max_nodes: usize) -> Option<usize>
where
    F: Fn(usize) -> bool,
{
    (1..=max_nodes).find(|&n| run(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fleet, PlanariaEngine};
    use planaria_arch::AcceleratorConfig;
    use planaria_telemetry::{ClusterRecording, Event};
    use planaria_workload::{meets_sla, QosLevel, Scenario, TraceConfig};

    fn fleet(nodes: usize) -> Fleet<PlanariaEngine> {
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        Fleet::new(vec![e; nodes]).expect("valid fleet")
    }

    /// Each node's dispatched `(request id, network)` pairs, read from
    /// the fabric's `Dispatch` records: the routing the run really did.
    fn routes(rec: &ClusterRecording) -> Vec<Vec<(u64, DnnId)>> {
        let mut per_node = vec![Vec::new(); rec.nodes.len()];
        for te in rec.fabric.events() {
            if let Event::Dispatch {
                tenant, dnn, node, ..
            } = te.event
            {
                per_node[node as usize].push((tenant, dnn));
            }
        }
        per_node
    }

    #[test]
    fn cluster_preserves_all_requests() {
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 300.0, 30, 5).generate();
        let (r, _) = fleet(3).run(&trace, DispatchPolicy::LeastWork);
        assert_eq!(r.completions.len(), 30);
    }

    #[test]
    fn every_policy_preserves_all_requests() {
        let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 250.0, 40, 11).generate();
        let fleet = fleet(4);
        for policy in DispatchPolicy::ALL {
            let (r, _) = fleet.run(&trace, policy);
            assert_eq!(r.completions.len(), 40, "{policy:?}");
            let ids: Vec<u64> = r.completions.iter().map(|c| c.request.id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{policy:?} sorted");
        }
    }

    #[test]
    fn more_nodes_help_under_overload() {
        // Heavy overload of SSD-R requests.
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 120.0, 40, 5).generate();
        let (one, _) = fleet(1).run(&trace, DispatchPolicy::LeastWork);
        let (four, _) = fleet(4).run(&trace, DispatchPolicy::LeastWork);
        assert!(
            four.completions.iter().map(|c| c.latency()).sum::<f64>()
                < one.completions.iter().map(|c| c.latency()).sum::<f64>()
        );
    }

    #[test]
    fn min_nodes_search_is_monotone_first_true() {
        assert_eq!(min_nodes_for_sla(|n| n >= 3, 8), Some(3));
        assert_eq!(min_nodes_for_sla(|_| false, 4), None);
    }

    #[test]
    fn dispatch_policies_partition_the_trace() {
        let fleet = fleet(3);
        let trace = TraceConfig::new(Scenario::C, QosLevel::Soft, 100.0, 45, 4).generate();
        let routed = |policy| routes(&fleet.run_recorded(&trace, policy).2);
        for policy in DispatchPolicy::ALL {
            let mut ids: Vec<u64> = routed(policy).concat().iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..45).collect::<Vec<u64>>(), "{policy:?}");
        }
        // Affinity really pins networks: every node sees a disjoint set.
        let split = routed(DispatchPolicy::DnnAffinity);
        for (i, node) in split.iter().enumerate() {
            for (j, other) in split.iter().enumerate() {
                if i == j {
                    continue;
                }
                for (_, dnn) in node {
                    assert!(
                        !other.iter().any(|(_, o)| o == dnn),
                        "network {dnn} on two nodes"
                    );
                }
            }
        }
    }

    #[test]
    fn round_robin_balances_counts() {
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 50.0, 30, 8).generate();
        let split = routes(&fleet(3).run_recorded(&trace, DispatchPolicy::RoundRobin).2);
        assert!(split.iter().all(|n| n.len() == 10));
    }

    #[test]
    fn open_loop_dispatch_matches_fabric_routing() {
        // Every request completes on the node its dispatch record names:
        // the recorded routing is the routing the nodes actually served.
        let fleet = fleet(3);
        let trace = TraceConfig::new(Scenario::B, QosLevel::Medium, 200.0, 36, 6).generate();
        for policy in [
            DispatchPolicy::LeastWork,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::DnnAffinity,
        ] {
            let (r, _, rec) = fleet.run_recorded(&trace, policy);
            assert_eq!(r.completions.len(), 36, "{policy:?}");
            for (node, sub) in routes(&rec).iter().enumerate() {
                let served = &rec.nodes[&(node as u32)];
                for &(id, _) in sub {
                    assert!(
                        served.events().iter().any(
                            |te| matches!(te.event, Event::Completion { tenant, .. } if tenant == id)
                        ),
                        "{policy:?}: id {id} (node {node}) lost"
                    );
                }
            }
        }
    }

    #[test]
    fn single_node_cluster_equals_engine() {
        // Exact equality: one fabric node on the same clock origin must
        // reproduce the engine bit-for-bit — completions, energy and
        // makespan.
        let e = PlanariaEngine::new(AcceleratorConfig::planaria());
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 15, 9).generate();
        let direct = e.run(&trace);
        let (cluster, _) = fleet(1).run(&trace, DispatchPolicy::LeastWork);
        assert_eq!(direct.completions, cluster.completions);
        assert_eq!(direct.total_energy, cluster.total_energy);
        assert_eq!(direct.makespan.to_bits(), cluster.makespan.to_bits());
        assert!(meets_sla(&direct.completions) == meets_sla(&cluster.completions));
    }

    #[test]
    fn streamed_cluster_equals_materialized() {
        let fleet = fleet(3);
        let cfg = TraceConfig::new(Scenario::C, QosLevel::Medium, 300.0, 50, 12);
        let trace = cfg.generate();
        for policy in DispatchPolicy::ALL {
            let (mat, _) = fleet.run(&trace, policy);
            let (streamed, _) = fleet.run(cfg.stream(), policy);
            assert_eq!(mat.completions, streamed.completions, "{policy:?}");
            assert_eq!(mat.total_energy, streamed.total_energy, "{policy:?}");
        }
    }

    #[test]
    fn recorded_cluster_matches_unrecorded_and_captures_per_node_events() {
        let fleet = fleet(3);
        let trace = TraceConfig::new(Scenario::B, QosLevel::Medium, 200.0, 24, 6).generate();
        let (plain, _) = fleet.run(&trace, DispatchPolicy::JoinShortestQueue);
        let (rec_result, stats, rec) =
            fleet.run_recorded(&trace, DispatchPolicy::JoinShortestQueue);
        // Recording changes nothing about scheduling.
        assert_eq!(plain.completions, rec_result.completions);
        assert_eq!(plain.total_energy, rec_result.total_energy);
        assert_eq!(plain.makespan.to_bits(), rec_result.makespan.to_bits());
        assert!(stats.rounds > 0);
        // The fabric recorder saw every dispatch decision; the node
        // recorders saw every completion between them.
        assert_eq!(rec.nodes.len(), 3);
        let merged = rec.merged_report();
        assert_eq!(
            merged.counter(planaria_telemetry::Counter::DispatchDecisions),
            24
        );
        let sketch = merged
            .sketch(planaria_telemetry::Metric::LatencyCycles)
            .expect("latency sketch recorded");
        assert_eq!(sketch.count(), 24);
    }

    #[test]
    fn stats_cluster_matches_materialized_percentiles() {
        let fleet = fleet(2);
        let trace = TraceConfig::new(Scenario::C, QosLevel::Soft, 250.0, 40, 9).generate();
        let (mat, _) = fleet.run(&trace, DispatchPolicy::LeastWork);
        let (cs, _) = fleet.run_stats(&trace, DispatchPolicy::LeastWork);
        assert_eq!(cs.summary.completed, 40);
        assert_eq!(mat.completions.len(), 40);
        assert!((cs.summary.makespan - mat.makespan).abs() < 1e-12);
        // Sketch p99 over-reports by at most 1/32 relative to the exact
        // nearest-rank oracle on the materialized completions.
        let sketch = cs
            .metrics
            .sketch(planaria_telemetry::Metric::LatencyCycles)
            .expect("latency sketch");
        assert_eq!(sketch.count(), 40);
        let clock = SimClock::new(trace[0].arrival, fleet.configs()[0].freq_hz);
        let mut lat: Vec<Cycles> = mat
            .completions
            .iter()
            .map(|c| {
                clock
                    .cycles_from_seconds(c.finish)
                    .saturating_sub(clock.cycles_from_seconds(c.request.arrival))
            })
            .collect();
        lat.sort();
        let rank = (lat.len() * 99).div_ceil(100).clamp(1, lat.len());
        let truth = lat[rank - 1].get();
        let got = sketch.value_at_ratio(99, 100).expect("non-empty sketch");
        assert!(
            got >= truth.saturating_sub(2),
            "p99 {got} below oracle {truth}"
        );
        assert!(
            got <= truth + truth / 32 + 2,
            "p99 {got} above bound for {truth}"
        );
    }

    #[test]
    fn qos_aware_splits_tight_from_relaxed() {
        // Hard QoS budgets are tight multiples of the compiled latency,
        // so QosAware must least-load at least some requests; with a
        // huge budget everything round-robins.
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 50.0, 30, 8).generate();
        let relaxed: Vec<Request> = trace.iter().map(|r| Request { qos: 1e3, ..*r }).collect();
        let split = routes(&fleet(3).run_recorded(&relaxed, DispatchPolicy::QosAware).2);
        // All relaxed → pure round-robin balance.
        assert!(split.iter().all(|n| n.len() == 10), "relaxed = round-robin");
    }
}
