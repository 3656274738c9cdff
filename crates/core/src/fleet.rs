//! Fleets: single-chip nodes behind one online dispatcher.
//!
//! Each DNN task is mapped to a single chip (§VI-B1), so a fleet is a
//! list of nodes plus a [`ClusterDispatcher`]. Requests stream through
//! the dispatcher into the multi-node fabric
//! ([`planaria_sim::run_fabric_with`]): one kernel plus one policy per
//! node, advanced in place in epoch-synchronized rounds that fan out
//! across cores only for full batches and the final drain, while the
//! result stays byte-identical at any worker count.
//!
//! A node is any [`FleetNode`]: [`PlanariaEngine`]s make uniform
//! clusters (Fig. 16) and mixed-geometry fleets (coarse- and
//! fine-granule chips on one clock); `planaria_prema::MixedNode` puts
//! Planaria and PREMA chips side by side. The dispatcher reads each
//! node's capacity and work estimates from its own compiled library.

use crate::cluster::{ClusterDispatcher, DispatchPolicy};
use crate::engine::{PlanariaEngine, SpatialPolicy};
use planaria_arch::{AcceleratorConfig, GeometryError};
use planaria_compiler::CompiledLibrary;
use planaria_model::units::Picojoules;
use planaria_sim::{run_fabric_summary, run_fabric_with, EnginePolicy, FabricStats, FabricTuning};
use planaria_telemetry::{
    ClusterRecording, Collector, MetricsReport, NullCollector, RecordingCollector, StatsCollector,
};
use planaria_workload::{Request, SimResult};
use std::borrow::Borrow;

/// A node a [`Fleet`] can run: a compiled chip plus a fresh scheduling
/// policy per run.
pub trait FleetNode {
    /// The kernel policy one run of this node drives.
    type Policy<'a>: EnginePolicy + Send
    where
        Self: 'a;

    /// The node's compiled library: its chip geometry and the work
    /// estimates the dispatcher routes by.
    fn library(&self) -> &CompiledLibrary;

    /// A fresh policy with private scheduling state, for one run.
    fn policy(&self) -> Self::Policy<'_>;
}

impl FleetNode for PlanariaEngine {
    type Policy<'a> = SpatialPolicy<'a>;

    fn library(&self) -> &CompiledLibrary {
        PlanariaEngine::library(self)
    }

    fn policy(&self) -> SpatialPolicy<'_> {
        self.spatial_policy()
    }
}

/// Aggregate result of the flat-memory fleet run: counts, energy and
/// percentile sketches without ever materializing a completion vector.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Requests retired across all nodes.
    pub completed: u64,
    /// Dynamic plus static energy summed over nodes in node-id order.
    pub total_energy: Picojoules,
    /// Slowest node's makespan, seconds.
    pub makespan: f64,
    /// Fabric counters merged with every node's counters, histograms and
    /// quantile sketches (latency percentiles live in
    /// [`Metric::LatencyCycles`](planaria_telemetry::Metric::LatencyCycles)).
    pub metrics: MetricsReport,
}

/// Single-chip nodes behind one online dispatcher, on one shared clock.
/// Every run takes a slice (`&trace`) or a stream (`cfg.stream()`) of
/// requests alike and is byte-deterministic at any `PLANARIA_JOBS`.
#[derive(Debug, Clone)]
pub struct Fleet<N> {
    nodes: Vec<N>,
}

impl<N: FleetNode> Fleet<N> {
    /// A fleet with one node per entry, in node order.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::EmptyFleet`] for no nodes, the first
    /// [`GeometryError`] a node geometry violates, or
    /// [`GeometryError::MixedClockFrequency`] when clocks disagree (the
    /// fabric's rounds run one cycle domain).
    pub fn new(nodes: Vec<N>) -> Result<Self, GeometryError> {
        let fleet = Self { nodes };
        planaria_arch::validate_fleet(&fleet.configs())?;
        Ok(fleet)
    }

    /// The per-node chip configurations, in node order.
    pub fn configs(&self) -> Vec<AcceleratorConfig> {
        self.nodes.iter().map(|n| *n.library().config()).collect()
    }

    /// Runs `requests` through the fleet under `policy`, keeping every
    /// completion (re-sorted by request id across nodes).
    ///
    /// # Panics
    ///
    /// Panics if the requests are not sorted by arrival, if an arrival is
    /// not finite or lies 2^63 or more cycles past the first, or if a QoS
    /// is negative or NaN.
    pub fn run<I>(&self, requests: I, policy: DispatchPolicy) -> (SimResult, FabricStats)
    where
        I: IntoIterator,
        I::Item: Borrow<Request>,
    {
        let sinks = self.nodes.iter().map(|_| NullCollector).collect();
        let (result, stats, _) = self.fabric(requests, policy, &mut NullCollector, sinks);
        (result, stats)
    }

    /// [`run`](Self::run) with full telemetry: dispatch decisions, round
    /// barriers and load gauges in the fabric recorder, each node's
    /// kernel events in its own, keyed by node id. Recording changes
    /// nothing about scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the requests are not sorted by arrival, if an arrival is
    /// not finite or lies 2^63 or more cycles past the first, or if a QoS
    /// is negative or NaN.
    pub fn run_recorded<I>(
        &self,
        requests: I,
        policy: DispatchPolicy,
    ) -> (SimResult, FabricStats, ClusterRecording)
    where
        I: IntoIterator,
        I::Item: Borrow<Request>,
    {
        let mut rec = ClusterRecording::new();
        let sinks = self
            .nodes
            .iter()
            .map(|_| RecordingCollector::new())
            .collect();
        let (result, stats, sinks) = self.fabric(requests, policy, &mut rec.fabric, sinks);
        rec.nodes = (0..).zip(sinks).collect();
        (result, stats, rec)
    }

    /// [`run`](Self::run) at O(live tenants) memory: nodes keep only
    /// aggregate tallies plus streaming sketches, so a 10^6-request run
    /// reports p50/p99 latency and QoS satisfaction without a completion
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if the requests are not sorted by arrival, if an arrival is
    /// not finite or lies 2^63 or more cycles past the first, or if a QoS
    /// is negative or NaN.
    pub fn run_stats<I>(&self, requests: I, policy: DispatchPolicy) -> (ClusterStats, FabricStats)
    where
        I: IntoIterator,
        I::Item: Borrow<Request>,
    {
        let mut fabric = StatsCollector::new();
        let sinks = self.nodes.iter().map(|_| StatsCollector::new()).collect();
        let (summary, stats, sinks) = run_fabric_summary(
            &self.configs(),
            self.policies(),
            requests,
            &mut self.dispatcher(policy),
            &FabricTuning::default(),
            &mut fabric,
            sinks,
        );
        let mut metrics = fabric.report();
        for sink in &sinks {
            metrics.merge(&sink.report());
        }
        let cs = ClusterStats {
            completed: summary.completed,
            total_energy: summary.total_energy,
            makespan: summary.makespan,
            metrics,
        };
        (cs, stats)
    }

    fn fabric<I, C, S>(
        &self,
        requests: I,
        policy: DispatchPolicy,
        fabric_c: &mut C,
        node_sinks: Vec<S>,
    ) -> (SimResult, FabricStats, Vec<S>)
    where
        I: IntoIterator,
        I::Item: Borrow<Request>,
        C: Collector,
        S: Collector + Send,
    {
        run_fabric_with(
            &self.configs(),
            self.policies(),
            requests,
            &mut self.dispatcher(policy),
            &FabricTuning::default(),
            fabric_c,
            node_sinks,
        )
    }

    fn policies(&self) -> Vec<N::Policy<'_>> {
        self.nodes.iter().map(N::policy).collect()
    }

    /// A dispatcher whose work estimates come from each node's own
    /// compiled tables.
    fn dispatcher(&self, policy: DispatchPolicy) -> ClusterDispatcher {
        let libraries: Vec<_> = self.nodes.iter().map(N::library).collect();
        ClusterDispatcher::heterogeneous(&libraries, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_workload::{QosLevel, Scenario, TraceConfig};

    fn fleet_of(cfgs: &[AcceleratorConfig]) -> Result<Fleet<PlanariaEngine>, GeometryError> {
        Fleet::new(cfgs.iter().copied().map(PlanariaEngine::new).collect())
    }

    fn mixed_fleet() -> Fleet<PlanariaEngine> {
        fleet_of(&[
            AcceleratorConfig::throughput_tuned(),
            AcceleratorConfig::planaria(),
            AcceleratorConfig::latency_tuned(),
        ])
        .expect("valid fleet")
    }

    #[test]
    fn construction_validates_geometry_and_clock() {
        assert!(matches!(fleet_of(&[]), Err(GeometryError::EmptyFleet)));
        let mut bad = AcceleratorConfig::planaria();
        bad.subarray_dim = 48;
        assert!(matches!(
            fleet_of(&[AcceleratorConfig::planaria(), bad]),
            Err(GeometryError::NonDivisorDim { dim: 48, .. })
        ));
        let mut fast = AcceleratorConfig::planaria();
        fast.freq_hz *= 2.0;
        assert!(matches!(
            fleet_of(&[AcceleratorConfig::planaria(), fast]),
            Err(GeometryError::MixedClockFrequency { node: 1, .. })
        ));
    }

    #[test]
    fn equal_pe_budget_across_shapes() {
        let cfgs = mixed_fleet().configs();
        assert_eq!(cfgs.len(), 3);
        let pes: u64 = cfgs.iter().map(AcceleratorConfig::total_pes).sum();
        assert_eq!(pes, 3 * 16_384);
    }

    #[test]
    fn heterogeneous_fleet_completes_under_every_policy() {
        let fleet = mixed_fleet();
        let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 250.0, 30, 7).generate();
        for policy in DispatchPolicy::ALL {
            let (r, stats) = fleet.run(&trace, policy);
            assert_eq!(r.completions.len(), 30, "{policy:?}");
            assert!(stats.events > 0, "{policy:?}");
        }
    }

    #[test]
    fn stats_path_matches_materialized() {
        let fleet = mixed_fleet();
        let trace = TraceConfig::new(Scenario::B, QosLevel::Medium, 200.0, 24, 5).generate();
        let (mat, _) = fleet.run(&trace, DispatchPolicy::GeometryAware);
        let (cs, _) = fleet.run_stats(&trace, DispatchPolicy::GeometryAware);
        assert_eq!(cs.completed as usize, mat.completions.len());
        assert_eq!(cs.total_energy, mat.total_energy);
        assert_eq!(cs.makespan.to_bits(), mat.makespan.to_bits());
    }

    #[test]
    fn single_node_fleet_equals_engine() {
        let fleet = fleet_of(&[AcceleratorConfig::latency_tuned()]).expect("valid");
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 15, 9).generate();
        let direct = PlanariaEngine::new(AcceleratorConfig::latency_tuned()).run(&trace);
        let (fleet_r, _) = fleet.run(&trace, DispatchPolicy::LeastWork);
        assert_eq!(direct.completions, fleet_r.completions);
        assert_eq!(direct.total_energy, fleet_r.total_energy);
        assert_eq!(direct.makespan.to_bits(), fleet_r.makespan.to_bits());
    }
}
