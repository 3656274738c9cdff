//! Heterogeneous clusters: Planaria fission nodes and PREMA monolithic
//! nodes side by side behind one online dispatcher.
//!
//! The fabric is policy-generic — each node owns any [`EnginePolicy`] —
//! so a mixed fleet is a [`Fleet`](planaria_core::Fleet) of
//! [`MixedNode`]s, each running Planaria's spatial Algorithm 1 or
//! PREMA's temporal token scheduler. The dispatcher's work estimates
//! come from each node's own library: a Planaria node advertises its
//! fission chip's full-chip cycle counts, a PREMA node its monolithic
//! chip's. Both chips run the paper's common budget (same frequency), so
//! they share the fabric clock.

use crate::engine::{PremaEngine, TemporalPolicy};
use planaria_compiler::{CompiledDnn, CompiledLibrary};
use planaria_core::{FleetNode, PlanariaEngine, SpatialPolicy};
use planaria_sim::{EnginePolicy, SimState};
use planaria_telemetry::Collector;
use planaria_workload::Request;
use std::sync::Arc;

/// One node of a mixed fleet.
#[derive(Debug, Clone)]
pub enum MixedNode {
    /// A Planaria node: dynamic fission, spatial Algorithm 1.
    Spatial(PlanariaEngine),
    /// A PREMA node: monolithic chip, temporal token scheduling.
    Temporal(PremaEngine),
}

impl FleetNode for MixedNode {
    type Policy<'a> = MixedPolicy<'a>;

    fn library(&self) -> &CompiledLibrary {
        match self {
            MixedNode::Spatial(e) => e.library(),
            MixedNode::Temporal(e) => e.library(),
        }
    }

    fn policy(&self) -> MixedPolicy<'_> {
        match self {
            MixedNode::Spatial(e) => MixedPolicy::Spatial(e.spatial_policy()),
            MixedNode::Temporal(e) => MixedPolicy::Temporal(e.node_policy()),
        }
    }
}

/// A per-node policy that is either Planaria's or PREMA's, delegating
/// every kernel hook to whichever it wraps.
// lint: built once per node per run and called on every event, so boxing
// the larger Planaria variant would add an indirection to every hook to
// save a few hundred bytes per node.
#[allow(clippy::large_enum_variant)]
pub enum MixedPolicy<'a> {
    /// Planaria spatial scheduling on this node.
    Spatial(SpatialPolicy<'a>),
    /// PREMA temporal scheduling on this node.
    Temporal(TemporalPolicy<'a>),
}

impl EnginePolicy for MixedPolicy<'_> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        match self {
            MixedPolicy::Spatial(p) => p.compiled_for(request),
            MixedPolicy::Temporal(p) => p.compiled_for(request),
        }
    }

    fn admit_subarrays(&self) -> u32 {
        match self {
            MixedPolicy::Spatial(p) => p.admit_subarrays(),
            MixedPolicy::Temporal(p) => p.admit_subarrays(),
        }
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        match self {
            MixedPolicy::Spatial(p) => p.reschedule(sim, c),
            MixedPolicy::Temporal(p) => p.reschedule(sim, c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use planaria_arch::AcceleratorConfig;
    use planaria_core::{DispatchPolicy, Fleet};
    use planaria_workload::{QosLevel, Scenario, TraceConfig};

    /// A fleet laid out by `spatial`: `true` is a Planaria node, `false`
    /// a PREMA node.
    fn mixed(spatial: &[bool]) -> Fleet<MixedNode> {
        let planaria = PlanariaEngine::new(AcceleratorConfig::planaria());
        let prema = PremaEngine::new(AcceleratorConfig::monolithic(), Policy::Prema);
        let nodes = spatial
            .iter()
            .map(|&s| {
                if s {
                    MixedNode::Spatial(planaria.clone())
                } else {
                    MixedNode::Temporal(prema.clone())
                }
            })
            .collect();
        Fleet::new(nodes).expect("valid mixed fleet")
    }

    #[test]
    fn single_temporal_node_equals_prema_engine() {
        let prema = PremaEngine::new(AcceleratorConfig::monolithic(), Policy::Prema);
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 12, 3).generate();
        let direct = prema.run(&trace);
        let (mixed, _) = mixed(&[false]).run(&trace, DispatchPolicy::RoundRobin);
        assert_eq!(direct.completions, mixed.completions);
        assert_eq!(direct.total_energy, mixed.total_energy);
        assert_eq!(direct.makespan.to_bits(), mixed.makespan.to_bits());
    }

    #[test]
    fn single_spatial_node_equals_planaria_engine() {
        let planaria = PlanariaEngine::new(AcceleratorConfig::planaria());
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 100.0, 12, 3).generate();
        let direct = planaria.run(&trace);
        let (mixed, _) = mixed(&[true]).run(&trace, DispatchPolicy::LeastWork);
        assert_eq!(direct.completions, mixed.completions);
        assert_eq!(direct.total_energy, mixed.total_energy);
    }

    #[test]
    fn recorded_mixed_fleet_matches_unrecorded_and_traces_validate() {
        let fleet = mixed(&[true, false]);
        let trace = TraceConfig::new(Scenario::B, QosLevel::Medium, 200.0, 20, 5).generate();
        let (plain, _) = fleet.run(&trace, DispatchPolicy::JoinShortestQueue);
        let (rec_result, _, rec) = fleet.run_recorded(&trace, DispatchPolicy::JoinShortestQueue);
        assert_eq!(plain.completions, rec_result.completions);
        assert_eq!(plain.total_energy, rec_result.total_energy);
        assert_eq!(rec.nodes.len(), 2);
        let json = planaria_telemetry::cluster_chrome_trace(&rec);
        let stats = planaria_telemetry::validate_chrome_trace(&json).expect("trace validates");
        assert!(stats.events > 0);
    }

    #[test]
    fn mixed_fleet_completes_everything_under_every_policy() {
        let fleet = mixed(&[true, false, true, false]);
        let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 250.0, 30, 7).generate();
        for policy in DispatchPolicy::ALL {
            let (r, stats) = fleet.run(&trace, policy);
            assert_eq!(r.completions.len(), 30, "{policy:?}");
            assert!(stats.events > 0, "{policy:?}");
        }
    }
}
