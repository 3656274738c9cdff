//! The PREMA node engine: one task at a time on a monolithic 128×128
//! systolic accelerator, scheduled by the token-based policy.
//!
//! The integer-cycle event loop — admission, work advancement, exact
//! completion detection, retirement — lives in [`planaria_sim`]; this
//! module keeps only PREMA's *decisions*: token accrual, the
//! threshold + shortest-job pick, and the context-switch cost a
//! preemption charges to the incoming job. The monolithic chip maps onto
//! the kernel as "the runner's placement is the whole ring", so
//! retirement, busy-time and completion logic are shared with Planaria
//! verbatim.

use crate::policy::{pick_with_threshold, queued_tokens, Policy, PolicyTask};
use planaria_arch::{AcceleratorConfig, Allocation, Arrangement};
use planaria_compiler::{CompiledDnn, CompiledLibrary};
use planaria_sim::{run_streamed_sink, EnginePolicy, SimClock, SimState};
use planaria_telemetry::{Collector, Counter, Event, Metric, NullCollector};
use planaria_timing::{reconfiguration_cycles, ExecContext};
use planaria_workload::{Request, SimResult, VecSink};
use std::borrow::Borrow;
use std::sync::Arc;

/// A single node running the PREMA baseline.
#[derive(Debug, Clone)]
pub struct PremaEngine {
    library: CompiledLibrary,
    policy: Policy,
    /// Starvation threshold, seconds of priority-weighted waiting
    /// (converted to token units once per run).
    token_threshold: f64,
}

impl PremaEngine {
    /// Builds the engine with the paper's baseline hardware (monolithic
    /// TPU-like array, same budget as Planaria) and the PREMA policy.
    pub fn new_default() -> Self {
        Self::new(AcceleratorConfig::monolithic(), Policy::Prema)
    }

    /// Builds the engine with an explicit configuration and policy (FCFS /
    /// SJF are used by the scheduler ablation). Compilation goes through
    /// the process-wide [`CompiledLibrary::shared_for`] cache, so many
    /// engines on one geometry share a single compile.
    pub fn new(cfg: AcceleratorConfig, policy: Policy) -> Self {
        Self {
            library: CompiledLibrary::clone(&CompiledLibrary::shared_for(&cfg)),
            policy,
            token_threshold: crate::policy::TOKEN_THRESHOLD,
        }
    }

    /// Overrides the starvation token threshold, in seconds of
    /// priority-weighted waiting (sensitivity-study hook).
    pub fn with_token_threshold(mut self, threshold: f64) -> Self {
        self.token_threshold = threshold;
        self
    }

    /// Builds over an existing library (must be compiled for a monolithic
    /// configuration to be a faithful PREMA baseline).
    pub fn with_library(library: CompiledLibrary, policy: Policy) -> Self {
        Self {
            library,
            policy,
            token_threshold: crate::policy::TOKEN_THRESHOLD,
        }
    }

    /// The compiled library backing this engine.
    pub fn library(&self) -> &CompiledLibrary {
        &self.library
    }

    /// Simulates a slice (`&trace`) or a lazily drawn stream
    /// (`cfg.stream()`) of requests, bit-identically, keeping every
    /// completion.
    ///
    /// # Panics
    ///
    /// Panics if the requests are not sorted by arrival, if an arrival is
    /// not finite or lies 2^63 or more cycles past the first, or if a QoS
    /// is negative or NaN.
    pub fn run<I>(&self, requests: I) -> SimResult
    where
        I: IntoIterator,
        I::Item: Borrow<Request>,
    {
        self.run_with_collector(requests, &mut NullCollector)
    }

    /// [`run`](Self::run), streaming telemetry into `c`. With
    /// [`NullCollector`] every hook inlines to a no-op, so the results are
    /// bit-identical to [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if the requests are not sorted by arrival, if an arrival is
    /// not finite or lies 2^63 or more cycles past the first, or if a QoS
    /// is negative or NaN.
    pub fn run_with_collector<C, I>(&self, requests: I, c: &mut C) -> SimResult
    where
        C: Collector,
        I: IntoIterator,
        I::Item: Borrow<Request>,
    {
        let mut policy = self.node_policy();
        let (kept, s) = run_streamed_sink(
            self.library.config(),
            requests,
            &mut policy,
            c,
            VecSink::default(),
        );
        SimResult::from_completions(kept.completions, s.static_energy, s.makespan)
    }

    /// A fresh kernel policy for one simulation run (or one cluster
    /// node): token-based temporal multiplexing with this engine's
    /// threshold (tokens live on the kernel's tenant records).
    /// Heterogeneous cluster fabrics mix these with Planaria's spatial
    /// policy.
    pub fn node_policy(&self) -> TemporalPolicy<'_> {
        let cfg = self.library.config();
        let total = cfg.num_subarrays();
        TemporalPolicy {
            library: &self.library,
            policy: self.policy,
            threshold: SimClock::for_config(cfg)
                .duration_cycles(self.token_threshold)
                .get(),
            ctx: ExecContext::full_chip(cfg),
            mono: Arrangement::monolithic(total),
            ring: Allocation::contiguous(0, total, total),
        }
    }
}

/// The PREMA scheduling policy plugged into the kernel: token-based
/// temporal multiplexing of the whole chip.
///
/// The runner is the one tenant with a placement, the whole ring. Each
/// tenant's tokens live on its record ([`TenantState::tokens`]): they are
/// banked when the tenant is granted the chip and frozen while it runs,
/// and a queued tenant's are read lazily from `queued_since`. So the
/// policy keeps no state across events, and an event writes only the
/// incumbent and the incoming tenant.
///
/// [`TenantState::tokens`]: planaria_sim::TenantState::tokens
pub struct TemporalPolicy<'a> {
    library: &'a CompiledLibrary,
    policy: Policy,
    /// Starvation bar in token units (priority-weighted cycles).
    threshold: u64,
    ctx: ExecContext,
    mono: Arrangement,
    /// The whole ring, every runner's placement.
    ring: Allocation,
}

impl EnginePolicy for TemporalPolicy<'_> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        self.library.shared(request.dnn)
    }

    fn admit_subarrays(&self) -> u32 {
        // The monolithic baseline has exactly one configuration table;
        // seed work accounting with it directly (never rescaled).
        self.ring.len()
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        let now = sim.now;
        let total = self.ring.len();
        // One read-only pass finds the runner (the kernel retires a
        // finished one, freeing the chip) and the pick. The runner's
        // tokens are frozen; a queued tenant's accrue from `queued_since`.
        let mut running_idx = None;
        let tasks = sim.tenants().iter().enumerate().map(|(i, t)| {
            let tokens = if t.placement.is_some() {
                running_idx = Some(i);
                t.tokens
            } else {
                queued_tokens(
                    t.tokens,
                    t.request.priority,
                    now.saturating_sub(t.queued_since),
                )
            };
            PolicyTask {
                index: i,
                tokens,
                arrival: t.arrival_cycle,
                remaining: t.remaining(),
            }
        });
        let chosen_idx = pick_with_threshold(self.policy, tasks, self.threshold);
        if chosen_idx != running_idx {
            if let Some(cur) = running_idx {
                // The incumbent loses the accelerator mid-flight.
                if c.is_enabled() {
                    let t = &sim.tenants()[cur];
                    c.record(
                        now,
                        Event::ExecSlice {
                            tenant: t.request.id,
                            subarrays: total,
                            mask: self.ring.mask(),
                            start: t.slice_start,
                            duration: now.saturating_sub(t.slice_start),
                        },
                    );
                    c.record(
                        now,
                        Event::Allocation {
                            tenant: t.request.id,
                            from: total,
                            to: 0,
                            mask: 0,
                        },
                    );
                }
                let t = &mut sim.tenants_mut()[cur];
                t.queued_since = now;
                t.placement = None;
            }
            if let Some(next) = chosen_idx {
                // Context switch: checkpoint the preempted job's tile and
                // restore the incoming job's weights/pipeline.
                if let Some(cur) = running_idx {
                    let cost = {
                        let t = &sim.tenants()[cur];
                        let pos = t.compiled.table(total).position(t.fraction_done());
                        reconfiguration_cycles(&self.ctx, self.mono, self.mono, pos.tile_bytes)
                    };
                    if c.is_enabled() {
                        c.record(
                            now,
                            Event::Preemption {
                                preempted: sim.tenants()[cur].request.id,
                                incoming: sim.tenants()[next].request.id,
                                overhead: cost.total(),
                            },
                        );
                        c.add(Counter::Preemptions, 1);
                        c.sample(Metric::ReconfigCycles, cost.total().as_f64());
                    }
                    sim.tenants_mut()[next].overhead += cost.total();
                }
                let t = &mut sim.tenants_mut()[next];
                let wait = now.saturating_sub(t.queued_since);
                if c.is_enabled() {
                    c.record(
                        now,
                        Event::QueueWait {
                            tenant: t.request.id,
                            start: t.queued_since,
                            duration: wait,
                        },
                    );
                    c.record(
                        now,
                        Event::Allocation {
                            tenant: t.request.id,
                            from: 0,
                            to: total,
                            mask: self.ring.mask(),
                        },
                    );
                    c.sample(Metric::QueueWaitCycles, wait.as_f64());
                    c.sample(Metric::AllocationSize, f64::from(total));
                }
                // Bank the tokens earned in the queue; they stay frozen
                // while the tenant runs.
                t.tokens = queued_tokens(t.tokens, t.request.priority, wait);
                t.slice_start = now;
                t.placement = Some(self.ring);
            }
        }
        if c.is_enabled() {
            c.add(Counter::SchedulingEvents, 1);
            let waiting = sim.tenants().len() - usize::from(chosen_idx.is_some());
            c.sample(Metric::QueueDepth, waiting as f64);
            c.sample(
                Metric::OccupancyPct,
                if chosen_idx.is_some() { 100.0 } else { 0.0 },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_model::DnnId;
    use planaria_workload::{Completion, QosLevel, Scenario, TraceConfig};

    fn engine() -> PremaEngine {
        PremaEngine::new_default()
    }

    #[test]
    fn lone_task_runs_at_monolithic_isolated_speed() {
        let e = engine();
        let r = Request {
            id: 0,
            dnn: DnnId::GoogLeNet,
            arrival: 0.0,
            priority: 5,
            qos: 1.0,
        };
        let result = e.run(&[r]);
        let iso = e.library.isolated_latency(DnnId::GoogLeNet);
        let lat = result.completions[0].latency();
        assert!((lat / iso - 1.0).abs() < 0.01, "lat {lat} iso {iso}");
    }

    #[test]
    fn temporal_sharing_serializes_two_tasks() {
        let e = engine();
        let iso = e.library.isolated_latency(DnnId::ResNet50);
        let mk = |id| Request {
            id,
            dnn: DnnId::ResNet50,
            arrival: 0.0,
            priority: 5,
            qos: 1.0,
        };
        let result = e.run(&[mk(0), mk(1)]);
        let worst = result
            .completions
            .iter()
            .map(Completion::latency)
            .fold(0.0, f64::max);
        // Second task waits for the first: worst latency ≈ 2x isolated.
        assert!(worst > 1.8 * iso, "worst {worst} iso {iso}");
    }

    #[test]
    fn all_policies_complete_everything() {
        for policy in [Policy::Prema, Policy::Fcfs, Policy::Sjf] {
            let e = PremaEngine::new(AcceleratorConfig::monolithic(), policy);
            let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 30.0, 25, 7).generate();
            let r = e.run(&trace);
            assert_eq!(r.completions.len(), 25, "{policy:?}");
        }
    }

    #[test]
    fn high_priority_waits_less_under_prema() {
        // Saturate with low-priority heavy jobs plus one priority-11 job;
        // its wait should be shorter than under FCFS.
        let mk = |id, arrival, dnn, priority| Request {
            id,
            dnn,
            arrival,
            priority,
            qos: 10.0,
        };
        let mut trace = vec![
            mk(0, 0.000, DnnId::SsdResNet34, 1),
            mk(1, 0.001, DnnId::SsdResNet34, 1),
            mk(2, 0.002, DnnId::SsdResNet34, 1),
            mk(3, 0.003, DnnId::ResNet50, 11),
        ];
        trace.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap());
        let prema = PremaEngine::new_default().run(&trace);
        let fcfs = PremaEngine::new(AcceleratorConfig::monolithic(), Policy::Fcfs).run(&trace);
        let lat = |r: &SimResult| {
            r.completions
                .iter()
                .find(|c| c.request.id == 3)
                .unwrap()
                .latency()
        };
        assert!(
            lat(&prema) < lat(&fcfs),
            "prema {} vs fcfs {}",
            lat(&prema),
            lat(&fcfs)
        );
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_rejected() {
        let mut trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 10.0, 5, 3).generate();
        trace.reverse();
        let _ = engine().run(&trace);
    }

    #[test]
    fn preemptions_show_up_in_telemetry() {
        // Two heavy jobs plus a late short high-priority one: PREMA must
        // preempt at least once, and the kernel-side events must balance.
        let e = engine();
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 200.0, 30, 5).generate();
        let mut c = planaria_telemetry::RecordingCollector::new();
        let r = e.run_with_collector(&trace, &mut c);
        assert_eq!(r.completions.len(), 30);
        let report = c.report();
        assert_eq!(report.counter(Counter::Arrivals), 30);
        assert_eq!(report.counter(Counter::Completions), 30);
        assert!(report.counter(Counter::Preemptions) > 0);
    }
}
