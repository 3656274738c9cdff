//! The PREMA node engine: one task at a time on a monolithic 128×128
//! systolic accelerator, scheduled by the token-based policy.
//!
//! The integer-cycle event loop — admission, work advancement, exact
//! completion detection, retirement — lives in [`planaria_sim`]; this
//! module keeps only PREMA's *decisions*: token accrual, the
//! threshold + shortest-job pick, and the context-switch cost a
//! preemption charges to the incoming job. The monolithic chip maps onto
//! the kernel as "the runner holds every subarray" (`alloc = total`),
//! so retirement, busy-time and completion logic are shared with
//! Planaria verbatim.

use crate::policy::{pick_with_threshold, Policy, PolicyTask, TokenState};
use planaria_arch::{AcceleratorConfig, Arrangement};
use planaria_compiler::{CompiledDnn, CompiledLibrary};
use planaria_sim::{full_mask, run_streamed_sink, EnginePolicy, SimClock, SimState};
use planaria_telemetry::{Collector, Counter, Event, Metric, NullCollector};
use planaria_timing::{reconfiguration_cycles, ExecContext};
use planaria_workload::{Request, SimResult, VecSink};
use std::borrow::Borrow;
use std::collections::BTreeMap;
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
    /// Panics if the requests are not sorted by arrival.
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
    /// Panics if the requests are not sorted by arrival.
    pub fn run_with_collector<C, I>(&self, requests: I, c: &mut C) -> SimResult
    where
        C: Collector,
        I: IntoIterator,
        I::Item: Borrow<Request>,
    {
        let requests = requests.into_iter().map(|r| *r.borrow());
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
    /// threshold and its own private token state. Heterogeneous cluster
    /// fabrics mix these with Planaria's spatial policy.
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
            mask: full_mask(total),
            total,
            running: None,
            tokens: BTreeMap::new(),
            views: Vec::new(),
        }
    }
}

/// The PREMA scheduling policy plugged into the kernel: token-based
/// temporal multiplexing of the whole chip.
pub struct TemporalPolicy<'a> {
    library: &'a CompiledLibrary,
    policy: Policy,
    /// Starvation bar in token units (priority-weighted cycles).
    threshold: u64,
    ctx: ExecContext,
    mono: Arrangement,
    /// The whole-chip placement bitmask every runner owns.
    mask: u128,
    total: u32,
    /// Request id of the current occupant, if any.
    running: Option<u64>,
    /// Token bookkeeping per request id (outlives queue reordering).
    tokens: BTreeMap<u64, TokenState>,
    /// Reusable per-event policy view buffer (grows to the live-tenant
    /// high-water mark once; steady-state events allocate nothing).
    views: Vec<PolicyTask>,
}

impl EnginePolicy for TemporalPolicy<'_> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        self.library.shared(request.dnn)
    }

    fn admit_subarrays(&self) -> u32 {
        // The monolithic baseline has exactly one configuration table;
        // seed work accounting with it directly (never rescaled).
        self.total
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        let now = sim.now;
        // The kernel retired the runner: the chip is free again.
        if let Some(id) = self.running {
            if sim.index_of(id).is_none() {
                self.running = None;
            }
        }
        // Bound the token map: drop entries for long-retired requests
        // (amortized; the membership probe is the kernel's id index, so
        // the sweep allocates nothing).
        if self.tokens.len() > sim.tenants.len() + 64 {
            self.tokens.retain(|id, _| sim.index_of(*id).is_some());
        }
        // Accrue tokens for waiting tenants; the runner does not collect.
        for t in &sim.tenants {
            let id = t.request.id;
            let entry = self.tokens.entry(id).or_insert(TokenState {
                tokens: 0,
                last_update: now,
            });
            if Some(id) == self.running {
                entry.last_update = now;
            } else {
                entry.accrue(t.request.priority, now);
            }
        }

        // Policy decision (a scheduling event fired). The view buffer is
        // owned scratch: cleared, not reallocated, per event.
        self.views.clear();
        for (i, t) in sim.tenants.iter().enumerate() {
            self.views.push(PolicyTask {
                index: i,
                tokens: self.tokens[&t.request.id].tokens,
                arrival: t.arrival_cycle,
                remaining: t.remaining(),
            });
        }
        let chosen_idx = pick_with_threshold(self.policy, &self.views, self.threshold);
        let chosen_id = chosen_idx.map(|i| sim.tenants[i].request.id);
        if chosen_id != self.running {
            let running_idx = self.running.and_then(|id| sim.index_of(id));
            if let Some(cur) = running_idx {
                // The incumbent loses the accelerator mid-flight.
                if c.is_enabled() {
                    let t = &sim.tenants[cur];
                    c.record(
                        now,
                        Event::ExecSlice {
                            tenant: t.request.id,
                            subarrays: self.total,
                            mask: self.mask,
                            start: t.slice_start,
                            duration: now.saturating_sub(t.slice_start),
                        },
                    );
                    c.record(
                        now,
                        Event::Allocation {
                            tenant: t.request.id,
                            from: self.total,
                            to: 0,
                            mask: 0,
                        },
                    );
                }
                let t = &mut sim.tenants[cur];
                t.queued_since = now;
                t.alloc = 0;
                t.mask = 0;
            }
            if let Some(next) = chosen_idx {
                // Context switch: checkpoint the preempted job's tile and
                // restore the incoming job's weights/pipeline.
                if let Some(cur) = running_idx {
                    let cost = {
                        let t = &sim.tenants[cur];
                        let pos = t.compiled.table(self.total).position(t.fraction_done());
                        reconfiguration_cycles(&self.ctx, self.mono, self.mono, pos.tile_bytes)
                    };
                    if c.is_enabled() {
                        c.record(
                            now,
                            Event::Preemption {
                                preempted: sim.tenants[cur].request.id,
                                incoming: sim.tenants[next].request.id,
                                overhead: cost.total(),
                            },
                        );
                        c.add(Counter::Preemptions, 1);
                        c.sample(Metric::ReconfigCycles, cost.total().as_f64());
                    }
                    sim.tenants[next].overhead += cost.total();
                }
                let t = &mut sim.tenants[next];
                if c.is_enabled() {
                    let wait = now.saturating_sub(t.queued_since);
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
                            to: self.total,
                            mask: self.mask,
                        },
                    );
                    c.sample(Metric::QueueWaitCycles, wait.as_f64());
                    c.sample(Metric::AllocationSize, f64::from(self.total));
                }
                t.slice_start = now;
                t.alloc = self.total;
                t.mask = self.mask;
            }
            self.running = chosen_id;
        }
        if c.is_enabled() {
            c.add(Counter::SchedulingEvents, 1);
            let waiting = sim.tenants.len() - usize::from(self.running.is_some());
            c.sample(Metric::QueueDepth, waiting as f64);
            c.sample(
                Metric::OccupancyPct,
                if self.running.is_some() { 100.0 } else { 0.0 },
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
