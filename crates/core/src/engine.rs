//! The Planaria node engine: spatial multi-tenant execution on the
//! shared discrete-event kernel.
//!
//! Events are task arrivals and completions (the paper's two scheduler
//! triggers, §V). The integer-cycle event loop — admission, work
//! advancement, completion detection, retirement — lives in
//! [`planaria_sim`]; this module keeps only Planaria's *decisions*:
//! Algorithm 1 allocation, physical ring placement with defragmentation,
//! hysteresis, and the §IV-C reconfiguration costs an allocation change
//! incurs. No float-seconds arithmetic happens here; seconds exist only
//! at the [`SimResult`] boundary inside the kernel.

use crate::sched_state::{SchedState, Seed};
use crate::scheduler::{allocate_spatially_into, min_slack_cycles, AllocScratch, SchedTask};
use planaria_arch::{AcceleratorConfig, Allocation, Arrangement, Chip};
use planaria_compiler::{CompiledDnn, CompiledLibrary};
use planaria_model::units::Cycles;
use planaria_sim::{run_streamed_sink, subarray_mask, EnginePolicy, SimState};
use planaria_telemetry::{Collector, Counter, Event, Metric, NullCollector};
use planaria_timing::{reconfiguration_cycles, ExecContext, CONFIG_LOAD_CYCLES};
use planaria_workload::{Request, SimResult, VecSink};
use std::borrow::Borrow;
use std::sync::Arc;

/// How the engine assigns the chip to queued tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulingMode {
    /// The paper's Algorithm 1: QoS-aware spatial co-location.
    #[default]
    Spatial,
    /// Ablation: the fission hardware without spatial scheduling — the
    /// whole chip goes to the oldest queued task (per-layer fission still
    /// applies inside each run).
    ExclusiveFifo,
}

/// A single Planaria-equipped node.
#[derive(Debug, Clone)]
pub struct PlanariaEngine {
    library: CompiledLibrary,
    mode: SchedulingMode,
    incremental: bool,
}

impl PlanariaEngine {
    /// Builds an engine for `cfg`, compiling the benchmark suite at most
    /// once per distinct geometry (the process-wide
    /// [`CompiledLibrary::shared_for`] cache) — an N-node fleet with K
    /// chip shapes pays K compiles, not N.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Self {
            library: CompiledLibrary::clone(&CompiledLibrary::shared_for(&cfg)),
            mode: SchedulingMode::Spatial,
            incremental: true,
        }
    }

    /// Builds an engine over an existing compiled library (cheap; lets many
    /// simulations share one compilation).
    pub fn with_library(library: CompiledLibrary) -> Self {
        Self {
            library,
            mode: SchedulingMode::Spatial,
            incremental: true,
        }
    }

    /// Selects the scheduling mode (ablation hook).
    pub fn with_mode(mut self, mode: SchedulingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Toggles incremental Algorithm 1 (default **on**). With `false`, every
    /// scheduling event rescans `ESTIMATERESOURCES` from 1 for every tenant
    /// — the paper's scan verbatim, and the scheduler's one oracle: the
    /// `incremental_equivalence` property test and the `scale` bench race
    /// against it. Both settings produce bit-identical results; the knob
    /// only trades scheduler work.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// The compiled library backing this engine.
    pub fn library(&self) -> &CompiledLibrary {
        &self.library
    }

    fn cfg(&self) -> &AcceleratorConfig {
        self.library.config()
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
    /// bit-identical to [`run`](Self::run) (proven by a test below).
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
        let mut policy = self.spatial_policy();
        let (kept, s) = run_streamed_sink(self.cfg(), requests, &mut policy, c, VecSink::default());
        SimResult::from_completions(kept.completions, s.static_energy, s.makespan)
    }

    /// A fresh kernel policy for one simulation run (or one cluster
    /// node): Algorithm 1 with this engine's mode and its own private
    /// scheduling state. The cluster fabric holds one per node;
    /// heterogeneous clusters mix these with PREMA's temporal policy.
    pub fn spatial_policy(&self) -> SpatialPolicy<'_> {
        SpatialPolicy {
            library: &self.library,
            mode: self.mode,
            // Derived once per policy, not per event: the urgency clamp
            // is 1 µs of this chip's clock.
            min_slack: min_slack_cycles(self.cfg().freq_hz),
            state: if self.incremental {
                SchedState::new()
            } else {
                SchedState::full_rescan()
            },
            chip: Chip::new(*self.cfg()),
            s: Scratch::default(),
        }
    }
}

/// The Planaria scheduling policy plugged into the kernel: Algorithm 1
/// plus ring placement and reconfiguration accounting.
///
/// Everything the per-event path needs lives here and is reused across
/// events: the id-keyed floor memo ([`SchedState`]), the physical chip
/// map, and the columnar scratch buffers — so a steady-state scheduling
/// event performs no heap allocation beyond the `Allocation` segments of
/// tenants whose placement actually changed.
pub struct SpatialPolicy<'a> {
    library: &'a CompiledLibrary,
    mode: SchedulingMode,
    /// Unfit-path urgency clamp: 1 µs of this chip's clock, in cycles.
    min_slack: i64,
    /// Persistent per-tenant estimate memo, keyed by request id — immune
    /// to the kernel's `swap_remove` retirement reordering. The
    /// full-rescan oracle holds a [`SchedState::full_rescan`] memo that
    /// never remembers, so every tenant scans from 1.
    state: SchedState,
    /// Persistent chip map, `reset()` per event instead of reallocated.
    chip: Chip,
    /// Reusable per-event working memory.
    s: Scratch,
}

/// Columnar scratch reused across scheduling events. Buffers grow to the
/// live-tenant high-water mark once and are only `clear()`ed afterwards.
#[derive(Debug, Default)]
struct Scratch {
    priorities: Vec<u32>,
    slacks: Vec<i64>,
    estimates: Vec<u32>,
    fit: Vec<Cycles>,
    alloc: Vec<u32>,
    keep: Vec<bool>,
    migrated: Vec<bool>,
    placements: Vec<Option<Allocation>>,
    order: Vec<usize>,
    sched: AllocScratch,
}

/// Signed cycles from `now` to `deadline` (negative when past due).
/// Deadlines past `i64::MAX` — an infinite QoS saturates to `u64::MAX`
/// cycles — saturate here too instead of wrapping to "past due".
fn slack_cycles(deadline: Cycles, now: Cycles) -> i64 {
    i64::try_from(deadline.get()).unwrap_or(i64::MAX) - now.get() as i64
}

impl EnginePolicy for SpatialPolicy<'_> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        self.library.shared(request.dnn)
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        if sim.tenants.is_empty() {
            return;
        }
        let total = sim.total_subarrays();
        let now = sim.now;
        let cfg = *sim.config();
        let s = &mut self.s;
        let state = &mut self.state;
        let chip = &mut self.chip;
        s.alloc.clear();
        match self.mode {
            SchedulingMode::Spatial => {
                // Estimate phase: columnar views plus `ESTIMATERESOURCES`,
                // seeded from the id-keyed memo. Clean entries inside the
                // slack band answer with zero table lookups; clean-but-
                // tight entries scan from their proven floor; dirty ones
                // (progress, table switch, new tenant) scan from 1 — as
                // does every tenant under the full-rescan memo.
                s.priorities.clear();
                s.slacks.clear();
                s.estimates.clear();
                s.fit.clear();
                for t in &sim.tenants {
                    let slack = slack_cycles(t.deadline_cycle, now);
                    let (est, fit) =
                        match state.seed(t.request.id, t.work_done, t.work_total, slack) {
                            // Exact hits skip the view and the refresh: the
                            // queued-majority fastpath never pays the
                            // `fraction_done` division, and the stored entry is
                            // bit-identical to what `record` would rewrite.
                            Seed::Exact(floor, fit) => (floor, fit),
                            Seed::Floor(floor) => {
                                let view = SchedTask {
                                    priority: t.request.priority,
                                    slack,
                                    done: t.fraction_done(),
                                    compiled: &t.compiled,
                                };
                                let (est, fit) = view.estimate_resources_with_fit(floor, total);
                                state.record(t.request.id, est, t.work_done, t.work_total, fit);
                                (est, fit)
                            }
                        };
                    s.priorities.push(t.request.priority);
                    s.slacks.push(slack);
                    s.estimates.push(est);
                    s.fit.push(fit);
                }
                state.prune(sim.tenants.len(), |id| sim.index_of(id).is_some());
                allocate_spatially_into(
                    &s.priorities,
                    &s.slacks,
                    &s.estimates,
                    &s.fit,
                    total,
                    self.min_slack,
                    &mut s.alloc,
                    &mut s.sched,
                );
            }
            SchedulingMode::ExclusiveFifo => {
                s.alloc.resize(sim.tenants.len(), 0);
                let oldest = sim
                    .tenants
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| t.arrival_cycle)
                    .map(|(i, _)| i);
                if let Some(i) = oldest {
                    s.alloc[i] = total;
                }
            }
        }
        let tenants = &mut sim.tenants;

        // Physical placement on the ring. Tenants keeping their allocation
        // keep their segment; changed tenants are re-placed into the free
        // gaps. If fragmentation blocks a contiguous fit, the chip is
        // defragmented: every tenant is re-placed in descending size order
        // and the *moved* ones pay a migration (their stationary weights
        // must be re-streamed into different physical subarrays).
        chip.reset();
        s.keep.clear();
        s.keep.resize(tenants.len(), false);
        for (i, (t, &a)) in tenants.iter().zip(&s.alloc).enumerate() {
            let kept_count = a == t.alloc || (t.alloc > 0 && a == t.alloc + 1);
            if kept_count && t.alloc > 0 {
                if let Some(p) = &t.placement {
                    if p.len() == t.alloc {
                        for id in p.subarrays() {
                            debug_assert!(chip.owner_of(*id).is_none());
                        }
                        // Re-claim the exact segment.
                        let claimed = chip.claim(t.request.id, p);
                        debug_assert!(claimed);
                        s.keep[i] = true;
                    }
                }
            }
        }
        // Kept tenants keep their `Allocation` in place (no clone); only
        // re-placed tenants get a fresh segment here.
        s.placements.clear();
        s.placements.resize(tenants.len(), None);
        s.order.clear();
        // Zero-allocation tenants (the queued backlog — the majority on a
        // saturated node) never place; dropping them before the sort
        // leaves the relative order of the placed set untouched (stable
        // sort) while shrinking it from O(live) to O(chip).
        s.order
            .extend((0..tenants.len()).filter(|&i| !s.keep[i] && s.alloc[i] != 0));
        s.order.sort_by_key(|&i| std::cmp::Reverse(s.alloc[i]));
        let mut defrag_needed = false;
        for &i in &s.order {
            match chip.place(tenants[i].request.id, s.alloc[i]) {
                Some(p) => s.placements[i] = Some(p),
                None => {
                    defrag_needed = true;
                    break;
                }
            }
        }
        s.migrated.clear();
        s.migrated.resize(tenants.len(), false);
        if defrag_needed {
            // Global defragmentation: lay everyone out afresh, largest
            // first (a multiset summing to <= total always packs a ring).
            chip.reset();
            s.order.clear();
            s.order.extend(0..tenants.len());
            s.order.sort_by_key(|&i| std::cmp::Reverse(s.alloc[i]));
            s.placements.fill(None);
            for &i in &s.order {
                if s.alloc[i] == 0 {
                    continue;
                }
                let p = chip
                    .place(tenants[i].request.id, s.alloc[i])
                    // lint: every tenant was released above and Σalloc ≤ chip
                    // capacity, so a contiguous placement always exists
                    .expect("defragmented ring always packs");
                if s.keep[i] {
                    if tenants[i]
                        .placement
                        .as_ref()
                        .is_some_and(|old| old.subarrays() != p.subarrays())
                    {
                        s.migrated[i] = true;
                        s.keep[i] = false;
                        s.placements[i] = Some(p);
                    }
                    // Unmoved kept tenant: the fresh segment equals the old
                    // one; keep the existing `Allocation` in place.
                } else {
                    s.placements[i] = Some(p);
                }
            }
        }

        let telemetry_on = c.is_enabled();
        for (i, (t, &a)) in tenants.iter_mut().zip(&s.alloc).enumerate() {
            let old_mask = t.mask;
            if !s.keep[i] {
                t.placement = s.placements[i].take();
            }
            if telemetry_on {
                // The mask is telemetry-only; skip the bit scan entirely
                // on the NullCollector hot path (it is never read there).
                t.mask = subarray_mask(t.placement.as_ref());
            }
            if a == t.alloc && !s.migrated[i] {
                continue;
            }
            // Hysteresis: growing a running tenant by a single subarray is
            // not worth a drain + checkpoint + refill cycle; keep the old
            // allocation (this only releases capacity, never over-commits).
            if t.alloc > 0 && a == t.alloc + 1 && !s.migrated[i] {
                continue;
            }
            if telemetry_on {
                // Close the execution slice the tenant just left.
                if t.alloc > 0 {
                    c.record(
                        now,
                        Event::ExecSlice {
                            tenant: t.request.id,
                            subarrays: t.alloc,
                            mask: old_mask,
                            start: t.slice_start,
                            duration: now.saturating_sub(t.slice_start),
                        },
                    );
                }
                c.record(
                    now,
                    Event::Allocation {
                        tenant: t.request.id,
                        from: t.alloc,
                        to: a,
                        mask: t.mask,
                    },
                );
                if t.alloc == 0 && a > 0 {
                    // Leaving the queue: emit the closed wait interval.
                    let wait = now.saturating_sub(t.queued_since);
                    c.record(
                        now,
                        Event::QueueWait {
                            tenant: t.request.id,
                            start: t.queued_since,
                            duration: wait,
                        },
                    );
                    c.sample(Metric::QueueWaitCycles, wait.as_f64());
                }
                if a > 0 {
                    c.sample(Metric::AllocationSize, f64::from(a));
                }
            }
            // Unconditional, branch-free bookkeeping (never read by the
            // simulation itself, so the NullCollector path stays
            // bit-identical).
            if a > 0 {
                t.slice_start = now;
            } else {
                t.queued_since = now;
            }
            if t.alloc > 0 && !t.work_done.is_zero() && t.work_done < t.work_total {
                // Preempted or resized mid-flight: finish the in-flight
                // tile, checkpoint it, swap configurations, refill.
                let (boundary, tile_bytes, cost) = {
                    let old_table = t.compiled.table(t.alloc);
                    let pos = old_table.position(t.fraction_done());
                    let old_arr = old_table.layers()[pos.layer].arrangement;
                    let new_arr = if a > 0 {
                        Arrangement::monolithic(a)
                    } else {
                        old_arr
                    };
                    let ctx = ExecContext::for_allocation(&cfg, t.alloc.max(1));
                    let cost = reconfiguration_cycles(&ctx, old_arr, new_arr, pos.tile_bytes);
                    (pos.cycles_to_boundary, pos.tile_bytes, cost)
                };
                if telemetry_on {
                    c.record(
                        now,
                        Event::Reconfig {
                            tenant: t.request.id,
                            boundary,
                            drain: cost.drain,
                            checkpoint: cost.checkpoint,
                            config_swap: cost.config_swap,
                            refill: cost.refill,
                            checkpoint_bytes: tile_bytes,
                        },
                    );
                    c.add(Counter::Reconfigurations, 1);
                    c.add(Counter::DrainCycles, cost.drain.get());
                    c.add(Counter::CheckpointCycles, cost.checkpoint.get());
                    c.add(Counter::ConfigSwapCycles, cost.config_swap.get());
                    c.add(Counter::RefillCycles, cost.refill.get());
                    c.add(Counter::CheckpointBytes, tile_bytes.get());
                    c.sample(Metric::ReconfigCycles, cost.total().as_f64());
                }
                t.overhead += boundary + cost.total();
            } else if a > 0 && t.alloc == 0 {
                // Fresh start on a new logical accelerator: pipeline fill
                // is already inside the table; charge the configuration
                // load only.
                t.overhead += CONFIG_LOAD_CYCLES;
            }
            t.alloc = a;
            if a > 0 {
                // Progress is a work *fraction*; the new table rescales it
                // exactly (no-op when the table is unchanged).
                let (work_total, table_energy) = {
                    let table = t.compiled.table(a);
                    (table.total_cycles(), table.total_energy())
                };
                t.switch_table(work_total, table_energy);
            }
        }
        if telemetry_on {
            c.add(Counter::SchedulingEvents, 1);
            let queued = tenants.iter().filter(|t| t.alloc == 0).count();
            let used: u32 = tenants.iter().map(|t| t.alloc).sum();
            c.sample(Metric::QueueDepth, queued as f64);
            c.sample(
                Metric::OccupancyPct,
                100.0 * f64::from(used) / f64::from(total.max(1)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_model::units::Picojoules;
    use planaria_model::DnnId;
    use planaria_telemetry::{mean_occupancy, RecordingCollector};
    use planaria_workload::{Completion, QosLevel, Scenario, TraceConfig};

    fn engine() -> PlanariaEngine {
        PlanariaEngine::new(AcceleratorConfig::planaria())
    }

    fn single_request(dnn: DnnId, qos: f64) -> Request {
        Request {
            id: 0,
            dnn,
            arrival: 0.0,
            priority: 5,
            qos,
        }
    }

    #[test]
    fn lone_task_runs_at_isolated_speed() {
        let e = engine();
        let r = single_request(DnnId::ResNet50, 1.0);
        let result = e.run(&[r]);
        assert_eq!(result.completions.len(), 1);
        let latency = result.completions[0].latency();
        let isolated = e.library.isolated_latency(DnnId::ResNet50);
        assert!(
            (latency / isolated - 1.0).abs() < 0.01,
            "latency {latency}, isolated {isolated}"
        );
    }

    #[test]
    fn all_requests_complete_in_order_of_ids() {
        let e = engine();
        let trace = TraceConfig::new(Scenario::C, QosLevel::Soft, 100.0, 40, 11).generate();
        let result = e.run(&trace);
        assert_eq!(result.completions.len(), 40);
        for (i, c) in result.completions.iter().enumerate() {
            assert_eq!(c.request.id, i as u64);
            assert!(c.finish >= c.request.arrival);
        }
    }

    #[test]
    fn co_location_slows_tasks_less_than_serialization() {
        let e = engine();
        // Two simultaneous ResNet-50s: spatial co-location should finish
        // both well before 2x the isolated latency each.
        let iso = e.library.isolated_latency(DnnId::ResNet50);
        let trace = vec![
            Request {
                id: 0,
                dnn: DnnId::ResNet50,
                arrival: 0.0,
                priority: 5,
                qos: 1.0,
            },
            Request {
                id: 1,
                dnn: DnnId::ResNet50,
                arrival: 0.0,
                priority: 5,
                qos: 1.0,
            },
        ];
        let result = e.run(&trace);
        let worst = result
            .completions
            .iter()
            .map(Completion::latency)
            .fold(0.0, f64::max);
        assert!(worst < 2.0 * iso * 1.2, "worst {worst}, isolated {iso}");
        assert!(worst > iso * 0.9);
    }

    #[test]
    fn energy_and_makespan_are_positive() {
        let e = engine();
        let trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 200.0, 20, 3).generate();
        let r = e.run(&trace);
        assert!(r.total_energy > Picojoules::ZERO);
        assert!(r.makespan > 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_rejected() {
        let e = engine();
        let mut trace = TraceConfig::new(Scenario::B, QosLevel::Soft, 10.0, 5, 3).generate();
        trace.reverse();
        let _ = e.run(&trace);
    }

    #[test]
    fn empty_trace_is_fine() {
        let r = engine().run(std::iter::empty::<Request>());
        assert!(r.completions.is_empty());
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_events() {
        let e = engine();
        let trace = TraceConfig::new(Scenario::C, QosLevel::Medium, 150.0, 30, 17).generate();
        let plain = e.run(&trace);
        let mut rec = RecordingCollector::new();
        let recorded = e.run_with_collector(&trace, &mut rec);
        assert_eq!(plain.completions, recorded.completions);
        // Every request arrives and completes in the telemetry.
        let count = |f: fn(&Event) -> bool| rec.events().iter().filter(|te| f(&te.event)).count();
        assert_eq!(count(|ev| matches!(ev, Event::Arrival { .. })), 30);
        assert_eq!(count(|ev| matches!(ev, Event::Completion { .. })), 30);
        assert!(mean_occupancy(&rec) > 0.0);
    }

    #[test]
    fn contended_runs_actually_reconfigure() {
        let e = engine();
        let trace = TraceConfig::new(Scenario::A, QosLevel::Soft, 400.0, 60, 23).generate();
        let mut rec = RecordingCollector::new();
        e.run_with_collector(&trace, &mut rec);
        assert!(
            rec.events().iter().any(|te| matches!(
                te.event,
                Event::Allocation { from, to, .. } if from > 0 && from != to
            )),
            "a contended trace must trigger dynamic fission"
        );
    }

    #[test]
    fn deadline_free_request_does_not_starve_a_deadline() {
        // An infinite QoS saturates the deadline to `u64::MAX` cycles. Its
        // slack must saturate too: wrapped negative, the request would
        // claim the whole chip and outrank every tenant that has a
        // deadline.
        let e = engine();
        let iso = e.library.isolated_latency(DnnId::ResNet50);
        let mk = |id, dnn, qos| Request {
            id,
            dnn,
            arrival: 0.0,
            priority: 5,
            qos,
        };
        let trace = [
            mk(0, DnnId::SsdResNet34, f64::INFINITY),
            mk(1, DnnId::ResNet50, 2.0 * iso),
        ];
        let r = e.run(&trace);
        let tight = &r.completions[1];
        assert!(
            tight.latency() <= tight.request.qos,
            "latency {} past QoS {}",
            tight.latency(),
            tight.request.qos
        );
    }

    #[test]
    fn exclusive_mode_serializes() {
        let spatial = engine();
        let exclusive = PlanariaEngine::with_library(spatial.library().clone())
            .with_mode(SchedulingMode::ExclusiveFifo);
        let iso = spatial.library().isolated_latency(DnnId::ResNet50);
        let mk = |id| Request {
            id,
            dnn: DnnId::ResNet50,
            arrival: 0.0,
            priority: 5,
            qos: 1.0,
        };
        let r = exclusive.run(&[mk(0), mk(1), mk(2)]);
        let worst = r
            .completions
            .iter()
            .map(Completion::latency)
            .fold(0.0, f64::max);
        assert!(
            worst > 2.5 * iso,
            "FIFO-exclusive must serialize: {worst} vs {iso}"
        );
        // Spatial co-location beats it.
        let s = spatial.run(&[mk(0), mk(1), mk(2)]);
        let worst_s = s
            .completions
            .iter()
            .map(Completion::latency)
            .fold(0.0, f64::max);
        assert!(worst_s < worst);
    }
}
