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

use crate::sched_state::{seed, Seed};
use crate::scheduler::{
    allocate_spatially_into, min_slack_cycles, unfit_score, AllocScratch, SchedTask,
};
use planaria_arch::{AcceleratorConfig, Allocation, Arrangement, Chip};
use planaria_compiler::{CompiledDnn, CompiledLibrary};
use planaria_model::units::Cycles;
use planaria_sim::{run_streamed_sink, EnginePolicy, FloorEntry, SimState, TenantState};
use planaria_telemetry::{Collector, Counter, Event, Metric, NullCollector};
use planaria_timing::{reconfiguration_cycles, ExecContext, CONFIG_LOAD_CYCLES};
use planaria_workload::{Request, SimResult, VecSink};
use std::borrow::Borrow;
use std::sync::Arc;

/// How the engine assigns the chip to queued tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulingMode {
    /// The paper's Algorithm 1: QoS-aware spatial co-location. Each
    /// estimate scan is seeded from the tenant's memo ([`seed`]), and
    /// queued tenants sleep in the kernel until they can change.
    #[default]
    Spatial,
    /// Algorithm 1 as the paper states it, and the scheduler's one
    /// oracle: at every event every tenant scans `ESTIMATERESOURCES`
    /// from 1, no memo is read or written, and no tenant sleeps. Its
    /// results are bit-identical to [`Spatial`](Self::Spatial)'s; only
    /// the scheduler's work differs. The `incremental_equivalence` test
    /// and the `scale` bench race against it.
    FullRescan,
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
        }
    }

    /// Builds an engine over an existing compiled library (cheap; lets many
    /// simulations share one compilation).
    pub fn with_library(library: CompiledLibrary) -> Self {
        Self {
            library,
            mode: SchedulingMode::Spatial,
        }
    }

    /// Selects the scheduling mode (default [`SchedulingMode::Spatial`]):
    /// the full-rescan oracle or the ExclusiveFifo ablation.
    pub fn with_mode(mut self, mode: SchedulingMode) -> Self {
        self.mode = mode;
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
    /// bit-identical to [`run`](Self::run) (proven by a test below).
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
            p_max: 0,
            chip: Chip::new(*self.cfg()),
            s: Scratch::default(),
        }
    }
}

/// The Planaria scheduling policy plugged into the kernel: Algorithm 1
/// plus ring placement and reconfiguration accounting.
///
/// Everything the per-event path needs lives here and is reused across
/// events: the physical chip map and the columnar scratch buffers — so a
/// steady-state scheduling event performs no heap allocation. Each
/// tenant's estimate memo lives on its own record (`TenantState::memo`).
///
/// An event costs one estimate per awake tenant, and placement and apply
/// work only for the tenants that hold subarrays or are granted some.
/// The [`Spatial`](SchedulingMode::Spatial) scheduler puts every tenant
/// that stays queued to sleep. One past its deadline is parked
/// ([`SimState::park`]): its estimate is the whole chip and its
/// unfit-path rank depends on its priority alone, so only the best parked
/// tenant can be granted, and it alone joins the next event's columns.
/// One with slack left waits ([`SimState::wait`]): when the columns and
/// the waiting tenants cannot all fit, the unfit pack visits the waiting
/// ones in deadline order and stops at the first whose best possible
/// score cannot enter the packing prefix. The rest of a deep backlog
/// sleeps untouched.
pub struct SpatialPolicy<'a> {
    library: &'a CompiledLibrary,
    mode: SchedulingMode,
    /// Unfit-path urgency clamp: 1 µs of this chip's clock, in cycles.
    min_slack: i64,
    /// The highest priority seen on any column so far. Every waiting
    /// tenant was a column before it slept, so `P_max / slack` bounds
    /// its unfit-path score from above.
    p_max: u32,
    /// Persistent chip map, `reset()` per event instead of reallocated.
    chip: Chip,
    /// Reusable per-event working memory.
    s: Scratch,
}

/// Columnar scratch reused across scheduling events. Buffers grow to their
/// high-water mark once and are only `clear()`ed afterwards.
#[derive(Debug, Default)]
struct Scratch {
    priorities: Vec<u32>,
    slacks: Vec<i64>,
    estimates: Vec<u32>,
    fit: Vec<Cycles>,
    /// Column → tenant position, ascending: the awake tenants plus the
    /// best parked one, and the waiting tenants the pack grants.
    cols: Vec<usize>,
    /// Waiting tenants this event wakes before estimating.
    woken: Vec<usize>,
    /// This event's grant per column.
    alloc: Vec<u32>,
    /// `(tenant index, grant)` of every tenant that holds subarrays or is
    /// granted some, in ascending index order. `keep`, `migrated`,
    /// `placements` and `order` are indexed by position in this list.
    movers: Vec<(usize, u32)>,
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

/// `ESTIMATERESOURCES` for `t` at `slack` on a chip of `total`
/// subarrays, as `(estimate, fit)`. With `memo`, the scan is seeded from
/// the tenant's memo ([`seed`]) and refreshes it; otherwise it runs from
/// 1 and leaves the memo alone. Exact hits skip the view and the refresh:
/// the queued-majority fastpath never pays the `fraction_done` division,
/// and the memo already holds what a refresh would write.
fn estimate(t: &mut TenantState, slack: i64, total: u32, memo: bool) -> (u32, Cycles) {
    let seeded = if memo {
        seed(t.memo.as_ref(), t.work_done, t.work_total, slack, total)
    } else {
        Seed::Floor(1)
    };
    match seeded {
        Seed::Exact(floor, fit) => (floor, fit),
        Seed::Floor(floor) => {
            let view = SchedTask {
                priority: t.request.priority,
                slack,
                done: t.fraction_done(),
                compiled: &t.compiled,
            };
            let (est, fit) = view.estimate_resources_with_fit(floor, total);
            if memo {
                t.memo = Some(FloorEntry {
                    floor: est,
                    done: t.work_done,
                    total: t.work_total,
                    fit,
                });
            }
            (est, fit)
        }
    }
}

impl SpatialPolicy<'_> {
    /// Algorithm 1 over the columns, leaving each column's grant in
    /// `alloc`, and returns the best parked tenant's position while it
    /// sleeps.
    ///
    /// The columns are every awake tenant plus the best parked one at its
    /// position. A parked tenant scores `priority / (min_slack × total)`,
    /// so in the unfit pack's (score desc, position asc) order the best
    /// parked tenant comes first among them, and its whole-chip estimate
    /// ends the packing prefix there: the others would get nothing. With
    /// another column or a waiting tenant beside it, both sets need more
    /// than the chip, and alone it gets the chip either way.
    ///
    /// Waiting tenants past their deadline rejoin the columns first (they
    /// lead the deadline order), to be parked if they stay queued. Every
    /// estimate is at least 1, so when the columns' estimates plus one
    /// subarray per waiting tenant exceed the chip, the full set takes
    /// the unfit path and the pack visits the waiting tenants lazily
    /// ([`pack_with_waiting`](Self::pack_with_waiting)). Otherwise it may
    /// fit: every waiting tenant wakes and is estimated as a column.
    fn allocate_spatially(&mut self, sim: &mut SimState, now: Cycles, total: u32) -> Option<usize> {
        self.wake_waiting(sim, now, false);
        let mut asleep = self.fill_columns(sim);
        let need = self.estimate_columns(sim, now, total);
        let waiting = sim.waiting_len();
        if waiting > 0 && waiting <= total.saturating_sub(need) as usize {
            self.wake_waiting(sim, now, true);
            asleep = self.fill_columns(sim);
            self.estimate_columns(sim, now, total);
        }
        if sim.waiting_len() > 0 {
            self.pack_with_waiting(sim, now, total);
        } else {
            let s = &mut self.s;
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
        asleep
    }

    /// Wakes every waiting tenant, or (`all` false) those past their
    /// deadline.
    fn wake_waiting(&mut self, sim: &mut SimState, now: Cycles, all: bool) {
        let woken = &mut self.s.woken;
        woken.clear();
        woken.extend(
            sim.waiting()
                .take_while(|&i| all || slack_cycles(sim.tenants()[i].deadline_cycle, now) < 0),
        );
        for &i in woken.iter() {
            sim.wake(i);
        }
    }

    /// Fills the columns with the awake tenants plus the best parked one
    /// at its position, returning that parked tenant's position.
    fn fill_columns(&mut self, sim: &SimState) -> Option<usize> {
        let (cols, awake) = (&mut self.s.cols, sim.awake());
        let parked = sim.best_parked();
        let k = parked.map_or(awake.len(), |p| awake.partition_point(|&i| i < p));
        cols.clear();
        cols.extend_from_slice(&awake[..k]);
        cols.extend(parked);
        cols.extend_from_slice(&awake[k..]);
        parked
    }

    /// The estimate phase: every column's `ESTIMATERESOURCES` into the
    /// columnar views, returning the sum of the estimates. Clean memos
    /// inside the slack band, or saturated at the whole chip, answer with
    /// zero table lookups; other clean memos scan from their proven
    /// floor; the rest scan from 1, or from the whole chip past the
    /// deadline. A parked tenant's memo is clean at the whole chip, so it
    /// answers exactly.
    fn estimate_columns(&mut self, sim: &mut SimState, now: Cycles, total: u32) -> u32 {
        let s = &mut self.s;
        s.priorities.clear();
        s.slacks.clear();
        s.estimates.clear();
        s.fit.clear();
        let memo = self.mode == SchedulingMode::Spatial;
        let tenants = sim.tenants_mut();
        for &i in &s.cols {
            let t = &mut tenants[i];
            let slack = slack_cycles(t.deadline_cycle, now);
            let (est, fit) = estimate(t, slack, total, memo);
            self.p_max = self.p_max.max(t.request.priority);
            s.priorities.push(t.request.priority);
            s.slacks.push(slack);
            s.estimates.push(est);
            s.fit.push(fit);
        }
        s.estimates.iter().sum()
    }

    /// The unfit pack over the columns, keyed by position, then over the
    /// waiting tenants in deadline order; granted waiting tenants wake and
    /// join the columns.
    ///
    /// A waiting tenant scores at most `P_max / max(slack, min_slack)`
    /// (its estimate is at least 1), and slack only grows along the
    /// order, so once that bound falls strictly below a full prefix's
    /// last score no later tenant can enter. An unvisited tenant keeps
    /// its memo, which stays a sound floor.
    fn pack_with_waiting(&mut self, sim: &mut SimState, now: Cycles, total: u32) {
        let s = &mut self.s;
        let pack = &mut s.sched.pack;
        pack.clear();
        for (k, &i) in s.cols.iter().enumerate() {
            let est = s.estimates[k];
            pack.offer(
                unfit_score(s.priorities[k], s.slacks[k], est, self.min_slack),
                i,
                est,
                total,
            );
        }
        let (waiting, tenants) = sim.waiting_with_tenants();
        for i in waiting {
            let t = &mut tenants[i];
            let slack = slack_cycles(t.deadline_cycle, now);
            if pack.closed_below(unfit_score(self.p_max, slack, 1, self.min_slack), total) {
                break;
            }
            let (est, _) = estimate(t, slack, total, true);
            let score = unfit_score(t.request.priority, slack, est, self.min_slack);
            pack.offer(score, i, est, total);
        }
        s.alloc.resize(s.cols.len(), 0);
        for (i, grant) in pack.grants(total) {
            let k = s.cols.partition_point(|&j| j < i);
            if s.cols.get(k) != Some(&i) {
                // A granted waiting tenant wakes before apply changes it,
                // so the kernel's sleeping sum drops exactly the value it
                // added.
                sim.wake(i);
                s.cols.insert(k, i);
                s.alloc.insert(k, 0);
            }
            s.alloc[k] = grant;
        }
    }
}

impl EnginePolicy for SpatialPolicy<'_> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        self.library.shared(request.dnn)
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        if sim.tenants().is_empty() {
            return;
        }
        let total = sim.total_subarrays();
        let now = sim.now;
        let cfg = *sim.config();
        self.s.alloc.clear();
        // The best parked tenant's position while it sleeps.
        let mut asleep = match self.mode {
            SchedulingMode::Spatial | SchedulingMode::FullRescan => {
                self.allocate_spatially(sim, now, total)
            }
            SchedulingMode::ExclusiveFifo => {
                let asleep = self.fill_columns(sim);
                let s = &mut self.s;
                let tenants = sim.tenants();
                s.alloc.resize(s.cols.len(), 0);
                let oldest = (0..s.cols.len()).min_by_key(|&k| tenants[s.cols[k]].arrival_cycle);
                if let Some(k) = oldest {
                    s.alloc[k] = total;
                }
                asleep
            }
        };
        let s = &mut self.s;
        let chip = &mut self.chip;
        // A granted parked tenant wakes before apply changes it, so the
        // kernel's sleeping sum drops exactly the value it added (granted
        // waiting tenants woke in the pack).
        if let Some(p) = asleep {
            if s.alloc[s.cols.partition_point(|&j| j < p)] > 0 {
                sim.wake(p);
                asleep = None;
            }
        }
        let tenants = sim.tenants_mut();

        // Only tenants that hold subarrays or are granted some can change.
        // Every other tenant was queued and stays queued: it gets no
        // claim, no placement, no table switch and no telemetry event.
        // Ascending position order keeps `Chip::place` and the recorded
        // events in the sequence a walk over every tenant produces.
        s.movers.clear();
        s.movers.extend(
            s.cols
                .iter()
                .zip(&s.alloc)
                .filter(|(&i, &a)| tenants[i].placement.is_some() || a > 0)
                .map(|(&i, &a)| (i, a)),
        );
        let movers = s.movers.len();

        // Physical placement on the ring. Tenants keeping their allocation
        // keep their segment; changed tenants are re-placed into the free
        // gaps. If fragmentation blocks a contiguous fit, the chip is
        // defragmented: every tenant is re-placed in descending size order
        // and the *moved* ones pay a migration (their stationary weights
        // must be re-streamed into different physical subarrays).
        chip.reset();
        s.keep.clear();
        s.keep.resize(movers, false);
        for (k, &(i, a)) in s.movers.iter().enumerate() {
            if let Some(p) = &tenants[i].placement {
                if a == p.len() || a == p.len() + 1 {
                    // Re-claim the exact segment (growing by one is
                    // hysteresis, below).
                    let claimed = chip.claim(p);
                    debug_assert!(claimed);
                    s.keep[k] = true;
                }
            }
        }
        // Kept tenants keep their segment; only re-placed tenants get a
        // fresh one here.
        s.placements.clear();
        s.placements.resize(movers, None);
        s.order.clear();
        // Ungranted movers never place; dropping them before the stable
        // sort leaves the relative order of the placed set untouched.
        s.order
            .extend((0..movers).filter(|&k| !s.keep[k] && s.movers[k].1 != 0));
        s.order.sort_by_key(|&k| std::cmp::Reverse(s.movers[k].1));
        let mut defrag_needed = false;
        for &k in &s.order {
            match chip.place(s.movers[k].1) {
                Some(p) => s.placements[k] = Some(p),
                None => {
                    defrag_needed = true;
                    break;
                }
            }
        }
        s.migrated.clear();
        s.migrated.resize(movers, false);
        if defrag_needed {
            // Global defragmentation: lay everyone out afresh, largest
            // first (a multiset summing to <= total always packs a ring).
            chip.reset();
            s.order.clear();
            s.order.extend(0..movers);
            s.order.sort_by_key(|&k| std::cmp::Reverse(s.movers[k].1));
            s.placements.fill(None);
            for &k in &s.order {
                let (i, a) = s.movers[k];
                if a == 0 {
                    continue;
                }
                let p = chip
                    .place(a)
                    // lint: every tenant was released above and Σalloc ≤ chip
                    // capacity, so a contiguous placement always exists
                    .expect("defragmented ring always packs");
                if s.keep[k] {
                    if tenants[i].placement.is_some_and(|old| old != p) {
                        s.migrated[k] = true;
                        s.keep[k] = false;
                        s.placements[k] = Some(p);
                    }
                    // Unmoved kept tenant: the fresh segment equals the old
                    // one.
                } else {
                    s.placements[k] = Some(p);
                }
            }
        }

        let telemetry_on = c.is_enabled();
        for (k, &(i, a)) in s.movers.iter().enumerate() {
            let t = &mut tenants[i];
            let old = t.placement;
            let alloc = t.alloc();
            if !s.keep[k] {
                t.placement = s.placements[k].take();
            }
            if a == alloc && !s.migrated[k] {
                continue;
            }
            // Hysteresis: growing a running tenant by a single subarray is
            // not worth a drain + checkpoint + refill cycle; keep the old
            // allocation (this only releases capacity, never over-commits).
            if alloc > 0 && a == alloc + 1 && !s.migrated[k] {
                continue;
            }
            if telemetry_on {
                // Close the execution slice the tenant just left.
                if let Some(p) = old {
                    c.record(
                        now,
                        Event::ExecSlice {
                            tenant: t.request.id,
                            subarrays: p.len(),
                            mask: p.mask(),
                            start: t.slice_start,
                            duration: now.saturating_sub(t.slice_start),
                        },
                    );
                }
                c.record(
                    now,
                    Event::Allocation {
                        tenant: t.request.id,
                        from: alloc,
                        to: a,
                        mask: t.placement.map_or(0, |p| p.mask()),
                    },
                );
                if alloc == 0 && a > 0 {
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
            if alloc > 0 && !t.work_done.is_zero() && t.work_done < t.work_total {
                // Preempted or resized mid-flight: finish the in-flight
                // tile, checkpoint it, swap configurations, refill.
                let (boundary, tile_bytes, cost) = {
                    let old_table = t.compiled.table(alloc);
                    let pos = old_table.position(t.fraction_done());
                    let old_arr = old_table.layers()[pos.layer].arrangement;
                    let new_arr = if a > 0 {
                        Arrangement::monolithic(a)
                    } else {
                        old_arr
                    };
                    let ctx = ExecContext::for_allocation(&cfg, alloc.max(1));
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
            } else if a > 0 && alloc == 0 {
                // Fresh start on a new logical accelerator: pipeline fill
                // is already inside the table; charge the configuration
                // load only.
                t.overhead += CONFIG_LOAD_CYCLES;
            }
            debug_assert_eq!(t.alloc(), a, "a changed tenant holds its grant");
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
        // Put every column that stays queued to sleep: park it past its
        // deadline, let it wait otherwise. The estimate phase left a
        // parked tenant's memo clean at the whole chip (both seed rules
        // answer a negative slack there), and apply does not touch a
        // queued tenant's work counters — a tenant preempted just now
        // only owes more overhead. The full-rescan oracle writes no memo,
        // so it never puts a tenant to sleep.
        if self.mode == SchedulingMode::Spatial {
            for &i in &s.cols {
                let t = &sim.tenants()[i];
                if asleep == Some(i) || t.placement.is_some() {
                    continue;
                }
                if slack_cycles(t.deadline_cycle, now) < 0 {
                    debug_assert_eq!(
                        t.memo.map(|m| (m.floor, m.done, m.total)),
                        Some((total, t.work_done, t.work_total))
                    );
                    sim.park(i);
                } else {
                    sim.wait(i);
                }
            }
        }
        if telemetry_on {
            c.add(Counter::SchedulingEvents, 1);
            let (mut queued, mut used) = (sim.parked_len() + sim.waiting_len(), 0u32);
            for &i in sim.awake() {
                let a = sim.tenants()[i].alloc();
                queued += usize::from(a == 0);
                used += a;
            }
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
