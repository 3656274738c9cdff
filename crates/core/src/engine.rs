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
    allocate, min_slack_cycles, unfit_score, walk_heap, Column, PackPrefix, SchedTask,
};
use planaria_arch::{AcceleratorConfig, Chip};
use planaria_compiler::{CompiledDnn, CompiledLibrary};
use planaria_model::units::Cycles;
use planaria_sim::{run_streamed_sink, EnginePolicy, FloorEntry, SimState, TenantState};
use planaria_telemetry::{Collector, Counter, Event, Metric, NullCollector};
use planaria_timing::CONFIG_LOAD_CYCLES;
use planaria_workload::{Request, SimResult, VecSink};
use std::borrow::Borrow;
use std::cmp::Reverse;
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
/// events: the physical chip map and one record per column — so a
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
/// the waiting tenants cannot all fit, the unfit pack walks the kernel's
/// deadline heap top-down and skips the subtree below each waiting
/// tenant whose best possible score cannot enter the packing prefix. The
/// rest of a deep backlog sleeps untouched, and no event allocates for
/// it: the kernel's sleeping heaps and the walk's stack grow to their
/// high-water marks once.
///
/// A reconfiguration reads only rows its library compiled once: the
/// in-flight layer's tile and preemption cost
/// ([`ConfigTable::position`](planaria_compiler::ConfigTable::position)),
/// the new table's refill ([`CompiledDnn::refill_cycles`]) and totals
/// ([`CompiledDnn::totals`]).
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

/// Per-event working memory. Buffers grow to their high-water mark once
/// and are only `clear()`ed afterwards.
#[derive(Debug, Default)]
struct Scratch {
    /// One record per column, ascending by position: the awake tenants
    /// plus the best parked one, and the waiting tenants that wake.
    cols: Vec<Column>,
    /// Column indices in placement order.
    order: Vec<usize>,
    /// Waiting-heap indices the pack's top-down walk has yet to visit.
    stack: Vec<usize>,
    /// The unfit path's packing prefix.
    pack: PackPrefix,
    /// The fit path's fractional shares, by column.
    fractions: Vec<f64>,
}

/// Signed cycles from `now` to `deadline` (negative when past due).
/// Deadlines past `i64::MAX` — an infinite QoS saturates to `u64::MAX`
/// cycles — saturate here too instead of wrapping to "past due".
fn slack_cycles(deadline: Cycles, now: Cycles) -> i64 {
    i64::try_from(deadline.get()).unwrap_or(i64::MAX) - now.get() as i64
}

/// A parked tenant's key: the priority, descending, so the root is the
/// best parked tenant.
fn parked_key(priority: u32) -> u64 {
    u64::from(u32::MAX - priority)
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
    /// Algorithm 1 over the columns, leaving each column's grant, and
    /// returns the best parked tenant's position while it sleeps.
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
    /// sit at the root of the deadline heap), to be parked if they stay
    /// queued. Every estimate is at least 1, so when the columns'
    /// estimates plus one subarray per waiting tenant exceed the chip,
    /// the full set takes the unfit path and the pack visits the waiting
    /// tenants lazily ([`pack_with_waiting`](Self::pack_with_waiting)).
    /// Otherwise it may fit: every waiting tenant wakes, is estimated and
    /// joins the columns at its position. The columns already estimated
    /// keep their `(estimate, fit)`: a second estimate at the same slack
    /// would return it again (their memo answers `Exact` with it, and a
    /// scan from 1 is a pure function of the same inputs).
    fn allocate_spatially(&mut self, sim: &mut SimState, now: Cycles, total: u32) -> Option<usize> {
        while let Some((deadline, i)) = sim.waiting_root() {
            if slack_cycles(deadline, now) >= 0 {
                break;
            }
            sim.wake(i);
        }
        let asleep = self.fill_columns(sim);
        let need = self.estimate_columns(sim, now, total, 0);
        let waiting = sim.waiting_len();
        if waiting > 0 && waiting <= total.saturating_sub(need) as usize {
            let from = self.s.cols.len();
            while let Some((_, i)) = sim.waiting_root() {
                sim.wake(i);
                self.s.cols.push(Column::new(i));
            }
            self.estimate_columns(sim, now, total, from);
            self.s.cols.sort_unstable_by_key(|c| c.at);
        }
        if sim.waiting_len() > 0 {
            self.pack_with_waiting(sim, now, total);
        } else {
            let s = &mut self.s;
            allocate(
                &mut s.cols,
                total,
                self.min_slack,
                &mut s.fractions,
                &mut s.pack,
            );
        }
        asleep
    }

    /// Fills the columns with the awake tenants plus the best parked one
    /// at its position, returning that parked tenant's position.
    fn fill_columns(&mut self, sim: &SimState) -> Option<usize> {
        let (cols, awake) = (&mut self.s.cols, sim.awake());
        let parked = sim.parked_root().map(|(_, i)| i);
        let k = parked.map_or(awake.len(), |p| awake.partition_point(|&i| i < p));
        cols.clear();
        cols.extend(awake.iter().map(|&i| Column::new(i)));
        if let Some(p) = parked {
            cols.insert(k, Column::new(p));
        }
        parked
    }

    /// The estimate phase over the columns from index `from` on: each
    /// one's `ESTIMATERESOURCES` and score terms into its record,
    /// returning the sum of their estimates. Clean memos inside the slack
    /// band, or saturated at the whole chip, answer with zero table
    /// lookups; other clean memos scan from their proven floor; the rest
    /// scan from 1, or from the whole chip past the deadline. A parked
    /// tenant's memo is clean at the whole chip, so it answers exactly.
    fn estimate_columns(
        &mut self,
        sim: &mut SimState,
        now: Cycles,
        total: u32,
        from: usize,
    ) -> u32 {
        let memo = self.mode == SchedulingMode::Spatial;
        let tenants = sim.tenants_mut();
        let mut need = 0;
        for c in &mut self.s.cols[from..] {
            let t = &mut tenants[c.at];
            c.priority = t.request.priority;
            c.slack = slack_cycles(t.deadline_cycle, now);
            (c.estimate, c.fit) = estimate(t, c.slack, total, memo);
            self.p_max = self.p_max.max(c.priority);
            need += c.estimate;
        }
        need
    }

    /// The unfit pack over the columns, keyed by position, then over the
    /// waiting tenants, walking the deadline heap top-down; granted
    /// waiting tenants wake and join the columns.
    ///
    /// A waiting tenant scores at most `P_max / max(slack, min_slack)`
    /// (its estimate is at least 1). Once that bound falls strictly below
    /// a full prefix's last score the tenant cannot enter, and neither
    /// can any tenant below it in the heap: their deadlines are no
    /// earlier, so their bounds are no larger, and the last score only
    /// rises. So the walk skips that subtree. An unvisited tenant keeps
    /// its memo, which stays a sound floor.
    fn pack_with_waiting(&mut self, sim: &mut SimState, now: Cycles, total: u32) {
        let s = &mut self.s;
        let pack = &mut s.pack;
        let (p_max, min_slack) = (self.p_max, self.min_slack);
        pack.clear();
        for c in &s.cols {
            let score = unfit_score(c.priority, c.slack, c.estimate, min_slack);
            pack.offer(score, c.at, c.estimate, total);
        }
        let (heap, tenants) = sim.waiting_heap();
        walk_heap(heap.len(), &mut s.stack, |k| {
            let (deadline, i) = heap[k];
            let slack = slack_cycles(deadline, now);
            if pack.closed_below(unfit_score(p_max, slack, 1, min_slack), total) {
                return false;
            }
            let t = &mut tenants[i];
            let (est, _) = estimate(t, slack, total, true);
            let score = unfit_score(t.request.priority, slack, est, min_slack);
            pack.offer(score, i, est, total);
            true
        });
        for (i, grant) in pack.grants(total) {
            let k = s.cols.partition_point(|c| c.at < i);
            if s.cols.get(k).map(|c| c.at) != Some(i) {
                // A granted waiting tenant wakes before apply changes it,
                // so the kernel's sleeping sum drops exactly the value it
                // added.
                sim.wake(i);
                s.cols.insert(k, Column::new(i));
            }
            s.cols[k].grant = grant;
        }
    }

    /// Physical placement on the ring, filling each column's mover, keep,
    /// migrated and fresh-segment fields, which start empty in a record
    /// built this event. Tenants keeping their allocation keep their
    /// segment; changed tenants are re-placed into the free gaps, largest
    /// grant first. If fragmentation blocks a contiguous fit, the chip is
    /// defragmented: every tenant is re-placed in descending size order
    /// and the *moved* ones pay a migration (their stationary weights
    /// must be re-streamed into different physical subarrays).
    ///
    /// Only tenants that hold subarrays or are granted some can change.
    /// Every other column was queued and stays queued: it gets no claim,
    /// no placement, no table switch and no telemetry event. Ascending
    /// column order, with stable sorts, keeps `Chip::place` and the
    /// recorded events in the sequence a walk over every tenant produces.
    fn place(&mut self, tenants: &[TenantState]) {
        let (s, chip) = (&mut self.s, &mut self.chip);
        chip.reset();
        s.order.clear();
        for (k, c) in s.cols.iter_mut().enumerate() {
            let held = tenants[c.at].placement;
            c.mover = held.is_some() || c.grant > 0;
            // Re-claim the exact segment (growing by one is hysteresis,
            // in apply).
            c.keep = held.is_some_and(|p| c.grant == p.len() || c.grant == p.len() + 1);
            if let Some(p) = held.filter(|_| c.keep) {
                let claimed = chip.claim(&p);
                debug_assert!(claimed);
            }
            if !c.keep && c.grant > 0 {
                s.order.push(k);
            }
        }
        s.order.sort_by_key(|&k| Reverse(s.cols[k].grant));
        let mut defrag_needed = false;
        for &k in &s.order {
            match chip.place(s.cols[k].grant) {
                Some(p) => s.cols[k].fresh = Some(p),
                None => {
                    defrag_needed = true;
                    break;
                }
            }
        }
        if !defrag_needed {
            return;
        }
        // Global defragmentation: lay everyone out afresh, largest first
        // (a multiset summing to <= total always packs a ring).
        chip.reset();
        s.order.clear();
        s.order
            .extend((0..s.cols.len()).filter(|&k| s.cols[k].grant > 0));
        s.order.sort_by_key(|&k| Reverse(s.cols[k].grant));
        for c in &mut s.cols {
            c.fresh = None;
        }
        for &k in &s.order {
            let c = &mut s.cols[k];
            let p = chip
                .place(c.grant)
                // lint: every tenant was released above and Σalloc ≤ chip
                // capacity, so a contiguous placement always exists
                .expect("defragmented ring always packs");
            if !c.keep {
                c.fresh = Some(p);
            } else if tenants[c.at].placement.is_some_and(|old| old != p) {
                c.migrated = true;
                c.keep = false;
                c.fresh = Some(p);
            }
            // An unmoved kept tenant's fresh segment equals its old one.
        }
    }

    /// Puts the queued tenant at position `i` to sleep: parks it past its
    /// deadline, lets it wait otherwise. The estimate phase left a parked
    /// tenant's memo clean at the whole chip (both seed rules answer a
    /// negative slack there), and apply does not touch a queued tenant's
    /// work counters — a tenant preempted just now only owes more
    /// overhead.
    fn sleep(sim: &mut SimState, i: usize, now: Cycles, total: u32) {
        let t = &sim.tenants()[i];
        if slack_cycles(t.deadline_cycle, now) < 0 {
            debug_assert_eq!(
                t.memo.map(|m| (m.floor, m.done, m.total)),
                Some((total, t.work_done, t.work_total))
            );
            sim.park(i, parked_key(t.request.priority));
        } else {
            sim.wait(i, t.deadline_cycle);
        }
    }
}

/// Applies mover `col`'s placement and grant to its tenant `t` at `now`:
/// telemetry, the §IV-C reconfiguration cost from the compiled rows, and
/// the table switch.
fn apply<C: Collector>(t: &mut TenantState, col: &Column, now: Cycles, c: &mut C) {
    let a = col.grant;
    let old = t.placement;
    let alloc = t.alloc();
    if !col.keep {
        t.placement = col.fresh;
    }
    if a == alloc && !col.migrated {
        return;
    }
    // Hysteresis: growing a running tenant by a single subarray is not
    // worth a drain + checkpoint + refill cycle; keep the old allocation
    // (this only releases capacity, never over-commits).
    if alloc > 0 && a == alloc + 1 && !col.migrated {
        return;
    }
    let telemetry_on = c.is_enabled();
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
    // simulation itself, so the NullCollector path stays bit-identical).
    if a > 0 {
        t.slice_start = now;
    } else {
        t.queued_since = now;
    }
    if alloc > 0 && !t.work_done.is_zero() && t.work_done < t.work_total {
        // Preempted or resized mid-flight: finish the in-flight tile,
        // checkpoint it, swap configurations, refill — the old layer's
        // arrangement when preempted, the new table's monolithic one
        // otherwise.
        let pos = t.compiled.table(alloc).position(t.fraction_done());
        let mut cost = pos.reconfig;
        if a > 0 {
            cost.refill = t.compiled.refill_cycles(a);
        }
        if telemetry_on {
            c.record(
                now,
                Event::Reconfig {
                    tenant: t.request.id,
                    boundary: pos.cycles_to_boundary,
                    drain: cost.drain,
                    checkpoint: cost.checkpoint,
                    config_swap: cost.config_swap,
                    refill: cost.refill,
                    checkpoint_bytes: pos.tile_bytes,
                },
            );
            c.add(Counter::Reconfigurations, 1);
            c.add(Counter::DrainCycles, cost.drain.get());
            c.add(Counter::CheckpointCycles, cost.checkpoint.get());
            c.add(Counter::ConfigSwapCycles, cost.config_swap.get());
            c.add(Counter::RefillCycles, cost.refill.get());
            c.add(Counter::CheckpointBytes, pos.tile_bytes.get());
            c.sample(Metric::ReconfigCycles, cost.total().as_f64());
        }
        t.overhead += pos.cycles_to_boundary + cost.total();
    } else if a > 0 && alloc == 0 {
        // Fresh start on a new logical accelerator: pipeline fill is
        // already inside the table; charge the configuration load only.
        t.overhead += CONFIG_LOAD_CYCLES;
    }
    debug_assert_eq!(t.alloc(), a, "a changed tenant holds its grant");
    if a > 0 {
        // Progress is a work *fraction*; the new table rescales it
        // exactly (no-op when the table is unchanged).
        let (work_total, table_energy) = t.compiled.totals(a);
        t.switch_table(work_total, table_energy);
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
        debug_assert_eq!(
            sim.config(),
            self.library.config(),
            "the chip and the reconfiguration rows are the library's"
        );
        let total = self.chip.total();
        let now = sim.now;
        // The best parked tenant's position while it sleeps.
        let mut asleep = match self.mode {
            SchedulingMode::Spatial | SchedulingMode::FullRescan => {
                self.allocate_spatially(sim, now, total)
            }
            SchedulingMode::ExclusiveFifo => {
                let asleep = self.fill_columns(sim);
                let tenants = sim.tenants();
                let oldest = self
                    .s
                    .cols
                    .iter_mut()
                    .min_by_key(|c| tenants[c.at].arrival_cycle);
                if let Some(c) = oldest {
                    c.grant = total;
                }
                asleep
            }
        };
        // A granted parked tenant wakes before apply changes it, so the
        // kernel's sleeping sum drops exactly the value it added (granted
        // waiting tenants woke in the pack).
        if let Some(p) = asleep {
            let cols = &self.s.cols;
            if cols[cols.partition_point(|c| c.at < p)].grant > 0 {
                sim.wake(p);
                asleep = None;
            }
        }
        self.place(sim.tenants());
        // One ascending pass applies each mover and then puts its column
        // to sleep if it stays queued: a column ends the event placed
        // exactly when it is granted subarrays. The full-rescan oracle
        // writes no memo, so it never puts a tenant to sleep. `park` and
        // `wait` emit no telemetry and read only the sleeping tenant's
        // final state, so the effects are those of an apply pass followed
        // by a sleep pass.
        let sleeps = self.mode == SchedulingMode::Spatial;
        for k in 0..self.s.cols.len() {
            let col = self.s.cols[k];
            if col.mover {
                apply(&mut sim.tenants_mut()[col.at], &col, now, c);
            }
            if sleeps && col.grant == 0 && asleep != Some(col.at) {
                Self::sleep(sim, col.at, now, total);
            }
        }
        if c.is_enabled() {
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
        let result = e.run([r]);
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
        let r = e.run(trace);
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
        let r = exclusive.run([mk(0), mk(1), mk(2)]);
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
        let s = spatial.run([mk(0), mk(1), mk(2)]);
        let worst_s = s
            .completions
            .iter()
            .map(Completion::latency)
            .fold(0.0, f64::max);
        assert!(worst_s < worst);
    }
}
