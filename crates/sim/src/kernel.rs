//! The discrete-event loop: wake → advance → admit → retire →
//! reschedule → refresh the next completion.

use crate::clock::{checked_arrivals, Arrival, SimClock};
use crate::tenant::TenantState;
use planaria_arch::AcceleratorConfig;
use planaria_compiler::CompiledDnn;
use planaria_energy::EnergyModel;
use planaria_model::units::{Cycles, Picojoules};
use planaria_telemetry::{Collector, Counter, Event, Metric};
use planaria_workload::{Completion, CompletionSink, Request};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Widest placement mask (and thus pod count) a kernel can track.
const MAX_PODS: usize = 128;

/// A scheduling policy plugged into the kernel.
///
/// The kernel owns time, tenant admission, work advancement, completion
/// detection and retirement; the policy owns *decisions*: which tenants
/// hold how many subarrays, what reconfiguration overhead a change
/// costs, and the engine-specific telemetry those decisions emit.
pub trait EnginePolicy {
    /// The compiled network a new arrival will execute.
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn>;

    /// Subarray count whose configuration table seeds a new tenant's
    /// work accounting (rescaled exactly on the first allocation, so any
    /// valid table works; single-table engines return their only one).
    fn admit_subarrays(&self) -> u32 {
        1
    }

    /// Reacts to a scheduling event at `sim.now` (an arrival and/or
    /// completion just processed): reassign placements, charge
    /// reconfiguration `overhead`, switch tables, and emit
    /// engine-specific telemetry. A tenant that loses its placement
    /// restarts `queued_since`, which opens its next queue interval and
    /// starts PREMA's token accrual.
    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C);
}

/// Kernel-owned simulation state visible to policies.
///
/// A policy may put a queued tenant to sleep when it can answer that
/// tenant's next decisions without walking it: *park* it
/// ([`park`](Self::park), indexed by priority) or let it *wait*
/// ([`wait`](Self::wait), indexed by deadline). The kernel's advance,
/// retire and refresh passes walk only the awake tenants, so a sleeping
/// tenant must stay unchanged — no subarrays, no work, no overhead —
/// until the policy wakes it ([`wake`](Self::wake)). A policy that never
/// puts a tenant to sleep sees every tenant walked.
#[derive(Debug)]
pub struct SimState {
    cfg: AcceleratorConfig,
    clock: SimClock,
    /// Current simulation time, cycles since the run origin.
    pub now: Cycles,
    /// Live tenants (running or queued), in admission order modulo
    /// `swap_remove` retirement. A tenant's position is every stable
    /// tie-break and the key of `awake`, `parked` and `waiting`, so only
    /// the kernel adds or removes tenants.
    tenants: Vec<TenantState>,
    /// Ascending positions of the tenants that are awake.
    awake: Vec<usize>,
    /// Parked tenants keyed (priority desc, position asc), so the first
    /// entry is the best parked tenant.
    parked: BTreeSet<(Reverse<u32>, usize)>,
    /// Waiting tenants keyed (deadline, position), so they iterate from
    /// the least slack.
    waiting: BTreeSet<(Cycles, usize)>,
    /// Σ `remaining()` over parked and waiting tenants, frozen while they
    /// sleep.
    asleep_remaining: Cycles,
    /// Scratch: positions of the awake tenants found done this event.
    done: Vec<usize>,
}

/// The two indexes a tenant can sleep in.
#[derive(Clone, Copy)]
enum Sleep {
    Parked,
    Waiting,
}

impl SimState {
    /// A fresh state for one node (crate-internal: the oracle reference
    /// kernel in [`crate::oracle`] builds one to drive real policies).
    pub(crate) fn new_for(cfg: AcceleratorConfig, clock: SimClock) -> Self {
        Self {
            cfg,
            clock,
            now: Cycles::ZERO,
            tenants: Vec::new(),
            awake: Vec::new(),
            parked: BTreeSet::new(),
            waiting: BTreeSet::new(),
            asleep_remaining: Cycles::ZERO,
            done: Vec::new(),
        }
    }

    /// The accelerator configuration of this run.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Total subarrays on the chip.
    pub fn total_subarrays(&self) -> u32 {
        self.cfg.num_subarrays()
    }

    /// Live tenants by position.
    pub fn tenants(&self) -> &[TenantState] {
        &self.tenants
    }

    /// Live tenants by position, mutably. Wake a sleeping tenant before
    /// changing its allocation, work or overhead.
    pub fn tenants_mut(&mut self) -> &mut [TenantState] {
        &mut self.tenants
    }

    /// Ascending positions of the tenants that are awake.
    pub fn awake(&self) -> &[usize] {
        &self.awake
    }

    /// Position of the parked tenant with the highest priority, the
    /// lowest position among equals.
    #[inline]
    pub fn best_parked(&self) -> Option<usize> {
        self.parked.first().map(|&(_, i)| i)
    }

    /// Parked tenants.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Positions of the waiting tenants by (deadline, position).
    pub fn waiting(&self) -> impl Iterator<Item = usize> + '_ {
        self.waiting.iter().map(|&(_, i)| i)
    }

    /// [`waiting`](Self::waiting) beside the tenants, mutably, so a
    /// policy can refresh what it keeps on the waiting tenants it visits.
    /// Changing a waiting tenant's allocation, work or overhead needs
    /// [`wake`](Self::wake) first.
    pub fn waiting_with_tenants(
        &mut self,
    ) -> (impl Iterator<Item = usize> + '_, &mut [TenantState]) {
        (self.waiting.iter().map(|&(_, i)| i), &mut self.tenants)
    }

    /// Waiting tenants.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Parks the awake tenant at position `i`: the kernel stops walking
    /// it until [`wake`](Self::wake).
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not awake, or holds subarrays.
    pub fn park(&mut self, i: usize) {
        self.sleep(i, Sleep::Parked);
    }

    /// Lets the awake tenant at position `i` wait: like
    /// [`park`](Self::park), but indexed by deadline.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is not awake, or holds subarrays.
    pub fn wait(&mut self, i: usize) {
        self.sleep(i, Sleep::Waiting);
    }

    /// Wakes the parked or waiting tenant at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if the tenant is neither parked nor waiting.
    pub fn wake(&mut self, i: usize) {
        let was_asleep = self.unindex(i).is_some();
        assert!(was_asleep, "only a sleeping tenant wakes");
        self.asleep_remaining -= self.tenants[i].remaining();
        let at = self.awake.binary_search(&i).unwrap_err();
        self.awake.insert(at, i);
    }

    fn sleep(&mut self, i: usize, into: Sleep) {
        let at = self
            .awake
            .binary_search(&i)
            // lint: putting a tenant that is not awake to sleep is a policy bug
            .expect("only an awake tenant sleeps");
        let t = &self.tenants[i];
        assert!(
            t.placement.is_none(),
            "a tenant holding subarrays cannot sleep"
        );
        self.asleep_remaining += t.remaining();
        self.awake.remove(at);
        self.index(i, into);
    }

    /// Enters the tenant at position `i` into one sleeping index under
    /// its key.
    fn index(&mut self, i: usize, into: Sleep) {
        let t = &self.tenants[i];
        match into {
            Sleep::Parked => self.parked.insert((Reverse(t.request.priority), i)),
            Sleep::Waiting => self.waiting.insert((t.deadline_cycle, i)),
        };
    }

    /// Removes the tenant at position `i` from whichever sleeping index
    /// holds it, returning that index.
    fn unindex(&mut self, i: usize) -> Option<Sleep> {
        // Waiting first: most wakes leave the waiting index, while a
        // parked tenant wakes only as the best parked one.
        let t = &self.tenants[i];
        if self.waiting.remove(&(t.deadline_cycle, i)) {
            Some(Sleep::Waiting)
        } else if self.parked.remove(&(Reverse(t.request.priority), i)) {
            Some(Sleep::Parked)
        } else {
            None
        }
    }

    /// Admits a tenant at the last position, awake.
    #[inline]
    pub(crate) fn admit(&mut self, t: TenantState) {
        self.awake.push(self.tenants.len());
        self.tenants.push(t);
    }

    /// Removes the done tenant at position `i` by `swap_remove`, re-keying
    /// the tenant that moves from the last position into `i`. A done
    /// tenant is awake: a sleeping one holds no subarrays and its work is
    /// frozen.
    pub(crate) fn retire(&mut self, i: usize) -> TenantState {
        let last = self.tenants.len() - 1;
        let mut moved_asleep = None;
        if self.awake.last() == Some(&last) {
            // The moved tenant takes over `i`'s entry (none moves when
            // `i` is the last position).
            debug_assert!(self.awake.binary_search(&i).is_ok());
            self.awake.pop();
        } else {
            let at = self
                .awake
                .binary_search(&i)
                // lint: only a done tenant retires, and a done tenant is awake
                .expect("a retiring tenant is awake");
            self.awake.remove(at);
            moved_asleep = self.unindex(last);
            debug_assert!(moved_asleep.is_some(), "a live tenant is awake or asleep");
        }
        let t = self.tenants.swap_remove(i);
        if let Some(index) = moved_asleep {
            self.index(i, index);
        }
        t
    }

    /// Retires every done tenant, handing each to `f` in the order of an
    /// ascending `swap_remove` scan over all tenants.
    ///
    /// Only awake tenants can be done: a sleeping one holds no subarrays
    /// and its work is frozen. A retirement moves only the last tenant,
    /// into the slot being scanned, so visiting the done positions in
    /// ascending order and re-checking each slot until it holds an
    /// unfinished tenant retires the same tenants in the same order.
    pub(crate) fn retire_done(&mut self, mut f: impl FnMut(TenantState)) {
        self.done.clear();
        let tenants = &self.tenants;
        self.done
            .extend(self.awake.iter().copied().filter(|&i| tenants[i].is_done()));
        for k in 0..self.done.len() {
            let i = self.done[k];
            while i < self.tenants.len() && self.tenants[i].is_done() {
                f(self.retire(i));
            }
        }
    }
}

/// A resumable single-node discrete-event kernel.
///
/// The loop lives behind a struct so a multi-node fabric can hold one
/// kernel per node, feed each an inbox of dispatched arrivals, and
/// advance them in bounded rounds (see [`crate::fabric`]). A
/// `NodeKernel` driven once with no bound is the single-node run
/// ([`run_streamed_sink`]), and driving it in bounded slices processes
/// the *same* events at the *same* cycles in the *same* order, because
/// events are pure wake-ups: a bound only decides how far this call
/// walks, never when the node wakes.
#[derive(Debug)]
pub(crate) struct NodeKernel<S: CompletionSink> {
    sim: SimState,
    /// Where retirements go: an in-memory vector
    /// ([`VecSink`](planaria_workload::VecSink)), a quantile sketch, a
    /// disk spill, or nothing at all
    /// ([`DiscardSink`](planaria_workload::DiscardSink), the flat-memory
    /// fabric's). A type parameter, so the per-retirement call inlines
    /// with zero dispatch cost.
    sink: S,
    em: EnergyModel,
    /// The one not-yet-admitted arrival drawn from the source.
    pending: Option<Arrival>,
    /// The admission counter: arrivals admitted so far, which is also
    /// the admission number `pending` will get.
    next_arrival: u64,
    /// The earliest `now + remaining` over tenants holding subarrays,
    /// taken in the last refresh pass (`None` while nobody runs).
    next_completion: Option<Cycles>,
    busy: Cycles,
    /// Cycle of the first admitted arrival: this node's makespan origin.
    origin: Option<Cycles>,
    events: u64,
    completed: u64,
    summary_energy: Picojoules,
    /// Cumulative dynamic energy attributed to each subarray pod
    /// (picojoules), maintained only while the collector is enabled.
    pod_pj: [f64; MAX_PODS],
    /// The value last exported per pod, so counter samples are emitted
    /// only when a pod's total moved.
    pod_emitted: [f64; MAX_PODS],
}

/// Aggregate view of a finished node ([`run_streamed_sink`]), or of a
/// finished fabric ([`run_fabric_summary`](crate::run_fabric_summary)),
/// whose nodes' summaries fold in node order: counts and energies add,
/// and the makespan is the slowest node's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeSummary {
    /// Requests retired.
    pub completed: u64,
    /// Dynamic plus static energy over the node's busy span, the dynamic
    /// part summed in retirement order — equal to an id-ordered sum up
    /// to float associativity, not bit for bit.
    pub total_energy: Picojoules,
    /// The static (leakage) component of `total_energy` alone, accrued
    /// only while the chip serves tenants — exposed so exactness paths
    /// can recombine it with a dynamic sum taken in request-id order
    /// ([`SimResult::from_completions`](planaria_workload::SimResult::from_completions),
    /// or the spill replay's digest).
    pub static_energy: Picojoules,
    /// Seconds from the node's own first admitted arrival to its last
    /// event (on a shared fabric clock a node that starts late is not
    /// charged for the lead-in).
    pub makespan: f64,
}

impl<S: CompletionSink> NodeKernel<S> {
    /// A fresh kernel retiring into `sink` (see [`CompletionSink`] for
    /// the menu: vector, sketch, disk spill, discard).
    pub(crate) fn with_sink(cfg: &AcceleratorConfig, clock: SimClock, sink: S) -> Self {
        Self {
            sim: SimState::new_for(*cfg, clock),
            sink,
            em: EnergyModel::for_config(cfg),
            pending: None,
            next_arrival: 0,
            next_completion: None,
            busy: Cycles::ZERO,
            origin: None,
            events: 0,
            completed: 0,
            summary_energy: Picojoules::ZERO,
            pod_pj: [0.0; MAX_PODS],
            pod_emitted: [0.0; MAX_PODS],
        }
    }

    /// Current simulation time of this node, cycles since the clock
    /// origin.
    pub(crate) fn now(&self) -> Cycles {
        self.sim.now
    }

    /// Live (running or queued) tenants on this node.
    pub(crate) fn live_tenants(&self) -> usize {
        self.sim.tenants.len()
    }

    /// Total work left across live tenants, in cycles — the load signal
    /// feedback dispatchers read at epoch barriers. Parked and waiting
    /// tenants count through their frozen sum.
    pub(crate) fn outstanding_cycles(&self) -> Cycles {
        let sim = &self.sim;
        sim.asleep_remaining
            + sim
                .awake
                .iter()
                .map(|&i| sim.tenants[i].remaining())
                .sum::<Cycles>()
    }

    /// Wake-ups processed so far (the fabric's aggregate throughput
    /// denominator).
    pub(crate) fn events_processed(&self) -> u64 {
        self.events
    }

    /// The next wake-up strictly before `bound`: the earlier of the
    /// pending arrival's cycle and `next_completion`, or `None` when
    /// neither exists or the earlier one lands at or past `bound`.
    ///
    /// Events are pure wake-ups — admission is driven by the trace
    /// cursor and retirement by the exact `is_done` scan — so when *k*
    /// arrivals and completions land on one cycle the kernel advances
    /// once, admits/retires them all, and invokes `reschedule` once.
    /// Nothing is consumed here, so a bounded walk followed by another
    /// call is indistinguishable from one unbounded walk.
    ///
    /// The returned flag reports whether a completion is due at this
    /// cycle: the retirement gate's evidence. A tenant holding subarrays
    /// reaches `is_done` exactly at `now + remaining` as of the last
    /// refresh (`advance` burns cycle-for-cycle, and tenants change only
    /// inside a pass), and the earliest such cycle is `next_completion`.
    /// So a wake-up before it cannot have finished any running tenant.
    fn next_wake_before(&self, bound: Option<Cycles>) -> Option<(Cycles, bool)> {
        let at = self
            .pending
            .map(|a| a.at)
            .into_iter()
            .chain(self.next_completion)
            .min()?;
        if bound.is_some_and(|b| at >= b) {
            return None;
        }
        Some((at, self.next_completion == Some(at)))
    }

    /// Advances the node until nothing is left to wake for (or, with a
    /// bound, until the next wake-up would land at or past `bound`),
    /// drawing arrivals lazily from `src`.
    ///
    /// The loop body is the kernel contract: wake → advance work →
    /// admit due arrivals → retire finished tenants → `reschedule` →
    /// refresh the next completion.
    pub(crate) fn advance<P: EnginePolicy, C: Collector>(
        &mut self,
        bound: Option<Cycles>,
        src: &mut impl Iterator<Item = Arrival>,
        policy: &mut P,
        c: &mut C,
    ) {
        if self.pending.is_none() {
            self.pending = src.next();
        }

        let track_pods = c.is_enabled();
        let per_pod = self.sim.cfg.subarrays_per_pod.max(1);
        while let Some((t_next, completion_due)) = self.next_wake_before(bound) {
            self.events += 1;
            // Advance every allocated tenant to the event time, in
            // ascending position order (sleeping tenants hold nothing). The
            // chip is busy whenever anyone holds subarrays. With telemetry
            // on, each tenant's dynamic-energy delta is attributed evenly
            // across the subarrays it holds, accumulated per pod.
            // `advance(0)` is a no-op for every tenant (and contributes
            // no busy span), so a zero-width step skips the scan whole.
            let dt = t_next.saturating_sub(self.sim.now);
            if !dt.is_zero() {
                let mut any_allocated = false;
                for &i in &self.sim.awake {
                    let t = &mut self.sim.tenants[i];
                    let Some(p) = t.placement else {
                        continue;
                    };
                    any_allocated = true;
                    if track_pods {
                        let before = t.energy.as_pj();
                        t.advance(dt);
                        let delta = t.energy.as_pj() - before;
                        if delta > 0.0 {
                            let share = delta / f64::from(p.len());
                            let mut m = p.mask();
                            while m != 0 {
                                let bit = m.trailing_zeros();
                                m &= m - 1;
                                self.pod_pj[(bit / per_pod) as usize] += share;
                            }
                        }
                    } else {
                        t.advance(dt);
                    }
                }
                if any_allocated {
                    self.busy += dt;
                }
            }
            self.sim.now = t_next;

            // Admit every arrival due now; keep exactly one future
            // arrival pending.
            let mut maybe_done = completion_due;
            while let Some(a) = self.pending {
                if a.at > self.sim.now {
                    break;
                }
                if self.origin.is_none() {
                    self.origin = Some(a.at);
                }
                if c.is_enabled() {
                    c.record(
                        self.sim.now,
                        Event::Arrival {
                            tenant: a.request.id,
                            dnn: a.request.dnn,
                        },
                    );
                    c.add(Counter::Arrivals, 1);
                }
                let compiled = policy.compiled_for(&a.request);
                let subarrays = policy.admit_subarrays();
                let t = TenantState::new(self.next_arrival, a, compiled, subarrays, self.sim.now);
                self.sim.admit(t);
                // A degenerate zero-work request is done the moment it is
                // admitted, without ever holding subarrays — the one way
                // `is_done` can flip outside a completion cycle.
                maybe_done |= self.sim.tenants.last().is_some_and(TenantState::is_done);
                self.next_arrival += 1;
                self.pending = src.next();
            }

            // Retire finished tenants in the order of an ascending
            // swap_remove scan, preserving the admission-order prefix that
            // stable scheduling relies on (`SimState::retire_done`). The
            // scan runs only when this cycle could have finished someone:
            // a completion was due (see `next_wake_before`) or a zero-work
            // admit arrived done. On pure-arrival cycles — half of a
            // saturated node's events — it is provably a no-op and is
            // skipped; the oracle kernel scans every tenant after every
            // event and the equivalence suite pins the results
            // byte-for-byte.
            let mut retired_any = false;
            if maybe_done {
                let (now, clock) = (self.sim.now, self.sim.clock);
                self.sim.retire_done(|t| {
                    retired_any = true;
                    let latency = now.saturating_sub(t.arrival_cycle);
                    if c.is_enabled() {
                        if let Some(p) = t.placement {
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
                            Event::Completion {
                                tenant: t.request.id,
                                latency,
                            },
                        );
                        c.add(Counter::Completions, 1);
                        c.observe(Metric::LatencyCycles, latency.get());
                        if now <= t.deadline_cycle {
                            c.add(Counter::QosMet, 1);
                        }
                    }
                    self.completed += 1;
                    self.summary_energy += t.energy;
                    self.sink.record(
                        Completion {
                            request: t.request,
                            finish: clock.to_seconds(now),
                            energy: t.energy,
                        },
                        latency,
                    );
                });
            }
            // Export pod energy counters only when a completion closed
            // this event and a pod's cumulative total actually moved.
            if track_pods && retired_any {
                let pods = self.sim.cfg.num_pods().min(MAX_PODS as u32);
                for pod in 0..pods {
                    let cur = self.pod_pj[pod as usize];
                    if cur != self.pod_emitted[pod as usize] {
                        self.pod_emitted[pod as usize] = cur;
                        c.record(
                            self.sim.now,
                            Event::PodEnergy {
                                pod,
                                energy: Picojoules::new(cur),
                            },
                        );
                    }
                }
            }

            // A scheduling event fired: let the policy reassign the chip.
            policy.reschedule(&mut self.sim, c);

            // Refresh the next completion. `now + remaining` is invariant
            // under plain advancement, so the minimum taken here stays
            // exact until the next wake-up.
            let sim = &self.sim;
            self.next_completion = sim
                .awake
                .iter()
                .map(|&i| &sim.tenants[i])
                .filter(|t| t.placement.is_some())
                .map(|t| sim.now + t.remaining())
                .min();
        }
    }

    /// Finalizes the node, handing back the sink alongside the aggregate
    /// tallies — how spill and sketch runs recover what they recorded.
    pub(crate) fn into_sink(self) -> (S, NodeSummary) {
        debug_assert!(
            self.pending.is_none() && self.sim.tenants.is_empty(),
            "node finalized with work outstanding"
        );
        let active = self
            .sim
            .now
            .saturating_sub(self.origin.unwrap_or(Cycles::ZERO));
        let static_energy = self
            .em
            .static_energy(self.sim.clock.span_seconds(self.busy));
        (
            self.sink,
            NodeSummary {
                completed: self.completed,
                total_energy: self.summary_energy + static_energy,
                static_energy,
                makespan: self.sim.clock.span_seconds(active),
            },
        )
    }
}

/// Runs one node's event loop over a request stream with `policy`,
/// streaming telemetry into `c` and retirements into `sink`.
///
/// Requests are drawn lazily — the kernel keeps one not-yet-due arrival
/// outstanding — so a million-request
/// [`TraceStream`](planaria_workload::TraceStream) never exists as a
/// `Vec`. The sink only decides what is *remembered*: a
/// [`VecSink`](planaria_workload::VecSink) keeps every completion (the
/// engines' `run`), a [`SpillSink`](planaria_workload::SpillSink)
/// replays them in id order from disk at O(live tenants). The
/// [`NodeSummary`] carries the split-out static energy an id-ordered
/// result needs.
///
/// # Panics
///
/// Panics if the source yields arrivals out of order, an arrival the
/// clock cannot represent ([`SimClock::check_arrival`]), or a QoS that is
/// negative or NaN.
pub fn run_streamed_sink<P, C, I, S>(
    cfg: &AcceleratorConfig,
    requests: I,
    policy: &mut P,
    c: &mut C,
    sink: S,
) -> (S, NodeSummary)
where
    P: EnginePolicy,
    C: Collector,
    I: IntoIterator,
    I::Item: Borrow<Request>,
    S: CompletionSink,
{
    let (clock, mut arrivals) = checked_arrivals(requests, cfg.freq_hz);
    c.set_meta(clock.meta(cfg.num_subarrays()));

    let mut node = NodeKernel::with_sink(cfg, clock, sink);
    node.advance(None, &mut arrivals, policy, c);
    node.into_sink()
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_arch::Allocation;
    use planaria_model::DnnId;
    use planaria_telemetry::{NullCollector, RecordingCollector};
    use planaria_workload::{SimResult, VecSink};

    /// One run keeping every completion, assembled as the engines do.
    fn run<C: Collector>(
        cfg: &AcceleratorConfig,
        trace: &[Request],
        policy: &mut WholeChipFifo,
        c: &mut C,
    ) -> SimResult {
        let (sink, s) =
            run_streamed_sink(cfg, trace.iter().copied(), policy, c, VecSink::default());
        SimResult::from_completions(sink.completions, s.static_energy, s.makespan)
    }

    /// A minimal policy: the oldest queued tenant gets the whole chip.
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
            t.placement = Some(Allocation::contiguous(0, total, total));
            let (wt, en) = {
                let table = t.compiled.table(total);
                (table.total_cycles(), table.total_energy())
            };
            t.switch_table(wt, en);
            t.slice_start = now;
        }
    }

    fn policy() -> WholeChipFifo {
        WholeChipFifo {
            library: planaria_compiler::CompiledLibrary::new(
                planaria_arch::AcceleratorConfig::planaria(),
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

    /// Request `id` as admitted at cycle 0 with its deadline at cycle
    /// `deadline`.
    fn admitted(id: u64, deadline: u64) -> Arrival {
        Arrival {
            request: req(id, 0.0),
            at: Cycles::ZERO,
            deadline: Cycles::new(deadline),
        }
    }

    #[test]
    fn empty_trace_yields_empty_result() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let r = run(&cfg, &[], &mut policy(), &mut NullCollector);
        assert!(r.completions.is_empty());
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn serial_fifo_completes_everything_in_admission_order() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = vec![req(0, 0.0), req(1, 0.0), req(2, 0.001)];
        let mut c = RecordingCollector::new();
        let r = run(&cfg, &trace, &mut policy(), &mut c);
        assert_eq!(r.completions.len(), 3);
        for (i, done) in r.completions.iter().enumerate() {
            assert_eq!(done.request.id, i as u64);
            assert!(done.finish >= done.request.arrival);
        }
        assert!(r.makespan > 0.0);
        assert!(r.total_energy > Picojoules::ZERO);
        // Completions serialize: each one finishes before the next starts.
        assert!(r.completions[0].finish <= r.completions[1].finish);
        use planaria_telemetry::Counter as Ct;
        let report = c.report();
        assert_eq!(report.counter(Ct::Arrivals), 3);
        assert_eq!(report.counter(Ct::Completions), 3);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_rejected() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = vec![req(0, 1.0), req(1, 0.0)];
        let _ = run(&cfg, &trace, &mut policy(), &mut NullCollector);
    }

    #[test]
    #[should_panic(expected = "request 2 arrives at inf s")]
    fn infinite_arrival_rejected() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = vec![req(0, 0.0), req(1, 1e-4), req(2, f64::INFINITY)];
        let _ = run(&cfg, &trace, &mut policy(), &mut NullCollector);
    }

    #[test]
    #[should_panic(expected = "request 1 has a QoS of NaN s, not a duration")]
    fn nan_qos_rejected() {
        // Converted unchecked, a NaN deadline would become cycle 0.
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let mut trace = vec![req(0, 0.0), req(1, 1e-4)];
        trace[1].qos = f64::NAN;
        let _ = run(&cfg, &trace, &mut policy(), &mut NullCollector);
    }

    #[test]
    #[should_panic(expected = "outside the clock's range")]
    fn arrival_past_the_cycle_range_rejected() {
        // 3e10 s is ~2.1e19 cycles at 700 MHz: past 2^63 and past u64.
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let trace = vec![req(0, 0.0), req(1, 1e-4), req(2, 3e10)];
        let _ = run(&cfg, &trace, &mut policy(), &mut NullCollector);
    }

    #[test]
    fn retire_order_matches_the_swap_remove_scan_on_a_chain() {
        // Positions 1, 3, 5 and 6 are done, 4 is parked and 7 (the last)
        // waits. The scan over every tenant retires 1, which the waiting
        // tenant moves into; then 3, then the done tenants that move from
        // the last slot into 3 (6, then 5), and the parked tenant ends up
        // at position 3.
        let cfg = AcceleratorConfig::planaria();
        let compiled = planaria_compiler::CompiledLibrary::shared_for(&cfg).shared(DnnId::TinyYolo);
        let mut sim = SimState::new_for(cfg, SimClock::for_config(&cfg));
        let done = [false, true, false, true, false, true, true, false];
        let mut scan: Vec<(u64, bool)> = Vec::new();
        for (id, &d) in (0u64..).zip(&done) {
            let mut t =
                TenantState::new(id, admitted(id, id), Arc::clone(&compiled), 1, Cycles::ZERO);
            if d {
                t.work_done = t.work_total;
            }
            sim.admit(t);
            scan.push((id, d));
        }
        sim.park(4);
        sim.wait(7);
        let asleep = sim.tenants()[4].remaining() + sim.tenants()[7].remaining();

        let mut want = Vec::new();
        let mut i = 0;
        while i < scan.len() {
            if scan[i].1 {
                want.push(scan.swap_remove(i).0);
            } else {
                i += 1;
            }
        }
        let mut got = Vec::new();
        sim.retire_done(|t| got.push(t.request.id));
        assert_eq!(got, want);
        assert_eq!(got, [1, 3, 6, 5]);

        let ids: Vec<u64> = sim.tenants().iter().map(|t| t.request.id).collect();
        assert_eq!(ids, scan.iter().map(|&(id, _)| id).collect::<Vec<_>>());
        assert_eq!(ids, [0, 7, 2, 4]);
        assert_eq!(sim.best_parked(), Some(3));
        assert_eq!(sim.parked_len(), 1);
        assert_eq!(sim.waiting().collect::<Vec<_>>(), [1]);
        assert_eq!(sim.awake(), [0, 2]);
        assert_eq!(sim.asleep_remaining, asleep);
        sim.wake(1);
        assert_eq!(sim.waiting_len(), 0);
        sim.wake(3);
        assert_eq!(sim.parked_len(), 0);
        assert_eq!(sim.awake(), [0, 1, 2, 3]);
        assert_eq!(sim.asleep_remaining, Cycles::ZERO);
    }

    #[test]
    fn waiting_tenants_iterate_by_deadline_then_position() {
        let cfg = AcceleratorConfig::planaria();
        let compiled = planaria_compiler::CompiledLibrary::shared_for(&cfg).shared(DnnId::TinyYolo);
        let mut sim = SimState::new_for(cfg, SimClock::for_config(&cfg));
        for (id, deadline) in (0u64..).zip([30, 10, 30, 20]) {
            let t = TenantState::new(
                id,
                admitted(id, deadline),
                Arc::clone(&compiled),
                1,
                Cycles::ZERO,
            );
            sim.admit(t);
        }
        for i in [2, 0, 3, 1] {
            sim.wait(i);
        }
        assert_eq!(sim.waiting().collect::<Vec<_>>(), [1, 3, 0, 2]);
        assert!(sim.awake().is_empty());
        sim.wake(3);
        assert_eq!(sim.waiting().collect::<Vec<_>>(), [1, 0, 2]);
        assert_eq!(sim.awake(), [3]);
    }

    #[test]
    fn makespan_counts_from_first_arrival() {
        let cfg = planaria_arch::AcceleratorConfig::planaria();
        let late = vec![req(0, 5.0)];
        let r = run(&cfg, &late, &mut policy(), &mut NullCollector);
        assert_eq!(r.completions.len(), 1);
        // Finish is absolute; makespan is relative to the first arrival.
        assert!(r.completions[0].finish >= 5.0);
        assert!(
            r.makespan < 1.0,
            "makespan {} must exclude the 5 s lead-in",
            r.makespan
        );
    }
}
