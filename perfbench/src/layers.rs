//! Traced-run wrappers. Each implements one public trait the kernel calls
//! through, delegates every call unchanged to the value it wraps, and
//! adds the wall time spent inside the call to a per-layer tally.
//!
//! | wrapper | trait | layer |
//! |---|---|---|
//! | [`TimedPolicy`] | `EnginePolicy` | `core` / `prema` scheduler, `compiler` lookups |
//! | [`TimedSink`] | `CompletionSink` | `workload` retirement |
//! | [`TimedSource`] | `Iterator<Item = Request>` | `workload` arrivals |
//! | [`TimedDispatcher`] | `Dispatcher` | `core` routing inside `sim`'s fabric |
//! | [`Tap`] | `Collector` | `telemetry`: round barriers, queue waits |
//!
//! Wrappers tally privately and fold into a shared [`Ledger`] when they
//! are dropped, so fleet nodes on worker threads never contend per call.
//! Their tallies live on the heap: the fabric moves every node's policy
//! and collector to a worker and back each round, and an inline 15 KB
//! sketch would turn each move into a large copy.

use planaria_compiler::CompiledDnn;
use planaria_model::units::Cycles;
use planaria_sim::{Dispatcher, EnginePolicy, NodeLoad, SimClock, SimState};
use planaria_telemetry::{Collector, Counter, CycleSketch, Event, Metric, SimMeta};
use planaria_workload::{Completion, CompletionSink, Request};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Calls into one layer and the wall time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds inside those calls.
    pub ns: u64,
}

impl Span {
    /// Counts one call of `ns` nanoseconds.
    pub fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    fn merge(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// Everything the wrappers of one traced repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Planaria's `SpatialPolicy::reschedule` (Algorithm 1).
    pub core_reschedule: Span,
    /// Per-call `core` reschedule nanoseconds.
    pub core_reschedule_ns: CycleSketch,
    /// PREMA's `TemporalPolicy::reschedule`.
    pub prema_reschedule: Span,
    /// `EnginePolicy::compiled_for` library lookups on admission.
    pub compiled_for: Span,
    /// `CompletionSink::record` calls.
    pub sink: Span,
    /// Request-iterator `next` calls.
    pub source: Span,
    /// `Dispatcher::route` calls.
    pub route: Span,
    /// `TraceConfig::generate` calls (materialized traces).
    pub generate: Span,
}

impl Tally {
    fn merge(&mut self, o: &Tally) {
        self.core_reschedule.merge(o.core_reschedule);
        self.core_reschedule_ns.merge(&o.core_reschedule_ns);
        self.prema_reschedule.merge(o.prema_reschedule);
        self.compiled_for.merge(o.compiled_for);
        self.sink.merge(o.sink);
        self.source.merge(o.source);
        self.route.merge(o.route);
        self.generate.merge(o.generate);
    }

    /// Node-local scheduling time: both policies plus library lookups.
    pub fn policy_ns(&self) -> u64 {
        self.core_reschedule.ns + self.prema_reschedule.ns + self.compiled_for.ns
    }
}

/// The shared tally wrappers fold into when dropped.
#[derive(Debug, Default)]
pub struct Ledger(Mutex<Tally>);

impl Ledger {
    /// Applies `f` to the shared tally. Never panics (it runs inside
    /// `Drop`): a poisoned lock still holds a valid tally, since every
    /// update is a plain addition.
    pub fn with(&self, f: impl FnOnce(&mut Tally)) {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// The accumulated tally.
    pub fn into_tally(self) -> Tally {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Which scheduler a [`TimedPolicy`] wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyLayer {
    /// Planaria's spatial policy (`planaria-core`).
    Core,
    /// PREMA's temporal policy (`planaria-prema`).
    Prema,
}

/// `EnginePolicy` wrapper timing `reschedule` and `compiled_for`.
pub struct TimedPolicy<'l, P> {
    inner: P,
    layer: PolicyLayer,
    ledger: &'l Ledger,
    local: Box<Tally>,
}

impl<'l, P: EnginePolicy> TimedPolicy<'l, P> {
    /// Wraps `inner`, folding into `ledger` on drop.
    pub fn new(inner: P, layer: PolicyLayer, ledger: &'l Ledger) -> Self {
        Self {
            inner,
            layer,
            ledger,
            local: Box::default(),
        }
    }
}

impl<P: EnginePolicy> EnginePolicy for TimedPolicy<'_, P> {
    fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
        let t = Instant::now();
        let out = self.inner.compiled_for(request);
        self.local.compiled_for.add(ns_since(t));
        out
    }

    fn admit_subarrays(&self) -> u32 {
        self.inner.admit_subarrays()
    }

    fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
        let t = Instant::now();
        self.inner.reschedule(sim, c);
        let ns = ns_since(t);
        match self.layer {
            PolicyLayer::Core => {
                self.local.core_reschedule.add(ns);
                self.local.core_reschedule_ns.record(ns);
            }
            PolicyLayer::Prema => self.local.prema_reschedule.add(ns),
        }
    }
}

impl<P> Drop for TimedPolicy<'_, P> {
    fn drop(&mut self) {
        self.ledger.with(|t| t.merge(&self.local));
    }
}

/// `CompletionSink` wrapper timing `record`; the wrapped sink stays with
/// the caller.
pub struct TimedSink<'a, S> {
    inner: &'a mut S,
    ledger: &'a Ledger,
    span: Span,
}

impl<'a, S: CompletionSink> TimedSink<'a, S> {
    /// Wraps `inner`, folding into `ledger` on drop.
    pub fn new(inner: &'a mut S, ledger: &'a Ledger) -> Self {
        Self {
            inner,
            ledger,
            span: Span::default(),
        }
    }
}

impl<S: CompletionSink> CompletionSink for TimedSink<'_, S> {
    fn record(&mut self, completion: Completion, latency: Cycles) {
        let t = Instant::now();
        self.inner.record(completion, latency);
        self.span.add(ns_since(t));
    }
}

impl<S> Drop for TimedSink<'_, S> {
    fn drop(&mut self) {
        self.ledger.with(|t| t.sink.merge(self.span));
    }
}

/// Request-iterator wrapper timing `next`.
pub struct TimedSource<'l, I> {
    inner: I,
    ledger: &'l Ledger,
    span: Span,
}

impl<'l, I: Iterator<Item = Request>> TimedSource<'l, I> {
    /// Wraps `inner`, folding into `ledger` on drop.
    pub fn new(inner: I, ledger: &'l Ledger) -> Self {
        Self {
            inner,
            ledger,
            span: Span::default(),
        }
    }
}

impl<I: Iterator<Item = Request>> Iterator for TimedSource<'_, I> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let t = Instant::now();
        let out = self.inner.next();
        self.span.add(ns_since(t));
        out
    }
}

impl<I> Drop for TimedSource<'_, I> {
    fn drop(&mut self) {
        self.ledger.with(|t| t.source.merge(self.span));
    }
}

/// `Dispatcher` wrapper timing `route`.
pub struct TimedDispatcher<'a, D> {
    inner: &'a mut D,
    ledger: &'a Ledger,
    span: Span,
}

impl<'a, D: Dispatcher> TimedDispatcher<'a, D> {
    /// Wraps `inner`, folding into `ledger` on drop.
    pub fn new(inner: &'a mut D, ledger: &'a Ledger) -> Self {
        Self {
            inner,
            ledger,
            span: Span::default(),
        }
    }
}

impl<D: Dispatcher> Dispatcher for TimedDispatcher<'_, D> {
    fn route(&mut self, req: &Request, at: Cycles, clock: &SimClock, loads: &[NodeLoad]) -> usize {
        let t = Instant::now();
        let out = self.inner.route(req, at, clock, loads);
        self.span.add(ns_since(t));
        out
    }

    fn feedback(&self) -> bool {
        self.inner.feedback()
    }
}

impl<D> Drop for TimedDispatcher<'_, D> {
    fn drop(&mut self) {
        self.ledger.with(|t| t.route.merge(self.span));
    }
}

/// `Collector` wrapper: forwards every hook to `inner`, stamps the host
/// time of each `RoundBarrier`, and catches `QueueWaitCycles` samples in
/// a quantile sketch (the inner histogram only keeps log2 buckets).
#[derive(Debug)]
pub struct Tap<C> {
    /// The wrapped collector, which counts `Counter`s and `Metric`s.
    pub inner: C,
    last_barrier: Instant,
    /// Round barriers seen and the host time between them.
    pub rounds: Span,
    /// Per-round host nanoseconds.
    pub round_ns: Box<CycleSketch>,
    /// Queue-wait samples, cycles.
    pub queue_wait: Box<CycleSketch>,
}

impl<C: Collector> Tap<C> {
    /// Wraps `inner`; the first round is timed from this call.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            last_barrier: Instant::now(),
            rounds: Span::default(),
            round_ns: Box::default(),
            queue_wait: Box::default(),
        }
    }
}

impl<C: Collector> Collector for Tap<C> {
    fn is_enabled(&self) -> bool {
        self.inner.is_enabled()
    }

    fn set_meta(&mut self, meta: SimMeta) {
        self.inner.set_meta(meta);
    }

    fn record(&mut self, ts: Cycles, event: Event) {
        if matches!(event, Event::RoundBarrier { .. }) {
            let now = Instant::now();
            let ns =
                u64::try_from(now.duration_since(self.last_barrier).as_nanos()).unwrap_or(u64::MAX);
            self.last_barrier = now;
            self.rounds.add(ns);
            self.round_ns.record(ns);
        }
        self.inner.record(ts, event);
    }

    fn add(&mut self, counter: Counter, delta: u64) {
        self.inner.add(counter, delta);
    }

    fn sample(&mut self, metric: Metric, value: f64) {
        if metric == Metric::QueueWaitCycles {
            // Waits are whole cycles carried as f64; the cast is exact.
            self.queue_wait.record(value as u64);
        }
        self.inner.sample(metric, value);
    }

    fn observe(&mut self, metric: Metric, cycles: u64) {
        self.inner.observe(metric, cycles);
    }
}
