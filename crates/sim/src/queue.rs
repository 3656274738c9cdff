//! The kernel's event queue: one binary min-heap over a totally ordered
//! key, with a stale-entry ledger and compaction.
//!
//! Entries are keyed `(Cycles, EventKind, seq)`. The key is a total
//! order — the push sequence number breaks ties even between identical
//! events, FIFO — so pop order never depends on the heap's layout or on
//! insertion order.
//!
//! # Stale accounting and compaction
//!
//! The queue cannot know which completion estimates are superseded — the
//! kernel owns the epoch — so the kernel *tells* it: [`note_stale`] when
//! a live in-heap entry becomes superseded, [`note_stale_consumed`] when
//! an invalid entry is popped or drained. When the stale population
//! passes half the queue ([`should_compact`]), the kernel calls
//! [`compact`] with its validity predicate and the queue drops every
//! dead entry in one sweep, so resident size is `O(live events)` instead
//! of `O(all estimates ever pushed)`. Compaction is sound because
//! invalidity is *permanent* (epochs only grow, retired tenants never
//! return, the arrival cursor only advances): a removed entry is exactly
//! one the pop path would have skipped.
//!
//! [`note_stale`]: EventQueue::note_stale
//! [`note_stale_consumed`]: EventQueue::note_stale_consumed
//! [`should_compact`]: EventQueue::should_compact
//! [`compact`]: EventQueue::compact

use planaria_model::units::Cycles;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What can wake the kernel.
///
/// The derived ordering is part of the determinism contract: at the same
/// cycle, arrivals process before completions (matching the combined
/// single-iteration semantics of the pre-kernel engines — a request that
/// arrives exactly when another finishes sees the event in one pass),
/// and the payload fields break remaining ties so distinct events always
/// compare unequal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum EventKind {
    /// The node's `index`-th arrival becomes visible to the scheduler.
    Arrival {
        /// The admission number the arrival will get.
        index: u64,
    },
    /// A tenant's completion estimate matured. Valid only while the
    /// tenant is live *and* its epoch still matches — superseded
    /// estimates are left in the queue and skipped on pop (or removed
    /// wholesale by [`EventQueue::compact`]).
    Completion {
        /// Admission number of the tenant (not its request id).
        tenant: u64,
        /// Estimate generation this entry belongs to.
        epoch: u64,
    },
}

/// Queues smaller than this never compact: the sweep costs more than
/// the stale entries do.
const COMPACT_MIN_LEN: usize = 256;

/// Min-queue of `(Cycles, EventKind, seq)` with a stale-entry ledger.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<(Cycles, EventKind, u64)>>,
    /// In-queue entries the kernel has declared superseded.
    stale: usize,
    /// Next push sequence number.
    seq: u64,
}

impl EventQueue {
    /// Schedules `kind` at cycle `at`.
    pub(crate) fn push(&mut self, at: Cycles, kind: EventKind) {
        self.heap.push(Reverse((at, kind, self.seq)));
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(Cycles, EventKind)> {
        self.heap.pop().map(|Reverse((at, kind, _))| (at, kind))
    }

    /// The cycle of the earliest pending event, without removing it.
    ///
    /// Used by the kernel's same-cycle coalescing: once it has decided to
    /// wake at cycle `t`, every remaining event at `t` is drained in the
    /// same pass so the policy reschedules exactly once per distinct
    /// timestamp.
    pub(crate) fn next_at(&self) -> Option<Cycles> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Number of pending entries (including stale ones).
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Records that one in-queue entry just became superseded (the
    /// kernel bumped an epoch, or retired a tenant, while the entry is
    /// still queued).
    pub(crate) fn note_stale(&mut self) {
        self.stale += 1;
        debug_assert!(
            self.stale <= self.len(),
            "stale count {} exceeds queue length {}",
            self.stale,
            self.len()
        );
    }

    /// Records that one superseded entry just left the queue (skipped by
    /// the pop path or drained by same-cycle coalescing).
    pub(crate) fn note_stale_consumed(&mut self) {
        debug_assert!(self.stale > 0, "stale count underflow");
        self.stale = self.stale.saturating_sub(1);
    }

    /// Whether the stale population justifies a [`compact`] sweep: more
    /// than half the queue is dead and the queue is big enough for the
    /// sweep to pay for itself.
    ///
    /// [`compact`]: EventQueue::compact
    pub(crate) fn should_compact(&self) -> bool {
        self.len() >= COMPACT_MIN_LEN && self.stale * 2 > self.len()
    }

    /// Drops every entry `keep` rejects, in one sweep, and resets the
    /// stale count.
    ///
    /// Sound whenever `keep` rejects exactly the entries the pop path
    /// would skip *and* rejection is permanent (true for the kernel:
    /// epochs only grow, retired ids never return, the arrival cursor
    /// only advances) — then removal cannot change the sequence of valid
    /// pops. The caller's stale accounting must agree with the predicate;
    /// this is debug-asserted.
    pub(crate) fn compact<F: FnMut(&EventKind) -> bool>(&mut self, mut keep: F) {
        let before = self.len();
        self.heap.retain(|Reverse((_, kind, _))| keep(kind));
        let removed = before - self.len();
        debug_assert_eq!(
            removed, self.stale,
            "compaction disagrees with the stale ledger"
        );
        self.stale = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_model::SplitMix64;

    #[test]
    fn pops_in_time_order_with_arrivals_first() {
        let mut q = EventQueue::default();
        q.push(
            Cycles::new(5),
            EventKind::Completion {
                tenant: 1,
                epoch: 0,
            },
        );
        q.push(Cycles::new(5), EventKind::Arrival { index: 0 });
        q.push(Cycles::new(2), EventKind::Arrival { index: 1 });
        assert_eq!(
            q.pop(),
            Some((Cycles::new(2), EventKind::Arrival { index: 1 }))
        );
        assert_eq!(
            q.pop(),
            Some((Cycles::new(5), EventKind::Arrival { index: 0 }))
        );
        assert_eq!(
            q.pop(),
            Some((
                Cycles::new(5),
                EventKind::Completion {
                    tenant: 1,
                    epoch: 0
                }
            ))
        );
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_completions_order_by_tenant_then_epoch() {
        let mut q = EventQueue::default();
        for (tenant, epoch) in [(9u64, 1u64), (3, 7), (3, 2)] {
            q.push(Cycles::new(4), EventKind::Completion { tenant, epoch });
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
        assert_eq!(
            order,
            vec![
                EventKind::Completion {
                    tenant: 3,
                    epoch: 2
                },
                EventKind::Completion {
                    tenant: 3,
                    epoch: 7
                },
                EventKind::Completion {
                    tenant: 9,
                    epoch: 1
                },
            ]
        );
    }

    #[test]
    fn next_at_peeks_without_removing() {
        let mut q = EventQueue::default();
        assert_eq!(q.next_at(), None);
        q.push(Cycles::new(9), EventKind::Arrival { index: 1 });
        q.push(Cycles::new(4), EventKind::Arrival { index: 0 });
        assert_eq!(q.next_at(), Some(Cycles::new(4)));
        assert_eq!(q.len(), 2);
        let _ = q.pop();
        assert_eq!(q.next_at(), Some(Cycles::new(9)));
    }

    #[test]
    fn len_counts_pending_entries() {
        let mut q = EventQueue::default();
        assert_eq!(q.len(), 0);
        q.push(Cycles::ZERO, EventKind::Arrival { index: 0 });
        q.push(Cycles::ZERO, EventKind::Arrival { index: 0 });
        assert_eq!(q.len(), 2);
        let _ = q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn duplicate_keys_pop_fifo() {
        // Identical cycles and tenants come out in push order: the
        // sequence number, not the heap layout, breaks the tie.
        let mut q = EventQueue::default();
        let far = Cycles::new(1 << 30);
        for epoch in 0..3 {
            q.push(far, EventKind::Completion { tenant: 1, epoch });
        }
        for epoch in 0..3 {
            assert_eq!(
                q.pop(),
                Some((far, EventKind::Completion { tenant: 1, epoch }))
            );
        }
    }

    /// The heap yields a total event order that is independent of
    /// insertion order: `(cycle, kind, seq)` keys sort by time first,
    /// arrivals before completions at the same cycle, and payload
    /// tie-breaks make equal-time events deterministic.
    #[test]
    fn event_queue_order_is_insertion_independent() {
        let mut rng = SplitMix64::new(0xeeee_5eed);
        for case in 0..64 {
            let n = rng.next_range(2, 64) as usize;
            let mut events: Vec<(Cycles, EventKind)> = (0..n)
                .map(|_| {
                    let at = Cycles::new(rng.next_below(50));
                    let kind = if rng.next_bool(0.3) {
                        EventKind::Arrival {
                            index: rng.next_below(8),
                        }
                    } else {
                        EventKind::Completion {
                            tenant: rng.next_below(8),
                            epoch: rng.next_below(4),
                        }
                    };
                    (at, kind)
                })
                .collect();
            let drain = |evs: &[(Cycles, EventKind)]| {
                let mut q = EventQueue::default();
                for &(at, kind) in evs {
                    q.push(at, kind);
                }
                std::iter::from_fn(|| q.pop()).collect::<Vec<_>>()
            };
            let reference = drain(&events);
            // Times never decrease; arrivals precede completions at a cycle.
            for w in reference.windows(2) {
                assert!(w[0].0 <= w[1].0, "case {case}: time went backwards");
                if w[0].0 == w[1].0 {
                    let rank = |k: &EventKind| match k {
                        EventKind::Arrival { .. } => 0,
                        EventKind::Completion { .. } => 1,
                    };
                    assert!(
                        rank(&w[0].1) <= rank(&w[1].1),
                        "case {case}: completion popped before same-cycle arrival"
                    );
                }
            }
            // Fisher–Yates shuffles: every permutation drains identically.
            for _ in 0..4 {
                for i in (1..events.len()).rev() {
                    let j = rng.next_below(i as u64 + 1) as usize;
                    events.swap(i, j);
                }
                assert_eq!(
                    drain(&events),
                    reference,
                    "case {case}: drain order depends on insertion order"
                );
            }
        }
    }

    #[test]
    fn stale_accounting_and_compaction() {
        let mut q = EventQueue::default();
        // 300 entries for tenants 0..300, epoch 0; then supersede the
        // first 200 (epoch bumped to 1 elsewhere — here we just account).
        for t in 0..300u64 {
            q.push(
                Cycles::new(1000 + t),
                EventKind::Completion {
                    tenant: t,
                    epoch: 0,
                },
            );
        }
        for _ in 0..200 {
            q.note_stale();
        }
        assert_eq!(q.len(), 300);
        assert_eq!(q.stale, 200);
        assert!(q.should_compact());
        q.compact(|kind| match kind {
            EventKind::Completion { tenant, .. } => *tenant >= 200,
            EventKind::Arrival { .. } => true,
        });
        assert_eq!(q.len(), 100);
        assert_eq!(q.stale, 0);
        assert!(!q.should_compact());
        // Survivors still pop in exact key order.
        let mut prev = None;
        while let Some((at, kind)) = q.pop() {
            let EventKind::Completion { tenant, .. } = kind else {
                panic!("only completions were pushed");
            };
            assert!(tenant >= 200);
            if let Some(p) = prev {
                assert!(at > p);
            }
            prev = Some(at);
        }
    }

    #[test]
    fn small_queues_do_not_compact() {
        let mut q = EventQueue::default();
        for t in 0..10u64 {
            q.push(
                Cycles::new(t),
                EventKind::Completion {
                    tenant: t,
                    epoch: 0,
                },
            );
            q.note_stale();
        }
        // All stale, but far below COMPACT_MIN_LEN: not worth a sweep.
        assert!(!q.should_compact());
    }

    #[test]
    fn compaction_trips_only_past_the_threshold_and_drops_exactly_the_stale() {
        let mut q = EventQueue::default();
        // 512 completion entries, half of which will be superseded.
        for tenant in 0..512u64 {
            q.push(
                Cycles::new(1_000 + tenant),
                EventKind::Completion { tenant, epoch: 0 },
            );
        }
        assert_eq!(q.len(), 512);
        assert_eq!(q.stale, 0);
        assert!(!q.should_compact(), "nothing stale yet");

        // Mark the odd tenants superseded. The threshold is strictly more
        // than half the queue, so exactly half must not trip it.
        for _ in 0..256 {
            q.note_stale();
        }
        assert_eq!(q.stale, 256);
        assert!(!q.should_compact(), "stale*2 == len is below the trigger");
        // A superseded arrival joins the stale population: 257 dead of 513
        // entries, strictly past half.
        q.push(Cycles::new(9_999), EventKind::Arrival { index: 1 });
        q.note_stale();
        assert!(q.should_compact());

        // Compact with "even tenants live, the arrival superseded" (256
        // completions survive; 257 entries removed == the stale count).
        q.compact(|kind| match kind {
            EventKind::Arrival { .. } => false,
            EventKind::Completion { tenant, .. } => tenant % 2 == 0,
        });
        assert_eq!(q.len(), 256);
        assert_eq!(q.stale, 0);
        assert!(!q.should_compact());

        // Survivors still pop in key order.
        let mut last = Cycles::ZERO;
        let mut popped = 0;
        while let Some((at, kind)) = q.pop() {
            assert!(at >= last);
            last = at;
            if let EventKind::Completion { tenant, .. } = kind {
                assert_eq!(tenant % 2, 0, "a stale entry survived compaction");
            } else {
                panic!("the superseded arrival survived compaction");
            }
            popped += 1;
        }
        assert_eq!(popped, 256);
    }

    /// Whether `kind` is current under the per-tenant estimate `epoch`s
    /// (arrivals never go stale here).
    fn current(epoch: &[u64], kind: &EventKind) -> bool {
        match *kind {
            EventKind::Arrival { .. } => true,
            EventKind::Completion { tenant, epoch: e } => epoch[tenant as usize] == e,
        }
    }

    /// The kernel's side of the ledger protocol, replayed against a model
    /// heap that keeps superseded entries and skips them on pop, and
    /// models compaction as a plain `retain`.
    struct Model {
        heap: BinaryHeap<Reverse<(Cycles, EventKind, u64)>>,
        seq: u64,
        /// Current estimate epoch per tenant; older entries are stale.
        epoch: Vec<u64>,
        /// Whether the tenant's current-epoch entry is still queued.
        queued: Vec<bool>,
    }

    impl Model {
        fn stale(&self) -> usize {
            let epoch = &self.epoch;
            self.heap
                .iter()
                .filter(|e| !current(epoch, &e.0 .1))
                .count()
        }

        /// Supersedes `tenant`'s estimate, telling the queue when the old
        /// entry is still queued (the kernel's epoch bump).
        fn supersede(&mut self, q: &mut EventQueue, tenant: usize) {
            if self.queued[tenant] {
                q.note_stale();
                self.queued[tenant] = false;
            }
            self.epoch[tenant] += 1;
        }

        fn push(&mut self, q: &mut EventQueue, at: Cycles, kind: EventKind) {
            q.push(at, kind);
            self.heap.push(Reverse((at, kind, self.seq)));
            self.seq += 1;
        }

        /// Re-estimates `tenant`: its old entry goes stale and a fresh
        /// one is pushed under the bumped epoch.
        fn reestimate(&mut self, q: &mut EventQueue, tenant: usize, at: Cycles) {
            self.supersede(q, tenant);
            let epoch = self.epoch[tenant];
            let kind = EventKind::Completion {
                tenant: tenant as u64,
                epoch,
            };
            self.push(q, at, kind);
            self.queued[tenant] = true;
        }

        /// The queue's next valid entry — with the kernel's ledger call
        /// for every superseded entry skipped on the way — and the
        /// model's.
        fn pop(&mut self, q: &mut EventQueue) -> [Option<(Cycles, EventKind)>; 2] {
            let got = loop {
                match q.pop() {
                    Some((_, kind)) if !current(&self.epoch, &kind) => q.note_stale_consumed(),
                    next => break next,
                }
            };
            let want = loop {
                match self.heap.pop() {
                    Some(Reverse((_, kind, _))) if !current(&self.epoch, &kind) => {}
                    next => break next.map(|Reverse((at, kind, _))| (at, kind)),
                }
            };
            if let Some((_, EventKind::Completion { tenant, .. })) = want {
                self.queued[tenant as usize] = false;
            }
            [got, want]
        }

        /// Compacts the queue with the model's validity predicate and
        /// sweeps the model the same way.
        fn compact(&mut self, q: &mut EventQueue) {
            let epoch = &self.epoch;
            q.compact(|kind| current(epoch, kind));
            self.heap.retain(|e| current(epoch, &e.0 .1));
        }
    }

    #[test]
    fn compaction_matches_a_model_heap_over_splitmix_interleavings() {
        const TENANTS: usize = 64;
        let mut threshold_compactions = 0;
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xC0A1 ^ seed);
            let mut q = EventQueue::default();
            let mut m = Model {
                heap: BinaryHeap::new(),
                seq: 0,
                epoch: vec![0; TENANTS],
                queued: vec![false; TENANTS],
            };
            let mut now = 0u64;
            for step in 0..4_000 {
                let tenant = rng.next_below(TENANTS as u64) as usize;
                let at = Cycles::new(
                    now + match rng.next_below(4) {
                        0 => 0,
                        1 => rng.next_below(1 << 16),
                        2 => rng.next_below(1 << 24),
                        _ => rng.next_below(1 << 34),
                    },
                );
                match rng.next_below(200) {
                    0..=19 => {
                        let [got, want] = m.pop(&mut q);
                        assert_eq!(got, want, "seed {seed} step {step}: pop diverged");
                        if let Some((t, _)) = got {
                            now = t.get();
                        }
                    }
                    20..=149 => m.reestimate(&mut q, tenant, at),
                    // Descheduled or retired: stale with no replacement.
                    150..=188 => m.supersede(&mut q, tenant),
                    189..=198 => {
                        let kind = EventKind::Arrival {
                            index: rng.next_below(8),
                        };
                        m.push(&mut q, at, kind);
                    }
                    _ => m.compact(&mut q),
                }
                if q.should_compact() {
                    threshold_compactions += 1;
                    m.compact(&mut q);
                }
                assert_eq!(q.stale, m.stale(), "seed {seed} step {step}: ledger");
                assert_eq!(q.len(), m.heap.len(), "seed {seed} step {step}: length");
                assert_eq!(
                    q.next_at(),
                    m.heap.peek().map(|e| e.0 .0),
                    "seed {seed} step {step}: head"
                );
            }
            loop {
                let [got, want] = m.pop(&mut q);
                assert_eq!(got, want, "seed {seed}: drain diverged");
                if got.is_none() {
                    break;
                }
            }
            assert_eq!((q.len(), q.stale), (0, 0), "seed {seed}: residue");
        }
        assert!(threshold_compactions > 0, "the threshold never tripped");
    }
}
