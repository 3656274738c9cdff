//! The reference kernel: the production event loop's semantics on the
//! algorithm the kernel replaced, retained as the exactness oracle and
//! the performance baseline.
//!
//! It keeps the kernel's event semantics (wake → advance → admit →
//! retire → reschedule → refresh) and its float operation order, but
//! finds wake-ups a different way:
//!
//! * a private binary heap of `(cycle, wake)` entries: one arrival
//!   entry per admission number, and one completion entry per change of
//!   a tenant's estimate;
//! * superseded estimates are invalidated lazily by per-tenant epochs,
//!   kept in the oracle's own `Vec` indexed by admission number (dense
//!   from 0), and skipped when they pop; retirement bumps the epoch so a
//!   retired tenant's entries stay invalid; the heap is never compacted;
//! * the retire scan runs after every event, not only on cycles where a
//!   completion was due;
//! * every pass walks every tenant, parked or not. Admission and
//!   retirement still go through [`SimState`], so the positions a policy
//!   parks stay keyed.
//!
//! The production kernel instead wakes at the earlier of the pending
//! arrival and the minimum `now + remaining` over running tenants, so
//! the two lanes agree only if that minimum is exactly the heap's next
//! valid entry.
//!
//! [`run_streamed_reference`] mirrors
//! [`run_streamed_sink`](crate::run_streamed_sink) with a
//! [`VecSink`](planaria_workload::VecSink), and takes the same request
//! parameter as the engines' `run` (a slice or a stream). The
//! equivalence suite (`tests/kernel_equivalence.rs` at the workspace
//! root) pins engine `run == run_streamed_reference`
//! result-byte-for-byte across workloads, and `benches/kernel.rs` races
//! the two for `results/BENCH_kernel.json`. Both sides drive the same
//! production policy, so the comparison isolates the kernel; this is the
//! kernel layer's one oracle entry point (the scheduler's oracle is
//! `planaria-core`'s full-rescan mode).
//!
//! Telemetry caveat: the oracle forwards the collector to the policy but
//! emits no kernel-side events of its own, so comparisons run with
//! [`NullCollector`](planaria_telemetry::NullCollector)-class collectors
//! (results are collector-independent; the telemetry suite pins that
//! separately).

use crate::clock::SimClock;
use crate::kernel::{EnginePolicy, SimState};
use crate::tenant::TenantState;
use planaria_arch::AcceleratorConfig;
use planaria_energy::EnergyModel;
use planaria_model::units::Cycles;
use planaria_telemetry::Collector;
use planaria_workload::{Completion, Request, SimResult};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What can wake the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Wake {
    /// The node's `index`-th arrival becomes visible to the scheduler.
    Arrival {
        /// The admission number the arrival will get.
        index: u64,
    },
    /// A tenant's completion estimate matured. Valid only while the
    /// tenant is live and `epoch` is still its current one.
    Completion {
        /// Admission number of the tenant (not its request id).
        tenant: u64,
        /// Estimate generation this entry belongs to.
        epoch: u64,
    },
}

/// The last completion estimate the oracle pushed for one admitted tenant.
#[derive(Debug, Clone, Copy, Default)]
struct Estimate {
    /// Generation, bumped whenever `at` changes and on retirement.
    epoch: u64,
    /// The pushed completion cycle; `None` while the tenant holds no
    /// subarrays.
    at: Option<Cycles>,
}

/// One node's run re-executed on the reference loop: lazily invalidated
/// heap, admission-indexed estimates, unconditional retire scan.
/// `requests` is a slice or a stream alike. The result is the oracle the
/// kernel is compared against.
///
/// # Panics
///
/// Panics if the source yields arrivals out of order, or an arrival the
/// clock cannot represent ([`SimClock::check_arrival`]).
pub fn run_streamed_reference<P, C, I>(
    cfg: &AcceleratorConfig,
    requests: I,
    policy: &mut P,
    c: &mut C,
) -> SimResult
where
    P: EnginePolicy,
    C: Collector,
    I: IntoIterator,
    I::Item: Borrow<Request>,
{
    let mut source = requests.into_iter().map(|r| *r.borrow());
    let mut head: Option<Request> = source.next();
    let clock = SimClock::new(head.map_or(0.0, |r| r.arrival), cfg.freq_hz);
    // Pulls the next request, checking its arrival as the kernel's pull does.
    let mut last_arrival = f64::NEG_INFINITY;
    let mut pull = move || {
        let next = head.take().or_else(|| source.next());
        if let Some(r) = &next {
            assert!(
                r.arrival >= last_arrival,
                "trace must be sorted by arrival time"
            );
            clock.check_arrival(r);
            last_arrival = r.arrival;
        }
        next
    };

    let mut sim = SimState::new_for(*cfg, clock);
    let mut queue: BinaryHeap<Reverse<(Cycles, Wake)>> = BinaryHeap::new();
    // Indexed by admission number; an entry outlives its tenant.
    let mut estimates: Vec<Estimate> = Vec::new();
    let em = EnergyModel::for_config(cfg);

    let mut completions: Vec<Completion> = Vec::new();
    let mut pending: Option<Request> = pull();
    let mut next_arrival = 0u64;
    // Whether the pending arrival's wake-up is already in the heap.
    let mut arrival_pushed = false;
    let mut busy = Cycles::ZERO;
    let mut origin: Option<Cycles> = None;

    if let Some(r) = &pending {
        queue.push(Reverse((
            clock.cycles_from_seconds(r.arrival),
            Wake::Arrival {
                index: next_arrival,
            },
        )));
        arrival_pushed = true;
    }

    loop {
        // Pop the next valid entry, skipping superseded ones, then drain
        // every other entry at the same cycle: events are pure wake-ups.
        let t_next = loop {
            let Some(Reverse((at, wake))) = queue.pop() else {
                break None;
            };
            let valid = match wake {
                Wake::Arrival { index } => index == next_arrival,
                Wake::Completion { tenant, epoch } => estimates[tenant as usize].epoch == epoch,
            };
            if valid {
                while queue.peek().is_some_and(|Reverse((next, _))| *next == at) {
                    queue.pop();
                }
                break Some(at);
            }
        };
        let Some(t_next) = t_next else {
            break;
        };

        let dt = t_next.saturating_sub(sim.now);
        let mut any_allocated = false;
        for t in sim.tenants_mut() {
            if t.placement.is_some() {
                any_allocated = true;
                t.advance(dt);
            }
        }
        if any_allocated {
            busy += dt;
        }
        sim.now = t_next;

        while let Some(req) = pending {
            let at = clock.cycles_from_seconds(req.arrival);
            if at > sim.now {
                if !arrival_pushed {
                    queue.push(Reverse((
                        at,
                        Wake::Arrival {
                            index: next_arrival,
                        },
                    )));
                    arrival_pushed = true;
                }
                break;
            }
            if origin.is_none() {
                origin = Some(at);
            }
            let compiled = policy.compiled_for(&req);
            let deadline = clock.cycles_from_seconds(req.deadline());
            sim.admit(TenantState::new(
                next_arrival,
                req,
                compiled,
                policy.admit_subarrays(),
                at,
                deadline,
                sim.now,
            ));
            estimates.push(Estimate::default());
            next_arrival += 1;
            arrival_pushed = false;
            pending = pull();
        }

        let mut i = 0;
        while i < sim.tenants().len() {
            if sim.tenants()[i].is_done() {
                let t = sim.retire(i);
                let e = &mut estimates[t.admission() as usize];
                e.epoch = e.epoch.wrapping_add(1);
                completions.push(Completion {
                    request: t.request,
                    finish: clock.to_seconds(sim.now),
                    energy: t.energy,
                });
            } else {
                i += 1;
            }
        }

        policy.reschedule(&mut sim, c);

        // Push a fresh completion entry for every tenant whose estimate
        // moved; the epoch bump supersedes its previous entry.
        for t in sim.tenants() {
            let target = if t.placement.is_some() {
                Some(sim.now + t.remaining())
            } else {
                None
            };
            let e = &mut estimates[t.admission() as usize];
            if target != e.at {
                e.at = target;
                e.epoch = e.epoch.wrapping_add(1);
                if let Some(at) = target {
                    queue.push(Reverse((
                        at,
                        Wake::Completion {
                            tenant: t.admission(),
                            epoch: e.epoch,
                        },
                    )));
                }
            }
        }
    }

    debug_assert!(
        pending.is_none() && sim.tenants().is_empty(),
        "oracle finalized with work outstanding"
    );
    let active = sim.now.saturating_sub(origin.unwrap_or(Cycles::ZERO));
    SimResult::from_completions(
        completions,
        em.static_energy(clock.span_seconds(busy)),
        clock.span_seconds(active),
    )
}
