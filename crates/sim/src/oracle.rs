//! The reference kernel: the production event loop minus its
//! optimisations, retained as the exactness oracle and the performance
//! baseline.
//!
//! It keeps the kernel's event semantics (pop → advance → admit →
//! retire → reschedule → refresh), its `EventQueue` and total event key,
//! and its float operation order, but not what the kernel optimises:
//!
//! * the queue is never compacted — superseded entries sit in the heap
//!   until they pop;
//! * completion validity is a `BTreeMap<u64, usize>` probe, not a
//!   `TenantSlab` lookup (the [`SimState`] slab is kept in sync anyway,
//!   because real policies call [`SimState::index_of_admission`]);
//! * the retire scan runs after every event, not only on cycles that
//!   consumed a valid completion.
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
use crate::queue::{EventKind, EventQueue};
use crate::tenant::TenantState;
use planaria_arch::AcceleratorConfig;
use planaria_energy::EnergyModel;
use planaria_model::units::Cycles;
use planaria_telemetry::Collector;
use planaria_workload::{Completion, Request, SimResult};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// One node's run re-executed on the reference loop: no compaction,
/// `BTreeMap` index, unconditional retire scan. `requests` is a slice or
/// a stream alike. The result is the oracle the kernel is compared
/// against.
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
    let mut queue = EventQueue::default();
    // The baseline's hot lookup: admission number → tenant position
    // through a tree walk. `sim.index` (the slab) is kept in sync purely
    // because policies read it through `SimState::index_of_admission`;
    // every *kernel-side* probe below goes through this map.
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    let em = EnergyModel::for_config(cfg);

    let mut completions: Vec<Completion> = Vec::new();
    let mut pending: Option<Request> = pull();
    let mut next_arrival = 0u64;
    let mut arrival_queued = false;
    let mut busy = Cycles::ZERO;
    let mut origin: Option<Cycles> = None;

    if let Some(r) = &pending {
        queue.push(
            clock.cycles_from_seconds(r.arrival),
            EventKind::Arrival {
                index: next_arrival,
            },
        );
        arrival_queued = true;
    }

    loop {
        // Pop the next valid event; skip stale heap entries. Same-cycle
        // coalescing exactly as the hot kernel does it.
        let t_next = loop {
            let Some((at, kind)) = queue.pop() else {
                break None;
            };
            let valid = match kind {
                EventKind::Arrival { index } => index == next_arrival,
                EventKind::Completion { tenant, epoch } => index
                    .get(&tenant)
                    .is_some_and(|&i| sim.tenants[i].epoch == epoch),
            };
            if valid {
                while queue.next_at() == Some(at) {
                    let _ = queue.pop();
                }
                break Some(at);
            }
        };
        let Some(t_next) = t_next else {
            break;
        };

        let dt = t_next.saturating_sub(sim.now);
        let mut any_allocated = false;
        for t in &mut sim.tenants {
            if t.alloc > 0 {
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
                if !arrival_queued {
                    queue.push(
                        at,
                        EventKind::Arrival {
                            index: next_arrival,
                        },
                    );
                    arrival_queued = true;
                }
                break;
            }
            if origin.is_none() {
                origin = Some(at);
            }
            let compiled = policy.compiled_for(&req);
            let deadline = clock.cycles_from_seconds(req.deadline());
            index.insert(next_arrival, sim.tenants.len());
            sim.index.insert(next_arrival, sim.tenants.len());
            sim.tenants.push(TenantState::new(
                next_arrival,
                req,
                compiled,
                policy.admit_subarrays(),
                at,
                deadline,
                sim.now,
            ));
            next_arrival += 1;
            arrival_queued = false;
            pending = pull();
        }

        let mut i = 0;
        while i < sim.tenants.len() {
            if sim.tenants[i].is_done() {
                let t = sim.tenants.swap_remove(i);
                index.remove(&t.admission());
                sim.index.remove(t.admission());
                if let Some(moved) = sim.tenants.get(i) {
                    index.insert(moved.admission(), i);
                    sim.index.insert(moved.admission(), i);
                }
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

        for t in &mut sim.tenants {
            let target = if t.alloc > 0 {
                Some(sim.now + t.remaining())
            } else {
                None
            };
            if target != t.scheduled_completion {
                t.scheduled_completion = target;
                t.epoch = t.epoch.wrapping_add(1);
                if let Some(at) = target {
                    queue.push(
                        at,
                        EventKind::Completion {
                            tenant: t.admission(),
                            epoch: t.epoch,
                        },
                    );
                }
            }
        }
    }

    debug_assert!(
        pending.is_none() && sim.tenants.is_empty(),
        "oracle finalized with work outstanding"
    );
    let active = sim.now.saturating_sub(origin.unwrap_or(Cycles::ZERO));
    SimResult::from_completions(
        completions,
        em.static_energy(clock.span_seconds(busy)),
        clock.span_seconds(active),
    )
}
