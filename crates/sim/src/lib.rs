//! `planaria-sim`: the deterministic integer-cycle discrete-event kernel
//! shared by the Planaria and PREMA engines.
//!
//! The paper's scheduler is event-triggered — task arrival and task
//! completion (§V). Both engines used to hand-roll that event loop in
//! float seconds, duplicating tenant state, arrival dequeue, completion
//! scans and `seconds × freq → round()` conversions. This crate factors
//! the loop out once and owns time as integer
//! [`Cycles`](planaria_model::units::Cycles) end-to-end:
//!
//! - The wake-up rule: a node wakes at the earlier of its one pending
//!   arrival and the first finish among tenants holding subarrays. No
//!   event queue is kept; both cycles are exact integers, so the order
//!   of events is total.
//! - [`TenantState`]: the shared per-request record (work accounting in
//!   exact cycles, reconfiguration overhead owed, accrued energy,
//!   queue/slice timestamps, and the ring placement that is the one
//!   record of the subarrays it holds).
//! - [`SimClock`]: the *only* place seconds and cycles meet. Engines and
//!   the kernel never do float time arithmetic; conversion happens once
//!   at the trace/`SimResult` boundary (enforced by the `planaria-checks`
//!   time-domain lint, which allowlists exactly `clock.rs`), where one
//!   adapter checks each request of a run and converts its arrival and
//!   deadline to cycles once.
//! - The event loop as a resumable per-node kernel. Engines plug in as
//!   [`EnginePolicy`] implementations that keep only their scheduling
//!   decision logic.
//!
//! Three public functions run it, each taking a slice or a stream of
//! requests alike:
//!
//! - [`run_streamed_sink`]: one node over a request stream, retiring
//!   into any [`CompletionSink`](planaria_workload::CompletionSink). The
//!   engines' `run` is this function with a
//!   [`VecSink`](planaria_workload::VecSink).
//! - [`run_fabric_with`]: the epoch-synchronized multi-node drive that
//!   fans a cluster of kernels out across cores behind an online
//!   [`Dispatcher`], keeping every completion — bit-deterministic at
//!   any worker count. `planaria_core::Fleet` runs on it.
//! - [`run_fabric_summary`]: the same fabric at flat memory, keeping
//!   aggregate tallies only ([`NodeSummary`]s folded in node order).
//!
//! [`oracle::run_streamed_reference`] re-runs one node on the algorithm
//! the kernel replaced (a lazily invalidated binary heap of completion
//! estimates, an unconditional retire scan); it is the kernel's
//! exactness oracle.
//!
//! Completion detection is exact — a tenant is done when its integer
//! work counter reaches the table total and its overhead is burned; no
//! `DONE_EPS`-style float tolerance. The kernel already visits every
//! awake tenant twice per event (to advance work and to refresh after
//! the policy decides), so the next completion is one `min` in the
//! refresh pass: a heap of estimates would add O(log T) pushes per
//! changed tenant on top of that O(T) walk, and save nothing.
//!
//! A policy may put queued tenants it can answer without walking them to
//! sleep: park them ([`SimState::park`], indexed by priority) or let them
//! wait ([`SimState::wait`], indexed by deadline). Planaria parks those
//! queued past their deadline and lets the rest wait. Sleeping tenants
//! hold no subarrays and their work is frozen, so every kernel pass walks
//! only the awake tenants, and the backlog a dispatcher reads counts the
//! sleeping ones through one maintained sum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fabric;
mod kernel;
pub mod oracle;
mod tenant;

pub use clock::SimClock;
pub use fabric::{
    run_fabric_summary, run_fabric_with, Dispatcher, FabricStats, FabricTuning, NodeLoad,
};
pub use kernel::{run_streamed_sink, EnginePolicy, NodeSummary, SimState};
pub use tenant::{FloorEntry, TenantState};
