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
//! - [`EventQueue`]: a binary-heap event queue keyed
//!   `(Cycles, EventKind, seq)` so pop order is a total order —
//!   independent of insertion order for distinct events, FIFO for
//!   identical ones.
//! - [`TenantState`]: the shared per-request record (work accounting in
//!   exact cycles, reconfiguration overhead owed, accrued energy,
//!   queue/slice timestamps, placement mask).
//! - [`SimClock`]: the *only* place seconds and cycles meet. Engines and
//!   the kernel never do float time arithmetic; conversion happens once
//!   at the trace/`SimResult` boundary (enforced by the `planaria-checks`
//!   time-domain lint, which allowlists exactly `clock.rs`).
//! - [`NodeKernel`]: the event loop as a resumable per-node kernel.
//!   Engines plug in as [`EnginePolicy`] implementations that keep only
//!   their scheduling decision logic.
//!
//! Three public functions run it:
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
//!   aggregate tallies only.
//!
//! [`oracle::run_streamed_reference`] re-runs one node on the
//! pre-overhaul containers; it is the kernel's exactness oracle.
//!
//! Completion detection is exact — a tenant is done when its integer
//! work counter reaches the table total and its overhead is burned; no
//! `DONE_EPS`-style float tolerance. Completion heap entries are
//! invalidated by per-tenant epochs instead of being removed, so a
//! scheduling decision costs O(log T) heap pushes rather than an
//! O(T) min-scan per event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fabric;
mod kernel;
pub mod oracle;
mod queue;
mod slab;
mod tenant;

pub use clock::SimClock;
pub use fabric::{
    run_fabric_summary, run_fabric_with, Dispatcher, FabricStats, FabricSummary, FabricTuning,
    NodeLoad,
};
pub use kernel::{run_streamed_sink, EnginePolicy, NodeKernel, NodeSummary, SimState};
pub use queue::{EventKind, EventQueue};
pub use tenant::{full_mask, subarray_mask, TenantState};
