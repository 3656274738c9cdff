//! The shared per-request record.

use crate::clock::Arrival;
use planaria_arch::Allocation;
use planaria_compiler::CompiledDnn;
use planaria_model::units::{Cycles, Picojoules};
use planaria_workload::Request;
use std::sync::Arc;

/// The Planaria policy's `ESTIMATERESOURCES` memo for one tenant: the
/// last scan's answer and the work counters it was taken at.
///
/// While `done` and `total` still equal the tenant's counters (the memo
/// is *clean*), every table prediction is unchanged, so `floor` is a
/// proven lower bound for the next scan and `fit` is still the predicted
/// remaining cycles at `floor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloorEntry {
    /// The estimate the last scan returned.
    pub floor: u32,
    /// `work_done` when the scan ran.
    pub done: Cycles,
    /// `work_total` when the scan ran.
    pub total: Cycles,
    /// Predicted remaining cycles at `floor` when the scan ran.
    pub fit: Cycles,
}

/// One live request inside the kernel: work accounting in exact integer
/// cycles plus the bookkeeping both engines share.
///
/// Progress is `work_done / work_total` cycles under the *current*
/// configuration table; switching tables rescales `work_done` so the
/// completed work **fraction** is preserved (the paper's tables report
/// whole-network latency per subarray count, so fraction is the
/// table-independent quantity).
#[derive(Debug, Clone)]
pub struct TenantState {
    /// The request being served.
    pub request: Request,
    /// Its compiled configuration tables (shared with the library).
    pub compiled: Arc<CompiledDnn>,
    /// Arrival, in kernel cycles since the run origin.
    pub arrival_cycle: Cycles,
    /// QoS deadline, in kernel cycles since the run origin.
    pub deadline_cycle: Cycles,
    /// The ring segment the tenant holds, `None` while it is queued: the
    /// one record of its subarrays ([`alloc`](Self::alloc) is its length,
    /// [`Allocation::mask`] its telemetry bitmask).
    pub placement: Option<Allocation>,
    /// Work completed under the current table, cycles.
    pub work_done: Cycles,
    /// Total work of the current table, cycles.
    pub work_total: Cycles,
    /// Dynamic energy of the whole network under the current table.
    pub table_energy: Picojoules,
    /// Reconfiguration overhead owed before progress resumes.
    pub overhead: Cycles,
    /// Dynamic energy accrued so far.
    pub energy: Picojoules,
    /// When the current queue wait began: telemetry's queue intervals,
    /// and the start of PREMA's token accrual.
    pub queued_since: Cycles,
    /// When the current execution slice began (telemetry only).
    pub slice_start: Cycles,
    /// The Planaria policy's estimate memo, `None` until its first scan.
    /// It lives on the record, so it moves with the tenant through
    /// `swap_remove` retirement and dies with it. PREMA ignores it.
    pub memo: Option<FloorEntry>,
    /// The PREMA policy's tokens as banked at the tenant's last grant,
    /// zero at admission. While queued it has earned `priority × (now −
    /// queued_since)` more, which the policy adds when it reads them. Like
    /// `memo`, they move with the tenant and die with it. Planaria
    /// ignores them.
    pub tokens: u64,
    /// The node's admission counter at admission (see
    /// [`admission`](Self::admission)).
    admission: u64,
}

impl TenantState {
    /// A freshly admitted tenant at time `now`, the node's `admission`-th,
    /// seeded with the table for `admit_subarrays` granules (any table is
    /// exact here — zero completed work rescales to zero).
    pub(crate) fn new(
        admission: u64,
        arrival: Arrival,
        compiled: Arc<CompiledDnn>,
        admit_subarrays: u32,
        now: Cycles,
    ) -> Self {
        let (work_total, table_energy) = compiled.totals(admit_subarrays);
        Self {
            request: arrival.request,
            compiled,
            arrival_cycle: arrival.at,
            deadline_cycle: arrival.deadline,
            placement: None,
            work_done: Cycles::ZERO,
            work_total,
            table_energy,
            overhead: Cycles::ZERO,
            energy: Picojoules::ZERO,
            queued_since: now,
            slice_start: now,
            memo: None,
            tokens: 0,
            admission,
        }
    }

    /// How many tenants this node admitted before this one. Unlike the
    /// request id, which the trace chooses, it is dense and increasing,
    /// so the oracle kernel keys its completion estimates by it.
    pub(crate) fn admission(&self) -> u64 {
        self.admission
    }

    /// Subarrays held: the placement's length, 0 while queued.
    #[inline]
    pub fn alloc(&self) -> u32 {
        self.placement.map_or(0, |p| p.len())
    }

    /// Completed work fraction ∈ [0, 1].
    pub fn fraction_done(&self) -> f64 {
        if self.work_total.is_zero() {
            1.0
        } else {
            self.work_done.as_f64() / self.work_total.as_f64()
        }
    }

    /// Cycles until completion at the current allocation (overhead owed
    /// plus outstanding table work).
    pub fn remaining(&self) -> Cycles {
        self.overhead + self.work_total.saturating_sub(self.work_done)
    }

    /// Exact completion test: all work done and all overhead burned. No
    /// float epsilon — `work_done` reaches `work_total` by integer
    /// arithmetic.
    pub fn is_done(&self) -> bool {
        self.overhead.is_zero() && self.work_done >= self.work_total
    }

    /// Consumes `cycles` of execution: overhead burns first, then table
    /// progress accrues (with pro-rata dynamic energy).
    #[inline]
    pub(crate) fn advance(&mut self, mut cycles: Cycles) {
        if !self.overhead.is_zero() {
            let burn = self.overhead.min(cycles);
            self.overhead -= burn;
            cycles -= burn;
        }
        if cycles.is_zero() {
            return;
        }
        let before = self.work_done;
        self.work_done = (self.work_done + cycles).min(self.work_total);
        let delta = self.work_done.saturating_sub(before);
        if !delta.is_zero() {
            self.energy += (delta.as_f64() / self.work_total.as_f64()) * self.table_energy;
        }
    }

    /// Switches to a configuration table of `total` cycles and `energy`
    /// whole-network dynamic energy.
    ///
    /// The completed work *fraction* is preserved via exact `u128`
    /// integer rescaling (truncating, mirroring the table's own
    /// `remaining_cycles` quantisation). When the total is unchanged the
    /// work counters are untouched, so single-table engines (the
    /// monolithic PREMA baseline) stay drift-free across preemptions.
    pub fn switch_table(&mut self, total: Cycles, energy: Picojoules) {
        if total != self.work_total {
            let scaled = if self.work_total.is_zero() {
                0u128
            } else {
                u128::from(self.work_done.get()) * u128::from(total.get())
                    / u128::from(self.work_total.get())
            };
            self.work_done = Cycles::new(u64::try_from(scaled).unwrap_or(u64::MAX));
            self.work_total = total;
        }
        self.table_energy = energy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_arch::AcceleratorConfig;

    fn demo_tenant(total: u64, energy: f64) -> TenantState {
        let compiled = Arc::new(planaria_compiler::compile(
            &AcceleratorConfig::planaria(),
            &planaria_model::DnnId::TinyYolo.build(),
        ));
        let request = Request {
            id: 0,
            dnn: planaria_model::DnnId::TinyYolo,
            arrival: 0.0,
            priority: 5,
            qos: 1.0,
        };
        let arrival = Arrival {
            request,
            at: Cycles::ZERO,
            deadline: Cycles::new(1000),
        };
        let mut t = TenantState::new(0, arrival, compiled, 1, Cycles::ZERO);
        t.work_total = Cycles::new(total);
        t.table_energy = Picojoules::from_joules(energy);
        t
    }

    #[test]
    fn advance_burns_overhead_before_progress() {
        let mut t = demo_tenant(100, 1.0);
        t.overhead = Cycles::new(30);
        t.advance(Cycles::new(50));
        assert_eq!(t.overhead, Cycles::ZERO);
        assert_eq!(t.work_done, Cycles::new(20));
        assert_eq!(t.remaining(), Cycles::new(80));
        assert!(!t.is_done());
        t.advance(Cycles::new(200));
        assert!(t.is_done());
        assert_eq!(t.work_done, Cycles::new(100));
        assert!((t.energy.to_joules() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn switch_table_preserves_fraction_exactly() {
        let mut t = demo_tenant(1000, 1.0);
        t.advance(Cycles::new(250));
        assert!((t.fraction_done() - 0.25).abs() < 1e-12);
        t.switch_table(Cycles::new(400), Picojoules::from_joules(2.0));
        assert_eq!(t.work_done, Cycles::new(100));
        assert_eq!(t.work_total, Cycles::new(400));
        assert!((t.fraction_done() - 0.25).abs() < 1e-12);
        // Same-total switch is a no-op on the counters.
        t.switch_table(Cycles::new(400), Picojoules::from_joules(3.0));
        assert_eq!(t.work_done, Cycles::new(100));
    }
}
