//! Shared cross-binary work queue for the seed-sweep experiments.
//!
//! Figs. 14 and 15 share the same expensive shape: per grid cell, two
//! throughput bisections fix the probe rate, then both systems run a
//! sweep of seeds at that rate. The old binaries fanned out per *grid
//! cell* and ran the per-seed sweeps nested — and because the
//! deterministic pool runs nested fan-outs inline, a slow cell (one
//! saturated bisection) serialized its whole seed sweep on one worker
//! while the rest of the pool idled.
//!
//! This module flattens the work instead:
//!
//! 1. [`probe_lambdas`] fans *all* `cell × system` bisections (18 units)
//!    through one `par_map` call and combines them into per-cell probe
//!    rates — one shared implementation of the rate-fixing phase, so the
//!    two binaries cannot drift apart on how λ is chosen.
//! 2. [`sweep_seed_means`] flattens `cell × system × seed` into a single
//!    flat unit list and runs it through one `par_map` pool, so per-seed
//!    cells from *different* grid cells overlap freely. Reduction is a
//!    deterministic in-order chunk mean, so emitted tables are
//!    bit-identical to the nested version at any `PLANARIA_JOBS`.
//!
//! Work units run through the same [`run_planaria`]/[`run_prema`] entry
//! points the other figures use.

use crate::{
    grid, planaria_throughput, prema_throughput, probe_rate, run_planaria, run_prema, Systems,
};
use planaria_parallel::{effective_jobs, par_map};
use planaria_workload::{QosLevel, Scenario, SimResult};

/// Which engine a work unit drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemId {
    /// The Planaria node (fission + Algorithm 1).
    Planaria,
    /// The PREMA baseline node (monolithic + token scheduling).
    Prema,
}

/// One grid cell with its probe rate fixed.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Workload scenario.
    pub scenario: Scenario,
    /// QoS level.
    pub qos: QosLevel,
    /// Shared arrival rate both systems are observed at (geometric mean
    /// of the two capacities, see [`probe_rate`]).
    pub lambda: f64,
}

/// Fixes the probe rate for every grid cell by fanning all
/// `cell × system` throughput bisections through one flat pool.
///
/// Returned cells are in [`grid`] emission order.
pub fn probe_lambdas(sys: &Systems) -> Vec<Cell> {
    let cells = grid();
    let units: Vec<(Scenario, QosLevel, SystemId)> = cells
        .iter()
        .flat_map(|&(s, q)| [(s, q, SystemId::Planaria), (s, q, SystemId::Prema)])
        .collect();
    let capacities = par_map(units, effective_jobs(), |(s, q, id)| match id {
        SystemId::Planaria => planaria_throughput(sys, s, q),
        SystemId::Prema => prema_throughput(sys, s, q),
    });
    cells
        .into_iter()
        .zip(capacities.chunks_exact(2))
        .map(|((scenario, qos), cap)| Cell {
            scenario,
            qos,
            lambda: probe_rate(cap[0], cap[1]),
        })
        .collect()
}

/// Runs `cells × {Planaria, Prema} × seeds` as one flat work queue and
/// reduces each cell to `(planaria_mean, prema_mean)` of `metric`.
///
/// Units are enumerated cell-major, system-middle, seed-minor, and the
/// pool joins results in input-index order, so the in-order chunk means
/// reproduce the nested per-cell sweep bit-for-bit — while letting seeds
/// from different cells overlap on the pool.
pub fn sweep_seed_means<F>(
    sys: &Systems,
    cells: &[Cell],
    seeds: &[u64],
    metric: F,
) -> Vec<(Cell, f64, f64)>
where
    F: Fn(SystemId, &SimResult) -> f64 + Sync,
{
    let units: Vec<(usize, SystemId, u64)> = cells
        .iter()
        .enumerate()
        .flat_map(|(i, _)| {
            [SystemId::Planaria, SystemId::Prema]
                .into_iter()
                .flat_map(move |id| seeds.iter().map(move |&s| (i, id, s)))
        })
        .collect();
    let values = par_map(units, effective_jobs(), |(i, id, seed)| {
        let c = &cells[i];
        let result = match id {
            SystemId::Planaria => run_planaria(sys, c.scenario, c.qos, c.lambda, seed),
            SystemId::Prema => run_prema(sys, c.scenario, c.qos, c.lambda, seed),
        };
        metric(id, &result)
    });
    let n = seeds.len();
    cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let base = i * 2 * n;
            let mean =
                |off: usize| values[base + off..base + off + n].iter().sum::<f64>() / n as f64;
            (*c, mean(0), mean(n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_units_reduce_in_cell_major_order() {
        // Drive the reduction shape without simulations: a metric that
        // encodes (system, seed) lets us check each cell's chunk means
        // come from its own system-ordered seed block.
        let sys = Systems::new();
        let cells = [Cell {
            scenario: Scenario::A,
            qos: QosLevel::Soft,
            lambda: 1.0,
        }];
        let seeds = [5, 6];
        let out = sweep_seed_means(&sys, &cells, &seeds, |id, r| {
            let bias = if id == SystemId::Planaria { 0.0 } else { 1e6 };
            bias + (r.completions.len() as f64)
        });
        assert_eq!(out.len(), 1);
        let (_, p, r) = out[0];
        assert!(p < 1e6, "planaria mean took the prema block: {p}");
        assert!(r >= 1e6, "prema mean took the planaria block: {r}");
    }
}
