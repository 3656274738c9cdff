//! Fig. 15 — Total energy to run each multi-tenant workload, both systems
//! at the same arrival rate.
//!
//! Paper shape: Planaria consumes *slightly more* on the traditional
//! Workload-A (multi-tenancy trades individual efficiency for throughput),
//! but wins by 3.3–12.1× on the depthwise-heavy Workloads B/C where the
//! monolithic baseline burns leakage on underutilized runs.
//!
//! Runs on the shared flat work queue: all `cell × system` bisections fan
//! out together, then all `cell × system × seed` energy runs overlap
//! through one pool (see [`planaria_bench::workqueue`]).

use planaria_bench::workqueue::{probe_lambdas, sweep_seed_means};
use planaria_bench::{ResultTable, Systems};

fn main() {
    let sys = Systems::new();
    let seeds: Vec<u64> = (300..306).collect();
    let mut table = ResultTable::new(
        "Fig. 15: workload energy (J), same arrival rate",
        &[
            "workload",
            "qos",
            "lambda",
            "planaria",
            "prema",
            "reduction",
        ],
    );
    let cells = probe_lambdas(&sys);
    let rows = sweep_seed_means(&sys, &cells, &seeds, |_, result| {
        result.total_energy.to_joules()
    });
    for (cell, ep, er) in rows {
        table.row(vec![
            cell.scenario.to_string(),
            cell.qos.to_string(),
            format!("{:.1}", cell.lambda),
            format!("{ep:.2}"),
            format!("{er:.2}"),
            format!("{:.2}x", er / ep),
        ]);
    }
    table.emit("fig15_energy");
}
