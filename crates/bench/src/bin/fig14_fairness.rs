//! Fig. 14 — Fairness (PREMA's min-ratio progress metric), Planaria
//! normalized to PREMA, both systems observed at the same arrival rate.
//!
//! Paper headline: 2.1× / 2.3× / 1.9× improvements on Workload-C.
//!
//! Runs on the shared flat work queue: all `cell × system` bisections fan
//! out together, then all `cell × system × seed` fairness runs overlap
//! through one pool (see [`planaria_bench::workqueue`]).

use planaria_bench::workqueue::{probe_lambdas, sweep_seed_means, SystemId};
use planaria_bench::{ResultTable, Systems};
use planaria_workload::fairness;

fn main() {
    let sys = Systems::new();
    let iso_p = sys.planaria.library().isolated_latencies();
    let iso_r = sys.prema.library().isolated_latencies();
    let seeds: Vec<u64> = (200..210).collect();
    let mut table = ResultTable::new(
        "Fig. 14: fairness (min-ratio), normalized to PREMA",
        &[
            "workload",
            "qos",
            "lambda",
            "planaria",
            "prema",
            "normalized",
        ],
    );
    let cells = probe_lambdas(&sys);
    let rows = sweep_seed_means(&sys, &cells, &seeds, |id, result| match id {
        SystemId::Planaria => fairness(&result.completions, &iso_p),
        SystemId::Prema => fairness(&result.completions, &iso_r),
    });
    for (cell, fp, fr) in rows {
        table.row(vec![
            cell.scenario.to_string(),
            cell.qos.to_string(),
            format!("{:.1}", cell.lambda),
            format!("{fp:.4}"),
            format!("{fr:.4}"),
            format!("{:.2}x", fp / fr.max(1e-9)),
        ]);
    }
    table.emit("fig14_fairness");
}
