//! Fig. 12 — Throughput comparison: the maximum Poisson arrival rate
//! (queries/second) at which each system meets the MLPerf server SLA, per
//! workload scenario and QoS level, plus the Planaria/PREMA ratio.
//!
//! Paper headline (Workload-C): 7.4× / 7.2× / 12.2× for QoS-S/M/H, and
//! PREMA failing outright on Workload-B at QoS-H.

use planaria_bench::{
    par_grid, planaria_throughput, prema_throughput, ratio_label, ResultTable, Systems,
};

fn main() {
    let sys = Systems::new();
    let mut table = ResultTable::new(
        "Fig. 12: throughput (queries/s) meeting SLA",
        &["workload", "qos", "planaria", "prema", "ratio"],
    );
    let cells = par_grid(|scenario, qos| {
        (
            planaria_throughput(&sys, scenario, qos),
            prema_throughput(&sys, scenario, qos),
        )
    });
    for ((scenario, qos), (p, r)) in cells {
        table.row(vec![
            scenario.to_string(),
            qos.to_string(),
            format!("{p:.1}"),
            format!("{r:.1}"),
            ratio_label(p, r),
        ]);
    }
    table.emit("fig12_throughput");
}
