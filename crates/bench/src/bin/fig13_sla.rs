//! Fig. 13 — SLA satisfaction rate: the fraction of workload instances
//! meeting the SLA when both systems observe the *same* arrival rate
//! (the paper's "for the same throughput 1/λ").

use planaria_bench::{
    par_grid, planaria_throughput, prema_throughput, probe_rate, rate_seeds, run_planaria,
    run_prema, ResultTable, Systems,
};
use planaria_workload::sla_satisfaction_rate;

fn main() {
    let sys = Systems::new();
    let seeds = rate_seeds();
    let mut table = ResultTable::new(
        "Fig. 13: SLA satisfaction rate at a shared arrival rate",
        &[
            "workload",
            "qos",
            "lambda",
            "planaria",
            "prema",
            "improvement",
        ],
    );
    let cells = par_grid(|scenario, qos| {
        let lambda = probe_rate(
            planaria_throughput(&sys, scenario, qos),
            prema_throughput(&sys, scenario, qos),
        );
        let p = sla_satisfaction_rate(
            |seed| run_planaria(&sys, scenario, qos, lambda, seed).completions,
            &seeds,
        );
        let r = sla_satisfaction_rate(
            |seed| run_prema(&sys, scenario, qos, lambda, seed).completions,
            &seeds,
        );
        (lambda, p, r)
    });
    for ((scenario, qos), (lambda, p, r)) in cells {
        table.row(vec![
            scenario.to_string(),
            qos.to_string(),
            format!("{lambda:.1}"),
            format!("{:.0}%", p * 100.0),
            format!("{:.0}%", r * 100.0),
            format!("+{:.0}pp", (p - r) * 100.0),
        ]);
    }
    table.emit("fig13_sla");
}
