//! §V ablation — scheduler policies on the monolithic baseline: PREMA's
//! token policy vs FCFS vs pure SJF, measured as SLA-meeting throughput.
//! Shows that Planaria's gains are architectural, not merely a better
//! temporal scheduler.

use planaria_bench::{
    planaria_throughput, trace, ResultTable, Systems, PROBE_SEEDS, THROUGHPUT_CEIL,
    THROUGHPUT_FLOOR, THROUGHPUT_ITERS,
};
use planaria_prema::{Policy, PremaEngine};
use planaria_workload::{max_throughput, QosLevel, Scenario};

fn main() {
    let sys = Systems::new();
    let engines: Vec<(&str, PremaEngine)> = vec![
        (
            "PREMA",
            PremaEngine::with_library(sys.prema.library().clone(), Policy::Prema),
        ),
        (
            "FCFS",
            PremaEngine::with_library(sys.prema.library().clone(), Policy::Fcfs),
        ),
        (
            "SJF",
            PremaEngine::with_library(sys.prema.library().clone(), Policy::Sjf),
        ),
    ];
    let mut table = ResultTable::new(
        "Ablation: temporal policies vs spatial scheduling (throughput, q/s)",
        &["workload", "qos", "fcfs", "sjf", "prema", "planaria"],
    );
    for scenario in Scenario::ALL {
        for qos in [QosLevel::Soft, QosLevel::Medium] {
            let thr = |name: &str| {
                let (_, e) = engines.iter().find(|(n, _)| *n == name).expect("policy");
                max_throughput(
                    |lambda, seed| e.run(trace(scenario, qos, lambda, seed)).completions,
                    &PROBE_SEEDS,
                    THROUGHPUT_FLOOR,
                    THROUGHPUT_CEIL,
                    THROUGHPUT_ITERS,
                )
            };
            let planaria = planaria_throughput(&sys, scenario, qos);
            table.row(vec![
                scenario.to_string(),
                qos.to_string(),
                format!("{:.1}", thr("FCFS")),
                format!("{:.1}", thr("SJF")),
                format!("{:.1}", thr("PREMA")),
                format!("{planaria:.1}"),
            ]);
        }
    }
    table.emit("ablation_scheduler");
}
