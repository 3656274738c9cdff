//! Baseline-fairness check: sweep PREMA's starvation token threshold to
//! show the comparison is not won by an adversarially mis-tuned baseline —
//! PREMA's throughput varies far less across the threshold sweep than the
//! gap to Planaria.

use planaria_bench::{
    planaria_throughput, trace, ResultTable, Systems, PROBE_SEEDS, THROUGHPUT_CEIL,
    THROUGHPUT_FLOOR, THROUGHPUT_ITERS,
};
use planaria_prema::{Policy, PremaEngine};
use planaria_workload::{max_throughput, QosLevel, Scenario};

fn main() {
    let sys = Systems::new();
    let mut table = ResultTable::new(
        "Extension: PREMA token-threshold sensitivity (throughput q/s, QoS-S)",
        &[
            "workload",
            "th=0.015",
            "th=0.06 (default)",
            "th=0.24",
            "best prema",
            "planaria",
        ],
    );
    for scenario in Scenario::ALL {
        let mut row = vec![scenario.to_string()];
        let mut best = 0.0f64;
        for threshold in [0.015f64, 0.06, 0.24] {
            let engine = PremaEngine::with_library(sys.prema.library().clone(), Policy::Prema)
                .with_token_threshold(threshold);
            let thr = max_throughput(
                |lambda, seed| {
                    engine
                        .run(trace(scenario, QosLevel::Soft, lambda, seed))
                        .completions
                },
                &PROBE_SEEDS,
                THROUGHPUT_FLOOR,
                THROUGHPUT_CEIL,
                THROUGHPUT_ITERS,
            );
            best = best.max(thr);
            row.push(format!("{thr:.1}"));
        }
        row.push(format!("{best:.1}"));
        row.push(format!(
            "{:.1}",
            planaria_throughput(&sys, scenario, QosLevel::Soft)
        ));
        table.row(row);
    }
    table.emit("ext_prema_threshold");
}
