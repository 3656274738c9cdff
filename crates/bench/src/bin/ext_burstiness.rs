//! Extension study (beyond the paper): how arrival burstiness changes the
//! spatial-vs-temporal gap. Datacenter traffic is bursty, not Poisson;
//! spatial co-location should absorb bursts (multiple tenants start
//! immediately on chip fractions) while a time-shared monolithic baseline
//! queues them.

use planaria_bench::{
    ResultTable, Systems, PROBE_SEEDS, THROUGHPUT_CEIL, THROUGHPUT_FLOOR, THROUGHPUT_ITERS,
    TRACE_LEN,
};
use planaria_workload::{max_throughput, QosLevel, Scenario, TraceConfig};

fn main() {
    let sys = Systems::new();
    let mut table = ResultTable::new(
        "Extension: throughput (q/s) vs arrival burstiness (Workload-C, QoS-M)",
        &["burstiness", "planaria", "prema", "ratio"],
    );
    for b in [1.0f64, 2.0, 4.0, 8.0] {
        let mk = |lambda: f64, seed: u64| {
            TraceConfig::new(Scenario::C, QosLevel::Medium, lambda, TRACE_LEN, seed)
                .with_burstiness(b)
                .generate()
        };
        let thr_p = max_throughput(
            |lambda, seed| sys.planaria.run(mk(lambda, seed)).completions,
            &PROBE_SEEDS,
            THROUGHPUT_FLOOR,
            THROUGHPUT_CEIL,
            THROUGHPUT_ITERS,
        );
        let thr_r = max_throughput(
            |lambda, seed| sys.prema.run(mk(lambda, seed)).completions,
            &PROBE_SEEDS,
            THROUGHPUT_FLOOR,
            THROUGHPUT_CEIL,
            THROUGHPUT_ITERS,
        );
        table.row(vec![
            format!("{b:.0}x"),
            format!("{thr_p:.1}"),
            format!("{thr_r:.1}"),
            format!("{:.1}x", thr_p / thr_r.max(0.1)),
        ]);
    }
    table.emit("ext_burstiness");
}
