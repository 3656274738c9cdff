//! §V ablation — how much of Planaria's win is the *spatial scheduler*
//! versus the fission hardware alone: the same fission-capable chip run
//! with Algorithm 1 vs an exclusive-FIFO allocator (one task at a time,
//! still using per-layer fission inside each run).

use planaria_bench::{
    trace, ResultTable, Systems, PROBE_SEEDS, THROUGHPUT_CEIL, THROUGHPUT_FLOOR, THROUGHPUT_ITERS,
};
use planaria_core::{PlanariaEngine, SchedulingMode};
use planaria_workload::{max_throughput, QosLevel, Scenario};

fn main() {
    let sys = Systems::new();
    let exclusive = PlanariaEngine::with_library(sys.planaria.library().clone())
        .with_mode(SchedulingMode::ExclusiveFifo);
    let mut table = ResultTable::new(
        "Ablation: spatial scheduling vs exclusive FIFO on fission hardware (q/s)",
        &[
            "workload",
            "qos",
            "exclusive-fifo",
            "spatial (Alg.1)",
            "gain",
        ],
    );
    for scenario in Scenario::ALL {
        for qos in [QosLevel::Soft, QosLevel::Medium] {
            let thr = |e: &PlanariaEngine| {
                max_throughput(
                    |lambda, seed| e.run(trace(scenario, qos, lambda, seed)).completions,
                    &PROBE_SEEDS,
                    THROUGHPUT_FLOOR,
                    THROUGHPUT_CEIL,
                    THROUGHPUT_ITERS,
                )
            };
            let ex = thr(&exclusive);
            let sp = thr(&sys.planaria);
            table.row(vec![
                scenario.to_string(),
                qos.to_string(),
                format!("{ex:.1}"),
                format!("{sp:.1}"),
                format!("{:.2}x", sp / ex.max(0.1)),
            ]);
        }
    }
    table.emit("ablation_spatial");
}
