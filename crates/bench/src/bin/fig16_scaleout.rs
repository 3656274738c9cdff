//! Fig. 16 — Scale-out: the minimum number of Planaria nodes needed to
//! reach 99 % SLA satisfaction at one constant arrival rate shared by all
//! workloads and QoS levels.
//!
//! Paper shape: node count grows from QoS-S to QoS-H; Workload-B (tightest
//! relative bounds) needs the most nodes (2 → 7); Workload-A QoS-S fits on
//! a single node.
//!
//! Each seed's trace is generated once per grid cell and reused by every
//! probed node count — regeneration inside the probe loop was pure waste
//! (the trace depends only on the cell and the seed, never on the node
//! count).

use planaria_bench::{par_grid, trace, ResultTable, Systems};
use planaria_core::{min_nodes_for_sla, DispatchPolicy, Fleet};
use planaria_parallel::{effective_jobs, par_map};
use planaria_workload::{meets_sla, Request};

/// One constant rate across all workloads and QoS levels (§VI-B1).
const LAMBDA: f64 = 350.0;
const MAX_NODES: usize = 12;

fn main() {
    let sys = Systems::new();
    let seeds: Vec<u64> = (400..405).collect();
    let mut table = ResultTable::new(
        format!("Fig. 16: min Planaria nodes for SLA at {LAMBDA} q/s"),
        &["workload", "qos", "nodes"],
    );
    // Grid cells fan out over the pool; within one cell the per-seed
    // cluster runs at each probed node count fan out too (they run inline
    // when nested under the grid's own workers).
    let cells = par_grid(|scenario, qos| {
        // One trace per seed for the whole node sweep.
        let traces: Vec<Vec<Request>> = seeds
            .iter()
            .map(|&s| trace(scenario, qos, LAMBDA, s))
            .collect();
        min_nodes_for_sla(
            |n| {
                let fleet = Fleet::new(vec![sys.planaria.clone(); n]).expect("uniform fleet");
                let indices: Vec<usize> = (0..traces.len()).collect();
                par_map(indices, effective_jobs(), |i| {
                    let (result, _) = fleet.run(&traces[i], DispatchPolicy::LeastWork);
                    meets_sla(&result.completions)
                })
                .into_iter()
                .all(|ok| ok)
            },
            MAX_NODES,
        )
    });
    for ((scenario, qos), nodes) in cells {
        table.row(vec![
            scenario.to_string(),
            qos.to_string(),
            nodes.map_or_else(|| format!(">{MAX_NODES}"), |n| n.to_string()),
        ]);
    }
    table.emit("fig16_scaleout");
}
