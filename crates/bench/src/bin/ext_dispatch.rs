//! Extension — online dispatch policy shoot-out at million-request
//! scale: every [`DispatchPolicy`] routes the same 10^6-request streamed
//! trace across an 8-node Planaria cluster.
//!
//! Not a paper figure: the paper provisions clusters offline (Fig. 16
//! asks "how many nodes"), while this extension asks "given the nodes,
//! how should a front-end route?" — the natural follow-on question for a
//! datacenter deployment. The trace streams through the flat-memory
//! fabric ([`Fleet::run_stats`]): completions are never materialized
//! (the 10^6-request Vec alone would dwarf the simulator's working set),
//! and every reported number — SLA rate, mean/p99 latency, the backlog
//! watermark — comes out of O(buckets) counters and streaming quantile
//! sketches.
//!
//! Expected shape: load-aware policies (least-work, JSQ, power-of-two)
//! hold p99 and SLA rate under load where round-robin interleaves heavy
//! and light models onto the same node; power-of-two tracks JSQ at a
//! fraction of the feedback; QoS-aware routing buys tight-deadline
//! requests headroom by segregating them from relaxed traffic. The
//! backlog watermark (`max_backlog_ms`) and queue-depth tail
//! (`p99_queue_depth`) expose *why*: balanced policies keep the worst
//! node's outstanding work an order of magnitude lower.

use planaria_bench::{ResultTable, Systems};
use planaria_core::{DispatchPolicy, Fleet};
use planaria_telemetry::{Counter, Metric};
use planaria_workload::{LatencyStats, QosLevel, Scenario, TraceConfig};

const NODES: usize = 8;
/// ~8× the single-node saturation rate of the fig16 sweep: the cluster
/// runs loaded but not hopeless, so routing quality is visible in both
/// the SLA rate and the latency tail.
const LAMBDA: f64 = 2_500.0;

/// Requests per policy run: 10^6 by default, overridable with
/// `PLANARIA_EXT_REQUESTS` for quick local iterations.
fn requests() -> usize {
    std::env::var("PLANARIA_EXT_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

fn main() {
    let sys = Systems::new();
    let freq_hz = sys.planaria.library().config().freq_hz;
    let n = requests();
    let cfg = TraceConfig::new(Scenario::C, QosLevel::Medium, LAMBDA, n, 0xd15b);
    let fleet = Fleet::new(vec![sys.planaria.clone(); NODES]).expect("uniform fleet");
    let mut table = ResultTable::new(
        format!(
            "Ext: dispatch policies, {NODES}-node cluster, {n} streamed requests at {LAMBDA} q/s"
        ),
        &[
            "policy",
            "sla_rate",
            "mean_ms",
            "p99_ms",
            "max_backlog_ms",
            "p99_queue_depth",
            "makespan_s",
            "energy_j",
            "events",
            "rounds",
        ],
    );
    for policy in DispatchPolicy::ALL {
        let start = std::time::Instant::now();
        let (cs, stats) = fleet.run_stats(cfg.stream(), policy);
        eprintln!("[{policy:?}: {:.1}s]", start.elapsed().as_secs_f64());
        assert_eq!(cs.summary.completed as usize, n, "{policy:?} lost requests");
        let lat = cs
            .metrics
            .sketch(Metric::LatencyCycles)
            .and_then(|s| LatencyStats::from_sketch(s, freq_hz))
            .expect("latency sketch populated");
        let sla_rate = cs.metrics.counter(Counter::QosMet) as f64 / cs.summary.completed as f64;
        // Backlog watermark: the worst outstanding-work any node showed
        // at any round barrier, converted to milliseconds of work.
        let max_backlog_ms = cs
            .metrics
            .sketch(Metric::NodeBacklogCycles)
            .and_then(|s| s.max())
            .map_or(0.0, |c| c as f64 / freq_hz * 1e3);
        let p99_depth = cs
            .metrics
            .sketch(Metric::NodeQueueDepth)
            .and_then(|s| s.value_at_ratio(99, 100))
            .unwrap_or(0);
        table.row(vec![
            format!("{policy:?}"),
            format!("{sla_rate:.4}"),
            format!("{:.3}", lat.mean * 1e3),
            format!("{:.3}", lat.p99 * 1e3),
            format!("{max_backlog_ms:.3}"),
            p99_depth.to_string(),
            format!("{:.3}", cs.summary.makespan),
            format!("{:.3}", cs.summary.total_energy.to_joules()),
            stats.events.to_string(),
            stats.rounds.to_string(),
        ]);
    }
    table.emit("ext_dispatch");
}
