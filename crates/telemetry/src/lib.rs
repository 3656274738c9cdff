//! Unified tracing & metrics for the Planaria reproduction.
//!
//! The paper's evaluation (Figs. 12–18) is entirely about *scheduler
//! behaviour over time* — fission/reconfiguration events, per-tenant
//! subarray occupancy, SLA slack. This crate gives every engine in the
//! workspace one structured way to expose that behaviour:
//!
//! * a [`Collector`] trait with three implementations:
//!   [`NullCollector`], whose methods are all `#[inline]` no-ops so the
//!   disabled path costs nothing and simulation results stay
//!   bit-identical; [`RecordingCollector`], a deterministic recorder;
//!   and [`StatsCollector`], which keeps only counters, histograms, and
//!   quantile sketches so flat-memory runs still report percentiles.
//!   Both keep their aggregates in one fixed slot per [`Counter`] and
//!   per [`Metric`], indexed by the enum discriminant, so a hook is an
//!   array index;
//! * a streaming quantile sketch ([`CycleSketch`]): a fixed
//!   `[u64; 1920]` log-linear histogram over integer cycles with a
//!   documented `≤ 1/32` relative over-report bound, merged bucket-wise
//!   across nodes;
//! * cluster-level recordings ([`ClusterRecording`]) pairing a fabric
//!   collector (dispatch decisions, round barriers, load gauges) with
//!   per-node collectors, merged node-id-deterministically and rendered
//!   as a multi-process Chrome trace ([`cluster_chrome_trace`], one
//!   process per node with nested per-pod energy counter tracks);
//! * an [`Event`] taxonomy covering engine arrivals, queue waits,
//!   allocation/fission changes, reconfiguration drain/checkpoint
//!   overheads, PREMA preemptions, per-layer timing-model slices, and
//!   compiler table/memoization activity — all timestamped in
//!   [`Cycles`](planaria_model::units::Cycles), never lossy seconds;
//! * [`Counter`]s and [`Metric`] histograms (queue depth, occupancy,
//!   reconfiguration breakdowns, DRAM- vs compute-bound cycles, memo
//!   hit-rate) aggregated into a [`MetricsReport`] with text and JSON
//!   renderings;
//! * exporters: Chrome trace-event JSON ([`chrome_trace`], loadable in
//!   Perfetto / `chrome://tracing`, one "process" per tenant and one
//!   track per subarray pod), a TSV occupancy timeline
//!   ([`occupancy_tsv`]) and its two summaries ([`mean_occupancy`],
//!   [`occupancy_strip`]);
//! * an in-repo validator ([`validate_chrome_trace`]) backed by a
//!   minimal std-only JSON parser ([`json`]), so exported traces are
//!   checked structurally (event nesting, monotonic timestamps) without
//!   external tooling.
//!
//! # Determinism contract
//!
//! Everything recorded is a pure function of the simulation state:
//! timestamps are simulated [`Cycles`](planaria_model::units::Cycles)
//! (converted to microseconds only at render time), aggregates are
//! reported in enum order, and no wall clock or entropy is consulted
//! anywhere.
//! Recording the same run twice yields byte-identical exports, and
//! running with [`NullCollector`] is bit-identical to not instrumenting
//! at all (the engines' `run` methods *are* the `NullCollector` path).

pub mod chrome;
pub mod cluster;
pub mod collector;
pub mod event;
pub mod json;
pub mod metrics;
pub mod sketch;
pub mod validate;

pub use chrome::{chrome_trace, mean_occupancy, occupancy_strip, occupancy_tsv};
pub use cluster::{cluster_chrome_trace, ClusterRecording};
pub use collector::{Collector, NullCollector, RecordingCollector, StatsCollector};
pub use event::{Event, SimMeta, TimedEvent};
pub use metrics::{Counter, Histogram, Metric, MetricsReport};
pub use sketch::{CycleSketch, SKETCH_BUCKETS};
pub use validate::{validate_chrome_trace, TraceStats};
