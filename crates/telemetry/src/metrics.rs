//! Counters, histograms, quantile sketches, and the aggregated
//! [`MetricsReport`].

use crate::sketch::CycleSketch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Monotonic counters. Every variant is a plain occurrence or cycle/byte
/// total; derived ratios (memo hit-rate, DRAM-bound share) are computed
/// by [`MetricsReport`] at render time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Requests admitted to a queue.
    Arrivals,
    /// Requests finished.
    Completions,
    /// Scheduler invocations (arrival/completion triggers).
    SchedulingEvents,
    /// Running tenants resized or preempted (paid §IV-C costs).
    Reconfigurations,
    /// PREMA context switches.
    Preemptions,
    /// Cycles spent draining pipelines during reconfiguration.
    DrainCycles,
    /// Cycles spent checkpointing in-flight tiles.
    CheckpointCycles,
    /// Cycles spent swapping fission configurations.
    ConfigSwapCycles,
    /// Cycles spent re-streaming weights after reconfiguration.
    RefillCycles,
    /// Bytes checkpointed across all reconfigurations.
    CheckpointBytes,
    /// Compiler layer-table entries served by an earlier search of the
    /// same shape in the same table ((layers − distinct shapes) × tables).
    MemoHits,
    /// Compiler arrangement searches run (distinct shapes × tables).
    MemoMisses,
    /// Distinct layer shapes after dedup.
    DistinctShapes,
    /// Layer-table entries compiled (layers × allocations).
    LayersCompiled,
    /// Layer cycles classified as DRAM-bandwidth-bound.
    DramBoundCycles,
    /// Layer cycles classified as compute-bound.
    ComputeBoundCycles,
    /// Fabric dispatcher routing decisions.
    DispatchDecisions,
    /// Epoch-synchronized fabric rounds executed.
    FabricRounds,
    /// Completions that met their deadline in the integer cycle domain
    /// (`finish_cycle <= deadline_cycle`).
    QosMet,
}

impl Counter {
    /// Every counter in declaration order, so `ALL[i] as usize == i`:
    /// the slot a collector keeps counter `c` in is `c as usize`.
    pub const ALL: [Counter; 19] = [
        Counter::Arrivals,
        Counter::Completions,
        Counter::SchedulingEvents,
        Counter::Reconfigurations,
        Counter::Preemptions,
        Counter::DrainCycles,
        Counter::CheckpointCycles,
        Counter::ConfigSwapCycles,
        Counter::RefillCycles,
        Counter::CheckpointBytes,
        Counter::MemoHits,
        Counter::MemoMisses,
        Counter::DistinctShapes,
        Counter::LayersCompiled,
        Counter::DramBoundCycles,
        Counter::ComputeBoundCycles,
        Counter::DispatchDecisions,
        Counter::FabricRounds,
        Counter::QosMet,
    ];

    /// Stable snake_case name (JSON keys, text report rows).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Arrivals => "arrivals",
            Counter::Completions => "completions",
            Counter::SchedulingEvents => "scheduling_events",
            Counter::Reconfigurations => "reconfigurations",
            Counter::Preemptions => "preemptions",
            Counter::DrainCycles => "drain_cycles",
            Counter::CheckpointCycles => "checkpoint_cycles",
            Counter::ConfigSwapCycles => "config_swap_cycles",
            Counter::RefillCycles => "refill_cycles",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::MemoHits => "memo_hits",
            Counter::MemoMisses => "memo_misses",
            Counter::DistinctShapes => "distinct_shapes",
            Counter::LayersCompiled => "layers_compiled",
            Counter::DramBoundCycles => "dram_bound_cycles",
            Counter::ComputeBoundCycles => "compute_bound_cycles",
            Counter::DispatchDecisions => "dispatch_decisions",
            Counter::FabricRounds => "fabric_rounds",
            Counter::QosMet => "qos_met",
        }
    }
}

/// Histogram-sampled metrics (distributions, not totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Queued (unallocated) tenants at each scheduling event.
    QueueDepth,
    /// Allocated-subarray share of the chip, percent, at each
    /// scheduling event.
    OccupancyPct,
    /// Granted allocation sizes (subarrays) at grant time.
    AllocationSize,
    /// Queue-wait lengths, cycles.
    QueueWaitCycles,
    /// Per-reconfiguration total overhead, cycles.
    ReconfigCycles,
    /// Per-layer effective MAC utilization (0–1) from the timing model.
    Utilization,
    /// End-to-end request latency, cycles (sketch-observed).
    LatencyCycles,
    /// Per-node backlog estimate at round boundaries, cycles
    /// (sketch-observed).
    NodeBacklogCycles,
    /// Per-node in-flight tenant count at round boundaries
    /// (sketch-observed).
    NodeQueueDepth,
}

impl Metric {
    /// Every metric in declaration order, so `ALL[i] as usize == i`:
    /// the histogram and sketch slots of metric `m` are `m as usize`.
    pub const ALL: [Metric; 9] = [
        Metric::QueueDepth,
        Metric::OccupancyPct,
        Metric::AllocationSize,
        Metric::QueueWaitCycles,
        Metric::ReconfigCycles,
        Metric::Utilization,
        Metric::LatencyCycles,
        Metric::NodeBacklogCycles,
        Metric::NodeQueueDepth,
    ];

    /// Stable snake_case name (JSON keys, text report rows).
    pub fn name(self) -> &'static str {
        match self {
            Metric::QueueDepth => "queue_depth",
            Metric::OccupancyPct => "occupancy_pct",
            Metric::AllocationSize => "allocation_size",
            Metric::QueueWaitCycles => "queue_wait_cycles",
            Metric::ReconfigCycles => "reconfig_cycles",
            Metric::Utilization => "utilization",
            Metric::LatencyCycles => "latency_cycles",
            Metric::NodeBacklogCycles => "node_backlog_cycles",
            Metric::NodeQueueDepth => "node_queue_depth",
        }
    }
}

/// Number of log₂ buckets per histogram.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A fixed-size log₂ histogram with count/sum/min/max sidecars.
///
/// Bucket 0 holds values `< 1`; bucket *i* (for `i ≥ 1`) holds values in
/// `[2^(i-1), 2^i)`; the last bucket additionally absorbs everything
/// larger. Deterministic: bucketing is pure integer/float math on the
/// sampled value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    /// Samples observed.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest sample (`f64::NEG_INFINITY` when empty).
    pub max: f64,
    /// Log₂ buckets (see type docs).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one sample (negative samples clamp into bucket 0).
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// The bucket index a value lands in.
    pub fn bucket_of(value: f64) -> usize {
        // NaN lands in bucket 0 with everything below 1.
        if value.is_nan() || value < 1.0 {
            return 0;
        }
        // floor(log2(v)) + 1 without float log: count the integer bits.
        let bits = 64 - (value as u64).leading_zeros() as usize;
        bits.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Merges another histogram into this one (bucket-wise sum; used
    /// when combining per-node reports in the cluster fabric).
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Aggregated counters and histograms of one run, renderable as an
/// aligned text table or a JSON object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Counter totals in deterministic (enum-order) iteration order.
    pub counters: BTreeMap<Counter, u64>,
    /// Histograms in deterministic iteration order.
    pub histograms: BTreeMap<Metric, Histogram>,
    /// Streaming quantile sketches (exact-integer cycle distributions)
    /// in deterministic iteration order. Boxed, so the map's nodes stay
    /// small and a report holds one ~15 KiB sketch per observed metric.
    pub sketches: BTreeMap<Metric, Box<CycleSketch>>,
    /// Total events recorded alongside the aggregates.
    pub events: u64,
}

impl MetricsReport {
    /// The value of one counter (0 when never incremented).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(&c).copied().unwrap_or(0)
    }

    /// The histogram for one metric, if any samples were recorded.
    pub fn histogram(&self, m: Metric) -> Option<&Histogram> {
        self.histograms.get(&m)
    }

    /// The quantile sketch for one metric, if any samples were observed.
    pub fn sketch(&self, m: Metric) -> Option<&CycleSketch> {
        self.sketches.get(&m).map(|s| &**s)
    }

    /// Merges another report into this one: counters and event totals
    /// add, histograms and sketches merge bucket-wise. Deterministic —
    /// `BTreeMap` iteration and commutative integer sums — so merging
    /// per-node reports in node-id order yields the same bytes at any
    /// `PLANARIA_JOBS`.
    pub fn merge(&mut self, other: &Self) {
        for (c, v) in &other.counters {
            *self.counters.entry(*c).or_insert(0) += v;
        }
        for (m, h) in &other.histograms {
            self.histograms.entry(*m).or_default().merge(h);
        }
        for (m, s) in &other.sketches {
            self.sketches.entry(*m).or_default().merge(s);
        }
        self.events += other.events;
    }

    /// Compiler memo hit-rate in [0, 1] (`None` when the memo was never
    /// consulted).
    pub fn memo_hit_rate(&self) -> Option<f64> {
        let hits = self.counter(Counter::MemoHits);
        let misses = self.counter(Counter::MemoMisses);
        let total = hits + misses;
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Share of layer cycles that were DRAM-bound, in [0, 1] (`None`
    /// when the timing model was not instrumented).
    pub fn dram_bound_share(&self) -> Option<f64> {
        let d = self.counter(Counter::DramBoundCycles);
        let c = self.counter(Counter::ComputeBoundCycles);
        let total = d + c;
        if total == 0 {
            None
        } else {
            Some(d as f64 / total as f64)
        }
    }

    /// Renders an aligned, human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== telemetry report ({} events) ==", self.events);
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (c, v) in &self.counters {
                let _ = writeln!(out, "  {:<22} {v}", c.name());
            }
        }
        if let Some(rate) = self.memo_hit_rate() {
            let _ = writeln!(out, "  {:<22} {:.1}%", "memo_hit_rate", rate * 100.0);
        }
        if let Some(share) = self.dram_bound_share() {
            let _ = writeln!(out, "  {:<22} {:.1}%", "dram_bound_share", share * 100.0);
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms (count / mean / min / max):");
            for (m, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<22} {} / {:.3} / {:.3} / {:.3}",
                    m.name(),
                    h.count,
                    h.mean(),
                    if h.is_empty() { 0.0 } else { h.min },
                    if h.is_empty() { 0.0 } else { h.max },
                );
            }
        }
        if !self.sketches.is_empty() {
            let _ = writeln!(out, "sketches (count / p50 / p99 / min / max, cycles):");
            for (m, s) in &self.sketches {
                let _ = writeln!(
                    out,
                    "  {:<22} {} / {} / {} / {} / {}",
                    m.name(),
                    s.count(),
                    s.value_at_ratio(50, 100).unwrap_or(0),
                    s.value_at_ratio(99, 100).unwrap_or(0),
                    s.min().unwrap_or(0),
                    s.max().unwrap_or(0),
                );
            }
        }
        out
    }

    /// Renders the report as a JSON object (stable key order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"events\":{}", self.events);
        out.push_str(",\"counters\":{");
        for (i, (c, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", c.name());
        }
        out.push('}');
        if let Some(rate) = self.memo_hit_rate() {
            let _ = write!(out, ",\"memo_hit_rate\":{}", fmt_f64(rate));
        }
        if let Some(share) = self.dram_bound_share() {
            let _ = write!(out, ",\"dram_bound_share\":{}", fmt_f64(share));
        }
        out.push_str(",\"histograms\":{");
        for (i, (m, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                m.name(),
                h.count,
                fmt_f64(h.sum),
                fmt_f64(if h.is_empty() { 0.0 } else { h.min }),
                fmt_f64(if h.is_empty() { 0.0 } else { h.max }),
            );
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push('}');
        out.push_str(",\"sketches\":{");
        for (i, (m, s)) in self.sketches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Summary only — the 1920 raw buckets stay in-process.
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                m.name(),
                s.count(),
                s.sum(),
                s.min().unwrap_or(0),
                s.max().unwrap_or(0),
                s.value_at_ratio(50, 100).unwrap_or(0),
                s.value_at_ratio(90, 100).unwrap_or(0),
                s.value_at_ratio(99, 100).unwrap_or(0),
            );
        }
        out.push_str("}}");
        out
    }
}

/// The counters, histograms and sketches a recording collector keeps:
/// one fixed slot per [`Counter`] and per [`Metric`], indexed by the
/// enum discriminant, so every hook is an array index. A slot is `None`
/// until its first hook, which keeps [`report`](Self::report) to the
/// keys a map would hold (a counter added with delta 0 is present, an
/// untouched metric absent). Sketches are boxed: a collector holds one
/// ~15 KiB [`CycleSketch`] per metric it actually observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Aggregates {
    counters: [Option<u64>; Counter::ALL.len()],
    histograms: [Option<Histogram>; Metric::ALL.len()],
    sketches: [Option<Box<CycleSketch>>; Metric::ALL.len()],
}

impl Aggregates {
    /// Adds `delta` to a counter (creating it at 0).
    #[inline]
    pub(crate) fn add(&mut self, counter: Counter, delta: u64) {
        *self.counters[counter as usize].get_or_insert(0) += delta;
    }

    /// Records one histogram sample.
    #[inline]
    pub(crate) fn sample(&mut self, metric: Metric, value: f64) {
        self.histograms[metric as usize]
            .get_or_insert_with(Histogram::new)
            .record(value);
    }

    /// Observes one cycle sample into the metric's sketch.
    #[inline]
    pub(crate) fn observe(&mut self, metric: Metric, cycles: u64) {
        self.sketches[metric as usize]
            .get_or_insert_with(new_sketch)
            .record(cycles);
    }

    /// The value of one counter (0 when never incremented).
    pub(crate) fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].unwrap_or(0)
    }

    /// The sketch for one metric, if any samples were observed.
    pub(crate) fn sketch(&self, m: Metric) -> Option<&CycleSketch> {
        self.sketches[m as usize].as_deref()
    }

    /// Whether no hook has fired.
    pub(crate) fn is_empty(&self) -> bool {
        self.counters.iter().all(Option::is_none)
            && self.histograms.iter().all(Option::is_none)
            && self.sketches.iter().all(Option::is_none)
    }

    /// The aggregates as a [`MetricsReport`] with `events` events, keys
    /// in enum order.
    pub(crate) fn report(&self, events: u64) -> MetricsReport {
        MetricsReport {
            counters: Counter::ALL
                .into_iter()
                .zip(self.counters)
                .filter_map(|(c, v)| Some((c, v?)))
                .collect(),
            histograms: Metric::ALL
                .into_iter()
                .zip(self.histograms)
                .filter_map(|(m, h)| Some((m, h?)))
                .collect(),
            sketches: Metric::ALL
                .into_iter()
                .zip(&self.sketches)
                .filter_map(|(m, s)| Some((m, s.clone()?)))
                .collect(),
            events,
        }
    }
}

/// A fresh boxed sketch, out of line so a hook inlined into an engine
/// loop never carries a sketch-sized stack frame.
#[cold]
#[inline(never)]
fn new_sketch() -> Box<CycleSketch> {
    Box::default()
}

/// Formats an `f64` as JSON (finite guaranteed by construction; callers
/// only pass sums/means of finite samples).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on f64 never produces exponents for our magnitudes, and
        // always includes a leading digit; it is valid JSON as-is.
        s
    } else {
        String::from("0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(-3.0), 0);
        assert_eq!(Histogram::bucket_of(0.9), 0);
        assert_eq!(Histogram::bucket_of(1.0), 1);
        assert_eq!(Histogram::bucket_of(1.9), 1);
        assert_eq!(Histogram::bucket_of(2.0), 2);
        assert_eq!(Histogram::bucket_of(3.0), 2);
        assert_eq!(Histogram::bucket_of(4.0), 3);
        assert_eq!(Histogram::bucket_of(1e18), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_aggregates() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 10.0);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut r = MetricsReport {
            events: 3,
            ..MetricsReport::default()
        };
        r.counters.insert(Counter::Arrivals, 2);
        r.counters.insert(Counter::MemoHits, 3);
        r.counters.insert(Counter::MemoMisses, 1);
        let mut h = Histogram::new();
        h.record(2.0);
        r.histograms.insert(Metric::QueueDepth, h);
        let text = r.render_text();
        assert!(text.contains("arrivals"));
        assert!(text.contains("memo_hit_rate"));
        assert!(text.contains("queue_depth"));
        let json = r.render_json();
        assert!(json.contains("\"arrivals\":2"));
        assert!(json.contains("\"memo_hit_rate\":0.75"));
        // The JSON must parse with the in-crate parser.
        let parsed = crate::json::parse(&json).expect("report JSON parses");
        assert!(parsed.get("counters").is_some());
    }

    #[test]
    fn reports_merge_deterministically() {
        let mut a = MetricsReport {
            events: 2,
            ..MetricsReport::default()
        };
        a.counters.insert(Counter::Arrivals, 3);
        let mut ha = Histogram::new();
        ha.record(4.0);
        a.histograms.insert(Metric::QueueDepth, ha);
        let mut sa = CycleSketch::new();
        sa.record(100);
        a.sketches.insert(Metric::LatencyCycles, Box::new(sa));

        let mut b = MetricsReport {
            events: 1,
            ..MetricsReport::default()
        };
        b.counters.insert(Counter::Arrivals, 2);
        b.counters.insert(Counter::Completions, 5);
        let mut hb = Histogram::new();
        hb.record(8.0);
        b.histograms.insert(Metric::QueueDepth, hb);
        let mut sb = CycleSketch::new();
        sb.record(200);
        b.sketches.insert(Metric::LatencyCycles, Box::new(sb));

        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.events, 3);
        assert_eq!(ab.counter(Counter::Arrivals), 5);
        assert_eq!(ab.counter(Counter::Completions), 5);
        // lint: merged above, the histogram and sketch both exist
        assert_eq!(ab.histogram(Metric::QueueDepth).unwrap().count, 2);
        let s = ab.sketch(Metric::LatencyCycles).expect("sketch merged");
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), Some(200));
        // Merge must commute bucket-wise: b.merge(a) gives the same
        // aggregate state.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Sketch summaries land in both renderings.
        assert!(ab.render_text().contains("latency_cycles"));
        let json = ab.render_json();
        assert!(json.contains("\"latency_cycles\":{\"count\":2"));
        let parsed = crate::json::parse(&json).expect("merged report JSON parses");
        assert!(parsed.get("sketches").is_some());
    }

    #[test]
    fn derived_ratios_absent_without_samples() {
        let r = MetricsReport::default();
        assert_eq!(r.memo_hit_rate(), None);
        assert_eq!(r.dram_bound_share(), None);
        assert_eq!(r.counter(Counter::Arrivals), 0);
        assert!(r.histogram(Metric::QueueDepth).is_none());
    }

    /// The slot a counter must occupy. Wildcard-free on purpose: a new
    /// variant does not compile until it gets an arm here, which names
    /// its position in [`Counter::ALL`]. (A variant appended to the enum
    /// but not to `ALL` indexes past the slot table and panics at its
    /// first hook, so it cannot silently drop out of a report.)
    fn counter_slot(c: Counter) -> usize {
        match c {
            Counter::Arrivals => 0,
            Counter::Completions => 1,
            Counter::SchedulingEvents => 2,
            Counter::Reconfigurations => 3,
            Counter::Preemptions => 4,
            Counter::DrainCycles => 5,
            Counter::CheckpointCycles => 6,
            Counter::ConfigSwapCycles => 7,
            Counter::RefillCycles => 8,
            Counter::CheckpointBytes => 9,
            Counter::MemoHits => 10,
            Counter::MemoMisses => 11,
            Counter::DistinctShapes => 12,
            Counter::LayersCompiled => 13,
            Counter::DramBoundCycles => 14,
            Counter::ComputeBoundCycles => 15,
            Counter::DispatchDecisions => 16,
            Counter::FabricRounds => 17,
            Counter::QosMet => 18,
        }
    }

    /// [`counter_slot`]'s twin for [`Metric::ALL`].
    fn metric_slot(m: Metric) -> usize {
        match m {
            Metric::QueueDepth => 0,
            Metric::OccupancyPct => 1,
            Metric::AllocationSize => 2,
            Metric::QueueWaitCycles => 3,
            Metric::ReconfigCycles => 4,
            Metric::Utilization => 5,
            Metric::LatencyCycles => 6,
            Metric::NodeBacklogCycles => 7,
            Metric::NodeQueueDepth => 8,
        }
    }

    #[test]
    fn slot_tables_list_every_variant_in_declaration_order() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} sits at ALL[{i}]");
            assert_eq!(counter_slot(c), i, "{c:?}");
        }
        for (i, m) in Metric::ALL.into_iter().enumerate() {
            assert_eq!(m as usize, i, "{m:?} sits at ALL[{i}]");
            assert_eq!(metric_slot(m), i, "{m:?}");
        }
        // One slot per variant: names (and so report keys) are distinct.
        let names: std::collections::BTreeSet<_> = Counter::ALL.map(Counter::name).into();
        assert_eq!(names.len(), Counter::ALL.len());
        let names: std::collections::BTreeSet<_> = Metric::ALL.map(Metric::name).into();
        assert_eq!(names.len(), Metric::ALL.len());
    }

    /// One SplitMix64 stream of hooks into the slot store and into a
    /// `BTreeMap` model (the maps a [`MetricsReport`] holds, updated the
    /// way the collectors used to update theirs) must report `==` at
    /// every checkpoint. The stream never touches the last counter or
    /// the last two metrics' histograms and sketches, which must stay
    /// absent; zero deltas, negative and very large finite samples are
    /// drawn on purpose.
    #[test]
    fn slot_store_reports_what_a_map_model_reports() {
        let mut rng = planaria_model::SplitMix64::new(0x51_07_5e);
        let mut store = Aggregates::default();
        let mut model = MetricsReport::default();
        let counters = &Counter::ALL[..Counter::ALL.len() - 1];
        let metrics = &Metric::ALL[..Metric::ALL.len() - 2];
        let pick = |rng: &mut planaria_model::SplitMix64, n: usize| {
            usize::try_from(rng.next_below(n as u64)).expect("index fits")
        };
        assert_eq!(store.report(0), model, "an empty store reports nothing");
        assert!(store.is_empty());
        let mut zero = Aggregates::default();
        zero.add(Counter::FabricRounds, 0);
        assert_eq!(
            zero.report(0).counters.get(&Counter::FabricRounds),
            Some(&0)
        );
        for step in 1..=20_000u64 {
            match rng.next_below(3) {
                0 => {
                    let c = counters[pick(&mut rng, counters.len())];
                    let delta = match rng.next_below(4) {
                        0 => 0,
                        1 => rng.next_u64() >> 40,
                        _ => rng.next_below(8),
                    };
                    store.add(c, delta);
                    *model.counters.entry(c).or_insert(0) += delta;
                }
                1 => {
                    let m = metrics[pick(&mut rng, metrics.len())];
                    let v = match rng.next_below(5) {
                        0 => -(rng.next_f64() * 1e3),
                        1 => rng.next_f64() * 1e300,
                        2 => -(rng.next_f64() * 1e300),
                        3 => rng.next_f64(),
                        _ => (rng.next_below(1 << 20)) as f64,
                    };
                    store.sample(m, v);
                    model.histograms.entry(m).or_default().record(v);
                }
                _ => {
                    let m = metrics[pick(&mut rng, metrics.len())];
                    let v = rng.next_u64() >> rng.next_below(64);
                    store.observe(m, v);
                    model.sketches.entry(m).or_default().record(v);
                }
            }
            model.events = step;
            if step % 997 == 0 || step == 20_000 {
                let report = store.report(step);
                assert_eq!(report, model, "step {step}");
                assert_eq!(report.render_json(), model.render_json());
            }
        }
        let report = store.report(0);
        assert!(!store.is_empty());
        assert!(!report.counters.contains_key(&Counter::QosMet));
        for m in [Metric::NodeBacklogCycles, Metric::NodeQueueDepth] {
            assert!(report.histogram(m).is_none() && report.sketch(m).is_none());
            assert!(store.sketch(m).is_none());
        }
        for &c in counters {
            assert_eq!(store.counter(c), model.counter(c));
        }
        for &m in metrics {
            assert_eq!(store.sketch(m), model.sketch(m));
        }
    }
}
