//! The three workloads. Each builds its engines once ([`Setup`]) and then
//! runs repetitions ([`Rep`]), either bare — exactly the calls a user of
//! the public API makes — or traced, with every kernel-facing trait
//! wrapped by [`crate::layers`].

use crate::host::peak_during;
use crate::layers::{
    ns_since, Ledger, PolicyLayer, Span, Tally, Tap, TimedDispatcher, TimedPolicy, TimedSink,
    TimedSource,
};
use planaria_arch::AcceleratorConfig;
use planaria_bench::{
    par_grid, PROBE_SEEDS, THROUGHPUT_CEIL, THROUGHPUT_FLOOR, THROUGHPUT_ITERS, TRACE_LEN,
};
use planaria_compiler::CompiledLibrary;
use planaria_core::{ClusterDispatcher, DispatchPolicy, PlanariaEngine};
use planaria_model::units::Cycles;
use planaria_prema::{Policy, PremaEngine};
use planaria_sim::{run_fabric_summary, run_streamed_sink, EnginePolicy, FabricTuning};
use planaria_telemetry::{
    Counter, CycleSketch, Metric, MetricsReport, NullCollector, StatsCollector,
};
use planaria_workload::{
    max_throughput, Completion, CompletionSink, QosLevel, Scenario, TraceConfig,
};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Nodes in the fleet-jsq cluster.
pub const FLEET_NODES: usize = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Planaria node, streamed bursty Scenario C at QoS-Hard.
    ServeBurst,
    /// Eight Planaria nodes behind join-shortest-queue dispatch.
    FleetJsq,
    /// The Fig. 12 max-throughput grid, Planaria and PREMA.
    FigureSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeBurst,
        Workload::FleetJsq,
        Workload::FigureSweep,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBurst => "serve-burst",
            Workload::FleetJsq => "fleet-jsq",
            Workload::FigureSweep => "figure-sweep",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per repetition at full size (figure-sweep's size is fixed
    /// by the grid: 400-request probe traces).
    pub fn default_requests(self) -> usize {
        match self {
            Workload::ServeBurst => 1_000_000,
            Workload::FleetJsq => 20_000,
            Workload::FigureSweep => TRACE_LEN,
        }
    }

    /// A seed kept out of tuning, so later speed claims can be re-checked
    /// on inputs nobody tuned against.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::ServeBurst => 7_777_001,
            Workload::FleetJsq => 7_777_002,
            Workload::FigureSweep => 7_777_003,
        }
    }

    /// Expected fingerprints by seed, recorded at full size.
    pub fn expected_table(self) -> &'static str {
        match self {
            Workload::ServeBurst => include_str!("../expected/serve-burst.tsv"),
            Workload::FleetJsq => include_str!("../expected/fleet-jsq.tsv"),
            Workload::FigureSweep => include_str!("../expected/figure-sweep.tsv"),
        }
    }
}

/// Looks `seed` up in a `seed<TAB>hex fingerprint` table.
pub fn expected_fingerprint(table: &str, seed: u64) -> Option<u64> {
    table.lines().find_map(|line| {
        let mut cols = line.split('\t');
        (cols.next()?.trim().parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(cols.next()?.trim(), 16).ok())
            .flatten()
    })
}

/// The fleet-jsq trace: the `ext_dispatch` operating point.
fn fleet_trace(requests: usize, seed: u64) -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Medium, 2_500.0, requests, seed)
}

/// The serve-burst trace: the kernel bench's bursty deep-backlog point.
fn serve_trace(requests: usize, seed: u64) -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, requests, seed).with_burstiness(6.0)
}

/// Fig. 12 probe seeds for a workload seed: the figure's own seeds
/// shifted by `1000 × seed`, so seed 0 is the published grid.
pub fn probe_seeds(seed: u64) -> [u64; 3] {
    PROBE_SEEDS.map(|p| p.wrapping_add(seed.wrapping_mul(1000)))
}

/// Order-sensitive 64-bit mixing hash for fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Mix(u64);

impl Default for Mix {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Mix {
    /// Mixes one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// Mixes a byte string (length first, then 8-byte words).
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// The hash so far.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// The benchmark's retirement sink: a latency sketch (as `SketchSink`
/// keeps), the QoS-met count, and a hash of the retirement stream; it
/// keeps the completions themselves only when asked to.
#[derive(Debug, Default)]
pub struct CheckSink {
    /// Exact integer-cycle latencies.
    pub latency: CycleSketch,
    /// Completions with `met_qos()`.
    pub met: u64,
    /// Hash of every retirement in order.
    pub hash: Mix,
    /// The completions, when kept.
    pub kept: Option<Vec<Completion>>,
}

impl CompletionSink for CheckSink {
    fn record(&mut self, c: Completion, latency: Cycles) {
        self.latency.record(latency.get());
        self.met += u64::from(c.met_qos());
        self.hash.word(c.request.id);
        self.hash.word(c.finish.to_bits());
        self.hash.word(c.energy.as_pj().to_bits());
        if let Some(kept) = &mut self.kept {
            kept.push(c);
        }
    }
}

/// Engines built before the first event.
pub struct Setup {
    /// The Planaria node every workload runs.
    pub planaria: PlanariaEngine,
    /// The PREMA baseline node (figure-sweep only).
    pub prema: Option<PremaEngine>,
    /// Wall time of the cold `CompiledLibrary::new` calls.
    pub library_build_ns: u64,
}

impl Setup {
    /// Compiles, cold, every geometry `w` uses and builds its engines.
    pub fn build(w: Workload) -> Self {
        let t = Instant::now();
        let planaria_lib = CompiledLibrary::new(AcceleratorConfig::planaria());
        let prema_lib = (w == Workload::FigureSweep)
            .then(|| CompiledLibrary::new(AcceleratorConfig::monolithic()));
        let library_build_ns = ns_since(t);
        if let Some(lib) = &prema_lib {
            // Probe latencies from both systems share one sketch.
            assert_eq!(
                lib.config().freq_hz.to_bits(),
                planaria_lib.config().freq_hz.to_bits(),
                "the two systems must share a clock"
            );
        }
        Self {
            planaria: PlanariaEngine::with_library(planaria_lib),
            prema: prema_lib.map(|lib| PremaEngine::with_library(lib, Policy::Prema)),
            library_build_ns,
        }
    }

    fn freq_hz(&self) -> f64 {
        self.planaria.library().config().freq_hz
    }
}

/// The modelled outcome of one repetition (deterministic per seed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Requests retired.
    pub retired: u64,
    /// Retired requests that met their QoS bound.
    pub met: u64,
    /// p99 modelled latency, milliseconds.
    pub p99_ms: f64,
    /// Total modelled energy, joules.
    pub energy_j: f64,
    /// Fig. 12 grid `(planaria, prema)` max rates, figure-sweep only.
    pub grid: Vec<(f64, f64)>,
}

/// What a traced repetition measured beyond the bare one.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Wrapper spans.
    pub tally: Tally,
    /// The telemetry counters and histograms of every node.
    pub report: MetricsReport,
    /// Queue-wait samples caught by the collector taps, cycles.
    pub queue_wait: CycleSketch,
    /// Fabric round barriers and the host time between them.
    pub rounds: Span,
    /// Per-round host nanoseconds.
    pub round_ns: CycleSketch,
    /// Summed per-cell busy time of the figure grid.
    pub cell_busy_ns: u64,
}

/// One repetition's measurements.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall time of the simulation call(s).
    pub wall_ns: u64,
    /// Wall time of each separately timed part (one part but for
    /// serve-burst).
    pub parts_ns: Vec<u64>,
    /// Peak live heap above the floor during them.
    pub peak_bytes: u64,
    /// Requests fed to the simulator.
    pub attempted: u64,
    /// Kernel events, when the bare path exposes them.
    pub events: Option<u64>,
    /// Hash of everything the simulation produced.
    pub fingerprint: u64,
    /// The modelled outcome.
    pub outcome: Outcome,
    /// Traced-run extras.
    pub traced: Option<Traced>,
}

impl Rep {
    /// Kernel events: counted by the fabric, or one `reschedule` call per
    /// event on a traced single-node run.
    pub fn events(&self) -> Option<u64> {
        self.events.or_else(|| {
            self.traced
                .as_ref()
                .map(|t| t.tally.core_reschedule.calls + t.tally.prema_reschedule.calls)
        })
    }
}

/// Runs `f` once, returning its wall nanoseconds, peak heap and value.
fn measure<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let t = Instant::now();
    let (peak, r) = peak_during(f);
    (ns_since(t), peak, r)
}

/// Mixes a sketch through its public view: count, sum, extremes and
/// every percentile.
fn mix_sketch(m: &mut Mix, s: &CycleSketch) {
    m.word(s.count());
    m.word(s.sum() as u64);
    m.word((s.sum() >> 64) as u64);
    m.word(s.min().unwrap_or(0));
    m.word(s.max().unwrap_or(0));
    for p in 1..=100 {
        m.word(s.value_at_ratio(p, 100).unwrap_or(0));
    }
}

/// Mixes every counter, histogram and sketch of a telemetry report.
fn mix_report(m: &mut Mix, r: &MetricsReport) {
    for (c, v) in &r.counters {
        m.bytes(c.name().as_bytes());
        m.word(*v);
    }
    for (metric, h) in &r.histograms {
        m.bytes(metric.name().as_bytes());
        m.word(h.count);
        m.word(h.sum.to_bits());
        m.word(h.min.to_bits());
        m.word(h.max.to_bits());
        h.buckets.iter().for_each(|b| m.word(*b));
    }
    for (metric, s) in &r.sketches {
        m.bytes(metric.name().as_bytes());
        mix_sketch(m, s);
    }
    m.word(r.events);
}

fn p99_ms(sketch: &CycleSketch, freq_hz: f64) -> f64 {
    sketch
        .value_at_ratio(99, 100)
        .map_or(0.0, |c| Cycles::new(c).seconds_at(freq_hz) * 1e3)
}

/// Runs one repetition of `w` on `requests` requests (ignored by
/// figure-sweep) from `seed`.
pub fn rep(w: Workload, setup: &Setup, seed: u64, requests: usize, traced: bool) -> Rep {
    match w {
        Workload::ServeBurst => serve_burst(setup, seed, requests, traced),
        Workload::FleetJsq => fleet_jsq(setup, seed, requests, traced),
        Workload::FigureSweep => figure_sweep(setup, seed, traced),
    }
}

/// Independent traces serve-burst streams per repetition, each timed on
/// its own: a slow spell of the host then spoils a few short samples
/// instead of one long one (`wall_s` sums the per-part medians).
const SERVE_PARTS: u64 = 5;

fn serve_burst(setup: &Setup, seed: u64, requests: usize, traced: bool) -> Rep {
    let engine = &setup.planaria;
    let cfg = *engine.library().config();
    let per_part = requests / SERVE_PARTS as usize;
    let ledger = Ledger::default();
    let mut tap = Tap::new(StatsCollector::new());
    let mut sink = CheckSink::default();
    let mut m = Mix::default();
    let (mut parts_ns, mut peak_bytes, mut retired, mut energy_j) = (Vec::new(), 0, 0, 0.0);
    for part in 0..SERVE_PARTS {
        // Part k of seed s streams the trace of seed 5s + k.
        let tc = serve_trace(per_part, seed.wrapping_mul(SERVE_PARTS).wrapping_add(part));
        let (wall, peak, summary) = if traced {
            let mut policy = TimedPolicy::new(engine.spatial_policy(), PolicyLayer::Core, &ledger);
            measure(|| {
                run_streamed_sink(
                    &cfg,
                    TimedSource::new(tc.stream(), &ledger),
                    &mut policy,
                    &mut tap,
                    TimedSink::new(&mut sink, &ledger),
                )
                .1
            })
        } else {
            let mut policy = engine.spatial_policy();
            let bare_sink = std::mem::take(&mut sink);
            let (wall, peak, (bare_sink, summary)) = measure(|| {
                run_streamed_sink(
                    &cfg,
                    tc.stream(),
                    &mut policy,
                    &mut NullCollector,
                    bare_sink,
                )
            });
            sink = bare_sink;
            (wall, peak, summary)
        };
        parts_ns.push(wall);
        peak_bytes = peak_bytes.max(peak);
        retired += summary.completed;
        energy_j += summary.total_energy.to_joules();
        m.word(summary.completed);
        m.word(summary.total_energy.as_pj().to_bits());
        m.word(summary.makespan.to_bits());
    }
    m.word(sink.hash.get());
    m.word(sink.met);
    mix_sketch(&mut m, &sink.latency);
    Rep {
        wall_ns: parts_ns.iter().sum(),
        parts_ns,
        peak_bytes,
        attempted: per_part as u64 * SERVE_PARTS,
        events: None,
        fingerprint: m.get(),
        outcome: Outcome {
            retired,
            met: sink.met,
            p99_ms: p99_ms(&sink.latency, setup.freq_hz()),
            energy_j,
            grid: Vec::new(),
        },
        traced: traced.then(|| Traced {
            tally: ledger.into_tally(),
            report: tap.inner.report(),
            queue_wait: *tap.queue_wait,
            ..Traced::default()
        }),
    }
}

fn fleet_jsq(setup: &Setup, seed: u64, requests: usize, traced: bool) -> Rep {
    let engine = &setup.planaria;
    let cfgs = vec![*engine.library().config(); FLEET_NODES];
    let tuning = FabricTuning::default();
    let tc = fleet_trace(requests, seed);
    let mut dispatcher = ClusterDispatcher::new(
        engine.library(),
        FLEET_NODES,
        DispatchPolicy::JoinShortestQueue,
    );
    let (wall_ns, peak_bytes, summary, stats, reports, traced) = if traced {
        let ledger = Ledger::default();
        let policies: Vec<_> = (0..FLEET_NODES)
            .map(|_| TimedPolicy::new(engine.spatial_policy(), PolicyLayer::Core, &ledger))
            .collect();
        let taps: Vec<_> = (0..FLEET_NODES)
            .map(|_| Tap::new(StatsCollector::new()))
            .collect();
        let mut route = TimedDispatcher::new(&mut dispatcher, &ledger);
        let mut fabric = Tap::new(StatsCollector::new());
        let (wall, peak, (summary, stats, taps)) = measure(|| {
            run_fabric_summary(
                &cfgs,
                policies,
                TimedSource::new(tc.stream(), &ledger),
                &mut route,
                &tuning,
                &mut fabric,
                taps,
            )
        });
        drop(route);
        let mut queue_wait = CycleSketch::new();
        let mut reports = Vec::new();
        for tap in &taps {
            queue_wait.merge(&tap.queue_wait);
            reports.push(tap.inner.report());
        }
        let t = Traced {
            tally: ledger.into_tally(),
            queue_wait,
            rounds: fabric.rounds,
            round_ns: *fabric.round_ns,
            ..Traced::default()
        };
        (wall, peak, summary, stats, reports, Some(t))
    } else {
        let policies: Vec<_> = (0..FLEET_NODES).map(|_| engine.spatial_policy()).collect();
        let sinks: Vec<_> = (0..FLEET_NODES).map(|_| StatsCollector::new()).collect();
        let (wall, peak, (summary, stats, sinks)) = measure(|| {
            run_fabric_summary(
                &cfgs,
                policies,
                tc.stream(),
                &mut dispatcher,
                &tuning,
                &mut NullCollector,
                sinks,
            )
        });
        let reports = sinks.iter().map(StatsCollector::report).collect();
        (wall, peak, summary, stats, reports, None)
    };
    let mut merged = MetricsReport::default();
    for r in &reports {
        merged.merge(r);
    }
    let latency = merged
        .sketch(Metric::LatencyCycles)
        .cloned()
        .unwrap_or_default();
    let mut m = Mix::default();
    mix_report(&mut m, &merged);
    m.word(summary.completed);
    m.word(summary.total_energy.as_pj().to_bits());
    m.word(summary.makespan.to_bits());
    m.word(stats.events);
    m.word(stats.rounds);
    let traced = traced.map(|t| Traced {
        report: merged.clone(),
        ..t
    });
    Rep {
        wall_ns,
        parts_ns: vec![wall_ns],
        peak_bytes,
        attempted: requests as u64,
        events: Some(stats.events),
        fingerprint: m.get(),
        outcome: Outcome {
            retired: summary.completed,
            met: merged.counter(Counter::QosMet),
            p99_ms: p99_ms(&latency, setup.freq_hz()),
            energy_j: summary.total_energy.to_joules(),
            grid: Vec::new(),
        },
        traced,
    }
}

/// One grid cell's probes, folded in probe order (probes within a cell
/// run sequentially on the cell's worker).
#[derive(Debug, Default)]
struct CellAcc {
    attempted: u64,
    retired: u64,
    met: u64,
    energy_j: f64,
    latency: CycleSketch,
    hash: Mix,
    report: MetricsReport,
    queue_wait: CycleSketch,
}

/// Simulates one 400-request probe trace on `policy` and folds it into
/// `acc`; returns the completions for the SLA verdict.
fn simulate<P: EnginePolicy>(
    cfg: &AcceleratorConfig,
    tc: &TraceConfig,
    policy: P,
    layer: PolicyLayer,
    ledger: Option<&Ledger>,
    acc: &Mutex<CellAcc>,
) -> Vec<Completion> {
    let mut sink = CheckSink {
        kept: Some(Vec::with_capacity(tc.requests)),
        ..CheckSink::default()
    };
    let (summary, taps) = match ledger {
        None => {
            let trace = tc.generate();
            let mut policy = policy;
            let (s, summary) = run_streamed_sink(
                cfg,
                trace.iter().copied(),
                &mut policy,
                &mut NullCollector,
                sink,
            );
            sink = s;
            (summary, None)
        }
        Some(ledger) => {
            let t = Instant::now();
            let trace = tc.generate();
            let ns = ns_since(t);
            ledger.with(|tally| tally.generate.add(ns));
            let mut policy = TimedPolicy::new(policy, layer, ledger);
            let mut tap = Tap::new(StatsCollector::new());
            let (_, summary) = run_streamed_sink(
                cfg,
                TimedSource::new(trace.iter().copied(), ledger),
                &mut policy,
                &mut tap,
                TimedSink::new(&mut sink, ledger),
            );
            (summary, Some(tap))
        }
    };
    let mut acc = acc.lock().unwrap_or_else(PoisonError::into_inner);
    acc.attempted += tc.requests as u64;
    acc.retired += summary.completed;
    acc.met += sink.met;
    acc.energy_j += summary.total_energy.to_joules();
    acc.latency.merge(&sink.latency);
    acc.hash.word(sink.hash.get());
    acc.hash.word(summary.total_energy.as_pj().to_bits());
    acc.hash.word(summary.makespan.to_bits());
    if let Some(tap) = taps {
        acc.report.merge(&tap.inner.report());
        acc.queue_wait.merge(&tap.queue_wait);
    }
    sink.kept.unwrap_or_default()
}

/// One Fig. 12 probe: `system`'s node on trace `tc`.
fn probe(
    setup: &Setup,
    system: PolicyLayer,
    tc: &TraceConfig,
    ledger: Option<&Ledger>,
    acc: &Mutex<CellAcc>,
) -> Vec<Completion> {
    match system {
        PolicyLayer::Core => {
            let engine = &setup.planaria;
            let cfg = engine.library().config();
            simulate(cfg, tc, engine.spatial_policy(), system, ledger, acc)
        }
        PolicyLayer::Prema => {
            let engine = setup
                .prema
                .as_ref()
                .expect("figure-sweep setup builds the PREMA node");
            let cfg = engine.library().config();
            simulate(cfg, tc, engine.node_policy(), system, ledger, acc)
        }
    }
}

/// Max SLA-meeting rate of `system` on one cell, by the Fig. 12
/// bisection.
fn cell_throughput(
    setup: &Setup,
    system: PolicyLayer,
    (scenario, qos): (Scenario, QosLevel),
    seeds: &[u64],
    ledger: Option<&Ledger>,
    acc: &Mutex<CellAcc>,
) -> f64 {
    max_throughput(
        |lambda, seed| {
            let tc = TraceConfig::new(scenario, qos, lambda, TRACE_LEN, seed);
            probe(setup, system, &tc, ledger, acc)
        },
        seeds,
        THROUGHPUT_FLOOR,
        THROUGHPUT_CEIL,
        THROUGHPUT_ITERS,
    )
}

/// The Fig. 12 grid at `seed`'s probe seeds: `(planaria, prema)` per
/// cell, plus the folded probe accounting.
fn figure_sweep(setup: &Setup, seed: u64, traced: bool) -> Rep {
    let seeds = probe_seeds(seed);
    let ledger = traced.then(Ledger::default);
    let (wall_ns, peak_bytes, cells) = measure(|| {
        par_grid(|scenario, qos| {
            let t = Instant::now();
            let acc = Mutex::new(CellAcc::default());
            let (cell, l) = ((scenario, qos), ledger.as_ref());
            let p = cell_throughput(setup, PolicyLayer::Core, cell, &seeds, l, &acc);
            let r = cell_throughput(setup, PolicyLayer::Prema, cell, &seeds, l, &acc);
            let acc = acc.into_inner().unwrap_or_else(PoisonError::into_inner);
            (p, r, acc, ns_since(t))
        })
    });
    let mut m = Mix::default();
    let mut total = CellAcc::default();
    let mut outcome = Outcome::default();
    let mut cell_busy_ns = 0;
    for (_, (p, r, acc, busy)) in &cells {
        m.word(p.to_bits());
        m.word(r.to_bits());
        m.word(acc.hash.get());
        outcome.grid.push((*p, *r));
        cell_busy_ns += busy;
        total.attempted += acc.attempted;
        total.retired += acc.retired;
        total.met += acc.met;
        total.energy_j += acc.energy_j;
        total.latency.merge(&acc.latency);
        total.report.merge(&acc.report);
        total.queue_wait.merge(&acc.queue_wait);
    }
    outcome.retired = total.retired;
    outcome.met = total.met;
    outcome.p99_ms = p99_ms(&total.latency, setup.freq_hz());
    outcome.energy_j = total.energy_j;
    Rep {
        wall_ns,
        parts_ns: vec![wall_ns],
        peak_bytes,
        attempted: total.attempted,
        events: None,
        fingerprint: m.get(),
        outcome,
        traced: ledger.map(|l| Traced {
            tally: l.into_tally(),
            report: total.report,
            queue_wait: total.queue_wait,
            cell_busy_ns,
            ..Traced::default()
        }),
    }
}

/// The published Fig. 12 grid, `(planaria, prema)` per cell in grid
/// order, as the golden TSV prints them (one decimal).
pub fn golden_grid() -> Vec<(String, String)> {
    include_str!("../../results/golden/fig12_throughput.tsv")
        .lines()
        .skip(1)
        .filter_map(|line| {
            let cols: Vec<&str> = line.split('\t').collect();
            Some((cols.get(2)?.to_string(), cols.get(3)?.to_string()))
        })
        .collect()
}

/// Whether a swept grid prints identically to the golden grid.
pub fn grid_matches_golden(grid: &[(f64, f64)]) -> bool {
    let ours: Vec<(String, String)> = grid
        .iter()
        .map(|(p, r)| (format!("{p:.1}"), format!("{r:.1}")))
        .collect();
    ours == golden_grid()
}
