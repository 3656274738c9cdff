//! One benchmark run: set up, check, repeat for the time budget, and
//! reduce the repetitions to named metrics.

use crate::host::{calibrate, CALIB_REF_S};
use crate::layers::ns_since;
use crate::workloads::{self, Rep, Setup, Workload};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Host-speed probing time per repetition, as a share of its wall time.
const PROBE_SHARE: f64 = 0.05;
/// Fewest timed repetitions per lane, whatever the time budget.
const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Whether to report the traced run's per-layer metrics.
    pub trace: bool,
    /// Requests per repetition.
    pub requests: usize,
    /// The recorded fingerprint for this seed and size, if any.
    pub expected: Option<u64>,
    /// Worker threads in force.
    pub jobs: usize,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every check passed.
    pub correct: bool,
    /// Requests attempted over all simulations of the run.
    pub attempted: u64,
    /// Requests not retired, plus every request of a failed check.
    pub failed: u64,
    /// The metrics of the requested mode.
    pub metrics: Vec<Metric>,
    /// Results printed but not listed in `BENCHMARK.json`.
    pub extra: Vec<Metric>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Wall seconds of every bare repetition, in run order.
    pub bare_walls: Vec<f64>,
    /// Wall seconds of every traced repetition, in run order.
    pub traced_walls: Vec<f64>,
}

/// Median of a non-empty list.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Tracks attempts and failures across the checks of a run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Checks one repetition: every request retired exactly once, and the
    /// fingerprint equal to each reference given.
    fn rep(&mut self, what: &str, rep: &Rep, refs: &[(&str, Option<u64>)], other: Option<String>) {
        self.attempted += rep.attempted;
        let mut ok = other.is_none();
        self.problems.extend(other.map(|p| format!("{what}: {p}")));
        if rep.outcome.retired != rep.attempted {
            ok = false;
            self.problems.push(format!(
                "{what}: {} of {} requests retired",
                rep.outcome.retired, rep.attempted
            ));
        }
        for (name, want) in refs {
            if let Some(want) = want {
                if rep.fingerprint != *want {
                    ok = false;
                    self.problems.push(format!(
                        "{what}: fingerprint {:016x} != {name} {want:016x}",
                        rep.fingerprint
                    ));
                }
            }
        }
        self.failed += if ok {
            rep.attempted.saturating_sub(rep.outcome.retired)
        } else {
            rep.attempted
        };
    }
}

/// Runs `spec` and reduces it to metrics.
pub fn run(spec: &Spec) -> Report {
    let w = spec.workload;
    let mut setup_s = Vec::new();
    let mut setup_probes = Vec::new();
    let mut build_ms = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        setup_probes.push(calibrate(spec.jobs, 0.0));
        let t = Instant::now();
        let s = Setup::build(w);
        setup_s.push(ns_since(t) as f64 * 1e-9);
        build_ms.push(s.library_build_ns as f64 * 1e-6);
        setup = Some(s);
    }
    let setup = setup.expect("SETUP_REPEATS is positive");
    // Threads the workload keeps busy, for the host-speed probe.
    let threads = if w == Workload::ServeBurst {
        1
    } else {
        spec.jobs
    };
    let mut checks = Checks::default();
    let one = |traced: bool| workloads::rep(w, &setup, spec.seed, spec.requests, traced);

    if w == Workload::FigureSweep {
        // The published grid, value for value, at the figure's own seeds.
        let golden = workloads::rep(w, &setup, 0, spec.requests, false);
        let differs = !workloads::grid_matches_golden(&golden.outcome.grid);
        let problem =
            differs.then(|| "grid differs from results/golden/fig12_throughput.tsv".into());
        checks.rep("golden sweep", &golden, &[], problem);
    }

    // The warm-up is a traced repetition: it counts kernel events for the
    // bare lane and fixes the reference every later repetition must hit.
    let warm = one(true);
    checks.rep(
        "warm-up (traced)",
        &warm,
        &[("expected", spec.expected)],
        None,
    );
    let reference = Some(warm.fingerprint);

    let mut bare: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut probes = Vec::new();
    let start = Instant::now();
    loop {
        let enough = bare.len() >= MIN_REPS && (!spec.trace || traced.len() >= MIN_REPS);
        if enough && start.elapsed().as_secs_f64() >= spec.seconds {
            break;
        }
        // Probe for a twentieth of a repetition, so a long repetition is
        // matched by a steadier speed estimate.
        let last = bare.last().unwrap_or(&warm).wall_ns as f64 * 1e-9;
        probes.push(calibrate(threads, last * PROBE_SHARE));
        let r = one(false);
        let refs = [("traced warm-up", reference), ("expected", spec.expected)];
        checks.rep("bare repetition", &r, &refs, None);
        bare.push(r);
        if spec.trace {
            let r = one(true);
            let refs = [("traced warm-up", reference), ("expected", spec.expected)];
            checks.rep("traced repetition", &r, &refs, None);
            traced.push(r);
        }
    }

    // Host-speed normalization: each timing is divided by the probe run
    // just before it, so a host that is slower for a while stretches both.
    let normalized = |secs: &mut dyn Iterator<Item = f64>, probes: &[f64]| {
        median(secs.zip(probes).map(|(s, p)| s / p * CALIB_REF_S).collect())
    };
    let part_s = |k: usize| bare.iter().map(move |r| r.parts_ns[k] as f64 * 1e-9);
    let wall_s: f64 = (0..bare[0].parts_ns.len())
        .map(|k| normalized(&mut part_s(k), &probes))
        .sum();
    let walls: Vec<f64> = bare.iter().map(|r| r.wall_ns as f64 * 1e-9).collect();
    let events = bare[0].events().or(warm.events()).unwrap_or(0) as f64;
    let o = &warm.outcome;
    let retired = o.retired.max(1) as f64;
    let mut extra = Vec::new();
    if !o.grid.is_empty() {
        let n = o.grid.len() as f64;
        let geo = |f: &dyn Fn(&(f64, f64)) -> f64| {
            (o.grid.iter().map(|c| f(c).ln()).sum::<f64>() / n).exp()
        };
        extra.push(metric("sim_max_qps_geomean", geo(&|c| c.0), "q/s"));
        extra.push(metric("sim_qps_ratio_vs_prema", geo(&|c| c.0 / c.1), "x"));
    }
    let metrics = if spec.trace {
        let (metrics, uncovered) = per_layer(spec, &bare, &traced, median(build_ms));
        checks.problems.extend(uncovered);
        metrics
    } else {
        vec![
            metric("wall_s", wall_s, "s"),
            metric("events_per_s", events / wall_s, "ev/s"),
            metric(
                "peak_heap_mb",
                median(bare.iter().map(|r| r.peak_bytes as f64 * 1e-6).collect()),
                "MB",
            ),
            metric(
                "setup_s",
                normalized(&mut setup_s.iter().copied(), &setup_probes),
                "s",
            ),
            metric("sim_sla_met_frac", o.met as f64 / retired, "ratio"),
            metric("sim_p99_latency_ms", o.p99_ms, "ms"),
            metric("sim_energy_mj_per_req", o.energy_j * 1e3 / retired, "mJ"),
        ]
    };
    extra.push(metric("raw_wall_s", median(walls), "s"));
    extra.push(metric("raw_setup_s", median(setup_s), "s"));
    extra.push(metric("calibration_s", median(probes), "s"));
    extra.push(metric(
        "failed_frac",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "ratio",
    ));
    Report {
        correct: checks.failed == 0 && checks.problems.is_empty(),
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        extra,
        problems: checks.problems,
        bare_walls: bare.iter().map(|r| r.wall_ns as f64 * 1e-9).collect(),
        traced_walls: traced.iter().map(|r| r.wall_ns as f64 * 1e-9).collect(),
    }
}

/// Share of the traced wall time by which the wrapper spans may exceed
/// it (clock granularity) before the attribution counts as broken.
pub const COVER_TOLERANCE: f64 = 0.01;

/// The traced run's per-layer metrics, from the traced repetition with
/// the median wall time, plus a problem when the spans do not fit inside
/// the wall time they claim to divide (`sim.kernel_self_ns` below
/// `-COVER_TOLERANCE` of it).
fn per_layer(
    spec: &Spec,
    bare: &[Rep],
    traced: &[Rep],
    library_build_ms: f64,
) -> (Vec<Metric>, Option<String>) {
    let mut order: Vec<&Rep> = traced.iter().collect();
    order.sort_by_key(|r| r.wall_ns);
    let rep = order[order.len() / 2];
    let t = rep
        .traced
        .as_ref()
        .expect("traced repetitions carry a trace");
    let l = &t.tally;
    let jobs = spec.jobs as f64;
    let wall = rep.wall_ns as f64;
    let events = rep.events().unwrap_or(0) as f64;
    let retired = rep.outcome.retired.max(1) as f64;
    let serial = (l.route.ns + l.source.ns) as f64;
    let spans = (l.policy_ns() + l.sink.ns + l.source.ns + l.route.ns + l.generate.ns) as f64;
    let (kernel_self, round_overhead, grid_eff, covered) = match spec.workload {
        Workload::ServeBurst => (wall - spans, 0.0, 0.0, wall),
        Workload::FleetJsq => {
            // Node policies run on `jobs` workers at once; route and the
            // arrival source run serially between rounds.
            let nodes = l.policy_ns() as f64 / jobs;
            let overhead = t.rounds.ns as f64 - serial - nodes;
            (wall - serial - nodes, overhead, 0.0, wall)
        }
        Workload::FigureSweep => {
            let busy = t.cell_busy_ns as f64;
            (busy - spans, 0.0, busy / (wall * jobs), busy)
        }
    };
    let q =
        |s: &planaria_telemetry::CycleSketch, p: u64| s.value_at_ratio(p, 100).unwrap_or(0) as f64;
    let r = &t.report;
    use planaria_telemetry::{Counter, Metric as M};
    let hist = |m: M| r.histogram(m).copied().unwrap_or_default();
    let bare_wall = median(bare.iter().map(|r| r.wall_ns as f64).collect());
    let traced_wall = median(traced.iter().map(|r| r.wall_ns as f64).collect());
    let uncovered = (kernel_self < -COVER_TOLERANCE * covered).then(|| {
        format!(
            "traced spans exceed the {covered:.0} ns they divide by {:.0} ns",
            -kernel_self
        )
    });
    let metrics = vec![
        metric(
            "core.reschedule_calls",
            l.core_reschedule.calls as f64,
            "count",
        ),
        metric("core.reschedule_ns", l.core_reschedule.ns as f64, "ns"),
        metric("core.reschedule_ns_p50", q(&l.core_reschedule_ns, 50), "ns"),
        metric("core.reschedule_ns_p99", q(&l.core_reschedule_ns, 99), "ns"),
        metric(
            "prema.reschedule_calls",
            l.prema_reschedule.calls as f64,
            "count",
        ),
        metric("prema.reschedule_ns", l.prema_reschedule.ns as f64, "ns"),
        metric("sim.events", events, "count"),
        metric("sim.events_per_request", events / retired, "ev/req"),
        metric("sim.kernel_self_ns", kernel_self, "ns"),
        metric("sim.fabric_rounds", t.rounds.calls as f64, "count"),
        metric("sim.round_ns_p50", q(&t.round_ns, 50), "ns"),
        metric("sim.round_ns_p99", q(&t.round_ns, 99), "ns"),
        metric("sim.round_overhead_ns", round_overhead, "ns"),
        metric("core.route_calls", l.route.calls as f64, "count"),
        metric("core.route_ns", l.route.ns as f64, "ns"),
        metric("parallel.grid_efficiency", grid_eff, "ratio"),
        metric("workload.source_ns", l.source.ns as f64, "ns"),
        metric("workload.generate_ns", l.generate.ns as f64, "ns"),
        metric("workload.sink_record_ns", l.sink.ns as f64, "ns"),
        metric("compiler.library_build_ms", library_build_ms, "ms"),
        metric("compiler.compiled_for_ns", l.compiled_for.ns as f64, "ns"),
        metric(
            "model.scheduling_events",
            r.counter(Counter::SchedulingEvents) as f64,
            "count",
        ),
        metric(
            "model.reconfigurations",
            r.counter(Counter::Reconfigurations) as f64,
            "count",
        ),
        metric(
            "model.reconfig_cycles",
            hist(M::ReconfigCycles).sum,
            "cycles",
        ),
        metric(
            "model.preemptions",
            r.counter(Counter::Preemptions) as f64,
            "count",
        ),
        metric(
            "model.occupancy_pct_mean",
            hist(M::OccupancyPct).mean(),
            "%",
        ),
        metric(
            "model.queue_wait_p99_cycles",
            q(&t.queue_wait, 99),
            "cycles",
        ),
        metric(
            "telemetry.trace_overhead_pct",
            (traced_wall / bare_wall - 1.0) * 100.0,
            "%",
        ),
    ];
    (metrics, uncovered)
}
