//! Million-request scale path: full-rescan Algorithm 1 vs the
//! incremental scheduler, at 10^4 / 10^5 / 10^6 requests.
//!
//! The workload is a bursty QoS-Hard Scenario-C trace: bursts pile up
//! queued tenants whose work counters are frozen between events, so
//! every scheduling event re-estimates a mostly-unchanged population —
//! the regime the estimate memo on each tenant record targets. The
//! full-rescan oracle pays a fresh `ESTIMATERESOURCES` table scan per
//! tenant per event; the incremental scheduler answers clean tenants
//! from the memoized floor with zero table lookups. Both lanes share the
//! packing-prefix allocator and the movers-only placement, so the ratio
//! isolates the memo. Both paths are result-exact (asserted below on
//! every size; pinned precisely by `tests/incremental_equivalence.rs`).
//!
//! The lanes run interleaved, one iteration each in turn, and each
//! reports the median of its iterations. The bench fails if the
//! incremental lane is not at least [`MIN_SPEEDUP`] times faster: an
//! exactness test cannot see a memo that silently stops hitting, but
//! this ratio against the in-run baseline can.
//!
//! Two overload lanes race the incremental scheduler against itself at n
//! and 4n requests. The QoS-Hard lane runs the same trace shape at
//! λ = 1000, about 1.5 times what one node serves: the backlog grows for
//! the whole trace and nearly all of it waits past its deadline, parked.
//! The QoS-Soft lane runs it at λ = 2000: the backlog keeps slack for
//! longer, so it waits in deadline order and the unfit pack visits only
//! its head. Three more lanes run the QoS-Hard trace on the PREMA
//! baseline's monolithic chip under PREMA's token policy, FCFS and SJF:
//! one runner, and every queued tenant asleep under its rank. Sleeping
//! tenants stay out of every per-event pass, so time grows linearly
//! (about 4× at 4n); if an event walked the backlog again it would grow
//! with the square (about 16×). The bench fails above
//! [`MAX_OVERLOAD_GROWTH`] in any lane.
//!
//! The bench also measures the streaming side of the tentpole with a
//! counting global allocator: a 10^6-request streamed `run` must keep its
//! peak resident bytes far below the materialized trace. The counter adds
//! two relaxed atomics per allocation — noise-free here precisely because
//! the steady-state event loop does not allocate.
//!
//! Writes `results/BENCH_scale.json`. `PLANARIA_BENCH_SMOKE=1` runs a
//! small size only (CI smoke) and does not overwrite the JSON record.

use planaria_arch::AcceleratorConfig;
use planaria_bench::race;
use planaria_compiler::CompiledLibrary;
use planaria_core::{PlanariaEngine, SchedulingMode};
use planaria_prema::{Policy, PremaEngine};
use planaria_workload::{QosLevel, Request, Scenario, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Byte-counting allocator so the streamed run's peak residency is
/// measured in-process, without OS-level RSS noise.
struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(new_size as u64, Ordering::Relaxed) + new_size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Peak live bytes above the starting level during `f`.
fn peak_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let floor = LIVE.load(Ordering::Relaxed);
    PEAK.store(floor, Ordering::Relaxed);
    let r = f();
    (PEAK.load(Ordering::Relaxed).saturating_sub(floor), r)
}

/// Bursty high-churn trace: Scenario C's heavy mixed models at QoS-H and
/// λ = 500 req/s with burstiness 6. Tight deadlines under burst
/// contention keep a deep backlog of queued tenants whose work counters
/// are frozen — the clean majority the dirty-set scheduler answers from
/// the memo while the full rescan re-scans every table.
fn scale_cfg(requests: usize) -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, requests, 0x5ca1e).with_burstiness(6.0)
}

/// The least incremental-over-rescan speedup either mode accepts. Smoke
/// mode (2 000 requests, median of 7 per lane) read 2.32× to 2.92× over
/// 25 runs on a 2-core x86-64 host; a memo that never hits reads about
/// 1×.
const MIN_SPEEDUP: f64 = 1.5;

/// The overload lanes, with their record-key prefixes: the same trace
/// shape at QoS-Hard and λ = 1000 (a parked backlog), and at QoS-Soft and
/// λ = 2000 (a waiting one).
const OVERLOAD_LANES: [(QosLevel, f64, &str); 2] = [
    (QosLevel::Hard, 1000.0, "overload"),
    (QosLevel::Soft, 2000.0, "overload_soft"),
];

/// An overload lane's trace.
fn overload_cfg(qos: QosLevel, lambda: f64, requests: usize) -> TraceConfig {
    TraceConfig::new(Scenario::C, qos, lambda, requests, 5).with_burstiness(6.0)
}

/// The PREMA baseline's overload lanes, with their record-key prefixes:
/// each policy on the QoS-Hard overload trace.
const TEMPORAL_LANES: [(Policy, &str); 3] = [
    (Policy::Prema, "prema_overload"),
    (Policy::Fcfs, "fcfs_overload"),
    (Policy::Sjf, "sjf_overload"),
];

/// The most an overload lane's time may grow from n to 4n requests:
/// linear reads about 4, quadratic about 16.
const MAX_OVERLOAD_GROWTH: f64 = 8.0;

/// Races `run` on `small` (n requests) against `large` (4n), asserts the
/// growth gate and records the lane under `prefix`.
fn overload_lane(
    label: &str,
    prefix: &str,
    (small, large): (&[Request], &[Request]),
    iters: u32,
    run: impl Fn(&[Request]),
    record: &mut Vec<(String, f64)>,
) {
    let (n, n4) = (small.len(), large.len());
    let (t_n, t_4n) = race(iters, || run(black_box(small)), || run(black_box(large)));
    let growth = t_4n / t_n;
    println!(
        "overload {label}: {n} requests {t_n:.4} s, {n4} requests {t_4n:.4} s, \
         growth {growth:.2}x"
    );
    assert!(
        growth <= MAX_OVERLOAD_GROWTH,
        "{label} overload time grew {growth:.2}x from {n} to {n4} requests (at most \
         {MAX_OVERLOAD_GROWTH}x): does a scheduling event walk the backlog again?"
    );
    record.push((format!("{prefix}_seconds_{n}"), t_n));
    record.push((format!("{prefix}_seconds_{n4}"), t_4n));
    record.push((format!("{prefix}_growth_{n}_to_{n4}"), growth));
}

fn main() {
    let smoke = std::env::var("PLANARIA_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let full = PlanariaEngine::with_library(library.clone()).with_mode(SchedulingMode::FullRescan);
    let inc = PlanariaEngine::with_library(library);

    let sizes: &[(usize, u32)] = if smoke {
        &[(2_000, 7)]
    } else {
        &[(10_000, 7), (100_000, 5), (1_000_000, 5)]
    };

    let mut record: Vec<(String, f64)> = Vec::new();
    println!(
        "{:<10} {:>15} {:>15} {:>9}",
        "requests", "rescan ev/s", "increm ev/s", "speedup"
    );
    for &(n, iters) in sizes {
        let cfg = scale_cfg(n);
        let trace = cfg.generate();
        let events = 2.0 * n as f64; // one arrival + one completion each
        let (t_full, t_inc) = race(
            iters,
            || {
                black_box(full.run(black_box(&trace)));
            },
            || {
                black_box(inc.run(black_box(&trace)));
            },
        );
        // Result-exactness guard: the bench must never drift into racing
        // two different simulations.
        let (rf, ri) = (full.run(&trace), inc.run(&trace));
        assert_eq!(
            rf.completions, ri.completions,
            "incremental diverged from full rescan at n={n}"
        );
        assert_eq!(rf.total_energy, ri.total_energy, "n={n}");
        let (ev_full, ev_inc) = (events / t_full, events / t_inc);
        let speedup = t_full / t_inc;
        println!("{n:<10} {ev_full:>15.1} {ev_inc:>15.1} {speedup:>8.2}x");
        assert!(
            speedup >= MIN_SPEEDUP,
            "incremental lane only {speedup:.2}x the full rescan at n={n} \
             (needs {MIN_SPEEDUP}x): is the estimate memo still hitting?"
        );
        record.push((format!("full_rescan_events_per_s_{n}"), ev_full));
        record.push((format!("incremental_events_per_s_{n}"), ev_inc));
        record.push((format!("speedup_{n}"), speedup));
    }

    // Overload scaling: each lane against itself at n and 4n.
    let (n, iters) = if smoke { (2_500, 7) } else { (10_000, 5) };
    for (qos, lambda, prefix) in OVERLOAD_LANES {
        let small = overload_cfg(qos, lambda, n).generate();
        let large = overload_cfg(qos, lambda, 4 * n).generate();
        overload_lane(
            &format!("{qos} λ={lambda}"),
            prefix,
            (&small, &large),
            iters,
            |trace| {
                black_box(inc.run(trace));
            },
            &mut record,
        );
        if qos != QosLevel::Hard {
            continue;
        }
        for (policy, prefix) in TEMPORAL_LANES {
            let engine = PremaEngine::new(AcceleratorConfig::monolithic(), policy);
            overload_lane(
                &format!("{policy:?} {qos} λ={lambda}"),
                prefix,
                (&small, &large),
                iters,
                |trace| {
                    black_box(engine.run(trace));
                },
                &mut record,
            );
        }
    }

    // Streaming residency at the largest size: the trace is consumed
    // lazily, so peak live bytes must sit far below the materialized
    // trace (the dominant resident term is the completions output).
    let (n_stream, _) = *sizes.last().expect("sizes is non-empty");
    let cfg = scale_cfg(n_stream);
    let trace_bytes = (n_stream * std::mem::size_of::<Request>()) as u64;
    let start = Instant::now();
    let (peak_streamed, rs) = peak_during(|| inc.run(cfg.stream()));
    let t_streamed = start.elapsed().as_secs_f64();
    assert_eq!(rs.completions.len(), n_stream);
    let ev_streamed = 2.0 * n_stream as f64 / t_streamed;
    println!(
        "streamed {n_stream}: {ev_streamed:.1} ev/s, peak {peak_streamed} B \
         (materialized trace alone: {trace_bytes} B)"
    );
    record.push((format!("streamed_events_per_s_{n_stream}"), ev_streamed));
    record.push((
        format!("streamed_peak_bytes_{n_stream}"),
        peak_streamed as f64,
    ));
    record.push((format!("trace_bytes_{n_stream}"), trace_bytes as f64));

    if smoke {
        println!("[smoke mode: results/BENCH_scale.json left untouched]");
        return;
    }
    let mut s = String::from("{\n");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(s, "  \"host_logical_cores\": {cores},");
    for (i, (k, v)) in record.iter().enumerate() {
        let comma = if i + 1 == record.len() { "" } else { "," };
        let _ = writeln!(s, "  \"{k}\": {v:.3}{comma}");
    }
    s.push_str("}\n");
    let path = planaria_bench::results_dir().join("BENCH_scale.json");
    match std::fs::create_dir_all(planaria_bench::results_dir())
        .and_then(|()| std::fs::write(&path, s))
    {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
