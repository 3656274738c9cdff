//! Million-request scale path: full-rescan Algorithm 1 vs the
//! incremental id-keyed dirty-set scheduler, at 10^4 / 10^5 / 10^6
//! requests.
//!
//! The workload is a bursty QoS-Hard Scenario-C trace: bursts pile up
//! queued tenants whose work counters are frozen between events, so
//! every scheduling event re-estimates a mostly-unchanged population —
//! the regime the `SchedState` band fastpath targets. The full-rescan
//! oracle pays a fresh `ESTIMATERESOURCES` table scan per tenant per
//! event; the incremental scheduler answers clean tenants from the
//! memoized floor with zero table lookups. Both paths are result-exact
//! (asserted below on every size; pinned precisely by
//! `tests/incremental_equivalence.rs`).
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
use planaria_compiler::CompiledLibrary;
use planaria_core::PlanariaEngine;
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

/// Runs `f` `iters` times and returns mean seconds per iteration.
fn time_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    f(); // warmup (also warms the compiled tables)
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

fn main() {
    let smoke = std::env::var("PLANARIA_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let full = PlanariaEngine::with_library(library.clone()).with_incremental(false);
    let inc = PlanariaEngine::with_library(library).with_incremental(true);

    let sizes: &[(usize, u32)] = if smoke {
        &[(2_000, 2)]
    } else {
        &[(10_000, 4), (100_000, 2), (1_000_000, 1)]
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
        let t_full = time_per_iter(iters, || {
            black_box(full.run(black_box(&trace)));
        });
        let t_inc = time_per_iter(iters, || {
            black_box(inc.run(black_box(&trace)));
        });
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
        record.push((format!("full_rescan_events_per_s_{n}"), ev_full));
        record.push((format!("incremental_events_per_s_{n}"), ev_inc));
        record.push((format!("speedup_{n}"), speedup));
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
