//! Kernel hot-path race: the oracle kernel (`planaria_sim::oracle`: a
//! binary heap of completion estimates invalidated lazily by per-tenant
//! epochs, an unconditional retire scan) vs the production kernel (wake
//! at the earlier of the pending arrival and the minimum `now +
//! remaining` over running tenants, retire scan only when a completion
//! is due), at 10^4 / 10^5 / 10^6 bursty requests.
//!
//! Both lanes drive the production `spatial_policy()`, so they differ
//! only in how they find the next wake-up and when they scan for
//! retirements: the reported speedup races the kernel's one minimum
//! against the oracle's heap, not the scheduler.
//!
//! The workload is the scale bench's bursty QoS-Hard Scenario-C trace:
//! bursts keep a deep backlog of queued tenants and every scheduling
//! event re-estimates completion times. Each re-estimate pushes a fresh
//! heap entry in the oracle and strands the old one until it pops; the
//! kernel folds the same estimates into the minimum it takes in its
//! refresh pass. Both paths are result-exact (asserted below on every
//! size; pinned precisely by `tests/kernel_equivalence.rs`).
//!
//! The lanes run interleaved, one iteration each in turn (after one
//! warmup each), and each reports the median of its iterations, so the
//! ratio repeats on a shared host.
//!
//! The bench also drives the flat-memory path end to end: a
//! 10^7-request run streamed into a `DiscardSink` must complete every
//! request, and its peak residency (counting allocator) is recorded
//! beside the bytes its completions vector alone would take.
//!
//! Writes `results/BENCH_kernel.json`. `PLANARIA_BENCH_SMOKE=1` runs
//! small sizes only (CI smoke) and does not overwrite the JSON record.

use planaria_arch::AcceleratorConfig;
use planaria_bench::race;
use planaria_compiler::CompiledLibrary;
use planaria_core::PlanariaEngine;
use planaria_sim::oracle::run_streamed_reference;
use planaria_sim::run_streamed_sink;
use planaria_telemetry::NullCollector;
use planaria_workload::{Completion, DiscardSink, QosLevel, Scenario, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Byte-counting allocator so the streamed run's peak residency is measured
/// in-process, without OS-level RSS noise.
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

/// The scale bench's bursty high-churn trace (see `benches/scale.rs`):
/// deep backlogs maximize re-estimation churn.
fn bursty_cfg(requests: usize) -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, requests, 0x5ca1e).with_burstiness(6.0)
}

fn main() {
    let smoke = std::env::var("PLANARIA_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let engine = PlanariaEngine::with_library(library);
    let cfg = *engine.library().config();

    let sizes: &[(usize, u32)] = if smoke {
        &[(2_000, 5)]
    } else {
        &[(10_000, 7), (100_000, 5), (1_000_000, 3)]
    };

    let mut record: Vec<(String, f64)> = Vec::new();
    println!(
        "{:<10} {:>15} {:>15} {:>9}",
        "requests", "oracle ev/s", "kernel ev/s", "speedup"
    );
    for &(n, iters) in sizes {
        let trace = bursty_cfg(n).generate();
        let events = 2.0 * n as f64; // one arrival + one completion each
        let (t_oracle, t_kernel) = race(
            iters,
            || {
                let mut policy = engine.spatial_policy();
                black_box(run_streamed_reference(
                    &cfg,
                    black_box(&trace),
                    &mut policy,
                    &mut NullCollector,
                ));
            },
            || {
                black_box(engine.run(black_box(&trace)));
            },
        );
        // Exactness guard: the bench must never drift into racing two
        // different simulations.
        let mut policy = engine.spatial_policy();
        let reference = run_streamed_reference(&cfg, &trace, &mut policy, &mut NullCollector);
        let kernel = engine.run(&trace);
        assert_eq!(
            reference.completions, kernel.completions,
            "kernel diverged from the reference at n={n}"
        );
        assert_eq!(reference.digest(), kernel.digest(), "n={n}");
        let (ev_oracle, ev_kernel) = (events / t_oracle, events / t_kernel);
        let speedup = t_oracle / t_kernel;
        println!("{n:<10} {ev_oracle:>15.1} {ev_kernel:>15.1} {speedup:>8.2}x");
        record.push((format!("oracle_events_per_s_{n}"), ev_oracle));
        record.push((format!("kernel_events_per_s_{n}"), ev_kernel));
        record.push((format!("speedup_{n}"), speedup));
    }

    // Flat-memory ceiling: a streamed run at the largest scale that
    // keeps no completion. Its peak residency is recorded beside what
    // the in-memory completions vector alone would take (~48 B x n).
    let n_streamed = if smoke { 20_000 } else { 10_000_000 };
    let streamed_cfg = bursty_cfg(n_streamed);
    let vec_bytes = (n_streamed * std::mem::size_of::<Completion>()) as u64;
    let start = Instant::now();
    let (peak, (DiscardSink, summary)) = peak_during(|| {
        let mut policy = engine.spatial_policy();
        run_streamed_sink(
            &cfg,
            streamed_cfg.stream(),
            &mut policy,
            &mut NullCollector,
            DiscardSink,
        )
    });
    let t_streamed = start.elapsed().as_secs_f64();
    assert_eq!(summary.completed, n_streamed as u64);
    let ev_streamed = 2.0 * n_streamed as f64 / t_streamed;
    println!(
        "streamed {n_streamed}: {ev_streamed:.1} ev/s, peak {peak} B \
         (in-memory completions alone: {vec_bytes} B)"
    );
    record.push((format!("streamed_events_per_s_{n_streamed}"), ev_streamed));
    record.push((format!("streamed_peak_bytes_{n_streamed}"), peak as f64));
    record.push((
        format!("in_memory_completions_bytes_{n_streamed}"),
        vec_bytes as f64,
    ));

    if smoke {
        println!("[smoke mode: results/BENCH_kernel.json left untouched]");
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
    let path = planaria_bench::results_dir().join("BENCH_kernel.json");
    match std::fs::create_dir_all(planaria_bench::results_dir())
        .and_then(|()| std::fs::write(&path, s))
    {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
