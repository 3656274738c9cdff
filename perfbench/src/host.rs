//! Host facts recorded with every run, the worker-count policy, and the
//! counting allocator behind `peak_heap_mb`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Byte-counting allocator: peak live heap is measured in-process, the
/// same way the kernel bench does, without OS-level RSS noise.
pub struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics (Relaxed, publishing no other data).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size() as u64;
        PEAK.fetch_max(
            LIVE.fetch_add(size, Ordering::Relaxed) + size,
            Ordering::Relaxed,
        );
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        let size = new_size as u64;
        PEAK.fetch_max(
            LIVE.fetch_add(size, Ordering::Relaxed) + size,
            Ordering::Relaxed,
        );
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Peak live heap bytes above the starting level while `f` runs.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let floor = LIVE.load(Ordering::Relaxed);
    PEAK.store(floor, Ordering::Relaxed);
    let r = f();
    (PEAK.load(Ordering::Relaxed).saturating_sub(floor), r)
}

/// Wall seconds one [`calibrate`] probe is normalized to: a normalized
/// timing reads as seconds on a host where the probe takes exactly this
/// long (about what it takes on the 2-core host the bounds were set on).
pub const CALIB_REF_S: f64 = 0.030;

/// Median wall seconds of a fixed host-speed probe, repeated until
/// `budget_s` has passed (at least once), each time on `threads` threads
/// at once (their mean). The probe is a small event-queue
/// simulation over a binary heap and a live list, then an ordered-map
/// churn. The code lives here, outside the simulator, so no change to the
/// program can move it; it is shaped like the simulator's hot loop so
/// that it slows down with it when the host gets slower.
pub fn calibrate(threads: usize, budget_s: f64) -> f64 {
    let start = std::time::Instant::now();
    let mut samples = vec![probe_on(threads)];
    while start.elapsed().as_secs_f64() < budget_s {
        samples.push(probe_on(threads));
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn probe_on(threads: usize) -> f64 {
    if threads <= 1 {
        return probe();
    }
    // A parallel workload is as fast as the cores it runs on: probe each
    // of them at once and average.
    let secs: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(probe)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration probe panicked"))
            .collect()
    });
    secs.iter().sum::<f64>() / secs.len() as f64
}

fn probe() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};
    use std::hint::black_box;
    let t = std::time::Instant::now();
    let mut x: u64 = 0x5ca1e;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 11
    };
    let mut heap = BinaryHeap::new();
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        let r = next();
        heap.push(Reverse((r >> 29, i)));
        live.push((r, i));
        if live.len() > 64 {
            live.swap_remove((r % 64) as usize);
        }
        for e in &mut live {
            if e.0 & 1 == 0 {
                e.0 = e.0.wrapping_add(e.1);
            } else {
                acc ^= e.0;
            }
        }
        if heap.len() > 512 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |Reverse((k, _))| k));
        }
    }
    let mut map = BTreeMap::new();
    for i in 0..100_000u64 {
        let r = next();
        map.insert(r >> 39, i);
        if i % 2 == 0 {
            map.remove(&((r >> 40) << 1));
        }
    }
    black_box((acc, map.len()));
    t.elapsed().as_secs_f64()
}

/// What a run records about the machine and build it ran on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical cores the OS reports.
    pub nproc: usize,
    /// `PLANARIA_JOBS` in force for the run.
    pub jobs: usize,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
}

impl Host {
    /// Reads the host facts and fixes the worker count: `PLANARIA_JOBS`
    /// when set, else `min(2, nproc)`. More workers than cores is refused,
    /// since oversubscribed timings measure the OS scheduler.
    pub fn detect() -> Result<Self, String> {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let env = std::env::var(planaria_parallel::JOBS_ENV).ok();
        let jobs = jobs_for(env.as_deref(), nproc)?;
        // Single-threaded here: no other thread reads the environment yet.
        std::env::set_var(planaria_parallel::JOBS_ENV, jobs.to_string());
        Ok(Self {
            nproc,
            jobs,
            commit: git_commit(),
            rustc: rustc_version(),
        })
    }
}

/// The worker count for a `PLANARIA_JOBS` value on an `nproc`-core host.
pub fn jobs_for(env: Option<&str>, nproc: usize) -> Result<usize, String> {
    let jobs = match env {
        Some(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("PLANARIA_JOBS={v:?} is not a positive integer"))?,
        None => nproc.min(2),
    };
    if jobs > nproc {
        return Err(format!(
            "refusing PLANARIA_JOBS={jobs}: the host has only {nproc} logical cores"
        ));
    }
    Ok(jobs)
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, no search above the checkout); `unknown` when the
/// checkout is not a git work tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
