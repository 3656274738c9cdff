//! `planaria-parallel`: a zero-dependency, std-only deterministic parallel
//! loop built on [`std::thread::scope`].
//!
//! # Determinism contract
//!
//! [`par_for_each_mut`] hands each item of a slice, by `&mut`, to exactly
//! one worker, so every item ends in the same state at `jobs = 1` and
//! `jobs = N` as long as the closure touches nothing but its item (no
//! shared mutable state, no clocks, no ambient entropy) — exactly the
//! property `planaria-checks` lints L2 and L4 enforce on the simulation
//! crates that call into this one. [`par_map`] is a wrapper that maps each
//! item into its own result slot, so it returns results **in input-index
//! order regardless of scheduling**.
//!
//! # Job-count selection
//!
//! The worker count defaults to [`std::thread::available_parallelism`] and
//! is overridable with the `PLANARIA_JOBS` environment variable
//! ([`effective_jobs`]). `PLANARIA_JOBS=1` (or one available core) runs
//! every item inline on the caller's thread — no threads are spawned at
//! all, which doubles as the reference execution for determinism checks.
//!
//! # Nesting
//!
//! Calls nested inside a worker run inline instead of spawning a second
//! generation of threads, so fan-out is bounded by the outermost call's
//! `jobs` even when parallel helpers compose (e.g. a benchmark grid that
//! fans out over scenarios whose rows each fan out over seeds).
//!
//! # Panics
//!
//! A panic in the closure propagates to the caller (via
//! [`std::thread::scope`]'s implicit join), the same observable behaviour
//! as the serial loop.
//!
//! ```
//! use planaria_parallel::{par_for_each_mut, par_map};
//!
//! let squares = par_map((0u64..8).collect(), 4, |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! let mut counters = vec![0u64; 8];
//! par_for_each_mut(&mut counters, 4, |c| *c += 1);
//! assert_eq!(counters, vec![1; 8]);
//! ```

use std::cell::Cell;
use std::sync::{Mutex, Once, PoisonError};

/// Environment variable overriding the worker count.
pub const JOBS_ENV: &str = "PLANARIA_JOBS";

thread_local! {
    /// Set while the current thread is a pool worker; nested calls run
    /// inline instead of spawning a second generation of threads.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The worker count to use by default: `PLANARIA_JOBS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 when the host cannot report it). An invalid value
/// is warned about once per process, however often this is called.
pub fn effective_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        static WARNED: Once = Once::new();
        WARNED.call_once(|| {
            eprintln!("warning: ignoring invalid {JOBS_ENV}={v:?} (want a positive integer)");
        });
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` on every item of `items`, in place, on up to `jobs` scoped
/// worker threads.
///
/// Workers claim items one at a time from a shared iterator, so each item
/// is visited exactly once and by one worker; the final state is
/// bit-identical for every `jobs >= 1` as long as `f` touches only its
/// item. `jobs = 1` — and any call nested inside another worker — runs
/// inline on the calling thread without spawning.
///
/// # Panics
///
/// Panics if `jobs` is zero, and propagates any panic raised by `f`.
pub fn par_for_each_mut<T, F>(items: &mut [T], jobs: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    assert!(jobs >= 1, "parallel loop needs at least one job");
    let workers = jobs.min(items.len());
    if workers <= 1 || IN_POOL.with(Cell::get) {
        items.iter_mut().for_each(f);
        return;
    }
    // Only the hand-out runs under the lock; `next()` cannot poison it.
    let queue = Mutex::new(items.iter_mut());
    let (queue, f) = (&queue, &f);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some(item) = next else { break };
                    f(item);
                }
                IN_POOL.with(|flag| flag.set(false));
            });
        }
    });
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads, returning
/// the results in input-index order.
///
/// A wrapper over [`par_for_each_mut`]: each item is paired with its own
/// result slot, so the output is bit-identical for every `jobs >= 1` as
/// long as `f` is a pure function of its item.
///
/// # Panics
///
/// Panics if `jobs` is zero, and propagates any panic raised by `f`.
pub fn par_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut slots: Vec<(Option<T>, Option<R>)> =
        items.into_iter().map(|x| (Some(x), None)).collect();
    par_for_each_mut(&mut slots, jobs, |(item, out)| *out = item.take().map(&f));
    slots
        .into_iter()
        // lint: par_for_each_mut visited every slot, filling each result
        .map(|(_, out)| out.expect("every result slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = par_map((0u64..100).collect(), jobs, |x| x * 2 + 1);
            assert_eq!(out, (0u64..100).map(|x| x * 2 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn identical_across_job_counts() {
        let reference = par_map((0u64..57).collect(), 1, |x| format!("r{x}"));
        for jobs in [2, 4, 7, 16] {
            let out = par_map((0u64..57).collect(), jobs, |x| format!("r{x}"));
            assert_eq!(out, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u32> = par_map(Vec::new(), 8, |x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(vec![42u32], 8, |x| x + 1), vec![43]);
    }

    #[test]
    fn nested_calls_run_inline_and_stay_ordered() {
        let out = par_map((0u64..6).collect(), 4, |row| {
            // Nested call: must not explode the thread count, and must
            // stay index-ordered.
            par_map((0u64..5).collect(), 4, move |col| row * 10 + col)
        });
        for (row, inner) in out.iter().enumerate() {
            let want: Vec<u64> = (0..5).map(|c| row as u64 * 10 + c).collect();
            assert_eq!(*inner, want);
        }
    }

    #[test]
    fn panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            par_map((0u64..16).collect(), 4, |x| {
                assert!(x != 7, "boom at 7");
                x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_jobs_rejected() {
        let _ = par_map(vec![1u32], 0, |x| x);
    }

    #[test]
    fn for_each_mut_visits_every_item_once_like_the_serial_loop() {
        let serial: Vec<(u64, u32)> = (0u64..100).map(|x| (x * 3 + 1, 1)).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let mut items: Vec<(u64, u32)> = (0u64..100).map(|x| (x, 0)).collect();
            par_for_each_mut(&mut items, jobs, |(x, visits)| {
                *x = *x * 3 + 1;
                *visits += 1;
            });
            assert_eq!(items, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn for_each_mut_handles_an_empty_slice() {
        let mut empty: Vec<u32> = Vec::new();
        par_for_each_mut(&mut empty, 8, |x| *x += 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn nested_for_each_mut_runs_inline_on_the_worker() {
        type Ids = (
            Option<std::thread::ThreadId>,
            Vec<Option<std::thread::ThreadId>>,
        );
        let mut rows: Vec<Ids> = (0..6).map(|_| (None, vec![None; 5])).collect();
        par_for_each_mut(&mut rows, 4, |(outer, inner)| {
            *outer = Some(std::thread::current().id());
            par_for_each_mut(inner, 4, |id| *id = Some(std::thread::current().id()));
        });
        for (outer, inner) in &rows {
            assert!(outer.is_some());
            assert!(
                inner.iter().all(|id| id == outer),
                "nested call left its worker"
            );
        }
    }

    #[test]
    fn for_each_mut_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let mut items: Vec<u64> = (0..16).collect();
            par_for_each_mut(&mut items, 4, |x| assert!(*x != 7, "boom at 7"));
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn for_each_mut_zero_jobs_rejected() {
        par_for_each_mut(&mut [1u32], 0, |x| *x += 1);
    }

    #[test]
    fn effective_jobs_is_positive() {
        assert!(effective_jobs() >= 1);
    }

    #[test]
    fn splitmix_stream_is_jobs_invariant() {
        // Property-style check on the in-tree deterministic RNG: hashing a
        // per-item seeded stream must give identical results at any job
        // count (the exact workload shape the bench harness fans out).
        use planaria_model::SplitMix64;
        let digest = |jobs| {
            par_map((0u64..40).collect::<Vec<_>>(), jobs, |seed| {
                let mut rng = SplitMix64::new(seed ^ 0xD1F7_A11A);
                (0..100)
                    .map(|_| rng.next_u64())
                    .fold(0u64, u64::wrapping_add)
            })
        };
        let reference = digest(1);
        for jobs in [2, 3, 8] {
            assert_eq!(digest(jobs), reference, "jobs={jobs}");
        }
    }
}
