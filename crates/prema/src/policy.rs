//! Temporal scheduling policies for the monolithic baseline.
//!
//! Since the discrete-event kernel refactor the policy operates in the
//! integer-cycle domain: tokens accrue as `priority × waited-cycles`
//! (`u64`), FCFS compares arrival cycles and SJF compares exact remaining
//! cycles. The starvation threshold stays a seconds-valued knob at the
//! engine API ([`TOKEN_THRESHOLD`]); the engine converts it to token
//! units once per run (tokens scale with the clock, so the conversion is
//! just `seconds × freq_hz` — the ranking is identical to the old
//! seconds-based policy).

use planaria_model::units::Cycles;
/// Per-task token bookkeeping, kept on each tenant's record.
pub use planaria_sim::TokenState;

/// Temporal scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// PREMA: token threshold + shortest-estimated-job-first among
    /// candidates.
    Prema,
    /// First-come first-served, non-preemptive ordering.
    Fcfs,
    /// Shortest predicted remaining job first (preemptive).
    Sjf,
}

/// View of one task for the policy decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyTask {
    /// Index in the caller's task list.
    pub index: usize,
    /// Accumulated tokens (priority-weighted waiting cycles).
    pub tokens: u64,
    /// Arrival cycle (for FCFS).
    pub arrival: Cycles,
    /// Predicted remaining work, cycles.
    pub remaining: Cycles,
}

/// Default starvation threshold, **seconds** of priority-weighted waiting.
/// Tokens accrue at `priority` per cycle, so the engine converts this knob
/// to token units with one `seconds × freq_hz` multiply per run; a
/// median-priority (6) task crosses the threshold after ~10 ms of
/// queueing. (`ext_prema_threshold` sweeps this knob to show the baseline
/// is not adversarially tuned.)
pub const TOKEN_THRESHOLD: f64 = 0.06;

/// Picks the next task to occupy the accelerator; `None` when the queue
/// is empty. `threshold` is the starvation bar in token units
/// (priority-weighted cycles), used only by [`Policy::Prema`].
pub fn pick_with_threshold(policy: Policy, tasks: &[PolicyTask], threshold: u64) -> Option<usize> {
    if tasks.is_empty() {
        return None;
    }
    match policy {
        Policy::Fcfs => tasks.iter().min_by_key(|t| t.arrival).map(|t| t.index),
        Policy::Sjf => tasks.iter().min_by_key(|t| t.remaining).map(|t| t.index),
        Policy::Prema => {
            // Starved tasks (tokens over the threshold) form the candidate
            // set, shortest predicted job first; with nobody starved the
            // policy degenerates to throughput-maximizing SJF over the
            // whole queue.
            let any_starved = tasks.iter().any(|t| t.tokens >= threshold);
            tasks
                .iter()
                .filter(|t| !any_starved || t.tokens >= threshold)
                .min_by_key(|t| t.remaining)
                .map(|t| t.index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(index: usize, tokens: u64, arrival: u64, remaining: u64) -> PolicyTask {
        PolicyTask {
            index,
            tokens,
            arrival: Cycles::new(arrival),
            remaining: Cycles::new(remaining),
        }
    }

    #[test]
    fn tokens_accrue_with_priority_and_time() {
        let mut s = TokenState::default();
        s.accrue(5, Cycles::new(2));
        assert_eq!(s.tokens, 10);
        s.accrue(5, Cycles::new(3));
        assert_eq!(s.tokens, 15);
        assert_eq!(s.last_update, Cycles::new(3));
    }

    #[test]
    fn accrual_saturates_instead_of_overflowing() {
        let mut s = TokenState {
            tokens: u64::MAX - 1,
            last_update: Cycles::ZERO,
        };
        s.accrue(11, Cycles::new(u64::MAX));
        assert_eq!(s.tokens, u64::MAX);
    }

    #[test]
    fn fcfs_takes_earliest_arrival() {
        let tasks = [task(0, 0, 5, 1), task(1, 100, 2, 9)];
        assert_eq!(pick_with_threshold(Policy::Fcfs, &tasks, 50), Some(1));
    }

    #[test]
    fn sjf_takes_shortest() {
        let tasks = [task(0, 0, 5, 1), task(1, 100, 2, 9)];
        assert_eq!(pick_with_threshold(Policy::Sjf, &tasks, 50), Some(0));
    }

    #[test]
    fn prema_prefers_short_job_among_starved_candidates() {
        // Tasks 1 and 2 are starved (tokens over the threshold); task 2 is
        // shorter. Task 0 has few tokens and is excluded even though it is
        // shortest overall.
        let tasks = [task(0, 1, 0, 10), task(1, 100, 0, 900), task(2, 95, 0, 200)];
        assert_eq!(pick_with_threshold(Policy::Prema, &tasks, 50), Some(2));
    }

    #[test]
    fn prema_runs_sjf_when_nobody_is_starved() {
        let tasks = [task(0, 10, 0, 500), task(1, 20, 0, 200)];
        assert_eq!(pick_with_threshold(Policy::Prema, &tasks, 50), Some(1));
    }

    #[test]
    fn ties_resolve_to_the_first_task() {
        // Deterministic tie-break: equal minima pick the earliest index in
        // the caller's list (the kernel's admission order).
        let tasks = [task(3, 0, 7, 4), task(9, 0, 7, 4)];
        assert_eq!(pick_with_threshold(Policy::Fcfs, &tasks, 50), Some(3));
        assert_eq!(pick_with_threshold(Policy::Sjf, &tasks, 50), Some(3));
        assert_eq!(pick_with_threshold(Policy::Prema, &tasks, 50), Some(3));
    }

    #[test]
    fn empty_queue_picks_nothing() {
        assert_eq!(pick_with_threshold(Policy::Prema, &[], 50), None);
    }
}
