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

/// A queued task's tokens: the `banked` tokens it held when it was last
/// granted the chip (zero at admission) plus `priority` per cycle of the
/// `waited` cycles it has queued since, saturating.
///
/// Accruing the same tokens event by event, saturating at each step,
/// gives this value bit for bit: every term is non-negative, so an
/// unsaturated sum is exact and a saturated one stays at `u64::MAX`.
#[inline]
pub(crate) fn queued_tokens(banked: u64, priority: u32, waited: Cycles) -> u64 {
    banked.saturating_add(u64::from(priority).saturating_mul(waited.get()))
}

/// The first cycle at which a task queued since `queued_since` with
/// `banked` tokens holds [`queued_tokens`] at or over `threshold`:
/// `queued_since + ⌈(threshold − banked) / priority⌉`, saturating at
/// `u64::MAX`, which then stands for "never before the clock ends" (as it
/// does for priority 0, whose tokens never grow).
///
/// Before it every product `priority × waited` is below `threshold −
/// banked`, so it cannot saturate and the tokens stay below the
/// threshold; at it the product reaches `threshold − banked`, or
/// saturates past it.
#[inline]
pub(crate) fn crossing_cycle(
    banked: u64,
    priority: u32,
    queued_since: Cycles,
    threshold: u64,
) -> Cycles {
    let short = threshold.saturating_sub(banked);
    let waited = match u64::from(priority) {
        _ if short == 0 => 0,
        0 => u64::MAX,
        p => short.div_ceil(p),
    };
    Cycles::new(queued_since.get().saturating_add(waited))
}

/// Picks the next task to occupy the accelerator in one pass; `None` when
/// there is no task. `threshold` is the starvation bar in token units
/// (priority-weighted cycles), used only by [`Policy::Prema`]. Ties go
/// to the first task in iteration order.
pub fn pick_with_threshold(
    policy: Policy,
    tasks: impl IntoIterator<Item = PolicyTask>,
    threshold: u64,
) -> Option<usize> {
    let pick = tasks.into_iter().min_by_key(|t| policy.rank(t, threshold));
    pick.map(|t| t.index)
}

impl Policy {
    /// The key this policy ranks a task by, the least first.
    #[inline]
    pub(crate) fn rank(self, t: &PolicyTask, threshold: u64) -> (bool, Cycles) {
        match self {
            Policy::Fcfs => (false, t.arrival),
            Policy::Sjf => (false, t.remaining),
            // Starved tasks (tokens at or over the threshold) rank first,
            // shortest predicted job first; with nobody starved the policy
            // degenerates to throughput-maximizing SJF over the whole queue.
            Policy::Prema => (t.tokens < threshold, t.remaining),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_model::SplitMix64;

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
        // Priority 5, queued since cycle 0: 10 tokens at cycle 2, 15 at 3.
        assert_eq!(queued_tokens(0, 5, Cycles::new(2)), 10);
        assert_eq!(queued_tokens(0, 5, Cycles::new(3)), 15);
        // Banked tokens carry over a grant; a fresh queue adds to them.
        assert_eq!(queued_tokens(10, 5, Cycles::ZERO), 10);
        assert_eq!(queued_tokens(10, 5, Cycles::new(1)), 15);
    }

    #[test]
    fn accrual_saturates_instead_of_overflowing() {
        assert_eq!(
            queued_tokens(u64::MAX - 1, 11, Cycles::new(u64::MAX)),
            u64::MAX
        );
        // The product alone overflows, and so does the sum alone.
        assert_eq!(queued_tokens(0, 11, Cycles::new(u64::MAX)), u64::MAX);
        assert_eq!(queued_tokens(u64::MAX - 1, 1, Cycles::new(2)), u64::MAX);
        assert_eq!(queued_tokens(u64::MAX - 1, 1, Cycles::new(1)), u64::MAX);
    }

    /// The per-event accrual lazy tokens replaced, kept as the reference:
    /// at every event a queued task adds `priority × (now − last_update)`
    /// saturating, and the runner only moves `last_update`.
    struct PerEvent {
        tokens: u64,
        last_update: Cycles,
    }

    impl PerEvent {
        fn accrue(&mut self, priority: u32, now: Cycles) {
            let waited = now.saturating_sub(self.last_update);
            self.tokens = self
                .tokens
                .saturating_add(u64::from(priority).saturating_mul(waited.get()));
            self.last_update = now;
        }
    }

    /// A random value below `2^max_bits` whose bit length is close to
    /// uniform, so tiny, large and saturating values all occur.
    fn log_uniform(rng: &mut SplitMix64, max_bits: u64) -> u64 {
        rng.next_u64() >> (64 - max_bits + rng.next_below(max_bits))
    }

    #[test]
    fn lazy_tokens_equal_per_event_accrual() {
        // A task starts queued with banked tokens up to `u64::MAX`, then
        // alternates queued and running spans of random event counts, each
        // event up to 2^62 cycles after the last. The engine's rule: a
        // grant banks `queued_tokens` at `now`, a preemption restarts
        // `queued_since`.
        let mut rng = SplitMix64::new(0x70ce_a55e_5a7e_0001);
        let (mut saturated, mut exact) = (0, 0);
        for case in 0..4_000 {
            let priority = rng.next_range(1, 11) as u32;
            let mut now = Cycles::new(log_uniform(&mut rng, 62));
            let mut banked = log_uniform(&mut rng, 64);
            let mut queued_since = now;
            let mut running = false;
            let mut reference = PerEvent {
                tokens: banked,
                last_update: now,
            };
            for event in 0..rng.next_range(1, 24) {
                let span = if rng.next_bool(0.1) {
                    0
                } else {
                    log_uniform(&mut rng, 62)
                };
                let Some(at) = now.get().checked_add(span) else {
                    break;
                };
                now = Cycles::new(at);
                let lazy = if running {
                    reference.last_update = now;
                    banked
                } else {
                    reference.accrue(priority, now);
                    queued_tokens(banked, priority, now.saturating_sub(queued_since))
                };
                assert_eq!(
                    lazy, reference.tokens,
                    "case {case}, event {event}, priority {priority}"
                );
                if lazy == u64::MAX {
                    saturated += 1;
                } else {
                    exact += 1;
                }
                if rng.next_bool(0.4) {
                    if running {
                        queued_since = now;
                    } else {
                        banked = lazy;
                    }
                    running = !running;
                }
            }
        }
        assert!(
            saturated > 1_000 && exact > 1_000,
            "{saturated} saturated, {exact} exact"
        );
    }

    #[test]
    fn crossing_is_the_first_cycle_at_the_threshold() {
        // Banked tokens, priorities (0 included), queue starts and
        // thresholds drawn log-uniformly, so products and sums saturate.
        // Before the crossing the tokens are below the threshold; at it
        // they reach it, unless the crossing saturated at `u64::MAX`
        // because the threshold lies beyond the clock.
        let mut rng = SplitMix64::new(0xc105_51a9);
        let (mut saturated, mut exact, mut starved) = (0, 0, 0);
        for case in 0..200_000 {
            let banked = log_uniform(&mut rng, 64);
            let priority = match rng.next_below(8) {
                0 => 0,
                1 => u32::MAX - rng.next_below(4) as u32,
                _ => rng.next_range(1, 11) as u32,
            };
            let since = Cycles::new(log_uniform(&mut rng, 64));
            let threshold = if rng.next_bool(0.05) {
                u64::MAX
            } else {
                log_uniform(&mut rng, 64)
            };
            let at = crossing_cycle(banked, priority, since, threshold);
            let tokens = |c: Cycles| queued_tokens(banked, priority, c - since);
            let tag = format!("case {case}: {banked} banked, priority {priority}, since {since:?}, threshold {threshold}");
            assert!(at >= since, "{tag}");
            if at > since {
                assert!(tokens(at - Cycles::new(1)) < threshold, "{tag}: early");
            } else {
                starved += 1;
            }
            if tokens(at) >= threshold {
                exact += 1;
            } else {
                assert_eq!(at, Cycles::new(u64::MAX), "{tag}: late");
                saturated += 1;
            }
        }
        assert!(
            saturated > 1_000 && exact > 10_000 && starved > 1_000,
            "{saturated} saturated, {exact} exact, {starved} starved"
        );
    }

    #[test]
    fn fcfs_takes_earliest_arrival() {
        let tasks = [task(0, 0, 5, 1), task(1, 100, 2, 9)];
        assert_eq!(pick_with_threshold(Policy::Fcfs, tasks, 50), Some(1));
    }

    #[test]
    fn sjf_takes_shortest() {
        let tasks = [task(0, 0, 5, 1), task(1, 100, 2, 9)];
        assert_eq!(pick_with_threshold(Policy::Sjf, tasks, 50), Some(0));
    }

    #[test]
    fn prema_prefers_short_job_among_starved_candidates() {
        // Tasks 1 and 2 are starved (tokens over the threshold); task 2 is
        // shorter. Task 0 has few tokens and is excluded even though it is
        // shortest overall.
        let tasks = [task(0, 1, 0, 10), task(1, 100, 0, 900), task(2, 95, 0, 200)];
        assert_eq!(pick_with_threshold(Policy::Prema, tasks, 50), Some(2));
    }

    #[test]
    fn prema_runs_sjf_when_nobody_is_starved() {
        let tasks = [task(0, 10, 0, 500), task(1, 20, 0, 200)];
        assert_eq!(pick_with_threshold(Policy::Prema, tasks, 50), Some(1));
    }

    #[test]
    fn ties_resolve_to_the_first_task() {
        // Deterministic tie-break: equal minima pick the earliest index in
        // the caller's list (the kernel's admission order).
        let tasks = [task(3, 0, 7, 4), task(9, 0, 7, 4)];
        assert_eq!(pick_with_threshold(Policy::Fcfs, tasks, 50), Some(3));
        assert_eq!(pick_with_threshold(Policy::Sjf, tasks, 50), Some(3));
        assert_eq!(pick_with_threshold(Policy::Prema, tasks, 50), Some(3));
    }

    #[test]
    fn empty_queue_picks_nothing() {
        assert_eq!(pick_with_threshold(Policy::Prema, [], 50), None);
    }
}
