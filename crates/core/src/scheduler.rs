//! Algorithm 1: spatial scheduling for Planaria (§V).
//!
//! The scheduler runs in two stages. First, `ESTIMATERESOURCES` finds the
//! minimum subarray count meeting each task's QoS slack (via configuration-
//! table lookups). Then, if the minima fit on the chip, `ALLOCATEFITTASKS`
//! distributes the spare subarrays proportionally to a
//! `priority / remaining-time` score; otherwise `ALLOCATEUNFITTASKS` ranks
//! tasks by `priority / (slack × estimate)` and packs the chip greedily,
//! leaving the rest queued.
//!
//! Since the discrete-event kernel refactor, time flows through the
//! scheduler in integer cycles: slack is signed cycles to the deadline and
//! predictions are table cycles. (The scores stay `f64` — they are
//! dimensionless ratios, and because every term scales by the same clock,
//! the ranking is identical to the old seconds-based one.)

use planaria_arch::Allocation;
use planaria_compiler::{remaining_from, CompiledDnn};
use planaria_model::units::Cycles;

/// Scheduler view of one task in the queue (running or waiting).
#[derive(Debug, Clone, Copy)]
pub struct SchedTask<'a> {
    /// Task priority (1..=11).
    pub priority: u32,
    /// Remaining slack to the QoS deadline, cycles (negative when the
    /// deadline has already passed).
    pub slack: i64,
    /// Completed work fraction ∈ [0, 1].
    pub done: f64,
    /// The task's compiled configuration tables.
    pub compiled: &'a CompiledDnn,
}

impl SchedTask<'_> {
    /// Predicted remaining cycles on `subarrays` granules (the
    /// `PREDICTTIME` table lookup, read from the compiled totals row).
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero or exceeds the chip.
    pub fn predict_cycles(&self, subarrays: u32) -> Cycles {
        let total = self.compiled.total_cycles_row()[subarrays as usize - 1];
        remaining_from(total, self.done)
    }

    /// [`predict_cycles`](Self::predict_cycles) in seconds, for
    /// presentation at the simulation boundary (examples, reports).
    pub fn predict_time(&self, subarrays: u32, freq_hz: f64) -> f64 {
        self.predict_cycles(subarrays).as_f64() / freq_hz
    }

    /// `ESTIMATERESOURCES`: the minimum subarray count whose predicted
    /// remaining cycles fit the slack; the full chip when none does.
    pub fn estimate_resources(&self, total: u32) -> u32 {
        self.estimate_resources_from(1, total)
    }

    /// [`estimate_resources`](Self::estimate_resources) scanning upward
    /// from `floor` instead of 1.
    ///
    /// Passing a `floor` above the true minimum changes the answer, so the
    /// floor must be a *proven lower bound*. The engines derive one from
    /// monotonicity: for a queued task, `done` is frozen (so every
    /// `predict_cycles(s)` is unchanged) while `slack = deadline − now`
    /// only shrinks as time advances — therefore the minimal fitting `s`
    /// can only grow between scheduling events, and the previous event's
    /// estimate is an exact floor for the next. That turns the per-event
    /// estimate scan from `O(total)` table lookups into `O(1)` for the
    /// queued majority without changing a single allocation.
    pub fn estimate_resources_from(&self, floor: u32, total: u32) -> u32 {
        self.estimate_resources_with_fit(floor, total).0
    }

    /// [`estimate_resources_from`](Self::estimate_resources_from) that also
    /// returns the predicted remaining cycles *at* the returned estimate —
    /// the quantity `ALLOCATEFITTASKS` divides by. Returning it here lets
    /// the fit path reuse the scan's last table lookup instead of
    /// re-querying, and lets the engine memoize it on the tenant record
    /// (the [`seed`](crate::sched_state::seed) fastpath): while a memoized
    /// `(estimate, fit)` still satisfies `fit <= slack`, the tenant's
    /// estimate costs **zero** table lookups.
    ///
    /// When no subarray count fits the slack, the estimate is `total` and
    /// the fit is `predict_cycles(total)` — exactly what the fit path
    /// would look up.
    ///
    /// # Panics
    ///
    /// Panics if `total` exceeds the chip the tables were compiled for.
    pub fn estimate_resources_with_fit(&self, floor: u32, total: u32) -> (u32, Cycles) {
        let floor = floor.clamp(1, total);
        let mut last = Cycles::ZERO;
        // The table totals for `floor..=total` subarrays, scanned in place.
        let row = &self.compiled.total_cycles_row()[floor as usize - 1..total as usize];
        for (s, &cycles) in (floor..).zip(row) {
            last = remaining_from(cycles, self.done);
            if fits_slack(last, self.slack) {
                return (s, last);
            }
        }
        (total, last)
    }
}

/// Whether a prediction of `cycles` meets `slack`: the scheduler's one
/// comparison between table cycles and signed slack. A count of 2^63
/// cycles or more exceeds every `i64` slack, so it never fits (an
/// `as i64` cast would wrap it negative and fit any slack), and nothing
/// fits a negative slack.
pub fn fits_slack(cycles: Cycles, slack: i64) -> bool {
    i64::try_from(cycles.get()).is_ok_and(|c| c <= slack)
}

/// Minimum slack used by the unfit-path urgency score: 1 µs expressed in
/// cycles of the given clock. Past-deadline tasks rank as most urgent
/// without a division blow-up (same clamp the old seconds-based scheduler
/// applied at `1e-6 s`). At the paper's 700 MHz this is exactly the 700
/// cycles the scheduler historically hardcoded; deriving it from the
/// clock keeps the clamp meaning "one microsecond" on every geometry
/// (e.g. 595 cycles on a crossbar-derated 595 MHz chip).
pub fn min_slack_cycles(freq_hz: f64) -> i64 {
    ((freq_hz / 1e6) as i64).max(1)
}

/// `SCHEDULETASKSSPATIALLY`: returns the subarray allocation for each task,
/// aligned with the input slice (0 = stay queued). The allocations always
/// sum to at most `total`. `min_slack` is the urgency-score clamp in
/// cycles — pass [`min_slack_cycles`] of the chip's clock.
///
/// This is the convenient materializing wrapper over the passes the
/// engine runs on its reusable column records, with memoized estimates,
/// so that steady-state events allocate nothing.
pub fn schedule_tasks_spatially(tasks: &[SchedTask<'_>], total: u32, min_slack: i64) -> Vec<u32> {
    let mut cols: Vec<Column> = tasks
        .iter()
        .enumerate()
        .map(|(at, t)| {
            let (estimate, fit) = t.estimate_resources_with_fit(1, total);
            Column {
                priority: t.priority,
                slack: t.slack,
                estimate,
                fit,
                ..Column::new(at)
            }
        })
        .collect();
    allocate(
        &mut cols,
        total,
        min_slack,
        &mut Vec::new(),
        &mut PackPrefix::default(),
    );
    cols.iter().map(|c| c.grant).collect()
}

/// One task's record in a scheduling event: what `ESTIMATERESOURCES`
/// answered and the score terms, which the allocation passes read; the
/// grant they write; and the engine's placement state for the event.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Column {
    /// The tenant's position (the wrapper's task index).
    pub(crate) at: usize,
    pub(crate) priority: u32,
    /// Signed cycles to the deadline.
    pub(crate) slack: i64,
    /// The minimum subarray count meeting the slack (the whole chip when
    /// none does) ...
    pub(crate) estimate: u32,
    /// ... and the predicted remaining cycles at it.
    pub(crate) fit: Cycles,
    /// This event's grant.
    pub(crate) grant: u32,
    /// Holds subarrays or is granted some: only a mover can change.
    pub(crate) mover: bool,
    /// Keeps the segment it holds.
    pub(crate) keep: bool,
    /// Kept, but moved by defragmentation.
    pub(crate) migrated: bool,
    /// The segment placement chose for a re-placed mover.
    pub(crate) fresh: Option<Allocation>,
}

impl Column {
    /// A record for the tenant at position `at`, every other field empty.
    pub(crate) fn new(at: usize) -> Self {
        Self {
            at,
            ..Self::default()
        }
    }
}

/// `ALLOCATEUNFITTASKS`'s rank of a task: `priority / (slack ×
/// estimate)`, the slack clamped to at least `min_slack` so tasks past
/// their deadline rank most urgent without a division blow-up.
pub(crate) fn unfit_score(priority: u32, slack: i64, estimate: u32, min_slack: i64) -> f64 {
    f64::from(priority) / (slack.max(min_slack) as f64 * f64::from(estimate))
}

/// `ALLOCATEUNFITTASKS`'s packing prefix, built from tasks offered one
/// at a time in any order.
///
/// The pack grants subarrays in (score desc, key asc) order until the
/// chip is used up, so only its packing prefix — the fewest best-ranked
/// tasks whose estimates reach the chip — receives anything, and because
/// every estimate is at least 1 that prefix holds at most `total` tasks.
/// The prefix of the tasks offered so far stays sorted by that key. A
/// task enters only while the prefix falls short of `total` or when it
/// beats the prefix's last entry, and after an insert the tail is dropped
/// while the rest still reaches `total`. The key is a strict total order
/// (scores are finite: priority ≥ 1, slack clamped ≥ `min_slack` ≥ 1,
/// estimate ≥ 1; ties fall to the distinct keys), so whatever the offer
/// order, the prefix is the sorted pack's and every grant is equal.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackPrefix {
    /// `(score, key, estimate)`, best first.
    entries: Vec<(f64, usize, u32)>,
    /// Σ estimates over `entries`.
    held: u32,
}

impl PackPrefix {
    /// Empties the prefix for a new pack.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.held = 0;
    }

    /// Offers a task of `score` ([`unfit_score`]) and tie-break `key`
    /// (distinct per task) needing `estimate` of the chip's `total`
    /// subarrays.
    pub(crate) fn offer(&mut self, score: f64, key: usize, estimate: u32, total: u32) {
        let ahead = |&(s, k, _): &(f64, usize, u32)| s > score || (s == score && k < key);
        if self.held >= total && self.entries.last().is_some_and(ahead) {
            return;
        }
        let at = self.entries.partition_point(ahead);
        self.entries.insert(at, (score, key, estimate));
        self.held += estimate;
        while let Some(&(_, _, last)) = self.entries.last() {
            if self.held - last < total {
                break;
            }
            self.held -= last;
            self.entries.pop();
        }
    }

    /// Whether no task scoring at most `bound` can enter any more: the
    /// prefix reaches `total` and `bound` lies strictly below its last
    /// score. The last score only rises as tasks enter, so this stays
    /// true for the rest of the pack.
    pub(crate) fn closed_below(&self, bound: f64, total: u32) -> bool {
        self.held >= total && self.entries.last().is_some_and(|&(s, _, _)| bound < s)
    }

    /// `(key, grant)` for every task in the prefix, best first: each gets
    /// its estimate while the chip lasts, the last one possibly less.
    pub(crate) fn grants(&self, total: u32) -> impl Iterator<Item = (usize, u32)> + '_ {
        let mut remaining = total;
        self.entries.iter().map(move |&(_, key, estimate)| {
            let grant = estimate.min(remaining);
            remaining -= grant;
            (key, grant)
        })
    }
}

/// Visits the entries of a binary heap of `len` entries top-down, by
/// index (entry `k`'s children are `2k + 1` and `2k + 2`), skipping the
/// subtree below every entry for which `visit` returns false. Each entry
/// is visited after its parent, at most once. `stack` is reusable
/// scratch.
pub(crate) fn walk_heap(len: usize, stack: &mut Vec<usize>, mut visit: impl FnMut(usize) -> bool) {
    stack.clear();
    if len > 0 {
        stack.push(0);
    }
    while let Some(k) = stack.pop() {
        if visit(k) {
            stack.extend((2 * k + 1..len.min(2 * k + 3)).rev());
        }
    }
}

/// The allocation phase of Algorithm 1 over `cols`, whose estimates
/// (`estimate`, `fit`; possibly memoized) and score terms are filled in:
/// writes every column's grant. Given those, it needs no table access at
/// all — it is the pure `ALLOCATEFITTASKS` / `ALLOCATEUNFITTASKS`
/// arithmetic of §V. The grants always sum to at most `total`.
/// `min_slack` is the unfit-path urgency clamp in cycles
/// ([`min_slack_cycles`] of the chip's clock); `fractions` and `pack` are
/// reusable scratch.
pub(crate) fn allocate(
    cols: &mut [Column],
    total: u32,
    min_slack: i64,
    fractions: &mut Vec<f64>,
    pack: &mut PackPrefix,
) {
    let need: u32 = cols.iter().map(|c| c.estimate).sum();
    if need <= total {
        allocate_fit(cols, total - need, fractions);
    } else {
        allocate_unfit(cols, total, min_slack, pack);
    }
}

/// `ALLOCATEFITTASKS`: everyone gets their minimum; the `spare`
/// subarrays are split proportionally to `priority / remaining-time`.
fn allocate_fit(cols: &mut [Column], spare: u32, fractions: &mut Vec<f64>) {
    for c in cols.iter_mut() {
        c.grant = c.estimate;
    }
    if spare == 0 {
        return;
    }
    // Each column's score, replaced below by its share's fraction.
    fractions.clear();
    fractions.extend(
        cols.iter()
            .map(|c| f64::from(c.priority) / c.fit.as_f64().max(1.0)),
    );
    let sum: f64 = fractions.iter().sum();
    // Integer proportional share; remainders go to the largest fractions.
    // A share lies in [0, spare], so truncating it is its floor.
    let mut left = spare;
    for (c, f) in cols.iter_mut().zip(fractions.iter_mut()) {
        let share = *f / sum * f64::from(spare);
        let whole = share as u32;
        c.grant += whole;
        left -= whole;
        *f = share - f64::from(whole);
    }
    // Each leftover subarray goes to the largest fraction not yet served,
    // the lower column on a tie: the stable descending order, selected
    // (fractions are finite and at least 0, so -1 marks a served one).
    for _ in 0..cols.len().min(left as usize) {
        let mut best = 0;
        for k in 1..fractions.len() {
            if fractions[k] > fractions[best] {
                best = k;
            }
        }
        cols[best].grant += 1;
        fractions[best] = -1.0;
    }
}

/// `ALLOCATEUNFITTASKS`: rank by `priority / (slack × estimate)` and pack
/// the chip; the last packed task may receive a partial grant, everyone
/// else waits. One pass offers every column to the [`PackPrefix`], keyed
/// by its index, so the backlog behind the prefix is never ranked; the
/// test module keeps the comparator sort as the oracle.
fn allocate_unfit(cols: &mut [Column], total: u32, min_slack: i64, pack: &mut PackPrefix) {
    pack.clear();
    for (k, c) in cols.iter_mut().enumerate() {
        pack.offer(
            unfit_score(c.priority, c.slack, c.estimate, min_slack),
            k,
            c.estimate,
            total,
        );
        c.grant = 0;
    }
    for (k, grant) in pack.grants(total) {
        cols[k].grant = grant;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_arch::AcceleratorConfig;
    use planaria_compiler::compile;
    use planaria_model::DnnId;

    /// The urgency clamp at the paper clock, used by every test below.
    const PAPER_MIN_SLACK: i64 = 700;

    fn compiled(id: DnnId) -> planaria_compiler::CompiledDnn {
        compile(&AcceleratorConfig::planaria(), &id.build())
    }

    #[test]
    fn min_slack_is_one_microsecond_of_the_clock() {
        // Exactly the historical hardcoded 700 at the paper's 700 MHz —
        // the derivation is behavior-preserving by construction.
        assert_eq!(
            min_slack_cycles(AcceleratorConfig::planaria().freq_hz),
            PAPER_MIN_SLACK
        );
        // The crossbar-derated fine-granule chip runs at 595 MHz.
        assert_eq!(
            min_slack_cycles(AcceleratorConfig::with_granularity(16).freq_hz),
            595
        );
        // Degenerate clocks still clamp above zero.
        assert_eq!(min_slack_cycles(1.0), 1);
    }

    /// Seconds → cycles at the Planaria clock, for readable test slacks.
    fn cy(seconds: f64) -> i64 {
        (seconds * AcceleratorConfig::planaria().freq_hz) as i64
    }

    #[test]
    fn estimate_is_minimal() {
        let c = compiled(DnnId::TinyYolo);
        let isolated_full = c.table(16).total_cycles().get() as i64;
        let t = SchedTask {
            priority: 5,
            slack: isolated_full * 20, // loose: smallest allocations work
            done: 0.0,
            compiled: &c,
        };
        let est_loose = t.estimate_resources(16);
        let tight = SchedTask {
            slack: isolated_full + isolated_full / 20,
            ..t
        };
        let est_tight = tight.estimate_resources(16);
        assert!(est_loose <= est_tight);
        assert!(est_loose >= 1 && est_tight <= 16);
    }

    #[test]
    fn hopeless_slack_caps_at_full_chip() {
        let c = compiled(DnnId::SsdResNet34);
        let t = SchedTask {
            priority: 5,
            slack: cy(-1.0),
            done: 0.0,
            compiled: &c,
        };
        assert_eq!(t.estimate_resources(16), 16);
    }

    #[test]
    fn single_task_gets_whole_chip() {
        let c = compiled(DnnId::ResNet50);
        let t = SchedTask {
            priority: 5,
            slack: cy(10.0),
            done: 0.0,
            compiled: &c,
        };
        let alloc = schedule_tasks_spatially(&[t], 16, PAPER_MIN_SLACK);
        assert_eq!(alloc, vec![16]);
    }

    #[test]
    fn allocations_never_exceed_chip() {
        let nets: Vec<_> = [
            DnnId::ResNet50,
            DnnId::TinyYolo,
            DnnId::MobileNetV1,
            DnnId::Gnmt,
        ]
        .iter()
        .map(|&id| compiled(id))
        .collect();
        for slack_s in [0.001, 0.01, 0.1, 1.0] {
            let tasks: Vec<SchedTask> = nets
                .iter()
                .enumerate()
                .map(|(i, c)| SchedTask {
                    priority: (i as u32 % 11) + 1,
                    slack: cy(slack_s),
                    done: 0.1 * i as f64,
                    compiled: c,
                })
                .collect();
            let alloc = schedule_tasks_spatially(&tasks, 16, PAPER_MIN_SLACK);
            assert!(
                alloc.iter().sum::<u32>() <= 16,
                "slack {slack_s}: {alloc:?}"
            );
        }
    }

    #[test]
    fn fit_path_spreads_spare_by_priority() {
        let a = compiled(DnnId::TinyYolo);
        let b = compiled(DnnId::TinyYolo);
        let mk = |priority, c| SchedTask {
            priority,
            slack: cy(10.0), // very loose: both estimate 1
            done: 0.0,
            compiled: c,
        };
        let alloc = schedule_tasks_spatially(&[mk(11, &a), mk(1, &b)], 16, PAPER_MIN_SLACK);
        assert_eq!(alloc.iter().sum::<u32>(), 16);
        assert!(
            alloc[0] > alloc[1],
            "high priority should get the larger share: {alloc:?}"
        );
    }

    #[test]
    fn unfit_path_prefers_urgent_high_priority() {
        let heavy = compiled(DnnId::SsdResNet34);
        // Three heavy tasks with slack just above the full-chip isolated
        // latency: estimates are 16 each; only the best-scored one fits.
        let iso = heavy.table(16).total_cycles().get() as i64;
        let mk = |priority, slack| SchedTask {
            priority,
            slack,
            done: 0.0,
            compiled: &heavy,
        };
        let tight = iso + iso / 50;
        let tasks = [mk(1, tight), mk(11, tight), mk(5, tight)];
        let alloc = schedule_tasks_spatially(&tasks, 16, PAPER_MIN_SLACK);
        assert_eq!(alloc[1], 16, "priority 11 should win: {alloc:?}");
        assert_eq!(alloc[0] + alloc[2], 0);
    }

    #[test]
    fn seconds_prediction_matches_cycles_at_the_clock() {
        let c = compiled(DnnId::TinyYolo);
        let t = SchedTask {
            priority: 5,
            slack: cy(1.0),
            done: 0.5,
            compiled: &c,
        };
        let freq = AcceleratorConfig::planaria().freq_hz;
        let secs = t.predict_time(8, freq);
        assert!((secs * freq - t.predict_cycles(8).as_f64()).abs() < 1e-6);
    }

    #[test]
    fn empty_queue_yields_empty_allocation() {
        assert!(schedule_tasks_spatially(&[], 16, PAPER_MIN_SLACK).is_empty());
    }

    /// `ALLOCATEFITTASKS` as a stable comparator sort hands out the
    /// leftover subarrays: the oracle for the selection in
    /// [`allocate_fit`].
    fn allocate_fit_by_comparator(
        priorities: &[u32],
        estimates: &[u32],
        fit: &[Cycles],
        total: u32,
    ) -> Vec<u32> {
        let mut alloc = estimates.to_vec();
        let mut spare = total - estimates.iter().sum::<u32>();
        if spare == 0 {
            return alloc;
        }
        let scores: Vec<f64> = priorities
            .iter()
            .zip(fit)
            .map(|(&p, f)| f64::from(p) / f.as_f64().max(1.0))
            .collect();
        let sum: f64 = scores.iter().sum();
        let mut fractional = Vec::new();
        for (i, score) in scores.iter().enumerate() {
            let share = score / sum * f64::from(spare);
            alloc[i] += share.floor() as u32;
            fractional.push((i, share - share.floor()));
        }
        spare -= (0..alloc.len())
            .map(|i| alloc[i] - estimates[i])
            .sum::<u32>();
        fractional.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (i, _) in fractional.into_iter().take(spare as usize) {
            alloc[i] += 1;
        }
        alloc
    }

    #[test]
    fn fit_path_matches_reference_arithmetic_over_random_queues() {
        // Selection must hand the leftover subarrays to exactly the
        // columns the stable descending sort of the fractions reaches
        // first, on any queue that fits, including fraction ties (equal
        // priority/fit pairs), which the stable sort breaks by index.
        let mut rng = planaria_model::SplitMix64::new(0xF17);
        let mut fractions = Vec::new();
        let mut cols: Vec<Column> = Vec::new();
        let mut ties = 0;
        for round in 0..2_000 {
            let total = [1, 16, 64, 128][rng.next_below(4) as usize];
            let n = 1 + rng.next_below(u64::from(total.min(12))) as usize;
            let priorities: Vec<u32> = (0..n).map(|_| 1 + rng.next_below(3) as u32).collect();
            let fit: Vec<Cycles> = (0..n)
                .map(|_| Cycles::new(1_000 * (1 + rng.next_below(3))))
                .collect();
            let mut estimates = vec![1; n];
            for _ in 0..rng.next_below(u64::from(total) - n as u64 + 1) {
                estimates[rng.next_below(n as u64) as usize] += 1;
            }
            cols.clear();
            cols.extend((0..n).map(|i| Column {
                priority: priorities[i],
                estimate: estimates[i],
                fit: fit[i],
                ..Column::new(i)
            }));
            let need: u32 = estimates.iter().sum();
            allocate_fit(&mut cols, total - need, &mut fractions);
            let grants: Vec<u32> = cols.iter().map(|c| c.grant).collect();
            let want = allocate_fit_by_comparator(&priorities, &estimates, &fit, total);
            assert_eq!(grants, want, "round {round}: n={n} total={total}");
            assert_eq!(grants.iter().sum::<u32>(), total, "round {round}");
            let pair = |i: usize| (priorities[i], fit[i]);
            ties += usize::from((0..n).any(|i| (i + 1..n).any(|j| pair(i) == pair(j))));
        }
        assert!(ties > 500, "{ties} rounds had a tie");
    }

    /// The pre-overhaul `ALLOCATEUNFITTASKS`, kept as the oracle for the
    /// packing-prefix selection: the score closure runs inside a stable
    /// comparator sort of every task.
    fn allocate_unfit_by_comparator(
        priorities: &[u32],
        slacks: &[i64],
        estimates: &[u32],
        total: u32,
        min_slack: i64,
    ) -> Vec<u32> {
        let score = |i: usize| {
            let slack = slacks[i].max(min_slack) as f64;
            f64::from(priorities[i]) / (slack * f64::from(estimates[i]))
        };
        let mut order: Vec<usize> = (0..estimates.len()).collect();
        order.sort_by(|&a, &b| {
            score(b)
                .partial_cmp(&score(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut alloc = vec![0; estimates.len()];
        let mut remaining = total;
        for i in order {
            if remaining == 0 {
                break;
            }
            alloc[i] = estimates[i].min(remaining);
            remaining -= alloc[i];
        }
        alloc
    }

    #[test]
    fn unfit_path_matches_reference_arithmetic_over_random_queues() {
        // The prefix selection must grant exactly what the comparator sort
        // packs, bit for bit, on any queue shape — including score ties
        // (equal priority/slack/estimate triples), which the stable sort
        // breaks by index. Chips of 1 to 128 subarrays make packing
        // prefixes from one task to well past 16; one scratch serves every
        // round, so a stale prefix from the previous round would show.
        //
        // The pack must grant the same when the tasks are offered in any
        // order, keyed by index, and when part of the queue is visited
        // lazily: in (slack, index) order, stopping before the first task
        // whose score bound `P_max / max(slack, min_slack)` lies strictly
        // below a full prefix's last score, and through a top-down walk
        // of a binary heap keyed (slack, index), the way the engine walks
        // its waiting tenants, skipping the subtree below each such task.
        let mut rng = planaria_model::SplitMix64::new(0xA110C);
        let mut scratch = PackPrefix::default();
        let mut pack = PackPrefix::default();
        let mut hot: Vec<Column> = Vec::new();
        let (mut heap, mut stack) = (Vec::new(), Vec::new());
        let (mut stopped_early, mut pruned_early) = (0, 0);
        for round in 0..800 {
            let total = [1, 16, 64, 128][rng.next_below(4) as usize];
            let n = 1 + rng.next_below(300) as usize;
            let mut priorities = Vec::with_capacity(n);
            let mut slacks = Vec::with_capacity(n);
            let mut estimates = Vec::with_capacity(n);
            for _ in 0..n {
                // Coarse buckets force frequent exact ties.
                priorities.push(1 + rng.next_below(4) as u32);
                // Spans negative (past-deadline) through positive slack.
                slacks.push(rng.next_below(8) as i64 * 1_000 - 2_000);
                // Small asks, or the whole chip (a hopeless deadline).
                estimates.push(if rng.next_bool(0.25) {
                    total
                } else {
                    (1 + rng.next_below(4) as u32).min(total)
                });
            }
            hot.clear();
            hot.extend((0..n).map(|i| Column {
                priority: priorities[i],
                slack: slacks[i],
                estimate: estimates[i],
                ..Column::new(i)
            }));
            allocate_unfit(&mut hot, total, PAPER_MIN_SLACK, &mut scratch);
            let old = allocate_unfit_by_comparator(
                &priorities,
                &slacks,
                &estimates,
                total,
                PAPER_MIN_SLACK,
            );
            let grants: Vec<u32> = hot.iter().map(|c| c.grant).collect();
            assert_eq!(grants, old, "round {round}: n={n} total={total}");

            let score =
                |i: usize| unfit_score(priorities[i], slacks[i], estimates[i], PAPER_MIN_SLACK);
            let granted = |pack: &PackPrefix| {
                let mut alloc = vec![0; n];
                for (i, grant) in pack.grants(total) {
                    alloc[i] = grant;
                }
                alloc
            };
            let mut order: Vec<usize> = (0..n).collect();
            for k in (1..n).rev() {
                order.swap(k, rng.next_below(k as u64 + 1) as usize);
            }
            pack.clear();
            for &i in &order {
                pack.offer(score(i), i, estimates[i], total);
            }
            assert_eq!(granted(&pack), old, "round {round}: shuffled offers");

            // A random part of the shuffled queue is offered up front; the
            // rest is visited by slack under the bound.
            let eager = rng.next_below(n as u64 + 1) as usize;
            let (columns, lazy) = order.split_at_mut(eager);
            // The heap is built by pushing the lazy part in its shuffled
            // order, each push sifted up.
            heap.clear();
            for &i in lazy.iter() {
                heap.push((slacks[i], i));
                let mut at = heap.len() - 1;
                while at > 0 && heap[(at - 1) / 2] > heap[at] {
                    heap.swap(at, (at - 1) / 2);
                    at = (at - 1) / 2;
                }
            }
            lazy.sort_by_key(|&i| (slacks[i], i));
            let p_max = *priorities.iter().max().expect("n >= 1");
            pack.clear();
            for &i in columns.iter() {
                pack.offer(score(i), i, estimates[i], total);
            }
            let mut visited = 0;
            for &i in lazy.iter() {
                if pack.closed_below(unfit_score(p_max, slacks[i], 1, PAPER_MIN_SLACK), total) {
                    break;
                }
                pack.offer(score(i), i, estimates[i], total);
                visited += 1;
            }
            stopped_early += usize::from(visited < lazy.len());
            assert_eq!(granted(&pack), old, "round {round}: bounded lazy visit");

            pack.clear();
            for &i in columns.iter() {
                pack.offer(score(i), i, estimates[i], total);
            }
            let mut visited = 0;
            walk_heap(heap.len(), &mut stack, |k| {
                let (slack, i) = heap[k];
                if pack.closed_below(unfit_score(p_max, slack, 1, PAPER_MIN_SLACK), total) {
                    return false;
                }
                pack.offer(score(i), i, estimates[i], total);
                visited += 1;
                true
            });
            pruned_early += usize::from(visited < lazy.len());
            assert_eq!(granted(&pack), old, "round {round}: pruned heap walk");
        }
        assert!(
            stopped_early > 100,
            "the bound stopped {stopped_early} visits"
        );
        assert!(
            pruned_early > 100,
            "the bound pruned {pruned_early} heap walks"
        );
    }

    #[test]
    fn cycle_counts_past_i64_never_fit() {
        let huge = Cycles::new(1 << 63);
        assert!(!fits_slack(huge, i64::MAX));
        assert!(!fits_slack(Cycles::new(u64::MAX), i64::MAX));
        assert!(fits_slack(Cycles::new(i64::MAX as u64), i64::MAX));
        assert!(fits_slack(Cycles::ZERO, 0));
        assert!(!fits_slack(Cycles::ZERO, -1));
    }

    #[test]
    fn earlier_estimate_is_a_sound_floor_under_shrinking_slack() {
        // The engine's memoization contract: with `done` frozen and slack
        // only shrinking, an earlier estimate used as the floor for a
        // later (tighter-slack) scan returns the same estimate as a full
        // scan from 1.
        let c = compiled(DnnId::ResNet50);
        let iso = c.table(16).total_cycles().get() as i64;
        let mut prev_floor = 1u32;
        for k in (1..=24).rev() {
            let t = SchedTask {
                priority: 5,
                slack: iso * i64::from(k) / 8, // monotonically shrinking
                done: 0.3,
                compiled: &c,
            };
            let full = t.estimate_resources(16);
            let hinted = t.estimate_resources_from(prev_floor, 16);
            assert_eq!(full, hinted, "k={k} floor={prev_floor}");
            assert!(hinted >= prev_floor);
            prev_floor = hinted;
        }
    }
}
