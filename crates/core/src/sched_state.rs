//! Seeding incremental Algorithm 1 from a tenant's estimate memo.
//!
//! Every scheduling event re-runs `ESTIMATERESOURCES` over every awake
//! tenant (sleeping tenants are covered below). The scan is monotone —
//! with a tenant's work counters frozen
//! (`done`/`total` unchanged) and slack only shrinking, the minimal
//! fitting subarray count can only grow — so the previous event's result
//! is a *proven floor* for the next (see
//! [`SchedTask::estimate_resources_from`]). The Planaria policy keeps
//! that result, with the predicted cycles *at* the floor (`fit`), on the
//! tenant record itself (`TenantState::memo`, a [`FloorEntry`]), so the
//! memo moves with the tenant through `swap_remove` retirement and costs
//! no lookup. [`seed`] classifies it:
//!
//! * memo clean (`done`/`total` unchanged) and `fit <= slack` — the
//!   memoized `(floor, fit)` **is** the answer: floor still fits, and
//!   minimality is inherited from the wider earlier slack. Zero table
//!   lookups.
//! * memo clean and `floor` is the whole chip — also the answer, at any
//!   slack: a scan from the whole chip has one iteration, which returns
//!   `(total, predict(total))` whether or not the count fits, and clean
//!   counters mean `predict(total)` is still `fit`.
//! * a negative slack otherwise, memo or not — scan from the whole chip:
//!   no cycle count fits a negative slack ([`fits_slack`]), so a scan
//!   from 1, or from any floor, fails at every count and returns the same
//!   `(total, predict(total))`, which the whole chip answers in one
//!   lookup. This is the waiting tenant that wakes past its deadline.
//! * memo clean otherwise — scan upward from `floor` (the sound lower
//!   bound).
//! * no clean memo (the tenant progressed, switched tables, or is new)
//!   otherwise — scan from 1, exactly like a fresh rescan.
//!
//! Every case returns the pair a scan from 1 returns (DESIGN.md §5f;
//! pinned by the `incremental_equivalence` property test), so the
//! incremental scheduler is result-exact, not approximate. The
//! full-rescan oracle (`SchedulingMode::FullRescan`) never calls [`seed`]
//! and never writes the memo: every tenant scans from 1, the paper's
//! `ESTIMATERESOURCES` verbatim.
//!
//! **Parking.** After each event the incremental policy parks every
//! queued tenant with a negative slack (`SimState::park`). Both rules
//! that answer a negative slack leave its memo clean at the whole chip,
//! and a parked tenant stays that way until it is granted subarrays: its
//! work is frozen and its slack only falls, so its estimate is the whole
//! chip and its unfit-path score `priority / (min_slack × total)`. The
//! pack therefore reaches the best parked tenant (highest priority,
//! lowest position) before any other, and its whole-chip estimate ends
//! the packing prefix there. So each event estimates the awake tenants
//! plus that one parked tenant, and the other parked tenants are never
//! walked. The oracle writes no memo, so it never parks.
//!
//! **Waiting.** A queued tenant that still has slack waits instead
//! (`SimState::wait`), in deadline order. Its memo is left as the last
//! visit wrote it: its work is frozen while it waits and its slack only
//! shrinks, so the memo stays clean and its floor sound however many
//! events pass unvisited. When the columns and the waiting tenants cannot
//! all fit, the unfit pack visits the waiting tenants in deadline order
//! and stops at the first whose best possible score, `P_max /
//! max(slack, min_slack)`, lies strictly below a full prefix's last
//! score; when they might fit, every waiting tenant is estimated as a
//! column. A waiting tenant whose slack turns negative rejoins the
//! columns and is parked if it stays queued. The oracle never waits.
//!
//! [`SchedTask::estimate_resources_from`]: crate::scheduler::SchedTask::estimate_resources_from

use crate::scheduler::fits_slack;
use planaria_model::units::Cycles;
pub use planaria_sim::FloorEntry;

/// How to seed a tenant's `ESTIMATERESOURCES` scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seed {
    /// The memoized estimate is exact as-is; no scan, no table lookups.
    /// Carries `(floor, fit)`.
    Exact(u32, Cycles),
    /// Scan upward from this proven floor.
    Floor(u32),
}

/// Classifies a tenant's memo (see the module docs) for a tenant with
/// work counters `done`/`total` and signed `slack`, on a chip of
/// `subarrays`.
pub fn seed(
    memo: Option<&FloorEntry>,
    done: Cycles,
    total: Cycles,
    slack: i64,
    subarrays: u32,
) -> Seed {
    let clean = memo.filter(|m| m.done == done && m.total == total);
    match clean {
        Some(m) if m.floor == subarrays || fits_slack(m.fit, slack) => Seed::Exact(m.floor, m.fit),
        _ if slack < 0 => Seed::Floor(subarrays),
        Some(m) => Seed::Floor(m.floor),
        None => Seed::Floor(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PlanariaEngine, SchedulingMode};
    use crate::scheduler::SchedTask;
    use planaria_arch::AcceleratorConfig;
    use planaria_compiler::{compile, CompiledDnn};
    use planaria_model::DnnId;
    use planaria_sim::{run_streamed_sink, EnginePolicy, SimState};
    use planaria_telemetry::{Collector, NullCollector};
    use planaria_workload::{DiscardSink, QosLevel, Request, Scenario, TraceConfig};
    use std::sync::Arc;

    fn cy(v: u64) -> Cycles {
        Cycles::new(v)
    }

    fn memo(floor: u32, done: u64, total: u64, fit: u64) -> FloorEntry {
        FloorEntry {
            floor,
            done: cy(done),
            total: cy(total),
            fit: cy(fit),
        }
    }

    #[test]
    fn seed_without_memo_scans_from_one() {
        assert_eq!(seed(None, cy(0), cy(100), 50, 16), Seed::Floor(1));
    }

    /// Counts the memos the wrapped policy leaves on live tenants, and
    /// the most tenants it keeps parked, and waiting, at once.
    struct MemoWatch<P> {
        inner: P,
        memos: usize,
        parked: usize,
        waiting: usize,
    }

    impl<P: EnginePolicy> EnginePolicy for MemoWatch<P> {
        fn compiled_for(&mut self, request: &Request) -> Arc<CompiledDnn> {
            self.inner.compiled_for(request)
        }

        fn reschedule<C: Collector>(&mut self, sim: &mut SimState, c: &mut C) {
            self.inner.reschedule(sim, c);
            self.memos += sim.tenants().iter().filter(|t| t.memo.is_some()).count();
            self.parked = self.parked.max(sim.parked_len());
            self.waiting = self.waiting.max(sim.waiting_len());
        }
    }

    /// `(memos, most parked, most waiting)` over a bursty QoS-Hard run
    /// whose backlog waits past its deadlines.
    fn watch(mode: SchedulingMode) -> (usize, usize, usize) {
        let cfg = AcceleratorConfig::planaria();
        let trace = TraceConfig::new(Scenario::C, QosLevel::Hard, 2000.0, 300, 3)
            .with_burstiness(6.0)
            .generate();
        let engine = PlanariaEngine::new(cfg).with_mode(mode);
        let mut watch = MemoWatch {
            inner: engine.spatial_policy(),
            memos: 0,
            parked: 0,
            waiting: 0,
        };
        run_streamed_sink(
            &cfg,
            trace.iter().copied(),
            &mut watch,
            &mut NullCollector,
            DiscardSink,
        );
        (watch.memos, watch.parked, watch.waiting)
    }

    #[test]
    fn full_rescan_memo_never_remembers() {
        assert_eq!(
            watch(SchedulingMode::FullRescan).0,
            0,
            "the oracle wrote a memo"
        );
        assert!(
            watch(SchedulingMode::Spatial).0 > 0,
            "the incremental policy memoized nothing"
        );
    }

    #[test]
    fn full_rescan_never_parks() {
        let (_, parked, waiting) = watch(SchedulingMode::FullRescan);
        assert_eq!(parked, 0, "the oracle parked a tenant");
        assert_eq!(waiting, 0, "the oracle let a tenant wait");
        let (_, parked, waiting) = watch(SchedulingMode::Spatial);
        assert!(parked > 0, "the incremental policy parked nothing");
        assert!(waiting > 0, "the incremental policy let nothing wait");
    }

    #[test]
    fn clean_entry_with_fitting_slack_is_exact() {
        let m = memo(4, 10, 100, 40);
        assert_eq!(
            seed(Some(&m), cy(10), cy(100), 40, 16),
            Seed::Exact(4, cy(40))
        );
        assert_eq!(
            seed(Some(&m), cy(10), cy(100), 1000, 16),
            Seed::Exact(4, cy(40))
        );
    }

    #[test]
    fn clean_entry_with_tight_slack_degrades_to_floor() {
        let m = memo(4, 10, 100, 40);
        assert_eq!(seed(Some(&m), cy(10), cy(100), 39, 16), Seed::Floor(4));
    }

    #[test]
    fn dirty_work_counters_invalidate() {
        let m = memo(4, 10, 100, 40);
        // Progress dirties the entry ...
        assert_eq!(seed(Some(&m), cy(20), cy(100), 1000, 16), Seed::Floor(1));
        // ... and so does a table switch (total changed).
        assert_eq!(seed(Some(&m), cy(10), cy(90), 1000, 16), Seed::Floor(1));
    }

    #[test]
    fn whole_chip_memo_is_exact_at_any_slack() {
        let m = memo(16, 10, 100, 400);
        for slack in [i64::MIN, -1, 0, 399, 400, i64::MAX] {
            assert_eq!(
                seed(Some(&m), cy(10), cy(100), slack, 16),
                Seed::Exact(16, cy(400)),
                "slack {slack}"
            );
        }
    }

    #[test]
    fn clean_entry_past_its_deadline_scans_from_the_whole_chip() {
        // A floor below the chip whose fit misses the slack: a scan from
        // the floor would fail at every count up to the chip.
        let m = memo(4, 10, 100, 40);
        for slack in [-1, -40, i64::MIN] {
            assert_eq!(
                seed(Some(&m), cy(10), cy(100), slack, 16),
                Seed::Floor(16),
                "slack {slack}"
            );
        }
    }

    #[test]
    fn negative_slack_without_clean_memo_scans_from_the_whole_chip() {
        assert_eq!(seed(None, cy(0), cy(100), -1, 16), Seed::Floor(16));
        let dirty = memo(2, 10, 100, 40);
        assert_eq!(seed(Some(&dirty), cy(11), cy(100), -1, 64), Seed::Floor(64));
        // Zero slack is not negative: a zero-cycle prediction fits it.
        assert_eq!(seed(None, cy(0), cy(100), 0, 16), Seed::Floor(1));
    }

    /// A task of `net` at `done` with `slack` on a compiled chip.
    fn task(c: &CompiledDnn, done: f64, slack: i64) -> SchedTask<'_> {
        SchedTask {
            priority: 5,
            slack,
            done,
            compiled: c,
        }
    }

    #[test]
    fn both_seed_rules_equal_a_scan_from_one_on_compiled_tables() {
        let cfg = AcceleratorConfig::planaria();
        let chip = cfg.num_subarrays();
        for net in [DnnId::ResNet50, DnnId::TinyYolo, DnnId::SsdResNet34] {
            let c = compile(&cfg, &net.build());
            let full = c.table(chip).total_cycles().get() as i64;
            for done in [0.0, 0.4] {
                // Negative slack, with no memo or a clean one below the
                // chip: the seed scans from the whole chip and lands on
                // the scan-from-1 pair.
                let (low, low_fit) = task(&c, done, 2 * full).estimate_resources_with_fit(1, chip);
                assert!(
                    low < chip,
                    "{net:?}: twice the full-chip time fits below it"
                );
                let below = FloorEntry {
                    floor: low,
                    done: cy(7),
                    total: cy(9),
                    fit: low_fit,
                };
                for slack in [-1, -full, i64::MIN] {
                    let t = task(&c, done, slack);
                    for m in [None, Some(&below)] {
                        let Seed::Floor(floor) = seed(m, cy(7), cy(9), slack, chip) else {
                            panic!("no memo below the chip is exact past the deadline");
                        };
                        assert_eq!(floor, chip);
                        assert_eq!(
                            t.estimate_resources_with_fit(floor, chip),
                            t.estimate_resources_with_fit(1, chip),
                            "{net:?} done {done} slack {slack} memo {m:?}"
                        );
                    }
                }
                // A memo saturated at the whole chip, recorded at a slack
                // nothing fits, answers every later (smaller) slack.
                let recorded = full / 2;
                let (floor, fit) = task(&c, done, recorded).estimate_resources_with_fit(1, chip);
                assert_eq!(floor, chip, "{net:?}: half the full-chip time cannot fit");
                let m = FloorEntry {
                    floor,
                    done: cy(7),
                    total: cy(9),
                    fit,
                };
                for slack in [recorded, recorded / 2, 0, -1, -full] {
                    assert_eq!(
                        seed(Some(&m), cy(7), cy(9), slack, chip),
                        Seed::Exact(chip, fit)
                    );
                    let (est, at) = task(&c, done, slack).estimate_resources_with_fit(1, chip);
                    assert_eq!((est, at), (chip, fit), "{net:?} done {done} slack {slack}");
                }
            }
        }
    }
}
