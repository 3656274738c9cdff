//! Incremental Algorithm 1 is *result-exact*: the scheduler that seeds
//! each estimate from the memo on the tenant record (proven floors, the
//! band fastpath and both whole-chip seed rules), selects the unfit
//! packing prefix, and places only the tenants that hold or receive
//! subarrays must produce bit-identical results to a full
//! `ESTIMATERESOURCES` rescan from 1 at every scheduling event — and the
//! streamed trace path must be bit-identical to the materialized one.
//!
//! Every case runs on the 16-subarray paper chip and on `granule16`
//! (64 subarrays), where packing prefixes grow past 16 tasks and the
//! whole-chip seed rules meet estimates four times larger.
//!
//! The comparison is the strongest observable the engines expose: the
//! complete `RecordingCollector` stream (every arrival, allocation change,
//! placement mask, execution slice, reconfiguration, queue interval and
//! completion) plus every counter and histogram of its report, and the
//! exact `SimResult`. If any event's allocations, placements or floors
//! diverged, the streams would differ at that event.
//!
//! The random cases also run the ExclusiveFifo ablation, which keeps no
//! memo and puts no tenant to sleep, so it has no full-rescan twin: its
//! oracle is the oracle kernel (`planaria_sim::oracle`) driving the same
//! policy, compared on the exact `SimResult` and its digest (that kernel
//! records no kernel-side events).
//!
//! The incremental scheduler also puts queued tenants to sleep: past
//! their deadline they are parked, with slack left they wait in deadline
//! order and the unfit pack visits them lazily under a score bound. The
//! kernel counts a sleeping tenant's work through a frozen sum. The
//! QoS-Hard overload cases drive parking hardest, the QoS-Soft and
//! QoS-Medium ones the waiting backlog, and the fleet cases read every
//! node's backlog at every fabric barrier, where a wrong sleeping sum
//! would show even when no allocation differs.

use planaria::arch::AcceleratorConfig;
use planaria::core::{CompiledLibrary, DispatchPolicy, Fleet, PlanariaEngine, SchedulingMode};
use planaria::model::SplitMix64;
use planaria::sim::oracle::run_streamed_reference;
use planaria::telemetry::{NullCollector, RecordingCollector};
use planaria::workload::Request;
use planaria::workload::{QosLevel, Scenario, TraceConfig};

fn scenarios() -> [Scenario; 3] {
    [Scenario::A, Scenario::B, Scenario::C]
}

fn qos_levels() -> [QosLevel; 3] {
    [QosLevel::Soft, QosLevel::Medium, QosLevel::Hard]
}

/// SplitMix64-randomized workload grid: each case draws scenario, QoS,
/// arrival rate, burstiness and seed from the property RNG, sized so a
/// trace produces ~10^3 scheduling events (arrival + completion each).
fn random_cases(rng: &mut SplitMix64, n: usize) -> Vec<TraceConfig> {
    (0..n)
        .map(|_| {
            let scenario = scenarios()[rng.next_below(3) as usize];
            let qos = qos_levels()[rng.next_below(3) as usize];
            let lambda = rng.next_range(30, 400) as f64;
            let requests = rng.next_range(300, 500) as usize;
            let seed = rng.next_u64();
            let cfg = TraceConfig::new(scenario, qos, lambda, requests, seed);
            if rng.next_bool(0.5) {
                cfg.with_burstiness(1.0 + rng.next_f64() * 7.0)
            } else {
                cfg
            }
        })
        .collect()
}

/// The chips every case runs on: the paper's 16 subarrays and
/// `granule16`'s 64.
fn chips() -> [AcceleratorConfig; 2] {
    [
        AcceleratorConfig::planaria(),
        AcceleratorConfig::with_granularity(16),
    ]
}

/// Races a scheduling mode against its oracle on one trace. The
/// incremental scheduler races the full rescan, compared on results and
/// the complete recorded stream; ExclusiveFifo races the oracle kernel
/// driving its own policy, compared on results and digest.
fn assert_lanes_agree(
    library: &CompiledLibrary,
    mode: SchedulingMode,
    trace: &[Request],
    what: &str,
) {
    let incremental = PlanariaEngine::with_library(library.clone()).with_mode(mode);
    let what = format!(
        "{} subarrays, {mode:?}, {what}",
        library.config().num_subarrays()
    );
    if mode == SchedulingMode::ExclusiveFifo {
        let hot = incremental.run(trace);
        let mut policy = incremental.spatial_policy();
        let oracle =
            run_streamed_reference(library.config(), trace, &mut policy, &mut NullCollector);
        assert_eq!(
            hot.completions, oracle.completions,
            "{what}: completions diverged"
        );
        assert_eq!(
            hot.total_energy, oracle.total_energy,
            "{what}: energy diverged"
        );
        assert_eq!(hot.makespan, oracle.makespan, "{what}: makespan diverged");
        assert_eq!(hot.digest(), oracle.digest(), "{what}: digest diverged");
        return;
    }
    let oracle =
        PlanariaEngine::with_library(library.clone()).with_mode(SchedulingMode::FullRescan);
    let mut t_inc = RecordingCollector::new();
    let mut t_full = RecordingCollector::new();
    let r_inc = incremental.run_with_collector(trace, &mut t_inc);
    let r_full = oracle.run_with_collector(trace, &mut t_full);
    assert_eq!(
        r_inc.completions, r_full.completions,
        "{what}: completions diverged"
    );
    assert_eq!(
        r_inc.total_energy, r_full.total_energy,
        "{what}: energy diverged"
    );
    assert_eq!(r_inc.makespan, r_full.makespan, "{what}: makespan diverged");
    assert_eq!(
        t_inc.events().len(),
        t_full.events().len(),
        "{what}: event counts diverged"
    );
    for (i, (a, b)) in t_inc.events().iter().zip(t_full.events()).enumerate() {
        assert_eq!(a, b, "{what}: event #{i} diverged");
    }
    assert_eq!(
        t_inc.report(),
        t_full.report(),
        "{what}: counters or histograms diverged"
    );
}

#[test]
fn incremental_matches_full_rescan_oracle_at_every_event() {
    let mut rng = SplitMix64::new(0x14c0_5eed_face_0001);
    let cases: Vec<(SchedulingMode, TraceConfig)> =
        [SchedulingMode::Spatial, SchedulingMode::ExclusiveFifo]
            .into_iter()
            .flat_map(|mode| {
                random_cases(&mut rng, 4)
                    .into_iter()
                    .map(move |cfg| (mode, cfg))
            })
            .collect();
    for chip in chips() {
        let library = CompiledLibrary::new(chip);
        for (mode, cfg) in &cases {
            assert_lanes_agree(&library, *mode, &cfg.generate(), &format!("{cfg:?}"));
        }
    }
}

#[test]
fn incremental_matches_full_rescan_oracle_on_a_deep_backlog() {
    // Bursty QoS-Hard Workload-C at λ = 500: most tenants wait past their
    // deadline, so the whole-chip seed rules and the packing prefix carry
    // most events.
    let cfg =
        TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, 1_200, 0xdee9).with_burstiness(6.0);
    let trace = cfg.generate();
    for chip in chips() {
        let library = CompiledLibrary::new(chip);
        assert_lanes_agree(
            &library,
            SchedulingMode::Spatial,
            &trace,
            &format!("{cfg:?}"),
        );
    }
}

/// Serve-burst's trace shape at λ = 2000: about three times the
/// ~660 q/s one node serves, so the backlog grows for the whole trace and
/// nearly every queued tenant waits past its deadline, parked.
fn overload(requests: usize, seed: u64) -> TraceConfig {
    TraceConfig::new(Scenario::C, QosLevel::Hard, 2000.0, requests, seed).with_burstiness(6.0)
}

/// Races the incremental scheduler against the full-rescan oracle on an
/// overloaded trace, on both chips.
fn assert_overload_agrees(requests: usize) {
    let cfg = overload(requests, 0x0e7104d);
    let trace = cfg.generate();
    for chip in chips() {
        let library = CompiledLibrary::new(chip);
        let incremental = PlanariaEngine::with_library(library.clone());
        let oracle = PlanariaEngine::with_library(library).with_mode(SchedulingMode::FullRescan);
        let (a, b) = (incremental.run(&trace), oracle.run(&trace));
        let what = format!("{} subarrays, {cfg:?}", chip.num_subarrays());
        assert_eq!(a.completions, b.completions, "{what}: completions diverged");
        assert_eq!(a.digest(), b.digest(), "{what}: digest diverged");
    }
}

#[test]
fn incremental_matches_full_rescan_oracle_under_overload() {
    assert_overload_agrees(2_000);
}

/// The overload case at 10^4 requests. The full rescan pays every
/// backlogged tenant's table scan at every event, so this takes about a
/// minute in release (CI runs it there) and several in debug.
#[test]
#[ignore = "10^4 overloaded requests through the full rescan; run with --release -- --ignored"]
fn incremental_matches_full_rescan_oracle_under_overload_at_ten_thousand() {
    assert_overload_agrees(10_000);
}

/// Overloaded traces whose backlog keeps slack for a while: QoS-Soft and
/// QoS-Medium on Scenarios A and C at λ = 2000 and 5000 (three to eight
/// times what one node serves), bursty like serve-burst. Queued tenants
/// wait in deadline order before their deadlines pass and they park.
fn waiting_overload(requests: usize) -> Vec<TraceConfig> {
    let mut cases = Vec::new();
    for qos in [QosLevel::Soft, QosLevel::Medium] {
        for scenario in [Scenario::A, Scenario::C] {
            for lambda in [2000.0, 5000.0] {
                cases.push(
                    TraceConfig::new(scenario, qos, lambda, requests, 0x3a17).with_burstiness(6.0),
                );
            }
        }
    }
    cases
}

#[test]
fn incremental_matches_full_rescan_oracle_on_a_waiting_backlog() {
    for chip in chips() {
        let library = CompiledLibrary::new(chip);
        for cfg in waiting_overload(1_500) {
            assert_lanes_agree(
                &library,
                SchedulingMode::Spatial,
                &cfg.generate(),
                &format!("{cfg:?}"),
            );
        }
    }
}

/// The QoS-Soft waiting-backlog cases at 10^4 requests, where the backlog
/// grows to thousands of tenants, about a hundred of them waiting at a
/// time. The full rescan scans every one of them at every event, so this
/// runs in release (CI does).
#[test]
#[ignore = "10^4 overloaded requests through the full rescan; run with --release -- --ignored"]
fn incremental_matches_full_rescan_oracle_on_a_waiting_backlog_at_ten_thousand() {
    for chip in chips() {
        let library = CompiledLibrary::new(chip);
        let incremental = PlanariaEngine::with_library(library.clone());
        let oracle = PlanariaEngine::with_library(library).with_mode(SchedulingMode::FullRescan);
        for cfg in waiting_overload(10_000)
            .into_iter()
            .filter(|cfg| cfg.qos == QosLevel::Soft)
        {
            let trace = cfg.generate();
            let (a, b) = (incremental.run(&trace), oracle.run(&trace));
            let what = format!("{} subarrays, {cfg:?}", chip.num_subarrays());
            assert_eq!(a.completions, b.completions, "{what}: completions diverged");
            assert_eq!(a.digest(), b.digest(), "{what}: digest diverged");
        }
    }
}

#[test]
fn fleet_backlog_matches_full_rescan_nodes_on_a_waiting_backlog() {
    // Two nodes at QoS-Soft and λ = 2000: each node's backlog waits in
    // deadline order, and join-shortest-queue breaks its ties by the
    // backlog, which counts the waiting tenants through the kernel's
    // sleeping sum. The recording keeps every node's backlog gauge at
    // every barrier.
    let trace = TraceConfig::new(Scenario::C, QosLevel::Soft, 2000.0, 3_000, 0xf1ee7)
        .with_burstiness(6.0)
        .generate();
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let fleet = |mode: SchedulingMode| {
        let node = PlanariaEngine::with_library(library.clone()).with_mode(mode);
        Fleet::new(vec![node.clone(), node]).expect("two paper chips form a fleet")
    };
    let policy = DispatchPolicy::JoinShortestQueue;
    let (r_inc, s_inc, rec_inc) = fleet(SchedulingMode::Spatial).run_recorded(&trace, policy);
    let (r_full, s_full, rec_full) = fleet(SchedulingMode::FullRescan).run_recorded(&trace, policy);
    assert_eq!(r_inc.digest(), r_full.digest(), "results diverged");
    assert_eq!(s_inc, s_full, "fabric stats diverged");
    assert!(rec_inc == rec_full, "fabric recordings diverged");
}

#[test]
fn fleet_backlog_matches_full_rescan_nodes_under_overload() {
    // Two nodes at λ = 2000 are still overloaded. Join-shortest-queue
    // breaks ties by backlog and least-work routes by it, and the
    // recording keeps every node's backlog gauge at every barrier.
    let trace = overload(3_000, 0xf1ee7).generate();
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let fleet = |mode: SchedulingMode| {
        let node = PlanariaEngine::with_library(library.clone()).with_mode(mode);
        Fleet::new(vec![node.clone(), node]).expect("two paper chips form a fleet")
    };
    let (incremental, oracle) = (
        fleet(SchedulingMode::Spatial),
        fleet(SchedulingMode::FullRescan),
    );
    for policy in [DispatchPolicy::JoinShortestQueue, DispatchPolicy::LeastWork] {
        let (r_inc, s_inc, rec_inc) = incremental.run_recorded(&trace, policy);
        let (r_full, s_full, rec_full) = oracle.run_recorded(&trace, policy);
        assert_eq!(
            r_inc.digest(),
            r_full.digest(),
            "{policy:?}: results diverged"
        );
        assert_eq!(s_inc, s_full, "{policy:?}: fabric stats diverged");
        assert!(
            rec_inc == rec_full,
            "{policy:?}: fabric recordings diverged"
        );
    }
}

#[test]
fn streamed_path_is_bit_identical_to_materialized() {
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let engine = PlanariaEngine::with_library(library.clone());
    let prema = planaria::prema::PremaEngine::new_default();
    let mut rng = SplitMix64::new(0x57_12ea_a1);
    for cfg in random_cases(&mut rng, 3) {
        let trace = cfg.generate();
        let materialized = engine.run(&trace);
        let streamed = engine.run(cfg.stream());
        assert_eq!(
            materialized.completions, streamed.completions,
            "{cfg:?}: planaria streamed completions diverged"
        );
        assert_eq!(materialized.total_energy, streamed.total_energy, "{cfg:?}");
        assert_eq!(materialized.makespan, streamed.makespan, "{cfg:?}");
        let pm = prema.run(&trace);
        let ps = prema.run(cfg.stream());
        assert_eq!(
            pm.completions, ps.completions,
            "{cfg:?}: prema streamed completions diverged"
        );
        assert_eq!(pm.total_energy, ps.total_energy, "{cfg:?}");
        assert_eq!(pm.makespan, ps.makespan, "{cfg:?}");
    }
}

#[test]
fn incremental_streamed_matches_full_rescan_materialized() {
    // The two tentpole axes composed: lazily streamed requests through the
    // incremental scheduler vs the fully materialized full-rescan path.
    let library = CompiledLibrary::new(AcceleratorConfig::planaria());
    let fast = PlanariaEngine::with_library(library.clone());
    let slow = PlanariaEngine::with_library(library).with_mode(SchedulingMode::FullRescan);
    let cfg =
        TraceConfig::new(Scenario::C, QosLevel::Medium, 250.0, 600, 0xabcd).with_burstiness(4.0);
    let a = fast.run(cfg.stream());
    let b = slow.run(&cfg.generate());
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.total_energy, b.total_energy);
    assert_eq!(a.makespan, b.makespan);
}
