//! Byte-level pin of the recorded event stream.
//!
//! `incremental_equivalence` races two scheduler lanes of the same build,
//! and `golden_engine` allows 2 µs of finish-time drift, so neither would
//! notice a change that moved both lanes the same way. This test hashes
//! the Chrome trace of a `RecordingCollector` run (every arrival,
//! allocation, placement mask, execution slice, reconfiguration, queue
//! interval, preemption and completion, with cycle timestamps) together
//! with the run's `SimResult::digest()`, over a small fixed grid:
//!
//! * the 16-subarray paper chip and `granule16` (64 subarrays);
//! * the incremental scheduler and the full-rescan oracle, which must
//!   both hit the same pinned value, and the ExclusiveFifo ablation;
//! * a deep QoS-Hard backlog and a lightly contended QoS-Medium trace;
//! * the monolithic baseline under PREMA's token policy, FCFS, SJF and
//!   PREMA with a 1 ms starvation threshold, at which a queued tenant
//!   starves after 0.09–1 ms.
//!
//! The Spatial and PREMA pins were recorded before the scheduler's
//! per-event work was restricted to the tenants that can change; the
//! ExclusiveFifo, FCFS, SJF and 1 ms pins before PREMA's tokens accrued
//! lazily and a tenant's placement became the one record of its
//! subarrays. Every optimisation since must reproduce them byte for
//! byte. A deliberate behaviour change re-records them: the failure
//! message prints the new value.

use planaria::arch::AcceleratorConfig;
use planaria::core::{CompiledLibrary, PlanariaEngine, SchedulingMode};
use planaria::prema::{Policy, PremaEngine};
use planaria::telemetry::{chrome_trace, RecordingCollector};
use planaria::workload::{QosLevel, Request, Scenario, SimResult, TraceConfig};

/// FNV-1a over the trace bytes, then the result digest.
fn pin(rec: &RecordingCollector, r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let trace = chrome_trace(rec);
    for b in trace.bytes().chain(r.digest().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The trace grid: a deep bursty QoS-Hard backlog (most tenants queue
/// past their deadline) and a lightly contended QoS-Medium mix.
fn traces() -> [(&'static str, Vec<Request>); 2] {
    [
        (
            "C/H/500/b6",
            TraceConfig::new(Scenario::C, QosLevel::Hard, 500.0, 240, 0x7e1e)
                .with_burstiness(6.0)
                .generate(),
        ),
        (
            "A/M/150",
            TraceConfig::new(Scenario::A, QosLevel::Medium, 150.0, 120, 5).generate(),
        ),
    ]
}

/// `(chip, modes, trace, pinned)`: every listed scheduling mode must hit
/// the pin.
const PLANARIA_PINS: [(&str, &[SchedulingMode], &str, u64); 8] = [
    ("planaria16", SPATIAL, "C/H/500/b6", 0x3571_77d2_6a85_ceb0),
    ("planaria16", SPATIAL, "A/M/150", 0xd346_9f60_a440_4b62),
    ("granule16", SPATIAL, "C/H/500/b6", 0xf541_4e6a_fca7_3848),
    ("granule16", SPATIAL, "A/M/150", 0x1e73_4630_9bb2_650d),
    ("planaria16", EXCLUSIVE, "C/H/500/b6", 0x19e1_f084_3efa_3872),
    ("planaria16", EXCLUSIVE, "A/M/150", 0x9a73_bc2a_70b2_221e),
    ("granule16", EXCLUSIVE, "C/H/500/b6", 0x21b3_06d3_ad94_d9a5),
    ("granule16", EXCLUSIVE, "A/M/150", 0x8b18_4733_aaea_ecc1),
];

/// The incremental scheduler and its full-rescan oracle.
const SPATIAL: &[SchedulingMode] = &[SchedulingMode::Spatial, SchedulingMode::FullRescan];
const EXCLUSIVE: &[SchedulingMode] = &[SchedulingMode::ExclusiveFifo];

/// `(policy, trace, pinned)` for the baseline on the monolithic chip.
const PREMA_PINS: [(&str, &str, u64); 8] = [
    ("prema", "C/H/500/b6", 0xd45d_8885_82c8_62ea),
    ("prema", "A/M/150", 0x9e3d_c4eb_9707_ad51),
    ("fcfs", "C/H/500/b6", 0x3c3c_e35e_3964_f840),
    ("fcfs", "A/M/150", 0x7b26_4ee3_ea6b_6953),
    ("sjf", "C/H/500/b6", 0xd2ac_1362_5838_b53e),
    ("sjf", "A/M/150", 0x1d44_21d0_7f73_8416),
    ("prema-1ms", "C/H/500/b6", 0x81ba_bc31_87ca_3b95),
    ("prema-1ms", "A/M/150", 0x5be0_36ab_0e3b_ab7a),
];

fn prema(name: &str) -> PremaEngine {
    let mono = AcceleratorConfig::monolithic();
    match name {
        "prema" => PremaEngine::new_default(),
        "fcfs" => PremaEngine::new(mono, Policy::Fcfs),
        "sjf" => PremaEngine::new(mono, Policy::Sjf),
        "prema-1ms" => PremaEngine::new_default().with_token_threshold(0.001),
        _ => unreachable!("unknown baseline {name}"),
    }
}

fn chip(name: &str) -> AcceleratorConfig {
    match name {
        "planaria16" => AcceleratorConfig::planaria(),
        "granule16" => AcceleratorConfig::with_granularity(16),
        _ => unreachable!("unknown chip {name}"),
    }
}

#[test]
fn recorded_streams_match_their_pins() {
    let traces = traces();
    let mut mismatches = Vec::new();
    let trace = |name: &str| {
        &traces
            .iter()
            .find(|(n, _)| *n == name)
            .expect("pinned trace exists")
            .1
    };
    for (chip_name, modes, trace_name, pinned) in PLANARIA_PINS {
        let library = CompiledLibrary::new(chip(chip_name));
        for &mode in modes {
            let engine = PlanariaEngine::with_library(library.clone()).with_mode(mode);
            let mut rec = RecordingCollector::new();
            let r = engine.run_with_collector(trace(trace_name), &mut rec);
            let got = pin(&rec, &r);
            if got != pinned {
                mismatches.push(format!("{chip_name} {trace_name} {mode:?}: {got:#018x}"));
            }
        }
    }
    for (name, trace_name, pinned) in PREMA_PINS {
        let mut rec = RecordingCollector::new();
        let r = prema(name).run_with_collector(trace(trace_name), &mut rec);
        let got = pin(&rec, &r);
        if got != pinned {
            mismatches.push(format!("{name} {trace_name}: {got:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "recorded streams moved:\n{}",
        mismatches.join("\n")
    );
}
