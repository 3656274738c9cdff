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
//!   both hit the same pinned value;
//! * a deep QoS-Hard backlog and a lightly contended QoS-Medium trace;
//! * the PREMA baseline on the monolithic chip.
//!
//! The pinned values were recorded before the scheduler's per-event work
//! was restricted to the tenants that can change, and every
//! optimisation since must reproduce them byte for byte. A deliberate
//! behaviour change re-records them: the failure message prints the
//! new value.

use planaria::arch::AcceleratorConfig;
use planaria::core::{CompiledLibrary, PlanariaEngine};
use planaria::prema::PremaEngine;
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

/// `(chip, trace, pinned)`.
const PLANARIA_PINS: [(&str, &str, u64); 4] = [
    ("planaria16", "C/H/500/b6", 0x3571_77d2_6a85_ceb0),
    ("planaria16", "A/M/150", 0xd346_9f60_a440_4b62),
    ("granule16", "C/H/500/b6", 0xf541_4e6a_fca7_3848),
    ("granule16", "A/M/150", 0x1e73_4630_9bb2_650d),
];

/// `(trace, pinned)` for PREMA on the monolithic chip.
const PREMA_PINS: [(&str, u64); 2] = [
    ("C/H/500/b6", 0xd45d_8885_82c8_62ea),
    ("A/M/150", 0x9e3d_c4eb_9707_ad51),
];

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
    for (chip_name, trace_name, pinned) in PLANARIA_PINS {
        let library = CompiledLibrary::new(chip(chip_name));
        let trace = &traces
            .iter()
            .find(|(n, _)| *n == trace_name)
            .expect("pinned trace exists")
            .1;
        for incremental in [true, false] {
            let engine =
                PlanariaEngine::with_library(library.clone()).with_incremental(incremental);
            let mut rec = RecordingCollector::new();
            let r = engine.run_with_collector(trace, &mut rec);
            let got = pin(&rec, &r);
            if got != pinned {
                mismatches.push(format!(
                    "{chip_name} {trace_name} incremental={incremental}: {got:#018x}"
                ));
            }
        }
    }
    let prema = PremaEngine::new_default();
    for (trace_name, pinned) in PREMA_PINS {
        let trace = &traces
            .iter()
            .find(|(n, _)| *n == trace_name)
            .expect("pinned trace exists")
            .1;
        let mut rec = RecordingCollector::new();
        let r = prema.run_with_collector(trace, &mut rec);
        let got = pin(&rec, &r);
        if got != pinned {
            mismatches.push(format!("prema {trace_name}: {got:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "recorded streams moved:\n{}",
        mismatches.join("\n")
    );
}
