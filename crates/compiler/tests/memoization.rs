//! Equivalence proof for the compiler's shape deduplication: searching
//! once per distinct layer shape must be a pure optimization, i.e. the
//! deduplicated entry points and the per-occurrence oracle
//! (`compile_uncached`) yield bit-identical configuration tables for
//! every benchmark network.

use planaria_arch::AcceleratorConfig;
use planaria_compiler::{compile, compile_for_allocation, compile_uncached};
use planaria_model::DnnId;

#[test]
fn compile_memoized_equals_unmemoized() {
    let cfg = AcceleratorConfig::planaria();
    for id in DnnId::ALL {
        let dnn = id.build();
        let memoized = compile(&cfg, &dnn);
        let uncached = compile_uncached(&cfg, &dnn);
        assert_eq!(
            memoized, uncached,
            "{id:?}: memoized compilation diverged from the reference"
        );
    }
}

#[test]
fn compile_memoized_equals_unmemoized_monolithic() {
    let cfg = AcceleratorConfig::monolithic();
    for id in DnnId::ALL {
        let dnn = id.build();
        assert_eq!(compile(&cfg, &dnn), compile_uncached(&cfg, &dnn), "{id:?}");
    }
}

/// The single-table entry point against the oracle, for every network,
/// every allocation size and every named geometry.
#[test]
fn compile_for_allocation_equals_unmemoized_on_every_geometry() {
    for cfg in [
        AcceleratorConfig::planaria(),
        AcceleratorConfig::monolithic(),
        AcceleratorConfig::with_granularity(16),
        AcceleratorConfig::throughput_tuned(),
        AcceleratorConfig::latency_tuned(),
    ] {
        for id in DnnId::ALL {
            let dnn = id.build();
            let oracle = compile_uncached(&cfg, &dnn);
            for s in 1..=cfg.num_subarrays() {
                assert_eq!(
                    compile_for_allocation(&cfg, &dnn, s),
                    *oracle.table(s),
                    "{id:?}: table {s} of {}",
                    cfg.num_subarrays()
                );
            }
        }
    }
}
