//! Offline compiler for Planaria (Fig. 11a).
//!
//! Because a DNN serving an INFaaS stream may be granted anywhere from 1 to
//! 16 subarrays over its lifetime, the compiler produces **one configuration
//! table per possible allocation size**. Each table stores, per layer, the
//! optimal fission configuration ([`Arrangement`](planaria_arch::Arrangement)),
//! the number of tiles, and the estimated cycles per tile — exactly the
//! lookup structure the paper's runtime scheduler consults to predict
//! remaining time ("the `PREDICTTIME` function reduces to merely looking up
//! the number of remaining tiles with their cycles", §V).
//!
//! Configuration selection minimizes cycles, breaking near-ties (within 2 %)
//! by dynamic energy — mirroring the paper's offline exhaustive search over
//! fission possibilities and tiling sizes.
//!
//! Every entry point ([`compile`], [`compile_for_allocation`],
//! [`compile_with_collector`]) dedupes the network's layer shapes once
//! ([`ShapeTable`]) and runs that search once per distinct shape and
//! allocation size. [`compile_uncached`] searches every layer occurrence
//! instead; it is the oracle the equivalence tests compare against.
//!
//! # Example
//!
//! ```
//! use planaria_arch::AcceleratorConfig;
//! use planaria_compiler::compile;
//! use planaria_model::DnnId;
//!
//! let cfg = AcceleratorConfig::planaria();
//! let bin = compile(&cfg, &DnnId::GoogLeNet.build());
//! assert_eq!(bin.num_tables(), 16);
//! // More subarrays never hurt:
//! assert!(bin.table(16).total_cycles() <= bin.table(1).total_cycles());
//! ```

pub mod histogram;
pub mod library;
pub mod memo;
pub mod table;

pub use histogram::{config_histogram, ConfigUsage};
pub use library::CompiledLibrary;
pub use memo::ShapeTable;
pub use table::{
    compile, compile_for_allocation, compile_uncached, compile_with_collector, remaining_from,
    CompiledDnn, ConfigTable, LayerConfig, TilePosition,
};
