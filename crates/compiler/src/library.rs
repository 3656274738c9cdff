//! Pre-compiled network library shared by engines.

use crate::table::{compile, CompiledDnn};
use planaria_arch::AcceleratorConfig;
use planaria_model::DnnId;
use planaria_parallel::{effective_jobs, par_map};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// All nine benchmark networks compiled for one accelerator configuration.
///
/// Compilation (16 tables × every distinct layer shape × every
/// arrangement) happens once; engines and benchmark harnesses share the
/// library via cheap clones.
#[derive(Debug, Clone)]
pub struct CompiledLibrary {
    cfg: AcceleratorConfig,
    /// One entry per network, indexed by `DnnId` discriminant
    /// (`DnnId::ALL` order), so a lookup is an index.
    by_id: Vec<Arc<CompiledDnn>>,
}

impl CompiledLibrary {
    /// Compiles every benchmark network for `cfg`.
    ///
    /// The nine networks are independent, so they fan out over the
    /// [`planaria_parallel`] pool (worker count from `PLANARIA_JOBS` /
    /// [`std::thread::available_parallelism`]). Each network compiles
    /// through [`compile`], which dedupes its layer shapes once
    /// ([`crate::ShapeTable`]) and searches per distinct shape in every
    /// per-allocation table, and results join in `DnnId::ALL` index
    /// order, so the library is bit-identical at any job count.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Self::with_jobs(cfg, effective_jobs())
    }

    /// [`CompiledLibrary::new`] with an explicit worker count
    /// (determinism tests compare `jobs = 1` against `jobs = N`).
    pub fn with_jobs(cfg: AcceleratorConfig, jobs: usize) -> Self {
        let by_id = par_map(DnnId::ALL.to_vec(), jobs, |id| {
            Arc::new(compile(&cfg, &id.build()))
        });
        Self { cfg, by_id }
    }

    /// The configuration the library was compiled for.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// The compiled form of one network.
    pub fn get(&self, id: DnnId) -> &CompiledDnn {
        &self.by_id[id as usize]
    }

    /// A shared handle to the compiled form of one network (engines
    /// cache this per tenant to avoid a lookup per scheduling event).
    pub fn shared(&self, id: DnnId) -> Arc<CompiledDnn> {
        Arc::clone(&self.by_id[id as usize])
    }

    /// A process-wide shared library for `cfg`, compiled at most once
    /// per distinct geometry.
    ///
    /// Engines construct through here, so an N-node fleet running K
    /// distinct chip geometries compiles K libraries instead of N —
    /// before the cache, every `PlanariaEngine::new(cfg)` recompiled all
    /// nine networks even when an identical sibling node already had
    /// them. Keys cover every configuration field (floats by bit
    /// pattern), so two configs share a library only when their compiled
    /// tables are guaranteed identical. The compile itself runs under
    /// the cache lock: concurrent requests for the same new geometry
    /// wait and then share, rather than racing to compile twice.
    ///
    /// [`CompiledLibrary::new`] stays uncached for callers that need a
    /// private compile (the determinism tests compare fresh ones).
    pub fn shared_for(cfg: &AcceleratorConfig) -> Arc<Self> {
        static CACHE: OnceLock<Mutex<BTreeMap<GeometryKey, Arc<CompiledLibrary>>>> =
            OnceLock::new();
        let mut cache = CACHE
            .get_or_init(|| Mutex::new(BTreeMap::new()))
            .lock()
            // lint: a poisoned cache only means another thread panicked
            // mid-compile; the map itself is still a valid key->Arc store
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(lib) = cache.get(&GeometryKey::of(cfg)) {
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(lib);
        }
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        let lib = Arc::new(Self::new(*cfg));
        cache.insert(GeometryKey::of(cfg), Arc::clone(&lib));
        lib
    }

    /// Process-wide `(hits, misses)` of the [`shared_for`] cache; each
    /// miss is one full nine-network compile. The geometry bench guard
    /// asserts that fleet construction cost scales with distinct
    /// geometries, not node count.
    ///
    /// [`shared_for`]: Self::shared_for
    pub fn cache_stats() -> (u64, u64) {
        (
            CACHE_HITS.load(Ordering::Relaxed),
            CACHE_MISSES.load(Ordering::Relaxed),
        )
    }

    /// Isolated full-chip latency of one network, seconds — the
    /// `T_isolated` term of the fairness metric.
    pub fn isolated_latency(&self, id: DnnId) -> f64 {
        let n = self.cfg.num_subarrays();
        self.get(id)
            .table(n)
            .total_cycles()
            .seconds_at(self.cfg.freq_hz)
    }

    /// Isolated latencies for all networks (for the fairness metric).
    pub fn isolated_latencies(&self) -> BTreeMap<DnnId, f64> {
        DnnId::ALL
            .into_iter()
            .map(|id| (id, self.isolated_latency(id)))
            .collect()
    }
}

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Total-order cache key covering every [`AcceleratorConfig`] field;
/// floats compare by bit pattern, so any numeric difference — even a
/// crossbar-derated clock vs the nominal one — is a distinct geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct GeometryKey {
    pe_rows: u32,
    pe_cols: u32,
    subarray_dim: u32,
    subarrays_per_pod: u32,
    freq_bits: u64,
    onchip_buffer_bytes: u64,
    weight_buffer_per_pe: u64,
    dram_channels: u32,
    dram_bw_bits: u64,
    simd_lanes_per_subarray: u32,
    ring_pipeline_regs: u32,
    instr_buffer_bytes: u64,
    omnidirectional: bool,
}

impl GeometryKey {
    fn of(cfg: &AcceleratorConfig) -> Self {
        Self {
            pe_rows: cfg.pe_rows,
            pe_cols: cfg.pe_cols,
            subarray_dim: cfg.subarray_dim,
            subarrays_per_pod: cfg.subarrays_per_pod,
            freq_bits: cfg.freq_hz.to_bits(),
            onchip_buffer_bytes: cfg.onchip_buffer_bytes,
            weight_buffer_per_pe: cfg.weight_buffer_per_pe,
            dram_channels: cfg.dram_channels,
            dram_bw_bits: cfg.dram_bw_per_channel.to_bits(),
            simd_lanes_per_subarray: cfg.simd_lanes_per_subarray,
            ring_pipeline_regs: cfg.ring_pipeline_regs,
            instr_buffer_bytes: cfg.instr_buffer_bytes,
            omnidirectional: cfg.omnidirectional,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_covers_suite_and_is_cheap_to_clone() {
        let lib = CompiledLibrary::new(AcceleratorConfig::planaria());
        for (i, id) in DnnId::ALL.into_iter().enumerate() {
            // The library indexes by discriminant: `ALL` must list the
            // networks in declaration order.
            assert_eq!(id as usize, i);
            assert_eq!(lib.get(id).num_tables(), 16);
            assert_eq!(lib.get(id).name(), id.build().name());
            assert!(lib.isolated_latency(id) > 0.0);
        }
        let clone = lib.clone();
        assert!(std::ptr::eq(
            clone.get(DnnId::ResNet50),
            lib.get(DnnId::ResNet50)
        ));
    }

    #[test]
    fn monolithic_library_has_single_table() {
        let lib = CompiledLibrary::new(AcceleratorConfig::monolithic());
        assert_eq!(lib.get(DnnId::TinyYolo).num_tables(), 1);
    }

    #[test]
    fn shared_cache_compiles_each_geometry_once() {
        let (_, misses0) = CompiledLibrary::cache_stats();
        let a = CompiledLibrary::shared_for(&AcceleratorConfig::planaria());
        let b = CompiledLibrary::shared_for(&AcceleratorConfig::planaria());
        assert!(Arc::ptr_eq(&a, &b), "same geometry shares one library");
        // A different clock is a different geometry (distinct tables).
        let mut derated = AcceleratorConfig::planaria();
        derated.freq_hz *= 0.85;
        let c = CompiledLibrary::shared_for(&derated);
        assert!(!Arc::ptr_eq(&a, &c));
        let (_, misses1) = CompiledLibrary::cache_stats();
        // Three lookups, at most two compiles (other tests may also
        // populate the process-wide cache concurrently, so compare
        // deltas conservatively).
        assert!(misses1 - misses0 <= 2, "{misses0} -> {misses1}");
        // The cached library matches a fresh private compile.
        let fresh = CompiledLibrary::new(AcceleratorConfig::planaria());
        for id in DnnId::ALL {
            assert_eq!(a.get(id), fresh.get(id), "{id:?}");
        }
    }

    #[test]
    fn parallel_compile_is_bit_identical_to_serial() {
        let serial = CompiledLibrary::with_jobs(AcceleratorConfig::planaria(), 1);
        let par = CompiledLibrary::with_jobs(AcceleratorConfig::planaria(), 4);
        for id in DnnId::ALL {
            assert_eq!(
                serial.get(id),
                par.get(id),
                "{id:?} differs across job counts"
            );
        }
    }
}
