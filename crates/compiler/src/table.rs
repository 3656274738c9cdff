//! Configuration tables: the compiler's output artifact.

use crate::memo::ShapeTable;
use planaria_arch::{AcceleratorConfig, Arrangement};
use planaria_energy::EnergyModel;
use planaria_model::units::{Bytes, Cycles, Picojoules};
use planaria_model::{Dnn, Layer, LayerOp};
use planaria_telemetry::{Collector, Counter, Event, NullCollector};
use planaria_timing::{reconfiguration_cycles, time_layer, ExecContext, LayerTiming, ReconfigCost};

/// Near-tie tolerance for energy-based selection between arrangements of
/// almost-equal latency.
const TIE_TOLERANCE: f64 = 1.02;

/// One layer's entry in a configuration table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerConfig {
    /// Layer name.
    pub name: String,
    /// Chosen fission configuration.
    pub arrangement: Arrangement,
    /// Timing of one execution under that configuration.
    pub timing: LayerTiming,
    /// Sequential repetitions of the layer.
    pub repeat: u64,
    /// Dynamic energy of one execution.
    pub energy: Picojoules,
    /// Whether the layer runs on the systolic array.
    pub systolic: bool,
}

impl LayerConfig {
    /// Total cycles including repetitions.
    pub fn total_cycles(&self) -> Cycles {
        self.timing.cycles * self.repeat
    }

    /// Total tiles including repetitions.
    pub fn total_tiles(&self) -> u64 {
        self.timing.tiles * self.repeat
    }
}

/// Cycles left of a `total`-cycle run at progress fraction `done`
/// (clamped to [0, 1]): the one formula behind
/// [`ConfigTable::remaining_cycles`] and the scheduler's scan over
/// [`CompiledDnn::total_cycles_row`], so both agree bit for bit.
#[inline]
pub fn remaining_from(total: Cycles, done: f64) -> Cycles {
    let done = done.clamp(0.0, 1.0);
    let total = total.get();
    Cycles::new(total - (done * total as f64) as u64)
}

/// A position within a table's execution, used for preemption bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePosition {
    /// Layer index.
    pub layer: usize,
    /// Cycles until the next tile boundary from the queried point.
    pub cycles_to_boundary: Cycles,
    /// Checkpoint size if preempted at that boundary.
    pub tile_bytes: Bytes,
    /// §IV-C's cost of stopping at that boundary and resuming in the
    /// layer's own arrangement: [`reconfiguration_cycles`] from it to
    /// itself on the table's allocation. A run resumed on another table
    /// refills that table's array instead
    /// ([`CompiledDnn::refill_cycles`]).
    pub reconfig: ReconfigCost,
}

/// One layer's preemption constants on its table's allocation, computed
/// at compile time: all that [`ConfigTable::position`] reads of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileRow {
    /// Cycles of one tile, at least 1.
    cycles_per_tile: u64,
    tile_bytes: Bytes,
    reconfig: ReconfigCost,
}

impl TileRow {
    fn new(ctx: &ExecContext, arrangement: Arrangement, timing: &LayerTiming) -> Self {
        Self {
            cycles_per_tile: timing.cycles_per_tile.get().max(1),
            tile_bytes: timing.tile_bytes,
            reconfig: reconfiguration_cycles(ctx, arrangement, arrangement, timing.tile_bytes),
        }
    }
}

/// The per-allocation configuration table: per-layer optimal configs plus
/// cumulative cycle/tile indices for O(log n) progress queries.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigTable {
    subarrays: u32,
    layers: Vec<LayerConfig>,
    /// Cumulative cycles *after* each layer (including repeats).
    cum_cycles: Vec<u64>,
    /// Each layer's [`TileRow`], beside `cum_cycles`.
    tiles: Vec<TileRow>,
    total_energy: Picojoules,
}

impl ConfigTable {
    /// Allocation size this table was compiled for.
    pub fn subarrays(&self) -> u32 {
        self.subarrays
    }

    /// Per-layer entries.
    pub fn layers(&self) -> &[LayerConfig] {
        &self.layers
    }

    /// End-to-end cycles.
    ///
    /// Every `ConfigTable` covers at least one layer: every compile
    /// function rejects zero-layer networks (and
    /// [`planaria_model::DnnBuilder`] cannot build one in the first
    /// place). A zero-layer table would silently report 0 cycles
    /// everywhere, so the invariant is asserted at compile time instead
    /// of papered over with `unwrap_or(&0)`.
    #[inline]
    pub fn total_cycles(&self) -> Cycles {
        // lint: table assembly rejects empty DNNs, so a table always has
        // at least one cumulative-cycle entry
        Cycles::new(*self.cum_cycles.last().expect("table covers >= 1 layer"))
    }

    /// End-to-end dynamic energy.
    pub fn total_energy(&self) -> Picojoules {
        self.total_energy
    }

    /// Total schedulable tiles.
    pub fn total_tiles(&self) -> u64 {
        self.layers.iter().map(LayerConfig::total_tiles).sum()
    }

    /// Cycles remaining from a progress fraction `done` ∈ [0, 1].
    pub fn remaining_cycles(&self, done: f64) -> Cycles {
        remaining_from(self.total_cycles(), done)
    }

    /// Locates the tile boundary following progress fraction `done`:
    /// which layer is in flight, how many cycles until its current tile
    /// completes, and the checkpoint size and reconfiguration cost there.
    /// Reads only the dense per-layer rows built at compile time.
    pub fn position(&self, done: f64) -> TilePosition {
        let done = done.clamp(0.0, 1.0);
        let point = (done * self.total_cycles().as_f64()) as u64;
        let last = self.tiles.len() - 1;
        let layer = match self.cum_cycles.binary_search(&point) {
            Ok(i) => (i + 1).min(last),
            Err(i) => i.min(last),
        };
        let start = if layer == 0 {
            0
        } else {
            self.cum_cycles[layer - 1]
        };
        let row = &self.tiles[layer];
        let into_tile = point.saturating_sub(start) % row.cycles_per_tile;
        TilePosition {
            layer,
            cycles_to_boundary: Cycles::new(row.cycles_per_tile - into_tile),
            tile_bytes: row.tile_bytes,
            reconfig: row.reconfig,
        }
    }
}

/// A DNN compiled for every allocation size 1..=N (the paper's "16 binaries
/// and 16 configuration tables per DNN").
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledDnn {
    name: String,
    tables: Vec<ConfigTable>,
    /// `tables[i].total_cycles()` for every table, in the same order: the
    /// dense row `ESTIMATERESOURCES` scans.
    totals: Vec<Cycles>,
    /// `tables[i].total_energy()`, in the same order: with `totals`, what
    /// a table switch reads.
    energies: Vec<Picojoules>,
    /// Refill cycles of the monolithic arrangement of `i + 1` subarrays.
    refills: Vec<Cycles>,
}

impl CompiledDnn {
    /// Wraps one table per allocation size of `cfg`, deriving the rows.
    fn new(cfg: &AcceleratorConfig, name: &str, tables: Vec<ConfigTable>) -> Self {
        let totals = tables.iter().map(ConfigTable::total_cycles).collect();
        let energies = tables.iter().map(ConfigTable::total_energy).collect();
        let refills = tables
            .iter()
            .map(|t| {
                let ctx = ExecContext::for_allocation(cfg, t.subarrays);
                let mono = Arrangement::monolithic(t.subarrays);
                reconfiguration_cycles(&ctx, mono, mono, Bytes::ZERO).refill
            })
            .collect();
        Self {
            name: name.to_string(),
            tables,
            totals,
            energies,
            refills,
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tables (= chip subarray count).
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The table for an allocation of `subarrays` granules.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero or exceeds the chip.
    #[inline]
    pub fn table(&self, subarrays: u32) -> &ConfigTable {
        assert!(
            subarrays >= 1 && subarrays as usize <= self.tables.len(),
            "no table for {subarrays} subarrays"
        );
        &self.tables[(subarrays - 1) as usize]
    }

    /// All tables, index `i` holding the table for `i + 1` subarrays.
    pub fn tables(&self) -> &[ConfigTable] {
        &self.tables
    }

    /// End-to-end cycles of every table, index `i` holding the table for
    /// `i + 1` subarrays ([`remaining_from`] turns an entry into the
    /// table's remaining cycles).
    pub fn total_cycles_row(&self) -> &[Cycles] {
        &self.totals
    }

    /// End-to-end cycles and dynamic energy of the table for `subarrays`
    /// granules, from the dense rows.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero or exceeds the chip.
    #[inline]
    pub fn totals(&self, subarrays: u32) -> (Cycles, Picojoules) {
        let i = subarrays as usize - 1;
        (self.totals[i], self.energies[i])
    }

    /// Cycles to refill the monolithic arrangement of `subarrays`
    /// granules: what a run resumed on that table pays in place of the
    /// refill in [`TilePosition::reconfig`].
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero or exceeds the chip.
    #[inline]
    pub fn refill_cycles(&self, subarrays: u32) -> Cycles {
        self.refills[subarrays as usize - 1]
    }
}

/// One layer shape's configuration on `ctx`'s allocation: the exhaustive
/// search over `arrangements` (the allocation's realizable arrangements)
/// for systolic layers (minimum cycles, near-ties broken by dynamic
/// energy), the trivial arrangement for vector layers.
fn select_arrangement(
    ctx: &ExecContext,
    em: &EnergyModel,
    arrangements: &[Arrangement],
    op: &LayerOp,
) -> (Arrangement, LayerTiming, Picojoules) {
    let probe = |arr| {
        let t = time_layer(ctx, op, arr);
        (arr, t, em.dynamic_energy(&t.counts))
    };
    if !op.is_systolic() {
        return probe(Arrangement::new(1, 1, 1));
    }
    let mut best: Option<(Arrangement, LayerTiming, Picojoules)> = None;
    for &arr in arrangements {
        let (arr, t, e) = probe(arr);
        let better = match &best {
            None => true,
            Some((_, bt, be)) => {
                let much_faster = t.cycles.as_f64() * TIE_TOLERANCE < bt.cycles.as_f64();
                let near_tie = t.cycles.as_f64() <= bt.cycles.as_f64() * TIE_TOLERANCE;
                much_faster || (near_tie && e < *be)
            }
        };
        if better {
            best = Some((arr, t, e));
        }
    }
    // lint: enumerate_for always yields at least the trivial arrangement
    best.expect("at least one arrangement")
}

/// One layer's selection on `ctx`'s allocation with its [`TileRow`].
fn select_with_row(
    ctx: &ExecContext,
    em: &EnergyModel,
    arrangements: &[Arrangement],
    op: &LayerOp,
) -> ((Arrangement, LayerTiming, Picojoules), TileRow) {
    let selection = select_arrangement(ctx, em, arrangements, op);
    (selection, TileRow::new(ctx, selection.0, &selection.1))
}

/// Assembles the table for `subarrays` from one selection per layer of
/// `dnn`, in layer order.
///
/// # Panics
///
/// Panics on a zero-layer network: an empty configuration table would
/// silently report 0 cycles (see [`ConfigTable::total_cycles`]).
/// `planaria_model::DnnBuilder::build` already rejects empty networks, so
/// this is a defense-in-depth assertion.
fn assemble(
    dnn: &Dnn,
    subarrays: u32,
    selections: impl Iterator<Item = ((Arrangement, LayerTiming, Picojoules), TileRow)>,
) -> ConfigTable {
    assert!(
        dnn.num_layers() > 0,
        "cannot compile a zero-layer DNN (empty configuration tables are invalid)"
    );
    let mut layers = Vec::with_capacity(dnn.num_layers());
    let mut cum_cycles = Vec::with_capacity(dnn.num_layers());
    let mut tiles = Vec::with_capacity(dnn.num_layers());
    let mut cum = 0u64;
    let mut total_energy = Picojoules::ZERO;
    for (layer, ((arrangement, timing, energy), row)) in dnn.layers().iter().zip(selections) {
        cum += (timing.cycles * layer.repeat).get();
        cum_cycles.push(cum);
        tiles.push(row);
        total_energy += energy * layer.repeat as f64;
        layers.push(LayerConfig {
            name: layer.name.clone(),
            arrangement,
            timing,
            repeat: layer.repeat,
            energy,
            systolic: layer.op.is_systolic(),
        });
    }
    ConfigTable {
        subarrays,
        layers,
        cum_cycles,
        tiles,
        total_energy,
    }
}

/// The table for `subarrays`, searching once per distinct shape of
/// `shapes` (built from `dnn`) and deriving that shape's [`TileRow`]
/// beside it; each layer then reads its shape's selection by dense id.
fn shaped_table(
    cfg: &AcceleratorConfig,
    dnn: &Dnn,
    shapes: &ShapeTable,
    subarrays: u32,
) -> ConfigTable {
    let ctx = ExecContext::for_allocation(cfg, subarrays);
    let em = EnergyModel::for_config(cfg);
    let arrangements = Arrangement::enumerate_for(cfg, subarrays);
    let selected: Vec<_> = shapes
        .shapes()
        .iter()
        .map(|op| select_with_row(&ctx, &em, &arrangements, op))
        .collect();
    let per_layer = (0..dnn.num_layers()).map(|i| selected[shapes.shape_id(i)]);
    assemble(dnn, subarrays, per_layer)
}

/// Compiles one table for a fixed allocation size, searching once per
/// distinct layer shape.
///
/// # Panics
///
/// Panics on a zero-layer network (see [`ConfigTable::total_cycles`]).
pub fn compile_for_allocation(cfg: &AcceleratorConfig, dnn: &Dnn, subarrays: u32) -> ConfigTable {
    shaped_table(cfg, dnn, &ShapeTable::for_dnn(dnn), subarrays)
}

/// Compiles `dnn` for every allocation size on `cfg`, deduplicating layer
/// shapes once (via [`ShapeTable`]) so the arrangement search runs per
/// distinct shape and allocation, not per layer occurrence.
///
/// # Panics
///
/// Panics on a zero-layer network.
pub fn compile(cfg: &AcceleratorConfig, dnn: &Dnn) -> CompiledDnn {
    compile_with_collector(cfg, dnn, &mut NullCollector)
}

/// [`compile`], streaming compilation telemetry into `c`: one
/// [`Event::TableCompiled`] per allocation size, then the layers-compiled
/// and distinct-shape counters and the dedup's memo traffic. Each table
/// runs the search once per distinct shape (a miss) and serves every
/// other layer from it (a hit), so `MemoMisses` is distinct shapes ×
/// tables and `MemoHits` is (layers − distinct shapes) × tables.
///
/// # Panics
///
/// Panics on a zero-layer network.
pub fn compile_with_collector<C: Collector>(
    cfg: &AcceleratorConfig,
    dnn: &Dnn,
    c: &mut C,
) -> CompiledDnn {
    let n = cfg.num_subarrays();
    let shapes = ShapeTable::for_dnn(dnn);
    let tables = (1..=n)
        .map(|s| shaped_table(cfg, dnn, &shapes, s))
        .collect();
    if c.is_enabled() {
        let layers = dnn.num_layers() as u32;
        let distinct = shapes.num_shapes() as u32;
        for subarrays in 1..=n {
            c.record(
                Cycles::ZERO,
                Event::TableCompiled {
                    subarrays,
                    layers,
                    distinct_shapes: distinct,
                },
            );
        }
        let over_tables = |count: u32| u64::from(count) * u64::from(n);
        c.add(Counter::MemoHits, over_tables(layers - distinct));
        c.add(Counter::MemoMisses, over_tables(distinct));
        c.add(Counter::DistinctShapes, u64::from(distinct));
        c.add(Counter::LayersCompiled, over_tables(layers));
    }
    CompiledDnn::new(cfg, dnn.name(), tables)
}

/// Reference compilation without shape deduplication: re-runs the
/// search for every layer occurrence, exactly as the compiler did before
/// [`ShapeTable`]. Kept as the oracle for the equivalence tests in
/// `tests/memoization.rs` and the cold-compile benchmark baseline.
///
/// # Panics
///
/// Panics on a zero-layer network.
pub fn compile_uncached(cfg: &AcceleratorConfig, dnn: &Dnn) -> CompiledDnn {
    let em = EnergyModel::for_config(cfg);
    let tables = (1..=cfg.num_subarrays())
        .map(|s| {
            let ctx = ExecContext::for_allocation(cfg, s);
            let arrangements = Arrangement::enumerate_for(cfg, s);
            let search = |l: &Layer| select_with_row(&ctx, &em, &arrangements, &l.op);
            assemble(dnn, s, dnn.layers().iter().map(search))
        })
        .collect();
    CompiledDnn::new(cfg, dnn.name(), tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_model::DnnId;

    fn compiled(id: DnnId) -> CompiledDnn {
        compile(&AcceleratorConfig::planaria(), &id.build())
    }

    #[test]
    fn tables_cover_every_allocation() {
        let c = compiled(DnnId::TinyYolo);
        assert_eq!(c.num_tables(), 16);
        for s in 1..=16 {
            assert_eq!(c.table(s).subarrays(), s);
            assert_eq!(
                c.total_cycles_row()[s as usize - 1],
                c.table(s).total_cycles()
            );
        }
        assert_eq!(c.total_cycles_row().len(), 16);
    }

    #[test]
    fn collector_compile_is_bit_identical_and_counts_memo_traffic() {
        use crate::memo::ShapeTable;
        use planaria_telemetry::{Counter, Event, RecordingCollector};
        let cfg = AcceleratorConfig::planaria();
        for id in DnnId::ALL {
            let net = id.build();
            let plain = compile(&cfg, &net);
            let mut c = RecordingCollector::new();
            let instrumented = compile_with_collector(&cfg, &net, &mut c);
            assert_eq!(plain, instrumented, "{id:?}");
            let tables_done = c
                .events()
                .iter()
                .filter(|te| matches!(te.event, Event::TableCompiled { .. }))
                .count();
            assert_eq!(tables_done, 16, "{id:?}");
            // One search per distinct shape and table; every other layer
            // of the table reuses its shape's search.
            let layers = net.num_layers() as u64;
            let distinct = ShapeTable::for_dnn(&net).num_shapes() as u64;
            assert_eq!(c.counter(Counter::MemoMisses), distinct * 16, "{id:?}");
            assert_eq!(
                c.counter(Counter::MemoHits),
                (layers - distinct) * 16,
                "{id:?}"
            );
            assert_eq!(c.counter(Counter::LayersCompiled), layers * 16, "{id:?}");
            assert_eq!(c.counter(Counter::DistinctShapes), distinct, "{id:?}");
        }
    }

    #[test]
    fn more_subarrays_monotonically_help() {
        let c = compiled(DnnId::MobileNetV1);
        let mut prev = Cycles::new(u64::MAX);
        for s in 1..=16 {
            let cy = c.table(s).total_cycles();
            assert!(cy <= prev, "allocation {s} slower than {}", s - 1);
            prev = cy;
        }
    }

    #[test]
    fn remaining_cycles_interpolates() {
        let c = compiled(DnnId::TinyYolo);
        let t = c.table(8);
        assert_eq!(t.remaining_cycles(0.0), t.total_cycles());
        assert_eq!(t.remaining_cycles(1.0), Cycles::ZERO);
        let half = t.remaining_cycles(0.5);
        assert!(half > t.total_cycles() / 3 && half < t.total_cycles() * 2 / 3);
        // Out-of-range fractions clamp.
        assert_eq!(t.remaining_cycles(-0.5), t.total_cycles());
        assert_eq!(t.remaining_cycles(1.5), Cycles::ZERO);
        assert_eq!(remaining_from(t.total_cycles(), 0.5), half);
    }

    #[test]
    fn position_tracks_layers_forward() {
        let c = compiled(DnnId::TinyYolo);
        let t = c.table(16);
        let start = t.position(0.0);
        let end = t.position(0.999);
        assert_eq!(start.layer, 0);
        assert!(end.layer > start.layer);
        assert!(!start.cycles_to_boundary.is_zero());
    }

    /// `position` recomputed from the `LayerConfig` entries alone: a walk
    /// over the layers' cycle totals to the one in flight at `done`, then
    /// that layer's tile.
    fn position_from_layers(t: &ConfigTable, done: f64) -> (usize, Cycles, Bytes) {
        let point = (done.clamp(0.0, 1.0) * t.total_cycles().as_f64()) as u64;
        let last = t.layers().len() - 1;
        let mut start = 0;
        for (i, l) in t.layers().iter().enumerate() {
            let end = start + l.total_cycles().get();
            if point < end || i == last {
                let cpt = l.timing.cycles_per_tile.get().max(1);
                let into_tile = point.saturating_sub(start) % cpt;
                return (i, Cycles::new(cpt - into_tile), l.timing.tile_bytes);
            }
            start = end;
        }
        unreachable!("a table covers at least one layer")
    }

    #[test]
    fn rows_equal_the_formulas_they_cache() {
        let configs = [
            AcceleratorConfig::planaria(),
            AcceleratorConfig::monolithic(),
            AcceleratorConfig::with_granularity(16),
            AcceleratorConfig::throughput_tuned(),
            AcceleratorConfig::latency_tuned(),
        ];
        let mut rng = planaria_model::SplitMix64::new(0x7AB1E);
        for cfg in configs {
            let lib = crate::CompiledLibrary::shared_for(&cfg);
            let dim = cfg.subarray_dim;
            for id in DnnId::ALL {
                let c = lib.get(id);
                assert_eq!(c.num_tables(), cfg.num_subarrays() as usize);
                for (t, s) in c.tables().iter().zip(1..) {
                    let what = format!("{id:?} on {s} of {} subarrays", cfg.num_subarrays());
                    let ctx = ExecContext::for_allocation(&cfg, s);
                    assert_eq!(t.tiles.len(), t.layers().len(), "{what}");
                    for (row, l) in t.tiles.iter().zip(t.layers()) {
                        let arr = l.arrangement;
                        let cost = reconfiguration_cycles(&ctx, arr, arr, l.timing.tile_bytes);
                        assert_eq!(row.reconfig, cost, "{what}: {}", l.name);
                        assert_eq!(
                            (row.cycles_per_tile, row.tile_bytes),
                            (l.timing.cycles_per_tile.get().max(1), l.timing.tile_bytes),
                            "{what}: {}",
                            l.name
                        );
                    }
                    let mono = Arrangement::monolithic(s);
                    assert_eq!(
                        c.refill_cycles(s),
                        Cycles::new(mono.height(dim) + mono.width(dim)),
                        "{what}"
                    );
                    assert_eq!(c.totals(s), (t.total_cycles(), t.total_energy()), "{what}");
                    let total = t.total_cycles().as_f64();
                    let boundaries = t.cum_cycles.iter().map(|&cum| cum as f64 / total);
                    let draws: Vec<f64> = (0..16).map(|_| rng.next_f64()).collect();
                    for done in [0.0, 1.0].into_iter().chain(boundaries).chain(draws) {
                        let pos = t.position(done);
                        let (layer, boundary, bytes) = position_from_layers(t, done);
                        assert_eq!(
                            (pos.layer, pos.cycles_to_boundary, pos.tile_bytes),
                            (layer, boundary, bytes),
                            "{what} at {done}"
                        );
                        let arr = t.layers()[layer].arrangement;
                        let cost = reconfiguration_cycles(&ctx, arr, arr, bytes);
                        assert_eq!(pos.reconfig, cost, "{what} at {done}");
                    }
                }
            }
        }
    }

    #[test]
    fn energy_accumulates() {
        let c = compiled(DnnId::TinyYolo);
        assert!(c.table(16).total_energy().as_pj() > 0.0);
    }

    #[test]
    fn depthwise_layers_fission_fully_in_big_allocations() {
        let c = compiled(DnnId::MobileNetV1);
        let t = c.table(16);
        let dw = t
            .layers()
            .iter()
            .find(|l| l.name.contains(".dw") && l.systolic)
            .unwrap();
        assert!(dw.arrangement.clusters >= 8, "got {}", dw.arrangement);
    }
}
