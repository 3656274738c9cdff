//! Chip-level view: subarray identity, placement of logical accelerators,
//! and the allocation bookkeeping the runtime performs (Fig. 10).
//!
//! Subarrays are numbered 0–15 around the global rings; a logical
//! accelerator occupies a *contiguous* segment (with wrap-around) so that
//! its activation/partial-sum chains traverse only enabled ring links. The
//! paper's example of a logical accelerator straddling Fission Pods 0 and 3
//! is exactly such a wrapped segment.

use crate::config::AcceleratorConfig;
use std::fmt;

/// Identifier of one physical subarray on the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubarrayId(pub u32);

impl SubarrayId {
    /// The Fission Pod containing this subarray.
    pub fn pod(&self, cfg: &AcceleratorConfig) -> u32 {
        self.0 / cfg.subarrays_per_pod
    }
}

impl fmt::Display for SubarrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SA{}", self.0)
    }
}

/// A contiguous (mod ring size) segment of subarrays owned by one
/// tenant: `len` subarrays from `start` around a ring of `total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    start: u32,
    len: u32,
    total: u32,
}

impl Allocation {
    /// Creates an allocation from a starting subarray and a count, wrapping
    /// around the ring of `total` subarrays.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds `total`.
    pub fn contiguous(start: u32, count: u32, total: u32) -> Self {
        assert!(count > 0 && count <= total, "invalid allocation size");
        Self {
            start: start % total,
            len: count,
            total,
        }
    }

    /// The subarrays owned, from `start` around the ring.
    pub fn subarrays(&self) -> impl Iterator<Item = SubarrayId> {
        let Self { start, len, total } = *self;
        (0..len).map(move |i| SubarrayId((start + i) % total))
    }

    /// Number of subarrays owned.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the allocation is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Placement bitmask: bit *i* set ⇔ subarray *i* owned.
    ///
    /// # Panics
    ///
    /// Panics if the ring has more than 128 subarrays: a larger chip needs
    /// a wider mask type, not silently aliased bits.
    pub fn mask(&self) -> u128 {
        assert!(
            self.total <= 128,
            "a ring of {} subarrays does not fit a u128 placement mask",
            self.total
        );
        let run = low_bits(self.len);
        if self.start == 0 {
            run
        } else {
            ((run << self.start) | (run >> (self.total - self.start))) & low_bits(self.total)
        }
    }

    /// Number of distinct Fission Pods spanned — each spanned pod
    /// contributes one DRAM channel to this tenant.
    pub fn pods_spanned(&self, cfg: &AcceleratorConfig) -> u32 {
        let mut pods: Vec<u32> = self.subarrays().map(|id| id.pod(cfg)).collect();
        pods.sort_unstable();
        pods.dedup();
        pods.len() as u32
    }

    /// DRAM channels reachable by this tenant (one per spanned pod).
    pub fn dram_channels(&self, cfg: &AcceleratorConfig) -> u32 {
        self.pods_spanned(cfg)
    }
}

/// The low `n` bits set (`n` ≤ 128).
fn low_bits(n: u32) -> u128 {
    u128::MAX.checked_shr(128 - n).unwrap_or(0)
}

/// Runtime placement state of the chip: a used-subarray bitmask.
#[derive(Debug, Clone)]
pub struct Chip {
    cfg: AcceleratorConfig,
    total: u32,
    used: u128,
}

impl Chip {
    /// Creates an idle chip.
    ///
    /// # Panics
    ///
    /// Panics if the chip has more than 128 subarrays, the ceiling
    /// [`GeometryBuilder`](crate::GeometryBuilder) already enforces.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        let total = cfg.num_subarrays();
        assert!(
            total <= 128,
            "chip of {total} subarrays does not fit a u128 placement mask"
        );
        Self {
            cfg,
            total,
            used: 0,
        }
    }

    /// The chip configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Total subarrays.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Subarrays not owned by any tenant.
    pub fn free(&self) -> u32 {
        self.total - self.used.count_ones()
    }

    /// Whether subarray `id` is free.
    pub fn is_free(&self, id: SubarrayId) -> bool {
        id.0 < self.total && self.used & (1u128 << id.0) == 0
    }

    /// Places a tenant on `count` subarrays, choosing the first contiguous
    /// free segment (with wrap-around) in ascending order of its start.
    /// Returns the allocation, or `None` if no contiguous segment of that
    /// size is free.
    ///
    /// Bit *i* of `runs` marks a free run of `len` subarrays starting at
    /// *i*. Two runs of `len` starting `k ≤ len` apart form one run of
    /// `len + k`, so `len` doubles per step until it reaches `count`, and
    /// the lowest set bit is the first fit.
    pub fn place(&mut self, count: u32) -> Option<Allocation> {
        let total = self.total;
        if count == 0 || count > total {
            return None;
        }
        let full = low_bits(total);
        let mut runs = !self.used & full;
        let mut len = 1;
        while len < count && runs != 0 {
            let k = len.min(count - len);
            runs &= ((runs >> k) | (runs << (total - k))) & full;
            len += k;
        }
        if runs == 0 {
            return None;
        }
        let alloc = Allocation::contiguous(runs.trailing_zeros(), count, total);
        self.used |= alloc.mask();
        Some(alloc)
    }

    /// Claims a specific pre-computed allocation if every one of its
    /// subarrays is free; returns whether the claim succeeded. Used by the
    /// runtime to keep stable tenants on their segments across scheduling
    /// events.
    pub fn claim(&mut self, alloc: &Allocation) -> bool {
        let mask = alloc.mask();
        if self.used & mask != 0 {
            return false;
        }
        self.used |= mask;
        true
    }

    /// Releases the subarrays of `alloc`; returns how many were owned.
    pub fn release(&mut self, alloc: &Allocation) -> u32 {
        let owned = self.used & alloc.mask();
        self.used &= !owned;
        owned.count_ones()
    }

    /// Clears all placements.
    pub fn reset(&mut self) {
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> Chip {
        Chip::new(AcceleratorConfig::planaria())
    }

    #[test]
    fn contiguous_allocation_wraps() {
        let a = Allocation::contiguous(14, 4, 16);
        let ids: Vec<u32> = a.subarrays().map(|s| s.0).collect();
        assert_eq!(ids, vec![14, 15, 0, 1]);
        assert_eq!(a.mask(), 0b1100_0000_0000_0011);
    }

    #[test]
    fn wrapped_allocation_spans_pods_like_paper_example() {
        // Fission Pod-0's subarrays plus two from Fission Pod-3 (§IV-C).
        let cfg = AcceleratorConfig::planaria();
        let a = Allocation::contiguous(12, 6, 16); // SA12..15 (pod 3), SA0..1 (pod 0)
        assert_eq!(a.pods_spanned(&cfg), 2);
        assert_eq!(a.dram_channels(&cfg), 2);
    }

    #[test]
    fn place_and_release_roundtrip() {
        let mut c = chip();
        let a = c.place(6).unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(c.free(), 10);
        assert!(!c.is_free(a.subarrays().next().unwrap()));
        assert_eq!(c.release(&a), 6);
        assert_eq!(c.free(), 16);
    }

    #[test]
    fn placement_fails_when_fragmented_beyond_repair() {
        let mut c = chip();
        // Occupy every other pair to fragment the ring.
        for start in [0u32, 4, 8, 12] {
            for i in 0..2 {
                let id = SubarrayId(start + i);
                assert!(c.is_free(id));
            }
            c.place(2).unwrap();
        }
        // 8 free remain but max contiguous run...
        // place() fills 0..2, 2..4, 4..6, 6..8 in order, so the free space is
        // actually 8..16 contiguous; ask for more than that.
        assert!(c.place(9).is_none());
        assert!(c.place(8).is_some());
        assert_eq!(c.free(), 0);
    }

    #[test]
    fn zero_or_oversized_requests_rejected() {
        let mut c = chip();
        assert!(c.place(0).is_none());
        assert!(c.place(17).is_none());
    }

    #[test]
    fn claim_succeeds_only_on_free_segments() {
        let mut c = chip();
        let seg = Allocation::contiguous(2, 4, 16);
        assert!(c.claim(&seg));
        assert!(!c.is_free(SubarrayId(3)));
        // Overlapping claim fails and must not partially take ownership.
        let overlap = Allocation::contiguous(5, 3, 16);
        assert!(!c.claim(&overlap));
        assert!(c.is_free(SubarrayId(6)));
        // Disjoint claim works, including wrap-around.
        let wrap = Allocation::contiguous(14, 4, 16);
        assert!(c.claim(&wrap));
        assert_eq!(c.free(), 16 - 4 - 4);
    }

    /// The first free segment found by trying every start in ascending
    /// order: the placement rule `Chip::place` computes arithmetically.
    fn ascending_first_fit(used: u128, count: u32, total: u32) -> Option<u32> {
        (0..total).find(|start| (0..count).all(|i| used & (1u128 << ((start + i) % total)) == 0))
    }

    #[test]
    fn first_fit_matches_the_ascending_scan_on_every_occupancy() {
        let cfg = AcceleratorConfig::planaria();
        assert_eq!(cfg.num_subarrays(), 16);
        for used in 0..1u128 << 16 {
            for count in 1..=16 {
                let mut c = Chip::new(cfg);
                c.used = used;
                let placed = c.place(count);
                let want = ascending_first_fit(used, count, 16);
                assert_eq!(
                    placed.map(|a| a.subarrays().next().unwrap().0),
                    want,
                    "occupancy {used:#06x}, count {count}"
                );
                if let Some(a) = placed {
                    assert_eq!(a.len(), count);
                    assert_eq!(c.used, used | a.mask());
                    assert_eq!(used & a.mask(), 0);
                }
            }
        }
    }

    #[test]
    fn masks_match_ids_on_wide_rings() {
        for total in [4u32, 64, 127, 128] {
            for start in [0, 1, total / 2, total - 1] {
                for len in [1, 2, total / 2, total - 1, total] {
                    if len == 0 {
                        continue;
                    }
                    let a = Allocation::contiguous(start, len, total);
                    let bits = a.subarrays().fold(0u128, |m, id| m | 1u128 << id.0);
                    assert_eq!(a.mask(), bits, "total {total} start {start} len {len}");
                }
            }
        }
    }
}
