//! Physical floorplan: where each subarray sits on the die (Fig. 10).
//!
//! The 16 subarrays form a 4×4 physical grid — four Fission Pods of 2×2 —
//! while the global ring buses visit them in ring order. This module maps
//! ring indices to grid coordinates, measures ring and Manhattan distances,
//! and scores placements, giving the runtime and the energy model a
//! geometric grounding for inter-subarray transfers.

use crate::chip::{Allocation, SubarrayId};
use crate::config::AcceleratorConfig;

/// Physical grid coordinates of a subarray (row, column) on the die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridPos {
    /// Die row.
    pub row: u32,
    /// Die column.
    pub col: u32,
}

/// The die floorplan for a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Floorplan {
    side: u32,
}

impl Floorplan {
    /// Builds the floorplan of `cfg` (a square grid of subarrays).
    pub fn new(cfg: &AcceleratorConfig) -> Self {
        let n = cfg.num_subarrays();
        let side = (n as f64).sqrt().round() as u32;
        Self { side: side.max(1) }
    }

    /// Grid side length in subarrays.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Total subarrays on the die.
    pub fn total(&self) -> u32 {
        self.side * self.side
    }

    /// Grid position of a ring index. The ring snakes boustrophedon
    /// (left-to-right, then right-to-left) so that consecutive ring indices
    /// are always physically adjacent — the property that lets the global
    /// ring buses connect neighbours with short wires.
    pub fn position(&self, id: SubarrayId) -> GridPos {
        let row = id.0 / self.side;
        let within = id.0 % self.side;
        let col = if row.is_multiple_of(2) {
            within
        } else {
            self.side - 1 - within
        };
        GridPos { row, col }
    }

    /// Ring distance between two subarrays (hops along the ring, the
    /// shorter way around).
    pub fn ring_distance(&self, a: SubarrayId, b: SubarrayId) -> u32 {
        let n = self.total();
        let d = a.0.abs_diff(b.0) % n;
        d.min(n - d)
    }

    /// Manhattan distance on the die between two subarrays.
    pub fn manhattan(&self, a: SubarrayId, b: SubarrayId) -> u32 {
        let pa = self.position(a);
        let pb = self.position(b);
        pa.row.abs_diff(pb.row) + pa.col.abs_diff(pb.col)
    }

    /// Placement compactness: the maximum Manhattan distance between any
    /// two subarrays of an allocation (lower is better — shorter forwarding
    /// wires and fewer ring pipeline stages crossed).
    pub fn diameter(&self, alloc: &Allocation) -> u32 {
        let mut worst = 0;
        for (i, a) in alloc.subarrays().enumerate() {
            for b in alloc.subarrays().skip(i + 1) {
                worst = worst.max(self.manhattan(a, b));
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Floorplan {
        Floorplan::new(&AcceleratorConfig::planaria())
    }

    #[test]
    fn sixteen_subarrays_form_a_4x4_grid() {
        let f = plan();
        assert_eq!(f.side(), 4);
        assert_eq!(f.total(), 16);
    }

    #[test]
    fn boustrophedon_keeps_ring_neighbours_adjacent() {
        let f = plan();
        for i in 0..15u32 {
            let d = f.manhattan(SubarrayId(i), SubarrayId(i + 1));
            assert_eq!(d, 1, "ring neighbours {i},{} are {d} apart", i + 1);
        }
    }

    #[test]
    fn ring_distance_wraps() {
        let f = plan();
        assert_eq!(f.ring_distance(SubarrayId(0), SubarrayId(15)), 1);
        assert_eq!(f.ring_distance(SubarrayId(0), SubarrayId(8)), 8);
        assert_eq!(f.ring_distance(SubarrayId(3), SubarrayId(3)), 0);
    }

    #[test]
    fn snake_positions_match_hand_layout() {
        let f = plan();
        // Row 0 runs left→right, row 1 right→left.
        assert_eq!(f.position(SubarrayId(0)), GridPos { row: 0, col: 0 });
        assert_eq!(f.position(SubarrayId(3)), GridPos { row: 0, col: 3 });
        assert_eq!(f.position(SubarrayId(4)), GridPos { row: 1, col: 3 });
        assert_eq!(f.position(SubarrayId(7)), GridPos { row: 1, col: 0 });
        assert_eq!(f.position(SubarrayId(8)), GridPos { row: 2, col: 0 });
    }

    #[test]
    fn contiguous_allocations_are_compact() {
        let f = plan();
        // Non-wrapping contiguous segments of 4 have diameter <= 3; the
        // snake keeps them physically clustered.
        for start in 0..=12 {
            let a = Allocation::contiguous(start, 4, 16);
            assert!(f.diameter(&a) <= 3, "segment at {start}");
        }
        // Wrapping segments cross the snake's long return wire: legal, but
        // physically stretched — the floorplan makes that cost visible.
        let wrapped = Allocation::contiguous(14, 4, 16);
        assert!(f.diameter(&wrapped) > 3);
    }

    #[test]
    fn monolithic_floorplan_is_degenerate() {
        let f = Floorplan::new(&AcceleratorConfig::monolithic());
        assert_eq!(f.side(), 1);
        assert_eq!(f.ring_distance(SubarrayId(0), SubarrayId(0)), 0);
    }
}
