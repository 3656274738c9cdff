//! The kernel's two sleeping indexes: flat binary min-heaps of tenant
//! positions, and one slot per position that says which heap holds the
//! tenant and where.
//!
//! A heap entry is `(key, position)` and entries compare as pairs, so the
//! root is the least pair: the same tenant a sorted set's first entry
//! would be. A heap's entries live in one `Vec` that grows to its
//! high-water mark and is never shrunk, so a steady-state sleep, wake or
//! retirement allocates nothing. Every sift writes the new index of each
//! entry it moves into that entry's [`Slot`], which lets the kernel wake
//! a tenant at its index and re-key one in place.

/// The heap a tenant sleeps in. The policy that puts a tenant to sleep
/// chooses its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sleep {
    /// Keyed (`u64` key, position).
    Parked,
    /// Keyed (cycle, position).
    Waiting,
}

/// Where the tenant at one position sleeps. The kernel keeps one per
/// live tenant, beside the tenants and moved with them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    /// The heap holding the tenant, `None` while it is awake.
    pub(crate) asleep: Option<Sleep>,
    /// The tenant's index in that heap (stale while it is awake). A
    /// `u32` keeps a slot at 8 bytes: the kernel admits fewer than
    /// `u32::MAX` live tenants, so every heap index fits.
    pub(crate) at: u32,
}

/// A binary min-heap of `(key, position)` entries: entry `k`'s children
/// are entries `2k + 1` and `2k + 2`, and neither is below it.
#[derive(Debug, Default)]
pub(crate) struct SleepHeap<K> {
    entries: Vec<(K, usize)>,
}

impl<K: Ord + Copy> SleepHeap<K> {
    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entries in heap order.
    pub(crate) fn entries(&self) -> &[(K, usize)] {
        &self.entries
    }

    /// The least entry, `(key, position)`.
    #[inline]
    pub(crate) fn root(&self) -> Option<(K, usize)> {
        self.entries.first().copied()
    }

    /// Enters position `i` under `key`.
    pub(crate) fn push(&mut self, key: K, i: usize, slots: &mut [Slot]) {
        self.entries.push((key, i));
        self.sift_up(self.entries.len() - 1, slots);
    }

    /// Removes the entry at index `at`.
    pub(crate) fn remove(&mut self, at: usize, slots: &mut [Slot]) {
        // lint: the caller read `at` from a slot this heap maintains
        let last = self.entries.pop().expect("a heap entry is removed");
        if at < self.entries.len() {
            self.entries[at] = last;
            if self.sift_up(at, slots) == at {
                self.sift_down(at, slots);
            }
        }
    }

    /// Moves the entry at index `at` to the lower position `i`: its pair
    /// only falls, so one sift-up restores the order.
    pub(crate) fn lower(&mut self, at: usize, i: usize, slots: &mut [Slot]) {
        debug_assert!(i < self.entries[at].1, "a moved tenant's position falls");
        self.entries[at].1 = i;
        self.sift_up(at, slots);
    }

    /// Lifts the entry at `at` past every greater ancestor, returning its
    /// final index.
    fn sift_up(&mut self, mut at: usize, slots: &mut [Slot]) -> usize {
        let entry = self.entries[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            let above = self.entries[parent];
            if above < entry {
                break;
            }
            self.entries[at] = above;
            slots[above.1].at = at as u32;
            at = parent;
        }
        self.entries[at] = entry;
        slots[entry.1].at = at as u32;
        at
    }

    /// Sinks the entry at `at` below every lesser descendant.
    fn sift_down(&mut self, mut at: usize, slots: &mut [Slot]) {
        let entry = self.entries[at];
        let n = self.entries.len();
        loop {
            let left = 2 * at + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.entries[right] < self.entries[left] {
                right
            } else {
                left
            };
            let below = self.entries[child];
            if entry < below {
                break;
            }
            self.entries[at] = below;
            slots[below.1].at = at as u32;
            at = child;
        }
        self.entries[at] = entry;
        slots[entry.1].at = at as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_model::SplitMix64;
    use std::collections::BTreeSet;

    /// The heap under test beside its model: an ordered set of the same
    /// pairs, and each position's key.
    struct Pair {
        heap: SleepHeap<u32>,
        slots: Vec<Slot>,
        model: BTreeSet<(u32, usize)>,
        keys: Vec<Option<u32>>,
        /// Positions not in the heap.
        free: Vec<usize>,
    }

    impl Pair {
        /// Checks the heap against the model: the same root and length,
        /// and with `entries`, every entry heap-ordered under its parent,
        /// holding its position's model key and pointed at by its slot.
        /// With distinct positions that is the same sorted contents, which
        /// `sorted` also compares directly.
        fn check(&self, entries: bool, sorted: bool) {
            assert_eq!(self.heap.root(), self.model.first().copied());
            assert_eq!(self.heap.len(), self.model.len());
            if !entries {
                return;
            }
            let entries = self.heap.entries();
            for (at, &(key, i)) in entries.iter().enumerate() {
                assert_eq!(self.keys[i], Some(key), "key of position {i}");
                assert_eq!(self.slots[i].at as usize, at, "slot of position {i}");
                assert!(at == 0 || entries[(at - 1) / 2] < (key, i), "order at {at}");
            }
            if sorted {
                let mut contents = entries.to_vec();
                contents.sort_unstable();
                assert!(contents.iter().eq(self.model.iter()), "sorted contents");
            }
        }

        /// Takes position `i` out of the heap and the model.
        fn forget(&mut self, key: u32, i: usize) {
            assert!(self.model.remove(&(key, i)));
            self.keys[i] = None;
            self.free.push(i);
        }
    }

    #[test]
    fn heap_matches_an_ordered_set_under_random_sleeps_wakes_and_moves() {
        // Pushes, wakes at a slot, root pops and retire-style moves (the
        // highest position into a free lower one), with keys drawn from
        // four values so most entries tie on the key and order by
        // position. Each round grows the heap to its cap and drains it,
        // 20 000 / cap times or once.
        let mut rng = SplitMix64::new(0x5EE9);
        for cap in [4, 60, 1_000, 10_000] {
            let universe = 2 * cap;
            let mut p = Pair {
                heap: SleepHeap::default(),
                slots: vec![Slot::default(); universe],
                model: BTreeSet::new(),
                keys: vec![None; universe],
                free: (0..universe).collect(),
            };
            let (mut peak, mut moves, mut step) = (0, 0, 0);
            for growing in (0..(20_000 / cap).max(1)).flat_map(|_| [true, false]) {
                while if growing {
                    p.heap.len() < cap
                } else {
                    p.heap.len() > 0
                } {
                    step += 1;
                    let op = rng.next_below(16);
                    let push = p.heap.len() == 0 || op < if growing { 12 } else { 3 };
                    if push && p.heap.len() < cap {
                        let k = rng.next_below(p.free.len() as u64) as usize;
                        let i = p.free.swap_remove(k);
                        let key = rng.next_below(4) as u32;
                        p.heap.push(key, i, &mut p.slots);
                        p.model.insert((key, i));
                        p.keys[i] = Some(key);
                    } else if op < 13 {
                        // Wake a random sleeper through its slot.
                        let at = rng.next_below(p.heap.len() as u64) as usize;
                        let (key, i) = p.heap.entries()[at];
                        p.heap.remove(p.slots[i].at as usize, &mut p.slots);
                        p.forget(key, i);
                    } else if op < 15 {
                        let &(key, i) = p.model.first().expect("non-empty");
                        assert_eq!(p.heap.root(), Some((key, i)));
                        p.heap.remove(0, &mut p.slots);
                        p.forget(key, i);
                    } else {
                        // The highest sleeping position moves into a free
                        // lower one, as `swap_remove` retirement moves the
                        // last tenant.
                        let hi = p.keys.iter().rposition(Option::is_some).expect("non-empty");
                        let k = rng.next_below(p.free.len() as u64) as usize;
                        let lo = p.free[k];
                        if lo < hi {
                            let key = p.keys[hi].expect("sleeping");
                            p.slots[lo] = p.slots[hi];
                            p.heap.lower(p.slots[lo].at as usize, lo, &mut p.slots);
                            p.forget(key, hi);
                            p.free.swap_remove(k);
                            p.model.insert((key, lo));
                            p.keys[lo] = Some(key);
                            moves += 1;
                        }
                    }
                    peak = peak.max(p.heap.len());
                    // Every entry is checked while the heap is small, and
                    // every 32nd step above that (the root every step).
                    let n = p.heap.len();
                    p.check(n <= 128 || step % 32 == 0, n <= 64 || step % 512 == 0);
                }
            }
            p.check(true, true);
            assert_eq!(peak, cap);
            assert!(moves > 2_000, "cap {cap}: {moves} moves");
        }
    }
}
