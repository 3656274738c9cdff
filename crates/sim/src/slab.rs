//! Dense ring-indexed tenant index: admission number → position in
//! `SimState::tenants`, O(1) per probe.
//!
//! The kernel used a `BTreeMap<u64, usize>` here, paying a tree walk on
//! every admission, every retirement, every swap-remove re-point, and —
//! hottest of all — every completion-event validity check
//! (`index_of_admission` runs once per popped heap entry, stale or not).
//! The keys are the node's admission numbers
//! ([`TenantState::admission`](crate::TenantState::admission)), which are
//! dense and increasing by construction, so the map is stored as a dense
//! window of `Option` slots over `[base, base + window.len())`. Every
//! operation is an array probe at `key - base`; the window grows at the
//! back as tenants are admitted and shrinks from both ends as
//! retirements open holes, so resident size is O(live admission span),
//! at most the number of tenants admitted while the oldest live one
//! waited.
//!
//! Request ids would not do as keys: the trace chooses them, so they can
//! repeat, run backwards or skip ahead. Keyed by them, this window
//! panicked on an id below its base and kept one slot per skipped id.
//!
//! Lookups below `base` (long-retired tenants) and past the window end
//! miss cleanly — the same answer the `BTreeMap` gave for an absent key —
//! so the swap from the tree is behaviorally invisible; the fabric digest
//! suites pin that.

use std::collections::VecDeque;

/// Admission-keyed index of live tenants, stored as a dense ring window
/// over the monotone admission numbers.
#[derive(Debug, Clone, Default)]
pub struct TenantSlab {
    /// Admission number addressed by `window[0]`.
    base: u64,
    /// One slot per key in `[base, base + window.len())`; `None` = not
    /// live.
    window: VecDeque<Option<usize>>,
    /// Number of `Some` slots.
    occupied: usize,
}

impl TenantSlab {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed (live) tenants.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no tenants are indexed.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The tenant-list position for admission number `key`, if live. One
    /// window probe; keys outside the window miss cleanly.
    pub fn get(&self, key: u64) -> Option<usize> {
        let idx = usize::try_from(key.checked_sub(self.base)?).ok()?;
        *self.window.get(idx)?
    }

    /// Points `key` at tenant-list position `pos`: fresh admissions
    /// extend the window at the back (keys are monotone, so the extension
    /// is amortized O(1)); re-points after a `swap_remove` overwrite the
    /// existing slot in place.
    pub fn insert(&mut self, key: u64, pos: usize) {
        if self.window.is_empty() {
            // First insert after the window fully drained: re-anchor the
            // base at the new key.
            self.base = key;
        }
        let off = key
            .checked_sub(self.base)
            // lint: a monotone-key contract violation is a kernel bug, not a
            // recoverable condition — fail loudly, don't corrupt the index
            .expect("admission numbers are monotone: a key below the window base was never live");
        // lint: a live admission span wider than usize means >4 GiB of
        // slots; OOM is unavoidable then and a clear panic beats an abort
        let idx = usize::try_from(off).expect("live admission span exceeds the address space");
        while self.window.len() <= idx {
            self.window.push_back(None);
        }
        let slot = &mut self.window[idx];
        if slot.is_none() {
            self.occupied += 1;
        }
        *slot = Some(pos);
    }

    /// Unindexes admission number `key`, returning its last position. The
    /// window then sheds dead slots from both ends — front shrinkage
    /// advances `base` past keys that can never return — keeping
    /// residency at O(live admission span) without any amortized sweep.
    pub fn remove(&mut self, key: u64) -> Option<usize> {
        let idx = usize::try_from(key.checked_sub(self.base)?).ok()?;
        let slot = self.window.get_mut(idx)?;
        let prev = slot.take();
        if prev.is_some() {
            self.occupied -= 1;
            while matches!(self.window.front(), Some(None)) {
                self.window.pop_front();
                self.base += 1;
            }
            while matches!(self.window.back(), Some(None)) {
                self.window.pop_back();
            }
        }
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_on_empty_misses() {
        let s = TenantSlab::new();
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(u64::MAX), None);
        assert!(s.is_empty());
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = TenantSlab::new();
        s.insert(10, 0);
        s.insert(11, 1);
        s.insert(12, 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(10), Some(0));
        assert_eq!(s.get(11), Some(1));
        assert_eq!(s.get(12), Some(2));
        assert_eq!(s.get(9), None);
        assert_eq!(s.get(13), None);
        assert_eq!(s.remove(11), Some(1));
        assert_eq!(s.get(11), None);
        assert_eq!(s.len(), 2);
        // Double-remove is a clean miss, like the BTreeMap.
        assert_eq!(s.remove(11), None);
    }

    #[test]
    fn swap_remove_repoint_overwrites_in_place() {
        let mut s = TenantSlab::new();
        s.insert(0, 0);
        s.insert(1, 1);
        s.insert(2, 2);
        // Tenant 0 retires; tenant 2 is swapped into position 0.
        assert_eq!(s.remove(0), Some(0));
        s.insert(2, 0);
        assert_eq!(s.get(2), Some(0));
        assert_eq!(s.get(1), Some(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn window_shrinks_from_both_ends() {
        let mut s = TenantSlab::new();
        for id in 0..100 {
            s.insert(id, id as usize);
        }
        // Retire everything except the middle; the window must not keep
        // 100 slots for 1 live tenant.
        for id in (0..100).filter(|&id| id != 50) {
            s.remove(id);
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.window.len(), 1);
        assert_eq!(s.base, 50);
        assert_eq!(s.get(50), Some(50));
    }

    #[test]
    fn rebase_after_drain_skips_id_gaps() {
        let mut s = TenantSlab::new();
        s.insert(5, 0);
        s.remove(5);
        assert!(s.is_empty());
        // A long-idle node admits id 1_000_000 next: the window must
        // re-anchor, not allocate a million dead slots.
        s.insert(1_000_000, 0);
        assert_eq!(s.window.len(), 1);
        assert_eq!(s.get(1_000_000), Some(0));
        assert_eq!(s.get(5), None);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn insert_below_base_is_a_bug() {
        let mut s = TenantSlab::new();
        s.insert(10, 0);
        s.remove(10);
        s.insert(20, 0);
        s.insert(3, 1);
    }
}
