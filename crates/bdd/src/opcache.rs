//! Sized, generational operation caches.
//!
//! Each cache is a fixed-capacity direct-mapped array of `(key, result)`
//! slots tagged with an epoch. Invalidation (`clear`) is an O(1) epoch
//! bump — stale entries die lazily on their next probe. Capacity starts
//! small and doubles under collision pressure up to a per-cache ceiling,
//! so short-lived managers stay allocation-light while long computations
//! get a large cache.

#[derive(Debug, Clone, Copy)]
struct Slot {
    k0: u32,
    k1: u32,
    k2: u32,
    epoch: u32,
    val: u32,
}

const EMPTY_SLOT: Slot = Slot {
    k0: 0,
    k1: 0,
    k2: 0,
    epoch: 0,
    val: 0,
};

/// Direct-mapped cache over a 3-word key.
#[derive(Debug)]
pub(crate) struct DirectCache {
    slots: Vec<Slot>,
    mask: usize,
    epoch: u32,
    occupancy: usize,
    max_capacity: usize,
}

#[inline(always)]
fn hash(k0: u32, k1: u32, k2: u32) -> u64 {
    let mut z = (k0 as u64) << 32 | k1 as u64;
    z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((k2 as u64) << 17);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

impl DirectCache {
    /// `initial` and `max` are slot counts; both must be powers of two.
    pub fn new(initial: usize, max: usize) -> Self {
        debug_assert!(initial.is_power_of_two() && max.is_power_of_two());
        DirectCache {
            slots: vec![EMPTY_SLOT; initial],
            mask: initial - 1,
            epoch: 1,
            occupancy: 0,
            max_capacity: max,
        }
    }

    #[inline]
    pub fn lookup(&self, k0: u32, k1: u32, k2: u32) -> Option<u32> {
        let s = &self.slots[hash(k0, k1, k2) as usize & self.mask];
        if s.epoch == self.epoch && s.k0 == k0 && s.k1 == k1 && s.k2 == k2 {
            Some(s.val)
        } else {
            None
        }
    }

    /// Stores a result, overwriting whatever shares its slot.
    pub fn insert(&mut self, k0: u32, k1: u32, k2: u32, val: u32) {
        if self.occupancy * 2 >= self.slots.len() && self.slots.len() < self.max_capacity {
            self.grow();
        }
        let s = &mut self.slots[hash(k0, k1, k2) as usize & self.mask];
        if s.epoch != self.epoch {
            self.occupancy += 1;
        }
        *s = Slot {
            k0,
            k1,
            k2,
            epoch: self.epoch,
            val,
        };
    }

    /// Drops every entry in O(1).
    pub fn clear(&mut self) {
        self.occupancy = 0;
        if self.epoch == u32::MAX {
            // Epoch wrap: hard-reset so stale tags can never false-match.
            self.slots.fill(EMPTY_SLOT);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        self.mask = new_cap - 1;
        for s in old {
            if s.epoch == self.epoch {
                // Direct-mapped: a same-epoch rival may land on the slot;
                // keep the earlier entry and drop the rival silently (it is
                // a cache, not a map).
                let dst = &mut self.slots[hash(s.k0, s.k1, s.k2) as usize & self.mask];
                if dst.epoch != self.epoch {
                    *dst = s;
                } else {
                    self.occupancy -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_insert_clear() {
        let mut c = DirectCache::new(8, 64);
        assert_eq!(c.lookup(1, 2, 3), None);
        c.insert(1, 2, 3, 42);
        assert_eq!(c.occupancy, 1);
        assert_eq!(c.lookup(1, 2, 3), Some(42));
        c.insert(1, 2, 3, 43);
        assert_eq!(c.occupancy, 1, "a same-key overwrite takes no new slot");
        assert_eq!(c.lookup(1, 2, 3), Some(43));
        c.clear();
        assert_eq!(c.occupancy, 0);
        assert_eq!(c.lookup(1, 2, 3), None);
    }

    #[test]
    fn grows_under_pressure_and_keeps_entries() {
        let mut c = DirectCache::new(4, 1024);
        for i in 0..200u32 {
            c.insert(i, i + 1, 0, i);
        }
        let mut survivors = 0;
        for i in 0..200u32 {
            if c.lookup(i, i + 1, 0) == Some(i) {
                survivors += 1;
            }
        }
        // Direct-mapped at ≤50% load: collisions evict some entries, but
        // growth must keep well over what a non-growing 4-slot cache could.
        assert!(survivors > 100, "growth keeps most entries: {survivors}");
    }

    #[test]
    fn capped_cache_evicts_on_collision() {
        let mut c = DirectCache::new(4, 4);
        for i in 0..64u32 {
            c.insert(i, 0, 0, i);
        }
        let survivors = (0..64u32).filter(|&i| c.lookup(i, 0, 0) == Some(i)).count();
        assert!(survivors <= 4, "a full direct-mapped cache must evict");
        assert!(c.occupancy <= 4);
        assert_eq!(c.lookup(63, 0, 0), Some(63), "the newest entry survives");
    }
}
