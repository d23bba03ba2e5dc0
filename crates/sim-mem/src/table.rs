//! A deterministic open-addressed hash table keyed by raw block index.
//!
//! The invariant checker keeps two block-keyed tables: the blocks it has
//! observed, and the per-block accumulators of a line-major sweep, which
//! are emptied every sweep. [`BlockMap`] serves both with a
//! linear-probing table using a Fibonacci multiplicative hash — a
//! single multiply — an `entry_mut` API that resolves the slot exactly
//! once per operation, and a `clear` that keeps the allocation. (The
//! memory-side token ledger, which is dense and never emptied, lives in a
//! `sim_vm::PagedTable` instead.)
//!
//! The table is *insert-only* (entries are only dropped all at once, by
//! `clear`), which keeps probing trivially correct: no tombstones, no
//! backward shifts. Everything about it is deterministic: identical
//! insert sequences produce identical slot layouts.

/// Sentinel for an empty slot. Block indices are byte addresses divided
/// by 64, so `u64::MAX` can never be a real key.
const EMPTY: u64 = u64::MAX;

/// Fibonacci hashing constant (2^64 / φ).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic, insert-only, open-addressed map from raw `u64` block
/// indices to small copyable values.
///
/// # Examples
///
/// ```
/// use sim_mem::BlockMap;
///
/// let mut m: BlockMap<u32> = BlockMap::new();
/// *m.entry_mut(7, 0) += 3;
/// assert_eq!(m.get(7), Some(&3));
/// assert_eq!(m.get(8), None);
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct BlockMap<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
    /// `64 - log2(capacity)`: maps the hash's high bits to a slot.
    shift: u32,
}

impl<V: Copy + Default> Default for BlockMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> BlockMap<V> {
    /// Creates an empty map with a small pre-sized backing store.
    pub fn new() -> Self {
        Self::with_pow2_capacity(1 << 10)
    }

    fn with_pow2_capacity(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        BlockMap {
            keys: vec![EMPTY; cap],
            vals: vec![V::default(); cap],
            len: 0,
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// Number of keys inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        let mut i = (key.wrapping_mul(FIB) >> self.shift) as usize;
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        let i = self.slot_of(key);
        if self.keys[i] == key {
            Some(&self.vals[i])
        } else {
            None
        }
    }

    /// Returns a mutable reference to the value for `key`, inserting
    /// `default` first if the key is absent. This is the single-probe
    /// read-modify-write primitive the token ledger is built on.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `key` is `u64::MAX`, which is reserved
    /// as the empty-slot sentinel.
    #[inline]
    pub fn entry_mut(&mut self, key: u64, default: V) -> &mut V {
        debug_assert_ne!(key, EMPTY, "u64::MAX is reserved as the empty sentinel");
        // Grow at 7/8 load so linear probe chains stay short.
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let i = self.slot_of(key);
        if self.keys[i] == EMPTY {
            self.keys[i] = key;
            self.vals[i] = default;
            self.len += 1;
        }
        &mut self.vals[i]
    }

    /// Empties the map while keeping its backing allocation, so a scratch
    /// table can be reused across passes without reallocating.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }

    fn grow(&mut self) {
        let next = Self::with_pow2_capacity((self.mask + 1) * 2);
        let old_keys = std::mem::replace(&mut self.keys, next.keys);
        let old_vals = std::mem::replace(&mut self.vals, next.vals);
        self.mask = next.mask;
        self.shift = next.shift;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                *self.entry_mut(k, v) = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_roundtrip() {
        let mut m: BlockMap<u64> = BlockMap::new();
        for k in 0..5000u64 {
            *m.entry_mut(k, 0) = k * 3;
        }
        assert_eq!(m.len(), 5000);
        for k in 0..5000u64 {
            assert_eq!(m.get(k), Some(&(k * 3)), "key {k}");
        }
        assert_eq!(m.get(5000), None);
    }

    #[test]
    fn entry_mut_inserts_default_once() {
        let mut m: BlockMap<u32> = BlockMap::new();
        assert_eq!(*m.entry_mut(9, 42), 42);
        *m.entry_mut(9, 0) += 1;
        assert_eq!(m.get(9), Some(&43));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn growth_preserves_entries() {
        // Force several rehashes from the smallest capacity path.
        let mut m: BlockMap<u64> = BlockMap::with_pow2_capacity(2);
        for k in 0..300u64 {
            *m.entry_mut(k * 64, 0) = k;
        }
        for k in 0..300u64 {
            assert_eq!(m.get(k * 64), Some(&k));
        }
        assert_eq!(m.len(), 300);
    }

    #[test]
    fn clear_keeps_capacity_and_forgets_keys() {
        let mut m: BlockMap<u32> = BlockMap::new();
        for k in 0..100u64 {
            *m.entry_mut(k, 0) = k as u32;
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(5), None);
        // Reinsertion after clear starts from the default again.
        assert_eq!(*m.entry_mut(5, 7), 7);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn clustered_keys_stay_distinct() {
        // Sequential block indices (the common case) must not collide into
        // loss; adjacent keys probe into adjacent slots at worst.
        let mut m: BlockMap<u64> = BlockMap::new();
        for k in 1_000_000..1_002_048u64 {
            *m.entry_mut(k, 0) = !k;
        }
        for k in 1_000_000..1_002_048u64 {
            assert_eq!(m.get(k), Some(&!k));
        }
    }
}
