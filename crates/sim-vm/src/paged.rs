//! A deterministic two-level table keyed by raw `u64` page or block
//! numbers.
//!
//! The simulator's per-access lookups (the sharing type of every accessed
//! page, the memory-side token holdings of every missed block) are keyed
//! by numbers that `MemoryMap` hands out densely from zero. [`PagedTable`]
//! serves them without hashing: a key's high bits pick a fixed-size chunk
//! through a small chunk index, and its low bits index into the chunk.
//! Chunks are allocated on first write and hold [`Default`] values until
//! written, so memory grows with the chunks touched, not with the key
//! range. Keys past the directly indexed range go through a sorted index
//! instead, so any `u64` is a valid key. Identical write sequences build
//! identical tables.

/// Entries per chunk, as a power of two.
const CHUNK_BITS: u32 = 12;
const CHUNK: usize = 1 << CHUNK_BITS;
/// Chunk numbers below this are indexed directly; the rest are searched.
const DIRECT_CHUNKS: u64 = 1 << 12;

/// Position in `PagedTable::data` of `key`, whose chunk has slot `s - 1`.
#[inline]
fn pos(s: u32, key: u64) -> usize {
    ((s as usize - 1) << CHUNK_BITS) | (key as usize & (CHUNK - 1))
}

/// A map from every `u64` key to a small copyable value, [`Default`]
/// until written.
///
/// # Examples
///
/// ```
/// use sim_vm::PagedTable;
///
/// let mut t: PagedTable<u8> = PagedTable::new();
/// *t.get_mut(7) += 3;
/// *t.get_mut(u64::MAX) = 1;
/// assert_eq!(t.get(7), 3);
/// assert_eq!(t.get(8), 0);
/// assert_eq!(t.chunks(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PagedTable<V> {
    /// Slot + 1 of every chunk numbered below `DIRECT_CHUNKS` (0: none).
    direct: Vec<u32>,
    /// `(chunk number, slot + 1)` of every other chunk, sorted.
    far: Vec<(u64, u32)>,
    /// Chunk number of every slot, in allocation order.
    chunk_keys: Vec<u64>,
    /// The chunks, slot after slot.
    data: Vec<V>,
}

impl<V: Copy + Default> PagedTable<V> {
    /// Creates an empty table; it allocates nothing until written.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slot + 1 of chunk number `chunk`, or 0 if it is not allocated.
    #[inline]
    fn slot(&self, chunk: u64) -> u32 {
        if chunk < DIRECT_CHUNKS {
            self.direct.get(chunk as usize).copied().unwrap_or(0)
        } else {
            self.far
                .binary_search_by_key(&chunk, |&(c, _)| c)
                .map_or(0, |i| self.far[i].1)
        }
    }

    /// The value at `key`.
    #[inline]
    pub fn get(&self, key: u64) -> V {
        match self.slot(key >> CHUNK_BITS) {
            0 => V::default(),
            s => self.data[pos(s, key)],
        }
    }

    /// The value at `key`, for writing; allocates its chunk if needed.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> &mut V {
        let chunk = key >> CHUNK_BITS;
        let s = match self.slot(chunk) {
            0 => self.alloc(chunk),
            s => s,
        };
        &mut self.data[pos(s, key)]
    }

    fn alloc(&mut self, chunk: u64) -> u32 {
        self.chunk_keys.push(chunk);
        self.data.resize(self.data.len() + CHUNK, V::default());
        let s = u32::try_from(self.chunk_keys.len()).expect("chunk count fits in u32");
        if chunk < DIRECT_CHUNKS {
            let i = chunk as usize;
            if i >= self.direct.len() {
                self.direct.resize(i + 1, 0);
            }
            self.direct[i] = s;
        } else {
            let i = self.far.partition_point(|&(c, _)| c < chunk);
            self.far.insert(i, (chunk, s));
        }
        s
    }

    /// Number of chunks allocated.
    pub fn chunks(&self) -> usize {
        self.chunk_keys.len()
    }

    /// Every value of every allocated chunk, written or not, chunk by
    /// chunk in allocation order: [`iter`](Self::iter) without the keys.
    pub fn values(&self) -> &[V] {
        &self.data
    }

    /// Iterates over `(key, value)` for every key of every allocated
    /// chunk, written or not, chunk by chunk in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.chunk_keys
            .iter()
            .zip(self.data.chunks_exact(CHUNK))
            .flat_map(|(&c, vals)| {
                vals.iter()
                    .enumerate()
                    .map(move |(i, &v)| ((c << CHUNK_BITS) | i as u64, v))
            })
    }
}
