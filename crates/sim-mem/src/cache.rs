//! Set-associative caches with LRU replacement and per-VM residence
//! counters.
//!
//! The residence counters are the paper's key hardware addition for
//! supporting VM relocation (Section IV-B): "Each per-VM counter records
//! the number of VM-private blocks in the cache for a VM. Whenever a block
//! is added to a cache, the corresponding counter for the current VM is
//! increased. [...] When a cacheline is evicted by replacement or
//! invalidated by snoops, the counter of the corresponding VM is
//! decreased. When the counter becomes zero, it is certain that the
//! private data of the VM do not exist in the cache," at which point the
//! core can safely leave the VM's snoop domain.

use sim_vm::VmId;

use crate::addr::{BlockAddr, BLOCK_BYTES};
use crate::line::{CacheLine, LineTag};

/// Largest associativity: a set's way match is one bit per way of a `u64`.
const MAX_WAYS: usize = 64;

/// Geometry of a cache: capacity, associativity, block size.
///
/// # Examples
///
/// ```
/// use sim_mem::CacheGeometry;
///
/// // The paper's 256 KB 8-way L2 with 64-byte blocks:
/// let g = CacheGeometry::new(256 * 1024, 8);
/// assert_eq!(g.sets(), 512);
/// assert_eq!(g.lines(), 4096);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheGeometry {
    bytes: u64,
    ways: usize,
    /// `sets() - 1`, precomputed: set selection is on the hot path of
    /// every probe, and the set count is only known at runtime, so the
    /// modulo would otherwise compile to a hardware divide.
    set_mask: u64,
}

impl CacheGeometry {
    /// Creates a geometry for a cache of `bytes` capacity and `ways`
    /// associativity, with [`BLOCK_BYTES`]-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is a positive multiple of
    /// `ways * BLOCK_BYTES`, the resulting set count is a power of two, and
    /// `ways` is at most 64.
    pub fn new(bytes: u64, ways: usize) -> Self {
        Self::try_new(bytes, ways).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a geometry like [`CacheGeometry::new`], returning the
    /// violated constraint instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint, human-readable.
    pub fn try_new(bytes: u64, ways: usize) -> Result<Self, &'static str> {
        if ways == 0 {
            return Err("associativity must be positive");
        }
        if ways > MAX_WAYS {
            return Err("associativity must be at most 64");
        }
        let line_bytes = ways as u64 * BLOCK_BYTES;
        if bytes == 0 || !bytes.is_multiple_of(line_bytes) {
            return Err("capacity must be a positive multiple of ways * block size");
        }
        let sets = bytes / line_bytes;
        if !sets.is_power_of_two() {
            return Err("set count must be a power of two");
        }
        Ok(CacheGeometry {
            bytes,
            ways,
            set_mask: sets - 1,
        })
    }

    /// Total capacity in bytes.
    pub const fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Associativity.
    pub const fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub const fn sets(&self) -> u64 {
        self.bytes / (self.ways as u64 * BLOCK_BYTES)
    }

    /// Total number of lines.
    pub const fn lines(&self) -> u64 {
        self.bytes / BLOCK_BYTES
    }

    /// The set index of `block`.
    pub const fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() & self.set_mask) as usize
    }
}

/// Basic hit/miss statistics of one cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups performed via [`Cache::access`].
    pub accesses: u64,
    /// Lookups that found a valid line.
    pub hits: u64,
    /// Lines displaced by insertion.
    pub evictions: u64,
}

impl CacheStats {
    /// Misses (accesses that did not hit).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// One cache set in the data-oriented layout: its resident lines plus a
/// **per-set** LRU clock.
///
/// The clock used to be cache-global; moving it into the set is what lets
/// the parallel engine hand disjoint groups of sets to different worker
/// shards with no shared mutable state. Replacement is unchanged bit for
/// bit: the LRU victim is the minimum `last_use` *within one set*, and a
/// per-set clock stamps the set's touches with strictly increasing values
/// in exactly the order the global clock did.
///
/// Stamps are `u32`, which keeps a [`CacheLine`] at 24 bytes. Before the
/// clock would wrap, a cold path rewrites the set's stamps to `1..=len`
/// in their existing order, so victims stay exactly LRU.
///
/// `fingerprints` is a partial-tag filter over the first
/// [`FILTERED_WAYS`] ways: byte `i` is [`fingerprint`] of way `i`'s block,
/// or 0 when the way is empty. A lookup compares all eight bytes in a few
/// word operations and reads a line only where its byte matches, so a
/// probe of a set that does not hold the block usually reads no line.
/// The filter is exact: every candidate's full `block` is compared, so a
/// fingerprint collision costs one line read, never a wrong answer.
#[derive(Clone, Debug, Default)]
pub struct CacheSet {
    lines: Vec<CacheLine>,
    fingerprints: u64,
    clock: u32,
}

// Every simulator holds one header per set (512 per paper L2): any
// growth must be deliberate.
const _: () = assert!(std::mem::size_of::<CacheSet>() == 40);

/// Ways covered by [`CacheSet`]'s fingerprint word, one byte each. Ways
/// beyond it (only in caches wider than the paper's 8-way L2) are
/// scanned line by line.
const FILTERED_WAYS: usize = 8;

/// `0x01` in every byte of a word.
const LOW_BYTES: u64 = u64::from_ne_bytes([0x01; 8]);
/// `0x7F` in every byte of a word.
const LOW_SEVEN: u64 = u64::from_ne_bytes([0x7F; 8]);

/// The nonzero partial tag of `block`: the high byte of a multiplicative
/// hash, so blocks of one set, which share their low bits, still spread
/// over all byte values. Zero is reserved for an empty way.
#[inline(always)]
fn fingerprint(block: BlockAddr) -> u8 {
    let h = (block.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8;
    h | u8::from(h == 0)
}

/// `0x80` in exactly the bytes of `x` that are zero. Adding `0x7F` to the
/// low seven bits of a byte sets its top bit unless they are all zero, and
/// masking in `x` itself adds the byte's own top bit; no carry crosses a
/// byte, so no byte is flagged falsely.
#[inline(always)]
fn zero_bytes(x: u64) -> u64 {
    !(((x & LOW_SEVEN) + LOW_SEVEN) | x | LOW_SEVEN)
}

/// What [`CacheSet::insert_line`] did, so the caller (full cache or
/// shard view) can adjust its own residence counters and statistics.
pub(crate) enum InsertOutcome {
    /// The block was already present; its state/tag were replaced in
    /// place (carries the replaced line's old tag).
    Replaced(LineTag),
    /// The line was appended to a non-full set.
    Pushed,
    /// The set was full; the LRU victim was displaced.
    Evicted(CacheLine),
}

impl CacheSet {
    /// The set's resident lines (checker/test visibility).
    pub fn lines(&self) -> &[CacheLine] {
        &self.lines
    }

    /// The way holding `block`. The fingerprint word names the candidate
    /// ways among the first [`FILTERED_WAYS`], lowest first, and each
    /// candidate's full block is compared; ways beyond them are scanned.
    /// A set holds a block at most once, so the first match is the way.
    #[inline(always)]
    fn way(&self, block: BlockAddr) -> Option<usize> {
        let mut candidates =
            zero_bytes(self.fingerprints ^ (u64::from(fingerprint(block)) * LOW_BYTES));
        while candidates != 0 {
            let way = (candidates.trailing_zeros() / 8) as usize;
            if self.lines.get(way).is_some_and(|l| l.block == block) {
                return Some(way);
            }
            candidates &= candidates - 1;
        }
        let wide = self.lines.get(FILTERED_WAYS..)?;
        Some(FILTERED_WAYS + wide.iter().position(|l| l.block == block)?)
    }

    /// Writes `way`'s fingerprint byte, if the word covers that way.
    #[inline(always)]
    fn set_fingerprint(&mut self, way: usize, fp: u8) {
        if way < FILTERED_WAYS {
            let shift = 8 * way;
            self.fingerprints = self.fingerprints & !(0xFF << shift) | u64::from(fp) << shift;
        }
    }

    /// The fingerprint word recomputed from the lines.
    #[cfg(test)]
    fn fingerprints_from_lines(&self) -> u64 {
        let mut word = 0;
        for (way, l) in self.lines.iter().take(FILTERED_WAYS).enumerate() {
            word |= u64::from(fingerprint(l.block)) << (8 * way);
        }
        word
    }

    /// Stats-free lookup.
    fn find(&self, block: BlockAddr) -> Option<&CacheLine> {
        self.lines.get(self.way(block)?)
    }

    /// Stats-free mutable lookup.
    fn find_mut(&mut self, block: BlockAddr) -> Option<&mut CacheLine> {
        let way = self.way(block)?;
        self.lines.get_mut(way)
    }

    /// Advances the set clock and returns the new stamp.
    #[inline(always)]
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.renumber();
        }
        self.clock += 1;
        self.clock
    }

    /// Rewrites the stamps to `1..=len` in their existing order and winds
    /// the clock back to `len`. Stamps in a set are distinct, so each
    /// line's new stamp is one plus the number of lines used before it.
    #[cold]
    #[inline(never)]
    fn renumber(&mut self) {
        let mut rank = [0u32; MAX_WAYS];
        for (r, a) in rank.iter_mut().zip(&self.lines) {
            *r = 1 + self
                .lines
                .iter()
                .filter(|b| b.last_use < a.last_use)
                .count() as u32;
        }
        for (l, r) in self.lines.iter_mut().zip(rank) {
            l.last_use = r;
        }
        self.clock = self.lines.len() as u32;
    }

    /// The LRU-touching half of an `access`: bumps the set clock and
    /// re-stamps the line on a hit. Returns the line when found.
    fn touch(&mut self, block: BlockAddr) -> Option<&mut CacheLine> {
        let clock = self.tick();
        let line = self.find_mut(block)?;
        line.last_use = clock;
        Some(line)
    }

    /// Inserts `line` stamped with the set's next clock tick, applying
    /// the in-place-replace / append / LRU-evict policy. Residence and
    /// statistics accounting is the caller's job (see [`InsertOutcome`]).
    pub(crate) fn insert_line(&mut self, mut line: CacheLine, ways: usize) -> InsertOutcome {
        line.last_use = self.tick();
        if let Some(existing) = self.find_mut(line.block) {
            let old_tag = existing.tag;
            *existing = line;
            return InsertOutcome::Replaced(old_tag);
        }
        let fp = fingerprint(line.block);
        if self.lines.len() < ways {
            self.set_fingerprint(self.lines.len(), fp);
            self.lines.push(line);
            return InsertOutcome::Pushed;
        }
        // Evict the least recently used line.
        let victim_idx = self
            .lines
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.last_use)
            .map(|(i, _)| i)
            .expect("full set is non-empty");
        self.set_fingerprint(victim_idx, fp);
        InsertOutcome::Evicted(std::mem::replace(&mut self.lines[victim_idx], line))
    }

    /// Removes and returns the line caching `block`, if present. The last
    /// way moves into the freed one, and its fingerprint byte with it.
    pub(crate) fn remove_line(&mut self, block: BlockAddr) -> Option<CacheLine> {
        let way = self.way(block)?;
        let last = self.lines.len() - 1;
        self.set_fingerprint(way, fingerprint(self.lines[last].block));
        self.set_fingerprint(last, 0);
        Some(self.lines.swap_remove(way))
    }
}

/// A set-associative, LRU-replaced cache with VM-tagged lines.
///
/// The cache tracks, for every VM, how many valid lines tagged with that VM
/// it currently holds (the paper's per-VM cache residence counters).
///
/// Storage is a struct-of-arrays over [`CacheSet`]s; disjoint groups of
/// sets can be handed to engine worker shards via [`Cache::shards`].
///
/// # Examples
///
/// ```
/// use sim_mem::{Cache, CacheGeometry, CacheLine, TokenState, LineTag, BlockAddr};
/// use sim_vm::VmId;
///
/// let mut c = Cache::new(CacheGeometry::new(4096, 2), 4);
/// let vm = VmId::new(1);
/// c.insert(CacheLine::new(BlockAddr::new(7), TokenState::shared_one(), LineTag::Vm(vm)));
/// assert_eq!(c.residence(vm), 1);
/// assert!(c.access(BlockAddr::new(7)));
/// c.remove(BlockAddr::new(7));
/// assert_eq!(c.residence(vm), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    sets: Vec<CacheSet>,
    residence: Vec<u64>,
    host_residence: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache able to track residence for `n_vms` VMs.
    pub fn new(geometry: CacheGeometry, n_vms: usize) -> Self {
        Cache {
            geometry,
            sets: vec![
                CacheSet {
                    lines: Vec::with_capacity(geometry.ways()),
                    fingerprints: 0,
                    clock: 0,
                };
                geometry.sets() as usize
            ],
            residence: vec![0; n_vms],
            host_residence: 0,
            stats: CacheStats::default(),
        }
    }

    /// Returns the cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Returns hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Performs a stats-counting lookup, touching LRU state on a hit.
    /// Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, block: BlockAddr) -> bool {
        self.access_mut(block).is_some()
    }

    /// [`Cache::access`] that also returns the hit line for in-place
    /// token updates, so a lookup followed by an update finds the line
    /// once. The same rule as [`Cache::probe_mut`] applies to the line.
    #[inline]
    pub fn access_mut(&mut self, block: BlockAddr) -> Option<&mut CacheLine> {
        self.stats.accesses += 1;
        let set = self.geometry.set_of(block);
        let line = self.sets[set].touch(block)?;
        self.stats.hits += 1;
        Some(line)
    }

    /// Returns the line caching `block`, if present, without touching LRU
    /// or statistics.
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> Option<&CacheLine> {
        self.sets[self.geometry.set_of(block)].find(block)
    }

    /// Returns a mutable reference to the line caching `block` for in-place
    /// token updates, without touching LRU or statistics.
    ///
    /// Callers must not set `state.tokens` to zero through this reference;
    /// use [`remove`](Self::remove) to drop a line so residence counters
    /// stay consistent. Nor may they change the line's `block`: the set
    /// was chosen by it and its fingerprint byte was hashed from it, so a
    /// rewritten block would be lost to every later lookup.
    #[inline]
    pub fn probe_mut(&mut self, block: BlockAddr) -> Option<&mut CacheLine> {
        self.sets[self.geometry.set_of(block)].find_mut(block)
    }

    /// Inserts `line`, returning the evicted victim if the set was full.
    ///
    /// If the block is already present its state and tag are replaced
    /// (residence counters adjusted accordingly) and nothing is evicted.
    #[inline]
    pub fn insert(&mut self, line: CacheLine) -> Option<CacheLine> {
        let set_idx = self.geometry.set_of(line.block);
        let tag = line.tag;
        let ways = self.geometry.ways();
        match self.sets[set_idx].insert_line(line, ways) {
            InsertOutcome::Replaced(old_tag) => {
                self.dec_residence(old_tag);
                self.inc_residence(tag);
                None
            }
            InsertOutcome::Pushed => {
                self.inc_residence(tag);
                None
            }
            InsertOutcome::Evicted(victim) => {
                self.inc_residence(tag);
                self.dec_residence(victim.tag);
                self.stats.evictions += 1;
                Some(victim)
            }
        }
    }

    /// Removes and returns the line caching `block` (snoop invalidation or
    /// full token surrender).
    #[inline]
    pub fn remove(&mut self, block: BlockAddr) -> Option<CacheLine> {
        let set = self.geometry.set_of(block);
        let line = self.sets[set].remove_line(block)?;
        self.dec_residence(line.tag);
        Some(line)
    }

    /// Returns the residence counter of `vm`: the number of valid lines
    /// tagged with that VM.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is outside the range configured at construction.
    pub fn residence(&self, vm: VmId) -> u64 {
        self.residence[vm.index()]
    }

    /// Returns the number of valid lines tagged as host (hypervisor/dom0).
    pub fn host_residence(&self) -> u64 {
        self.host_residence
    }

    /// Returns the number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(|s| s.lines.len()).sum()
    }

    /// Iterates over all valid lines (for invariant checks and tests).
    pub fn lines(&self) -> impl Iterator<Item = &CacheLine> {
        self.sets.iter().flat_map(|s| s.lines.iter())
    }

    /// Iterates over the valid lines of set `set`: every line whose block
    /// [`CacheGeometry::set_of`] maps there, in no particular order.
    ///
    /// # Panics
    ///
    /// Panics if `set` is not below [`CacheGeometry::sets`].
    pub fn set_lines(&self, set: usize) -> impl Iterator<Item = &CacheLine> {
        self.sets[set].lines.iter()
    }

    /// Partitions the cache into `n_shards` disjoint mutable views, where
    /// shard `k` owns every set with `set_index % n_shards == k` (blocks
    /// select sets by their low bits, so a block's shard is
    /// `block % n_shards` in **every** cache of the machine — the
    /// property the parallel engine's block-sharding relies on).
    ///
    /// Residence and hit/miss accounting inside a shard accumulates into
    /// shard-local deltas; fold them back with [`Cache::apply_delta`]
    /// (in fixed shard order) once the borrows end.
    ///
    /// # Panics
    ///
    /// Panics unless `n_shards` is a power of two no larger than the set
    /// count.
    pub fn shards(&mut self, n_shards: usize) -> Vec<CacheShard<'_>> {
        assert!(
            n_shards.is_power_of_two() && n_shards as u64 <= self.geometry.sets(),
            "shard count must be a power of two <= set count"
        );
        let geometry = self.geometry;
        let n_vms = self.residence.len();
        let mut shards: Vec<CacheShard<'_>> = (0..n_shards)
            .map(|_| CacheShard {
                geometry,
                n_shards,
                sets: Vec::with_capacity(geometry.sets() as usize / n_shards),
                delta: CacheDelta {
                    residence: vec![0; n_vms],
                    host_residence: 0,
                    stats: CacheStats::default(),
                },
            })
            .collect();
        for (idx, set) in self.sets.iter_mut().enumerate() {
            shards[idx & (n_shards - 1)].sets.push(set);
        }
        shards
    }

    /// Folds a shard's accumulated residence/statistics delta back into
    /// the cache (the set contents were mutated in place through the
    /// shard's borrows).
    pub fn apply_delta(&mut self, delta: &CacheDelta) {
        for (r, d) in self.residence.iter_mut().zip(&delta.residence) {
            *r = r
                .checked_add_signed(*d)
                .expect("residence counter underflow/overflow in shard merge");
        }
        self.host_residence = self
            .host_residence
            .checked_add_signed(delta.host_residence)
            .expect("host residence underflow/overflow in shard merge");
        self.stats.accesses += delta.stats.accesses;
        self.stats.hits += delta.stats.hits;
        self.stats.evictions += delta.stats.evictions;
    }

    fn inc_residence(&mut self, tag: LineTag) {
        match tag {
            LineTag::Vm(vm) => self.residence[vm.index()] += 1,
            LineTag::Host => self.host_residence += 1,
        }
    }

    fn dec_residence(&mut self, tag: LineTag) {
        match tag {
            LineTag::Vm(vm) => {
                debug_assert!(self.residence[vm.index()] > 0, "residence underflow");
                self.residence[vm.index()] -= 1;
            }
            LineTag::Host => {
                debug_assert!(self.host_residence > 0, "host residence underflow");
                self.host_residence -= 1;
            }
        }
    }
}

/// A shard's signed residence/statistics delta, produced by
/// [`CacheShard::into_delta`] and folded back with [`Cache::apply_delta`].
#[derive(Clone, Debug)]
pub struct CacheDelta {
    residence: Vec<i64>,
    host_residence: i64,
    stats: CacheStats,
}

/// One engine shard's mutable view of a [`Cache`]: the sets it owns
/// (interleaved by low set-index bits) plus shard-local accounting.
///
/// The view exposes the same `access`/`probe`/`probe_mut`/`insert`/
/// `remove` operations as [`Cache`], routed through the **same**
/// [`CacheSet`] primitives, so a transaction executed against a shard
/// mutates the set contents bit-identically to the serial path; only the
/// residence/hit/eviction counters are deferred to the merge.
#[derive(Debug)]
pub struct CacheShard<'a> {
    geometry: CacheGeometry,
    n_shards: usize,
    /// The owned sets, in increasing global set index; the local index of
    /// global set `s` is `s / n_shards`.
    sets: Vec<&'a mut CacheSet>,
    delta: CacheDelta,
}

impl CacheShard<'_> {
    /// Local index of the set holding `block`: the owned sets are in
    /// increasing global index `k, k + n, k + 2n, ...`, so global set `s`
    /// lives at local position `s / n_shards`. (A block outside this
    /// shard would alias another set's slot — the engine routes by
    /// `block % n_shards`, which equals `set % n_shards`, to prevent
    /// that by construction.)
    fn set_of(&self, block: BlockAddr) -> usize {
        let global = self.geometry.set_of(block);
        global / self.n_shards
    }

    /// Shard-local [`Cache::access`].
    pub fn access(&mut self, block: BlockAddr) -> bool {
        self.delta.stats.accesses += 1;
        let set = self.set_of(block);
        if self.sets[set].touch(block).is_some() {
            self.delta.stats.hits += 1;
            true
        } else {
            false
        }
    }

    /// Shard-local [`Cache::probe`].
    pub fn probe(&self, block: BlockAddr) -> Option<&CacheLine> {
        self.sets[self.set_of(block)].find(block)
    }

    /// Shard-local [`Cache::probe_mut`].
    pub fn probe_mut(&mut self, block: BlockAddr) -> Option<&mut CacheLine> {
        let set = self.set_of(block);
        self.sets[set].find_mut(block)
    }

    /// Shard-local [`Cache::insert`].
    pub fn insert(&mut self, line: CacheLine) -> Option<CacheLine> {
        let set_idx = self.set_of(line.block);
        let tag = line.tag;
        let ways = self.geometry.ways();
        match self.sets[set_idx].insert_line(line, ways) {
            InsertOutcome::Replaced(old_tag) => {
                self.dec_residence(old_tag);
                self.inc_residence(tag);
                None
            }
            InsertOutcome::Pushed => {
                self.inc_residence(tag);
                None
            }
            InsertOutcome::Evicted(victim) => {
                self.inc_residence(tag);
                self.dec_residence(victim.tag);
                self.delta.stats.evictions += 1;
                Some(victim)
            }
        }
    }

    /// Shard-local [`Cache::remove`].
    pub fn remove(&mut self, block: BlockAddr) -> Option<CacheLine> {
        let set = self.set_of(block);
        let line = self.sets[set].remove_line(block)?;
        self.dec_residence(line.tag);
        Some(line)
    }

    /// Consumes the shard, releasing its set borrows and returning the
    /// accumulated counter delta for [`Cache::apply_delta`].
    pub fn into_delta(self) -> CacheDelta {
        self.delta
    }

    fn inc_residence(&mut self, tag: LineTag) {
        match tag {
            LineTag::Vm(vm) => self.delta.residence[vm.index()] += 1,
            LineTag::Host => self.delta.host_residence += 1,
        }
    }

    fn dec_residence(&mut self, tag: LineTag) {
        match tag {
            LineTag::Vm(vm) => self.delta.residence[vm.index()] -= 1,
            LineTag::Host => self.delta.host_residence -= 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::TokenState;

    fn line(block: u64, vm: u16) -> CacheLine {
        CacheLine::new(
            BlockAddr::new(block),
            TokenState::shared_one(),
            LineTag::Vm(VmId::new(vm)),
        )
    }

    fn small_cache() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(CacheGeometry::new(2 * 2 * 64, 2), 4)
    }

    #[test]
    fn geometry_paper_l2() {
        let g = CacheGeometry::new(256 * 1024, 8);
        assert_eq!(g.sets(), 512);
        assert_eq!(g.lines(), 4096);
        assert_eq!(g.ways(), 8);
        // Blocks that differ by the set count map to the same set.
        assert_eq!(
            g.set_of(BlockAddr::new(3)),
            g.set_of(BlockAddr::new(3 + 512))
        );
    }

    #[test]
    fn hit_after_insert_miss_after_remove() {
        let mut c = small_cache();
        assert!(!c.access(BlockAddr::new(0)));
        c.insert(line(0, 0));
        assert!(c.access(BlockAddr::new(0)));
        c.remove(BlockAddr::new(0));
        assert!(!c.access(BlockAddr::new(0)));
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn access_mut_counts_and_touches_like_access() {
        let (mut a, mut b) = (small_cache(), small_cache());
        for c in [&mut a, &mut b] {
            c.insert(line(0, 0));
            c.insert(line(2, 0));
        }
        assert!(a.access(BlockAddr::new(0)));
        a.probe_mut(BlockAddr::new(0)).unwrap().state.dirty = true;
        b.access_mut(BlockAddr::new(0)).unwrap().state.dirty = true;
        assert!(!a.access(BlockAddr::new(1)));
        assert!(b.access_mut(BlockAddr::new(1)).is_none());
        assert_eq!(a.stats(), b.stats());
        // Same LRU order: block 2 is the victim in both.
        assert_eq!(a.insert(line(4, 0)).unwrap().block, BlockAddr::new(2));
        assert_eq!(b.insert(line(4, 0)).unwrap().block, BlockAddr::new(2));
        assert!(b.probe(BlockAddr::new(0)).unwrap().state.dirty);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_cache();
        // Blocks 0, 2, 4 all map to set 0 (2 sets).
        c.insert(line(0, 0));
        c.insert(line(2, 0));
        // Touch block 0 so block 2 is LRU.
        assert!(c.access(BlockAddr::new(0)));
        let victim = c.insert(line(4, 0)).expect("set was full");
        assert_eq!(victim.block, BlockAddr::new(2));
        assert!(c.probe(BlockAddr::new(0)).is_some());
        assert!(c.probe(BlockAddr::new(4)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn residence_counters_track_inserts_evictions_removals() {
        let mut c = small_cache();
        let vm0 = VmId::new(0);
        let vm1 = VmId::new(1);
        c.insert(line(0, 0));
        c.insert(line(2, 1));
        assert_eq!(c.residence(vm0), 1);
        assert_eq!(c.residence(vm1), 1);
        // Evicts LRU (block 0, vm0).
        let victim = c.insert(line(4, 1)).unwrap();
        assert_eq!(victim.block, BlockAddr::new(0));
        assert_eq!(c.residence(vm0), 0);
        assert_eq!(c.residence(vm1), 2);
        c.remove(BlockAddr::new(2));
        assert_eq!(c.residence(vm1), 1);
    }

    #[test]
    fn host_lines_counted_separately() {
        let mut c = small_cache();
        c.insert(CacheLine::new(
            BlockAddr::new(1),
            TokenState::shared_one(),
            LineTag::Host,
        ));
        assert_eq!(c.host_residence(), 1);
        assert_eq!(c.residence(VmId::new(0)), 0);
        c.remove(BlockAddr::new(1));
        assert_eq!(c.host_residence(), 0);
    }

    #[test]
    fn reinsert_same_block_replaces_in_place() {
        let mut c = small_cache();
        c.insert(line(0, 0));
        // Re-insert with a different tag: counters move, no eviction.
        let evicted = c.insert(line(0, 1));
        assert!(evicted.is_none());
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.residence(VmId::new(0)), 0);
        assert_eq!(c.residence(VmId::new(1)), 1);
    }

    #[test]
    fn residence_matches_line_scan() {
        let mut c = Cache::new(CacheGeometry::new(16 * 4 * 64, 4), 3);
        for i in 0..100u64 {
            c.insert(line(i * 3, (i % 3) as u16));
        }
        for vm in 0..3u16 {
            let counted = c
                .lines()
                .filter(|l| l.tag == LineTag::Vm(VmId::new(vm)))
                .count() as u64;
            assert_eq!(c.residence(VmId::new(vm)), counted);
        }
        assert!(c.occupancy() <= 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheGeometry::new(3 * 64, 1);
    }

    /// Stamps renumber before the `u32` clock wraps. A set whose clock
    /// restarts near the top every 150 ops wraps four times; every
    /// victim is still the least recently used block of a recency-list
    /// model, and the slot order matches a set whose clock starts at 0.
    #[test]
    fn stamp_renumbering_keeps_lru_victims_and_slot_order() {
        const WAYS: usize = 4;
        let (mut near_top, mut low) = (CacheSet::default(), CacheSet::default());
        // Least recently used first.
        let mut recency: Vec<BlockAddr> = Vec::new();
        let mut wraps = 0;
        for op in 0..600u64 {
            if op % 150 == 0 {
                // Every stamp is below the new clock: the order holds.
                near_top.clock = u32::MAX - 100;
            }
            let clock = near_top.clock;
            let block = BlockAddr::new((op * 5 + op / 7) % 9);
            let held = recency.iter().position(|&b| b == block);
            match op % 11 {
                10 => {
                    let removed = near_top.remove_line(block).map(|l| l.block);
                    assert_eq!(removed, low.remove_line(block).map(|l| l.block));
                    assert_eq!(removed.is_some(), held.is_some());
                    recency.retain(|&b| b != block);
                }
                k if k % 3 == 0 => {
                    let hit = near_top.touch(block).is_some();
                    assert_eq!(hit, low.touch(block).is_some());
                    assert_eq!(hit, held.is_some());
                    if let Some(i) = held {
                        recency.remove(i);
                        recency.push(block);
                    }
                }
                _ => {
                    let victim = |out| match out {
                        InsertOutcome::Evicted(v) => Some(v.block),
                        _ => None,
                    };
                    let v = victim(near_top.insert_line(line(block.index(), 0), WAYS));
                    assert_eq!(v, victim(low.insert_line(line(block.index(), 0), WAYS)));
                    let expected = match held {
                        Some(i) => {
                            recency.remove(i);
                            None
                        }
                        None if recency.len() == WAYS => Some(recency.remove(0)),
                        None => None,
                    };
                    assert_eq!(v, expected, "victim at op {op}");
                    recency.push(block);
                }
            }
            let order = |s: &CacheSet| s.lines().iter().map(|l| l.block).collect::<Vec<_>>();
            assert_eq!(order(&near_top), order(&low), "slot order at op {op}");
            wraps += usize::from(near_top.clock < clock);
        }
        assert_eq!(wraps, 4);
    }

    /// A naive set: lines in slot order, each with the global op number
    /// of its last use, looked up by a plain scan.
    #[derive(Default)]
    struct ModelSet(Vec<(CacheLine, u64)>);

    impl ModelSet {
        fn way(&self, block: BlockAddr) -> Option<usize> {
            self.0.iter().position(|(l, _)| l.block == block)
        }
    }

    /// Runs seeded insert/access/probe/remove mixes against a cache and
    /// a per-set model of it. Half the blocks are drawn from groups that
    /// share one set *and* one fingerprint byte, so the filter's
    /// candidates are often false and only the full-block compare tells
    /// them apart. After every op the probe results, victims, slot order,
    /// residence counters and the fingerprint word (against one rebuilt
    /// from the lines) must agree.
    fn filtered_lookup_matches_model(ways: usize, seed: u64) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        const SETS: u64 = 4;
        const VMS: u16 = 3;
        let mut c = Cache::new(
            CacheGeometry::new(SETS * ways as u64 * 64, ways),
            VMS as usize,
        );
        let mut model: Vec<ModelSet> = (0..SETS).map(|_| ModelSet::default()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);

        // Per set, a group of blocks sharing one fingerprint byte, large
        // enough to fill every way plus some.
        let colliding: Vec<Vec<u64>> = (0..SETS)
            .map(|set| {
                let mut by_fp: Vec<Vec<u64>> = vec![Vec::new(); 256];
                let mut k = 0;
                loop {
                    let b = set + k * SETS;
                    let group = &mut by_fp[usize::from(fingerprint(BlockAddr::new(b)))];
                    group.push(b);
                    if group.len() == ways + 3 {
                        break group.clone();
                    }
                    k += 1;
                }
            })
            .collect();
        let pool = 3 * ways as u64 * SETS;
        let mut collisions = 0u64;

        for op in 0..4000u64 {
            let b = if rng.gen_bool(0.5) {
                BlockAddr::new(rng.gen_range(0..pool))
            } else {
                let group = &colliding[rng.gen_range(0..SETS as usize)];
                BlockAddr::new(group[rng.gen_range(0..group.len())])
            };
            let set = c.geometry().set_of(b);
            let m = &mut model[set];
            match rng.gen_range(0..5u32) {
                0 | 1 => {
                    let tag = if rng.gen_bool(0.2) {
                        LineTag::Host
                    } else {
                        LineTag::Vm(VmId::new(rng.gen_range(0..VMS)))
                    };
                    let state = TokenState {
                        tokens: rng.gen_range(1..5u32),
                        owner: rng.gen_bool(0.5),
                        dirty: false,
                    };
                    let new = CacheLine::new(b, state, tag);
                    let expected = match m.way(b) {
                        Some(w) => {
                            m.0[w] = (new, op);
                            None
                        }
                        None if m.0.len() < ways => {
                            m.0.push((new, op));
                            None
                        }
                        None => {
                            let w = (0..m.0.len()).min_by_key(|&w| m.0[w].1).unwrap();
                            Some(std::mem::replace(&mut m.0[w], (new, op)).0.block)
                        }
                    };
                    let victim = c.insert(new).map(|l| l.block);
                    assert_eq!(victim, expected, "{ways} ways: victim at op {op}");
                }
                2 => {
                    let hit = m.way(b).inspect(|&w| m.0[w].1 = op).is_some();
                    assert_eq!(c.access(b), hit, "{ways} ways: access at op {op}");
                }
                3 => {
                    let want = m.way(b).map(|w| m.0[w].0.state);
                    assert_eq!(
                        c.probe(b).map(|l| l.state),
                        want,
                        "{ways} ways: probe at op {op}"
                    );
                    if let Some(line) = c.probe_mut(b) {
                        line.state.dirty = line.state.owner;
                        let w = m.way(b).unwrap();
                        m.0[w].0.state.dirty = m.0[w].0.state.owner;
                    }
                }
                _ => {
                    let want = m.way(b).map(|w| m.0.swap_remove(w).0.block);
                    assert_eq!(
                        c.remove(b).map(|l| l.block),
                        want,
                        "{ways} ways: remove at op {op}"
                    );
                }
            }
            // A colliding block the set does not hold still matches a
            // fingerprint byte: the filter's candidate must be refuted.
            let fps = c.sets[set].fingerprints;
            collisions += u64::from(
                c.probe(b).is_none()
                    && zero_bytes(fps ^ (u64::from(fingerprint(b)) * LOW_BYTES)) != 0,
            );
            for (cs, ms) in c.sets.iter().zip(&model) {
                let got: Vec<_> = cs
                    .lines()
                    .iter()
                    .map(|l| (l.block, l.tag, l.state))
                    .collect();
                let want: Vec<_> =
                    ms.0.iter()
                        .map(|(l, _)| (l.block, l.tag, l.state))
                        .collect();
                assert_eq!(got, want, "{ways} ways: slot order at op {op}");
                assert_eq!(
                    cs.fingerprints,
                    cs.fingerprints_from_lines(),
                    "{ways} ways: op {op}"
                );
            }
            for vm in 0..VMS {
                let tag = LineTag::Vm(VmId::new(vm));
                let n = model
                    .iter()
                    .flat_map(|m| &m.0)
                    .filter(|(l, _)| l.tag == tag)
                    .count();
                assert_eq!(c.residence(VmId::new(vm)), n as u64, "{ways} ways: op {op}");
            }
            let hosts = model
                .iter()
                .flat_map(|m| &m.0)
                .filter(|(l, _)| l.tag == LineTag::Host);
            assert_eq!(
                c.host_residence(),
                hosts.count() as u64,
                "{ways} ways: op {op}"
            );
        }
        if ways > 1 {
            assert!(
                collisions > 100,
                "{ways} ways: only {collisions} refuted candidates"
            );
        }
    }

    #[test]
    fn filtered_lookup_matches_model_at_every_width() {
        for ways in [1, 4, 8, 16, 64] {
            filtered_lookup_matches_model(ways, 0xF1_7E57 + ways as u64);
        }
    }

    #[test]
    fn zero_bytes_flags_exactly_the_zero_bytes() {
        for x in [
            0u64,
            u64::MAX,
            0x0100_FF00_0080_7F01,
            0x8000_0000_0000_0000,
            1,
        ] {
            let want = (0..8).fold(0, |acc, i| {
                acc | u64::from((x >> (8 * i)) as u8 == 0) << (8 * i + 7)
            });
            assert_eq!(zero_bytes(x), want, "{x:#018x}");
        }
    }

    /// The shard view must be operation-for-operation identical to the
    /// full-cache API: same hits, same victims, same final contents and
    /// (after the delta merge) same counters.
    #[test]
    fn shard_view_matches_serial_cache() {
        let geometry = CacheGeometry::new(16 * 2 * 64, 2); // 16 sets, 2 ways
        let mut serial = Cache::new(geometry, 3);
        let mut sharded = Cache::new(geometry, 3);
        let n_shards = 4;

        // A deterministic op mix covering insert/access/remove with
        // collisions (same set, different blocks) and tag replacement.
        let blocks: Vec<u64> = (0..200).map(|i| (i * 7 + i / 3) % 64).collect();

        let mut deltas = Vec::new();
        {
            let mut shards = sharded.shards(n_shards);
            for (i, &b) in blocks.iter().enumerate() {
                let block = BlockAddr::new(b);
                let shard = (b as usize) & (n_shards - 1);
                match i % 4 {
                    0 | 1 => {
                        let v_serial = serial.insert(line(b, (i % 3) as u16));
                        let v_shard = shards[shard].insert(line(b, (i % 3) as u16));
                        assert_eq!(
                            v_serial.as_ref().map(|l| l.block),
                            v_shard.as_ref().map(|l| l.block),
                            "victim divergence at op {i}"
                        );
                    }
                    2 => {
                        assert_eq!(
                            serial.access(block),
                            shards[shard].access(block),
                            "hit divergence at op {i}"
                        );
                    }
                    _ => {
                        assert_eq!(
                            serial.remove(block).map(|l| l.block),
                            shards[shard].remove(block).map(|l| l.block),
                            "remove divergence at op {i}"
                        );
                    }
                }
            }
            for shard in shards {
                deltas.push(shard.into_delta());
            }
        }
        for d in &deltas {
            sharded.apply_delta(d);
        }

        assert_eq!(serial.stats(), sharded.stats());
        assert_eq!(serial.occupancy(), sharded.occupancy());
        for vm in 0..3u16 {
            assert_eq!(
                serial.residence(VmId::new(vm)),
                sharded.residence(VmId::new(vm))
            );
        }
        let mut a: Vec<_> = serial
            .lines()
            .map(|l| (l.block, l.tag, l.last_use))
            .collect();
        let mut b: Vec<_> = sharded
            .lines()
            .map(|l| (l.block, l.tag, l.last_use))
            .collect();
        a.sort_unstable_by_key(|&(bl, ..)| bl);
        b.sort_unstable_by_key(|&(bl, ..)| bl);
        assert_eq!(a, b, "cache contents (including LRU stamps) must match");
    }
}
