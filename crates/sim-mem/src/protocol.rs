//! The TokenB coherence protocol engine (Martin et al., ISCA 2003).
//!
//! The paper builds virtual snooping on Token Coherence (Table II) because
//! its *safe retry* property is exactly what the counter-threshold
//! mechanism needs: "if the first attempt of a coherence transaction fails
//! for not being able to collect enough tokens, more transient requests can
//! be retried [...] If the number of retries exceeds a threshold, Token
//! Coherence resorts to heavy-weighted persistent requests which guarantee
//! forward progress" (Section IV-B).
//!
//! This module owns the token-conservation bookkeeping. Every block has
//! [`TokenProtocol::total_tokens`] tokens, distributed between caches and
//! memory; reads need one, writes need all. A transient request snoops only
//! a destination set chosen by the caller (the virtual-snooping filter) and
//! *fails* if the set did not contain enough tokens — failed attempts
//! bounce any tokens they collected back to memory, so the global token
//! count is invariant whether or not filtering was accurate.

use crate::addr::BlockAddr;
use crate::cache::{Cache, CacheShard};
use crate::line::{CacheLine, LineTag, TokenState};
use sim_vm::PagedTable;

/// Indexed per-core cache operations the protocol engine performs,
/// implemented by the full per-core cache array (`[Cache]`, the serial
/// path) and by a shard's per-core views (`[CacheShard]`, the parallel
/// engine), so one transaction body serves both execution paths
/// bit-identically.
pub trait CacheBank {
    /// `caches[core].probe(block)`.
    fn probe(&self, core: usize, block: BlockAddr) -> Option<&CacheLine>;
    /// `caches[core].probe_mut(block)`.
    fn probe_mut(&mut self, core: usize, block: BlockAddr) -> Option<&mut CacheLine>;
    /// `caches[core].remove(block)`.
    fn remove(&mut self, core: usize, block: BlockAddr) -> Option<CacheLine>;
    /// `caches[core].insert(line)`.
    fn insert(&mut self, core: usize, line: CacheLine) -> Option<CacheLine>;
}

impl CacheBank for [Cache] {
    fn probe(&self, core: usize, block: BlockAddr) -> Option<&CacheLine> {
        self[core].probe(block)
    }
    fn probe_mut(&mut self, core: usize, block: BlockAddr) -> Option<&mut CacheLine> {
        self[core].probe_mut(block)
    }
    fn remove(&mut self, core: usize, block: BlockAddr) -> Option<CacheLine> {
        self[core].remove(block)
    }
    fn insert(&mut self, core: usize, line: CacheLine) -> Option<CacheLine> {
        self[core].insert(line)
    }
}

impl CacheBank for [CacheShard<'_>] {
    fn probe(&self, core: usize, block: BlockAddr) -> Option<&CacheLine> {
        self[core].probe(block)
    }
    fn probe_mut(&mut self, core: usize, block: BlockAddr) -> Option<&mut CacheLine> {
        self[core].probe_mut(block)
    }
    fn remove(&mut self, core: usize, block: BlockAddr) -> Option<CacheLine> {
        self[core].remove(block)
    }
    fn insert(&mut self, core: usize, line: CacheLine) -> Option<CacheLine> {
        self[core].insert(line)
    }
}

/// Tokens held by the memory controller, per block.
///
/// A block never referenced holds all its tokens — including the *owner*
/// token — at memory. Memory may only respond to a GETS with data while it
/// holds the owner token; that single rule is what makes transient requests
/// safe under arbitrary (even wrong) snoop filtering: if the owner is in
/// some cache the filter missed, the attempt simply fails and is retried
/// more broadly.
///
/// Each block is one byte of a [`PagedTable`]: the tokens away from
/// memory in the low seven bits, and [`OWNER_AWAY`] once the owner token
/// has left. The reset state (everything at home) is therefore zero, the
/// value of every block the table has not seen.
#[derive(Clone, Debug)]
pub struct TokenMemory {
    total: u32,
    away: PagedTable<u8>,
}

/// Set in a block's ledger byte while the owner token is away from memory.
const OWNER_AWAY: u8 = 0x80;

impl TokenMemory {
    /// Creates a token home directory with `total` tokens per block.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero or does not fit in a ledger byte's seven
    /// token bits (more than 127).
    pub fn new(total: u32) -> Self {
        assert!(total > 0, "token count must be positive");
        assert!(
            total < u32::from(OWNER_AWAY),
            "token count must be at most {} (got {total})",
            OWNER_AWAY - 1
        );
        TokenMemory {
            total,
            away: PagedTable::new(),
        }
    }

    /// `(tokens, owner)` held at memory, from a ledger byte.
    #[inline]
    fn decode(&self, away: u8) -> (u32, bool) {
        (
            self.total - u32::from(away & !OWNER_AWAY),
            away & OWNER_AWAY == 0,
        )
    }

    /// Tokens per block in the whole system.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Tokens currently held at memory for `block`.
    #[inline]
    pub fn tokens(&self, block: BlockAddr) -> u32 {
        self.state(block).0
    }

    /// `(tokens, owner)` held at memory for `block`: [`tokens`](Self::tokens)
    /// and [`has_owner`](Self::has_owner) from one read of its ledger byte.
    #[inline]
    pub fn state(&self, block: BlockAddr) -> (u32, bool) {
        self.decode(self.away.get(block.index()))
    }

    /// Whether memory holds every token of `block`. Tokens are conserved
    /// and a valid line holds at least one, so then no cache holds the
    /// block and a snoop of any cache would miss.
    #[inline]
    pub fn all_home(&self, block: BlockAddr) -> bool {
        self.away.get(block.index()) & !OWNER_AWAY == 0
    }

    /// Whether memory holds the owner token for `block` (and therefore has
    /// clean, authoritative data).
    #[inline]
    pub fn has_owner(&self, block: BlockAddr) -> bool {
        self.away.get(block.index()) & OWNER_AWAY == 0
    }

    /// Iterates over every block whose memory-side holdings differ from
    /// the reset state (all tokens plus owner at memory), yielding
    /// `(block, tokens, owner)`. Blocks whose tokens have all returned
    /// home are skipped even if they were touched, so two ledgers that
    /// agree on every block compare equal regardless of access history.
    /// Iteration order is unspecified; sort before comparing.
    pub fn entries(&self) -> impl Iterator<Item = (BlockAddr, u32, bool)> + '_ {
        self.away.iter().filter(|&(_, a)| a != 0).map(|(b, a)| {
            let (tokens, owner) = self.decode(a);
            (BlockAddr::new(b), tokens, owner)
        })
    }

    /// Number of blocks whose memory-side holdings differ from the reset
    /// state: `entries().count()`, as one pass over the ledger bytes.
    pub fn entry_count(&self) -> usize {
        self.away.values().iter().filter(|&&a| a != 0).count()
    }

    /// Takes up to `n` tokens from memory; returns `(taken, owner_taken)`.
    /// The owner token is handed out last: it transfers only when the take
    /// empties memory's holdings.
    pub fn take(&mut self, block: BlockAddr, n: u32) -> (u32, bool) {
        let total = self.total;
        let a = self.away.get_mut(block.index());
        let home = total - u32::from(*a & !OWNER_AWAY);
        let taken = home.min(n);
        let owner_taken = *a & OWNER_AWAY == 0 && taken == home && taken > 0;
        // Away plus taken is at most `total < OWNER_AWAY`: no carry into
        // the owner bit.
        *a += taken as u8;
        if owner_taken {
            *a |= OWNER_AWAY;
        }
        (taken, owner_taken)
    }

    /// Returns `n` tokens (and possibly the owner token) to memory.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on token overflow or duplicate owner.
    pub fn put(&mut self, block: BlockAddr, n: u32, owner: bool) {
        let a = self.away.get_mut(block.index());
        debug_assert!(n <= u32::from(*a & !OWNER_AWAY), "token overflow at memory");
        debug_assert!(
            !owner || *a & OWNER_AWAY != 0,
            "duplicate owner token at memory"
        );
        *a -= n as u8;
        if owner {
            *a &= !OWNER_AWAY;
        }
    }

    /// Drains this ledger into `n_banks` bank ledgers, bank `k` owning
    /// every block with `block % n_banks == k` — the same low-bit routing
    /// the engine shards caches by, so a shard's transactions touch
    /// exactly one bank. Untouched blocks stay implicit: each bank shares
    /// this ledger's `total`, so it reconstructs the same reset-state
    /// entry on demand.
    ///
    /// # Panics
    ///
    /// Panics unless `n_banks` is a power of two.
    pub fn split(&mut self, n_banks: usize) -> Vec<TokenMemory> {
        assert!(
            n_banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        let mask = n_banks as u64 - 1;
        let mut banks: Vec<TokenMemory> =
            (0..n_banks).map(|_| TokenMemory::new(self.total)).collect();
        for (b, a) in std::mem::take(&mut self.away).iter() {
            if a != 0 {
                *banks[(b & mask) as usize].away.get_mut(b) = a;
            }
        }
        banks
    }

    /// Folds bank ledgers produced by [`TokenMemory::split`] back into
    /// the ledger they were drained from: every block not in the reset
    /// state moves verbatim.
    pub fn absorb(&mut self, banks: impl IntoIterator<Item = TokenMemory>) {
        for bank in banks {
            debug_assert_eq!(bank.total, self.total, "bank token total mismatch");
            for (b, a) in bank.away.iter() {
                if a != 0 {
                    *self.away.get_mut(b) = a;
                }
            }
        }
    }
}

/// Where the data of a transaction came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataSource {
    /// Cache-to-cache transfer from the core with this index.
    Cache(usize),
    /// Fetched from external memory.
    Memory,
}

/// How a GETS may be satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadMode {
    /// Standard TokenB: only the owner-token holder (a cache in the
    /// snooped set, or memory) may supply data. Memory answers with *all*
    /// of its tokens plus ownership, so a sole reader lands in E and later
    /// readers enjoy cache-to-cache transfers.
    Strict,
    /// For content-shared (read-only) pages, Section VI: every copy is
    /// guaranteed clean, so *any* token holder in the snooped set — or
    /// memory, owner token or not — may supply the data. Memory hands out
    /// a single token so that concurrent VMs can keep reading from it.
    CleanShared,
}

/// Outcome of a read (GETS) transaction attempt.
#[derive(Clone, Debug)]
pub struct ReadResult {
    /// Whether the attempt collected a token (and data).
    pub success: bool,
    /// Data source on success.
    pub source: Option<DataSource>,
    /// Cores whose line disappeared (gave up their last token).
    pub invalidated: Vec<usize>,
    /// Victim displaced from the requester's cache by the fill, already
    /// written back (tokens returned to memory).
    pub evicted: Option<CacheLine>,
    /// Whether the eviction required a dirty write-back.
    pub evicted_dirty: bool,
    /// Number of remote caches that performed a snoop tag lookup.
    pub snooped: usize,
}

/// Outcome of a write (GETX) transaction attempt.
#[derive(Clone, Debug)]
pub struct WriteResult {
    /// Whether all tokens were collected.
    pub success: bool,
    /// Data source (None when the requester already had a valid copy, or
    /// on failure).
    pub source: Option<DataSource>,
    /// Cores that surrendered tokens *without* supplying data (token-only
    /// reply messages).
    pub token_repliers: Vec<usize>,
    /// Cores whose line was invalidated.
    pub invalidated: Vec<usize>,
    /// Victim displaced from the requester's cache by the fill.
    pub evicted: Option<CacheLine>,
    /// Whether the eviction required a dirty write-back.
    pub evicted_dirty: bool,
    /// Number of remote caches that performed a snoop tag lookup.
    pub snooped: usize,
    /// Tokens collected by a *failed* attempt were bounced to memory.
    pub bounced: bool,
}

/// Outcome of a read (GETS) attempt on the allocation-free mask API.
///
/// The mirror of [`ReadResult`] with the core *sets* carried as `u64`
/// bitmasks (bit `i` = core `i`) instead of heap-allocated vectors. Valid
/// because the system caps cores at 64 (`SystemConfig::validate`).
#[derive(Clone, Copy, Debug)]
pub struct ReadOutcome {
    /// Whether the attempt collected a token (and data).
    pub success: bool,
    /// Data source on success.
    pub source: Option<DataSource>,
    /// Mask of cores whose line disappeared (gave up their last token).
    pub invalidated: u64,
    /// Victim displaced from the requester's cache by the fill.
    pub evicted: Option<CacheLine>,
    /// Whether the eviction required a dirty write-back.
    pub evicted_dirty: bool,
    /// Number of remote caches that performed a snoop tag lookup.
    pub snooped: u32,
}

impl ReadOutcome {
    /// Number of parties that moved tokens to the requester this
    /// attempt: reads collect one token, from the responding cache or
    /// memory (0 on a failed attempt).
    pub fn tokens_moved(&self) -> u32 {
        u32::from(self.source.is_some())
    }
}

/// Outcome of a write (GETX) attempt on the allocation-free mask API.
///
/// The mirror of [`WriteResult`] with core sets as `u64` bitmasks.
#[derive(Clone, Copy, Debug)]
pub struct WriteOutcome {
    /// Whether all tokens were collected.
    pub success: bool,
    /// Data source (None when the requester already had a valid copy, or
    /// on failure).
    pub source: Option<DataSource>,
    /// Mask of cores that surrendered tokens *without* supplying data.
    pub token_repliers: u64,
    /// Mask of cores whose line was invalidated.
    pub invalidated: u64,
    /// Victim displaced from the requester's cache by the fill.
    pub evicted: Option<CacheLine>,
    /// Whether the eviction required a dirty write-back.
    pub evicted_dirty: bool,
    /// Number of remote caches that performed a snoop tag lookup.
    pub snooped: u32,
    /// Tokens collected by a *failed* attempt were bounced to memory.
    pub bounced: bool,
}

impl WriteOutcome {
    /// Number of parties that moved tokens to the requester this
    /// attempt: every token-only replier, plus the data source (a cache
    /// or memory) when one responded.
    pub fn tokens_moved(&self) -> u32 {
        self.token_repliers.count_ones() + u32::from(self.source.is_some())
    }
}

/// Iterates the set bits of a core mask in ascending core order.
///
/// # Examples
///
/// ```
/// use sim_mem::mask_cores;
/// let cores: Vec<usize> = mask_cores(0b1010_0001).collect();
/// assert_eq!(cores, vec![0, 5, 7]);
/// ```
pub fn mask_cores(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(c)
        }
    })
}

fn mask_of(dests: &[usize]) -> u64 {
    let mut mask = 0u64;
    for &d in dests {
        assert!(d < 64, "core index {d} exceeds the 64-bit mask width");
        mask |= 1 << d;
    }
    mask
}

/// Read-only observers over a token ledger, implemented by
/// [`TokenProtocol`], so invariant checkers and architectural state dumps
/// read the ledger through one interface (the checker's unit tests
/// substitute a fake ledger through it).
pub trait TokenLedger: std::fmt::Debug {
    /// Tokens per block in the whole system.
    fn total_tokens(&self) -> u32;
    /// Tokens currently at memory for `block`.
    fn memory_tokens(&self, block: BlockAddr) -> u32;
    /// Whether memory holds the owner token for `block`.
    fn memory_has_owner(&self, block: BlockAddr) -> bool;
    /// `(memory_tokens, memory_has_owner)` of `block` in one call; both
    /// engines answer it from one read of the block's ledger entry.
    fn memory_state(&self, block: BlockAddr) -> (u32, bool) {
        (self.memory_tokens(block), self.memory_has_owner(block))
    }
    /// The non-reset memory-side ledger entries, sorted by block.
    fn memory_entries_sorted(&self) -> Vec<(BlockAddr, u32, bool)>;
    /// Number of non-reset memory-side ledger entries: the length of
    /// [`memory_entries_sorted`](Self::memory_entries_sorted), without
    /// building the list.
    fn memory_entry_count(&self) -> usize;
}

/// The token-coherence engine: token conservation across a cache array and
/// memory.
///
/// # Examples
///
/// ```
/// use sim_mem::{TokenProtocol, Cache, CacheGeometry, BlockAddr, LineTag};
/// use sim_vm::VmId;
///
/// let mut caches = vec![Cache::new(CacheGeometry::new(4096, 2), 2); 4];
/// let mut tp = TokenProtocol::new(4);
/// let b = BlockAddr::new(10);
/// // Core 0 reads: data comes from memory.
/// let r = tp.read_miss(&mut caches, 0, &[1, 2, 3], b, true, LineTag::Vm(VmId::new(0)),
///                      sim_mem::ReadMode::Strict);
/// assert!(r.success);
/// // Core 1 writes: collects core 0's token and memory's remainder.
/// let w = tp.write_miss(&mut caches, 1, &[0, 2, 3], b, true, LineTag::Vm(VmId::new(0)));
/// assert!(w.success);
/// assert!(caches[0].probe(b).is_none()); // invalidated
/// ```
#[derive(Clone, Debug)]
pub struct TokenProtocol {
    memory: TokenMemory,
}

impl TokenProtocol {
    /// Creates a protocol engine with `total` tokens per block (one per
    /// cache in the paper's configuration).
    pub fn new(total: u32) -> Self {
        TokenProtocol {
            memory: TokenMemory::new(total),
        }
    }

    /// Tokens per block.
    #[inline]
    pub fn total_tokens(&self) -> u32 {
        self.memory.total()
    }

    /// Tokens currently at memory for `block`.
    #[inline]
    pub fn memory_tokens(&self, block: BlockAddr) -> u32 {
        self.memory.tokens(block)
    }

    /// Whether memory holds the owner token for `block`. Together with
    /// [`TokenProtocol::memory_tokens`] this exposes the complete
    /// memory-side token ledger, so an external invariant checker can
    /// verify conservation and owner uniqueness without reaching into the
    /// protocol's internals.
    #[inline]
    pub fn memory_has_owner(&self, block: BlockAddr) -> bool {
        self.memory.has_owner(block)
    }

    /// The memory-side token ledger: every block not in the reset state,
    /// as `(block, tokens, owner)`. See [`TokenMemory::entries`].
    pub fn memory_entries(&self) -> impl Iterator<Item = (BlockAddr, u32, bool)> + '_ {
        self.memory.entries()
    }

    /// Executes a read-miss (GETS) attempt by `requester` over the snoop
    /// destination set `dests`.
    ///
    /// On success the requester's cache is filled (the token/ownership
    /// transfer and any eviction are handled internally); on failure
    /// nothing changes. See [`ReadMode`] for the provider rules. `dests`
    /// is treated as a *set*: when several caches could supply the data
    /// (CleanShared), the lowest-indexed one does.
    ///
    /// This is a compatibility wrapper over
    /// [`TokenProtocol::read_miss_masked`], the allocation-free mask API
    /// the simulator's hot path uses directly.
    ///
    /// # Panics
    ///
    /// Panics if `dests` contains the requester, or if the requester
    /// already holds a valid line for `block` (that would be a hit, not a
    /// miss).
    #[allow(clippy::too_many_arguments)] // mirrors the wire message's fields
    pub fn read_miss(
        &mut self,
        caches: &mut [Cache],
        requester: usize,
        dests: &[usize],
        block: BlockAddr,
        include_memory: bool,
        tag: LineTag,
        mode: ReadMode,
    ) -> ReadResult {
        assert!(
            !dests.contains(&requester),
            "requester must not snoop itself"
        );
        assert!(
            caches[requester].probe(block).is_none(),
            "read_miss on a block the requester already caches"
        );
        let out = self.read_miss_masked(
            caches,
            requester,
            mask_of(dests),
            block,
            include_memory,
            tag,
            mode,
        );
        ReadResult {
            success: out.success,
            source: out.source,
            invalidated: mask_cores(out.invalidated).collect(),
            evicted: out.evicted,
            evicted_dirty: out.evicted_dirty,
            snooped: dests.len(),
        }
    }

    /// Executes a read-miss (GETS) attempt with the destination set as a
    /// core bitmask (bit `i` = core `i`). Allocation-free: the outcome
    /// carries invalidations as a mask instead of a vector.
    ///
    /// Semantically identical to [`TokenProtocol::read_miss`] over the
    /// ascending destination list; the self-snoop and already-cached
    /// preconditions are only `debug_assert`ed here — this is the hot
    /// path, and the invariant checker plus the differential guard pin
    /// the behaviour in release builds.
    #[allow(clippy::too_many_arguments)] // mirrors the wire message's fields
    pub fn read_miss_masked<B: CacheBank + ?Sized>(
        &mut self,
        caches: &mut B,
        requester: usize,
        dests: u64,
        block: BlockAddr,
        include_memory: bool,
        tag: LineTag,
        mode: ReadMode,
    ) -> ReadOutcome {
        debug_assert_eq!(
            dests & (1 << requester),
            0,
            "requester must not snoop itself"
        );
        debug_assert!(
            caches.probe(requester, block).is_none(),
            "read_miss on a block the requester already caches"
        );
        let snooped = dests.count_ones();
        let mut invalidated = 0u64;

        // TokenB provider rule: the holder of the *owner* token responds
        // to a GETS with data — either a cache in the snooped set or
        // memory. Under `CleanShared` (read-only pages), any valid copy
        // may additionally respond, and memory may respond without the
        // owner token. One ascending pass finds both the (unique) owner
        // and the lowest-indexed fallback holder; it is skipped when the
        // ledger proves that no cache holds the block.
        let mut owner_at = None;
        let mut first_holder = None;
        let mut it = if self.memory.all_home(block) {
            0
        } else {
            dests
        };
        while it != 0 {
            let c = it.trailing_zeros() as usize;
            it &= it - 1;
            if let Some(l) = caches.probe(c, block) {
                if l.state.owner {
                    owner_at = Some(c);
                    break;
                }
                if first_holder.is_none() && l.state.tokens > 0 {
                    first_holder = Some(c);
                }
            }
        }
        let holder_at = owner_at.or(if mode == ReadMode::CleanShared {
            first_holder
        } else {
            None
        });

        let (fill, source) = if let Some(c) = holder_at {
            let line = caches.probe_mut(c, block).expect("holder has line");
            if line.state.tokens > 1 {
                line.state.tokens -= 1;
                // A multi-token holder hands over a plain token and keeps
                // ownership (and dirtiness) if it had them.
                (TokenState::shared_one(), DataSource::Cache(c))
            } else {
                // Last token: the whole line (ownership and dirty data, if
                // held) transfers to the requester.
                let line = caches.remove(c, block).expect("line present");
                invalidated |= 1 << c;
                (line.state, DataSource::Cache(c))
            }
        } else if include_memory && mode == ReadMode::Strict && self.memory.has_owner(block) {
            // TokenB memory answers a GETS with *all* its tokens plus the
            // owner token: a sole reader lands in E.
            let (taken, owner_taken) = self.memory.take(block, self.memory.total());
            debug_assert!(taken >= 1 && owner_taken);
            (
                TokenState {
                    tokens: taken,
                    owner: true,
                    dirty: false,
                },
                DataSource::Memory,
            )
        } else if include_memory && mode == ReadMode::CleanShared && self.memory.tokens(block) > 0 {
            let (taken, owner_taken) = self.memory.take(block, 1);
            debug_assert_eq!(taken, 1);
            (
                TokenState {
                    tokens: 1,
                    owner: owner_taken,
                    dirty: false,
                },
                DataSource::Memory,
            )
        } else {
            return ReadOutcome {
                success: false,
                source: None,
                invalidated,
                evicted: None,
                evicted_dirty: false,
                snooped,
            };
        };

        let (evicted, evicted_dirty) =
            self.fill(caches, requester, CacheLine::new(block, fill, tag));
        ReadOutcome {
            success: true,
            source: Some(source),
            invalidated,
            evicted,
            evicted_dirty,
            snooped,
        }
    }

    /// Executes a write-miss / upgrade (GETX) attempt by `requester` over
    /// the snoop destination set `dests`.
    ///
    /// Collects every token held by the destination caches (invalidating
    /// their lines) and, when `include_memory`, the tokens at memory. The
    /// attempt succeeds if the requester ends up with all tokens; a failed
    /// attempt bounces the tokens it collected back to memory and leaves
    /// the requester's pre-existing holdings untouched.
    ///
    /// `dests` is treated as a *set*; outcome vectors list cores in
    /// ascending index order.
    ///
    /// This is a compatibility wrapper over
    /// [`TokenProtocol::write_miss_masked`], the allocation-free mask API
    /// the simulator's hot path uses directly.
    ///
    /// # Panics
    ///
    /// Panics if `dests` contains the requester.
    pub fn write_miss(
        &mut self,
        caches: &mut [Cache],
        requester: usize,
        dests: &[usize],
        block: BlockAddr,
        include_memory: bool,
        tag: LineTag,
    ) -> WriteResult {
        assert!(
            !dests.contains(&requester),
            "requester must not snoop itself"
        );
        let out = self.write_miss_masked(
            caches,
            requester,
            mask_of(dests),
            block,
            include_memory,
            tag,
        );
        WriteResult {
            success: out.success,
            source: out.source,
            token_repliers: mask_cores(out.token_repliers).collect(),
            invalidated: mask_cores(out.invalidated).collect(),
            evicted: out.evicted,
            evicted_dirty: out.evicted_dirty,
            snooped: dests.len(),
            bounced: out.bounced,
        }
    }

    /// Executes a write-miss / upgrade (GETX) attempt with the
    /// destination set as a core bitmask. Allocation-free: the outcome
    /// carries the invalidated and token-replier sets as masks.
    ///
    /// Semantically identical to [`TokenProtocol::write_miss`] over the
    /// ascending destination list; the self-snoop precondition is only
    /// `debug_assert`ed here (hot path — see
    /// [`TokenProtocol::read_miss_masked`]).
    pub fn write_miss_masked<B: CacheBank + ?Sized>(
        &mut self,
        caches: &mut B,
        requester: usize,
        dests: u64,
        block: BlockAddr,
        include_memory: bool,
        tag: LineTag,
    ) -> WriteOutcome {
        debug_assert_eq!(
            dests & (1 << requester),
            0,
            "requester must not snoop itself"
        );
        let total = self.total_tokens();
        let snooped = dests.count_ones();
        // When memory holds every token no cache holds the block: the
        // requester has no copy and no destination has a line to remove.
        let cached = !self.memory.all_home(block);
        let existing = if cached {
            caches.probe(requester, block).map(|l| l.state)
        } else {
            None
        };
        let have = existing.map_or(0, |s| s.tokens);
        let had_data = existing.is_some();

        let mut gained = 0u32;
        let mut collected_owner = false;
        let mut source: Option<DataSource> = None;
        let mut token_repliers = 0u64;
        let mut invalidated = 0u64;

        let mut it = if cached { dests } else { 0 };
        while it != 0 {
            let c = it.trailing_zeros() as usize;
            it &= it - 1;
            let Some(line) = caches.remove(c, block) else {
                continue;
            };
            gained += line.state.tokens;
            invalidated |= 1 << c;
            if line.state.owner {
                collected_owner = true;
                // The owner supplies the data block.
                if !had_data {
                    source = Some(DataSource::Cache(c));
                } else {
                    token_repliers |= 1 << c;
                }
            } else {
                token_repliers |= 1 << c;
            }
        }
        if include_memory {
            let mem_had_owner = self.memory.has_owner(block);
            let (from_mem, owner_taken) = self.memory.take(block, total);
            collected_owner |= owner_taken;
            if from_mem > 0 && mem_had_owner && source.is_none() && !had_data {
                source = Some(DataSource::Memory);
            }
            gained += from_mem;
        }

        if have + gained == total {
            // Success: requester holds everything; install the modified
            // line. Remove any pre-existing line first so tag/residence
            // accounting is uniform.
            debug_assert!(
                collected_owner || existing.is_some_and(|s| s.owner),
                "all tokens collected must include the owner token"
            );
            if had_data {
                caches.remove(requester, block);
            }
            let (evicted, evicted_dirty) = self.fill(
                caches,
                requester,
                CacheLine::new(block, TokenState::modified(total), tag),
            );
            WriteOutcome {
                success: true,
                source,
                token_repliers,
                invalidated,
                evicted,
                evicted_dirty,
                snooped,
                bounced: false,
            }
        } else {
            // Failure: bounce what we collected to memory. If the data we
            // pulled out of the owner was dirty this acts as a write-back,
            // keeping memory's copy clean.
            self.memory.put(block, gained, collected_owner);
            WriteOutcome {
                success: false,
                source: None,
                token_repliers,
                invalidated,
                evicted: None,
                evicted_dirty: false,
                snooped,
                bounced: gained > 0,
            }
        }
    }

    /// Splits the engine into `n_banks` bank engines for the parallel
    /// path: bank `k` owns the ledger entries of every block with
    /// `block % n_banks == k` (see [`TokenMemory::split`]). This engine
    /// is left empty; fold the banks back with
    /// [`TokenProtocol::absorb_banks`] before reading any ledger state
    /// through it.
    pub fn split_banks(&mut self, n_banks: usize) -> Vec<TokenProtocol> {
        self.memory
            .split(n_banks)
            .into_iter()
            .map(|memory| TokenProtocol { memory })
            .collect()
    }

    /// Folds bank engines produced by [`TokenProtocol::split_banks`]
    /// back into this one.
    pub fn absorb_banks(&mut self, banks: impl IntoIterator<Item = TokenProtocol>) {
        self.memory.absorb(banks.into_iter().map(|p| p.memory));
    }

    /// Evicts `line` from wherever it was cached: its tokens (and owner
    /// token, if held) return to memory. Returns `true` if a dirty
    /// write-back was required.
    pub fn writeback(&mut self, line: &CacheLine) -> bool {
        self.memory
            .put(line.block, line.state.tokens, line.state.owner);
        line.state.owner && line.state.dirty
    }

    /// Verifies token conservation for `block`: the tokens in all caches
    /// plus memory equal the total, and exactly one party (a cache or
    /// memory) holds the owner token. It probes every cache rather than
    /// trust [`TokenMemory::all_home`]: it is the oracle for that premise.
    pub fn check_invariant(&self, caches: &[Cache], block: BlockAddr) -> bool {
        let cached: u32 = caches
            .iter()
            .filter_map(|c| c.probe(block))
            .map(|l| l.state.tokens)
            .sum();
        let cache_owners = caches
            .iter()
            .filter_map(|c| c.probe(block))
            .filter(|l| l.state.owner)
            .count();
        let owners = cache_owners + usize::from(self.memory.has_owner(block));
        cached + self.memory.tokens(block) == self.total_tokens() && owners == 1
    }

    /// Fills the requester's cache, returning any displaced victim after
    /// writing it back. The victim maps to the same set as the fill, so
    /// under the shard engine its write-back lands in the same token
    /// bank.
    fn fill<B: CacheBank + ?Sized>(
        &mut self,
        caches: &mut B,
        requester: usize,
        line: CacheLine,
    ) -> (Option<CacheLine>, bool) {
        match caches.insert(requester, line) {
            Some(victim) => {
                let dirty = self.writeback(&victim);
                (Some(victim), dirty)
            }
            None => (None, false),
        }
    }
}

impl TokenLedger for TokenProtocol {
    fn total_tokens(&self) -> u32 {
        TokenProtocol::total_tokens(self)
    }

    fn memory_tokens(&self, block: BlockAddr) -> u32 {
        TokenProtocol::memory_tokens(self, block)
    }

    fn memory_has_owner(&self, block: BlockAddr) -> bool {
        TokenProtocol::memory_has_owner(self, block)
    }

    fn memory_state(&self, block: BlockAddr) -> (u32, bool) {
        self.memory.state(block)
    }

    fn memory_entries_sorted(&self) -> Vec<(BlockAddr, u32, bool)> {
        let mut v: Vec<_> = self.memory_entries().collect();
        v.sort_unstable_by_key(|&(b, _, _)| b);
        v
    }

    fn memory_entry_count(&self) -> usize {
        self.memory.entry_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheGeometry;
    use sim_vm::VmId;

    const N: usize = 4;

    fn setup() -> (Vec<Cache>, TokenProtocol) {
        let caches = vec![Cache::new(CacheGeometry::new(8 * 1024, 4), 4); N];
        (caches, TokenProtocol::new(N as u32))
    }

    fn tag(vm: u16) -> LineTag {
        LineTag::Vm(VmId::new(vm))
    }

    fn others(me: usize) -> Vec<usize> {
        (0..N).filter(|&c| c != me).collect()
    }

    fn read(
        tp: &mut TokenProtocol,
        caches: &mut [Cache],
        core: usize,
        dests: &[usize],
        b: BlockAddr,
        mem: bool,
        t: LineTag,
    ) -> ReadResult {
        tp.read_miss(caches, core, dests, b, mem, t, ReadMode::Strict)
    }

    #[test]
    fn cold_read_gets_exclusive_from_memory() {
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(100);
        let r = read(&mut tp, &mut caches, 0, &others(0), b, true, tag(0));
        assert!(r.success);
        assert_eq!(r.source, Some(DataSource::Memory));
        assert_eq!(r.snooped, 3);
        // TokenB memory answers a GETS with everything it has: E state.
        assert_eq!(tp.memory_tokens(b), 0);
        let line = caches[0].probe(b).unwrap();
        assert_eq!(line.state.moesi(4), crate::line::Moesi::E);
        assert!(tp.check_invariant(&caches, b));
    }

    #[test]
    fn second_reader_gets_cache_to_cache_from_exclusive_owner() {
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(5);
        read(&mut tp, &mut caches, 0, &others(0), b, true, tag(0));
        let r = read(&mut tp, &mut caches, 1, &[0], b, true, tag(0));
        assert!(r.success);
        assert_eq!(r.source, Some(DataSource::Cache(0)));
        assert!(r.invalidated.is_empty());
        // The owner handed over one plain token and kept the rest.
        assert_eq!(caches[0].probe(b).unwrap().state.tokens, 3);
        assert!(caches[0].probe(b).unwrap().state.owner);
        assert_eq!(caches[1].probe(b).unwrap().state.tokens, 1);
        assert!(tp.check_invariant(&caches, b));
    }

    #[test]
    fn read_fails_when_owner_outside_dest_set() {
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(5);
        // Writer takes everything; core 0 is now the dirty owner.
        tp.write_miss(&mut caches, 0, &others(0), b, true, tag(0));
        read(&mut tp, &mut caches, 1, &[0], b, true, tag(0)); // owner serves
        assert_eq!(tp.memory_tokens(b), 0);
        // Core 2 snoops only core 1 (a plain shared holder): neither it nor
        // memory holds the owner token, so the strict attempt fails...
        let r = read(&mut tp, &mut caches, 2, &[1], b, true, tag(0));
        assert!(!r.success);
        assert_eq!(caches[1].probe(b).unwrap().state.tokens, 1);
        assert!(tp.check_invariant(&caches, b));
        // ...and a broadcast retry reaches the owner.
        let r2 = read(&mut tp, &mut caches, 2, &others(2), b, true, tag(0));
        assert!(r2.success);
        assert_eq!(r2.source, Some(DataSource::Cache(0)));
        assert!(tp.check_invariant(&caches, b));
    }

    #[test]
    fn clean_shared_reads_spread_tokens_from_memory() {
        // The content-shared mode: memory hands out single tokens so every
        // VM can read the deduplicated page directly from memory.
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(50);
        for core in 0..4 {
            let r = tp.read_miss(
                &mut caches,
                core,
                &[],
                b,
                true,
                tag(0),
                ReadMode::CleanShared,
            );
            assert!(r.success, "clean read {core} failed");
            assert_eq!(r.source, Some(DataSource::Memory));
            assert!(tp.check_invariant(&caches, b));
        }
        assert_eq!(tp.memory_tokens(b), 0);
        // The owner token left with the last token.
        let owner_cache = caches
            .iter()
            .position(|c| c.probe(b).is_some_and(|l| l.state.owner))
            .expect("some cache owns the block");
        assert_eq!(owner_cache, 3, "owner token is handed out last");
        // Evicting the owner line returns the owner token to memory.
        let line = *caches[3].probe(b).unwrap();
        caches[3].remove(b);
        let dirty = tp.writeback(&line);
        assert!(!dirty, "clean owner write-back carries no data");
        assert!(tp.check_invariant(&caches, b));
    }

    #[test]
    fn clean_shared_read_served_by_plain_holder() {
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(51);
        // Core 0 reads clean-shared (1 token from memory).
        tp.read_miss(&mut caches, 0, &[], b, true, tag(0), ReadMode::CleanShared);
        // Core 1 snoops only core 0, memory excluded: the plain holder
        // serves under CleanShared (read-only data is safe anywhere)...
        let r = tp.read_miss(
            &mut caches,
            1,
            &[0],
            b,
            false,
            tag(1),
            ReadMode::CleanShared,
        );
        assert!(r.success);
        assert_eq!(r.source, Some(DataSource::Cache(0)));
        // ...its single token transferred, so core 0's line vanished.
        assert_eq!(r.invalidated, vec![0]);
        assert!(tp.check_invariant(&caches, b));
        // A strict read in the same situation would have failed.
        let r2 = tp.read_miss(&mut caches, 2, &[1], b, false, tag(2), ReadMode::Strict);
        assert!(!r2.success);
    }

    #[test]
    fn write_collects_all_tokens_and_invalidates() {
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(9);
        // Three readers: the first lands in E, the others are served
        // cache-to-cache by the owner.
        for core in 0..3 {
            read(&mut tp, &mut caches, core, &others(core), b, true, tag(0));
        }
        assert_eq!(tp.memory_tokens(b), 0);
        assert_eq!(caches[0].probe(b).unwrap().state.tokens, 2);
        let w = tp.write_miss(&mut caches, 3, &others(3), b, true, tag(0));
        assert!(w.success);
        assert_eq!(w.invalidated.len(), 3);
        // The owner (core 0) supplied the data; the plain holders sent
        // token-only replies.
        assert_eq!(w.source, Some(DataSource::Cache(0)));
        assert_eq!(w.token_repliers.len(), 2);
        let line = caches[3].probe(b).unwrap();
        assert_eq!(line.state.moesi(4), crate::line::Moesi::M);
        assert!(tp.check_invariant(&caches, b));
    }

    #[test]
    fn read_after_write_gets_data_from_dirty_owner() {
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(2);
        tp.write_miss(&mut caches, 2, &others(2), b, true, tag(1));
        let r = read(&mut tp, &mut caches, 0, &others(0), b, true, tag(1));
        assert!(r.success);
        assert_eq!(r.source, Some(DataSource::Cache(2)));
        // Owner keeps ownership and dirtiness; requester got one token.
        let owner = caches[2].probe(b).unwrap();
        assert!(owner.state.owner && owner.state.dirty);
        assert_eq!(owner.state.tokens, 3);
        assert_eq!(caches[0].probe(b).unwrap().state.tokens, 1);
        assert!(tp.check_invariant(&caches, b));
    }

    #[test]
    fn upgrade_from_shared_to_modified() {
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(77);
        read(&mut tp, &mut caches, 0, &others(0), b, true, tag(0));
        read(&mut tp, &mut caches, 1, &others(1), b, true, tag(0));
        // Core 0 (the owner, 3 tokens) upgrades: collects core 1's token.
        let w = tp.write_miss(&mut caches, 0, &others(0), b, true, tag(0));
        assert!(w.success);
        // Core 0 already had the data, so nobody *supplies* data.
        assert_eq!(w.source, None);
        assert_eq!(w.token_repliers, vec![1]);
        assert!(caches[0].probe(b).unwrap().state.can_write(4));
        assert!(caches[1].probe(b).is_none());
        assert!(tp.check_invariant(&caches, b));
    }

    #[test]
    fn filtered_write_fails_and_bounces_tokens() {
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(4);
        // Core 3 reads (E: all four tokens); core 1 reads from it.
        read(&mut tp, &mut caches, 3, &others(3), b, true, tag(0));
        read(&mut tp, &mut caches, 1, &[3], b, true, tag(0));
        // Core 0's write snoops only core 1: it collects one token but not
        // the owner's three, so it fails and bounces the token to memory.
        let w = tp.write_miss(&mut caches, 0, &[1], b, true, tag(0));
        assert!(!w.success);
        assert!(w.bounced);
        assert!(caches[0].probe(b).is_none(), "failed write must not fill");
        assert!(
            caches[1].probe(b).is_none(),
            "snooped holder gave its token"
        );
        assert_eq!(caches[3].probe(b).unwrap().state.tokens, 3);
        assert_eq!(tp.memory_tokens(b), 1);
        assert!(tp.check_invariant(&caches, b));
        // A broadcast retry now succeeds.
        let w2 = tp.write_miss(&mut caches, 0, &others(0), b, true, tag(0));
        assert!(w2.success);
        assert!(tp.check_invariant(&caches, b));
    }

    #[test]
    fn filtered_read_fails_without_memory_or_holder() {
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(8);
        let r = read(&mut tp, &mut caches, 0, &[1], b, false, tag(0));
        assert!(!r.success);
        assert!(caches[0].probe(b).is_none());
        assert_eq!(tp.memory_tokens(b), 4);
    }

    #[test]
    fn eviction_returns_tokens_to_memory() {
        let (caches, mut tp) = setup();
        // A tiny 1-set cache forces eviction quickly.
        let mut small = vec![Cache::new(CacheGeometry::new(2 * 64, 2), 4); 2];
        let b1 = BlockAddr::new(0);
        let b2 = BlockAddr::new(2);
        let b3 = BlockAddr::new(4);
        tp.write_miss(&mut small, 0, &[1], b1, true, tag(0));
        read(&mut tp, &mut small, 0, &[1], b2, true, tag(0));
        // Third fill evicts the LRU (b1, dirty M line) -> write-back.
        let r = read(&mut tp, &mut small, 0, &[1], b3, true, tag(0));
        let victim = r.evicted.expect("eviction expected");
        assert_eq!(victim.block, b1);
        assert!(r.evicted_dirty, "M line eviction is a dirty write-back");
        assert_eq!(tp.memory_tokens(b1), 4);
        // Unrelated cache array untouched.
        assert_eq!(caches.len(), 4);
    }

    #[test]
    fn residence_counters_follow_protocol_actions() {
        let (mut caches, mut tp) = setup();
        let b = BlockAddr::new(3);
        let vm = VmId::new(2);
        read(
            &mut tp,
            &mut caches,
            1,
            &others(1),
            b,
            true,
            LineTag::Vm(vm),
        );
        assert_eq!(caches[1].residence(vm), 1);
        tp.write_miss(&mut caches, 0, &others(0), b, true, LineTag::Vm(vm));
        assert_eq!(caches[1].residence(vm), 0);
        assert_eq!(caches[0].residence(vm), 1);
    }

    #[test]
    #[should_panic(expected = "must not snoop itself")]
    fn self_snoop_rejected() {
        let (mut caches, mut tp) = setup();
        let _ = read(
            &mut tp,
            &mut caches,
            0,
            &[0, 1],
            BlockAddr::new(1),
            true,
            tag(0),
        );
    }

    #[test]
    fn split_banks_route_by_block_and_absorb_restores_ledger() {
        let (mut caches, mut tp) = setup();
        // Touch a spread of blocks so the ledger has non-reset entries.
        for b in [0u64, 1, 2, 3, 8, 9, 130, 131] {
            let block = BlockAddr::new(b);
            if b % 2 == 0 {
                read(&mut tp, &mut caches, 0, &others(0), block, true, tag(0));
            } else {
                tp.write_miss(&mut caches, 1, &others(1), block, true, tag(1));
            }
        }
        let expected = tp.memory_entries_sorted();
        assert_eq!(tp.memory_entry_count(), expected.len());

        let mut banks = tp.split_banks(4);
        assert!(
            tp.memory_entries().next().is_none(),
            "split drains the parent ledger"
        );
        for (k, bank) in banks.iter().enumerate() {
            assert_eq!(bank.total_tokens(), 4);
            for (b, _, _) in bank.memory_entries() {
                assert_eq!(b.index() % 4, k as u64, "bank {k} got foreign block {b:?}");
            }
            // Untouched blocks still read as reset state through a bank.
            assert_eq!(bank.memory_tokens(BlockAddr::new(997)), 4);
        }
        // A bank serves protocol ops for its own blocks: evict core 0's
        // copy of block 8 (bank 0) through the bank.
        let line = *caches[0].probe(BlockAddr::new(8)).expect("cached");
        caches[0].remove(BlockAddr::new(8));
        banks[0].writeback(&line);

        let mut restored = TokenProtocol::new(4);
        // Rebuild: absorb into a fresh ledger, then undo the eviction so
        // the ledger matches `expected` again.
        restored.absorb_banks(banks);
        let (taken, owner) = restored.memory.take(BlockAddr::new(8), line.state.tokens);
        assert_eq!((taken, owner), (line.state.tokens, line.state.owner));
        assert_eq!(restored.memory_entries_sorted(), expected);
        assert_eq!(restored.memory_entry_count(), expected.len());
    }

    #[test]
    fn memory_take_put_roundtrip() {
        let mut m = TokenMemory::new(8);
        let b = BlockAddr::new(1);
        assert_eq!(m.tokens(b), 8);
        assert!(m.has_owner(b));
        assert_eq!(m.take(b, 3), (3, false));
        assert_eq!(m.tokens(b), 5);
        assert!(m.has_owner(b));
        // Draining memory hands out the owner token with the last batch.
        assert_eq!(m.take(b, 100), (5, true));
        assert_eq!(m.tokens(b), 0);
        assert!(!m.has_owner(b));
        // Taking from empty memory yields nothing.
        assert_eq!(m.take(b, 1), (0, false));
        assert_eq!(m.entry_count(), 1);
        m.put(b, 8, true);
        assert_eq!(m.tokens(b), 8);
        assert!(m.has_owner(b));
        // Back in the reset state: the block no longer counts.
        assert_eq!(m.entry_count(), 0);
    }
}
