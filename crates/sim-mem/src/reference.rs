//! The frozen pre-optimization TokenB engine, kept as a differential
//! oracle.
//!
//! This is a verbatim copy of the protocol engine as it stood before the
//! hot path went allocation-free: `HashMap` token ledger, `Vec`-building
//! transaction outcomes, per-destination slice iteration. It exists so
//! the optimized engine in [`crate::protocol`] can be checked against it
//! — the differential tests drive both over identical transaction
//! sequences and require bit-identical outcomes, ledger contents, and
//! cache states. **Do not optimize this module**; its value is that it
//! stays the simple, obviously-faithful implementation.

use std::collections::HashMap;

use crate::addr::BlockAddr;
use crate::cache::Cache;
use crate::line::{CacheLine, LineTag, TokenState};
use crate::protocol::{DataSource, ReadMode, ReadResult, TokenLedger, WriteResult};

/// Tokens held by the memory controller, per block (reference copy).
#[derive(Clone, Debug)]
struct ReferenceMemory {
    total: u32,
    entries: HashMap<BlockAddr, MemEntry>,
}

#[derive(Clone, Copy, Debug)]
struct MemEntry {
    tokens: u32,
    owner: bool,
}

impl ReferenceMemory {
    fn new(total: u32) -> Self {
        assert!(total > 0, "token count must be positive");
        ReferenceMemory {
            total,
            entries: HashMap::new(),
        }
    }

    fn entry(&self, block: BlockAddr) -> MemEntry {
        self.entries.get(&block).copied().unwrap_or(MemEntry {
            tokens: self.total,
            owner: true,
        })
    }

    fn total(&self) -> u32 {
        self.total
    }

    fn tokens(&self, block: BlockAddr) -> u32 {
        self.entry(block).tokens
    }

    fn has_owner(&self, block: BlockAddr) -> bool {
        self.entry(block).owner
    }

    fn entries(&self) -> impl Iterator<Item = (BlockAddr, u32, bool)> + '_ {
        self.entries
            .iter()
            .filter(|(_, e)| !(e.tokens == self.total && e.owner))
            .map(|(&b, e)| (b, e.tokens, e.owner))
    }

    fn take(&mut self, block: BlockAddr, n: u32) -> (u32, bool) {
        let e = self.entry(block);
        let taken = e.tokens.min(n);
        let owner_taken = e.owner && taken == e.tokens && taken > 0;
        self.entries.insert(
            block,
            MemEntry {
                tokens: e.tokens - taken,
                owner: e.owner && !owner_taken,
            },
        );
        (taken, owner_taken)
    }

    fn put(&mut self, block: BlockAddr, n: u32, owner: bool) {
        let e = self.entry(block);
        debug_assert!(e.tokens + n <= self.total, "token overflow at memory");
        debug_assert!(!(e.owner && owner), "duplicate owner token at memory");
        self.entries.insert(
            block,
            MemEntry {
                tokens: e.tokens + n,
                owner: e.owner || owner,
            },
        );
    }
}

/// The pre-optimization token-coherence engine, API-compatible with the
/// slice-based surface of [`crate::TokenProtocol`].
///
/// # Examples
///
/// ```
/// use sim_mem::{ReferenceProtocol, Cache, CacheGeometry, BlockAddr, LineTag, ReadMode};
/// use sim_vm::VmId;
///
/// let mut caches = vec![Cache::new(CacheGeometry::new(4096, 2), 2); 4];
/// let mut tp = ReferenceProtocol::new(4);
/// let b = BlockAddr::new(10);
/// let r = tp.read_miss(&mut caches, 0, &[1, 2, 3], b, true, LineTag::Vm(VmId::new(0)),
///                      ReadMode::Strict);
/// assert!(r.success);
/// ```
#[derive(Clone, Debug)]
pub struct ReferenceProtocol {
    memory: ReferenceMemory,
}

impl ReferenceProtocol {
    /// Creates a reference engine with `total` tokens per block.
    pub fn new(total: u32) -> Self {
        ReferenceProtocol {
            memory: ReferenceMemory::new(total),
        }
    }

    /// Tokens per block.
    pub fn total_tokens(&self) -> u32 {
        self.memory.total()
    }

    /// Tokens currently at memory for `block`.
    pub fn memory_tokens(&self, block: BlockAddr) -> u32 {
        self.memory.tokens(block)
    }

    /// Whether memory holds the owner token for `block`.
    pub fn memory_has_owner(&self, block: BlockAddr) -> bool {
        self.memory.has_owner(block)
    }

    /// The memory-side token ledger: every block not in the reset state.
    /// Iteration order is unspecified; sort before comparing.
    pub fn memory_entries(&self) -> impl Iterator<Item = (BlockAddr, u32, bool)> + '_ {
        self.memory.entries()
    }

    /// Executes a read-miss (GETS) attempt — the pre-optimization
    /// implementation, preserved verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `dests` contains the requester, or if the requester
    /// already holds a valid line for `block`.
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
        let snooped = dests.len();
        let mut invalidated = Vec::new();

        let owner_at = dests
            .iter()
            .copied()
            .find(|&c| caches[c].probe(block).is_some_and(|l| l.state.owner));
        let holder_at = owner_at.or_else(|| {
            if mode != ReadMode::CleanShared {
                return None;
            }
            dests
                .iter()
                .copied()
                .find(|&c| caches[c].probe(block).is_some_and(|l| l.state.tokens > 0))
        });

        let (fill, source) = if let Some(c) = holder_at {
            let line = caches[c].probe_mut(block).expect("holder has line");
            if line.state.tokens > 1 {
                line.state.tokens -= 1;
                (TokenState::shared_one(), DataSource::Cache(c))
            } else {
                let line = caches[c].remove(block).expect("line present");
                invalidated.push(c);
                (line.state, DataSource::Cache(c))
            }
        } else if include_memory && mode == ReadMode::Strict && self.memory.has_owner(block) {
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
            return ReadResult {
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
        ReadResult {
            success: true,
            source: Some(source),
            invalidated,
            evicted,
            evicted_dirty,
            snooped,
        }
    }

    /// Executes a write-miss / upgrade (GETX) attempt — the
    /// pre-optimization implementation, preserved verbatim.
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
        let total = self.total_tokens();
        let snooped = dests.len();
        let existing = caches[requester].probe(block).map(|l| l.state);
        let have = existing.map_or(0, |s| s.tokens);
        let had_data = existing.is_some();

        let mut gained = 0u32;
        let mut collected_owner = false;
        let mut source: Option<DataSource> = None;
        let mut token_repliers = Vec::new();
        let mut invalidated = Vec::new();

        for &c in dests {
            let Some(line) = caches[c].remove(block) else {
                continue;
            };
            gained += line.state.tokens;
            invalidated.push(c);
            if line.state.owner {
                collected_owner = true;
                if !had_data {
                    source = Some(DataSource::Cache(c));
                } else {
                    token_repliers.push(c);
                }
            } else {
                token_repliers.push(c);
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
            debug_assert!(
                collected_owner || existing.is_some_and(|s| s.owner),
                "all tokens collected must include the owner token"
            );
            caches[requester].remove(block);
            let (evicted, evicted_dirty) = self.fill(
                caches,
                requester,
                CacheLine::new(block, TokenState::modified(total), tag),
            );
            WriteResult {
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
            self.memory.put(block, gained, collected_owner);
            WriteResult {
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

    /// Evicts `line`: its tokens return to memory. Returns `true` on a
    /// dirty write-back.
    pub fn writeback(&mut self, line: &CacheLine) -> bool {
        self.memory
            .put(line.block, line.state.tokens, line.state.owner);
        line.state.owner && line.state.dirty
    }

    /// Verifies token conservation for `block`.
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

    fn fill(
        &mut self,
        caches: &mut [Cache],
        requester: usize,
        line: CacheLine,
    ) -> (Option<CacheLine>, bool) {
        match caches[requester].insert(line) {
            Some(victim) => {
                let dirty = self.writeback(&victim);
                (Some(victim), dirty)
            }
            None => (None, false),
        }
    }
}

impl TokenLedger for ReferenceProtocol {
    fn total_tokens(&self) -> u32 {
        ReferenceProtocol::total_tokens(self)
    }

    fn memory_tokens(&self, block: BlockAddr) -> u32 {
        ReferenceProtocol::memory_tokens(self, block)
    }

    fn memory_has_owner(&self, block: BlockAddr) -> bool {
        ReferenceProtocol::memory_has_owner(self, block)
    }

    fn memory_state(&self, block: BlockAddr) -> (u32, bool) {
        let e = self.memory.entry(block);
        (e.tokens, e.owner)
    }

    fn memory_entries_sorted(&self) -> Vec<(BlockAddr, u32, bool)> {
        let mut v: Vec<_> = self.memory_entries().collect();
        v.sort_unstable_by_key(|&(b, _, _)| b);
        v
    }

    fn memory_entry_count(&self) -> usize {
        self.memory_entries().count()
    }
}
