//! Memory-system substrate for the *virtual snooping* reproduction.
//!
//! Everything below the snoop filter lives here:
//!
//! * [`Addr`] / [`BlockAddr`] — 64-byte-block / 4-KB-page address
//!   arithmetic (Table II geometry).
//! * [`TokenState`] / [`Moesi`] / [`CacheLine`] / [`LineTag`] — token
//!   coherence line state with the VM-identifier tag extension the paper
//!   adds for residence counting.
//! * [`Cache`] / [`CacheGeometry`] — set-associative LRU caches with
//!   per-VM residence counters (Section IV-B).
//! * [`TokenProtocol`] — the TokenB engine with safe transient-request
//!   retries, the substrate the counter-threshold policy relies on.
//!
//! # Examples
//!
//! ```
//! use sim_mem::{Cache, CacheGeometry, TokenProtocol, BlockAddr, LineTag};
//! use sim_vm::VmId;
//!
//! let mut caches = vec![Cache::new(CacheGeometry::new(256 * 1024, 8), 4); 16];
//! let mut protocol = TokenProtocol::new(16);
//! let block = BlockAddr::new(42);
//! let dests: Vec<usize> = (1..16).collect(); // broadcast snoop
//! let r = protocol.read_miss(&mut caches, 0, &dests, block, true, LineTag::Vm(VmId::new(0)),
//!                            sim_mem::ReadMode::Strict);
//! assert!(r.success);
//! assert!(protocol.check_invariant(&caches, block));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod cache;
mod line;
mod protocol;

pub use addr::{Addr, BlockAddr, BLOCKS_PER_PAGE, BLOCK_BYTES, PAGE_BYTES};
pub use cache::{Cache, CacheDelta, CacheGeometry, CacheSet, CacheShard, CacheStats};
pub use line::{CacheLine, LineTag, Moesi, TokenState};
pub use protocol::{
    mask_cores, CacheBank, DataSource, ReadMode, ReadOutcome, ReadResult, TokenLedger, TokenMemory,
    TokenProtocol, WriteOutcome, WriteResult,
};
