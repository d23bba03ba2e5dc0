//! Cache lines under Token Coherence, with VM tags.
//!
//! Token Coherence (Martin et al., ISCA 2003) associates a fixed number of
//! *tokens* with every memory block: holding at least one token permits
//! reading, holding all tokens permits writing, and exactly one token is
//! the *owner* token, whose holder is responsible for supplying data and
//! eventually writing a dirty block back. The classic MOESI states fall out
//! of the token counts, which is how this reproduction reports protocol
//! state.
//!
//! Virtual snooping additionally extends each cache tag with a VM
//! identifier (Section IV-B) so per-VM residence counters can be
//! maintained; [`LineTag`] is that extension.

use sim_vm::{Agent, VmId};

use crate::addr::BlockAddr;

/// Token holdings of one cache line.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TokenState {
    /// Number of tokens held (including the owner token if `owner`).
    pub tokens: u32,
    /// Whether this line holds the owner token.
    pub owner: bool,
    /// Whether the data differs from memory (meaningful only with `owner`).
    pub dirty: bool,
}

impl TokenState {
    /// A single non-owner token: a shared reader.
    pub const fn shared_one() -> Self {
        TokenState {
            tokens: 1,
            owner: false,
            dirty: false,
        }
    }

    /// All tokens plus ownership, dirty: the state after a write.
    pub const fn modified(total: u32) -> Self {
        TokenState {
            tokens: total,
            owner: true,
            dirty: true,
        }
    }

    /// Derives the MOESI state this token holding corresponds to.
    pub fn moesi(self, total_tokens: u32) -> Moesi {
        if self.tokens == 0 {
            Moesi::I
        } else if self.owner && self.dirty {
            if self.tokens == total_tokens {
                Moesi::M
            } else {
                Moesi::O
            }
        } else if self.owner {
            if self.tokens == total_tokens {
                Moesi::E
            } else {
                // Clean owner sharing with others: report S (data matches
                // memory, others may read it).
                Moesi::S
            }
        } else {
            Moesi::S
        }
    }

    /// Returns `true` if the holding permits reads (any token).
    pub const fn can_read(self) -> bool {
        self.tokens > 0
    }

    /// Returns `true` if the holding permits writes (all tokens).
    pub const fn can_write(self, total_tokens: u32) -> bool {
        self.tokens == total_tokens
    }
}

/// The classic MOESI protocol states.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Moesi {
    /// Modified: sole dirty copy.
    M,
    /// Owned: dirty copy shared with readers.
    O,
    /// Exclusive: sole clean copy.
    E,
    /// Shared: clean read-only copy.
    S,
    /// Invalid.
    I,
}

/// The agent domain a cache line belongs to, stored in the extended tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LineTag {
    /// Brought in by a guest VM: counted in that VM's residence counter.
    Vm(VmId),
    /// Brought in by the hypervisor or dom0: not tracked per VM.
    Host,
}

impl From<Agent> for LineTag {
    fn from(agent: Agent) -> Self {
        match agent.guest_vm() {
            Some(vm) => LineTag::Vm(vm),
            None => LineTag::Host,
        }
    }
}

/// One cache line: block identity, token holdings, VM tag, LRU timestamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheLine {
    /// The cached block. Never change it on a line a cache holds (through
    /// [`Cache::probe_mut`](crate::Cache::probe_mut) or
    /// [`Cache::access_mut`](crate::Cache::access_mut)): the cache files the
    /// line under its set and fingerprint, which are derived from it.
    pub block: BlockAddr,
    /// Token holdings.
    pub state: TokenState,
    /// VM / host tag for residence accounting.
    pub tag: LineTag,
    /// Last-use timestamp maintained by the cache for LRU replacement:
    /// a per-set clock, renumbered before it would wrap.
    pub last_use: u32,
}

// A line fits 24 bytes: a set's way scan reads a quarter less memory than
// at 32.
const _: () = assert!(std::mem::size_of::<CacheLine>() == 24);

impl CacheLine {
    /// Creates a line; the cache sets `last_use` on insertion.
    pub fn new(block: BlockAddr, state: TokenState, tag: LineTag) -> Self {
        CacheLine {
            block,
            state,
            tag,
            last_use: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_vm::VcpuId;

    const TOTAL: u32 = 16;

    #[test]
    fn moesi_derivation() {
        assert_eq!(
            TokenState {
                tokens: 0,
                owner: false,
                dirty: false
            }
            .moesi(TOTAL),
            Moesi::I
        );
        assert_eq!(TokenState::modified(TOTAL).moesi(TOTAL), Moesi::M);
        assert_eq!(
            TokenState {
                tokens: 5,
                owner: true,
                dirty: true
            }
            .moesi(TOTAL),
            Moesi::O
        );
        assert_eq!(
            TokenState {
                tokens: TOTAL,
                owner: true,
                dirty: false
            }
            .moesi(TOTAL),
            Moesi::E
        );
        assert_eq!(TokenState::shared_one().moesi(TOTAL), Moesi::S);
        assert_eq!(
            TokenState {
                tokens: 3,
                owner: true,
                dirty: false
            }
            .moesi(TOTAL),
            Moesi::S
        );
    }

    #[test]
    fn permissions() {
        assert!(TokenState::shared_one().can_read());
        assert!(!TokenState::shared_one().can_write(TOTAL));
        assert!(TokenState::modified(TOTAL).can_write(TOTAL));
        assert!(!TokenState {
            tokens: 0,
            owner: false,
            dirty: false
        }
        .can_read());
    }

    #[test]
    fn tag_from_agent() {
        let guest = Agent::Guest(VcpuId::new(VmId::new(2), 0));
        assert_eq!(LineTag::from(guest), LineTag::Vm(VmId::new(2)));
        assert_eq!(LineTag::from(Agent::Dom0), LineTag::Host);
        assert_eq!(LineTag::from(Agent::Hypervisor), LineTag::Host);
    }
}
