//! Page sharing types, the hypervisor's sharing directory, and a model of
//! the TLB's cached copy.
//!
//! Section IV-A of the paper: "Memory pages can be used by only a VM or
//! shared among VMs and the hypervisor. Depending on the sharing types of
//! pages, coherence requests are either multicast within a VM [...] or
//! broadcast to all the cores. The types of pages [...] are recorded in
//! unused bits in page table entries" and "the page sharing type bits
//! (2 bits) must also be in the TLB to find the sharing type directly for
//! every coherence transaction."
//!
//! The [`SharingDirectory`] models the authoritative per-page sharing state
//! stored in shadow/nested page tables (only the hypervisor mutates it).
//! The simulator classifies every access by reading it directly: a TLB
//! that is shot down on every directory change always returns the
//! directory's answer, so classification costs nothing in simulated time
//! either way. [`TypeTlb`] models the per-core cached copy on its own, to
//! measure how often the bits would be found without a page walk.

use crate::ids::VmId;
use crate::paged::PagedTable;

/// The sharing type of a host-physical page, as virtual snooping
/// distinguishes them (Section IV-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SharingType {
    /// Used by exactly one VM. Snoop requests are multicast within the VM's
    /// vCPU map.
    #[default]
    VmPrivate,
    /// Writable sharing between a VM and the hypervisor (I/O rings,
    /// hypervisor code/data) or between VMs (inter-VM channels). Requests
    /// must always be broadcast.
    RwShared,
    /// Read-only content-based sharing across VMs (copy-on-write). The
    /// memory always holds a clean copy, enabling the memory-direct /
    /// intra-VM / friend-VM optimizations of Section VI.
    RoShared,
}

impl SharingType {
    /// Encodes the sharing type into the two unused page-table-entry bits
    /// the paper reserves.
    pub const fn encode(self) -> u8 {
        match self {
            SharingType::VmPrivate => 0b00,
            SharingType::RwShared => 0b01,
            SharingType::RoShared => 0b10,
        }
    }

    /// Decodes a two-bit page-table encoding.
    ///
    /// Returns `None` for the reserved encoding `0b11`.
    pub const fn decode(bits: u8) -> Option<Self> {
        match bits {
            0b00 => Some(SharingType::VmPrivate),
            0b01 => Some(SharingType::RwShared),
            0b10 => Some(SharingType::RoShared),
            _ => None,
        }
    }
}

/// Authoritative per-page sharing state plus owning VM, maintained by the
/// hypervisor in shadow / nested page tables.
///
/// Pages that were never registered default to [`SharingType::VmPrivate`]
/// with no recorded owner; experiments always register the pools they use.
///
/// # Examples
///
/// ```
/// use sim_vm::{SharingDirectory, SharingType, VmId};
///
/// let mut dir = SharingDirectory::new();
/// dir.register(100, SharingType::VmPrivate, Some(VmId::new(1)));
/// dir.register(200, SharingType::RwShared, None);
/// assert_eq!(dir.sharing(100), SharingType::VmPrivate);
/// assert_eq!(dir.owner(100), Some(VmId::new(1)));
/// assert_eq!(dir.sharing(200), SharingType::RwShared);
/// assert_eq!(dir.sharing(999), SharingType::VmPrivate); // default
/// ```
#[derive(Clone, Debug, Default)]
pub struct SharingDirectory {
    /// Per page, [`SharingType::encode`] plus [`REGISTERED`]; zero for
    /// pages never registered. One byte a page keeps the per-access
    /// lookup dense.
    types: PagedTable<u8>,
    /// Per page, the owning VM.
    owners: PagedTable<Option<VmId>>,
    /// Number of registered pages.
    len: usize,
    /// Monotonic version, bumped on every mutation; a [`TypeTlb`] uses it
    /// to discard stale cached types (modelling the TLB shoot-down the
    /// hypervisor must perform when it changes a page's sharing bits).
    version: u64,
}

/// Set in a page's type byte once the page is registered.
const REGISTERED: u8 = 0b100;

impl SharingDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        SharingDirectory::default()
    }

    /// Registers (or re-registers) a page with a sharing type and an
    /// optional owning VM.
    pub fn register(&mut self, page: u64, sharing: SharingType, owner: Option<VmId>) {
        let t = self.types.get_mut(page);
        self.len += usize::from(*t == 0);
        *t = REGISTERED | sharing.encode();
        *self.owners.get_mut(page) = owner;
        self.version += 1;
    }

    /// Returns the sharing type of `page` (default: VM-private).
    #[inline]
    pub fn sharing(&self, page: u64) -> SharingType {
        SharingType::decode(self.types.get(page) & !REGISTERED).unwrap_or_default()
    }

    /// Returns the VM recorded as owner of `page`, if any. Shared pages
    /// have no single owner.
    #[inline]
    pub fn owner(&self, page: u64) -> Option<VmId> {
        self.owners.get(page)
    }

    /// Returns the current mutation version (used for TLB invalidation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Returns the number of registered pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no page has been registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Statistics of a [`TypeTlb`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TlbStats {
    /// Lookups that hit a valid cached entry.
    pub hits: u64,
    /// Lookups that had to walk the sharing directory.
    pub misses: u64,
}

impl TlbStats {
    /// Hit rate in `[0, 1]`; zero when no lookups occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A per-core, direct-mapped cache of page sharing types.
///
/// Real hardware finds the two sharing bits in the TLB entry during address
/// translation; this model exists to measure how often the bits would be
/// available without a page walk. The simulator does not consult it: every
/// lookup returns the directory's current answer, so the simulator reads
/// [`SharingDirectory::sharing`] directly.
#[derive(Clone, Debug)]
pub struct TypeTlb {
    slots: Vec<Option<TlbEntry>>,
    seen_version: u64,
    stats: TlbStats,
}

#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    page: u64,
    sharing: SharingType,
}

impl TypeTlb {
    /// Creates a TLB with `slots` direct-mapped entries.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "TLB needs at least one slot");
        TypeTlb {
            slots: vec![None; slots],
            seen_version: 0,
            stats: TlbStats::default(),
        }
    }

    /// Looks up the sharing type of `page`, filling from `dir` on a miss.
    ///
    /// If the directory has been mutated since the last lookup, all cached
    /// entries are discarded first (a conservative global shoot-down).
    pub fn lookup(&mut self, page: u64, dir: &SharingDirectory) -> SharingType {
        if dir.version() != self.seen_version {
            self.slots.iter_mut().for_each(|s| *s = None);
            self.seen_version = dir.version();
        }
        let idx = (page as usize) % self.slots.len();
        if let Some(e) = self.slots[idx] {
            if e.page == page {
                self.stats.hits += 1;
                return e.sharing;
            }
        }
        self.stats.misses += 1;
        let sharing = dir.sharing(page);
        self.slots[idx] = Some(TlbEntry { page, sharing });
        sharing
    }

    /// Returns lookup statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for t in [
            SharingType::VmPrivate,
            SharingType::RwShared,
            SharingType::RoShared,
        ] {
            assert_eq!(SharingType::decode(t.encode()), Some(t));
        }
        assert_eq!(SharingType::decode(0b11), None);
        // The encoding fits in two bits.
        assert!(SharingType::RoShared.encode() < 4);
    }

    #[test]
    fn directory_defaults_to_private() {
        let dir = SharingDirectory::new();
        assert_eq!(dir.sharing(12345), SharingType::VmPrivate);
        assert_eq!(dir.owner(12345), None);
        assert!(dir.is_empty());
    }

    #[test]
    fn directory_register_and_update() {
        let mut dir = SharingDirectory::new();
        dir.register(7, SharingType::RwShared, None);
        assert_eq!(dir.sharing(7), SharingType::RwShared);
        let v = dir.version();
        dir.register(7, SharingType::RoShared, None);
        assert_eq!(dir.sharing(7), SharingType::RoShared);
        assert!(dir.version() > v, "mutation must bump the version");
        assert_eq!(dir.len(), 1);
    }

    #[test]
    fn tlb_hits_after_first_walk() {
        let mut dir = SharingDirectory::new();
        dir.register(3, SharingType::RoShared, None);
        let mut tlb = TypeTlb::new(16);
        assert_eq!(tlb.lookup(3, &dir), SharingType::RoShared);
        assert_eq!(tlb.lookup(3, &dir), SharingType::RoShared);
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
        assert!(tlb.stats().hit_rate() > 0.49);
    }

    #[test]
    fn tlb_invalidated_by_directory_mutation() {
        let mut dir = SharingDirectory::new();
        dir.register(3, SharingType::VmPrivate, Some(VmId::new(0)));
        let mut tlb = TypeTlb::new(16);
        assert_eq!(tlb.lookup(3, &dir), SharingType::VmPrivate);
        // Hypervisor flips the page to content-shared.
        dir.register(3, SharingType::RoShared, None);
        assert_eq!(tlb.lookup(3, &dir), SharingType::RoShared);
        assert_eq!(tlb.stats().misses, 2, "stale entry must not be served");
    }

    #[test]
    fn tlb_conflict_misses() {
        let dir = SharingDirectory::new();
        let mut tlb = TypeTlb::new(4);
        // Pages 0 and 4 conflict in a 4-slot direct-mapped TLB.
        tlb.lookup(0, &dir);
        tlb.lookup(4, &dir);
        tlb.lookup(0, &dir);
        assert_eq!(tlb.stats().misses, 3);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_tlb_rejected() {
        let _ = TypeTlb::new(0);
    }
}
