//! Runtime invariant checking for the coherence engine.
//!
//! The [`InvariantChecker`] is an always-on (when enabled) referee for the
//! token protocol and the virtual-snooping layer above it. After every
//! coherence transaction it verifies the *hard* invariants on the touched
//! block, and every `sweep_every` transactions it sweeps the whole
//! machine: every block ever touched, every residence counter, the L1/L2
//! inclusion property, and — when the vCPU-map registers are trusted —
//! map validity and coverage against the hypervisor's placement.
//!
//! Invariant classes:
//!
//! * **Token conservation** — for each block, tokens held across all L2
//!   caches plus memory's holdings equal the fixed total (bounced tokens
//!   land at memory atomically in this model, so in-flight holdings are
//!   always zero between transactions).
//! * **Owner uniqueness** — exactly one party (one cache or memory) holds
//!   the owner token.
//! * **Dirty implies owner** — no line is dirty without the owner token.
//! * **No tokenless lines** — a valid line holds at least one token.
//! * **L1 inclusion** — every L1 line is backed by an L2 line.
//! * **Residence counters** — each cache's per-VM counters equal an
//!   actual scan of its tags (the counter mechanism's foundation).
//! * **Map validity/coverage** — each VM's map register has no bits
//!   beyond the physical core count and covers every core the VM runs on.
//!   Fault injection *legitimately* breaks this between a corruption and
//!   the next hypervisor audit, so it is checked only when the caller
//!   marks the registers trusted (fault-free runs, or right after an
//!   audit repaired them).

use sim_mem::{BlockAddr, BlockMap, Cache, LineTag, TokenLedger};
use sim_vm::{Hypervisor, VmId};

use crate::vcpu_map::VcpuMapFile;

/// The invariant class a [`Violation`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvariantKind {
    /// Tokens across caches + memory differ from the per-block total.
    TokenConservation,
    /// Zero or multiple owner tokens for a block.
    OwnerUniqueness,
    /// A dirty line without the owner token.
    DirtyWithoutOwner,
    /// A valid line holding zero tokens.
    TokenlessLine,
    /// An L1 line with no backing L2 line.
    L1Inclusion,
    /// A residence counter disagreeing with a scan of the cache's tags.
    ResidenceCounter,
    /// A vCPU-map register with bits beyond the physical core count.
    MapValidity,
    /// A vCPU-map register missing a core its VM currently runs on.
    MapCoverage,
    /// A statistics counter saturated instead of wrapping (e.g. the
    /// network byte-links tally); metrics derived from it are a lower
    /// bound, not an exact value.
    CounterSaturated,
}

/// One detected invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Simulation cycle at which the violation was observed.
    pub cycle: u64,
    /// The violated invariant class.
    pub kind: InvariantKind,
    /// Human-readable specifics (block, core, counts).
    pub detail: String,
}

/// Checker configuration.
#[derive(Clone, Copy, Debug)]
pub struct CheckerConfig {
    /// Run a full-machine sweep every this many checked transactions
    /// (0 disables periodic sweeps; per-transaction block checks still
    /// run).
    pub sweep_every: u64,
    /// At most this many violations are recorded verbatim; the total
    /// count keeps incrementing past the cap.
    pub max_recorded: usize,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            sweep_every: 10_000,
            max_recorded: 32,
        }
    }
}

/// A borrowed view of the machine state the checker inspects. The
/// simulator assembles this from its own fields on each call.
#[derive(Debug)]
pub struct CheckerCtx<'a> {
    /// Per-core L1 caches.
    pub l1: &'a [Cache],
    /// Per-core L2 caches (the token-holding level).
    pub l2: &'a [Cache],
    /// The token ledger (either engine exposes the memory-side holdings
    /// through [`TokenLedger`]).
    pub protocol: &'a dyn TokenLedger,
    /// The vCPU-map register file.
    pub maps: &'a VcpuMapFile,
    /// The hypervisor's placement (ground truth for map coverage).
    pub hv: &'a Hypervisor,
    /// Whether the map registers are currently trustworthy: false while
    /// fault injection may have corrupted them since the last audit.
    pub maps_trusted: bool,
}

/// Per-block accumulator for the sweep's line-major pass: what the caches
/// collectively hold for one block, gathered by visiting every cached
/// line exactly once instead of probing every cache for every block.
#[derive(Clone, Copy, Debug, Default)]
struct SweepAcc {
    /// Tokens held across all L2 caches.
    tokens: u32,
    /// Owner tokens held across all L2 caches.
    owners: u32,
    /// Cores whose L2 holds a valid-but-tokenless line for the block.
    tokenless: u64,
    /// Cores whose L2 holds a dirty line without the owner token.
    dirty_no_owner: u64,
}

/// The runtime invariant checker. See the module docs for the invariant
/// classes.
#[derive(Clone, Debug)]
pub struct InvariantChecker {
    cfg: CheckerConfig,
    /// Membership test for observed blocks; the open-addressed set keeps
    /// the per-transaction insert off the BTree's pointer-chasing path.
    touched: BlockMap<()>,
    /// Blocks first observed since the last sweep, in arrival order.
    new_blocks: Vec<BlockAddr>,
    /// Every block observed before the last sweep, sorted. Each sweep
    /// merges the sorted `new_blocks` in — cheaper than re-sorting the
    /// whole list every time.
    sorted_blocks: Vec<BlockAddr>,
    /// Reusable scratch for the sweep's line-major accumulation pass.
    sweep_acc: BlockMap<SweepAcc>,
    /// Reusable per-VM line counts for [`check_residence`](Self::check_residence).
    residence_scan: Vec<u64>,
    violations: Vec<Violation>,
    total_violations: u64,
    block_checks: u64,
    sweeps: u64,
    map_checks: u64,
    since_sweep: u64,
}

impl InvariantChecker {
    /// Creates a checker with the given configuration.
    pub fn new(cfg: CheckerConfig) -> Self {
        InvariantChecker {
            cfg,
            touched: BlockMap::new(),
            new_blocks: Vec::new(),
            sorted_blocks: Vec::new(),
            sweep_acc: BlockMap::new(),
            residence_scan: Vec::new(),
            violations: Vec::new(),
            total_violations: 0,
            block_checks: 0,
            sweeps: 0,
            map_checks: 0,
            since_sweep: 0,
        }
    }

    /// Violations recorded verbatim (capped at `max_recorded`).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations detected, including any past the recording cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Per-block checks performed.
    pub fn block_checks(&self) -> u64 {
        self.block_checks
    }

    /// Full-machine sweeps performed.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Map-register audits performed.
    pub fn map_checks(&self) -> u64 {
        self.map_checks
    }

    /// Distinct blocks observed so far.
    pub fn touched_blocks(&self) -> usize {
        self.touched.len()
    }

    fn record(&mut self, cycle: u64, kind: InvariantKind, detail: String) {
        self.total_violations += 1;
        if self.violations.len() < self.cfg.max_recorded {
            self.violations.push(Violation {
                cycle,
                kind,
                detail,
            });
        }
    }

    /// Records a [`InvariantKind::CounterSaturated`] violation for a
    /// saturated statistics counter. The simulator calls this (latched,
    /// once per counter) when it observes e.g.
    /// `TrafficStats::overflowed`, so saturation shows up in the same
    /// violation stream as coherence breaks instead of only as a silently
    /// clamped metric.
    pub fn note_counter_saturated(&mut self, cycle: u64, counter: &str) {
        self.record(
            cycle,
            InvariantKind::CounterSaturated,
            format!("{counter} saturated at u64::MAX; derived metrics are lower bounds"),
        );
    }

    /// Called after every coherence transaction: checks the hard
    /// invariants on `block` and, when the periodic sweep is due, the
    /// whole machine.
    pub fn on_transaction(&mut self, cycle: u64, block: BlockAddr, ctx: &CheckerCtx<'_>) {
        let before = self.touched.len();
        self.touched.entry_mut(block.index(), ());
        if self.touched.len() > before {
            self.new_blocks.push(block);
        }
        self.check_block(cycle, block, ctx);
        self.since_sweep += 1;
        if self.cfg.sweep_every > 0 && self.since_sweep >= self.cfg.sweep_every {
            self.full_sweep(cycle, ctx);
        }
    }

    /// Checks token conservation, owner uniqueness, dirty-implies-owner
    /// and no-tokenless-lines for one block.
    pub fn check_block(&mut self, cycle: u64, block: BlockAddr, ctx: &CheckerCtx<'_>) {
        self.block_checks += 1;
        let total = ctx.protocol.total_tokens();
        let mut tokens = ctx.protocol.memory_tokens(block);
        let mut owners = u32::from(ctx.protocol.memory_has_owner(block));
        for (core, cache) in ctx.l2.iter().enumerate() {
            let Some(line) = cache.probe(block) else {
                continue;
            };
            tokens += line.state.tokens;
            owners += u32::from(line.state.owner);
            if line.state.tokens == 0 {
                self.record(
                    cycle,
                    InvariantKind::TokenlessLine,
                    format!("core {core}: valid line {block:?} holds 0 tokens"),
                );
            }
            if line.state.dirty && !line.state.owner {
                self.record(
                    cycle,
                    InvariantKind::DirtyWithoutOwner,
                    format!("core {core}: dirty line {block:?} without owner token"),
                );
            }
        }
        if tokens != total {
            self.record(
                cycle,
                InvariantKind::TokenConservation,
                format!("block {block:?}: {tokens} tokens in system, expected {total}"),
            );
        }
        if owners != 1 {
            self.record(
                cycle,
                InvariantKind::OwnerUniqueness,
                format!("block {block:?}: {owners} owner tokens, expected exactly 1"),
            );
        }
    }

    /// Merges the blocks first touched since the last sweep into the
    /// sorted list. Only the new blocks need sorting; the merge runs from
    /// the back of the grown list, so it is linear and needs no scratch.
    fn refresh_sorted_blocks(&mut self) {
        self.new_blocks.sort_unstable();
        let (mut i, mut j) = (self.sorted_blocks.len(), self.new_blocks.len());
        let mut k = i + j;
        self.sorted_blocks.resize(k, BlockAddr::new(0));
        while j > 0 {
            k -= 1;
            if i > 0 && self.sorted_blocks[i - 1] > self.new_blocks[j - 1] {
                i -= 1;
                self.sorted_blocks[k] = self.sorted_blocks[i];
            } else {
                j -= 1;
                self.sorted_blocks[k] = self.new_blocks[j];
            }
        }
        self.new_blocks.clear();
    }

    /// Sweeps the whole machine: every touched block, residence counters,
    /// L1 inclusion, and (when `ctx.maps_trusted`) the map registers.
    ///
    /// The per-block invariants are checked from a single line-major pass
    /// over the caches: every cached line is visited once and folded into
    /// a per-block accumulator, instead of probing every cache for every
    /// touched block. The violations produced — classes, details, and
    /// order — are identical to calling [`check_block`](Self::check_block)
    /// on each touched block in sorted order, which stays the behavioural
    /// spec (and is pinned by a test).
    pub fn full_sweep(&mut self, cycle: u64, ctx: &CheckerCtx<'_>) {
        self.sweeps += 1;
        self.since_sweep = 0;
        self.refresh_sorted_blocks();
        self.sweep_acc.clear();
        for (core, cache) in ctx.l2.iter().enumerate() {
            debug_assert!(core < 64, "core index exceeds the bitmask width");
            for line in cache.lines() {
                let acc = self
                    .sweep_acc
                    .entry_mut(line.block.index(), SweepAcc::default());
                acc.tokens += line.state.tokens;
                acc.owners += u32::from(line.state.owner);
                if line.state.tokens == 0 {
                    acc.tokenless |= 1 << core;
                }
                if line.state.dirty && !line.state.owner {
                    acc.dirty_no_owner |= 1 << core;
                }
            }
        }
        let total = ctx.protocol.total_tokens();
        for idx in 0..self.sorted_blocks.len() {
            let block = self.sorted_blocks[idx];
            self.block_checks += 1;
            let acc = self
                .sweep_acc
                .get(block.index())
                .copied()
                .unwrap_or_default();
            // Per-core line violations first, in ascending core order with
            // tokenless before dirty-without-owner on the same core —
            // exactly the order `check_block`'s probe loop records them.
            let mut cores = acc.tokenless | acc.dirty_no_owner;
            while cores != 0 {
                let core = cores.trailing_zeros() as u64;
                if acc.tokenless & (1 << core) != 0 {
                    self.record(
                        cycle,
                        InvariantKind::TokenlessLine,
                        format!("core {core}: valid line {block:?} holds 0 tokens"),
                    );
                }
                if acc.dirty_no_owner & (1 << core) != 0 {
                    self.record(
                        cycle,
                        InvariantKind::DirtyWithoutOwner,
                        format!("core {core}: dirty line {block:?} without owner token"),
                    );
                }
                cores &= cores - 1;
            }
            let tokens = acc.tokens + ctx.protocol.memory_tokens(block);
            let owners = acc.owners + u32::from(ctx.protocol.memory_has_owner(block));
            if tokens != total {
                self.record(
                    cycle,
                    InvariantKind::TokenConservation,
                    format!("block {block:?}: {tokens} tokens in system, expected {total}"),
                );
            }
            if owners != 1 {
                self.record(
                    cycle,
                    InvariantKind::OwnerUniqueness,
                    format!("block {block:?}: {owners} owner tokens, expected exactly 1"),
                );
            }
        }
        self.check_residence(cycle, ctx);
        self.check_inclusion(cycle, ctx);
        if ctx.maps_trusted {
            self.check_maps(cycle, ctx);
        }
    }

    /// Verifies every cache's per-VM (and host) residence counters
    /// against an actual scan of its tags.
    pub fn check_residence(&mut self, cycle: u64, ctx: &CheckerCtx<'_>) {
        let n_vms = ctx.maps.len();
        let mut counts = std::mem::take(&mut self.residence_scan);
        for (core, cache) in ctx.l2.iter().enumerate() {
            counts.clear();
            counts.resize(n_vms, 0);
            let mut host = 0u64;
            for line in cache.lines() {
                match line.tag {
                    LineTag::Vm(vm) => {
                        if (vm.index()) < n_vms {
                            counts[vm.index()] += 1;
                        }
                    }
                    LineTag::Host => host += 1,
                }
            }
            for (vm_idx, &expected) in counts.iter().enumerate() {
                let counter = cache.residence(VmId::new(vm_idx as u16));
                if counter != expected {
                    self.record(
                        cycle,
                        InvariantKind::ResidenceCounter,
                        format!(
                            "core {core}: VM{vm_idx} residence counter {counter}, scan says {expected}"
                        ),
                    );
                }
            }
            let host_counter = cache.host_residence();
            if host_counter != host {
                self.record(
                    cycle,
                    InvariantKind::ResidenceCounter,
                    format!("core {core}: host residence counter {host_counter}, scan says {host}"),
                );
            }
        }
        self.residence_scan = counts;
    }

    /// Verifies the inclusive hierarchy: every L1 line has an L2 backer.
    pub fn check_inclusion(&mut self, cycle: u64, ctx: &CheckerCtx<'_>) {
        for (core, (l1, l2)) in ctx.l1.iter().zip(ctx.l2.iter()).enumerate() {
            for line in l1.lines() {
                if l2.probe(line.block).is_none() {
                    self.record(
                        cycle,
                        InvariantKind::L1Inclusion,
                        format!("core {core}: L1 line {:?} absent from L2", line.block),
                    );
                }
            }
        }
    }

    /// Verifies the vCPU-map registers against the hypervisor: no bits
    /// beyond the core count, and every running core covered. Only
    /// meaningful when the registers are known-good (fault-free, or just
    /// repaired by the audit) — the caller decides when that holds.
    pub fn check_maps(&mut self, cycle: u64, ctx: &CheckerCtx<'_>) {
        self.map_checks += 1;
        let n_cores = ctx.hv.n_cores();
        let valid = valid_core_mask(n_cores);
        for vm_idx in 0..ctx.maps.len() {
            let mask = ctx.maps.map(vm_idx).mask();
            if mask & !valid != 0 {
                self.record(
                    cycle,
                    InvariantKind::MapValidity,
                    format!(
                        "VM{vm_idx}: map {mask:#x} has bits beyond the {n_cores} physical cores"
                    ),
                );
            }
            let running = ctx.hv.cores_of_vm(VmId::new(vm_idx as u16));
            if running & !mask != 0 {
                self.record(
                    cycle,
                    InvariantKind::MapCoverage,
                    format!(
                        "VM{vm_idx}: map {mask:#x} misses running cores {:#x}",
                        running & !mask
                    ),
                );
            }
        }
    }
}

/// The mask of physically-present core bits for an `n_cores` machine.
pub fn valid_core_mask(n_cores: usize) -> u64 {
    if n_cores >= 64 {
        u64::MAX
    } else {
        (1u64 << n_cores) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::{CacheGeometry, CacheLine, LineTag, ReadMode, TokenProtocol, TokenState};
    use sim_vm::{homogeneous_vms, Hypervisor};

    const N: usize = 4;

    fn machine() -> (
        Vec<Cache>,
        Vec<Cache>,
        TokenProtocol,
        VcpuMapFile,
        Hypervisor,
    ) {
        let l2 = vec![Cache::new(CacheGeometry::new(8 * 1024, 4), 2); N];
        let l1 = vec![Cache::new(CacheGeometry::new(1024, 2), 2); N];
        let protocol = TokenProtocol::new(N as u32);
        let maps = VcpuMapFile::new(2);
        let vms = homogeneous_vms(2, 2, 64);
        let mut hv = Hypervisor::new(N, &vms);
        hv.place_round_robin();
        (l1, l2, protocol, maps, hv)
    }

    fn ctx<'a>(
        l1: &'a [Cache],
        l2: &'a [Cache],
        protocol: &'a TokenProtocol,
        maps: &'a VcpuMapFile,
        hv: &'a Hypervisor,
    ) -> CheckerCtx<'a> {
        CheckerCtx {
            l1,
            l2,
            protocol,
            maps,
            hv,
            maps_trusted: false,
        }
    }

    #[test]
    fn clean_machine_has_no_violations() {
        let (l1, mut l2, mut protocol, maps, hv) = machine();
        let b = BlockAddr::new(9);
        // A legitimate fill via the protocol keeps every invariant.
        let r = protocol.read_miss(
            &mut l2,
            0,
            &[1, 2, 3],
            b,
            true,
            LineTag::Vm(VmId::new(0)),
            ReadMode::Strict,
        );
        assert!(r.success);
        let mut ch = InvariantChecker::new(CheckerConfig::default());
        ch.on_transaction(5, b, &ctx(&l1, &l2, &protocol, &maps, &hv));
        ch.full_sweep(6, &ctx(&l1, &l2, &protocol, &maps, &hv));
        assert_eq!(ch.total_violations(), 0, "{:?}", ch.violations());
        assert!(ch.block_checks() >= 2);
    }

    #[test]
    fn detects_conjured_tokens_and_double_owner() {
        let (l1, mut l2, protocol, maps, hv) = machine();
        let b = BlockAddr::new(3);
        // Conjure a line out of thin air: memory still holds all 4 tokens
        // and the owner, so conservation AND owner-uniqueness both break.
        l2[1].insert(CacheLine::new(
            b,
            TokenState {
                tokens: 2,
                owner: true,
                dirty: false,
            },
            LineTag::Vm(VmId::new(0)),
        ));
        let mut ch = InvariantChecker::new(CheckerConfig::default());
        ch.check_block(1, b, &ctx(&l1, &l2, &protocol, &maps, &hv));
        let kinds: Vec<_> = ch.violations().iter().map(|v| v.kind).collect();
        assert!(
            kinds.contains(&InvariantKind::TokenConservation),
            "{kinds:?}"
        );
        assert!(kinds.contains(&InvariantKind::OwnerUniqueness), "{kinds:?}");
    }

    #[test]
    fn detects_dirty_without_owner_and_tokenless_lines() {
        let (l1, mut l2, mut protocol, maps, hv) = machine();
        let b = BlockAddr::new(4);
        let r = protocol.read_miss(
            &mut l2,
            0,
            &[1, 2, 3],
            b,
            true,
            LineTag::Vm(VmId::new(0)),
            ReadMode::Strict,
        );
        assert!(r.success);
        // Corrupt the (owner-holding) line: strip ownership but mark dirty.
        let line = l2[0].probe_mut(b).unwrap();
        line.state.owner = false;
        line.state.dirty = true;
        let mut ch = InvariantChecker::new(CheckerConfig::default());
        ch.check_block(2, b, &ctx(&l1, &l2, &protocol, &maps, &hv));
        let kinds: Vec<_> = ch.violations().iter().map(|v| v.kind).collect();
        assert!(
            kinds.contains(&InvariantKind::DirtyWithoutOwner),
            "{kinds:?}"
        );

        // Now drain its tokens entirely: a valid-but-tokenless line.
        let line = l2[0].probe_mut(b).unwrap();
        line.state.tokens = 0;
        line.state.dirty = false;
        let mut ch = InvariantChecker::new(CheckerConfig::default());
        ch.check_block(3, b, &ctx(&l1, &l2, &protocol, &maps, &hv));
        let kinds: Vec<_> = ch.violations().iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&InvariantKind::TokenlessLine), "{kinds:?}");
    }

    #[test]
    fn detects_inclusion_and_residence_breaks() {
        let (mut l1, mut l2, _protocol, maps, hv) = machine();
        let protocol = TokenProtocol::new(N as u32);
        let b = BlockAddr::new(11);
        // L1 line with no L2 backer.
        l1[2].insert(CacheLine::new(
            b,
            TokenState::shared_one(),
            LineTag::Vm(VmId::new(1)),
        ));
        let mut ch = InvariantChecker::new(CheckerConfig::default());
        ch.check_inclusion(1, &ctx(&l1, &l2, &protocol, &maps, &hv));
        assert_eq!(ch.violations()[0].kind, InvariantKind::L1Inclusion);

        // Residence counters are maintained by Cache::insert/remove, so a
        // raw tag overwrite desynchronizes counter and scan.
        let l1_clean = vec![Cache::new(CacheGeometry::new(1024, 2), 2); N];
        l2[0].insert(CacheLine::new(
            b,
            TokenState::shared_one(),
            LineTag::Vm(VmId::new(0)),
        ));
        l2[0].probe_mut(b).unwrap().tag = LineTag::Vm(VmId::new(1));
        let mut ch = InvariantChecker::new(CheckerConfig::default());
        ch.check_residence(2, &ctx(&l1_clean, &l2, &protocol, &maps, &hv));
        assert!(ch
            .violations()
            .iter()
            .all(|v| v.kind == InvariantKind::ResidenceCounter));
        assert_eq!(ch.total_violations(), 2, "{:?}", ch.violations());
    }

    #[test]
    fn detects_map_corruption_only_when_trusted() {
        let (l1, l2, protocol, mut maps, hv) = machine();
        // Garbage register: bits beyond 4 cores, and missing VM0's cores.
        maps.corrupt(0, crate::vcpu_map::VcpuMap::from_mask(0xFF00));
        maps.set(
            1,
            crate::vcpu_map::VcpuMap::from_mask(hv.cores_of_vm(VmId::new(1))),
        );
        let mut c = ctx(&l1, &l2, &protocol, &maps, &hv);
        let mut ch = InvariantChecker::new(CheckerConfig::default());
        // Untrusted registers: the sweep skips map checks entirely.
        ch.full_sweep(1, &c);
        assert_eq!(ch.total_violations(), 0);
        // Trusted registers: both validity and coverage fire for VM0.
        c.maps_trusted = true;
        ch.full_sweep(2, &c);
        let kinds: Vec<_> = ch.violations().iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&InvariantKind::MapValidity), "{kinds:?}");
        assert!(kinds.contains(&InvariantKind::MapCoverage), "{kinds:?}");
        assert!(!kinds.contains(&InvariantKind::ResidenceCounter));
    }

    #[test]
    fn sweep_matches_per_block_checks_in_sorted_order() {
        // The line-major sweep must produce exactly the violations that
        // per-block `check_block` calls over the sorted touched set
        // would: same classes, same details, same order. Plant a messy
        // machine to exercise every per-block class on several cores.
        let (mut l1, mut l2, protocol, maps, hv) = machine();
        let dirty_no_owner = TokenState {
            tokens: 1,
            owner: false,
            dirty: true,
        };
        let tokenless = TokenState {
            tokens: 0,
            owner: false,
            dirty: false,
        };
        let double_owner = TokenState {
            tokens: 2,
            owner: true,
            dirty: false,
        };
        // Touched blocks, inserted out of order to exercise the sort.
        l2[3].insert(CacheLine::new(
            BlockAddr::new(9),
            dirty_no_owner,
            LineTag::Host,
        ));
        l2[1].insert(CacheLine::new(BlockAddr::new(9), tokenless, LineTag::Host));
        l2[0].insert(CacheLine::new(
            BlockAddr::new(2),
            double_owner,
            LineTag::Host,
        ));
        l2[2].insert(CacheLine::new(
            BlockAddr::new(2),
            double_owner,
            LineTag::Host,
        ));
        l2[1].insert(CacheLine::new(BlockAddr::new(5), tokenless, LineTag::Host));
        // A cached block the checker never saw: ignored by both forms.
        l2[0].insert(CacheLine::new(
            BlockAddr::new(77),
            double_owner,
            LineTag::Host,
        ));
        // An L1 orphan so the sweep's non-block phases fire too.
        l1[2].insert(CacheLine::new(
            BlockAddr::new(9),
            TokenState::shared_one(),
            LineTag::Host,
        ));

        let cfg = CheckerConfig {
            sweep_every: 0,
            max_recorded: 1000,
        };
        let c = ctx(&l1, &l2, &protocol, &maps, &hv);

        // Register the touched set through the transaction path, then
        // sweep; the sweep's output is everything recorded after that.
        let mut swept = InvariantChecker::new(cfg);
        for b in [9u64, 2, 5] {
            swept.on_transaction(1, BlockAddr::new(b), &c);
        }
        let before = swept.violations().len();
        swept.full_sweep(2, &c);
        let got: Vec<_> = swept.violations()[before..]
            .iter()
            .map(|v| (v.cycle, v.kind, v.detail.clone()))
            .collect();

        // Reference: per-block checks over the sorted touched set, then
        // the same non-block phases.
        let mut reference = InvariantChecker::new(cfg);
        for b in [2u64, 5, 9] {
            reference.check_block(2, BlockAddr::new(b), &c);
        }
        reference.check_residence(2, &c);
        reference.check_inclusion(2, &c);
        let want: Vec<_> = reference
            .violations()
            .iter()
            .map(|v| (v.cycle, v.kind, v.detail.clone()))
            .collect();

        assert!(!want.is_empty(), "the planted state must violate something");
        assert_eq!(got, want);
        assert_eq!(
            swept.total_violations() - before as u64,
            reference.total_violations()
        );
    }

    #[test]
    fn recording_caps_but_counting_does_not() {
        let (l1, mut l2, protocol, maps, hv) = machine();
        for i in 0..10u64 {
            l2[0].insert(CacheLine::new(
                BlockAddr::new(i),
                TokenState {
                    tokens: 1,
                    owner: true,
                    dirty: false,
                },
                LineTag::Host,
            ));
        }
        let mut ch = InvariantChecker::new(CheckerConfig {
            sweep_every: 0,
            max_recorded: 3,
        });
        for i in 0..10u64 {
            ch.check_block(i, BlockAddr::new(i), &ctx(&l1, &l2, &protocol, &maps, &hv));
        }
        assert_eq!(ch.violations().len(), 3);
        // Each conjured line breaks conservation and owner uniqueness.
        assert_eq!(ch.total_violations(), 20);
    }

    #[test]
    fn valid_mask_handles_64_cores() {
        assert_eq!(valid_core_mask(64), u64::MAX);
        assert_eq!(valid_core_mask(16), 0xFFFF);
        assert_eq!(valid_core_mask(4), 0xF);
    }
}
