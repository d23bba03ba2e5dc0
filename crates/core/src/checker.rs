//! Runtime invariant checking for the coherence engine.
//!
//! The [`InvariantChecker`] is an always-on (when enabled) referee for the
//! token protocol and the virtual-snooping layer above it. After every
//! coherence transaction it verifies the *hard* invariants on the touched
//! block, and every `sweep_every` transactions it sweeps the whole
//! machine: every block held in an L2 or with tokens away from memory,
//! every residence counter, the L1/L2 inclusion property, and — when the
//! vCPU-map registers are trusted — map validity and coverage against the
//! hypervisor's placement.
//!
//! A sweep keeps no per-block state: it reads the set of blocks to check
//! off the machine itself, so it also covers lines cached before
//! [`Simulator::enable_checker`](crate::Simulator::enable_checker). Its
//! cost is bounded by the L2 capacity (plus one pass over the memory
//! ledger's bytes) and its memory is constant in run length.
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

use sim_mem::{BlockAddr, Cache, LineTag, TokenLedger};
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

/// The runtime invariant checker. See the module docs for the invariant
/// classes.
#[derive(Clone, Debug)]
pub struct InvariantChecker {
    cfg: CheckerConfig,
    /// Reusable scratch for the sweep's verdict: the distinct blocks of
    /// one set index across every L2, with their copies' token sums.
    set_blocks: Vec<HeldBlock>,
    /// Per hash bucket, the index in `set_blocks` of its latest block, or
    /// [`NO_BLOCK`].
    buckets: Vec<u32>,
    /// Reusable line counts per L2, one row per cache: one count per VM,
    /// then the host count. Filled by the sweep's verdict pass or by
    /// [`check_residence`](Self::check_residence)'s own scan.
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
            set_blocks: Vec::new(),
            buckets: Vec::new(),
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

    /// Per-block checks performed: one per checked transaction, plus one
    /// per block each sweep verified (every block held in an L2, or on a
    /// sweep that found a violation, every block held or with tokens
    /// away).
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
        let (mut tokens, owner) = ctx.protocol.memory_state(block);
        let mut owners = u32::from(owner);
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

    /// Sweeps the whole machine: every block held in an L2 or with tokens
    /// away from memory, residence counters, L1 inclusion, and (when
    /// `ctx.maps_trusted`) the map registers.
    ///
    /// The per-block invariants are first judged by a set-major pass that
    /// records nothing (`held_blocks_verdict`) and counts each L2's lines
    /// per VM on the way. Only when it finds a fault does the sweep run
    /// [`check_block`](Self::check_block) on every block held in an L2 or
    /// with tokens away, in ascending block order, and then
    /// [`check_residence`](Self::check_residence) with its own scan; those
    /// calls record the violations, so their classes, details and order
    /// are exactly theirs (pinned by a test). Otherwise the verdict's
    /// counts are compared with the counters as `check_residence` would.
    pub fn full_sweep(&mut self, cycle: u64, ctx: &CheckerCtx<'_>) {
        self.sweeps += 1;
        self.since_sweep = 0;
        match self.held_blocks_verdict(ctx) {
            Some(held) => {
                self.block_checks += held;
                self.compare_residence(cycle, ctx);
            }
            None => {
                self.check_held_and_away(cycle, ctx);
                self.check_residence(cycle, ctx);
            }
        }
        self.check_inclusion(cycle, ctx);
        if ctx.maps_trusted {
            self.check_maps(cycle, ctx);
        }
    }

    /// The sweep's verdict on the per-block invariants: `Some(n)` when
    /// each of the `n` blocks held in some L2 keeps them and no other
    /// block has tokens away from memory; `None` when some block breaks
    /// them, or when the L2s differ in geometry. Records nothing.
    ///
    /// All L2s share one geometry, so set `s` of every cache holds exactly
    /// the blocks that map to `s`: gathering set `s` across the caches
    /// gathers every cached copy of those blocks, and grouping them by
    /// block needs one small reusable table, chained by a hash of the
    /// block, instead of a table of every block.
    /// A held block that keeps the invariants has a line with a token, so
    /// memory lacks that token and its ledger entry is not in the reset
    /// state; counting the held blocks therefore counts the ledger entries
    /// they account for, and any other entry is tokens held nowhere.
    ///
    /// The pass reads every L2 line, so it also fills the residence scan
    /// that [`compare_residence`](Self::compare_residence) reads; the scan
    /// is complete only when the verdict is `Some`.
    fn held_blocks_verdict(&mut self, ctx: &CheckerCtx<'_>) -> Option<u64> {
        let geometry = ctx.l2.first()?.geometry();
        if ctx.l2.iter().any(|c| c.geometry() != geometry) {
            return None;
        }
        let total = ctx.protocol.total_tokens();
        let stride = self.reset_residence_scan(ctx);
        self.buckets.resize(BUCKETS, NO_BLOCK);
        let mut held = 0u64;
        for set in 0..geometry.sets() as usize {
            self.set_blocks.clear();
            self.buckets.fill(NO_BLOCK);
            for (cache, counts) in ctx
                .l2
                .iter()
                .zip(self.residence_scan.chunks_exact_mut(stride))
            {
                for l in cache.set_lines(set) {
                    tally(counts, l.tag);
                    let state = l.state;
                    if state.tokens == 0 || (state.dirty && !state.owner) {
                        return None;
                    }
                    let head = &mut self.buckets[bucket(l.block)];
                    let mut at = *head;
                    while at != NO_BLOCK && self.set_blocks[at as usize].block != l.block {
                        at = self.set_blocks[at as usize].next;
                    }
                    if at == NO_BLOCK {
                        at = self.set_blocks.len() as u32;
                        self.set_blocks.push(HeldBlock {
                            block: l.block,
                            tokens: 0,
                            owners: 0,
                            next: *head,
                        });
                        *head = at;
                    }
                    let b = &mut self.set_blocks[at as usize];
                    b.tokens += state.tokens;
                    b.owners += u32::from(state.owner);
                }
            }
            for b in &self.set_blocks {
                let (tokens, owner) = ctx.protocol.memory_state(b.block);
                if b.tokens + tokens != total || b.owners + u32::from(owner) != 1 {
                    return None;
                }
            }
            held += self.set_blocks.len() as u64;
        }
        (held == ctx.protocol.memory_entry_count() as u64).then_some(held)
    }

    /// The sweep's exact path: [`check_block`](Self::check_block) on every
    /// block held in an L2 or with tokens away from memory, in ascending
    /// order. Runs only once a fault is known, so it may allocate.
    fn check_held_and_away(&mut self, cycle: u64, ctx: &CheckerCtx<'_>) {
        let mut blocks: Vec<BlockAddr> = ctx
            .l2
            .iter()
            .flat_map(Cache::lines)
            .map(|l| l.block)
            .chain(
                ctx.protocol
                    .memory_entries_sorted()
                    .into_iter()
                    .map(|(block, _, _)| block),
            )
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        for block in blocks {
            self.check_block(cycle, block, ctx);
        }
    }

    /// Verifies every cache's per-VM (and host) residence counters
    /// against an actual scan of its tags.
    pub fn check_residence(&mut self, cycle: u64, ctx: &CheckerCtx<'_>) {
        let stride = self.reset_residence_scan(ctx);
        for (cache, counts) in ctx
            .l2
            .iter()
            .zip(self.residence_scan.chunks_exact_mut(stride))
        {
            for line in cache.lines() {
                tally(counts, line.tag);
            }
        }
        self.compare_residence(cycle, ctx);
    }

    /// Zeroes the residence scan for the L2s of `ctx` and returns its row
    /// length: one count per VM of the map file, then the host count.
    fn reset_residence_scan(&mut self, ctx: &CheckerCtx<'_>) -> usize {
        let stride = ctx.maps.len() + 1;
        self.residence_scan.clear();
        self.residence_scan.resize(ctx.l2.len() * stride, 0);
        stride
    }

    /// Compares every cache's residence counters with its row of the
    /// residence scan, cache by cache, VMs before the host.
    fn compare_residence(&mut self, cycle: u64, ctx: &CheckerCtx<'_>) {
        let scan = std::mem::take(&mut self.residence_scan);
        let stride = ctx.maps.len() + 1;
        for (core, (cache, counts)) in ctx.l2.iter().zip(scan.chunks_exact(stride)).enumerate() {
            let (vms, host) = counts.split_at(stride - 1);
            for (vm_idx, &expected) in vms.iter().enumerate() {
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
            let (host_counter, host) = (cache.host_residence(), host[0]);
            if host_counter != host {
                self.record(
                    cycle,
                    InvariantKind::ResidenceCounter,
                    format!("core {core}: host residence counter {host_counter}, scan says {host}"),
                );
            }
        }
        self.residence_scan = scan;
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

/// One block of the set the sweep's verdict is judging: the tokens and
/// owner tokens its cached copies hold, and the previous block of its
/// hash bucket.
#[derive(Clone, Copy, Debug)]
struct HeldBlock {
    block: BlockAddr,
    tokens: u32,
    owners: u32,
    next: u32,
}

/// Hash buckets of the verdict's per-set block table.
const BUCKETS: usize = 256;
/// An empty bucket, or the end of a chain.
const NO_BLOCK: u32 = u32::MAX;

/// The verdict's hash bucket of `block`: the top byte of a multiplicative
/// hash, which mixes in the high bits that tell one set's blocks apart.
fn bucket(block: BlockAddr) -> usize {
    (block.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

/// Counts a line tagged `tag` in one cache's row of the residence scan:
/// a VM the map file knows, or the host in the last slot. A tag naming a
/// VM beyond the map file is not counted.
fn tally(counts: &mut [u64], tag: LineTag) {
    let host = counts.len() - 1;
    match tag {
        LineTag::Vm(vm) if vm.index() < host => counts[vm.index()] += 1,
        LineTag::Vm(_) => {}
        LineTag::Host => counts[host] += 1,
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
    use sim_mem::{
        CacheGeometry, CacheLine, LineTag, ReadMode, TokenMemory, TokenProtocol, TokenState,
    };
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

    /// `(cycle, kind, detail)` of every violation `ch` recorded.
    fn recorded(ch: &InvariantChecker) -> Vec<(u64, InvariantKind, String)> {
        ch.violations()
            .iter()
            .map(|v| (v.cycle, v.kind, v.detail.clone()))
            .collect()
    }

    /// The sweep's specification: `check_block` over every block held in
    /// an L2 or with tokens away, in ascending order, then the residence
    /// and inclusion checks.
    fn reference_sweep(cycle: u64, cfg: CheckerConfig, c: &CheckerCtx<'_>) -> InvariantChecker {
        let mut blocks: Vec<BlockAddr> =
            c.l2.iter()
                .flat_map(Cache::lines)
                .map(|l| l.block)
                .collect();
        blocks.extend(c.protocol.memory_entries_sorted().iter().map(|e| e.0));
        blocks.sort_unstable();
        blocks.dedup();
        let mut reference = InvariantChecker::new(cfg);
        for b in blocks {
            reference.check_block(cycle, b, c);
        }
        reference.check_residence(cycle, c);
        reference.check_inclusion(cycle, c);
        reference
    }

    #[test]
    fn sweep_matches_per_block_checks_in_sorted_order() {
        // The sweep must produce exactly the violations that per-block
        // `check_block` calls over the sorted blocks held in any L2 or
        // with tokens away would: same classes, same details, same order.
        // Plant a messy machine to exercise every per-block class on
        // several cores.
        let (mut l1, mut l2, mut protocol, maps, hv) = machine();
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
        // Blocks inserted out of order to exercise the sort.
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
        // A cached block no transaction named: reported by both forms.
        l2[0].insert(CacheLine::new(
            BlockAddr::new(77),
            double_owner,
            LineTag::Host,
        ));
        // Orphaned tokens: a fill takes every token of block 40 from
        // memory, then the line is dropped with no writeback. No cache
        // holds the block, yet its tokens are away.
        let orphan = BlockAddr::new(40);
        let r = protocol.read_miss(
            &mut l2,
            2,
            &[0, 1, 3],
            orphan,
            true,
            LineTag::Host,
            ReadMode::Strict,
        );
        assert!(r.success);
        l2[2].remove(orphan).expect("filled");
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
        // The sweep needs no transaction history: a fresh checker sees
        // every block the machine holds or owes.
        let mut swept = InvariantChecker::new(cfg);
        swept.full_sweep(2, &c);
        let reference = reference_sweep(2, cfg, &c);

        let want = recorded(&reference);
        for block in [2u64, 5, 9, 40, 77] {
            let name = format!("{:?}", BlockAddr::new(block));
            assert!(
                want.iter().any(|v| v.2.contains(&name)),
                "block {block} must be reported: {want:?}"
            );
        }
        assert_eq!(recorded(&swept), want);
        assert_eq!(swept.total_violations(), reference.total_violations());
        assert_eq!(swept.block_checks(), reference.block_checks());
    }

    /// A bare memory-side ledger, so a test can take tokens away from
    /// memory without a cache receiving them.
    #[derive(Debug)]
    struct Ledger(TokenMemory);

    impl TokenLedger for Ledger {
        fn total_tokens(&self) -> u32 {
            self.0.total()
        }
        fn memory_tokens(&self, block: BlockAddr) -> u32 {
            self.0.tokens(block)
        }
        fn memory_has_owner(&self, block: BlockAddr) -> bool {
            self.0.has_owner(block)
        }
        fn memory_entries_sorted(&self) -> Vec<(BlockAddr, u32, bool)> {
            let mut v: Vec<_> = self.0.entries().collect();
            v.sort_unstable_by_key(|e| e.0);
            v
        }
        fn memory_entry_count(&self) -> usize {
            self.0.entry_count()
        }
    }

    /// Seeded random plantings: legal token placements, then zero to
    /// three faults (conjured, mutated or dropped lines, L1 orphans,
    /// memory takes). Whether the sweep's verdict passes or it falls back
    /// to per-block checks, what it records must equal the specification.
    /// The 400 plantings (123 of them clean) take ~0.02 s in a debug
    /// build on a 2-CPU x86_64 host.
    #[test]
    fn sweep_verdict_matches_per_block_checks_on_random_plantings() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        const TOTAL: u32 = N as u32;
        let cfg = CheckerConfig {
            sweep_every: 0,
            max_recorded: 10_000,
        };
        let mut rng = SmallRng::seed_from_u64(0x5EED_C4EC);
        let (mut clean, mut faulty) = (0, 0);
        for trial in 0..400 {
            let (mut l1, mut l2, _, maps, hv) = machine();
            let mut mem = Ledger(TokenMemory::new(TOTAL));
            let block = |rng: &mut SmallRng| BlockAddr::new(rng.gen_range(0..256u64));
            let tag = |rng: &mut SmallRng| LineTag::Vm(VmId::new(rng.gen_range(0..2u16)));
            // Legal placements: holders share the tokens taken from
            // memory; the owner token leaves only with the last token.
            for _ in 0..rng.gen_range(0..12u32) {
                let b = block(&mut rng);
                if l2.iter().any(|c| c.probe(b).is_some()) || !mem.0.all_home(b) {
                    continue;
                }
                let holders = rng.gen_range(1..N + 1);
                let first = rng.gen_range(0..N);
                let all = holders == N || rng.gen_bool(0.5);
                let extra = if all { TOTAL - holders as u32 } else { 0 };
                let taken = holders as u32 + extra;
                let (got, owner) = mem.0.take(b, taken);
                assert_eq!((got, owner), (taken, all));
                let owner_at = rng.gen_range(0..holders);
                for h in 0..holders {
                    let state = TokenState {
                        tokens: 1 + if h == 0 { extra } else { 0 },
                        owner: all && h == owner_at,
                        dirty: all && h == owner_at && rng.gen_bool(0.5),
                    };
                    let t = tag(&mut rng);
                    l2[(first + h) % N].insert(CacheLine::new(b, state, t));
                }
            }
            let faults = rng.gen_range(0..4u32);
            for _ in 0..faults {
                let core = rng.gen_range(0..N);
                match rng.gen_range(0..5u32) {
                    0 => {
                        let state = TokenState {
                            tokens: rng.gen_range(0..TOTAL + 1),
                            owner: rng.gen_bool(0.5),
                            dirty: rng.gen_bool(0.5),
                        };
                        let (b, t) = (block(&mut rng), tag(&mut rng));
                        l2[core].insert(CacheLine::new(b, state, t));
                    }
                    1 => {
                        let b = block(&mut rng);
                        mem.0.take(b, rng.gen_range(1..TOTAL + 1));
                    }
                    2 => {
                        let held: Vec<BlockAddr> = l2[core].lines().map(|l| l.block).collect();
                        if let Some(&b) = held.get(rng.gen_range(0..held.len().max(1))) {
                            let line = l2[core].probe_mut(b).expect("held");
                            match rng.gen_range(0..3u32) {
                                0 => line.state.owner = !line.state.owner,
                                1 => line.state.dirty = !line.state.dirty,
                                _ => line.state.tokens = rng.gen_range(0..TOTAL + 1),
                            }
                        }
                    }
                    3 => {
                        let held: Vec<BlockAddr> = l2[core].lines().map(|l| l.block).collect();
                        if let Some(&b) = held.get(rng.gen_range(0..held.len().max(1))) {
                            l2[core].remove(b);
                        }
                    }
                    _ => {
                        let (b, t) = (block(&mut rng), tag(&mut rng));
                        l1[core].insert(CacheLine::new(b, TokenState::shared_one(), t));
                    }
                }
            }

            let c = CheckerCtx {
                l1: &l1,
                l2: &l2,
                protocol: &mem,
                maps: &maps,
                hv: &hv,
                maps_trusted: false,
            };
            let mut swept = InvariantChecker::new(cfg);
            swept.full_sweep(trial, &c);
            let reference = reference_sweep(trial, cfg, &c);
            assert_eq!(recorded(&swept), recorded(&reference), "trial {trial}");
            assert_eq!(swept.total_violations(), reference.total_violations());
            assert_eq!(
                swept.block_checks(),
                reference.block_checks(),
                "trial {trial}"
            );
            if reference.total_violations() == 0 {
                clean += 1;
            } else {
                faulty += 1;
            }
        }
        // Both the verdict's pass and its fallback are exercised.
        assert!(
            clean >= 50 && faulty >= 50,
            "clean {clean}, faulty {faulty}"
        );
    }

    /// Residence faults alone leave the per-block verdict passing, so the
    /// sweep judges the counters from the verdict's own counts; what it
    /// records must equal `check_residence`'s standalone scan.
    #[test]
    fn sweep_residence_from_verdict_matches_standalone_scan() {
        let (l1, mut l2, mut protocol, maps, hv) = machine();
        for (i, core) in [0usize, 1, 2, 3, 1, 0, 2].into_iter().enumerate() {
            let others: Vec<usize> = (0..N).filter(|&j| j != core).collect();
            let vm = LineTag::Vm(VmId::new((i % 2) as u16));
            let b = BlockAddr::new(3 + 5 * i as u64);
            let r = protocol.read_miss(&mut l2, core, &others, b, true, vm, ReadMode::Strict);
            assert!(r.success);
        }
        // Tags rewritten behind the counters: to the other VM, to the
        // host, and to a VM beyond the map file, which no scan counts.
        l2[0].probe_mut(BlockAddr::new(3)).unwrap().tag = LineTag::Vm(VmId::new(1));
        l2[1].probe_mut(BlockAddr::new(8)).unwrap().tag = LineTag::Host;
        l2[2].probe_mut(BlockAddr::new(13)).unwrap().tag = LineTag::Vm(VmId::new(5));

        let cfg = CheckerConfig {
            sweep_every: 0,
            max_recorded: 100,
        };
        let c = ctx(&l1, &l2, &protocol, &maps, &hv);
        let mut swept = InvariantChecker::new(cfg);
        swept.full_sweep(4, &c);
        let reference = reference_sweep(4, cfg, &c);
        let got = recorded(&swept);
        assert_eq!(got.len(), 5, "{got:?}");
        assert!(got.iter().all(|v| v.1 == InvariantKind::ResidenceCounter));
        assert_eq!(got, recorded(&reference));
        assert_eq!(swept.block_checks(), reference.block_checks());
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
