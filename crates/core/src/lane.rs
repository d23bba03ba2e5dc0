//! Filter lanes: the per-policy half of a [`Simulator`].
//!
//! A snoop filter only chooses *which* caches a request visits; it never
//! changes what they hold (`tests/differential_oracle.rs`, with and
//! without migrations). A [`FilterLane`] is everything that choice
//! depends on or produces: the policy, the vCPU-map registers, the
//! counter-removal timers and log, the policy-dependent counters and the
//! lane's own mesh traffic. Lanes see the machine only through a
//! [`LaneCtx`] of shared borrows, so "the filter refines broadcast" is
//! enforced by the borrow checker: a lane has no write path into the
//! caches or the token ledger.
//!
//! Every simulator has one primary lane, whose policy drives the token
//! transactions. Lanes added with [`Simulator::add_filter_lanes`] ride
//! along in lock-step: each transaction probes the block's holders once
//! ([`BlockView`]) before the primary lane's token operation, and every
//! extra lane then replays its own attempt ladder against a private copy
//! of that view — its destinations, retries, snoops, traffic, stalls and
//! counter removals — exactly as a standalone run under its policy would
//! have. Nothing is buffered across transactions.
//!
//! The probe is narrowed. It first visits the requester and the caches
//! any extra lane's first attempt snoops, and visits the other caches
//! only when the tokens it has seen there and at memory fall short of the
//! block's total. That is exact, not a heuristic: tokens are conserved,
//! and every valid L2 line holds at least one token (both checker
//! invariants), so once the count is complete no unvisited cache can
//! hold the block.

use super::*;

/// The policy-specific state of one simulated filter.
#[derive(Clone)]
pub(super) struct FilterLane {
    pub(super) policy: FilterPolicy,
    pub(super) maps: VcpuMapFile,
    /// `[core][vm]` — cycle at which the VM's last vCPU left the core,
    /// pending a counter-driven removal (Fig. 9's measurement start).
    pub(super) removal_pending: Vec<Vec<Option<u64>>>,
    pub(super) removal_log: Vec<RemovalEvent>,
    /// The primary lane counts everything; an extra lane counts only
    /// what its policy can change ([`FilterLane::standalone_stats`]
    /// completes it from the primary lane).
    pub(super) stats: SimStats,
    /// The lane's message accounting; its byte-links also drive the
    /// lane's contention model.
    pub(super) net: Network,
}

/// The read-only machine state a lane's accounting consults.
#[derive(Clone, Copy)]
pub(super) struct LaneCtx<'a> {
    pub(super) cfg: &'a SystemConfig,
    pub(super) l2: &'a [Cache],
    pub(super) hv: &'a Hypervisor,
    pub(super) friends: &'a [Option<VmId>],
    pub(super) region_filter: Option<&'a RegionFilter>,
    pub(super) content_policy: ContentPolicy,
    pub(super) cycle: u64,
}

/// One rung of the retry ladder as the lane's filter chose it.
pub(super) struct Attempt {
    pub(super) dests: u64,
    pub(super) include_memory: bool,
    pub(super) degraded: bool,
    pub(super) filtered: bool,
    pub(super) persistent: bool,
}

/// Who heard an attempt's requests, and its worst request leg.
pub(super) struct Sent {
    pub(super) delivered: u64,
    pub(super) memory_heard: bool,
    pub(super) worst_req_lat: u64,
}

impl FilterLane {
    pub(super) fn new(
        policy: FilterPolicy,
        maps: VcpuMapFile,
        cfg: &SystemConfig,
        net: Network,
    ) -> Self {
        let n = cfg.n_cores();
        FilterLane {
            policy,
            maps,
            removal_pending: vec![vec![None; cfg.n_vms]; n],
            removal_log: Vec::new(),
            stats: SimStats::new(n),
            net,
        }
    }

    /// The statistics a standalone run under this lane's policy would
    /// report: the counters this module increments from the lane, the
    /// machine's counters from `primary`, the primary lane's stats.
    ///
    /// The destructuring names every field of [`SimStats`], so a new
    /// counter does not compile until it is sorted into one of the two.
    pub(super) fn standalone_stats(&self, primary: &SimStats) -> SimStats {
        let SimStats {
            snoops,
            retries,
            broadcast_fallbacks,
            persistent_requests,
            degraded_broadcasts,
            map_repairs,
            holders_intra_vm,
            holders_friend_vm,
            data_intra_vm,
            data_other_vm,
            data_memory,
            map_adds,
            map_removes,
            ref stall_cycles,
            // Machine counters: the lanes share one architectural run.
            rounds: _,
            accesses: _,
            l1_hits: _,
            l2_hits: _,
            l2_misses: _,
            misses_guest: _,
            misses_dom0: _,
            misses_hyp: _,
            misses_private: _,
            misses_rw_shared: _,
            misses_ro_shared: _,
            content_accesses: _,
            holders_any_cache: _,
            holders_memory: _,
            writebacks: _,
        } = self.stats;
        SimStats {
            snoops,
            retries,
            broadcast_fallbacks,
            persistent_requests,
            degraded_broadcasts,
            map_repairs,
            holders_intra_vm,
            holders_friend_vm,
            data_intra_vm,
            data_other_vm,
            data_memory,
            map_adds,
            map_removes,
            stall_cycles: stall_cycles.clone(),
            ..primary.clone()
        }
    }

    pub(super) fn reset_measurement(&mut self) {
        self.stats = SimStats::new(self.stats.stall_cycles.len());
        self.net.reset_traffic();
        self.removal_log.clear();
    }

    /// Picks attempt `attempt`'s destinations and counts the rung.
    ///
    /// This and the other per-attempt helpers are forced inline: they
    /// cross a module boundary, and left to the compiler they fall out
    /// of `Simulator::step`, which costs the single-lane hot path.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn begin_attempt(
        &mut self,
        ctx: &LaneCtx<'_>,
        c: usize,
        agent: Agent,
        sharing: SharingType,
        block: BlockAddr,
        attempt: u32,
        persistent: bool,
    ) -> Attempt {
        let filtered = attempt < 2;
        let (dests, include_memory, degraded) = if persistent {
            (
                valid_core_mask(ctx.cfg.n_cores()) & !(1u64 << c),
                true,
                false,
            )
        } else {
            self.destinations(ctx, c, agent, sharing, filtered, block)
        };
        if attempt > 0 {
            self.stats.retries += 1;
            if attempt == 2 {
                self.stats.broadcast_fallbacks += 1;
            }
        }
        if persistent {
            self.stats.persistent_requests += 1;
        }
        if degraded && attempt == 0 {
            // The requester's map register failed validation; this
            // transaction runs as a full broadcast (degraded mode).
            self.stats.degraded_broadcasts += 1;
        }
        Attempt {
            dests,
            include_memory,
            degraded,
            filtered,
            persistent,
        }
    }

    /// Request traffic: one control message per snooped cache, plus one
    /// to the memory controller when memory participates, and the snoop
    /// count of the caches that heard it.
    ///
    /// The *worst* leg only matters for failed attempts (the requester
    /// must conclude nobody will answer); successful transactions are
    /// gated by the leg to the actual responder. Fault-free, every
    /// request is delivered at its base latency, so the whole fan-out is
    /// one batched multicast (same traffic, and the multicast's worst leg
    /// equals the per-send maximum because latency is monotone in hops).
    /// Under link faults each request must be judged individually — and
    /// in ascending destination order, to preserve the fault RNG stream.
    #[inline(always)]
    pub(super) fn send_requests(&mut self, c: usize, a: &Attempt) -> Sent {
        let req_kind = if a.persistent {
            MessageKind::Persistent
        } else {
            MessageKind::Request
        };
        let src = NodeId::new(c as u16);
        let (delivered, mut worst_req_lat) = if self.net.link_faults().is_some() {
            // Core `c` is mesh node `c`, so the core mask is a node mask.
            let out = self.net.send_fanout(src, a.dests, req_kind);
            (out.delivered, out.latency)
        } else {
            let nodes = mask_cores(a.dests).map(|d| NodeId::new(d as u16));
            (a.dests, self.net.multicast(src, nodes, req_kind))
        };
        let mut memory_heard = a.include_memory;
        if a.include_memory {
            let out = self.net.send_to_memory(src, req_kind);
            worst_req_lat = worst_req_lat.max(out.latency);
            memory_heard = out.delivered;
        }
        // The paper counts the requester's own tag lookup too (ideal
        // filtering on 16 cores -> 25% of baseline snoops). A dropped
        // request never reaches a tag array, so only delivered ones count.
        self.stats.snoops += u64::from(delivered.count_ones()) + 1;
        Sent {
            delivered,
            memory_heard,
            worst_req_lat,
        }
    }

    /// Reply traffic and the attempt's stall: token-only replies, the
    /// data response, and the contention-scaled round trip charged to
    /// the requester whether or not the attempt succeeded (failed
    /// attempts cost real time).
    #[inline(always)]
    pub(super) fn finish_attempt(
        &mut self,
        ctx: &LaneCtx<'_>,
        c: usize,
        agent: Agent,
        outcome: &TxOutcome,
        worst_req_lat: u64,
    ) {
        let src = NodeId::new(c as u16);
        // Token-only replies, all converging on the requester. Mesh hops
        // are symmetric, so accounting them as one multicast *from* the
        // requester moves exactly the same byte-links.
        if outcome.token_repliers != 0 {
            self.net.multicast(
                src,
                mask_cores(outcome.token_repliers).map(|r| NodeId::new(r as u16)),
                MessageKind::TokenReply,
            );
        }
        // The transaction is gated by the round trip to the responder
        // (the data holder answers as soon as *it* receives the request,
        // regardless of how far the other snooped caches are).
        let lm = *self.net.latency_model();
        let round_trip = match outcome.source {
            Some(DataSource::Cache(h)) => {
                let holder = NodeId::new(h as u16);
                let resp = self.net.unicast(holder, src, MessageKind::Data);
                self.count_data_source(h, agent.guest_vm());
                let req_leg =
                    lm.base_latency(self.net.hops(src, holder), MessageKind::Request.bytes());
                req_leg + resp
            }
            Some(DataSource::Memory) => {
                let resp = self.net.from_memory(src, MessageKind::Data) + ctx.cfg.memory_latency;
                self.stats.data_memory += 1;
                let port = self.net.nearest_port(src);
                let req_leg =
                    lm.base_latency(self.net.hops(src, port), MessageKind::Request.bytes());
                req_leg + resp
            }
            // Failed attempt (or a dataless upgrade): the requester waits
            // out the worst request leg plus a reply leg.
            None => 2 * worst_req_lat,
        };
        let base = ctx.cfg.l2_latency + round_trip;
        let stall = ctx
            .cfg
            .network
            .contended_latency(base, self.utilization(ctx));
        self.stats.stall_cycles[c] += stall;
    }

    /// Exponential escalation after a failed attempt: each failed
    /// broadcast rung backs off twice as long before re-arbitrating
    /// (reachable only under link faults — fault-free, the first
    /// broadcast succeeds).
    #[inline]
    pub(super) fn back_off(&mut self, c: usize, attempt: u32, worst_req_lat: u64) {
        if attempt >= 2 {
            let backoff = worst_req_lat.saturating_mul(1u64 << (attempt - 2).min(8));
            self.stats.stall_cycles[c] += backoff;
        }
    }

    /// Replays one transaction under this lane's policy against `view`,
    /// the block's state before the primary lane's token operation ran.
    /// `evicted_dirty` is the fill's victim (`Some(dirty)`), which every
    /// policy displaces alike. Runs only on fault-free simulators, so the
    /// ladder is the original three transient attempts.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn replay(
        &mut self,
        ctx: &LaneCtx<'_>,
        mut view: BlockView,
        c: usize,
        access: TraceAccess,
        block: BlockAddr,
        sharing: SharingType,
        evicted_dirty: Option<bool>,
    ) {
        const TRANSIENT_ATTEMPTS: u32 = 3;
        for attempt in 0..=TRANSIENT_ATTEMPTS {
            let persistent = attempt == TRANSIENT_ATTEMPTS;
            let a = self.begin_attempt(ctx, c, access.agent, sharing, block, attempt, persistent);
            let sent = self.send_requests(c, &a);
            let outcome = view.attempt(access.write, sent.delivered, sent.memory_heard);
            self.finish_attempt(ctx, c, access.agent, &outcome, sent.worst_req_lat);
            self.on_invalidated(ctx, outcome.invalidated);
            if outcome.success {
                if let Some(dirty) = evicted_dirty {
                    self.on_eviction(ctx, c, dirty);
                }
                return;
            }
            self.back_off(c, attempt, sent.worst_req_lat);
        }
        unreachable!("a broadcast over the probed holders always succeeds");
    }

    /// Computes the snoop destination set (as a core bitmask), whether
    /// memory participates, and whether the filter had to *degrade* to
    /// broadcast because the requester's vCPU-map register failed
    /// validation (see [`FilterLane::map_usable`]).
    #[inline(always)]
    pub(super) fn destinations(
        &self,
        ctx: &LaneCtx<'_>,
        requester: usize,
        agent: Agent,
        sharing: SharingType,
        filtered: bool,
        block: BlockAddr,
    ) -> (u64, bool, bool) {
        let broadcast = valid_core_mask(ctx.cfg.n_cores()) & !(1u64 << requester);
        if !filtered || !self.policy.filters() {
            return (broadcast, true, false);
        }
        if let Some(rf) = ctx.region_filter {
            // Region filtering is address-based, not VM-based: a miss to a
            // region this core verified as not-shared goes memory-direct;
            // everything else broadcasts (RegionScout has no multicast).
            let region = rf.region_of(block);
            return if rf.nsrt_contains(requester, region) {
                (0, true, false)
            } else {
                (broadcast, true, false)
            };
        }
        let Some(vm) = agent.guest_vm() else {
            // Hypervisor and dom0 requests must always be broadcast.
            return (broadcast, true, false);
        };
        // Validate the register(s) the filter is about to trust; a failed
        // check falls back to full broadcast (correct by construction —
        // broadcast is what an unfiltered protocol would do) and is
        // counted as a degraded-mode transaction.
        let usable = |ok: bool, dests: u64| {
            if ok {
                (dests, true, false)
            } else {
                (broadcast, true, true)
            }
        };
        let cfg = ctx.cfg;
        match sharing {
            SharingType::RwShared => (broadcast, true, false),
            SharingType::VmPrivate => usable(
                self.map_usable(cfg, vm, None, requester),
                self.map_dests(cfg, vm, None, requester),
            ),
            SharingType::RoShared => match ctx.content_policy {
                ContentPolicy::Broadcast => (broadcast, true, false),
                ContentPolicy::MemoryDirect => (0, true, false),
                ContentPolicy::IntraVm => usable(
                    self.map_usable(cfg, vm, None, requester),
                    self.map_dests(cfg, vm, None, requester),
                ),
                ContentPolicy::FriendVm => {
                    let friend = ctx.friends[vm.index()];
                    usable(
                        self.map_usable(cfg, vm, friend, requester),
                        self.map_dests(cfg, vm, friend, requester),
                    )
                }
            },
        }
    }

    /// Requester-side validation of the vCPU-map register(s) a filtered
    /// snoop is about to trust — both checks are local and cheap, exactly
    /// what filter hardware could implement:
    ///
    /// * no bit beyond the physical core count (a garbage register), and
    /// * the requester's own core present in its VM's map (a core running
    ///   the VM is by definition in its snoop domain — its absence means
    ///   the register is stale or corrupted).
    ///
    /// A friend VM's register only needs the validity check: the friend
    /// does not run on the requester's core, and a *missing* friend bit
    /// merely under-filters, which the transient retry ladder already
    /// absorbs (the safe-retry property).
    #[inline]
    pub(super) fn map_usable(
        &self,
        cfg: &SystemConfig,
        vm: VmId,
        friend: Option<VmId>,
        requester: usize,
    ) -> bool {
        let valid = valid_core_mask(cfg.n_cores());
        let own = self.maps.map(vm.index()).mask();
        if own & !valid != 0 || own & (1u64 << requester) == 0 {
            return false;
        }
        match friend {
            Some(f) => self.maps.map(f.index()).mask() & !valid == 0,
            None => true,
        }
    }

    /// Snoop destinations from the VM's (and optionally a friend's) vCPU
    /// map: the union mask clipped to physical cores, minus the requester.
    #[inline]
    fn map_dests(
        &self,
        cfg: &SystemConfig,
        vm: VmId,
        friend: Option<VmId>,
        requester: usize,
    ) -> u64 {
        let mut mask = self.maps.map(vm.index()).mask();
        if let Some(f) = friend {
            mask |= self.maps.map(f.index()).mask();
        }
        mask & valid_core_mask(cfg.n_cores()) & !(1u64 << requester)
    }

    /// A vCPU of `vm` moved from `old` to `new`: add the new core to the
    /// map (unless a map-sync-delay fault defers it), cancel the new
    /// core's removal timer, and start the old core's if the VM left it.
    pub(super) fn relocate(
        &mut self,
        ctx: &LaneCtx<'_>,
        vm: VmId,
        old: CoreId,
        new: CoreId,
        sync_now: bool,
    ) {
        if sync_now && self.maps.add_core(vm.index(), new) {
            self.stats.map_adds += 1;
            self.account_map_sync(ctx.cfg, vm);
        }
        // The VM reappeared on `new`: cancel any pending removal timer.
        self.removal_pending[new.index()][vm.index()] = None;
        // If the VM no longer runs on `old`, start the removal timer.
        if ctx.hv.cores_of_vm(vm) & (1 << old.index()) == 0 {
            self.removal_pending[old.index()][vm.index()] = Some(ctx.cycle);
            // The counter may already be below the removal threshold
            // (even zero) at departure time; check immediately.
            self.maybe_remove_core(ctx, old.index(), vm);
        }
    }

    /// Residence-counter events for the caches whose line for the block
    /// disappeared.
    #[inline]
    pub(super) fn on_invalidated(&mut self, ctx: &LaneCtx<'_>, invalidated: u64) {
        if !self.policy.removes_cores() {
            return;
        }
        for j in mask_cores(invalidated) {
            // The removed L2 line's tag determined which VM's counter
            // dropped; rather than thread the tag through, check every
            // VM with a pending removal on that cache.
            self.check_pending_removals(ctx, j);
        }
    }

    /// A line left `c`'s L2: its write-back (or token return) travels to
    /// memory and the residence counters may now allow a removal.
    #[inline]
    pub(super) fn on_eviction(&mut self, ctx: &LaneCtx<'_>, c: usize, dirty: bool) {
        let kind = if dirty {
            MessageKind::Writeback
        } else {
            MessageKind::TokenReply
        };
        self.net.to_memory(NodeId::new(c as u16), kind);
        self.check_pending_removals(ctx, c);
    }

    /// Re-evaluates counter-based removal for every VM with a pending
    /// timer on cache `j`, plus any VM whose counter is at zero while not
    /// running there.
    #[inline]
    pub(super) fn check_pending_removals(&mut self, ctx: &LaneCtx<'_>, j: usize) {
        if !self.policy.removes_cores() {
            return;
        }
        for vm_idx in 0..ctx.cfg.n_vms {
            self.maybe_remove_core(ctx, j, VmId::new(vm_idx as u16));
        }
    }

    fn maybe_remove_core(&mut self, ctx: &LaneCtx<'_>, j: usize, vm: VmId) {
        let threshold = match self.policy {
            FilterPolicy::Counter => 1,
            FilterPolicy::CounterThreshold { threshold } => threshold.max(1),
            _ => return,
        };
        // Cheapest check first: all three are side-effect-free.
        if !self.maps.map(vm.index()).contains(CoreId::new(j as u16)) {
            return;
        }
        if ctx.l2[j].residence(vm) >= threshold {
            return;
        }
        // Never remove a core the VM is currently running on.
        if ctx.hv.cores_of_vm(vm) & (1 << j) != 0 {
            return;
        }
        self.maps.remove_core(vm.index(), CoreId::new(j as u16));
        self.stats.map_removes += 1;
        self.account_map_sync(ctx.cfg, vm);
        let period = self.removal_pending[j][vm.index()]
            .take()
            .map(|t0| ctx.cycle - t0);
        self.removal_log.push(RemovalEvent {
            cycle: ctx.cycle,
            core: j,
            vm: vm.index(),
            period,
        });
    }

    /// Charges the vCPU-map synchronization messages: the hypervisor sends
    /// the new value to every core in the (updated) map.
    pub(super) fn account_map_sync(&mut self, cfg: &SystemConfig, vm: VmId) {
        // Mask to physical cores: a corrupted register can hold bits
        // beyond the mesh, but the hypervisor's update broadcast only ever
        // targets real cores.
        let mask = self.maps.map(vm.index()).mask() & valid_core_mask(cfg.n_cores());
        if mask == 0 {
            return;
        }
        let first = mask.trailing_zeros();
        let src = NodeId::new(first as u16);
        let rest = mask & (mask - 1);
        self.net.multicast(
            src,
            mask_cores(rest).map(|c| NodeId::new(c as u16)),
            MessageKind::MapUpdate,
        );
    }

    #[inline]
    pub(super) fn count_data_source(&mut self, holder: usize, vm: Option<VmId>) {
        match vm {
            Some(vm)
                if self
                    .maps
                    .map(vm.index())
                    .contains(CoreId::new(holder as u16)) =>
            {
                self.stats.data_intra_vm += 1;
            }
            _ => self.stats.data_other_vm += 1,
        }
    }

    /// Table VI's per-map half: whether a cache in the VM's map, or
    /// failing that its friend's, holds the content-shared block.
    pub(super) fn classify_holders(&mut self, holders: u64, vm: VmId, friends: &[Option<VmId>]) {
        if holders & self.maps.map(vm.index()).mask() != 0 {
            self.stats.holders_intra_vm += 1;
        } else if let Some(f) = friends[vm.index()] {
            if holders & self.maps.map(f.index()).mask() != 0 {
                self.stats.holders_friend_vm += 1;
            }
        }
    }

    /// Average link utilization so far (for the contention factor); 0 on
    /// a mesh with no links, whose messages never leave their router.
    #[inline]
    pub(super) fn utilization(&self, ctx: &LaneCtx<'_>) -> f64 {
        let links = self.net.mesh().links();
        if ctx.cycle == 0 || links == 0 {
            return 0.0;
        }
        let capacity = links as f64 * ctx.cfg.network.link_bytes as f64 * ctx.cycle as f64;
        self.net.traffic().byte_links() as f64 / capacity
    }
}

/// One block's coherence state just before a transaction: which remote
/// caches hold it with how many tokens, where the owner token is, what
/// memory holds, and the requester's own copy. An extra lane replays its
/// attempts against a private copy, mirroring
/// [`TokenProtocol::write_miss_masked`] and the strict-mode
/// [`TokenProtocol::read_miss_masked`] — including a failed GETX that
/// bounces the tokens it collected to memory.
#[derive(Clone, Copy)]
pub(super) struct BlockView {
    holders: u64,
    owner: Option<usize>,
    tokens: [u8; 64],
    mem_tokens: u32,
    mem_owner: bool,
    /// Tokens of the requester's existing line, when it has one.
    have: Option<u32>,
    total: u32,
}

impl BlockView {
    /// Probes `block` in the caches of `first` and at memory, and in the
    /// other caches only if the tokens seen so far fall short of the
    /// block's total; `valid_core_mask(l2.len())` probes every cache.
    ///
    /// Exact for any `first`: tokens are conserved and a valid line holds
    /// at least one, so a complete count proves no other cache holds the
    /// block. For the same reason a block whose tokens are all at memory
    /// is not probed at all.
    pub(super) fn probe(
        l2: &[Cache],
        ledger: &dyn TokenLedger,
        requester: usize,
        block: BlockAddr,
        first: u64,
    ) -> Self {
        let (mem_tokens, mem_owner) = ledger.memory_state(block);
        let mut view = BlockView {
            holders: 0,
            owner: None,
            tokens: [0; 64],
            mem_tokens,
            mem_owner,
            have: None,
            total: ledger.total_tokens(),
        };
        if view.mem_tokens == view.total {
            return view;
        }
        let all = valid_core_mask(l2.len());
        let seen = view.mem_tokens + view.visit(l2, requester, block, first & all);
        if seen < view.total {
            #[cfg(test)]
            tests::WIDENED.with(|n| n.set(n.get() + 1));
            view.visit(l2, requester, block, all & !first);
        }
        view
    }

    /// Records the lines of `block` in the caches of `mask`; returns the
    /// tokens they hold.
    fn visit(&mut self, l2: &[Cache], requester: usize, block: BlockAddr, mask: u64) -> u32 {
        let mut seen = 0;
        for j in mask_cores(mask) {
            let Some(line) = l2[j].probe(block) else {
                continue;
            };
            seen += line.state.tokens;
            if j == requester {
                self.have = Some(line.state.tokens);
                continue;
            }
            self.holders |= 1u64 << j;
            // At most 64 cores, so at most 64 tokens per block.
            self.tokens[j] = line.state.tokens as u8;
            if line.state.owner {
                self.owner = Some(j);
            }
        }
        seen
    }

    fn attempt(&mut self, write: bool, dests: u64, memory: bool) -> TxOutcome {
        let mut out = TxOutcome {
            success: false,
            source: None,
            token_repliers: 0,
            invalidated: 0,
            evicted: None,
            evicted_dirty: false,
        };
        let owner_in = self.owner.filter(|&o| dests & (1u64 << o) != 0);
        if !write {
            // Strict GETS: the owner answers, else memory holding the
            // owner token; a failed read changes nothing.
            if let Some(o) = owner_in {
                out.success = true;
                out.source = Some(DataSource::Cache(o));
                if self.tokens[o] <= 1 {
                    out.invalidated = 1u64 << o;
                }
            } else if memory && self.mem_owner {
                out.success = true;
                out.source = Some(DataSource::Memory);
            }
            return out;
        }
        // GETX: collect every token in the snooped caches and at memory.
        let had_data = self.have.is_some();
        out.invalidated = self.holders & dests;
        out.token_repliers = out.invalidated;
        let mut gained: u32 = mask_cores(out.invalidated)
            .map(|j| u32::from(self.tokens[j]))
            .sum();
        let mut collected_owner = owner_in.is_some();
        if let Some(o) = owner_in {
            if !had_data {
                out.source = Some(DataSource::Cache(o));
                out.token_repliers &= !(1u64 << o);
            }
            self.owner = None;
        }
        if memory {
            let owner_taken = self.mem_owner && self.mem_tokens > 0;
            if owner_taken && out.source.is_none() && !had_data {
                out.source = Some(DataSource::Memory);
            }
            collected_owner |= owner_taken;
            gained += self.mem_tokens;
            self.mem_tokens = 0;
            self.mem_owner &= !owner_taken;
        }
        self.holders &= !out.invalidated;
        if self.have.unwrap_or(0) + gained == self.total {
            out.success = true;
        } else {
            // Failure: the collected tokens (and owner) bounce to memory.
            self.mem_tokens += gained;
            self.mem_owner |= collected_owner;
            out.source = None;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// How many probes on this thread looked past their first mask.
        pub(super) static WIDENED: Cell<u64> = const { Cell::new(0) };
    }

    /// The comparable part of a view: holders with their tokens, owner,
    /// memory entry and the requester's copy.
    fn key(v: &BlockView) -> (u64, Option<usize>, Vec<u8>, u32, bool, Option<u32>) {
        let tokens = mask_cores(v.holders).map(|j| v.tokens[j]).collect();
        (
            v.holders,
            v.owner,
            tokens,
            v.mem_tokens,
            v.mem_owner,
            v.have,
        )
    }

    /// A random walk of reads and writes under random (often too narrow)
    /// destination sets: every attempt on a [`BlockView`] must report
    /// what the token protocol did, and a failed one must leave the view
    /// where the protocol left the block — bounced tokens included. A
    /// view probed from a random first mask must equal the full probe,
    /// whether or not it had to widen.
    #[test]
    fn block_view_mirrors_the_token_protocol() {
        const ITERATIONS: u64 = 20_000;
        let n = 4;
        let all = valid_core_mask(n);
        let mut caches = vec![Cache::new(CacheGeometry::new(4096, 4), 1); n];
        let mut tp = TokenProtocol::new(n as u32);
        let block = BlockAddr::new(7);
        let tag = LineTag::Vm(VmId::new(0));
        let mut rng = SmallRng::seed_from_u64(0xB10C);
        let (mut failures, mut bounced_owner, mut widened) = (0, 0, 0);
        for _ in 0..ITERATIONS {
            let r = rng.gen_range(0..n);
            let write = rng.gen_bool(0.5);
            if !write {
                // A read is a miss: drop the requester's copy first.
                if let Some(line) = caches[r].remove(block) {
                    tp.writeback(&line);
                }
            }
            let dests = rng.gen::<u64>() & valid_core_mask(n) & !(1u64 << r);
            let memory = rng.gen_bool(0.9);
            let mut view = BlockView::probe(&caches, &tp, r, block, all);
            let before = WIDENED.with(Cell::get);
            let narrowed = BlockView::probe(&caches, &tp, r, block, rng.gen::<u64>() & all);
            widened += WIDENED.with(Cell::get) - before;
            assert_eq!(key(&narrowed), key(&view), "narrowed probe");
            let owner_snooped = view.owner.is_some_and(|o| dests & (1u64 << o) != 0);
            let got = view.attempt(write, dests, memory);
            let want = if write {
                let w = tp.write_miss_masked(caches.as_mut_slice(), r, dests, block, memory, tag);
                (w.success, w.source, w.token_repliers, w.invalidated)
            } else {
                let o = tp.read_miss_masked(
                    caches.as_mut_slice(),
                    r,
                    dests,
                    block,
                    memory,
                    tag,
                    ReadMode::Strict,
                );
                (o.success, o.source, 0, o.invalidated)
            };
            assert_eq!(
                (got.success, got.source, got.token_repliers, got.invalidated),
                want
            );
            if !got.success {
                failures += 1;
                bounced_owner += usize::from(write && owner_snooped);
                let after = BlockView::probe(&caches, &tp, r, block, all);
                assert_eq!(key(&view), key(&after), "state after a failed attempt");
            }
        }
        assert!(
            failures > 1_000 && bounced_owner > 100,
            "{failures} / {bounced_owner}"
        );
        assert!(widened > 0 && widened < ITERATIONS, "{widened} widened");
    }
}
