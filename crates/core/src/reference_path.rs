//! The frozen pre-optimization transaction path.
//!
//! These are the `Vec`-collecting implementations of the simulator's hot
//! path exactly as they stood before the allocation-free rewrite, re-homed
//! as free functions over [`Simulator`]. They run only when the reference
//! engine is selected ([`crate::testing::set_reference_engine`]) and exist
//! purely as the oracle half of the differential guard: the optimized path
//! must produce bit-identical statistics, traffic, and architectural state.
//!
//! **Do not optimize this module.** Its value is that it stays behind.

use super::*;

/// Pre-optimization outcome view: invalidated cores as a materialized list.
struct TxOutcome {
    success: bool,
    source: Option<DataSource>,
    invalidated: Vec<usize>,
    evicted: Option<CacheLine>,
    evicted_dirty: bool,
}

/// Verbatim pre-optimization `Simulator::transaction`.
pub(super) fn transaction(
    sim: &mut Simulator,
    core: CoreId,
    access: TraceAccess,
    block: BlockAddr,
    sharing: SharingType,
) {
    let c = core.index();
    let tag = LineTag::from(access.agent);
    let mode = sim.read_mode(access.agent, sharing);
    // For region tracking: whether the requester already held the
    // block (an upgrade does not change its region count).
    let requester_had = sim.l2[c].probe(block).is_some();

    let transient_attempts: u32 = if sim.faults.is_some() { 5 } else { 3 };
    for attempt in 0..=transient_attempts {
        let persistent = attempt == transient_attempts;
        let filtered = attempt < 2;
        let (dests, include_memory, degraded) = if persistent {
            let n = sim.cfg.n_cores();
            ((0..n).filter(|&d| d != c).collect(), true, false)
        } else {
            destinations(sim, c, access.agent, sharing, filtered, block)
        };
        if attempt > 0 {
            sim.lane.stats.retries += 1;
            if attempt == 2 {
                sim.lane.stats.broadcast_fallbacks += 1;
            }
        }
        if persistent {
            sim.lane.stats.persistent_requests += 1;
        }
        if degraded && attempt == 0 {
            // The requester's map register failed validation; this
            // transaction runs as a full broadcast (degraded mode).
            sim.lane.stats.degraded_broadcasts += 1;
        }

        // Request traffic: one control message per snooped cache, plus
        // one to the memory controller when memory participates. The
        // *worst* leg only matters for failed attempts (the requester
        // must conclude nobody will answer); successful transactions
        // are gated by the leg to the actual responder, computed below.
        // Under link faults a request may be dropped (traffic is still
        // accounted — the message was sent) or delayed; persistent
        // requests ride the reliable channel and cannot be dropped.
        let req_kind = if persistent {
            MessageKind::Persistent
        } else {
            MessageKind::Request
        };
        let src = NodeId::new(c as u16);
        let mut delivered: Vec<usize> = Vec::with_capacity(dests.len());
        let mut worst_req_lat = 0u64;
        for &d in &dests {
            let out = sim.lane.net.send(src, NodeId::new(d as u16), req_kind);
            worst_req_lat = worst_req_lat.max(out.latency);
            if out.delivered {
                delivered.push(d);
            }
        }
        let mut memory_heard = include_memory;
        if include_memory {
            let out = sim.lane.net.send_to_memory(src, req_kind);
            worst_req_lat = worst_req_lat.max(out.latency);
            memory_heard = out.delivered;
        }

        // The paper counts the requester's own tag lookup too (ideal
        // filtering on 16 cores -> 25% of baseline snoops). A dropped
        // request never reaches a tag array, so only delivered ones
        // count.
        sim.lane.stats.snoops += delivered.len() as u64 + 1;

        let outcome = if access.write {
            let w = sim.protocol.reference_mut().write_miss(
                &mut sim.l2,
                c,
                &delivered,
                block,
                memory_heard,
                tag,
            );
            // Token-only replies.
            for &r in &w.token_repliers {
                sim.lane
                    .net
                    .unicast(NodeId::new(r as u16), src, MessageKind::TokenReply);
            }
            TxOutcome {
                success: w.success,
                source: w.source,
                invalidated: w.invalidated,
                evicted: w.evicted,
                evicted_dirty: w.evicted_dirty,
            }
        } else {
            let r = sim.protocol.reference_mut().read_miss(
                &mut sim.l2,
                c,
                &delivered,
                block,
                memory_heard,
                tag,
                mode,
            );
            TxOutcome {
                success: r.success,
                source: r.source,
                invalidated: r.invalidated,
                evicted: r.evicted,
                evicted_dirty: r.evicted_dirty,
            }
        };

        // Response traffic and latency. The transaction is gated by
        // the round trip to the responder (the data holder answers as
        // soon as *it* receives the request, regardless of how far the
        // other snooped caches are).
        let lm = *sim.lane.net.latency_model();
        let round_trip = match outcome.source {
            Some(DataSource::Cache(h)) => {
                let resp = sim
                    .lane
                    .net
                    .unicast(NodeId::new(h as u16), src, MessageKind::Data);
                sim.lane.count_data_source(h, access.agent.guest_vm());
                let req_leg = lm.base_latency(
                    sim.lane.net.mesh().hops(src, NodeId::new(h as u16)),
                    MessageKind::Request.bytes(),
                );
                req_leg + resp
            }
            Some(DataSource::Memory) => {
                let resp =
                    sim.lane.net.from_memory(src, MessageKind::Data) + sim.cfg.memory_latency;
                sim.lane.stats.data_memory += 1;
                let port = sim
                    .lane
                    .net
                    .mesh()
                    .nearest_port(src, sim.lane.net.memory_ports());
                let req_leg = lm.base_latency(
                    sim.lane.net.mesh().hops(src, port),
                    MessageKind::Request.bytes(),
                );
                req_leg + resp
            }
            // Failed attempt (or a dataless upgrade): the requester
            // waits out the worst request leg plus a reply leg before
            // concluding/collecting.
            None => 2 * worst_req_lat,
        };

        // Charge the stall (contention-scaled) whether or not the
        // attempt succeeded: failed attempts cost real time.
        let base = sim.cfg.l2_latency + round_trip;
        let (ctx, lane, _) = sim.lanes_mut();
        let stall = ctx
            .cfg
            .network
            .contended_latency(base, lane.utilization(&ctx));
        sim.lane.stats.stall_cycles[c] += stall;

        // Region tracking (RegionScout baseline): lines that left
        // remote caches or were displaced locally.
        if let Some(rf) = &mut sim.region_filter {
            let region = rf.region_of(block);
            if filtered && dests.is_empty() {
                rf.record_hit();
            }
            for &j in &outcome.invalidated {
                rf.on_remove(j, region);
            }
            if let Some(v) = &outcome.evicted {
                let vr = rf.region_of(v.block);
                rf.on_remove(c, vr);
            }
        }

        // Post-transaction bookkeeping.
        sim.apply_invalidations(&outcome.invalidated, block);
        if let Some(victim) = outcome.evicted {
            sim.handle_eviction(c, victim, outcome.evicted_dirty);
        }

        if outcome.success {
            if let Some(rf) = &mut sim.region_filter {
                let region = rf.region_of(block);
                if !requester_had {
                    // The fill also shoots down other cores' NSRT
                    // entries for the region (the broadcast doubles as
                    // the notification).
                    rf.on_fill(c, region);
                }
                // A broadcast that reached every other core and found
                // no holder of the region verifies it as not-shared
                // (a dropped request verifies nothing).
                if delivered.len() + 1 == sim.cfg.n_cores() && !rf.shared_elsewhere(c, region) {
                    rf.learn(c, region);
                }
            }
            sim.fill_l1(c, block, access.agent);
            return;
        } else if let Some(rf) = &mut sim.region_filter {
            // A failed memory-direct attempt means the NSRT entry was
            // stale; drop it so the broadcast retry re-verifies.
            if dests.is_empty() {
                rf.forget(c, rf.region_of(block));
            }
        }

        assert!(
            !persistent,
            "persistent broadcast with memory cannot fail: it reaches \
             every token holder on the reliable channel"
        );
        // Exponential escalation: each failed broadcast rung backs off
        // twice as long before re-arbitrating (reachable only under
        // link faults — fault-free, the first broadcast succeeds).
        if attempt >= 2 {
            let backoff = worst_req_lat.saturating_mul(1u64 << (attempt - 2).min(8));
            sim.lane.stats.stall_cycles[c] += backoff;
        }
    }
    unreachable!("the persistent attempt either succeeds or asserts");
}

/// Verbatim pre-optimization `Simulator::destinations`.
fn destinations(
    sim: &Simulator,
    requester: usize,
    agent: Agent,
    sharing: SharingType,
    filtered: bool,
    block: BlockAddr,
) -> (Vec<usize>, bool, bool) {
    let n = sim.cfg.n_cores();
    let broadcast = || (0..n).filter(|&d| d != requester).collect::<Vec<_>>();
    if !filtered || !sim.lane.policy.filters() {
        return (broadcast(), true, false);
    }
    if let Some(rf) = &sim.region_filter {
        // Region filtering is address-based, not VM-based: a miss to a
        // region this core verified as not-shared goes memory-direct;
        // everything else broadcasts (RegionScout has no multicast).
        let region = rf.region_of(block);
        return if rf.nsrt_contains(requester, region) {
            (Vec::new(), true, false)
        } else {
            (broadcast(), true, false)
        };
    }
    let Some(vm) = agent.guest_vm() else {
        // Hypervisor and dom0 requests must always be broadcast.
        return (broadcast(), true, false);
    };
    // Validate the register(s) the filter is about to trust; a failed
    // check falls back to full broadcast (correct by construction —
    // broadcast is what an unfiltered protocol would do) and is
    // counted as a degraded-mode transaction.
    let usable = |ok: bool, dests: Vec<usize>| {
        if ok {
            (dests, true, false)
        } else {
            (broadcast(), true, true)
        }
    };
    match sharing {
        SharingType::RwShared => (broadcast(), true, false),
        SharingType::VmPrivate => usable(
            sim.lane.map_usable(&sim.cfg, vm, None, requester),
            map_dests(sim, vm, None, requester),
        ),
        SharingType::RoShared => match sim.content_policy {
            ContentPolicy::Broadcast => (broadcast(), true, false),
            ContentPolicy::MemoryDirect => (Vec::new(), true, false),
            ContentPolicy::IntraVm => usable(
                sim.lane.map_usable(&sim.cfg, vm, None, requester),
                map_dests(sim, vm, None, requester),
            ),
            ContentPolicy::FriendVm => {
                let friend = sim.friends[vm.index()];
                usable(
                    sim.lane.map_usable(&sim.cfg, vm, friend, requester),
                    map_dests(sim, vm, friend, requester),
                )
            }
        },
    }
}

/// Verbatim pre-optimization `Simulator::map_dests`.
fn map_dests(sim: &Simulator, vm: VmId, friend: Option<VmId>, requester: usize) -> Vec<usize> {
    let mut map = sim.lane.maps.map(vm.index());
    if let Some(f) = friend {
        map = map.union(sim.lane.maps.map(f.index()));
    }
    map.cores()
        .map(|c| c.index())
        .filter(|&d| d != requester && d < sim.cfg.n_cores())
        .collect()
}

/// Verbatim pre-optimization `Simulator::account_map_sync`, over the
/// lane's traffic and vCPU maps.
pub(super) fn account_map_sync(
    net: &mut Network,
    maps: &VcpuMapFile,
    cfg: &SystemConfig,
    vm: VmId,
) {
    // Mask to physical cores: a corrupted register can hold bits
    // beyond the mesh, but the hypervisor's update broadcast only ever
    // targets real cores.
    let map = VcpuMap::from_mask(maps.map(vm.index()).mask() & valid_core_mask(cfg.n_cores()));
    let Some(first) = map.cores().next() else {
        return;
    };
    let src = NodeId::new(first.index() as u16);
    let dests: Vec<NodeId> = map
        .cores()
        .skip(1)
        .map(|c| NodeId::new(c.index() as u16))
        .collect();
    net.multicast(src, dests, MessageKind::MapUpdate);
}

/// Verbatim pre-optimization `Simulator::classify_holders`.
pub(super) fn classify_holders(sim: &mut Simulator, block: BlockAddr, vm: Option<VmId>) {
    let holders: Vec<usize> = (0..sim.cfg.n_cores())
        .filter(|&j| sim.l2[j].probe(block).is_some())
        .collect();
    if holders.is_empty() {
        sim.lane.stats.holders_memory += 1;
        return;
    }
    sim.lane.stats.holders_any_cache += 1;
    let Some(vm) = vm else { return };
    let own = sim.lane.maps.map(vm.index());
    if holders.iter().any(|&j| own.contains(CoreId::new(j as u16))) {
        sim.lane.stats.holders_intra_vm += 1;
    } else if let Some(f) = sim.friends[vm.index()] {
        let fm = sim.lane.maps.map(f.index());
        if holders.iter().any(|&j| fm.contains(CoreId::new(j as u16))) {
            sim.lane.stats.holders_friend_vm += 1;
        }
    }
}
