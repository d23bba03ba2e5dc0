//! The data-oriented parallel engine (ROADMAP item 1).
//!
//! One simulation is sharded by **block address**: shard `k` owns every
//! block with `block % N_SHARDS == k`. Because every cache geometry in the
//! machine selects sets by the block's low bits and has at least
//! [`N_SHARDS`] (power-of-two) sets, a block lands in set
//! `s ≡ block (mod N_SHARDS)` of *every* cache — so shard `k` owns the
//! interleaved set group `{s : s % N_SHARDS == k}` of every L1 and L2, one
//! [`TokenProtocol`] ledger bank, and a private traffic lens. Everything a
//! coherence transaction touches (the requester's L1/L2 sets for the block,
//! every remote cache's sets for the block, fill victims — which are
//! same-set by definition — and the memory-side ledger entry) belongs to
//! one shard, so shards never share mutable state.
//!
//! Execution is staged per *batch* of rounds with deterministic barriers:
//!
//! 1. **update-procs** (serial, main thread): cycle advance, migrations,
//!    access generation and sharing-type classification in exact
//!    `(round, core)` order — the workload RNG is inherently serial state —
//!    into an immutable [`BatchPlan`].
//! 2. **update-caches** (parallel): each worker walks the plan in order and
//!    executes the full transaction ladder for entries whose shard it owns,
//!    against its shard's cache sets, ledger bank, and traffic lens. Every
//!    attempt's latency inputs are logged instead of charged.
//! 3. **update-net** (serial, main thread): the attempt logs are replayed
//!    in `(round, core, attempt)` order against the *global* byte-links
//!    counter, reproducing the serial engine's contention-scaled stall
//!    cycles bit for bit.
//!
//! Per-shard [`SimStats`], traffic, cache-counter deltas and ledger banks
//! merge back in fixed shard order at the end of the run, so the final
//! state and statistics are **bit-identical** to the serial engine — the
//! worker-sweep differential tests hold that line. Workloads that need serial-only machinery (fault injection,
//! the runtime checker, counter-based map shrinking, RegionScout, epoch
//! recording, extra filter lanes) are rejected by [`eligible`] and fall
//! back to the untouched serial path.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use super::*;

use crate::obs::metrics;

/// Number of block-address shards. Eight keeps the eligibility bar low
/// (every cache with >= 8 sets qualifies — the smallest test geometry has
/// 16) while still feeding 8 workers.
pub(super) const N_SHARDS: usize = 8;

/// Rounds per batch between update-procs and update-caches. Large enough
/// to amortize the channel round-trip, small enough that migration storms
/// (which force a flush at every migration) stay responsive.
const BATCH_ROUNDS: usize = 128;

/// Whether the batched parallel engine can run this simulator
/// bit-identically. Anything that couples transactions across shards or
/// observes mid-round global state keeps the serial path.
pub(super) fn eligible(sim: &Simulator) -> bool {
    sim.faults.is_none()
        && sim.extra_lanes.is_empty()
        && sim.lane.net.link_faults().is_none()
        && !sim.lane.policy.removes_cores()
        && sim.region_filter.is_none()
        && sim.checker.is_none()
        && sim.epochs.is_none()
        && !crate::obs::enabled()
        && sim
            .l1
            .first()
            .is_some_and(|c| c.geometry().sets() >= N_SHARDS as u64)
        && sim
            .l2
            .first()
            .is_some_and(|c| c.geometry().sets() >= N_SHARDS as u64)
}

/// One planned access slot: everything phase 2 needs to execute the
/// transaction, captured in serial `(round, core)` order.
struct PlanEntry {
    /// Round index into [`BatchPlan::round_cycles`].
    round: u32,
    core: u16,
    write: bool,
    sharing: SharingType,
    agent: Agent,
    block: BlockAddr,
}

impl PlanEntry {
    fn shard(&self) -> usize {
        (self.block.index() as usize) & (N_SHARDS - 1)
    }
}

/// The immutable per-batch work description built by update-procs. The
/// vCPU maps and friend table are frozen per batch — batches are flushed
/// before every migration, the only event that changes them on the
/// eligible path.
struct BatchPlan {
    /// Global cycle at each round of the batch (round `r` of the batch
    /// executed at `round_cycles[r]` in the serial engine).
    round_cycles: Vec<u64>,
    entries: Vec<PlanEntry>,
    maps: VcpuMapFile,
    friends: Vec<Option<VmId>>,
}

/// One transaction attempt's deferred latency charge: enough to replay
/// `contended_latency(l2_latency + round_trip, utilization())` against the
/// running global byte-links counter in serial order.
struct AttemptLog {
    round: u32,
    core: u16,
    attempt: u8,
    /// `cfg.l2_latency + round_trip` — the uncontended stall.
    base: u64,
    /// Byte-links this attempt put on the wire *before* the serial
    /// engine's utilization read (request fan-out, memory request, token
    /// replies, data response).
    pre_bytes: u64,
    /// Byte-links after the utilization read (eviction traffic).
    post_bytes: u64,
    /// Exponential-backoff charge for a failed broadcast rung
    /// (unreachable fault-free; kept for exactness).
    backoff: u64,
}

enum WorkerMsg {
    Batch(Arc<BatchPlan>),
    Finish,
}

enum WorkerReply {
    Batch(Vec<AttemptLog>),
    Final(Box<ShardOut>),
}

/// Everything a shard hands back at shutdown, merged in fixed shard order.
struct ShardOut {
    k: usize,
    stats: SimStats,
    traffic: sim_net::TrafficStats,
    l1_deltas: Vec<sim_mem::CacheDelta>,
    l2_deltas: Vec<sim_mem::CacheDelta>,
    bank: TokenProtocol,
    diags: Vec<SimError>,
    diags_total: u64,
}

/// One worker shard's execution context: its interleaved set group of
/// every cache, its ledger bank, and a private network lens (a clone of
/// the real network with zeroed counters — traffic accounting is
/// bit-identical by construction because it *is* the same code).
struct ShardCtx<'a> {
    k: usize,
    cfg: SystemConfig,
    policy: FilterPolicy,
    content_policy: ContentPolicy,
    /// Per-core L1 shard views, indexed by core.
    l1: Vec<sim_mem::CacheShard<'a>>,
    /// Per-core L2 shard views, indexed by core (the protocol's
    /// [`sim_mem::CacheBank`]).
    l2: Vec<sim_mem::CacheShard<'a>>,
    bank: TokenProtocol,
    lens: Network,
    stats: SimStats,
    log: Vec<AttemptLog>,
    diags: Vec<SimError>,
    diags_total: u64,
}

/// The migration hook of [`Simulator::run_with_migration`]: the period
/// in cycles and the vCPU-pair picker.
pub(super) type MigrationHook<'a> = (u64, &'a mut dyn FnMut(u64) -> (VcpuId, VcpuId));

/// Runs `rounds` rounds on the batched engine. `migration` carries the
/// periodic cross-VM shuffle of [`Simulator::run_with_migration`]; the
/// caller has already verified [`eligible`] and refreshed the friend
/// table.
pub(super) fn run_batched<W: SystemWorkload>(
    sim: &mut Simulator,
    workload: &mut W,
    rounds: u64,
    mut migration: Option<MigrationHook<'_>>,
    workers: usize,
) {
    let cfg = sim.cfg;
    let policy = sim.lane.policy;
    let content_policy = sim.content_policy;
    let n = cfg.n_cores();
    let w = workers.clamp(1, N_SHARDS);

    // Split the simulator into the disjoint pieces each stage owns.
    let Simulator {
        l1,
        l2,
        protocol,
        hv,
        friends,
        lane,
        cycle,
        diagnostics,
        diagnostics_total,
        ..
    } = sim;

    let banks = protocol.split_banks(N_SHARDS);
    let mut per_shard_l1: Vec<Vec<sim_mem::CacheShard<'_>>> =
        (0..N_SHARDS).map(|_| Vec::with_capacity(n)).collect();
    for cache in l1.iter_mut() {
        for (k, sh) in cache.shards(N_SHARDS).into_iter().enumerate() {
            per_shard_l1[k].push(sh);
        }
    }
    let mut per_shard_l2: Vec<Vec<sim_mem::CacheShard<'_>>> =
        (0..N_SHARDS).map(|_| Vec::with_capacity(n)).collect();
    for cache in l2.iter_mut() {
        for (k, sh) in cache.shards(N_SHARDS).into_iter().enumerate() {
            per_shard_l2[k].push(sh);
        }
    }
    let ctxs: Vec<ShardCtx<'_>> = per_shard_l1
        .into_iter()
        .zip(per_shard_l2)
        .zip(banks)
        .enumerate()
        .map(|(k, ((l1s, l2s), bank))| ShardCtx {
            k,
            cfg,
            policy,
            content_policy,
            l1: l1s,
            l2: l2s,
            bank,
            lens: {
                let mut lens = lane.net.clone();
                lens.reset_traffic();
                lens
            },
            stats: SimStats::new(n),
            log: Vec::new(),
            diags: Vec::new(),
            diags_total: 0,
        })
        .collect();
    // Worker t owns shards {k : k % w == t}, at local index k / w.
    let mut worker_ctxs: Vec<Vec<ShardCtx<'_>>> = (0..w).map(|_| Vec::new()).collect();
    for ctx in ctxs {
        worker_ctxs[ctx.k % w].push(ctx);
    }

    let mut shard_outs: Vec<ShardOut> = Vec::with_capacity(N_SHARDS);
    std::thread::scope(|s| {
        let (out_tx, out_rx) = std::sync::mpsc::channel::<WorkerReply>();
        let mut plan_txs: Vec<Sender<WorkerMsg>> = Vec::with_capacity(w);
        for (t, ctxs) in worker_ctxs.into_iter().enumerate() {
            let (tx, rx) = std::sync::mpsc::channel::<WorkerMsg>();
            plan_txs.push(tx);
            let out_tx = out_tx.clone();
            s.spawn(move || worker_loop(t, w, ctxs, rx, out_tx));
        }
        drop(out_tx);

        // Byte-links already replayed from worker lenses: the serial
        // engine's global counter at any replay point is the main
        // network's counter (map-sync traffic only, on this path) plus
        // this.
        let mut replayed_bytes: u64 = 0;
        let mut next_migration = migration.as_ref().map(|(p, _)| *cycle + p);
        let mut migration_no = 0u64;
        let mut plan = new_plan(&lane.maps, friends);

        // Engine-phase metrics are explicitly gated (`metrics::set_enabled`
        // or tracing): with the gate off this path takes no
        // clock readings at all, preserving the zero-cost contract.
        let metrics_on = metrics::enabled();
        let mut batch_start = metrics_on.then(Instant::now);

        for _ in 0..rounds {
            crate::runner::poll_current();
            *cycle += cfg.cycles_per_access;
            lane.stats.rounds += 1;
            if let (Some((period, pick)), Some(due)) = (migration.as_mut(), next_migration.as_mut())
            {
                if *cycle >= *due {
                    // The swap's map updates (and their sync traffic)
                    // happen-before this round's accesses: flush first.
                    note_procs_phase(&mut batch_start);
                    flush_batch(
                        std::mem::replace(&mut plan, new_plan(&lane.maps, friends)),
                        &plan_txs,
                        &out_rx,
                        &mut lane.stats,
                        lane.net.traffic().byte_links(),
                        &mut replayed_bytes,
                        &cfg,
                        metrics_on,
                    );
                    batch_start = metrics_on.then(Instant::now);
                    *due += *period;
                    let (a, b) = pick(migration_no);
                    migration_no += 1;
                    if a.vm() != b.vm() {
                        swap_vcpus_inline(
                            hv,
                            lane,
                            diagnostics,
                            diagnostics_total,
                            &cfg,
                            *cycle,
                            a,
                            b,
                        );
                    }
                    // Re-freeze the (possibly changed) maps.
                    plan = new_plan(&lane.maps, friends);
                }
            }
            plan.round_cycles.push(*cycle);
            let round = (plan.round_cycles.len() - 1) as u32;
            for core in CoreId::all(n) {
                let Some(vcpu) = hv.vcpu_on(core) else {
                    continue;
                };
                let access = workload.next_access(vcpu);
                lane.stats.accesses += 1;
                let c = core.index();
                let block = BlockAddr::new(access.addr / sim_mem::BLOCK_BYTES);
                let sharing = workload.directory().sharing(access.addr / PAGE_BYTES);
                if sharing == SharingType::RoShared {
                    lane.stats.content_accesses += 1;
                }
                plan.entries.push(PlanEntry {
                    round,
                    core: c as u16,
                    write: access.write,
                    sharing,
                    agent: access.agent,
                    block,
                });
            }
            if plan.round_cycles.len() >= BATCH_ROUNDS {
                note_procs_phase(&mut batch_start);
                flush_batch(
                    std::mem::replace(&mut plan, new_plan(&lane.maps, friends)),
                    &plan_txs,
                    &out_rx,
                    &mut lane.stats,
                    lane.net.traffic().byte_links(),
                    &mut replayed_bytes,
                    &cfg,
                    metrics_on,
                );
                batch_start = metrics_on.then(Instant::now);
            }
        }
        note_procs_phase(&mut batch_start);
        flush_batch(
            plan,
            &plan_txs,
            &out_rx,
            &mut lane.stats,
            lane.net.traffic().byte_links(),
            &mut replayed_bytes,
            &cfg,
            metrics_on,
        );

        for tx in &plan_txs {
            let _ = tx.send(WorkerMsg::Finish);
        }
        for _ in 0..N_SHARDS {
            match out_rx.recv() {
                Ok(WorkerReply::Final(out)) => shard_outs.push(*out),
                Ok(WorkerReply::Batch(_)) => unreachable!("batch reply after Finish"),
                Err(_) => panic!("engine worker exited early"),
            }
        }
    });

    // All shard borrows are gone; fold the deltas back in fixed shard
    // order so the merge itself is deterministic.
    shard_outs.sort_unstable_by_key(|o| o.k);
    let mut banks_back = Vec::with_capacity(N_SHARDS);
    for out in shard_outs {
        lane.stats.add_delta(&out.stats);
        for (cache, delta) in l1.iter_mut().zip(&out.l1_deltas) {
            cache.apply_delta(delta);
        }
        for (cache, delta) in l2.iter_mut().zip(&out.l2_deltas) {
            cache.apply_delta(delta);
        }
        lane.net.merge_traffic(&out.traffic);
        *diagnostics_total += out.diags_total;
        for e in out.diags {
            if diagnostics.len() < 64 {
                diagnostics.push(e);
            }
        }
        banks_back.push(out.bank);
    }
    protocol.absorb_banks(banks_back);
}

fn new_plan(maps: &VcpuMapFile, friends: &[Option<VmId>]) -> BatchPlan {
    BatchPlan {
        round_cycles: Vec::with_capacity(BATCH_ROUNDS),
        entries: Vec::with_capacity(BATCH_ROUNDS * 16),
        maps: maps.clone(),
        friends: friends.to_vec(),
    }
}

/// Closes an update-procs timing window (if one is open) into its
/// histogram. The window is `Some` only while engine-phase metrics are
/// enabled, so the disabled path never reads the clock.
fn note_procs_phase(batch_start: &mut Option<Instant>) {
    if let Some(t0) = batch_start.take() {
        metrics::ENGINE_UPDATE_PROCS_US.record(t0.elapsed().as_micros() as u64);
    }
}

/// Dispatches one batch to every worker, then replays the collected
/// attempt logs (stage 3, update-net): the stall for every attempt is
/// recomputed against the running global byte-links counter in exact
/// serial `(round, core, attempt)` order.
///
/// With `metrics_on`, the update-caches wall time (dispatch → last
/// worker reply), the shard imbalance (last reply − first reply) and
/// the update-net replay time land in their histograms; off, no clock
/// is read.
#[allow(clippy::too_many_arguments)]
fn flush_batch(
    plan: BatchPlan,
    plan_txs: &[Sender<WorkerMsg>],
    out_rx: &Receiver<WorkerReply>,
    stats: &mut SimStats,
    net_bytes: u64,
    replayed_bytes: &mut u64,
    cfg: &SystemConfig,
    metrics_on: bool,
) {
    if plan.round_cycles.is_empty() {
        return;
    }
    let dispatch_start = metrics_on.then(Instant::now);
    let plan = Arc::new(plan);
    for tx in plan_txs {
        tx.send(WorkerMsg::Batch(Arc::clone(&plan)))
            .expect("engine worker hung up");
    }
    let mut logs: Vec<AttemptLog> = Vec::new();
    let mut first_reply: Option<Instant> = None;
    let mut last_reply: Option<Instant> = None;
    for _ in 0..plan_txs.len() {
        match out_rx.recv() {
            Ok(WorkerReply::Batch(mut l)) => logs.append(&mut l),
            Ok(WorkerReply::Final(_)) => unreachable!("final reply mid-run"),
            Err(_) => panic!("engine worker exited early"),
        }
        if metrics_on {
            let now = Instant::now();
            first_reply.get_or_insert(now);
            last_reply = Some(now);
        }
    }
    if let (Some(t0), Some(first), Some(last)) = (dispatch_start, first_reply, last_reply) {
        metrics::ENGINE_UPDATE_CACHES_US.record(last.duration_since(t0).as_micros() as u64);
        metrics::ENGINE_SHARD_IMBALANCE_US.record(last.duration_since(first).as_micros() as u64);
    }
    let replay_start = metrics_on.then(Instant::now);
    // One transaction per (round, core), attempts in ladder order: the
    // key is unique and reconstructs the serial charge order.
    logs.sort_unstable_by_key(|l| (l.round, l.core, l.attempt));
    let mut running = net_bytes + *replayed_bytes;
    for l in &logs {
        running += l.pre_bytes;
        let cycle = plan.round_cycles[l.round as usize];
        let stall = cfg
            .network
            .contended_latency(l.base, utilization_at(cfg, running, cycle));
        stats.stall_cycles[l.core as usize] += stall + l.backoff;
        running += l.post_bytes;
    }
    *replayed_bytes = running - net_bytes;
    if let Some(t0) = replay_start {
        metrics::ENGINE_UPDATE_NET_US.record(t0.elapsed().as_micros() as u64);
    }
}

/// `FilterLane::utilization` with explicit inputs (the replay walks a
/// reconstructed byte-links counter, not the live network's).
fn utilization_at(cfg: &SystemConfig, byte_links: u64, cycle: u64) -> f64 {
    let links = Mesh::new(cfg.mesh_width, cfg.mesh_height).links();
    if cycle == 0 || links == 0 {
        return 0.0;
    }
    let capacity = links as f64 * cfg.network.link_bytes as f64 * cycle as f64;
    byte_links as f64 / capacity
}

/// [`Simulator::swap_vcpus`] specialized to the eligible path (no fault
/// plan, a policy that never removes cores), over the split borrows the
/// batched run holds.
#[allow(clippy::too_many_arguments)]
fn swap_vcpus_inline(
    hv: &mut Hypervisor,
    lane: &mut FilterLane,
    diagnostics: &mut Vec<SimError>,
    diagnostics_total: &mut u64,
    cfg: &SystemConfig,
    cycle: u64,
    a: VcpuId,
    b: VcpuId,
) {
    let swapped = hv.try_swap(cycle, a, b);
    hv.clear_relocations();
    let (ca, cb) = match swapped {
        Ok(cores) => cores,
        Err(UnplacedVcpu(vcpu)) => {
            *diagnostics_total += 1;
            if diagnostics.len() < 64 {
                diagnostics.push(SimError::VcpuNotPlaced {
                    vcpu,
                    context: "swap_vcpus",
                });
            }
            return;
        }
    };
    if ca == cb {
        return;
    }
    for (vcpu, old, new) in [(a, ca, cb), (b, cb, ca)] {
        let vm = vcpu.vm();
        if lane.maps.add_core(vm.index(), new) {
            lane.stats.map_adds += 1;
            lane.account_map_sync(cfg, vm);
        }
        lane.removal_pending[new.index()][vm.index()] = None;
        if hv.cores_of_vm(vm) & (1 << old.index()) == 0 {
            lane.removal_pending[old.index()][vm.index()] = Some(cycle);
            // The serial path re-checks counter-based removal here;
            // eligibility guarantees the policy never removes cores.
        }
    }
}

fn worker_loop(
    t: usize,
    w: usize,
    mut ctxs: Vec<ShardCtx<'_>>,
    rx: Receiver<WorkerMsg>,
    out: Sender<WorkerReply>,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Batch(plan) => {
                for e in &plan.entries {
                    let k = e.shard();
                    if k % w == t {
                        ctxs[k / w].step(e, &plan);
                    }
                }
                let logs: Vec<AttemptLog> = ctxs.iter_mut().flat_map(|c| c.log.drain(..)).collect();
                if out.send(WorkerReply::Batch(logs)).is_err() {
                    return;
                }
            }
            WorkerMsg::Finish => {
                for ctx in ctxs {
                    let _ = out.send(WorkerReply::Final(Box::new(ctx.finish())));
                }
                return;
            }
        }
    }
}

impl ShardCtx<'_> {
    fn finish(self) -> ShardOut {
        ShardOut {
            k: self.k,
            stats: self.stats,
            traffic: *self.lens.traffic(),
            l1_deltas: self.l1.into_iter().map(|s| s.into_delta()).collect(),
            l2_deltas: self.l2.into_iter().map(|s| s.into_delta()).collect(),
            bank: self.bank,
            diags: self.diags,
            diags_total: self.diags_total,
        }
    }

    fn diagnose(&mut self, e: SimError) {
        self.diags_total += 1;
        if self.diags.len() < 64 {
            self.diags.push(e);
        }
    }

    /// [`Simulator::step`] transcribed against the shard view (the L1/L2
    /// probing, hit classification, and miss decomposition are verbatim;
    /// the serial-only prologue — access counting and sharing-type
    /// classification — already ran in update-procs).
    fn step(&mut self, e: &PlanEntry, plan: &BatchPlan) {
        let c = e.core as usize;
        let block = e.block;
        let total = self.cfg.n_cores() as u32;

        // L1.
        if self.l1[c].access(block) {
            if e.write {
                if let Some(line) = self.l2[c].probe_mut(block) {
                    if line.state.can_write(total) {
                        line.state.dirty = true;
                        self.stats.l1_hits += 1;
                        return;
                    }
                }
                self.l1[c].remove(block);
            } else {
                self.stats.l1_hits += 1;
                return;
            }
        }

        // L2.
        let hit = {
            let present = self.l2[c].access(block);
            if present {
                match self.l2[c].probe_mut(block) {
                    Some(line) => {
                        if e.write {
                            if line.state.can_write(total) {
                                line.state.dirty = true;
                                true
                            } else {
                                false
                            }
                        } else {
                            line.state.can_read()
                        }
                    }
                    None => {
                        self.diagnose(SimError::CacheDesync { core: c, block });
                        false
                    }
                }
            } else {
                false
            }
        };
        if hit {
            self.stats.l2_hits += 1;
            self.fill_l1(c, block, e.agent);
            return;
        }

        self.stats.count_miss(e.agent, e.sharing);
        if e.sharing == SharingType::RoShared && !e.write {
            self.classify_holders(block, e.agent.guest_vm(), plan);
        }
        self.transaction(e, plan);
    }

    /// [`Simulator::transaction`] transcribed against the shard view:
    /// same ladder, same traffic calls (through the lens), same protocol
    /// ops (through the bank) — but the stall charge is *logged* with its
    /// latency inputs instead of computed, because utilization is global.
    fn transaction(&mut self, e: &PlanEntry, plan: &BatchPlan) {
        let c = e.core as usize;
        let block = e.block;
        let tag = LineTag::from(e.agent);
        let mode = self.read_mode(e.agent, e.sharing);

        // Fault-free by eligibility: the original three-attempt ladder.
        let transient_attempts: u32 = 3;
        for attempt in 0..=transient_attempts {
            let persistent = attempt == transient_attempts;
            let filtered = attempt < 2;
            let (dest_mask, include_memory, degraded) = if persistent {
                let all = valid_core_mask(self.cfg.n_cores()) & !(1u64 << c);
                (all, true, false)
            } else {
                self.destinations(plan, c, e.agent, e.sharing, filtered)
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
                self.stats.degraded_broadcasts += 1;
            }

            let req_kind = if persistent {
                MessageKind::Persistent
            } else {
                MessageKind::Request
            };
            let src = NodeId::new(c as u16);
            let bytes_before = self.lens.traffic().byte_links();
            // No link faults on the eligible path: the whole fan-out is
            // one batched multicast and every request is delivered.
            let delivered: u64 = dest_mask;
            let mut worst_req_lat = self.lens.multicast(
                src,
                mask_cores(dest_mask).map(|d| NodeId::new(d as u16)),
                req_kind,
            );
            let memory_heard = include_memory;
            if include_memory {
                let lat = self.lens.to_memory(src, req_kind);
                worst_req_lat = worst_req_lat.max(lat);
            }

            self.stats.snoops += u64::from(delivered.count_ones()) + 1;

            let outcome = if e.write {
                let w = self.bank.write_miss_masked(
                    self.l2.as_mut_slice(),
                    c,
                    delivered,
                    block,
                    memory_heard,
                    tag,
                );
                if w.token_repliers != 0 {
                    self.lens.multicast(
                        src,
                        mask_cores(w.token_repliers).map(|r| NodeId::new(r as u16)),
                        MessageKind::TokenReply,
                    );
                }
                TxOutcome {
                    success: w.success,
                    source: w.source,
                    token_repliers: w.token_repliers,
                    invalidated: w.invalidated,
                    evicted: w.evicted,
                    evicted_dirty: w.evicted_dirty,
                }
            } else {
                let r = self.bank.read_miss_masked(
                    self.l2.as_mut_slice(),
                    c,
                    delivered,
                    block,
                    memory_heard,
                    tag,
                    mode,
                );
                TxOutcome {
                    success: r.success,
                    source: r.source,
                    token_repliers: 0,
                    invalidated: r.invalidated,
                    evicted: r.evicted,
                    evicted_dirty: r.evicted_dirty,
                }
            };

            let lm = *self.lens.latency_model();
            let round_trip = match outcome.source {
                Some(DataSource::Cache(h)) => {
                    let resp = self
                        .lens
                        .unicast(NodeId::new(h as u16), src, MessageKind::Data);
                    self.count_data_source(plan, h, e.agent.guest_vm());
                    let req_leg = lm.base_latency(
                        self.lens.mesh().hops(src, NodeId::new(h as u16)),
                        MessageKind::Request.bytes(),
                    );
                    req_leg + resp
                }
                Some(DataSource::Memory) => {
                    let resp =
                        self.lens.from_memory(src, MessageKind::Data) + self.cfg.memory_latency;
                    self.stats.data_memory += 1;
                    let port = self.lens.mesh().nearest_port(src, self.lens.memory_ports());
                    let req_leg = lm.base_latency(
                        self.lens.mesh().hops(src, port),
                        MessageKind::Request.bytes(),
                    );
                    req_leg + resp
                }
                None => 2 * worst_req_lat,
            };
            let base = self.cfg.l2_latency + round_trip;
            // Serial charge point: the utilization read happens *here*,
            // before eviction traffic. Split this attempt's bytes at it.
            let pre_bytes = self.lens.traffic().byte_links() - bytes_before;

            for j in mask_cores(outcome.invalidated) {
                self.l1[j].remove(block);
                // check_pending_removals: no-op on the eligible path (the
                // policy never removes cores).
            }
            if let Some(victim) = outcome.evicted {
                self.handle_eviction(c, victim, outcome.evicted_dirty);
            }
            let post_bytes = self.lens.traffic().byte_links() - bytes_before - pre_bytes;

            let backoff = if !outcome.success && attempt >= 2 && !persistent {
                worst_req_lat.saturating_mul(1u64 << (attempt - 2).min(8))
            } else {
                0
            };
            self.log.push(AttemptLog {
                round: e.round,
                core: e.core,
                attempt: attempt as u8,
                base,
                pre_bytes,
                post_bytes,
                backoff,
            });

            if outcome.success {
                self.fill_l1(c, block, e.agent);
                return;
            }
            assert!(
                !persistent,
                "persistent broadcast with memory cannot fail: it reaches \
                 every token holder on the reliable channel"
            );
        }
        unreachable!("the persistent attempt either succeeds or asserts");
    }

    /// [`Simulator::destinations`] against the plan's frozen maps (the
    /// RegionScout branch is unreachable: that policy is ineligible).
    fn destinations(
        &self,
        plan: &BatchPlan,
        requester: usize,
        agent: Agent,
        sharing: SharingType,
        filtered: bool,
    ) -> (u64, bool, bool) {
        let broadcast = valid_core_mask(self.cfg.n_cores()) & !(1u64 << requester);
        if !filtered || !self.policy.filters() {
            return (broadcast, true, false);
        }
        let Some(vm) = agent.guest_vm() else {
            return (broadcast, true, false);
        };
        let usable = |ok: bool, dests: u64| {
            if ok {
                (dests, true, false)
            } else {
                (broadcast, true, true)
            }
        };
        match sharing {
            SharingType::RwShared => (broadcast, true, false),
            SharingType::VmPrivate => usable(
                self.map_usable(plan, vm, None, requester),
                self.map_dests(plan, vm, None, requester),
            ),
            SharingType::RoShared => match self.content_policy {
                ContentPolicy::Broadcast => (broadcast, true, false),
                ContentPolicy::MemoryDirect => (0, true, false),
                ContentPolicy::IntraVm => usable(
                    self.map_usable(plan, vm, None, requester),
                    self.map_dests(plan, vm, None, requester),
                ),
                ContentPolicy::FriendVm => {
                    let friend = plan.friends[vm.index()];
                    usable(
                        self.map_usable(plan, vm, friend, requester),
                        self.map_dests(plan, vm, friend, requester),
                    )
                }
            },
        }
    }

    /// [`Simulator::map_usable`] against the plan's frozen maps.
    fn map_usable(
        &self,
        plan: &BatchPlan,
        vm: VmId,
        friend: Option<VmId>,
        requester: usize,
    ) -> bool {
        let valid = valid_core_mask(self.cfg.n_cores());
        let own = plan.maps.map(vm.index()).mask();
        if own & !valid != 0 || own & (1u64 << requester) == 0 {
            return false;
        }
        match friend {
            Some(f) => plan.maps.map(f.index()).mask() & !valid == 0,
            None => true,
        }
    }

    /// [`Simulator::map_dests`] against the plan's frozen maps.
    fn map_dests(&self, plan: &BatchPlan, vm: VmId, friend: Option<VmId>, requester: usize) -> u64 {
        let mut mask = plan.maps.map(vm.index()).mask();
        if let Some(f) = friend {
            mask |= plan.maps.map(f.index()).mask();
        }
        mask & valid_core_mask(self.cfg.n_cores()) & !(1u64 << requester)
    }

    /// [`Simulator::read_mode`], verbatim.
    fn read_mode(&self, agent: Agent, sharing: SharingType) -> ReadMode {
        if sharing == SharingType::RoShared
            && agent.guest_vm().is_some()
            && self.policy.uses_vcpu_maps()
            && self.content_policy != ContentPolicy::Broadcast
        {
            ReadMode::CleanShared
        } else {
            ReadMode::Strict
        }
    }

    fn fill_l1(&mut self, c: usize, block: BlockAddr, agent: Agent) {
        self.l1[c].insert(CacheLine::new(
            block,
            TokenState::shared_one(),
            LineTag::from(agent),
        ));
    }

    /// [`Simulator::handle_eviction`]: the victim shares the fill's cache
    /// set, so it belongs to this shard by construction.
    fn handle_eviction(&mut self, c: usize, victim: CacheLine, dirty: bool) {
        self.l1[c].remove(victim.block);
        let kind = if dirty {
            self.stats.writebacks += 1;
            MessageKind::Writeback
        } else {
            MessageKind::TokenReply
        };
        self.lens.to_memory(NodeId::new(c as u16), kind);
    }

    /// [`Simulator::count_data_source`] against the plan's frozen maps.
    fn count_data_source(&mut self, plan: &BatchPlan, holder: usize, vm: Option<VmId>) {
        match vm {
            Some(vm)
                if plan
                    .maps
                    .map(vm.index())
                    .contains(CoreId::new(holder as u16)) =>
            {
                self.stats.data_intra_vm += 1;
            }
            _ => self.stats.data_other_vm += 1,
        }
    }

    /// [`Simulator::classify_holders`] against the shard view: every
    /// core's copy of `block` lives in this shard's set group.
    fn classify_holders(&mut self, block: BlockAddr, vm: Option<VmId>, plan: &BatchPlan) {
        let mut holders = 0u64;
        for (j, l2) in self.l2.iter().enumerate() {
            if l2.probe(block).is_some() {
                holders |= 1u64 << j;
            }
        }
        if holders == 0 {
            self.stats.holders_memory += 1;
            return;
        }
        self.stats.holders_any_cache += 1;
        let Some(vm) = vm else { return };
        if holders & plan.maps.map(vm.index()).mask() != 0 {
            self.stats.holders_intra_vm += 1;
        } else if let Some(f) = plan.friends[vm.index()] {
            if holders & plan.maps.map(f.index()).mask() != 0 {
                self.stats.holders_friend_vm += 1;
            }
        }
    }
}
