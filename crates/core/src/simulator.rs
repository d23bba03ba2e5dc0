//! The full-system virtual-snooping simulator.
//!
//! [`Simulator`] glues every substrate together: per-core L1/L2 caches and
//! the TokenB engine (`sim-mem`), the 2D-mesh network with traffic and
//! latency accounting (`sim-net`), the hypervisor's vCPU placement and the
//! page-sharing directory (`sim-vm`), and this crate's vCPU maps and
//! filtering policies. It is trace-driven: each *round* issues one memory
//! access per core, taken from an [`AccessStream`].
//!
//! The flow of one coherence transaction (Section IV-A of the paper):
//!
//! 1. the page's two sharing-type bits classify the access (read from the
//!    sharing directory, which is what a shot-down TLB returns);
//! 2. the filter picks snoop destinations — broadcast for host agents and
//!    RW-shared pages, the VM's vCPU map for private pages, the configured
//!    [`ContentPolicy`] route for content-shared pages;
//! 3. the token protocol executes the snoop; a failed transient attempt is
//!    retried (twice filtered, then broadcast — the paper's
//!    counter-threshold fallback);
//! 4. residence-counter events may shrink vCPU maps (counter /
//!    counter-threshold policies), logged for Fig. 9.
//!
//! Steps 2 and 4 and all snoop, traffic and stall accounting belong to a
//! filter lane (`lane.rs`), which reads the machine but cannot write it;
//! one simulation can carry several lanes, each measuring its own policy
//! over the same architectural run ([`Simulator::add_filter_lanes`]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_mem::{
    mask_cores, BlockAddr, Cache, CacheGeometry, CacheLine, DataSource, LineTag, ReadMode,
    TokenLedger, TokenProtocol, TokenState, PAGE_BYTES,
};
use sim_net::{LinkFaults, Mesh, MessageKind, Network, NodeId};
use sim_vm::{
    Agent, CoreId, Hypervisor, SharingDirectory, SharingType, UnplacedVcpu, VcpuId, VmId, VmSpec,
};
use workloads::{AccessStream, TraceAccess, Workload};

use crate::checker::{valid_core_mask, CheckerConfig, CheckerCtx, InvariantChecker};
use crate::config::SystemConfig;
use crate::error::SimError;
use crate::fault::{FaultInjectionStats, FaultPlan, MapCorruption};
use crate::policy::{ContentPolicy, FilterPolicy};
use crate::region_filter::RegionFilter;
use crate::stats::{RemovalEvent, SimStats};
use crate::vcpu_map::{VcpuMap, VcpuMapFile};

/// The data-oriented parallel engine (staged phases over block-address
/// shards; see its module docs). A child module of `simulator` so the
/// transcription twins can reach the `Simulator` internals directly.
#[path = "engine.rs"]
mod engine;

/// The per-policy half of the simulator (see its module docs). A child
/// module of `simulator` so lanes can take `TxOutcome` and the shared
/// imports directly.
#[path = "lane.rs"]
mod lane;

use lane::{BlockView, FilterLane, LaneCtx};

/// A workload the simulator can drive end to end: an access stream plus
/// the hypervisor-owned page metadata the filter consults.
pub trait SystemWorkload: AccessStream {
    /// The page-sharing directory (shadow/nested page table contents).
    fn directory(&self) -> &SharingDirectory;
    /// The friend VM of `vm` (most content pages shared), if any.
    fn friend_of(&self, vm: VmId) -> Option<VmId>;
}

impl SystemWorkload for Workload {
    fn directory(&self) -> &SharingDirectory {
        Workload::directory(self)
    }
    fn friend_of(&self, vm: VmId) -> Option<VmId> {
        self.content().friend_of(vm)
    }
}

/// Recording passes through the wrapped workload's page metadata, so a
/// recorder can drive the simulator directly.
impl<W: SystemWorkload> SystemWorkload for workloads::TraceRecorder<W> {
    fn directory(&self) -> &SharingDirectory {
        self.inner().directory()
    }
    fn friend_of(&self, vm: VmId) -> Option<VmId> {
        self.inner().friend_of(vm)
    }
}

/// A recorded trace paired with the page metadata it was captured against,
/// ready to drive the simulator (e.g. for bit-identical cross-policy
/// comparisons).
///
/// # Examples
///
/// ```
/// use vsnoop::{ReplayWorkload, Simulator, SystemConfig, FilterPolicy, ContentPolicy};
/// use workloads::{profile, AccessStream, TraceRecorder, Workload, WorkloadConfig};
/// use sim_vm::{VcpuId, VmId};
///
/// let cfg = SystemConfig::small_test();
/// let wl = Workload::homogeneous(
///     profile("lu").unwrap(),
///     cfg.n_vms,
///     WorkloadConfig { vcpus_per_vm: cfg.vcpus_per_vm, ..Default::default() },
/// );
/// let mut rec = TraceRecorder::new(wl);
/// let mut sim = Simulator::new(cfg, FilterPolicy::TokenBroadcast, ContentPolicy::Broadcast);
/// sim.run(&mut rec, 100);
/// let (trace, wl) = rec.finish();
///
/// // Replay the exact same accesses under virtual snooping.
/// let mut replay = ReplayWorkload::new(trace.replay(), &wl);
/// let mut sim2 = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
/// sim2.run(&mut replay, 100);
/// assert_eq!(sim.stats().l2_misses, sim2.stats().l2_misses);
/// ```
#[derive(Debug)]
pub struct ReplayWorkload<'a> {
    replayer: workloads::TraceReplayer<'a>,
    source: &'a Workload,
}

impl<'a> ReplayWorkload<'a> {
    /// Pairs a replayer with the workload whose pages it addresses.
    pub fn new(replayer: workloads::TraceReplayer<'a>, source: &'a Workload) -> Self {
        ReplayWorkload { replayer, source }
    }
}

impl AccessStream for ReplayWorkload<'_> {
    fn next_access(&mut self, vcpu: VcpuId) -> TraceAccess {
        self.replayer.next_access(vcpu)
    }
}

impl SystemWorkload for ReplayWorkload<'_> {
    fn directory(&self) -> &SharingDirectory {
        Workload::directory(self.source)
    }
    fn friend_of(&self, vm: VmId) -> Option<VmId> {
        self.source.content().friend_of(vm)
    }
}

/// The assembled machine.
///
/// `Simulator` is `Clone`: the copy carries the complete architectural
/// and micro-architectural state — caches (contents *and* LRU order),
/// the token ledger, network traffic counters, hypervisor placement,
/// vCPU maps, removal timers, fault and checker state — so a
/// clone taken after a warm-up phase behaves bit-identically to the
/// original from that point on. [`Simulator::snapshot`] packages a
/// clone together with the matching [`Workload`] position.
#[derive(Clone)]
pub struct Simulator {
    cfg: SystemConfig,
    content_policy: ContentPolicy,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    protocol: TokenProtocol,
    hv: Hypervisor,
    friends: Vec<Option<VmId>>,
    /// RegionScout baseline state (present only under that policy).
    region_filter: Option<RegionFilter>,
    /// The primary filter lane: its policy drives the token transactions,
    /// and it owns the network the fault plan is installed on.
    lane: FilterLane,
    /// Lanes added with [`Simulator::add_filter_lanes`], accounted in
    /// lock-step with the primary lane's transactions.
    extra_lanes: Vec<FilterLane>,
    /// The block in flight as the extra lanes replay it: probed before
    /// the token operation, consumed once the transaction completes.
    lane_view: Option<BlockView>,
    cycle: u64,
    /// Fault-injection state; `None` means the fault-free fast path (the
    /// behaviour is then bit-identical to a build without this feature).
    faults: Option<FaultState>,
    /// Runtime invariant checker, enabled via [`Simulator::enable_checker`].
    checker: Option<InvariantChecker>,
    /// Bounded log of recoverable internal inconsistencies.
    diagnostics: Vec<SimError>,
    diagnostics_total: u64,
    /// Per-epoch time-series recorder (observability layer); `None` —
    /// the default — keeps the hot path to a single branch per round.
    epochs: Option<Box<crate::obs::EpochRecorder>>,
    /// Latch so the flight recorder is dumped at most once per simulator
    /// on the first checker violation.
    flight_dumped: bool,
    /// Per-instance worker-count override for the parallel engine; when
    /// unset the `VSNOOP_ENGINE_WORKERS` knob (default 1) decides.
    engine_workers: Option<usize>,
    /// Latch so a saturated traffic counter is diagnosed once.
    traffic_overflow_reported: bool,
}

/// One deferred vCPU-map register update (map-sync-delay fault).
#[derive(Clone)]
struct PendingSync {
    due: u64,
    vm: VmId,
    core: CoreId,
}

/// Live state derived from a [`FaultPlan`].
#[derive(Clone)]
struct FaultState {
    plan: FaultPlan,
    rng: SmallRng,
    pending_syncs: Vec<PendingSync>,
    next_audit: u64,
    injected: FaultInjectionStats,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cores", &self.cfg.n_cores())
            .field("policy", &self.lane.policy)
            .field("content_policy", &self.content_policy)
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Builds a simulator for `cfg` under the given policies, with all
    /// vCPUs pinned round-robin (VM0 on the first cores, etc.).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`];
    /// use [`Simulator::try_new`] to handle that as a typed error.
    pub fn new(cfg: SystemConfig, policy: FilterPolicy, content_policy: ContentPolicy) -> Self {
        match Self::try_new(cfg, policy, content_policy) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a simulator like [`Simulator::new`], but surfaces an
    /// invalid configuration as [`SimError::InvalidConfig`] instead of
    /// panicking — campaign runners and other supervised callers report
    /// the violated constraint rather than unwinding.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration fails
    /// [`SystemConfig::validate`].
    pub fn try_new(
        cfg: SystemConfig,
        policy: FilterPolicy,
        content_policy: ContentPolicy,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let n = cfg.n_cores();
        let specs: Vec<VmSpec> = (0..cfg.n_vms)
            .map(|i| VmSpec::new(VmId::new(i as u16), cfg.vcpus_per_vm, 0))
            .collect();
        let mut hv = Hypervisor::new(n, &specs);
        hv.place_round_robin();
        hv.clear_relocations();

        let mut maps = VcpuMapFile::new(cfg.n_vms);
        for vm in 0..cfg.n_vms {
            maps.set(vm, VcpuMap::from_mask(hv.cores_of_vm(VmId::new(vm as u16))));
        }

        let region_filter = match policy {
            FilterPolicy::RegionScout {
                region_blocks,
                nsrt_entries,
            } => Some(RegionFilter::new(n, region_blocks, nsrt_entries)),
            _ => None,
        };

        let net = {
            let mesh = Mesh::try_new(cfg.mesh_width, cfg.mesh_height)?;
            Network::try_with_config(mesh, cfg.network, mesh.corner_ports())?
        };
        Ok(Simulator {
            region_filter,
            l1: vec![Cache::new(CacheGeometry::new(cfg.l1_bytes, cfg.l1_ways), cfg.n_vms); n],
            l2: vec![Cache::new(CacheGeometry::new(cfg.l2_bytes, cfg.l2_ways), cfg.n_vms); n],
            protocol: TokenProtocol::new(n as u32),
            hv,
            friends: vec![None; cfg.n_vms],
            lane: FilterLane::new(policy, maps, &cfg, net),
            extra_lanes: Vec::new(),
            lane_view: None,
            cycle: 0,
            faults: None,
            checker: None,
            diagnostics: Vec::new(),
            diagnostics_total: 0,
            epochs: None,
            flight_dumped: false,
            engine_workers: None,
            traffic_overflow_reported: false,
            cfg,
            content_policy,
        })
    }

    /// Installs a fault-injection plan. Link faults (drops/delays) are
    /// threaded into the network; map corruption, delayed synchronization
    /// and spurious bounces are injected at round boundaries; the
    /// hypervisor audit repairs registers every `audit_period_cycles`.
    ///
    /// Installing [`FaultPlan::none`] (or never calling this) keeps the
    /// simulator on the fault-free fast path.
    ///
    /// # Panics
    ///
    /// Panics if the simulator carries extra filter lanes: their replay
    /// assumes the fault-free transaction ladder.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            self.extra_lanes.is_empty(),
            "fault injection cannot run with extra filter lanes"
        );
        if plan.any_link() {
            // Derive the link seed from the plan seed so one seed
            // reproduces the whole campaign.
            self.lane.net.install_faults(Some(LinkFaults::new(
                plan.link_config(),
                plan.seed ^ 0x9E37_79B9_7F4A_7C15,
            )));
        } else {
            self.lane.net.install_faults(None);
        }
        self.faults = Some(FaultState {
            rng: SmallRng::seed_from_u64(plan.seed),
            pending_syncs: Vec::new(),
            next_audit: if plan.audit_period_cycles > 0 {
                self.cycle + plan.audit_period_cycles
            } else {
                u64::MAX
            },
            injected: FaultInjectionStats::default(),
            plan,
        });
    }

    /// Counts of faults actually injected so far, if a plan is installed.
    pub fn fault_injections(&self) -> Option<&FaultInjectionStats> {
        self.faults.as_ref().map(|f| &f.injected)
    }

    /// Link-level fault counters (drops/delays), when link faults are on.
    pub fn link_faults(&self) -> Option<&LinkFaults> {
        self.lane.net.link_faults()
    }

    /// Enables the runtime invariant checker: hard invariants on every
    /// transaction's block, full-machine sweeps per
    /// [`CheckerConfig::sweep_every`].
    pub fn enable_checker(&mut self, cfg: CheckerConfig) {
        self.checker = Some(InvariantChecker::new(cfg));
    }

    /// The invariant checker, if enabled.
    pub fn checker(&self) -> Option<&InvariantChecker> {
        self.checker.as_ref()
    }

    /// Forces a full-machine invariant sweep now (e.g. at the end of a
    /// soak phase). No-op when the checker is disabled.
    pub fn run_checker_sweep(&mut self) {
        self.surface_traffic_overflow();
        let trusted = self.maps_trusted();
        let Some(mut ch) = self.checker.take() else {
            return;
        };
        let before = ch.total_violations();
        ch.full_sweep(
            self.cycle,
            &CheckerCtx {
                l1: &self.l1,
                l2: &self.l2,
                protocol: &self.protocol,
                maps: &self.lane.maps,
                hv: &self.hv,
                maps_trusted: trusted,
            },
        );
        self.checker = Some(ch);
        self.after_check(before);
    }

    /// Recoverable internal inconsistencies observed so far (bounded log;
    /// see [`Simulator::diagnostics_total`] for the unbounded count).
    pub fn diagnostics(&self) -> &[SimError] {
        &self.diagnostics
    }

    /// Total diagnostics recorded, including any past the log cap.
    pub fn diagnostics_total(&self) -> u64 {
        self.diagnostics_total
    }

    fn diagnose(&mut self, e: SimError) {
        self.diagnostics_total += 1;
        if self.diagnostics.len() < 64 {
            self.diagnostics.push(e);
        }
    }

    /// Whether the vCPU-map registers are guaranteed in sync with the
    /// hypervisor (no corruption or delayed-sync faults in the plan).
    fn maps_trusted(&self) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|f| !f.plan.maps_can_diverge())
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The filter policy in force.
    pub fn policy(&self) -> FilterPolicy {
        self.lane.policy
    }

    /// Collected statistics.
    pub fn stats(&self) -> &SimStats {
        &self.lane.stats
    }

    /// Network traffic statistics.
    pub fn traffic(&self) -> &sim_net::TrafficStats {
        self.lane.net.traffic()
    }

    /// A canonical digest of the architectural state: every valid cache
    /// line (block, tokens, owner, dirty, VM tag) per core and level,
    /// plus the memory-side token ledger, each sorted by block address.
    ///
    /// Deliberately excludes micro-architectural bookkeeping — LRU
    /// timestamps, statistics, vCPU maps, filter state — so two
    /// simulations agree iff they cached the same data with the same
    /// coherence permissions. The differential oracle uses this to check
    /// that snoop *filtering* never changes what the machine computes.
    pub fn arch_state(&self) -> String {
        use std::fmt::Write as _;

        fn dump(out: &mut String, label: &str, cache: &sim_mem::Cache) {
            let mut lines: Vec<_> = cache
                .lines()
                .map(|l| (l.block, l.state.tokens, l.state.owner, l.state.dirty, l.tag))
                .collect();
            lines.sort_unstable_by_key(|&(block, ..)| block);
            for (block, tokens, owner, dirty, tag) in lines {
                let _ = writeln!(
                    out,
                    "{label} {block:?} t={tokens} o={owner} d={dirty} {tag:?}"
                );
            }
        }

        let mut out = String::new();
        for (core, (l1, l2)) in self.l1.iter().zip(&self.l2).enumerate() {
            dump(&mut out, &format!("core{core} L1"), l1);
            dump(&mut out, &format!("core{core} L2"), l2);
        }
        for (block, tokens, owner) in &self.protocol.memory_entries_sorted() {
            let _ = writeln!(&mut out, "mem {block:?} t={tokens} o={owner}");
        }
        out
    }

    /// Core-removal events (Fig. 9).
    pub fn removal_log(&self) -> &[RemovalEvent] {
        &self.lane.removal_log
    }

    /// Current global cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current vCPU map of `vm`.
    pub fn vcpu_map(&self, vm: VmId) -> VcpuMap {
        self.lane.maps.map(vm.index())
    }

    /// The hypervisor state (vCPU placement). Its relocation log is not
    /// kept: the simulator clears it on construction and on every vCPU
    /// swap, so [`Hypervisor::relocations`] is always empty here.
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.hv
    }

    /// The RegionScout baseline state, when that policy is active.
    pub fn region_filter(&self) -> Option<&RegionFilter> {
        self.region_filter.as_ref()
    }

    /// Adds one filter lane per policy, each starting from the primary
    /// lane's current maps and removal timers — as if the simulator had
    /// been forked under that policy now. From here on every run drives
    /// all lanes in lock-step over one architectural simulation: the
    /// primary lane's policy executes the token transactions, and each
    /// extra lane counts the snoops, retries, traffic, stalls and map
    /// updates its own policy would have produced. Lane `i` (0 is the
    /// primary) is read back with [`Simulator::lane_stats`],
    /// [`Simulator::lane_traffic`] and [`Simulator::lane_removal_log`].
    ///
    /// Sound because filtering never changes architectural state
    /// (`tests/differential_oracle.rs`); pinned per policy against
    /// standalone runs by `tests/filter_lanes.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the simulator or a
    /// requested policy leaves that oracle's ground: a fault plan is
    /// installed, RegionScout is involved (its region tables are
    /// per-policy state the transactions update), content pages are not
    /// routed by broadcast (the clean-shared provider rule changes where
    /// tokens go).
    pub fn add_filter_lanes(&mut self, policies: &[FilterPolicy]) -> Result<(), SimError> {
        let scout = |p: &FilterPolicy| matches!(p, FilterPolicy::RegionScout { .. });
        let why = if policies.is_empty() {
            None
        } else if self.faults.is_some() {
            Some("a fault plan is installed")
        } else if scout(&self.lane.policy) || policies.iter().any(scout) {
            Some("RegionScout keeps per-policy region tables")
        } else if self.content_policy != ContentPolicy::Broadcast {
            Some("content pages are not routed by broadcast")
        } else {
            None
        };
        if let Some(why) = why {
            return Err(SimError::InvalidConfig(crate::config::ConfigError::new(
                format!("cannot add filter lanes: {why}"),
            )));
        }
        for &policy in policies {
            let mut lane = self.lane.clone();
            lane.policy = policy;
            self.extra_lanes.push(lane);
        }
        Ok(())
    }

    /// Number of filter lanes: the primary plus any added with
    /// [`Simulator::add_filter_lanes`].
    pub fn lane_count(&self) -> usize {
        1 + self.extra_lanes.len()
    }

    fn lane_at(&self, lane: usize) -> &FilterLane {
        match lane {
            0 => &self.lane,
            i => &self.extra_lanes[i - 1],
        }
    }

    /// What lane `lane` measured: exactly the statistics a standalone run
    /// under its policy would report. Lane 0 is [`Simulator::stats`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lane_count()`.
    pub fn lane_stats(&self, lane: usize) -> SimStats {
        self.lane_at(lane).standalone_stats(&self.lane.stats)
    }

    /// Network traffic of lane `lane` (lane 0 is
    /// [`Simulator::traffic`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lane_count()`.
    pub fn lane_traffic(&self, lane: usize) -> &sim_net::TrafficStats {
        self.lane_at(lane).net.traffic()
    }

    /// Core-removal events of lane `lane` (lane 0 is
    /// [`Simulator::removal_log`]).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lane_count()`.
    pub fn lane_removal_log(&self, lane: usize) -> &[RemovalEvent] {
        &self.lane_at(lane).removal_log
    }

    /// Clears statistics, traffic, and logs while *keeping caches, maps
    /// and placement warm* — call after a warm-up phase. An enabled
    /// epoch recorder is rebaselined at the cleared state, so epochs
    /// cover only the measured phase.
    pub fn reset_measurement(&mut self) {
        self.lane.reset_measurement();
        for lane in &mut self.extra_lanes {
            lane.reset_measurement();
        }
        if let Some(ep) = self.epochs.as_deref_mut() {
            ep.rebaseline(
                self.cycle,
                &self.lane.stats,
                self.lane.net.traffic(),
                self.lane.net.node_bytes(),
                self.hv.swaps(),
            );
        }
    }

    /// Enables per-epoch time-series recording: an epoch is cut every
    /// `every` rounds, capturing the delta of every statistic plus the
    /// snoop fan-out histogram and per-link traffic (the network's
    /// per-node byte tally is switched on as the heatmap source).
    /// Baselines anchor at the *current* state, so enabling after a
    /// warm-up phase records only what follows. See
    /// [`EpochRecorder`](crate::obs::EpochRecorder) for export formats.
    pub fn enable_epochs(&mut self, every: u64) {
        self.lane.net.enable_node_tally();
        let mut rec = Box::new(crate::obs::EpochRecorder::new(every));
        rec.rebaseline(
            self.cycle,
            &self.lane.stats,
            self.lane.net.traffic(),
            self.lane.net.node_bytes(),
            self.hv.swaps(),
        );
        self.epochs = Some(rec);
    }

    /// The per-epoch recorder, when enabled via
    /// [`Simulator::enable_epochs`].
    pub fn epochs(&self) -> Option<&crate::obs::EpochRecorder> {
        self.epochs.as_deref()
    }

    /// Cuts the current partial epoch so an end-of-run tail shorter
    /// than the epoch length is not lost. No-op when epoch recording
    /// is disabled or no rounds have run since the last cut.
    pub fn flush_epochs(&mut self) {
        if let Some(ep) = self.epochs.as_deref_mut() {
            ep.flush(
                self.cycle,
                &self.lane.stats,
                self.lane.net.traffic(),
                self.lane.net.node_bytes(),
                self.hv.swaps(),
            );
        }
    }

    /// End-of-round observability bookkeeping: the process-wide round
    /// counter (heartbeat rate source) and the epoch recorder's tick.
    /// When tracing is off this is one relaxed atomic load and one
    /// `Option` branch.
    fn obs_round_tick(&mut self) {
        if crate::obs::enabled() {
            crate::obs::count_round();
        }
        if let Some(ep) = self.epochs.as_deref_mut() {
            ep.tick_round(
                self.cycle,
                &self.lane.stats,
                self.lane.net.traffic(),
                self.lane.net.node_bytes(),
                self.hv.swaps(),
            );
        }
    }

    /// Deliberately corrupts one cached L2 line's coherence metadata so
    /// the next checker pass reports `DirtyWithoutOwner` — scaffolding
    /// for exercising the violation-dump path in tests and the soak
    /// harness (`SOAK_FORCE_VIOLATION`). Returns the corrupted block
    /// number, or `None` when no line is cached anywhere yet.
    #[doc(hidden)]
    pub fn debug_corrupt_token_state(&mut self) -> Option<u64> {
        // Prefer a tokened-but-unowned line: marking it dirty yields a
        // violation without touching token conservation. Fall back to
        // stripping ownership from an owner line.
        for l2 in &mut self.l2 {
            let candidate = l2
                .lines()
                .find(|l| !l.state.owner && l.state.tokens > 0)
                .map(|l| l.block);
            if let Some(block) = candidate {
                let line = l2.probe_mut(block)?;
                line.state.dirty = true;
                return Some(block.index());
            }
        }
        for l2 in &mut self.l2 {
            let candidate = l2.lines().find(|l| l.state.owner).map(|l| l.block);
            if let Some(block) = candidate {
                let line = l2.probe_mut(block)?;
                line.state.dirty = true;
                line.state.owner = false;
                return Some(block.index());
            }
        }
        None
    }

    /// First-violation hook: the first time the checker's violation
    /// count rises, dump the flight recorder and emit a telemetry
    /// record. Latched per simulator so later violations never
    /// overwrite the dump closest to the root cause. No-op when
    /// tracing is off.
    fn after_check(&mut self, violations_before: u64) {
        let Some(ch) = self.checker.as_ref() else {
            return;
        };
        let total = ch.total_violations();
        if total <= violations_before || self.flight_dumped || !crate::obs::enabled() {
            return;
        }
        self.flight_dumped = true;
        use crate::runner::json::Value;
        let kind = ch
            .violations()
            .last()
            .map_or_else(|| "unknown".to_string(), |v| format!("{:?}", v.kind));
        let path = crate::obs::dump_flight("violation");
        crate::obs::telemetry::emit(
            "checker_violation",
            vec![
                ("kind", Value::Str(kind)),
                ("cycle", Value::UInt(self.cycle)),
                ("total_violations", Value::UInt(total)),
                (
                    "flight_dump",
                    path.map_or(Value::Null, |p| Value::Str(p.display().to_string())),
                ),
            ],
        );
    }

    /// Captures a warm-state snapshot: the complete machine state plus
    /// the workload's position in its access stream (memory layout,
    /// sharing state, reuse bursts, RNG state).
    ///
    /// Snapshotting is a pure copy — it consumes no workload RNG and
    /// does not perturb the simulator — so interposing a snapshot
    /// between a warm-up and a measurement phase leaves both
    /// bit-identical to an uninterrupted run. [`SimSnapshot::fork`]
    /// resumes from the captured point as many times as needed.
    pub fn snapshot(&self, workload: &Workload) -> SimSnapshot {
        SimSnapshot {
            sim: self.clone(),
            workload: workload.clone(),
        }
    }

    /// Pins the parallel engine's worker count for this simulator,
    /// overriding the `VSNOOP_ENGINE_WORKERS` environment knob. `1`
    /// forces the serial path; `None` auto-picks the host's available
    /// parallelism (same resolution as `VSNOOP_ENGINE_WORKERS=auto`);
    /// higher counts take effect only for runs the batched engine can
    /// execute bit-identically (see its eligibility gate) — everything
    /// else stays serial regardless.
    pub fn set_engine_workers(&mut self, workers: impl Into<Option<usize>>) {
        self.engine_workers = Some(match workers.into() {
            Some(w) => w.max(1),
            None => crate::knob::auto_workers(),
        });
    }

    /// Worker count in force: instance override, else the
    /// `VSNOOP_ENGINE_WORKERS` knob (a count, or `auto` for the host's
    /// available parallelism), else 1 (serial).
    fn resolved_engine_workers(&self) -> usize {
        self.engine_workers
            .or_else(crate::knob::engine_workers)
            .unwrap_or(1)
    }

    /// Surfaces a saturated network-traffic counter as a typed
    /// diagnostic (and a checker violation when the checker is on),
    /// once per simulator: every byte-derived metric is a lower bound
    /// from the saturation point on, silently-correct-looking output
    /// would hide that.
    fn surface_traffic_overflow(&mut self) {
        if self.traffic_overflow_reported || !self.lane.net.traffic().overflowed() {
            return;
        }
        self.traffic_overflow_reported = true;
        const COUNTER: &str = "network traffic byte-links";
        self.diagnose(SimError::CounterSaturated { counter: COUNTER });
        if let Some(ch) = self.checker.as_mut() {
            ch.note_counter_saturated(self.cycle, COUNTER);
        }
    }

    /// Runs `rounds` rounds, each issuing one access per core from
    /// `workload`.
    pub fn run<W: SystemWorkload>(&mut self, workload: &mut W, rounds: u64) {
        self.refresh_friends(workload);
        let workers = self.resolved_engine_workers();
        if workers > 1 && engine::eligible(self) {
            engine::run_batched(self, workload, rounds, None, workers);
            self.surface_traffic_overflow();
            return;
        }
        for _ in 0..rounds {
            // Deadline checkpoint for supervised campaign jobs; a plain
            // thread-local read outside of them.
            crate::runner::poll_current();
            self.cycle += self.cfg.cycles_per_access;
            self.lane.stats.rounds += 1;
            self.on_round_start();
            for core in CoreId::all(self.cfg.n_cores()) {
                let Some(vcpu) = self.hv.vcpu_on(core) else {
                    continue;
                };
                let access = workload.next_access(vcpu);
                self.step(core, access, workload.directory());
            }
            self.obs_round_tick();
        }
        self.surface_traffic_overflow();
    }

    /// Runs with a periodic cross-VM vCPU shuffle: every
    /// `period_cycles`, two vCPUs from *different* VMs (chosen by the
    /// deterministic `pick` callback) exchange cores — the paper's
    /// approximate migration model (Section V-C).
    pub fn run_with_migration<W: SystemWorkload>(
        &mut self,
        workload: &mut W,
        rounds: u64,
        period_cycles: u64,
        mut pick: impl FnMut(u64) -> (VcpuId, VcpuId),
    ) {
        assert!(period_cycles > 0, "migration period must be positive");
        self.refresh_friends(workload);
        let workers = self.resolved_engine_workers();
        if workers > 1 && engine::eligible(self) {
            engine::run_batched(
                self,
                workload,
                rounds,
                Some((period_cycles, &mut pick)),
                workers,
            );
            self.surface_traffic_overflow();
            return;
        }
        let mut next_migration = self.cycle + period_cycles;
        let mut migration_no = 0u64;
        for _ in 0..rounds {
            crate::runner::poll_current();
            self.cycle += self.cfg.cycles_per_access;
            self.lane.stats.rounds += 1;
            self.on_round_start();
            if self.cycle >= next_migration {
                next_migration += period_cycles;
                let (a, b) = pick(migration_no);
                migration_no += 1;
                if a.vm() != b.vm() {
                    // An unplaced pick is recorded as a diagnostic inside
                    // swap_vcpus; the storm simply continues.
                    let _ = self.swap_vcpus(a, b);
                }
            }
            for core in CoreId::all(self.cfg.n_cores()) {
                let Some(vcpu) = self.hv.vcpu_on(core) else {
                    continue;
                };
                let access = workload.next_access(vcpu);
                self.step(core, access, workload.directory());
            }
            self.obs_round_tick();
        }
        self.surface_traffic_overflow();
    }

    /// Exchanges the physical cores of two vCPUs, maintaining vCPU maps
    /// (new cores are added; old cores stay until the counter mechanism
    /// clears them) and starting Fig. 9 removal timers.
    ///
    /// An unplaced vCPU is not a panic: the swap is skipped, the
    /// inconsistency is recorded in [`Simulator::diagnostics`], and the
    /// error is returned for callers that want to react.
    pub fn swap_vcpus(&mut self, a: VcpuId, b: VcpuId) -> Result<(), SimError> {
        let swapped = self.hv.try_swap(self.cycle, a, b);
        // Nothing reads the relocation log; clearing it keeps its capacity,
        // so a migrating run neither grows it nor allocates per swap.
        self.hv.clear_relocations();
        let (ca, cb) = match swapped {
            Ok(cores) => cores,
            Err(UnplacedVcpu(vcpu)) => {
                let e = SimError::VcpuNotPlaced {
                    vcpu,
                    context: "swap_vcpus",
                };
                self.diagnose(e.clone());
                return Err(e);
            }
        };
        if ca == cb {
            return Ok(());
        }
        for (vcpu, old, new) in [(a, ca, cb), (b, cb, ca)] {
            let vm = vcpu.vm();
            // Under the map-sync-delay fault the register update lags the
            // migration; the window where the new core is missing from its
            // own VM's map is exactly what the use-time validation and the
            // degraded broadcast fallback must absorb.
            let sync_delay = self
                .faults
                .as_ref()
                .map_or(0, |f| f.plan.map_sync_delay_cycles);
            let deferred = sync_delay > 0 && !self.lane.maps.map(vm.index()).contains(new);
            if deferred {
                let due = self.cycle + sync_delay;
                if let Some(f) = &mut self.faults {
                    f.pending_syncs.push(PendingSync { due, vm, core: new });
                    f.injected.delayed_syncs += 1;
                }
            }
            let (ctx, lane, extra) = self.lanes_mut();
            lane.relocate(&ctx, vm, old, new, !deferred);
            for lane in extra {
                lane.relocate(&ctx, vm, old, new, true);
            }
        }
        Ok(())
    }

    /// Round-boundary fault machinery: applies due register syncs, injects
    /// the per-round fault classes, and runs the periodic hypervisor audit.
    /// A no-op without an installed plan.
    fn on_round_start(&mut self) {
        let Some(mut f) = self.faults.take() else {
            return;
        };
        let cycle = self.cycle;

        // 1. Deferred vCPU-map updates whose delay has elapsed.
        let mut i = 0;
        while i < f.pending_syncs.len() {
            if f.pending_syncs[i].due <= cycle {
                let p = f.pending_syncs.swap_remove(i);
                let (ctx, lane, _) = self.lanes_mut();
                if lane.maps.add_core(p.vm.index(), p.core) {
                    lane.stats.map_adds += 1;
                    lane.account_map_sync(ctx.cfg, p.vm);
                }
            } else {
                i += 1;
            }
        }

        // 2. vCPU-map register corruption.
        if f.plan.corrupt_map_p > 0.0 && f.rng.gen_bool(f.plan.corrupt_map_p) {
            let vm = f.rng.gen_range(0..self.cfg.n_vms);
            let cur = self.lane.maps.map(vm);
            let mode = MapCorruption::ALL[f.rng.gen_range(0..MapCorruption::ALL.len())];
            match mode {
                MapCorruption::ClearBit => {
                    // The k-th member, drawn without collecting the set.
                    let n = cur.mask().count_ones() as usize;
                    if n > 0 {
                        let k = f.rng.gen_range(0..n);
                        let victim = cur.cores().nth(k).expect("k < member count");
                        let mut m = cur;
                        m.remove(victim);
                        self.lane.maps.corrupt(vm, m);
                        f.injected.maps_bit_cleared += 1;
                    }
                }
                MapCorruption::SetBit => {
                    // Any of the 64 register bits, including ones beyond
                    // the physical core count (an *invalid* register).
                    let bit = f.rng.gen_range(0..64u32);
                    self.lane
                        .maps
                        .corrupt(vm, VcpuMap::from_mask(cur.mask() | (1u64 << bit)));
                    f.injected.maps_bit_set += 1;
                }
                MapCorruption::Garbage => {
                    let garbage = f.rng.gen::<u64>();
                    self.lane.maps.corrupt(vm, VcpuMap::from_mask(garbage));
                    f.injected.maps_garbaged += 1;
                }
            }
        }

        // 3. Spurious token bounce: a random cached line surrenders its
        // tokens to memory, as if a transient request had failed.
        if f.plan.spurious_bounce_p > 0.0 && f.rng.gen_bool(f.plan.spurious_bounce_p) {
            let core = f.rng.gen_range(0..self.cfg.n_cores());
            let occ = self.l2[core].occupancy();
            if occ > 0 {
                let idx = f.rng.gen_range(0..occ);
                let victim = self.l2[core].lines().nth(idx).map(|l| l.block);
                if let Some(block) = victim {
                    if let Some(line) = self.l2[core].remove(block) {
                        let dirty = self.protocol.writeback(&line);
                        self.handle_eviction(core, line, dirty);
                        f.injected.spurious_bounces += 1;
                    }
                }
            }
        }

        // 4. Periodic hypervisor audit: scrub every register back to a
        // valid, covering state. Right after the audit the registers are
        // known-good, so the map invariants can be checked even under a
        // corrupting plan.
        if cycle >= f.next_audit {
            f.next_audit = cycle + f.plan.audit_period_cycles;
            self.audit_maps();
            self.faults = Some(f);
            self.checker_check_maps();
            return;
        }
        self.faults = Some(f);
    }

    /// The hypervisor's register scrubber: strips invalid bits and
    /// restores every running core, leaving legitimate stale-but-valid
    /// bits (old cores still caching the VM's data) untouched.
    fn audit_maps(&mut self) {
        let valid = valid_core_mask(self.cfg.n_cores());
        for vm_idx in 0..self.cfg.n_vms {
            let vm = VmId::new(vm_idx as u16);
            let cur = self.lane.maps.map(vm_idx).mask();
            let repaired = (cur & valid) | self.hv.cores_of_vm(vm);
            if repaired != cur {
                self.lane.maps.set(vm_idx, VcpuMap::from_mask(repaired));
                self.lane.stats.map_repairs += 1;
                let (ctx, lane, _) = self.lanes_mut();
                lane.account_map_sync(ctx.cfg, vm);
            }
        }
    }

    /// Runs the checker's map audit with the registers marked trusted —
    /// valid only immediately after [`Simulator::audit_maps`].
    fn checker_check_maps(&mut self) {
        let Some(mut ch) = self.checker.take() else {
            return;
        };
        let before = ch.total_violations();
        ch.check_maps(
            self.cycle,
            &CheckerCtx {
                l1: &self.l1,
                l2: &self.l2,
                protocol: &self.protocol,
                maps: &self.lane.maps,
                hv: &self.hv,
                maps_trusted: true,
            },
        );
        self.checker = Some(ch);
        self.after_check(before);
    }

    /// One access slot on `core`.
    fn step(&mut self, core: CoreId, access: TraceAccess, dir: &SharingDirectory) {
        let c = core.index();
        self.lane.stats.accesses += 1;
        let block = BlockAddr::new(access.addr / sim_mem::BLOCK_BYTES);
        let sharing = dir.sharing(access.addr / PAGE_BYTES);
        if sharing == SharingType::RoShared {
            self.lane.stats.content_accesses += 1;
        }

        // L1.
        if self.l1[c].access(block) {
            if access.write {
                // A store needs write permission at the (inclusive) L2; if
                // the L2 line holds all tokens the store completes locally.
                if let Some(line) = self.l2[c].probe_mut(block) {
                    if line.state.can_write(self.cfg.n_cores() as u32) {
                        line.state.dirty = true;
                        self.lane.stats.l1_hits += 1;
                        return;
                    }
                }
                // No write permission at L2: this access is an upgrade
                // transaction, not an L1 hit.
                self.l1[c].remove(block);
            } else {
                self.lane.stats.l1_hits += 1;
                return;
            }
        }

        // L2.
        let total = self.cfg.n_cores() as u32;
        let hit = match self.l2[c].access_mut(block) {
            Some(line) if access.write => {
                let writable = line.state.can_write(total);
                if writable {
                    line.state.dirty = true;
                }
                writable
            }
            Some(line) => line.state.can_read(),
            None => false,
        };
        if hit {
            self.lane.stats.l2_hits += 1;
            self.fill_l1(c, block, access.agent);
            return;
        }

        // Coherence transaction.
        self.lane.stats.count_miss(access.agent, sharing);
        if sharing == SharingType::RoShared && !access.write {
            self.classify_holders(block, access.agent.guest_vm());
        }
        self.transaction(core, access, block, sharing);
        self.run_checker(block);
    }

    /// Post-transaction invariant check on the touched block (plus the
    /// periodic full sweep). No-op when the checker is disabled.
    fn run_checker(&mut self, block: BlockAddr) {
        let trusted = self.maps_trusted();
        let Some(mut ch) = self.checker.take() else {
            return;
        };
        let before = ch.total_violations();
        ch.on_transaction(
            self.cycle,
            block,
            &CheckerCtx {
                l1: &self.l1,
                l2: &self.l2,
                protocol: &self.protocol,
                maps: &self.lane.maps,
                hv: &self.hv,
                maps_trusted: trusted,
            },
        );
        self.checker = Some(ch);
        self.after_check(before);
    }

    /// Executes one coherence transaction: the paper's bounded transient
    /// retry ladder (two filtered attempts, then broadcast), hardened for
    /// fault injection with extra broadcast retries under exponential
    /// backoff and a final escalation to a guaranteed *persistent request*
    /// (Token Coherence's forward-progress mechanism, carried on the
    /// reliable virtual channel). Fault-free, the first broadcast attempt
    /// always succeeds, so the extra rungs are never exercised and the
    /// ladder is exactly the original three attempts.
    ///
    /// The token operation runs once, under the primary lane's
    /// destinations; the lane does the filter's accounting. Extra lanes
    /// replay the transaction against the block's pre-transaction
    /// [`BlockView`] once it has completed.
    ///
    /// This is the allocation-free fast path: destination sets, delivered
    /// sets, and invalidation sets are `u64` core bitmasks end to end, and
    /// fault-free request fan-out and token replies are accounted as
    /// batched multicasts. `tests/spec_refinement.rs` checks it against
    /// the executable specification after every round.
    fn transaction(
        &mut self,
        core: CoreId,
        access: TraceAccess,
        block: BlockAddr,
        sharing: SharingType,
    ) {
        let c = core.index();
        let tag = LineTag::from(access.agent);
        let mode = self.read_mode(access.agent, sharing);
        // For region tracking: whether the requester already held the
        // block (an upgrade does not change its region count). Only the
        // RegionScout branches read it.
        let requester_had = self.region_filter.is_some() && self.l2[c].probe(block).is_some();
        // Extra lanes replay this transaction against the block as it is
        // now, before the token operation changes it.
        if !self.extra_lanes.is_empty() {
            self.probe_for_lanes(c, access.agent, sharing, block);
        }

        let transient_attempts: u32 = if self.faults.is_some() { 5 } else { 3 };
        for attempt in 0..=transient_attempts {
            let persistent = attempt == transient_attempts;
            let (ctx, lane, _) = self.lanes_mut();
            let a = lane.begin_attempt(&ctx, c, access.agent, sharing, block, attempt, persistent);
            let sent = lane.send_requests(c, &a);
            let (delivered, memory_heard) = (sent.delivered, sent.memory_heard);

            let tokens_moved: u32;
            let outcome = if access.write {
                let w = self.protocol.write_miss_masked(
                    self.l2.as_mut_slice(),
                    c,
                    delivered,
                    block,
                    memory_heard,
                    tag,
                );
                tokens_moved = w.tokens_moved();
                TxOutcome {
                    success: w.success,
                    source: w.source,
                    token_repliers: w.token_repliers,
                    invalidated: w.invalidated,
                    evicted: w.evicted,
                    evicted_dirty: w.evicted_dirty,
                }
            } else {
                let r = self.protocol.read_miss_masked(
                    self.l2.as_mut_slice(),
                    c,
                    delivered,
                    block,
                    memory_heard,
                    tag,
                    mode,
                );
                tokens_moved = r.tokens_moved();
                TxOutcome {
                    success: r.success,
                    source: r.source,
                    token_repliers: 0,
                    invalidated: r.invalidated,
                    evicted: r.evicted,
                    evicted_dirty: r.evicted_dirty,
                }
            };

            // Observability hook: one flight-recorder event and one
            // fan-out histogram sample per attempt. Off, this is a
            // single relaxed atomic load plus one `Option` branch.
            if crate::obs::enabled() {
                use crate::obs::FlightEvent;
                let mut flags = 0u8;
                if access.write {
                    flags |= FlightEvent::FLAG_WRITE;
                }
                if a.filtered && a.dests != valid_core_mask(self.cfg.n_cores()) & !(1u64 << c) {
                    flags |= FlightEvent::FLAG_FILTERED;
                }
                if a.degraded {
                    flags |= FlightEvent::FLAG_DEGRADED;
                }
                if persistent {
                    flags |= FlightEvent::FLAG_PERSISTENT;
                }
                if memory_heard {
                    flags |= FlightEvent::FLAG_MEMORY;
                }
                if outcome.success {
                    flags |= FlightEvent::FLAG_SUCCESS;
                }
                crate::obs::record_tx(FlightEvent {
                    cycle: self.cycle,
                    block: block.index(),
                    dest_mask: a.dests,
                    delivered,
                    core: c as u16,
                    tokens_moved: tokens_moved.min(u32::from(u16::MAX)) as u16,
                    attempt: attempt as u8,
                    sharing: sharing as u8,
                    flags,
                });
            }
            if let Some(ep) = self.epochs.as_deref_mut() {
                ep.record_fanout(delivered.count_ones() as usize + 1);
            }

            let (ctx, lane, _) = self.lanes_mut();
            lane.finish_attempt(&ctx, c, access.agent, &outcome, sent.worst_req_lat);

            // Region tracking (RegionScout baseline): lines that left
            // remote caches or were displaced locally.
            if let Some(rf) = &mut self.region_filter {
                let region = rf.region_of(block);
                if a.filtered && a.dests == 0 {
                    rf.record_hit();
                }
                for j in mask_cores(outcome.invalidated) {
                    rf.on_remove(j, region);
                }
                if let Some(v) = &outcome.evicted {
                    let vr = rf.region_of(v.block);
                    rf.on_remove(c, vr);
                }
            }

            // Post-transaction bookkeeping.
            self.apply_invalidations_mask(outcome.invalidated, block);
            let evicted_dirty = outcome.evicted.map(|_| outcome.evicted_dirty);
            if let Some(victim) = outcome.evicted {
                self.handle_eviction(c, victim, outcome.evicted_dirty);
            }

            if outcome.success {
                if let Some(rf) = &mut self.region_filter {
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
                    if delivered.count_ones() as usize + 1 == self.cfg.n_cores()
                        && !rf.shared_elsewhere(c, region)
                    {
                        rf.learn(c, region);
                    }
                }
                self.fill_l1(c, block, access.agent);
                if !self.extra_lanes.is_empty() {
                    self.replay_extra_lanes(c, access, block, sharing, evicted_dirty);
                }
                return;
            } else if let Some(rf) = &mut self.region_filter {
                // A failed memory-direct attempt means the NSRT entry was
                // stale; drop it so the broadcast retry re-verifies.
                if a.dests == 0 {
                    rf.forget(c, rf.region_of(block));
                }
            }

            assert!(
                !persistent,
                "persistent broadcast with memory cannot fail: it reaches \
                 every token holder on the reliable channel"
            );
            self.lane.back_off(c, attempt, sent.worst_req_lat);
        }
        unreachable!("the persistent attempt either succeeds or asserts");
    }

    /// Records the block's pre-transaction state for the extra lanes,
    /// probing first the requester and the caches any extra lane's first
    /// attempt snoops ([`BlockView::probe`]).
    #[cold]
    #[inline(never)]
    fn probe_for_lanes(&mut self, c: usize, agent: Agent, sharing: SharingType, block: BlockAddr) {
        let (ctx, _, extra) = self.lanes_mut();
        let first = extra.iter().fold(1u64 << c, |mask, lane| {
            mask | lane.destinations(&ctx, c, agent, sharing, true, block).0
        });
        self.lane_view = Some(BlockView::probe(&self.l2, &self.protocol, c, block, first));
    }

    /// Has every extra lane replay the completed transaction against the
    /// block as it was probed before it. Kept out of line so a
    /// single-lane transaction carries no lane state.
    #[inline(never)]
    fn replay_extra_lanes(
        &mut self,
        c: usize,
        access: TraceAccess,
        block: BlockAddr,
        sharing: SharingType,
        evicted_dirty: Option<bool>,
    ) {
        let view = self.lane_view.take().expect("probed at transaction start");
        let (ctx, _, extra) = self.lanes_mut();
        for lane in extra {
            lane.replay(&ctx, view, c, access, block, sharing, evicted_dirty);
        }
    }

    /// Splits the simulator into the shared machine view lanes account
    /// against, the primary lane, and the extra lanes.
    fn lanes_mut(&mut self) -> (LaneCtx<'_>, &mut FilterLane, &mut [FilterLane]) {
        (
            LaneCtx {
                cfg: &self.cfg,
                l2: &self.l2,
                hv: &self.hv,
                friends: &self.friends,
                region_filter: self.region_filter.as_ref(),
                content_policy: self.content_policy,
                cycle: self.cycle,
            },
            &mut self.lane,
            &mut self.extra_lanes,
        )
    }

    fn read_mode(&self, agent: Agent, sharing: SharingType) -> ReadMode {
        // The relaxed clean-shared provider rule is the Section VI protocol
        // modification; it only applies when virtual snooping routes
        // content pages away from broadcast.
        if sharing == SharingType::RoShared
            && agent.guest_vm().is_some()
            && self.lane.policy.uses_vcpu_maps()
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

    /// Applies L1 back-invalidation and residence-counter events for the
    /// lines the protocol removed from remote caches (cores visited in
    /// ascending order).
    fn apply_invalidations_mask(&mut self, invalidated: u64, block: BlockAddr) {
        for j in mask_cores(invalidated) {
            if let Some(line) = self.l1[j].remove(block) {
                debug_assert_eq!(line.block, block);
            }
        }
        let (ctx, lane, _) = self.lanes_mut();
        lane.on_invalidated(&ctx, invalidated);
    }

    #[inline(always)]
    fn handle_eviction(&mut self, c: usize, victim: CacheLine, dirty: bool) {
        // Inclusive hierarchy: the L1 copy goes too.
        self.l1[c].remove(victim.block);
        if dirty {
            self.lane.stats.writebacks += 1;
        }
        let (ctx, lane, _) = self.lanes_mut();
        lane.on_eviction(&ctx, c, dirty);
    }

    /// Table VI: who *could* supply a content-shared read miss.
    fn classify_holders(&mut self, block: BlockAddr, vm: Option<VmId>) {
        let mut holders = 0u64;
        // Tokens all at memory prove that no cache holds the block
        // (`TokenMemory::all_home`).
        let ledger = &self.protocol;
        if ledger.memory_tokens(block) < ledger.total_tokens() {
            for j in 0..self.cfg.n_cores() {
                if self.l2[j].probe(block).is_some() {
                    holders |= 1u64 << j;
                }
            }
        }
        if holders == 0 {
            self.lane.stats.holders_memory += 1;
            return;
        }
        self.lane.stats.holders_any_cache += 1;
        let Some(vm) = vm else { return };
        for lane in std::iter::once(&mut self.lane).chain(&mut self.extra_lanes) {
            lane.classify_holders(holders, vm, &self.friends);
        }
    }

    fn refresh_friends(&mut self, workload: &impl SystemWorkload) {
        for (v, friend) in self.friends.iter_mut().enumerate() {
            *friend = workload.friend_of(VmId::new(v as u16));
        }
    }

    /// Verifies token conservation for `block` across the whole machine
    /// (test hook).
    pub fn check_invariant(&self, block: BlockAddr) -> bool {
        self.protocol.check_invariant(&self.l2, block)
    }
}

/// A warm-state snapshot: a frozen copy of a [`Simulator`] paired with
/// the [`Workload`] position that produced it, taken with
/// [`Simulator::snapshot`].
///
/// Forking re-clones both halves, so one snapshot can seed any number
/// of runs; each fork continues the bit-identical access stream from
/// the captured point. [`SimSnapshot::fork_with_policy`] additionally
/// retargets the filter policy, which is sound for warm state the
/// policies agree on (see the broadcast-vs-filtered architectural-state
/// oracle in `tests/differential_oracle.rs`) — the one exception,
/// RegionScout's per-core region-filter state, is rejected.
#[derive(Clone, Debug)]
pub struct SimSnapshot {
    sim: Simulator,
    workload: Workload,
}

impl SimSnapshot {
    /// Resumes from the captured state under the policy it was warmed
    /// with.
    pub fn fork(&self) -> (Simulator, Workload) {
        (self.sim.clone(), self.workload.clone())
    }

    /// Resumes from the captured state under a different filter /
    /// content-routing policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the retarget crosses the
    /// RegionScout boundary in either direction: the region filter's
    /// per-core not-shared-region tables are warmed by the policy itself,
    /// so a snapshot warmed without them (or with them) cannot stand in
    /// for a fresh warm-up under the other family.
    pub fn fork_with_policy(
        &self,
        policy: FilterPolicy,
        content_policy: ContentPolicy,
    ) -> Result<(Simulator, Workload), SimError> {
        let warmed = self.sim.lane.policy;
        let scout = |p: FilterPolicy| matches!(p, FilterPolicy::RegionScout { .. });
        if (scout(warmed) || scout(policy)) && policy != warmed {
            return Err(SimError::InvalidConfig(crate::config::ConfigError::new(
                format!(
                    "cannot retarget a warm snapshot across the RegionScout boundary \
                     (warmed under {warmed}, requested {policy}): region-filter state \
                     is policy-specific"
                ),
            )));
        }
        let mut sim = self.sim.clone();
        sim.lane.policy = policy;
        sim.content_policy = content_policy;
        Ok((sim, self.workload.clone()))
    }

    /// The filter policy the snapshot was warmed under.
    pub fn warmed_policy(&self) -> FilterPolicy {
        self.sim.lane.policy
    }
}

/// One protocol attempt's outcome, read or write alike, with the
/// token-only repliers and the invalidated remote cores as bitmasks.
struct TxOutcome {
    success: bool,
    source: Option<DataSource>,
    token_repliers: u64,
    invalidated: u64,
    evicted: Option<CacheLine>,
    evicted_dirty: bool,
}

impl Simulator {
    /// Test/diagnostic hook: the blocks currently valid in `core`'s L2.
    pub fn debug_l2_lines(&self, core: usize) -> Vec<BlockAddr> {
        self.l2[core].lines().map(|l| l.block).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{profile, Workload, WorkloadConfig};

    fn small_sim(policy: FilterPolicy) -> (Simulator, Workload) {
        let cfg = SystemConfig::small_test();
        let sim = Simulator::new(cfg, policy, ContentPolicy::Broadcast);
        let wl = Workload::homogeneous(
            profile("cholesky").unwrap(),
            cfg.n_vms,
            WorkloadConfig {
                vcpus_per_vm: cfg.vcpus_per_vm,
                ..Default::default()
            },
        );
        (sim, wl)
    }

    #[test]
    fn engine_workers_none_auto_picks_available_parallelism() {
        let (mut sim, _) = small_sim(FilterPolicy::TokenBroadcast);
        sim.set_engine_workers(None);
        assert_eq!(sim.resolved_engine_workers(), crate::knob::auto_workers());
        sim.set_engine_workers(4);
        assert_eq!(sim.resolved_engine_workers(), 4);
        sim.set_engine_workers(0); // clamped to the serial floor
        assert_eq!(sim.resolved_engine_workers(), 1);
    }

    #[test]
    fn baseline_broadcasts_everything() {
        let (mut sim, mut wl) = small_sim(FilterPolicy::TokenBroadcast);
        sim.run(&mut wl, 500);
        let s = sim.stats();
        assert!(s.l2_misses > 0, "workload must miss");
        // Every transaction snoops all 4 cores (3 remote + requester),
        // possibly more due to retries (there are none for broadcast).
        assert_eq!(s.snoops, s.l2_misses * 4);
        assert_eq!(s.retries, 0);
    }

    #[test]
    fn vsnoop_filters_private_misses_to_vm_domain() {
        let (mut sim, mut wl) = small_sim(FilterPolicy::VsnoopBase);
        sim.run(&mut wl, 500);
        let s = sim.stats();
        assert!(s.l2_misses > 0);
        // 2 VMs x 2 cores on 4 cores: private misses snoop 2 cores
        // (1 remote + requester). No host or content traffic here.
        assert_eq!(s.misses_private, s.l2_misses);
        assert_eq!(s.snoops, s.l2_misses * 2);
        assert_eq!(s.retries, 0, "correct filtering never needs retries");
    }

    #[test]
    fn filtering_halves_snoops_and_cuts_traffic() {
        let (mut base_sim, mut wl_a) = small_sim(FilterPolicy::TokenBroadcast);
        let (mut filt_sim, mut wl_b) = small_sim(FilterPolicy::VsnoopBase);
        base_sim.run(&mut wl_a, 800);
        filt_sim.run(&mut wl_b, 800);
        assert_eq!(
            base_sim.stats().l2_misses,
            filt_sim.stats().l2_misses,
            "same seed, same trace, same misses"
        );
        assert!(filt_sim.stats().snoops * 2 <= base_sim.stats().snoops);
        assert!(filt_sim.traffic().byte_links() < base_sim.traffic().byte_links());
    }

    /// Regression test for the empty-register corner: `ClearBit`
    /// corruption can strip a VM's vCPU map bit by bit, and `Garbage` can
    /// zero it outright. The requester-side validation must then degrade
    /// the snoop to a full broadcast — a *zero-destination* filtered
    /// snoop would skip every remote copy and silently break coherence.
    #[test]
    fn emptied_vcpu_map_degrades_to_broadcast_not_zero_destinations() {
        let (mut sim, mut wl) = small_sim(FilterPolicy::VsnoopBase);
        sim.enable_checker(CheckerConfig::default());
        sim.run(&mut wl, 300);

        // Empty VM 0's register the way the fault injector would.
        sim.lane.maps.corrupt(0, VcpuMap::from_mask(0));
        assert_eq!(sim.vcpu_map(VmId::new(0)).len(), 0);

        // Direct pin on the destination computation: with the requester's
        // own bit gone (vacuously true of an empty register), validation
        // fails and the filter falls back to all remote cores + memory.
        let agent = Agent::Guest(VcpuId::new(VmId::new(0), 0));
        let (ctx, lane, _) = sim.lanes_mut();
        let (dests, memory, degraded) = lane.destinations(
            &ctx,
            0,
            agent,
            SharingType::VmPrivate,
            true,
            BlockAddr::new(0),
        );
        assert!(degraded, "empty map must fail use-time validation");
        assert!(memory, "degraded broadcast still includes memory");
        assert_eq!(
            dests,
            valid_core_mask(sim.cfg.n_cores()) & !1,
            "fallback must be a full broadcast, never an empty snoop set"
        );

        // End-to-end: keep running on the emptied register (no fault plan
        // is installed, so no audit repairs it). Every VM-0 private miss
        // degrades to broadcast; the checker proves coherence held.
        let degraded_before = sim.stats().degraded_broadcasts;
        sim.run(&mut wl, 300);
        assert!(
            sim.stats().degraded_broadcasts > degraded_before,
            "runs on an emptied register must be counted as degraded"
        );
        sim.run_checker_sweep();
        let checker = sim.checker().expect("checker enabled");
        // The map audit is *supposed* to flag the corrupted register
        // (`MapCoverage`); what must not appear is any token/data
        // violation, which is what a zero-destination snoop would cause.
        let coherence: Vec<_> = checker
            .violations()
            .iter()
            .filter(|v| v.kind != crate::checker::InvariantKind::MapCoverage)
            .collect();
        assert!(
            coherence.is_empty(),
            "degraded broadcasts must preserve coherence: {coherence:?}"
        );
    }

    /// A checker enabled mid-run must still see the lines cached before
    /// it: the sweep reads its blocks off the machine, not off a record
    /// of the transactions it watched.
    #[test]
    fn checker_enabled_mid_run_sees_lines_cached_before_it() {
        let (mut sim, mut wl) = small_sim(FilterPolicy::VsnoopBase);
        sim.run(&mut wl, 2000);
        sim.enable_checker(CheckerConfig::default());
        let block = sim.debug_corrupt_token_state().expect("a cached line");
        sim.run_checker_sweep();
        let checker = sim.checker().expect("checker enabled");
        assert!(checker.block_checks() > 0, "the sweep checked no block");
        assert!(
            checker.violations().iter().any(|v| {
                v.kind == crate::checker::InvariantKind::DirtyWithoutOwner
                    && v.detail.contains(&format!("{:?}", BlockAddr::new(block)))
            }),
            "corrupted block {block} went unreported: {:?}",
            checker.violations()
        );
    }

    #[test]
    fn invariants_hold_after_mixed_run() {
        let (mut sim, mut wl) = small_sim(FilterPolicy::VsnoopBase);
        sim.run(&mut wl, 400);
        // Probe a swath of blocks across every VM's address space.
        for b in 0..2000u64 {
            assert!(sim.check_invariant(BlockAddr::new(b)), "block {b}");
        }
    }

    #[test]
    fn swap_grows_map_and_counter_later_shrinks_it() {
        let (mut sim, mut wl) = small_sim(FilterPolicy::Counter);
        sim.run(&mut wl, 300);
        let vm0 = VmId::new(0);
        let vm1 = VmId::new(1);
        assert_eq!(sim.vcpu_map(vm0).len(), 2);
        let a = VcpuId::new(vm0, 0);
        let b = VcpuId::new(vm1, 0);
        sim.swap_vcpus(a, b).unwrap();
        // Both VMs' maps grew to include the new core.
        assert_eq!(sim.vcpu_map(vm0).len(), 3);
        assert_eq!(sim.vcpu_map(vm1).len(), 3);
        // Run long enough for the new tenants to evict the old lines.
        sim.run(&mut wl, 8_000);
        assert!(
            sim.stats().map_removes > 0,
            "counter mechanism should have removed obsolete cores"
        );
        assert!(
            sim.vcpu_map(vm0).len() <= 3 && sim.vcpu_map(vm1).len() <= 3,
            "maps must not grow unboundedly"
        );
        // Removal events carry measured periods.
        assert!(sim.removal_log().iter().any(|e| e.period.is_some()));
    }

    #[test]
    fn vsnoop_base_never_shrinks_maps() {
        let (mut sim, mut wl) = small_sim(FilterPolicy::VsnoopBase);
        sim.run(&mut wl, 200);
        sim.swap_vcpus(VcpuId::new(VmId::new(0), 0), VcpuId::new(VmId::new(1), 0))
            .unwrap();
        sim.run(&mut wl, 5_000);
        assert_eq!(sim.stats().map_removes, 0);
        assert_eq!(sim.vcpu_map(VmId::new(0)).len(), 3);
    }

    #[test]
    fn reset_measurement_keeps_caches_warm() {
        let (mut sim, mut wl) = small_sim(FilterPolicy::TokenBroadcast);
        sim.run(&mut wl, 500);
        let misses_cold = sim.stats().miss_rate();
        sim.reset_measurement();
        assert_eq!(sim.stats().accesses, 0);
        sim.run(&mut wl, 500);
        let misses_warm = sim.stats().miss_rate();
        assert!(
            misses_warm < misses_cold,
            "warm run ({misses_warm}) should miss less than cold ({misses_cold})"
        );
    }

    #[test]
    fn host_misses_are_broadcast_under_filtering() {
        let cfg = SystemConfig::small_test();
        let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
        let mut wl = Workload::homogeneous(
            profile("SPECweb").unwrap(),
            cfg.n_vms,
            WorkloadConfig {
                vcpus_per_vm: cfg.vcpus_per_vm,
                host_activity: true,
                ..Default::default()
            },
        );
        sim.run(&mut wl, 3_000);
        let s = sim.stats();
        assert!(s.misses_dom0 + s.misses_hyp > 0, "host activity expected");
        assert!(s.host_miss_fraction() > 0.0);
        // Host misses snoop all 4; guest misses snoop 2. Total snoops sit
        // strictly between the two extremes.
        assert!(s.snoops > s.l2_misses * 2);
        assert!(s.snoops < s.l2_misses * 4);
    }

    /// A 1x1 mesh has no links, so its utilization is 0, not 0/0: every
    /// miss stalls at least for the L2 and the DRAM access, on the serial
    /// path and in the batched engine alike.
    #[test]
    fn one_by_one_mesh_charges_stall() {
        let cfg = SystemConfig {
            mesh_width: 1,
            mesh_height: 1,
            n_vms: 1,
            vcpus_per_vm: 1,
            ..SystemConfig::small_test()
        };
        let stall = |workers: usize| {
            let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
            sim.set_engine_workers(workers);
            let mut wl = Workload::homogeneous(
                profile("cholesky").unwrap(),
                1,
                WorkloadConfig {
                    vcpus_per_vm: 1,
                    ..Default::default()
                },
            );
            sim.run(&mut wl, 2_000);
            (sim.stats().l2_misses, sim.stats().stall_cycles.clone())
        };
        let (misses, serial) = stall(1);
        assert!(misses > 0);
        assert!(
            serial[0] >= misses * (cfg.l2_latency + cfg.memory_latency),
            "{misses} misses stalled {} cycles",
            serial[0]
        );
        assert_eq!(stall(2), (misses, serial));
    }
}
