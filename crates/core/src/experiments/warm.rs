//! Warm-state reuse across experiment cells.
//!
//! Every paper artifact re-simulates the same machine from cold: warm
//! the caches for `warmup_rounds`, reset the counters, measure. The
//! warm-up depends only on the workload trace — PR 2's differential
//! oracle (`tests/differential_oracle.rs`) proves the warmed
//! *architectural* state is identical across filter policies on the
//! same access stream — so most cells of a sweep re-pay a warm-up that
//! an earlier cell already computed.
//!
//! This module eliminates that repetition with three process-wide caches:
//!
//! 1. **The warm pool** — warmed [`SimSnapshot`]s keyed by everything
//!    the warm-up actually depends on: application profile, machine
//!    configuration, seed, warm-up length, host activity, content
//!    sharing, and — only where the oracle
//!    does *not* prove policy-independence — the policy pair itself
//!    ([`WarmClass::PerPolicy`]). Cells in the policy-independent class
//!    warm **once** under the canonical broadcast pair and fork per
//!    policy/period.
//! 2. **The cell memo** — finished measurement results
//!    ([`CellResult`]: stats, traffic, removal log) keyed by the full
//!    cell parameters, so reports that re-run identical cells (Table IV
//!    vs Fig. 6, Fig. 7's counter cells vs Fig. 9, Table V vs Table VI
//!    vs Fig. 10's broadcast bars) simulate them once. Migration cells
//!    that differ only in policy are simulated together as filter lanes
//!    of one run ([`lane_cells`]), which fills one memo entry per policy:
//!    the Figs. 7-9 sweep runs one simulation per (app, period), not one
//!    per (app, period, policy).
//! 3. **The scheduler memo** — the Fig. 3 = Table I rows per seed
//!    ([`SchedRow`]): both artifacts read the same credit-scheduler runs,
//!    so a pass makes them once.
//!
//! The caches serve *bit-identical* state — forked-vs-fresh identity
//! is pinned per policy by `tests/fork_identity.rs`, and campaign
//! stdout is pinned by the frozen report digests of `report_differential` —
//! so reuse is purely a wall-clock optimization and is always on.
//!
//! The pool holds full machine snapshots (megabytes each), so it is
//! bounded by an LRU cap of [`DEFAULT_WARM_CAP`] snapshots; the memos
//! hold only extracted counters and rows and are unbounded. Concurrent
//! shards warming the same key block on a per-key [`OnceLock`], so a
//! warm-up is computed exactly once even under
//! [`crate::runner::scatter`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sim_net::TrafficStats;
use workloads::{AppProfile, Workload, WorkloadConfig};

use crate::config::SystemConfig;
use crate::experiments::common::RunScale;
use crate::experiments::SchedRow;
use crate::policy::{ContentPolicy, FilterPolicy};
use crate::simulator::{SimSnapshot, Simulator};
use crate::stats::{RemovalEvent, SimStats};

/// LRU capacity of the warm pool, in snapshots. Sized to keep
/// one phase of the campaign fully resident (ten simulation apps or
/// nine content apps, plus headroom) without letting full-scale
/// snapshots (several MB each) accumulate without bound.
pub const DEFAULT_WARM_CAP: usize = 16;

/// The canonical warm-up policies for the policy-independent class:
/// the TokenB baseline with broadcast content routing. Fixed — never
/// "whichever cell asked first" — so the cached state is independent
/// of shard scheduling order.
const CANONICAL: (FilterPolicy, ContentPolicy) =
    (FilterPolicy::TokenBroadcast, ContentPolicy::Broadcast);

/// Which warm-ups may share a snapshot.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum WarmClass {
    /// The oracle-backed policy-independent class: any non-RegionScout
    /// policy, provided content-shared pages are routed by broadcast
    /// (or do not exist). Warmed under [`CANONICAL`].
    Shared,
    /// Policies whose warm-up state is policy-specific: RegionScout
    /// (per-core region tables) and non-broadcast content routing
    /// (the relaxed clean-shared provider rule changes the warmed
    /// token states).
    PerPolicy {
        policy: FilterPolicy,
        content_policy: ContentPolicy,
    },
}

/// Everything a warm-up depends on.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct WarmKey {
    app: &'static str,
    /// `SystemConfig` carries `f64` latency parameters, so it cannot be
    /// `Eq`/`Hash` itself; its `Debug` form is canonical and total.
    cfg: String,
    seed: u64,
    warmup_rounds: u64,
    host_activity: bool,
    content_sharing: bool,
    class: WarmClass,
}

/// One fully-specified experiment cell (warm-up + measurement).
#[derive(Clone, Debug)]
pub(crate) struct CellSpec {
    pub app: &'static AppProfile,
    pub policy: FilterPolicy,
    pub content_policy: ContentPolicy,
    pub content_sharing: bool,
    pub host_activity: bool,
    pub cfg: SystemConfig,
    pub scale: RunScale,
    /// `Some(period_ms)` runs the measurement with periodic cross-VM
    /// shuffles (the Figs. 7-9 migration model); `None` runs pinned.
    pub migration_period_ms: Option<f64>,
}

impl CellSpec {
    fn memo_key(&self) -> CellKey {
        CellKey {
            app: self.app.name,
            cfg: format!("{:?}", self.cfg),
            policy: self.policy,
            content_policy: self.content_policy,
            content_sharing: self.content_sharing,
            host_activity: self.host_activity,
            scale: (
                self.scale.warmup_rounds,
                self.scale.measure_rounds,
                self.scale.seed,
            ),
            migration_period_bits: self.migration_period_ms.map(f64::to_bits),
        }
    }
}

/// Memo key: the full cell parameters ([`CellSpec`] with the `f64`
/// period and the non-`Eq` config made hashable).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct CellKey {
    app: &'static str,
    cfg: String,
    policy: FilterPolicy,
    content_policy: ContentPolicy,
    content_sharing: bool,
    host_activity: bool,
    scale: (u64, u64, u64),
    migration_period_bits: Option<u64>,
}

/// The measured outputs the report layer consumes from a finished cell.
#[derive(Clone, Debug)]
pub(crate) struct CellResult {
    pub stats: SimStats,
    pub traffic: TrafficStats,
    pub removal_log: Vec<RemovalEvent>,
}

impl CellResult {
    /// What filter lane `lane` of `sim` measured.
    fn capture(sim: &Simulator, lane: usize) -> Self {
        CellResult {
            stats: sim.lane_stats(lane),
            traffic: *sim.lane_traffic(lane),
            removal_log: sim.lane_removal_log(lane).to_vec(),
        }
    }
}

/// Warm-pool effectiveness counters (process-wide, monotonic). A *hit*
/// is a [`warmed_pair`] call served from a pooled snapshot (including
/// threads that blocked while another warmer initialized the slot); a
/// *miss* is a call that had to compute the warm-up; an *eviction* is
/// an LRU drop under [`DEFAULT_WARM_CAP`]. A zero-round warm-up touches
/// none of them — it never consults the pool.
static WARM_HITS: AtomicU64 = AtomicU64::new(0);
static WARM_MISSES: AtomicU64 = AtomicU64::new(0);
static WARM_EVICTIONS: AtomicU64 = AtomicU64::new(0);
/// Measured phases simulated for experiment cells: one per cell, or one
/// per group of cells run as filter lanes of a single simulation.
static CELL_SIMULATIONS: AtomicU64 = AtomicU64::new(0);
/// Credit-scheduler runs made for Fig. 3 / Table I rows.
static SCHEDULER_RUNS: AtomicU64 = AtomicU64::new(0);

/// Current warm-pool `(hits, misses, evictions)` counters. Surfaced in
/// telemetry heartbeats and epoch snapshots so the LRU cap's
/// effectiveness is visible.
pub fn warm_counters() -> (u64, u64, u64) {
    (
        WARM_HITS.load(Ordering::Relaxed),
        WARM_MISSES.load(Ordering::Relaxed),
        WARM_EVICTIONS.load(Ordering::Relaxed),
    )
}

/// Measured phases simulated for experiment cells so far (process-wide,
/// monotonic): a cell served from the memo adds nothing, and a group of
/// cells run as filter lanes of one simulation adds one.
pub fn cell_simulations() -> u64 {
    CELL_SIMULATIONS.load(Ordering::Relaxed)
}

/// `run_scheduler` calls made for Fig. 3 / Table I rows so far
/// (process-wide, monotonic): rows served from the memo add nothing.
#[doc(hidden)]
pub fn scheduler_runs() -> u64 {
    SCHEDULER_RUNS.load(Ordering::Relaxed)
}

pub(crate) fn count_scheduler_run() {
    SCHEDULER_RUNS.fetch_add(1, Ordering::Relaxed);
}

/// Zeroes the warm-pool, cell-simulation and scheduler-run counters
/// (test hook).
#[doc(hidden)]
pub fn reset_warm_counters() {
    WARM_HITS.store(0, Ordering::Relaxed);
    WARM_MISSES.store(0, Ordering::Relaxed);
    WARM_EVICTIONS.store(0, Ordering::Relaxed);
    CELL_SIMULATIONS.store(0, Ordering::Relaxed);
    SCHEDULER_RUNS.store(0, Ordering::Relaxed);
    tenant_counters()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// Per-tenant `(hits, misses)` accounting for the shared cross-tenant
/// warm pool. Keyed by the thread's [`crate::obs::tenant_label`] —
/// installed by the service for each request and propagated to shard
/// workers by `scatter` — so every tenant can see how much of the
/// shared cache it is actually getting. A `BTreeMap` keeps the listing
/// order deterministic.
fn tenant_counters() -> &'static Mutex<std::collections::BTreeMap<String, (u64, u64)>> {
    static TENANTS: OnceLock<Mutex<std::collections::BTreeMap<String, (u64, u64)>>> =
        OnceLock::new();
    TENANTS.get_or_init(Mutex::default)
}

/// Records one warm-pool hit or miss against the current tenant, if
/// the thread carries a tenant label. CLI campaigns (no label) skip
/// the map entirely.
fn count_tenant(hit: bool) {
    let Some(tenant) = crate::obs::tenant_label() else {
        return;
    };
    let mut map = tenant_counters().lock().unwrap_or_else(|e| e.into_inner());
    let entry = map.entry(tenant).or_insert((0, 0));
    if hit {
        entry.0 += 1;
    } else {
        entry.1 += 1;
    }
}

/// Per-tenant warm-pool `(tenant, hits, misses)` counters, sorted by
/// tenant name. Empty unless requests ran with a tenant label (i.e.
/// through the service).
pub fn warm_tenant_counters() -> Vec<(String, u64, u64)> {
    tenant_counters()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(t, &(h, m))| (t.clone(), h, m))
        .collect()
}

/// Per-key slot: the `OnceLock` makes concurrent warmers of one key
/// block until the first finishes, instead of warming twice.
type WarmSlot = Arc<OnceLock<Arc<SimSnapshot>>>;
type MemoSlot = Arc<OnceLock<Arc<CellResult>>>;
type SchedSlot = Arc<OnceLock<Vec<SchedRow>>>;

#[derive(Default)]
struct WarmPool {
    slots: HashMap<WarmKey, WarmSlot>,
    /// LRU order, least-recent first.
    order: Vec<WarmKey>,
}

impl WarmPool {
    fn slot(&mut self, key: &WarmKey) -> WarmSlot {
        self.order.retain(|k| k != key);
        self.order.push(key.clone());
        let slot = self.slots.entry(key.clone()).or_default().clone();
        while self.order.len() > DEFAULT_WARM_CAP {
            let evicted = self.order.remove(0);
            self.slots.remove(&evicted);
            WARM_EVICTIONS.fetch_add(1, Ordering::Relaxed);
        }
        slot
    }
}

fn pool() -> &'static Mutex<WarmPool> {
    static POOL: OnceLock<Mutex<WarmPool>> = OnceLock::new();
    POOL.get_or_init(Mutex::default)
}

fn memo() -> &'static Mutex<HashMap<CellKey, MemoSlot>> {
    static MEMO: OnceLock<Mutex<HashMap<CellKey, MemoSlot>>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

fn sched_memo() -> &'static Mutex<HashMap<u64, SchedSlot>> {
    static MEMO: OnceLock<Mutex<HashMap<u64, SchedSlot>>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

/// Drops every cached snapshot, memoized cell result and memoized
/// Fig. 3 = Table I row set, so the next run pays the full cold cost
/// (the benchmark's `campaign` passes and tests use it).
pub fn clear_warm_pool() {
    let mut p = pool().lock().expect("warm pool poisoned");
    p.slots.clear();
    p.order.clear();
    memo().lock().expect("cell memo poisoned").clear();
    sched_memo()
        .lock()
        .expect("scheduler memo poisoned")
        .clear();
}

/// Number of snapshots currently pooled (test hook).
#[doc(hidden)]
pub fn warm_pool_len() -> usize {
    pool().lock().expect("warm pool poisoned").slots.len()
}

/// The Fig. 3 / Table I rows for `seed`: `compute`d on first use, then
/// served from the scheduler memo. Concurrent callers for one seed (Fig. 3
/// and Table I as parallel campaign jobs) block on the first.
pub(crate) fn sched_rows(seed: u64, compute: impl FnOnce() -> Vec<SchedRow>) -> Vec<SchedRow> {
    let slot = sched_memo()
        .lock()
        .expect("scheduler memo poisoned")
        .entry(seed)
        .or_default()
        .clone();
    slot.get_or_init(compute).clone()
}

/// Builds a cold simulator + workload pair for the given cell
/// parameters under explicit policies.
fn build(
    app: &'static AppProfile,
    policy: FilterPolicy,
    content_policy: ContentPolicy,
    content_sharing: bool,
    host_activity: bool,
    cfg: SystemConfig,
    seed: u64,
) -> (Simulator, Workload) {
    let sim = Simulator::new(cfg, policy, content_policy);
    let wl = Workload::homogeneous(
        app,
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed,
            host_activity,
            content_sharing,
        },
    );
    (sim, wl)
}

/// Returns a *warmed* simulator + workload pair for the given cell
/// parameters: `warmup_rounds` already executed, measurement not yet
/// started (callers run `reset_measurement()` + the measured phase).
///
/// The pair is forked from the pooled snapshot of the cell's
/// [`WarmClass`] — warming it on first use. A zero-round warm-up has
/// nothing to share, so it is built cold.
pub(crate) fn warmed_pair(
    app: &'static AppProfile,
    policy: FilterPolicy,
    content_policy: ContentPolicy,
    content_sharing: bool,
    host_activity: bool,
    cfg: SystemConfig,
    scale: RunScale,
) -> (Simulator, Workload) {
    if scale.warmup_rounds == 0 {
        let (mut sim, mut wl) = build(
            app,
            policy,
            content_policy,
            content_sharing,
            host_activity,
            cfg,
            scale.seed,
        );
        sim.run(&mut wl, scale.warmup_rounds);
        return (sim, wl);
    }

    let region_scout = matches!(policy, FilterPolicy::RegionScout { .. });
    // The oracle-backed sharing condition: filtering alone never changes
    // the warmed architectural state, but RegionScout's per-core tables
    // and the clean-shared provider rule (active only when content pages
    // are routed away from broadcast) do.
    let shared = !region_scout && (!content_sharing || content_policy == ContentPolicy::Broadcast);
    let class = if shared {
        WarmClass::Shared
    } else {
        WarmClass::PerPolicy {
            policy,
            content_policy,
        }
    };
    let key = WarmKey {
        app: app.name,
        cfg: format!("{cfg:?}"),
        seed: scale.seed,
        warmup_rounds: scale.warmup_rounds,
        host_activity,
        content_sharing,
        class,
    };

    let slot = pool().lock().expect("warm pool poisoned").slot(&key);
    let mut warmed_here = false;
    let snapshot = slot.get_or_init(|| {
        warmed_here = true;
        let (warm_policy, warm_content) = if shared {
            CANONICAL
        } else {
            (policy, content_policy)
        };
        let (mut sim, mut wl) = build(
            app,
            warm_policy,
            warm_content,
            content_sharing,
            host_activity,
            cfg,
            scale.seed,
        );
        sim.run(&mut wl, scale.warmup_rounds);
        Arc::new(sim.snapshot(&wl))
    });
    if warmed_here {
        WARM_MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        WARM_HITS.fetch_add(1, Ordering::Relaxed);
    }
    count_tenant(!warmed_here);

    if shared {
        snapshot
            .fork_with_policy(policy, content_policy)
            .expect("the shared warm class never retargets across RegionScout")
    } else {
        snapshot.fork()
    }
}

/// Executes `spec` end to end (or returns its memoized result): fork or
/// warm, reset, measure, extract. The memo is what lets two reports
/// built from identical cells simulate them once.
pub(crate) fn cell(spec: &CellSpec) -> Arc<CellResult> {
    debug_assert!(
        spec.migration_period_ms.is_none(),
        "migration cells run as filter lanes: use lane_cells"
    );
    let key = spec.memo_key();
    let slot = {
        let mut memo = memo().lock().expect("cell memo poisoned");
        memo.entry(key).or_default().clone()
    };
    slot.get_or_init(|| Arc::new(run_cell(spec))).clone()
}

/// Executes migration cells that differ only in their filter policy —
/// `spec` under each of `policies` — as one simulation with one filter
/// lane per policy, `policies[0]` primary (or returns their memoized
/// results). Each result lands in the memo under its own policy's key;
/// callers pass one group in one policy order, so a later call for the
/// group is a hit.
pub(crate) fn lane_cells(spec: &CellSpec, policies: &[FilterPolicy]) -> Vec<Arc<CellResult>> {
    let specs: Vec<CellSpec> = policies
        .iter()
        .map(|&policy| CellSpec {
            policy,
            ..spec.clone()
        })
        .collect();
    let slots: Vec<MemoSlot> = {
        let mut memo = memo().lock().expect("cell memo poisoned");
        specs
            .iter()
            .map(|s| memo.entry(s.memo_key()).or_default().clone())
            .collect()
    };
    // The first slot's initializer simulates the whole group and fills
    // the other slots, so concurrent callers of one group block on it
    // instead of simulating twice. Migration cells are only ever run as
    // a group, in one policy order, so the other slots are still empty.
    let first = slots[0]
        .get_or_init(|| {
            let mut results = run_lanes(&specs).into_iter().map(Arc::new);
            let first = results.next().expect("at least one policy");
            for (slot, r) in slots[1..].iter().zip(results) {
                assert!(
                    slot.set(r).is_ok(),
                    "a migration cell was memoized outside its lane group"
                );
            }
            first
        })
        .clone();
    std::iter::once(first)
        .chain(
            slots[1..]
                .iter()
                .map(|slot| slot.get().expect("filled with the group").clone()),
        )
        .collect()
}

/// One migrating simulation with a filter lane per spec.
fn run_lanes(specs: &[CellSpec]) -> Vec<CellResult> {
    let spec = &specs[0];
    let period_ms = spec
        .migration_period_ms
        .expect("filter lanes run the migration cells");
    let policies: Vec<FilterPolicy> = specs.iter().map(|s| s.policy).collect();
    CELL_SIMULATIONS.fetch_add(1, Ordering::Relaxed);
    let sim = crate::experiments::migration::run_migrating(
        spec.app, &policies, period_ms, spec.cfg, spec.scale,
    );
    (0..specs.len())
        .map(|lane| CellResult::capture(&sim, lane))
        .collect()
}

fn run_cell(spec: &CellSpec) -> CellResult {
    CELL_SIMULATIONS.fetch_add(1, Ordering::Relaxed);
    let sim = match spec.migration_period_ms {
        None => crate::experiments::common::run_pinned(
            spec.app,
            spec.policy,
            spec.content_policy,
            spec.content_sharing,
            spec.host_activity,
            spec.cfg,
            spec.scale,
        ),
        Some(period_ms) => crate::experiments::migration::run_migrating(
            spec.app,
            &[spec.policy],
            period_ms,
            spec.cfg,
            spec.scale,
        ),
    };
    CellResult::capture(&sim, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::run_pinned;
    use workloads::profile;

    /// Serializes tests that clear the process-wide pool or read its
    /// counters.
    static POOL_LOCK: Mutex<()> = Mutex::new(());

    fn with_pool<R>(f: impl FnOnce() -> R) -> R {
        let _g = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_warm_pool();
        f()
    }

    /// `run_pinned` without the pool: warm-up and measurement simulated
    /// from a cold machine.
    fn run_cold(app: &'static AppProfile, policy: FilterPolicy, cfg: SystemConfig) -> Simulator {
        let scale = tiny();
        let (mut sim, mut wl) = build(
            app,
            policy,
            ContentPolicy::Broadcast,
            false,
            false,
            cfg,
            scale.seed,
        );
        sim.run(&mut wl, scale.warmup_rounds);
        sim.reset_measurement();
        sim.run(&mut wl, scale.measure_rounds);
        sim
    }

    fn tiny() -> RunScale {
        RunScale {
            warmup_rounds: 400,
            measure_rounds: 300,
            seed: 0xFEED,
        }
    }

    #[test]
    fn reuse_matches_fresh_runs_bit_for_bit() {
        let cfg = SystemConfig::small_test();
        let app = profile("fft").unwrap();
        for policy in [
            FilterPolicy::TokenBroadcast,
            FilterPolicy::VsnoopBase,
            FilterPolicy::Counter,
        ] {
            let fresh = run_cold(app, policy, cfg);
            let pooled = with_pool(|| {
                run_pinned(
                    app,
                    policy,
                    ContentPolicy::Broadcast,
                    false,
                    false,
                    cfg,
                    tiny(),
                )
            });
            assert_eq!(fresh.stats(), pooled.stats(), "{policy}: stats diverged");
            assert_eq!(
                fresh.arch_state(),
                pooled.arch_state(),
                "{policy}: architectural state diverged"
            );
        }
    }

    #[test]
    fn policies_in_the_shared_class_share_one_snapshot() {
        let cfg = SystemConfig::small_test();
        let app = profile("lu").unwrap();
        with_pool(|| {
            for policy in [
                FilterPolicy::TokenBroadcast,
                FilterPolicy::VsnoopBase,
                FilterPolicy::Counter,
                FilterPolicy::COUNTER_THRESHOLD_10,
            ] {
                let _ = run_pinned(
                    app,
                    policy,
                    ContentPolicy::Broadcast,
                    false,
                    false,
                    cfg,
                    tiny(),
                );
            }
            assert_eq!(warm_pool_len(), 1, "one warm-up must serve all four");
        });
    }

    #[test]
    fn region_scout_warms_its_own_snapshot() {
        let cfg = SystemConfig::small_test();
        let app = profile("lu").unwrap();
        with_pool(|| {
            let _ = run_pinned(
                app,
                FilterPolicy::VsnoopBase,
                ContentPolicy::Broadcast,
                false,
                false,
                cfg,
                tiny(),
            );
            let _ = run_pinned(
                app,
                FilterPolicy::REGION_SCOUT_4K,
                ContentPolicy::Broadcast,
                false,
                false,
                cfg,
                tiny(),
            );
            assert_eq!(warm_pool_len(), 2, "RegionScout must not share");
        });
    }

    #[test]
    fn memoized_cells_return_identical_results() {
        let spec = CellSpec {
            app: profile("radix").unwrap(),
            policy: FilterPolicy::VsnoopBase,
            content_policy: ContentPolicy::Broadcast,
            content_sharing: false,
            host_activity: false,
            cfg: SystemConfig::small_test(),
            scale: tiny(),
            migration_period_ms: None,
        };
        let (a, b) = with_pool(|| (cell(&spec), cell(&spec)));
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a memo hit");
        let fresh = run_cold(spec.app, spec.policy, spec.cfg);
        assert_eq!(fresh.stats(), &a.stats);
    }

    #[test]
    fn counters_track_pool_hits_and_misses() {
        let cfg = SystemConfig::small_test();
        let app = profile("fft").unwrap();
        with_pool(|| {
            let (h0, m0, _) = warm_counters();
            let _ = run_pinned(
                app,
                FilterPolicy::TokenBroadcast,
                ContentPolicy::Broadcast,
                false,
                false,
                cfg,
                tiny(),
            );
            let (h1, m1, _) = warm_counters();
            assert_eq!(m1 - m0, 1, "cold pool: first warm-up is a miss");
            assert_eq!(h1 - h0, 0);
            let _ = run_pinned(
                app,
                FilterPolicy::VsnoopBase,
                ContentPolicy::Broadcast,
                false,
                false,
                cfg,
                tiny(),
            );
            let (h2, m2, _) = warm_counters();
            assert_eq!(m2 - m1, 0, "shared-class reuse must not re-warm");
            assert_eq!(h2 - h1, 1, "shared-class reuse is a hit");
        });
    }

    #[test]
    fn tenant_labels_attribute_hits_and_misses() {
        let cfg = SystemConfig::small_test();
        let app = profile("fft").unwrap();
        let scale = RunScale {
            warmup_rounds: 60,
            measure_rounds: 20,
            seed: 0xABCD,
        };
        let run = || {
            let _ = run_pinned(
                app,
                FilterPolicy::VsnoopBase,
                ContentPolicy::Broadcast,
                false,
                false,
                cfg,
                scale,
            );
        };
        with_pool(|| {
            reset_warm_counters();
            // acme pays the warm-up; globex rides the shared pool.
            crate::obs::with_tenant("acme", run);
            crate::obs::with_tenant("globex", run);
            crate::obs::with_tenant("globex", run);
            run(); // unlabelled: no tenant accounting
            let tenants = warm_tenant_counters();
            assert_eq!(
                tenants,
                vec![("acme".into(), 0, 1), ("globex".into(), 2, 0)],
                "per-tenant (hits, misses), sorted by tenant"
            );
        });
    }

    #[test]
    fn lru_cap_bounds_the_pool() {
        let cfg = SystemConfig::small_test();
        with_pool(|| {
            let (_, _, e0) = warm_counters();
            // Distinct seeds force distinct keys.
            for seed in 0..(DEFAULT_WARM_CAP as u64 + 5) {
                let scale = RunScale {
                    warmup_rounds: 50,
                    measure_rounds: 10,
                    seed,
                };
                let _ = run_pinned(
                    profile("fft").unwrap(),
                    FilterPolicy::VsnoopBase,
                    ContentPolicy::Broadcast,
                    false,
                    false,
                    cfg,
                    scale,
                );
            }
            assert!(
                warm_pool_len() <= DEFAULT_WARM_CAP,
                "pool exceeded its cap: {}",
                warm_pool_len()
            );
            let (_, _, e1) = warm_counters();
            assert_eq!(e1 - e0, 5, "overflow past the cap counts evictions");
        });
    }
}
