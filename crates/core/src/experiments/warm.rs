//! Result reuse across experiment cells.
//!
//! Every paper artifact is built from *cells*: build the machine, warm
//! the caches for `warmup_rounds`, reset the counters, measure. Many
//! reports read identical cells, and this module makes a pass simulate
//! each of them once with two process-wide caches:
//!
//! 1. **The cell memo** — finished measurement results
//!    ([`CellResult`]: stats, traffic, removal log) keyed by the full
//!    cell parameters, so reports that re-run identical cells (Table IV
//!    vs Fig. 6, Fig. 7's counter cells vs Fig. 9, Table V vs Table VI
//!    vs Fig. 10's broadcast bars) simulate them once. Migration cells
//!    that differ only in policy are simulated together as filter lanes
//!    of one run ([`lane_cells`]), which fills one memo entry per policy:
//!    the Figs. 7-9 sweep runs one simulation per (app, period), not one
//!    per (app, period, policy).
//! 2. **The scheduler memo** — the Fig. 3 = Table I rows per seed
//!    ([`SchedRow`]): both artifacts read the same credit-scheduler runs,
//!    so a pass makes them once.
//!
//! Both hold results, not machines: a memo entry is a few counters and
//! rows, so the caches are unbounded. Every cell that does simulate
//! builds its machine and runs its own warm-up under its own policy
//! ([`warmed_pair`]); a warm-up is short next to the measured phase it
//! precedes, so no warmed machine is kept. Concurrent callers of one
//! cell block on a per-key [`OnceLock`], so a cell is computed exactly
//! once even under [`crate::runner::scatter`]. Campaign stdout is pinned
//! by the frozen report digests of `report_differential`, so reuse is
//! purely a wall-clock optimization and is always on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sim_net::TrafficStats;
use workloads::{AppProfile, Workload, WorkloadConfig};

use crate::config::SystemConfig;
use crate::experiments::common::RunScale;
use crate::experiments::SchedRow;
use crate::policy::{ContentPolicy, FilterPolicy};
use crate::simulator::Simulator;
use crate::stats::{RemovalEvent, SimStats};

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
/// period and the non-`Eq` config made hashable; `SystemConfig`'s
/// `Debug` form is canonical and total).
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

/// Cell-memo effectiveness counters (process-wide, monotonic). A *hit*
/// is a [`cell`] or [`lane_cells`] call served from the memo (including
/// threads that blocked while another caller simulated the cell); a
/// *miss* is a call that simulated it. A lane group counts once.
static WARM_HITS: AtomicU64 = AtomicU64::new(0);
static WARM_MISSES: AtomicU64 = AtomicU64::new(0);
/// Measured phases simulated for experiment cells: one per cell, or one
/// per group of cells run as filter lanes of a single simulation.
static CELL_SIMULATIONS: AtomicU64 = AtomicU64::new(0);
/// Credit-scheduler runs made for Fig. 3 / Table I rows.
static SCHEDULER_RUNS: AtomicU64 = AtomicU64::new(0);

/// Current cell-memo `(hits, misses, evictions)` counters, surfaced in
/// telemetry heartbeats and epoch snapshots. The memo never evicts, so
/// the third field always reads 0; it keeps the heartbeat's
/// `warm_evictions` field.
pub fn warm_counters() -> (u64, u64, u64) {
    (
        WARM_HITS.load(Ordering::Relaxed),
        WARM_MISSES.load(Ordering::Relaxed),
        0,
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

/// Zeroes the cell-memo, cell-simulation and scheduler-run counters
/// (test hook).
#[doc(hidden)]
pub fn reset_warm_counters() {
    WARM_HITS.store(0, Ordering::Relaxed);
    WARM_MISSES.store(0, Ordering::Relaxed);
    CELL_SIMULATIONS.store(0, Ordering::Relaxed);
    SCHEDULER_RUNS.store(0, Ordering::Relaxed);
    tenant_counters()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

/// Per-tenant `(hits, misses)` accounting for the shared cross-tenant
/// cell memo. Keyed by the thread's [`crate::obs::tenant_label`] —
/// installed by the service for each request and propagated to shard
/// workers by `scatter` — so every tenant can see how much of the
/// shared cache it is actually getting. A `BTreeMap` keeps the listing
/// order deterministic.
fn tenant_counters() -> &'static Mutex<std::collections::BTreeMap<String, (u64, u64)>> {
    static TENANTS: OnceLock<Mutex<std::collections::BTreeMap<String, (u64, u64)>>> =
        OnceLock::new();
    TENANTS.get_or_init(Mutex::default)
}

/// Records one cell-memo hit or miss, process-wide and against the
/// current tenant if the thread carries a tenant label. CLI campaigns
/// (no label) skip the tenant map entirely.
fn count_lookup(hit: bool) {
    if hit {
        WARM_HITS.fetch_add(1, Ordering::Relaxed);
    } else {
        WARM_MISSES.fetch_add(1, Ordering::Relaxed);
    }
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

/// Per-tenant cell-memo `(tenant, hits, misses)` counters, sorted by
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

/// Per-key slot: the `OnceLock` makes concurrent callers of one key
/// block until the first finishes, instead of computing twice.
type MemoSlot = Arc<OnceLock<Arc<CellResult>>>;
type SchedSlot = Arc<OnceLock<Vec<SchedRow>>>;

fn memo() -> &'static Mutex<HashMap<CellKey, MemoSlot>> {
    static MEMO: OnceLock<Mutex<HashMap<CellKey, MemoSlot>>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

fn sched_memo() -> &'static Mutex<HashMap<u64, SchedSlot>> {
    static MEMO: OnceLock<Mutex<HashMap<u64, SchedSlot>>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

/// Drops every memoized cell result and every memoized Fig. 3 = Table I
/// row set, so the next run pays the full cold cost (the benchmark's
/// `campaign` passes and tests use it). The name predates the memos'
/// being the only process-wide caches.
pub fn clear_warm_pool() {
    memo().lock().expect("cell memo poisoned").clear();
    sched_memo()
        .lock()
        .expect("scheduler memo poisoned")
        .clear();
}

/// Always 0: no warmed machine is kept between cells. It exists only
/// for the benchmark's `warm.pool_len` row, until a benchmark change
/// retires that row.
#[doc(hidden)]
pub fn warm_pool_len() -> usize {
    0
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

/// Returns a *warmed* simulator + workload pair for the given cell
/// parameters: built cold under `policy`/`content_policy` and run for
/// `warmup_rounds`, measurement not yet started (callers run
/// `reset_measurement()` + the measured phase).
pub(crate) fn warmed_pair(
    app: &'static AppProfile,
    policy: FilterPolicy,
    content_policy: ContentPolicy,
    content_sharing: bool,
    host_activity: bool,
    cfg: SystemConfig,
    scale: RunScale,
) -> (Simulator, Workload) {
    let mut sim = Simulator::new(cfg, policy, content_policy);
    let mut wl = Workload::homogeneous(
        app,
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed: scale.seed,
            host_activity,
            content_sharing,
        },
    );
    sim.run(&mut wl, scale.warmup_rounds);
    (sim, wl)
}

/// Executes `spec` end to end (or returns its memoized result): warm,
/// reset, measure, extract. The memo is what lets two reports built
/// from identical cells simulate them once.
pub(crate) fn cell(spec: &CellSpec) -> Arc<CellResult> {
    assert!(
        spec.migration_period_ms.is_none(),
        "migration cells run as filter lanes: use lane_cells"
    );
    let key = spec.memo_key();
    let slot = {
        let mut memo = memo().lock().expect("cell memo poisoned");
        memo.entry(key).or_default().clone()
    };
    let mut simulated = false;
    let result = slot
        .get_or_init(|| {
            simulated = true;
            Arc::new(run_cell(spec))
        })
        .clone();
    count_lookup(!simulated);
    result
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
    let mut simulated = false;
    let first = slots[0]
        .get_or_init(|| {
            simulated = true;
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
    count_lookup(!simulated);
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
    let sim = crate::experiments::common::run_pinned(
        spec.app,
        spec.policy,
        spec.content_policy,
        spec.content_sharing,
        spec.host_activity,
        spec.cfg,
        spec.scale,
    );
    CellResult::capture(&sim, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::run_pinned;
    use crate::experiments::{migration_sweep_for, removal_periods_for};
    use workloads::profile;

    /// Serializes tests that clear the process-wide memos or read their
    /// counters.
    static MEMO_LOCK: Mutex<()> = Mutex::new(());

    fn with_cold_memo<R>(f: impl FnOnce() -> R) -> R {
        let _g = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_warm_pool();
        f()
    }

    fn tiny() -> RunScale {
        RunScale {
            warmup_rounds: 400,
            measure_rounds: 300,
            seed: 0xFEED,
        }
    }

    fn pinned_spec(app: &str, policy: FilterPolicy) -> CellSpec {
        CellSpec {
            app: profile(app).unwrap(),
            policy,
            content_policy: ContentPolicy::Broadcast,
            content_sharing: false,
            host_activity: false,
            cfg: SystemConfig::small_test(),
            scale: tiny(),
            migration_period_ms: None,
        }
    }

    #[test]
    fn reuse_matches_fresh_runs_bit_for_bit() {
        for policy in [
            FilterPolicy::TokenBroadcast,
            FilterPolicy::VsnoopBase,
            FilterPolicy::Counter,
        ] {
            let spec = pinned_spec("fft", policy);
            let fresh = run_pinned(
                spec.app,
                policy,
                spec.content_policy,
                false,
                false,
                spec.cfg,
                spec.scale,
            );
            let (computed, served) = with_cold_memo(|| (cell(&spec), cell(&spec)));
            assert!(Arc::ptr_eq(&computed, &served), "{policy}: not a memo hit");
            assert_eq!(fresh.stats(), &served.stats, "{policy}: stats diverged");
            assert_eq!(
                fresh.traffic(),
                &served.traffic,
                "{policy}: traffic diverged"
            );
        }
    }

    #[test]
    fn memoized_cells_return_identical_results() {
        let spec = pinned_spec("radix", FilterPolicy::VsnoopBase);
        let (a, b) = with_cold_memo(|| (cell(&spec), cell(&spec)));
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a memo hit");
        let fresh = run_pinned(
            spec.app,
            spec.policy,
            spec.content_policy,
            false,
            false,
            spec.cfg,
            spec.scale,
        );
        assert_eq!(fresh.stats(), &a.stats);
    }

    /// Fig. 9 after Fig. 7 is all memo hits, counted against the tenant
    /// that asked; unlabelled callers touch only the global counters.
    #[test]
    fn tenant_labels_attribute_hits_and_misses() {
        let apps = [profile("fft").unwrap()];
        let scale = RunScale {
            warmup_rounds: 60,
            measure_rounds: 20,
            seed: 0xABCD,
        };
        with_cold_memo(|| {
            reset_warm_counters();
            // acme pays for the sweep's two (app, period) lane groups;
            // globex's Fig. 9 reads the 5 ms group's counter lane.
            crate::obs::with_tenant("acme", || {
                migration_sweep_for(&apps, &[5.0, 0.1], scale);
            });
            crate::obs::with_tenant("globex", || {
                removal_periods_for(&apps, scale);
            });
            crate::obs::with_tenant("globex", || {
                removal_periods_for(&apps, scale);
            });
            removal_periods_for(&apps, scale); // unlabelled: no tenant accounting
            assert_eq!(
                warm_tenant_counters(),
                vec![("acme".into(), 0, 2), ("globex".into(), 2, 0)],
                "per-tenant (hits, misses), sorted by tenant"
            );
            assert_eq!(warm_counters(), (3, 2, 0), "global (hits, misses, 0)");
            assert_eq!(cell_simulations(), 2, "Fig. 9 simulates nothing new");
        });
    }
}
