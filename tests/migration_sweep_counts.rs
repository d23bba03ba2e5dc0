//! Operation counts of the report drivers, read from the process-wide
//! warm-pool and cell-simulation counters (hence a test binary of its
//! own, and one lock around every case: nothing else may touch those
//! counters while a case runs). Counts, unlike timings, hold on any
//! host.
//!
//! The three migration policies ride one simulation per (application,
//! period) cell as filter lanes, so a sweep over `k` applications and
//! two periods simulates `2k` measured phases from `2k` warm forks —
//! where one simulation per policy would cost `6k` — and Fig. 9, whose
//! counter cells are lanes of the 5 ms cells, simulates nothing new.
//! The cell memo makes reports built from identical cells free: Fig. 6
//! after Table IV, Table VI after Table V, and Fig. 10's broadcast bars.
//! The scheduler memo does the same for Table I after Fig. 3.

use std::sync::Mutex;

use vsnoop::experiments::{
    cell_simulations, clear_warm_pool, fig10, fig3_table1, migration_policies, migration_sweep_for,
    removal_periods_for, reset_warm_counters, scheduler_runs, table4_fig6, table5, table6,
    warm_counters, RunScale, FIG3_TABLE1_SEED,
};
use vsnoop::ContentPolicy;
use workloads::{content_apps, profile, simulation_apps};

static COUNTERS: Mutex<()> = Mutex::new(());

/// Runs `case` alone against a cold pool and memo with zeroed counters.
fn isolated(case: impl FnOnce()) {
    let _g = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    clear_warm_pool();
    reset_warm_counters();
    case();
}

const SCALE: RunScale = RunScale {
    warmup_rounds: 50,
    measure_rounds: 50,
    seed: 0xC0FFEE,
};

#[test]
fn migration_sweep_simulates_each_app_period_cell_once() {
    isolated(|| {
        let apps = ["fft", "ocean", "lu"].map(|n| profile(n).unwrap());
        let k = apps.len() as u64;

        let points = migration_sweep_for(&apps, &[5.0, 0.1], SCALE);
        assert_eq!(
            points.len() as u64,
            2 * k * migration_policies().len() as u64
        );
        let (hits, misses, _) = warm_counters();
        assert_eq!(
            cell_simulations(),
            2 * k,
            "one simulation per (app, period)"
        );
        assert_eq!(hits + misses, 2 * k, "one warm fork per (app, period)");
        assert_eq!(misses, k, "one warm-up per app, shared by both periods");

        let _ = removal_periods_for(&apps, SCALE);
        assert_eq!(
            cell_simulations(),
            2 * k,
            "Fig. 9 reads Fig. 7's counter lanes"
        );
        assert_eq!(
            warm_counters().0 + warm_counters().1,
            2 * k,
            "and forks nothing"
        );
    });
}

#[test]
fn fig6_after_table4_simulates_nothing() {
    isolated(|| {
        let n_sim = simulation_apps().len() as u64;
        let table4 = table4_fig6(SCALE);
        assert_eq!(table4.len() as u64, n_sim);
        assert_eq!(
            cell_simulations(),
            2 * n_sim,
            "TokenB and vsnoop-base per app"
        );
        let fig6 = table4_fig6(SCALE);
        assert_eq!(fig6.len(), table4.len());
        assert_eq!(
            cell_simulations(),
            2 * n_sim,
            "Fig. 6 reuses Table IV's cells"
        );
    });
}

#[test]
fn content_reports_share_the_broadcast_cell() {
    isolated(|| {
        let n_content = content_apps().len() as u64;
        let _ = table5(SCALE);
        assert_eq!(
            cell_simulations(),
            n_content,
            "one broadcast cell per content app"
        );
        let _ = table6(SCALE);
        assert_eq!(
            cell_simulations(),
            n_content,
            "Table VI reuses Table V's cells"
        );
        let non_broadcast = ContentPolicy::ALL
            .iter()
            .filter(|&&p| p != ContentPolicy::Broadcast)
            .count() as u64;
        let _ = fig10(SCALE);
        assert_eq!(
            cell_simulations(),
            n_content + n_content * non_broadcast,
            "Fig. 10 adds only its non-broadcast content-policy cells"
        );
    });
}

/// Fig. 3 and Table I both render `fig3_table1(FIG3_TABLE1_SEED)`: 13
/// apps x {2, 4} VMs x {pinned, full migration} = 52 scheduler runs for
/// the pair, not 104, and a cleared memo pays them again.
#[test]
fn table1_after_fig3_runs_no_scheduler() {
    isolated(|| {
        let runs = 52;
        let fig3 = fig3_table1(FIG3_TABLE1_SEED);
        assert_eq!(scheduler_runs(), runs, "four runs per app");
        let table1 = fig3_table1(FIG3_TABLE1_SEED);
        assert_eq!(scheduler_runs(), runs, "Table I reuses Fig. 3's runs");
        assert_eq!(format!("{fig3:?}"), format!("{table1:?}"));
        clear_warm_pool();
        let _ = fig3_table1(FIG3_TABLE1_SEED);
        assert_eq!(scheduler_runs(), 2 * runs, "a cleared memo runs again");
    });
}
