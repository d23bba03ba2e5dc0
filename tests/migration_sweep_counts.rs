//! Operation counts of the Figs. 7-9 sweep, read from the process-wide
//! warm-pool and cell-simulation counters (hence a test binary of its
//! own: no other test may touch those counters concurrently).
//!
//! The three migration policies ride one simulation per (application,
//! period) cell as filter lanes, so a sweep over `k` applications and
//! two periods simulates `2k` measured phases from `2k` warm forks —
//! where one simulation per policy would cost `6k` — and Fig. 9, whose
//! counter cells are lanes of the 5 ms cells, simulates nothing new.

use vsnoop::experiments::{
    cell_simulations, clear_warm_pool, migration_policies, migration_sweep_for,
    removal_periods_for, reset_warm_counters, set_warm_reuse, warm_counters, RunScale,
};
use workloads::profile;

#[test]
fn migration_sweep_simulates_each_app_period_cell_once() {
    set_warm_reuse(true);
    clear_warm_pool();
    reset_warm_counters();
    let apps = ["fft", "ocean", "lu"].map(|n| profile(n).unwrap());
    let k = apps.len() as u64;
    let scale = RunScale {
        warmup_rounds: 50,
        measure_rounds: 50,
        seed: 0xC0FFEE,
    };

    let points = migration_sweep_for(&apps, &[5.0, 0.1], scale);
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

    let _ = removal_periods_for(&apps, scale);
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
}
