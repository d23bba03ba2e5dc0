//! Calibration helper: prints, for every simulation application, the raw
//! trace statistics the Table V / Fig. 1 profiles are tuned against.
//!
//! Not a paper artifact — a development tool kept in-tree so future
//! profile adjustments can be validated quickly:
//!
//! ```text
//! VSNOOP_SCALE=quick cargo run --release -p vsnoop-bench --bin calibrate
//! ```

use vsnoop::experiments::run_pinned;
use vsnoop::{ContentPolicy, FilterPolicy, SystemConfig};
use vsnoop_bench::{f1, heading, opt, scale_from_env, TextTable};
use workloads::simulation_apps;

fn main() {
    vsnoop_bench::init_obs();
    heading(
        "Calibration: raw per-application trace statistics",
        "miss rate = L2 misses / accesses; content columns are Table V's\n\
         metrics; paper targets shown for comparison.",
    );
    let cfg = SystemConfig::paper_default();
    let scale = scale_from_env();
    let mut t = TextTable::new([
        "workload",
        "L1 hit %",
        "L2 miss rate %",
        "content access %",
        "(paper)",
        "content miss %",
        "(paper)",
    ]);
    for app in simulation_apps() {
        let sim = run_pinned(
            app,
            FilterPolicy::VsnoopBase,
            ContentPolicy::Broadcast,
            true,
            false,
            cfg,
            scale,
        );
        let s = sim.stats();
        t.row([
            app.name.to_string(),
            f1(100.0 * s.l1_hits as f64 / s.accesses.max(1) as f64),
            f1(100.0 * s.miss_rate()),
            f1(100.0 * s.content_access_fraction()),
            opt(app.targets.table5_access_pct),
            f1(100.0 * s.content_miss_fraction()),
            opt(app.targets.table5_miss_pct),
        ]);
    }
    println!("{t}");
}
