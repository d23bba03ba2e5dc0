//! Figs. 7, 8, 9 — the effect of VM relocation.
//!
//! "As an approximate method to simulate the migration effect, we shuffle
//! the locations of two vCPUs periodically" (Section V-C): every period,
//! two vCPUs from *different* VMs swap cores. The experiment sweeps
//! periods of 5 / 2.5 / 0.5 / 0.1 (scaled) milliseconds over three
//! virtual-snooping variants, reporting total snoops normalized to the
//! TokenB baseline (which, with an identical trace, performs exactly
//! `16 x misses` lookups). Fig. 9 reports the CDF of the *removal period*:
//! the time from a vCPU's departure until the counter mechanism evicts the
//! old core from the VM's map.
//!
//! The three policies share one architectural simulation per
//! (application, period) cell: the first policy's lane executes the token
//! transactions and the other two ride along as filter lanes
//! ([`Simulator::add_filter_lanes`]), so a sweep over `a` applications and
//! `p` periods runs `a x p` simulations, not `3 x a x p`. Fig. 9 reads the
//! counter lane of the same 5 ms cells Fig. 7 simulates.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_vm::{VcpuId, VmId};
use workloads::{simulation_apps, AppProfile};

use crate::config::SystemConfig;
use crate::experiments::common::RunScale;
use crate::experiments::warm::{self, CellSpec};
use crate::policy::{ContentPolicy, FilterPolicy};
use crate::runner::scatter;
use crate::simulator::Simulator;

/// One bar of Fig. 7/8.
#[derive(Clone, Debug)]
pub struct MigrationPoint {
    /// Application name.
    pub name: &'static str,
    /// Migration period in scaled milliseconds.
    pub period_ms: f64,
    /// The virtual-snooping variant measured.
    pub policy: FilterPolicy,
    /// Total snoops relative to the TokenB baseline, percent (ideal 25%).
    pub norm_snoops_pct: f64,
}

/// A removal-period sample for the Fig. 9 CDF, in cycles.
#[derive(Clone, Copy, Debug)]
pub struct RemovalSample {
    /// Application name.
    pub name: &'static str,
    /// Measured removal period in cycles.
    pub period_cycles: u64,
}

/// The paper's three virtual snooping variants for Figs. 7-8.
pub fn migration_policies() -> [FilterPolicy; 3] {
    [
        FilterPolicy::VsnoopBase,
        FilterPolicy::Counter,
        FilterPolicy::COUNTER_THRESHOLD_10,
    ]
}

fn make_picker(cfg: SystemConfig, seed: u64) -> impl FnMut(u64) -> (VcpuId, VcpuId) {
    let mut rng = SmallRng::seed_from_u64(seed);
    move |_| {
        let vm_a = rng.gen_range(0..cfg.n_vms);
        let mut vm_b = rng.gen_range(0..cfg.n_vms - 1);
        if vm_b >= vm_a {
            vm_b += 1;
        }
        let a = VcpuId::new(VmId::new(vm_a as u16), rng.gen_range(0..cfg.vcpus_per_vm));
        let b = VcpuId::new(VmId::new(vm_b as u16), rng.gen_range(0..cfg.vcpus_per_vm));
        (a, b)
    }
}

/// Runs one app with periodic cross-VM shuffles under `policies` — one
/// filter lane each, the first one primary — and returns the simulator
/// for inspection. The warm-up (pinned, no migrations yet) comes from
/// the process-wide warm pool, exactly like
/// [`crate::experiments::run_pinned`].
pub(crate) fn run_migrating(
    app: &'static AppProfile,
    policies: &[FilterPolicy],
    period_ms: f64,
    cfg: SystemConfig,
    scale: RunScale,
) -> Simulator {
    let (mut sim, mut wl) = warm::warmed_pair(
        app,
        policies[0],
        ContentPolicy::Broadcast,
        false,
        false,
        cfg,
        scale,
    );
    sim.add_filter_lanes(&policies[1..])
        .expect("migration cells are fault-free and route content pages by broadcast");
    let period_cycles = ((period_ms * cfg.cycles_per_ms as f64) as u64).max(1);
    sim.reset_measurement();
    // The run stands in for one finite application execution: it must
    // cover at least eight migration periods, and callers pass a
    // migration-sized window (see `RunScale::for_migration`) so the maps
    // experience many removal timescales. The floor is capped at 16x the
    // requested window so deliberately tiny scales (differential guards,
    // smoke tests) stay tiny; at the quick and full campaign scales the
    // cap is far above the floor and the run length is unchanged.
    let min_rounds = 8 * period_cycles / cfg.cycles_per_access;
    let rounds = scale
        .measure_rounds
        .max(min_rounds.min(scale.measure_rounds.saturating_mul(16)));
    let picker = make_picker(cfg, scale.seed ^ 0x51A9);
    sim.run_with_migration(&mut wl, rounds, period_cycles, picker);
    sim
}

/// The migration cell of `app` at `period_ms` under each of `policies`
/// (in that order), from one simulation.
fn policy_cells(
    app: &'static AppProfile,
    period_ms: f64,
    scale: RunScale,
    policies: &[FilterPolicy],
) -> Vec<std::sync::Arc<warm::CellResult>> {
    warm::lane_cells(
        &CellSpec {
            app,
            policy: policies[0],
            content_policy: ContentPolicy::Broadcast,
            content_sharing: false,
            host_activity: false,
            cfg: SystemConfig::paper_default(),
            scale,
            migration_period_ms: Some(period_ms),
        },
        policies,
    )
}

/// Runs the Fig. 7/8 sweep for the given periods (paper: 5/2.5 in Fig. 7,
/// 0.5/0.1 in Fig. 8).
pub fn migration_sweep(periods_ms: &[f64], scale: RunScale) -> Vec<MigrationPoint> {
    migration_sweep_for(&simulation_apps(), periods_ms, scale)
}

/// [`migration_sweep`] over the given applications only.
///
/// The `app x period` cells are independent, so they are fanned out over
/// [`scatter`]'s shard pool (order-preserving: the output is
/// byte-identical to the serial nested loop). Each cell simulates all
/// three policies at once and memoizes each policy's result, so Fig. 9 —
/// which reads this sweep's counter cells — simulates nothing new.
pub fn migration_sweep_for(
    apps: &[&'static AppProfile],
    periods_ms: &[f64],
    scale: RunScale,
) -> Vec<MigrationPoint> {
    let n_cores = SystemConfig::paper_default().n_cores() as u64;
    let cells: Vec<_> = apps
        .iter()
        .flat_map(|&app| periods_ms.iter().map(move |&period_ms| (app, period_ms)))
        .collect();
    let points = scatter(cells, |(app, period_ms)| {
        let results = policy_cells(app, period_ms, scale, &migration_policies());
        migration_policies()
            .into_iter()
            .zip(results)
            .map(|(policy, r)| {
                // TokenB on the same trace performs n_cores lookups per
                // transaction.
                let baseline = r.stats.l2_misses.max(1) * n_cores;
                MigrationPoint {
                    name: app.name,
                    period_ms,
                    policy,
                    norm_snoops_pct: 100.0 * r.stats.snoops as f64 / baseline as f64,
                }
            })
            .collect::<Vec<_>>()
    });
    points.into_iter().flatten().collect()
}

/// Runs the Fig. 9 experiment: removal-period samples under the counter
/// mechanism with a 5 (scaled) ms migration period.
pub fn removal_periods(scale: RunScale) -> Vec<RemovalSample> {
    removal_periods_for(&simulation_apps(), scale)
}

/// [`removal_periods`] over the given applications only. The counter
/// results are lanes of the Fig. 7 sweep's 5 ms cells, so with reuse
/// enabled they come straight from the memo when Fig. 7 ran first (and
/// vice versa). Without reuse there is nothing to share, so only the
/// counter lane is simulated.
pub fn removal_periods_for(apps: &[&'static AppProfile], scale: RunScale) -> Vec<RemovalSample> {
    let policies = if warm::warm_reuse_enabled() {
        migration_policies().to_vec()
    } else {
        vec![FilterPolicy::Counter]
    };
    let counter = policies
        .iter()
        .position(|&p| p == FilterPolicy::Counter)
        .expect("the counter mechanism is a migration policy");
    let per_app = scatter(apps.to_vec(), |app| {
        let r = &policy_cells(app, 5.0, scale, &policies)[counter];
        r.removal_log
            .iter()
            .filter_map(|e| {
                e.period.map(|p| RemovalSample {
                    name: app.name,
                    period_cycles: p,
                })
            })
            .collect::<Vec<_>>()
    });
    per_app.into_iter().flatten().collect()
}

/// Empirical CDF helper: returns `(x, fraction <= x)` pairs for plotting.
pub fn cdf(samples: &mut [u64]) -> Vec<(u64, f64)> {
    samples.sort_unstable();
    let n = samples.len().max(1) as f64;
    samples
        .iter()
        .enumerate()
        .map(|(i, &x)| (x, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimStats;

    fn tiny() -> RunScale {
        // Counter-driven removals take ~120k rounds (= ~8 scaled ms), so
        // the migration tests must run several multiples of that to reach
        // the steady state Figs. 7-8 report.
        RunScale {
            warmup_rounds: 20_000,
            measure_rounds: 350_000,
            seed: 0xC0FFEE,
        }
    }

    #[test]
    fn counter_beats_base_under_fast_migration() {
        let cfg = SystemConfig::paper_default();
        let app = workloads::profile("ocean").unwrap();
        let sim = run_migrating(
            app,
            &[FilterPolicy::VsnoopBase, FilterPolicy::Counter],
            0.1,
            cfg,
            tiny(),
        );
        let norm = |s: SimStats| s.snoops as f64 / (s.l2_misses.max(1) * 16) as f64;
        let nb = norm(sim.lane_stats(0));
        let nc = norm(sim.lane_stats(1));
        assert!(
            nc < nb,
            "counter ({nc:.2}) must filter more than vsnoop-base ({nb:.2}) at 0.1ms"
        );
        assert!(
            nb > 0.5,
            "base should have decayed badly at 0.1ms (got {nb:.2})"
        );
    }

    #[test]
    fn slow_migration_stays_near_ideal_with_counter() {
        let cfg = SystemConfig::paper_default();
        let app = workloads::profile("lu").unwrap();
        // 1 ms period: several removal timescales per period, but cheap
        // enough for a unit test (the bench binaries run the paper's 5 ms).
        let sim = run_migrating(app, &[FilterPolicy::Counter], 1.0, cfg, tiny());
        let s = sim.stats();
        let norm = s.snoops as f64 / (s.l2_misses.max(1) * 16) as f64;
        assert!(
            norm < 0.40,
            "counter at 1ms should stay near the ideal 25% (got {:.1}%)",
            norm * 100.0
        );
    }

    #[test]
    fn removal_periods_are_positive_and_logged() {
        let samples = {
            let cfg = SystemConfig::paper_default();
            let app = workloads::profile("ocean").unwrap();
            let sim = run_migrating(app, &[FilterPolicy::Counter], 0.5, cfg, tiny());
            sim.removal_log().to_vec()
        };
        assert!(!samples.is_empty(), "expected some removals");
    }

    #[test]
    fn cdf_is_monotonic() {
        let mut xs = vec![5u64, 1, 3, 3, 9];
        let c = cdf(&mut xs);
        assert_eq!(c.first().unwrap().0, 1);
        assert_eq!(c.last().unwrap().0, 9);
        assert!((c.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in c.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn picker_always_crosses_vm_boundaries() {
        let cfg = SystemConfig::paper_default();
        let mut pick = make_picker(cfg, 42);
        for i in 0..200 {
            let (a, b) = pick(i);
            assert_ne!(a.vm(), b.vm());
        }
    }
}
