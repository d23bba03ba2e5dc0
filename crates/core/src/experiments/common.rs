//! Shared plumbing for the experiment drivers.

use workloads::AppProfile;

use crate::config::SystemConfig;
use crate::policy::{ContentPolicy, FilterPolicy};
use crate::simulator::Simulator;

/// How long each experiment runs. All the drivers take a scale so tests
/// can use a fast one while the benchmark binaries use the full one.
#[derive(Clone, Copy, Debug)]
pub struct RunScale {
    /// Rounds executed before measurement starts (cache warm-up).
    pub warmup_rounds: u64,
    /// Rounds measured.
    pub measure_rounds: u64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl RunScale {
    /// The scale the benchmark harness uses (millions of accesses per
    /// run; caches reach steady state well within the warm-up).
    pub fn full() -> Self {
        RunScale {
            warmup_rounds: 60_000,
            measure_rounds: 120_000,
            seed: 0xC0FFEE,
        }
    }

    /// A faster scale for unit/integration tests: still long enough to
    /// warm the L2s (the reuse-burst streams need ~30k rounds for that),
    /// but with a shorter measurement window.
    pub fn quick() -> Self {
        RunScale {
            warmup_rounds: 30_000,
            measure_rounds: 30_000,
            seed: 0xC0FFEE,
        }
    }

    /// Scales the measurement window up for the migration experiments
    /// (Figs. 7-9): those must cover a whole simulated "execution" (~20
    /// scaled ms) so the vCPU maps reach the behaviour the paper reports,
    /// rather than a short steady-state window. Only `measure_rounds`
    /// grows (16x); the warm-up and seed are unchanged, so migration
    /// cells share warm snapshots with the pinned experiments. The same
    /// 16x factor caps the per-period round *floor* applied in
    /// `run_migrating` — see the comment there.
    pub fn for_migration(self) -> RunScale {
        RunScale {
            measure_rounds: self.measure_rounds.saturating_mul(16),
            ..self
        }
    }
}

impl Default for RunScale {
    fn default() -> Self {
        RunScale::full()
    }
}

/// Builds the paper's simulated machine (Table II) running `app` on every
/// VM, executes warm-up plus measurement, and returns the simulator for
/// inspection.
pub fn run_pinned(
    app: &'static AppProfile,
    policy: FilterPolicy,
    content_policy: ContentPolicy,
    content_sharing: bool,
    host_activity: bool,
    cfg: SystemConfig,
    scale: RunScale,
) -> Simulator {
    let (mut sim, mut wl) = crate::experiments::warm::warmed_pair(
        app,
        policy,
        content_policy,
        content_sharing,
        host_activity,
        cfg,
        scale,
    );
    sim.reset_measurement();
    sim.run(&mut wl, scale.measure_rounds);
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::profile;

    #[test]
    fn run_pinned_produces_measurements() {
        let sim = run_pinned(
            profile("cholesky").unwrap(),
            FilterPolicy::VsnoopBase,
            ContentPolicy::Broadcast,
            false,
            false,
            SystemConfig::small_test(),
            RunScale::quick(),
        );
        assert!(sim.stats().accesses > 0);
        assert!(sim.stats().l2_misses > 0);
        assert!(sim.traffic().byte_links() > 0);
    }
}
