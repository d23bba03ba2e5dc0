//! Filter lanes against standalone runs.
//!
//! [`Simulator::add_filter_lanes`] lets one architectural simulation
//! account several snoop-filter policies in lock-step; the Figs. 7-9
//! sweep relies on it to simulate each (application, period) cell once
//! instead of once per policy. These tests pin every lane — full
//! [`SimStats`], [`TrafficStats`] and removal log — to a standalone run
//! of its policy on the same trace and migration schedule, with every
//! policy taking a turn as the primary lane that executes the token
//! transactions.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_net::TrafficStats;
use sim_vm::{VcpuId, VmId};
use vsnoop::{
    ContentPolicy, FaultPlan, FilterPolicy, RemovalEvent, SimStats, Simulator, SystemConfig,
};
use workloads::{profile, Workload, WorkloadConfig};

/// One vCPU per VM on four cores: a swap keeps a VM off a core for many
/// periods, so the counter policies remove cores and counter-threshold
/// removes some that still hold lines (its filtered attempts then fail).
fn cfg() -> SystemConfig {
    SystemConfig {
        n_vms: 4,
        vcpus_per_vm: 1,
        ..SystemConfig::small_test()
    }
}

fn policies() -> [FilterPolicy; 4] {
    [
        FilterPolicy::VsnoopBase,
        FilterPolicy::Counter,
        FilterPolicy::COUNTER_THRESHOLD_10,
        FilterPolicy::TokenBroadcast,
    ]
}

type Measured = (SimStats, TrafficStats, Vec<RemovalEvent>);

/// Warms, resets, adds `extra` lanes, and runs 12 000 migrating rounds
/// (a swap every `period_ms`); returns what every lane measured.
fn run(primary: FilterPolicy, extra: &[FilterPolicy], app: &str, period_ms: f64) -> Vec<Measured> {
    let cfg = cfg();
    let mut sim = Simulator::new(cfg, primary, ContentPolicy::Broadcast);
    let mut wl = Workload::homogeneous(
        profile(app).unwrap(),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed: 0x1A4E,
            ..Default::default()
        },
    );
    sim.run(&mut wl, 1_500);
    sim.add_filter_lanes(extra).unwrap();
    sim.reset_measurement();
    let n_vms = cfg.n_vms as u16;
    let mut rng = SmallRng::seed_from_u64(0x51A9);
    let period_cycles = (period_ms * cfg.cycles_per_ms as f64) as u64;
    sim.run_with_migration(&mut wl, 12_000, period_cycles, |_| {
        let a = rng.gen_range(0..n_vms);
        let b = (a + rng.gen_range(1..n_vms)) % n_vms;
        (VcpuId::new(VmId::new(a), 0), VcpuId::new(VmId::new(b), 0))
    });
    (0..sim.lane_count())
        .map(|i| {
            (
                sim.lane_stats(i),
                *sim.lane_traffic(i),
                sim.lane_removal_log(i).to_vec(),
            )
        })
        .collect()
}

fn assert_lanes_match_standalone(app: &str, period_ms: f64) {
    let all = policies();
    let standalone: Vec<Measured> = all
        .iter()
        .map(|&p| run(p, &[], app, period_ms).remove(0))
        .collect();
    // Not vacuous: the counter policies removed cores, and the threshold
    // removed some early enough that filtered attempts failed.
    assert!(
        standalone[1].0.map_removes > 0,
        "{app}@{period_ms}: counter never removed"
    );
    assert!(
        standalone[2].0.retries > 0,
        "{app}@{period_ms}: threshold never retried"
    );
    for &primary in &all {
        let extra: Vec<FilterPolicy> = all.iter().copied().filter(|&p| p != primary).collect();
        let lanes = run(primary, &extra, app, period_ms);
        for (lane, policy) in std::iter::once(primary).chain(extra).enumerate() {
            let want = &standalone[all.iter().position(|&p| p == policy).unwrap()];
            let got = &lanes[lane];
            assert_eq!(
                got.0, want.0,
                "{app}@{period_ms} {policy} as lane {lane} of {primary}: stats"
            );
            assert_eq!(
                got.1, want.1,
                "{app}@{period_ms} {policy} as lane {lane} of {primary}: traffic"
            );
            assert_eq!(
                got.2, want.2,
                "{app}@{period_ms} {policy} as lane {lane} of {primary}: removals"
            );
        }
    }
}

#[test]
fn lanes_match_standalone_runs_at_fast_migration() {
    assert_lanes_match_standalone("fft", 0.1);
}

#[test]
fn lanes_match_standalone_runs_at_slow_migration() {
    assert_lanes_match_standalone("canneal", 0.5);
}

#[test]
fn lanes_refuse_what_the_oracle_does_not_cover() {
    let cfg = cfg();
    let mut faulty = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
    faulty.set_fault_plan(FaultPlan::all(7));
    assert!(faulty
        .add_filter_lanes(&[FilterPolicy::VsnoopBase])
        .is_err());

    let mut scout = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
    assert!(scout
        .add_filter_lanes(&[FilterPolicy::REGION_SCOUT_4K])
        .is_err());

    let mut content = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::FriendVm);
    assert!(content
        .add_filter_lanes(&[FilterPolicy::VsnoopBase])
        .is_err());

    let mut ok = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
    ok.add_filter_lanes(&[FilterPolicy::VsnoopBase]).unwrap();
    assert_eq!(ok.lane_count(), 2);
}
