//! Worker-sweep differential guard for the batched parallel engine: the
//! same simulation at 1 (serial path), 2, and 8 workers must be
//! **bit-identical** in every observable — [`SimStats`] (stall cycles
//! included), network traffic, the architectural-state digest, the final
//! cycle, and the diagnostics count.
//!
//! The serial run is the oracle: `set_engine_workers(1)` keeps today's
//! single-threaded path, so any parallel divergence — a shard-crossing
//! transaction, a reordered merge, a mis-replayed contention stall —
//! fails the sweep at the exact scenario that exhibits it.

use vsnoop::experiments::cross_vm_picker;
use vsnoop::{CheckerConfig, ContentPolicy, FilterPolicy, Simulator, SystemConfig};
use workloads::{profile, Workload, WorkloadConfig};

struct Scenario {
    name: &'static str,
    cfg: SystemConfig,
    policy: FilterPolicy,
    content: ContentPolicy,
    profile: &'static str,
    host_activity: bool,
    /// `Some(period_cycles)` runs the migration storm; `None` runs plain.
    migration: Option<u64>,
    rounds: u64,
}

/// Parallel-eligible scenarios only: fault-free, checker off, policies
/// that never shrink vCPU maps. (Everything else falls back to the
/// serial path by the engine's eligibility gate — covered separately in
/// `ineligible_runs_fall_back_to_the_serial_path`.)
fn scenarios() -> Vec<Scenario> {
    let paper = SystemConfig::paper_default();
    let small = SystemConfig::small_test();
    let storm_period = (paper.cycles_per_ms / 10).max(1);
    vec![
        // The benchmark's `migrate` profile: paper machine, 0.1 ms
        // migration storm.
        Scenario {
            name: "storm",
            cfg: paper,
            policy: FilterPolicy::VsnoopBase,
            content: ContentPolicy::Broadcast,
            profile: "ocean",
            host_activity: false,
            migration: Some(storm_period),
            rounds: 600,
        },
        // Pinned vCPUs (no migration), map-filtered content routing.
        Scenario {
            name: "pinned",
            cfg: paper,
            policy: FilterPolicy::VsnoopBase,
            content: ContentPolicy::IntraVm,
            profile: "specjbb",
            host_activity: true,
            migration: None,
            rounds: 800,
        },
        // Unfiltered broadcast on the small machine (16/32-set caches:
        // the smallest eligible geometry).
        Scenario {
            name: "broadcast",
            cfg: small,
            policy: FilterPolicy::TokenBroadcast,
            content: ContentPolicy::Broadcast,
            profile: "cholesky",
            host_activity: false,
            migration: None,
            rounds: 1_500,
        },
        // Friend-VM content routing under migration: exercises the
        // frozen per-batch friend table and map snapshots.
        Scenario {
            name: "friend_storm",
            cfg: small,
            policy: FilterPolicy::VsnoopBase,
            content: ContentPolicy::FriendVm,
            profile: "SPECweb",
            host_activity: false,
            migration: Some(250),
            rounds: 1_200,
        },
    ]
}

/// Everything observable about a finished run, comparable with `==`.
#[derive(PartialEq, Debug)]
struct RunDigest {
    stats: vsnoop::SimStats,
    arch_state: String,
    traffic: sim_net::TrafficStats,
    diagnostics_total: u64,
    cycle: u64,
}

fn run_one(sc: &Scenario, workers: usize) -> RunDigest {
    let mut sim = Simulator::new(sc.cfg, sc.policy, sc.content);
    sim.set_engine_workers(workers);
    let mut wl = Workload::homogeneous(
        profile(sc.profile).unwrap(),
        sc.cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: sc.cfg.vcpus_per_vm,
            host_activity: sc.host_activity,
            seed: 0x5EED ^ sc.rounds,
            ..Default::default()
        },
    );
    match sc.migration {
        Some(period) => {
            sim.run_with_migration(&mut wl, sc.rounds, period, cross_vm_picker(sc.cfg, 0x51A9))
        }
        None => sim.run(&mut wl, sc.rounds),
    }
    RunDigest {
        stats: sim.stats().clone(),
        arch_state: sim.arch_state(),
        traffic: *sim.traffic(),
        diagnostics_total: sim.diagnostics_total(),
        cycle: sim.cycle(),
    }
}

#[test]
fn parallel_engine_is_bit_identical_across_worker_counts() {
    for sc in scenarios() {
        let serial = run_one(&sc, 1);
        for workers in [2usize, 8] {
            let par = run_one(&sc, workers);
            assert_eq!(
                serial.stats, par.stats,
                "SimStats diverged in scenario {} at {workers} workers",
                sc.name
            );
            assert_eq!(
                serial.traffic, par.traffic,
                "traffic diverged in scenario {} at {workers} workers",
                sc.name
            );
            assert!(
                serial.arch_state == par.arch_state,
                "architectural state diverged in scenario {} at {workers} workers",
                sc.name
            );
            assert_eq!(
                serial, par,
                "digest diverged in scenario {} at {workers} workers",
                sc.name
            );
        }
        // A scenario that never exercised the machine would vacuously
        // pass; require real coherence activity and real contention.
        assert!(
            serial.stats.l2_misses > 0 && !serial.arch_state.is_empty(),
            "scenario {} did no work",
            sc.name
        );
        assert!(
            serial.stats.stall_cycles.iter().sum::<u64>() > 0,
            "scenario {} charged no stalls — the replay path went untested",
            sc.name
        );
    }
}

/// A run the gate rejects (checker enabled) must take the serial path
/// even when many workers are requested, and so stay bit-identical —
/// including the checker's own counters, which only the serial path
/// maintains.
#[test]
fn ineligible_runs_fall_back_to_the_serial_path() {
    let cfg = SystemConfig::small_test();
    let digest = |workers: usize| {
        let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::IntraVm);
        sim.set_engine_workers(workers);
        sim.enable_checker(CheckerConfig::default());
        let mut wl = Workload::homogeneous(
            profile("ocean").unwrap(),
            cfg.n_vms,
            WorkloadConfig {
                vcpus_per_vm: cfg.vcpus_per_vm,
                seed: 0xFA11,
                ..Default::default()
            },
        );
        sim.run_with_migration(&mut wl, 800, 200, cross_vm_picker(cfg, 0x71C4));
        sim.run_checker_sweep();
        let ch = sim.checker().expect("checker stays on");
        (
            sim.stats().clone(),
            sim.arch_state(),
            *sim.traffic(),
            (ch.total_violations(), ch.block_checks(), ch.sweeps()),
        )
    };
    let serial = digest(1);
    let fallback = digest(8);
    assert_eq!(serial, fallback);
    assert!(
        fallback.3 .1 > 0,
        "checker saw no transactions — the fallback skipped the serial checker hook"
    );
}
