//! System-level differential guard: the optimized allocation-free
//! transaction path must be *bit-identical* to the frozen pre-optimization
//! reference path across full simulations.
//!
//! Each scenario is run twice — once per engine (selected via the
//! process-wide `vsnoop::testing::set_reference_engine` toggle) — with
//! freshly constructed but identically seeded workloads, and every
//! observable is compared: [`SimStats`], the architectural-state digest,
//! network traffic, the removal log, fault-injection counters, checker
//! counters, and the final cycle count.
//!
//! Everything lives in ONE `#[test]` because the engine toggle is
//! process-global: concurrent tests constructing simulators would race on
//! it.

use vsnoop::experiments::cross_vm_picker;
use vsnoop::{CheckerConfig, ContentPolicy, FaultPlan, FilterPolicy, Simulator, SystemConfig};
use workloads::{profile, Workload, WorkloadConfig};

struct Scenario {
    name: &'static str,
    cfg: SystemConfig,
    policy: FilterPolicy,
    content: ContentPolicy,
    profile: &'static str,
    host_activity: bool,
    fault_seed: Option<u64>,
    checker: bool,
    /// `Some(period_cycles)` runs the migration storm; `None` runs plain.
    migration: Option<u64>,
    rounds: u64,
}

fn scenarios() -> Vec<Scenario> {
    let paper = SystemConfig::paper_default();
    let small = SystemConfig::small_test();
    let storm_period = (paper.cycles_per_ms / 10).max(1);
    vec![
        // The acceptance profile: the soak storm (paper machine, counter
        // policy, every fault class, checker on, 0.1 ms migration storm).
        Scenario {
            name: "soak_storm",
            cfg: paper,
            policy: FilterPolicy::Counter,
            content: ContentPolicy::Broadcast,
            profile: "ocean",
            host_activity: false,
            fault_seed: Some(0x50AC),
            checker: true,
            migration: Some(storm_period),
            rounds: 700,
        },
        Scenario {
            name: "broadcast_baseline",
            cfg: small,
            policy: FilterPolicy::TokenBroadcast,
            content: ContentPolicy::Broadcast,
            profile: "cholesky",
            host_activity: false,
            fault_seed: None,
            checker: false,
            migration: None,
            rounds: 1_500,
        },
        Scenario {
            name: "vsnoop_base_host",
            cfg: small,
            policy: FilterPolicy::VsnoopBase,
            content: ContentPolicy::Broadcast,
            profile: "SPECweb",
            host_activity: true,
            fault_seed: None,
            checker: false,
            migration: None,
            rounds: 1_500,
        },
        Scenario {
            name: "counter_intra_vm",
            cfg: small,
            policy: FilterPolicy::Counter,
            content: ContentPolicy::IntraVm,
            profile: "specjbb",
            host_activity: false,
            fault_seed: None,
            checker: true,
            migration: Some(200),
            rounds: 1_200,
        },
        Scenario {
            name: "threshold_friend_vm",
            cfg: small,
            policy: FilterPolicy::CounterThreshold { threshold: 2 },
            content: ContentPolicy::FriendVm,
            profile: "SPECweb",
            host_activity: false,
            fault_seed: None,
            checker: false,
            migration: Some(300),
            rounds: 1_200,
        },
        Scenario {
            name: "memory_direct",
            cfg: small,
            policy: FilterPolicy::VsnoopBase,
            content: ContentPolicy::MemoryDirect,
            profile: "SPECweb",
            host_activity: false,
            fault_seed: None,
            checker: false,
            migration: None,
            rounds: 1_200,
        },
        Scenario {
            name: "region_scout",
            cfg: small,
            policy: FilterPolicy::RegionScout {
                region_blocks: 64,
                nsrt_entries: 32,
            },
            content: ContentPolicy::Broadcast,
            profile: "cholesky",
            host_activity: false,
            fault_seed: None,
            checker: false,
            migration: None,
            rounds: 1_500,
        },
        // Faults without checker: link drops/delays reach the retry
        // ladder, corruption reaches the degraded-broadcast fallback.
        Scenario {
            name: "faulty_vsnoop",
            cfg: small,
            policy: FilterPolicy::VsnoopBase,
            content: ContentPolicy::IntraVm,
            profile: "ocean",
            host_activity: false,
            fault_seed: Some(0x0D15_EA5E),
            checker: false,
            migration: Some(150),
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
    removal_log: Vec<vsnoop::RemovalEvent>,
    diagnostics_total: u64,
    cycle: u64,
    injections: String,
    checker: String,
}

fn run_one(sc: &Scenario, reference: bool) -> RunDigest {
    vsnoop::testing::set_reference_engine(reference);
    let mut sim = Simulator::new(sc.cfg, sc.policy, sc.content);
    vsnoop::testing::set_reference_engine(false);
    assert_eq!(
        sim.debug_is_reference_engine(),
        reference,
        "engine toggle must select the engine under comparison"
    );
    if let Some(seed) = sc.fault_seed {
        sim.set_fault_plan(FaultPlan::all(seed));
    }
    if sc.checker {
        sim.enable_checker(CheckerConfig::default());
    }
    let mut wl = Workload::homogeneous(
        profile(sc.profile).unwrap(),
        sc.cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: sc.cfg.vcpus_per_vm,
            host_activity: sc.host_activity,
            seed: 0xABCD ^ sc.rounds,
            ..Default::default()
        },
    );
    match sc.migration {
        Some(period) => {
            sim.run_with_migration(&mut wl, sc.rounds, period, cross_vm_picker(sc.cfg, 0x51A9))
        }
        None => sim.run(&mut wl, sc.rounds),
    }
    sim.run_checker_sweep();
    RunDigest {
        stats: sim.stats().clone(),
        arch_state: sim.arch_state(),
        traffic: *sim.traffic(),
        removal_log: sim.removal_log().to_vec(),
        diagnostics_total: sim.diagnostics_total(),
        cycle: sim.cycle(),
        injections: format!("{:?}", sim.fault_injections()),
        checker: format!(
            "{:?}",
            sim.checker().map(|c| {
                (
                    c.violations().len(),
                    c.total_violations(),
                    c.block_checks(),
                    c.sweeps(),
                    c.map_checks(),
                    c.touched_blocks(),
                )
            })
        ),
    }
}

/// One test on purpose: the engine toggle is process-wide, so scenarios
/// run strictly sequentially with the flag restored between builds.
#[test]
fn optimized_engine_is_bit_identical_to_reference() {
    for sc in scenarios() {
        let fast = run_one(&sc, false);
        let reference = run_one(&sc, true);
        assert_eq!(
            fast.stats, reference.stats,
            "SimStats diverged in scenario {}",
            sc.name
        );
        assert_eq!(
            fast.traffic, reference.traffic,
            "traffic diverged in scenario {}",
            sc.name
        );
        assert!(
            fast.arch_state == reference.arch_state,
            "architectural state diverged in scenario {}",
            sc.name
        );
        assert_eq!(fast, reference, "digest diverged in scenario {}", sc.name);
        // A scenario that never exercised the machine would vacuously
        // pass; require real coherence activity.
        assert!(
            fast.stats.l2_misses > 0 && !fast.arch_state.is_empty(),
            "scenario {} did no work",
            sc.name
        );
    }
}
