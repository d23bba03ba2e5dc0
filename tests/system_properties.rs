//! System-level robustness properties: migration storms and fault
//! injection must never break the coherence invariants, and the
//! observability machinery (checker, fault-free plans) must never perturb
//! the simulated results.
//!
//! The deterministic tests below come with randomized property-based
//! versions in the [`randomized`] module.

use virtual_snooping::prelude::*;
use virtual_snooping::sim_mem::BlockAddr;
use virtual_snooping::vsnoop::CheckerConfig as Ckr;

fn storm_workload(cfg: &SystemConfig, seed: u64) -> Workload {
    Workload::homogeneous(
        workloads::profile("ocean").unwrap(),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed,
            ..Default::default()
        },
    )
}

/// Deterministic cross-VM shuffle for `run_with_migration`.
fn picker(cfg: SystemConfig) -> impl FnMut(u64) -> (VcpuId, VcpuId) {
    move |i| {
        let va = (i % cfg.n_vms as u64) as u16;
        let vb = ((i + 1) % cfg.n_vms as u64) as u16;
        let ia = ((i / 2) % cfg.vcpus_per_vm as u64) as u16;
        let ib = ((i / 3) % cfg.vcpus_per_vm as u64) as u16;
        (
            VcpuId::new(VmId::new(va), ia),
            VcpuId::new(VmId::new(vb), ib),
        )
    }
}

/// An aggressive plan: every fault class at rates that fire hundreds of
/// times within a short test run.
fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        drop_p: 0.05,
        delay_p: 0.10,
        max_delay_cycles: 20,
        corrupt_map_p: 0.02,
        map_sync_delay_cycles: 200,
        spurious_bounce_p: 0.01,
        audit_period_cycles: 2_000,
    }
}

fn assert_clean(sim: &Simulator, what: &str) {
    let ch = sim.checker().expect("checker enabled");
    assert_eq!(
        ch.total_violations(),
        0,
        "{what}: invariant violations: {:#?}",
        ch.violations()
    );
    assert!(ch.block_checks() > 0, "{what}: checker never ran");
    let s = sim.stats();
    assert_eq!(s.l1_hits + s.l2_hits + s.l2_misses, s.accesses, "{what}");
}

/// A migration storm with *every* fault class enabled stays invariant-
/// clean, while each injection class demonstrably fires.
#[test]
fn migration_storm_under_all_faults_is_invariant_clean() {
    let cfg = SystemConfig::small_test();
    let mut sim = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
    sim.set_fault_plan(storm_plan(7));
    sim.enable_checker(Ckr {
        sweep_every: 1_000,
        ..Default::default()
    });
    let mut wl = storm_workload(&cfg, 0xDECAF);
    let period = cfg.cycles_per_access * 25;
    sim.run_with_migration(&mut wl, 8_000, period, picker(cfg));
    sim.run_checker_sweep();

    assert_clean(&sim, "all-faults storm");
    let inj = sim.fault_injections().unwrap();
    assert!(inj.maps_corrupted() > 0, "no map corruption fired: {inj:?}");
    assert!(inj.spurious_bounces > 0, "no token bounce fired: {inj:?}");
    let lf = sim.link_faults().unwrap();
    assert!(lf.drops() > 0, "no snoop drops fired");
    assert!(lf.delays() > 0, "no delays fired");
    // The protocol responded: escalation and degraded fallbacks happened,
    // and the audit repaired corrupted registers.
    let s = sim.stats();
    assert!(
        s.degraded_broadcasts > 0,
        "corruption never degraded a filter"
    );
    assert!(s.map_repairs > 0, "audit never repaired a register");
    for block in 0..(wl.allocated_pages() * 64) {
        assert!(sim.check_invariant(BlockAddr::new(block)));
    }
}

/// Each fault class *alone* stays invariant-clean (isolating recovery
/// paths: drop retries, delay absorption, degraded broadcast, late map
/// sync, bounce re-fetch).
#[test]
fn each_fault_class_alone_is_invariant_clean() {
    let base = FaultPlan::none(11);
    let plans = [
        (
            "drops",
            FaultPlan {
                drop_p: 0.10,
                ..base
            },
        ),
        (
            "delays",
            FaultPlan {
                delay_p: 0.20,
                max_delay_cycles: 30,
                ..base
            },
        ),
        (
            "map corruption",
            FaultPlan {
                corrupt_map_p: 0.05,
                audit_period_cycles: 1_000,
                ..base
            },
        ),
        (
            "late map sync",
            FaultPlan {
                map_sync_delay_cycles: 300,
                ..base
            },
        ),
        (
            "token bounces",
            FaultPlan {
                spurious_bounce_p: 0.02,
                ..base
            },
        ),
    ];
    let cfg = SystemConfig::small_test();
    for (what, plan) in plans {
        let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
        sim.set_fault_plan(plan);
        sim.enable_checker(Ckr {
            sweep_every: 1_000,
            ..Default::default()
        });
        let mut wl = storm_workload(&cfg, 0xBEEF);
        sim.run_with_migration(&mut wl, 4_000, cfg.cycles_per_access * 25, picker(cfg));
        sim.run_checker_sweep();
        assert_clean(&sim, what);
    }
}

/// Corrupted vCPU-map registers must trip the requester-side validation
/// and degrade to full broadcast (correct results, counted), and the
/// periodic hypervisor audit must repair them.
#[test]
fn corrupted_maps_degrade_to_broadcast_and_get_repaired() {
    let cfg = SystemConfig::small_test();
    let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
    sim.set_fault_plan(FaultPlan {
        corrupt_map_p: 0.05,
        audit_period_cycles: 1_000,
        ..FaultPlan::none(23)
    });
    sim.enable_checker(Ckr {
        sweep_every: 1_000,
        ..Default::default()
    });
    let mut wl = storm_workload(&cfg, 0xFEED);
    sim.run(&mut wl, 6_000);
    sim.run_checker_sweep();

    assert_clean(&sim, "map corruption");
    let s = sim.stats();
    assert!(
        s.degraded_broadcasts > 0,
        "corruption must trigger degraded broadcasts"
    );
    assert!(s.map_repairs > 0, "audit must repair corrupted registers");
    assert!(sim.fault_injections().unwrap().maps_corrupted() > 0);
}

/// Under a near-total snoop-drop rate the whole transient ladder can
/// fail; the protocol must escalate to persistent requests (reliable
/// channel) instead of panicking, and still stay invariant-clean.
#[test]
fn heavy_drops_escalate_to_persistent_requests() {
    let cfg = SystemConfig::small_test();
    let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
    sim.set_fault_plan(FaultPlan {
        drop_p: 0.9,
        ..FaultPlan::none(31)
    });
    sim.enable_checker(Ckr {
        sweep_every: 1_000,
        ..Default::default()
    });
    let mut wl = storm_workload(&cfg, 0xD0D0);
    sim.run(&mut wl, 3_000);
    sim.run_checker_sweep();

    assert_clean(&sim, "heavy drops");
    let s = sim.stats();
    assert!(
        s.persistent_requests > 0,
        "a 90% drop rate must exhaust the transient ladder sometimes"
    );
    assert!(s.retries > 0);
}

/// The observability layer must be a pure observer: enabling the checker,
/// or installing a fault plan that injects nothing, leaves every result
/// counter bit-identical to a plain run.
#[test]
fn checker_and_empty_plan_do_not_perturb_results() {
    let cfg = SystemConfig::small_test();
    let run = |checker: bool, empty_plan: bool| {
        let mut sim = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
        if checker {
            sim.enable_checker(Ckr::default());
        }
        if empty_plan {
            sim.set_fault_plan(FaultPlan::none(99));
        }
        let mut wl = storm_workload(&cfg, 0xABCD);
        sim.run_with_migration(&mut wl, 3_000, cfg.cycles_per_access * 50, picker(cfg));
        let s = sim.stats().clone();
        (
            s.accesses,
            s.snoops,
            s.l2_misses,
            s.retries,
            s.writebacks,
            s.degraded_broadcasts,
        )
    };
    let plain = run(false, false);
    assert_eq!(run(true, false), plain, "checker perturbed the simulation");
    assert_eq!(
        run(false, true),
        plain,
        "empty fault plan perturbed the simulation"
    );
    assert_eq!(plain.5, 0, "no faults, no degraded broadcasts");
}

/// Randomized property-based variants (vendored generation-only proptest
/// shim; no shrinking).
mod randomized {
    use super::*;
    use proptest::prelude::*;

    fn policy_strategy() -> impl Strategy<Value = FilterPolicy> {
        prop_oneof![
            Just(FilterPolicy::TokenBroadcast),
            Just(FilterPolicy::VsnoopBase),
            Just(FilterPolicy::Counter),
            (1u64..32).prop_map(|threshold| FilterPolicy::CounterThreshold { threshold }),
        ]
    }

    fn content_strategy() -> impl Strategy<Value = ContentPolicy> {
        prop_oneof![
            Just(ContentPolicy::Broadcast),
            Just(ContentPolicy::MemoryDirect),
            Just(ContentPolicy::IntraVm),
            Just(ContentPolicy::FriendVm),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_policy_runs_preserve_invariants(
            policy in policy_strategy(),
            content in content_strategy(),
            app_idx in 0usize..10,
            seed in 0u64..1000,
            swaps in prop::collection::vec((0u16..4, 0u16..4, 0u16..4, 0u16..4), 0..4),
        ) {
            let cfg = SystemConfig::small_test();
            let mut sim = Simulator::new(cfg, policy, content);
            sim.enable_checker(Ckr { sweep_every: 500, ..Default::default() });
            let app = workloads::simulation_apps()[app_idx];
            let mut wl = Workload::homogeneous(
                app,
                cfg.n_vms,
                WorkloadConfig {
                    vcpus_per_vm: cfg.vcpus_per_vm,
                    seed,
                    content_sharing: content != ContentPolicy::Broadcast,
                    ..Default::default()
                },
            );
            sim.run(&mut wl, 300);
            for (va, ia, vb, ib) in swaps {
                let a = VcpuId::new(VmId::new(va % cfg.n_vms as u16), ia % cfg.vcpus_per_vm);
                let b = VcpuId::new(VmId::new(vb % cfg.n_vms as u16), ib % cfg.vcpus_per_vm);
                if a.vm() != b.vm() {
                    sim.swap_vcpus(a, b).unwrap();
                }
                sim.run(&mut wl, 300);
            }
            sim.run_checker_sweep();
            prop_assert_eq!(
                sim.checker().unwrap().total_violations(),
                0,
                "checker violations under {:?}/{:?}: {:#?}",
                policy, content, sim.checker().unwrap().violations()
            );

            // Token conservation everywhere the workload can have touched.
            for block in 0..(wl.allocated_pages() * 64) {
                prop_assert!(
                    sim.check_invariant(BlockAddr::new(block)),
                    "token invariant broken at block {block} under {policy}/{content}"
                );
            }
            // Every access was either a hit or a miss; counters are consistent.
            let s = sim.stats();
            prop_assert_eq!(s.l1_hits + s.l2_hits + s.l2_misses, s.accesses);
            prop_assert_eq!(s.misses_guest + s.misses_dom0 + s.misses_hyp, s.l2_misses);
            prop_assert_eq!(
                s.misses_private + s.misses_rw_shared + s.misses_ro_shared,
                s.l2_misses
            );
            // vCPU maps always cover the cores the VMs currently run on.
            for vm in 0..cfg.n_vms {
                let id = VmId::new(vm as u16);
                let running = sim.hypervisor().cores_of_vm(id);
                prop_assert_eq!(
                    sim.vcpu_map(id).mask() & running,
                    running,
                    "map must contain all cores the VM runs on"
                );
            }
        }

        #[test]
        fn filtered_snoops_never_exceed_broadcast(
            app_idx in 0usize..10,
            seed in 0u64..100,
        ) {
            let cfg = SystemConfig::small_test();
            let app = workloads::simulation_apps()[app_idx];
            let mk = |policy| {
                let mut sim = Simulator::new(cfg, policy, ContentPolicy::Broadcast);
                let mut wl = Workload::homogeneous(
                    app,
                    cfg.n_vms,
                    WorkloadConfig {
                        vcpus_per_vm: cfg.vcpus_per_vm,
                        seed,
                        ..Default::default()
                    },
                );
                sim.run(&mut wl, 1_500);
                (sim.stats().snoops, sim.stats().l2_misses)
            };
            let (sb, mb) = mk(FilterPolicy::TokenBroadcast);
            let (sv, mv) = mk(FilterPolicy::VsnoopBase);
            prop_assert_eq!(mb, mv, "identical traces must miss identically");
            prop_assert!(sv <= sb, "filtering must never increase snoops");
        }

        /// Random fault plans never produce invariant violations, and a
        /// garbage-corrupting plan always keeps results well-formed.
        #[test]
        fn random_fault_plans_preserve_invariants(
            seed in 0u64..500,
            drop_p in 0.0f64..0.15,
            delay_p in 0.0f64..0.2,
            corrupt_p in 0.0f64..0.05,
            bounce_p in 0.0f64..0.03,
            sync_delay in 0u64..400,
        ) {
            let cfg = SystemConfig::small_test();
            let mut sim = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
            sim.set_fault_plan(FaultPlan {
                seed,
                drop_p,
                delay_p,
                max_delay_cycles: 25,
                corrupt_map_p: corrupt_p,
                map_sync_delay_cycles: sync_delay,
                spurious_bounce_p: bounce_p,
                audit_period_cycles: 1_500,
            });
            sim.enable_checker(Ckr { sweep_every: 1_000, ..Default::default() });
            let mut wl = super::storm_workload(&cfg, seed);
            sim.run_with_migration(&mut wl, 2_500, cfg.cycles_per_access * 25, super::picker(cfg));
            sim.run_checker_sweep();
            let ch = sim.checker().unwrap();
            prop_assert_eq!(ch.total_violations(), 0, "violations: {:#?}", ch.violations());
            let s = sim.stats();
            prop_assert_eq!(s.l1_hits + s.l2_hits + s.l2_misses, s.accesses);
        }
    }
}
