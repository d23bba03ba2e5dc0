//! Exact snoop counts per miss on fixed seeds.
//!
//! With every vCPU pinned, virtual snooping sends each miss to exactly
//! the cores of the requester's VM, and token broadcast sends it to every
//! core. Both replay one trace through the same caches, so they also see
//! the same hits and misses: the filter changes who is asked, never what
//! is cached. These identities are what the paper's filtering ratio
//! (4/16 = 25 % on its 16-core machine) rests on, so a rewrite of a cache
//! lookup or of the snoop fan-out must not move a single snoop.
//!
//! Runs in well under a second under `cargo test` (opt-level 1).

use vsnoop::{ContentPolicy, FilterPolicy, SimStats, Simulator, SystemConfig};
use workloads::{profile, Workload, WorkloadConfig};

/// Runs the homogeneous `ocean` trace for `rounds` rounds on `cfg` under
/// `policy`, with no migration, faults or checker.
fn run(cfg: SystemConfig, policy: FilterPolicy, seed: u64, rounds: u64) -> SimStats {
    let mut wl = Workload::homogeneous(
        profile("ocean").expect("the ocean profile is registered"),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed,
            ..Default::default()
        },
    );
    let mut sim = Simulator::new(cfg, policy, ContentPolicy::Broadcast);
    sim.run(&mut wl, rounds);
    sim.stats().clone()
}

/// Pinned vsnoop-base snoops `vcpus_per_vm` caches a miss, token
/// broadcast snoops `n_cores`, and both see identical hits and misses.
fn assert_exact_counts(cfg: SystemConfig, rounds: u64) {
    let (width, cores) = (u64::from(cfg.vcpus_per_vm), cfg.n_cores() as u64);
    for seed in [1, 7, 0x5EED] {
        let pinned = run(cfg, FilterPolicy::VsnoopBase, seed, rounds);
        let bcast = run(cfg, FilterPolicy::TokenBroadcast, seed, rounds);
        for s in [&pinned, &bcast] {
            assert_eq!(s.accesses, rounds * cores, "seed {seed}");
            assert_eq!(
                s.l1_hits + s.l2_hits + s.l2_misses,
                s.accesses,
                "seed {seed}"
            );
            assert_eq!(s.retries, 0, "seed {seed}: a fault-free run retried");
            assert!(s.l2_misses > 1000, "seed {seed}: {} misses", s.l2_misses);
        }
        assert_eq!(
            (pinned.l1_hits, pinned.l2_hits, pinned.l2_misses),
            (bcast.l1_hits, bcast.l2_hits, bcast.l2_misses),
            "seed {seed}: the filter changed what was cached"
        );
        assert_eq!(
            pinned.snoops,
            width * pinned.l2_misses,
            "seed {seed}: pinned"
        );
        assert_eq!(
            bcast.snoops,
            cores * bcast.l2_misses,
            "seed {seed}: broadcast"
        );
    }
}

/// The paper's machine: 16 cores, 4 VMs of 4 vCPUs. Exactly 4.00 snoops
/// per miss pinned and 16.00 under broadcast, as the benchmark's `pinned`
/// and `broadcast` workloads also check.
#[test]
fn paper_machine_snoops_four_per_miss_pinned_and_sixteen_broadcast() {
    let cfg = SystemConfig::paper_default();
    assert_eq!((cfg.vcpus_per_vm, cfg.n_cores()), (4, 16));
    assert_exact_counts(cfg, 2_000);
}

/// The small test machine: 4 cores, 2 VMs of 2 vCPUs, so 2.00 and 4.00.
#[test]
fn small_machine_snoops_vm_width_pinned_and_every_core_broadcast() {
    let cfg = SystemConfig::small_test();
    assert_eq!((cfg.vcpus_per_vm, cfg.n_cores()), (2, 4));
    assert_exact_counts(cfg, 5_000);
}
