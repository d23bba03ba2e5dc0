//! Fork-vs-fresh bit-identity of the warm-state snapshot layer.
//!
//! A simulator + workload pair forked from a [`vsnoop::SimSnapshot`]
//! must continue *bit-identically* to one that simply kept running, for
//! every filter policy. The experiment drivers warm every cell afresh;
//! the snapshot API stays for the benchmark's clone probes, and these
//! tests pin its contract at the API level: stats ([`SimStats`] is
//! `Eq`), network traffic, and the full architectural state dump must
//! all match.

use sim_net::TrafficStats;
use vsnoop::{ContentPolicy, FilterPolicy, SimStats, Simulator, SystemConfig};
use workloads::{profile, Workload, WorkloadConfig};

const WARMUP: u64 = 3_000;
const MEASURE: u64 = 2_000;
const SEED: u64 = 0x5EED;

/// Every filter policy the simulator supports.
fn all_policies() -> [FilterPolicy; 5] {
    [
        FilterPolicy::TokenBroadcast,
        FilterPolicy::VsnoopBase,
        FilterPolicy::Counter,
        FilterPolicy::COUNTER_THRESHOLD_10,
        FilterPolicy::REGION_SCOUT_4K,
    ]
}

fn cold_pair(
    policy: FilterPolicy,
    content_policy: ContentPolicy,
    content_sharing: bool,
    seed: u64,
) -> (Simulator, Workload) {
    let cfg = SystemConfig::small_test();
    let sim = Simulator::new(cfg, policy, content_policy);
    let wl = Workload::homogeneous(
        profile("fft").unwrap(),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed,
            host_activity: false,
            content_sharing,
        },
    );
    (sim, wl)
}

/// Runs the measured phase and extracts everything identity is judged
/// on: the stats block, the traffic counters, and the architectural
/// state (caches + token ledger).
fn measure(mut sim: Simulator, mut wl: Workload) -> (SimStats, TrafficStats, String) {
    sim.reset_measurement();
    sim.run(&mut wl, MEASURE);
    (sim.stats().clone(), *sim.traffic(), sim.arch_state())
}

/// The reference: warm-up and measurement in one unbroken run.
fn fresh(
    policy: FilterPolicy,
    content_policy: ContentPolicy,
    content_sharing: bool,
    seed: u64,
    warmup: u64,
) -> (SimStats, TrafficStats, String) {
    let (mut sim, mut wl) = cold_pair(policy, content_policy, content_sharing, seed);
    sim.run(&mut wl, warmup);
    measure(sim, wl)
}

/// Warm natively under the target policy, snapshot, fork, measure.
fn forked_native(
    policy: FilterPolicy,
    content_policy: ContentPolicy,
    content_sharing: bool,
    seed: u64,
    warmup: u64,
) -> (SimStats, TrafficStats, String) {
    let (mut sim, mut wl) = cold_pair(policy, content_policy, content_sharing, seed);
    sim.run(&mut wl, warmup);
    let snap = sim.snapshot(&wl);
    drop((sim, wl));
    let (sim, wl) = snap.fork();
    measure(sim, wl)
}

#[test]
fn native_fork_is_bit_identical_for_every_policy() {
    for policy in all_policies() {
        let a = fresh(policy, ContentPolicy::Broadcast, false, SEED, WARMUP);
        let b = forked_native(policy, ContentPolicy::Broadcast, false, SEED, WARMUP);
        assert_eq!(a.0, b.0, "{policy}: stats diverged");
        assert_eq!(a.1, b.1, "{policy}: traffic diverged");
        assert_eq!(a.2, b.2, "{policy}: architectural state diverged");
    }
}

#[test]
fn content_policy_forks_are_bit_identical() {
    for content_policy in ContentPolicy::ALL {
        let a = fresh(FilterPolicy::VsnoopBase, content_policy, true, SEED, WARMUP);
        let b = forked_native(FilterPolicy::VsnoopBase, content_policy, true, SEED, WARMUP);
        assert_eq!(a.0, b.0, "{content_policy:?}: stats diverged");
        assert_eq!(a.1, b.1, "{content_policy:?}: traffic diverged");
        assert_eq!(a.2, b.2, "{content_policy:?}: architectural state diverged");
    }
}

#[test]
fn snapshot_consumes_no_workload_rng() {
    // Two identical pairs; one takes a snapshot mid-flight. If
    // `snapshot` consumed (or perturbed) any workload RNG state, the
    // subsequent access streams — and therefore the stats and the
    // architectural state — would diverge.
    let (mut sim_a, mut wl_a) = cold_pair(
        FilterPolicy::VsnoopBase,
        ContentPolicy::Broadcast,
        false,
        SEED,
    );
    let (mut sim_b, mut wl_b) = cold_pair(
        FilterPolicy::VsnoopBase,
        ContentPolicy::Broadcast,
        false,
        SEED,
    );
    sim_a.run(&mut wl_a, WARMUP);
    sim_b.run(&mut wl_b, WARMUP);
    let snap = sim_a.snapshot(&wl_a);
    let a = measure(sim_a, wl_a);
    let b = measure(sim_b, wl_b);
    assert_eq!(a.0, b.0, "snapshot() perturbed the measured stats");
    assert_eq!(a.2, b.2, "snapshot() perturbed the architectural state");
    // And the snapshot itself forks into the same continuation.
    let (forked_sim, forked_wl) = snap.fork();
    let c = measure(forked_sim, forked_wl);
    assert_eq!(a.0, c.0, "fork diverged from the uninterrupted run");
    assert_eq!(a.2, c.2, "fork diverged from the uninterrupted run");
}

#[test]
fn forks_are_repeatable() {
    let (mut sim, mut wl) = cold_pair(FilterPolicy::Counter, ContentPolicy::Broadcast, false, SEED);
    sim.run(&mut wl, WARMUP);
    let snap = sim.snapshot(&wl);
    let first = {
        let (s, w) = snap.fork();
        measure(s, w)
    };
    let second = {
        let (s, w) = snap.fork();
        measure(s, w)
    };
    assert_eq!(first.0, second.0, "two forks of one snapshot diverged");
    assert_eq!(first.1, second.1);
    assert_eq!(first.2, second.2);
}

mod randomized {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Fork identity holds at arbitrary seeds and snapshot points,
        /// for a policy drawn from the full set.
        #[test]
        fn fork_identity_over_seeds_and_warmups(
            seed in any::<u64>(),
            warmup in 200u64..2_000,
            which in 0usize..5,
        ) {
            let policy = all_policies()[which];
            let a = fresh(policy, ContentPolicy::Broadcast, false, seed, warmup);
            let b = forked_native(policy, ContentPolicy::Broadcast, false, seed, warmup);
            prop_assert_eq!(a.0, b.0, "{}: stats diverged", policy);
            prop_assert_eq!(a.1, b.1, "{}: traffic diverged", policy);
            prop_assert_eq!(a.2, b.2, "{}: architectural state diverged", policy);
        }
    }
}
