//! Differential oracle: snoop filtering must never change architecture.
//!
//! Virtual snooping's whole claim (paper Section III) is that a snoop a
//! filter drops is one the target could not have served: the VM owning
//! the block never ran there, so no valid copy can exist. If that holds,
//! a filtered machine and a broadcast machine fed the same access stream
//! must end in the *same architectural state* — identical cache lines
//! with identical token holdings, and an identical memory-side ledger —
//! while differing only in how many snoops were sent. This test runs
//! both machines over a seeded mixed workload (guest sharing plus
//! hypervisor/dom0 host activity) and compares the
//! [`Simulator::arch_state`] digests byte for byte.
//!
//! `ContentPolicy::MemoryDirect` is deliberately excluded: routing
//! content requests to memory instead of the owner legitimately changes
//! *where* tokens end up (memory supplies data and tokens it holds), so
//! only the snoop-filter axis is differential-tested here.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_vm::{VcpuId, VmId};
use vsnoop::experiments::{run_pinned, RunScale};
use vsnoop::{ContentPolicy, FilterPolicy, Simulator, SystemConfig};
use workloads::profile;

fn digest(policy: FilterPolicy, cfg: SystemConfig, scale: RunScale) -> (String, u64) {
    let sim: Simulator = run_pinned(
        profile("SPECweb").unwrap(),
        policy,
        ContentPolicy::Broadcast,
        true, // content_sharing: inter-VM read-only sharing in the mix
        true, // host_activity: hypervisor + dom0 accesses in the mix
        cfg,
        scale,
    );
    (sim.arch_state(), sim.stats().snoops)
}

fn assert_filter_is_transparent(policy: FilterPolicy) {
    let cfg = SystemConfig::small_test();
    let scale = RunScale::quick();
    let (base_state, base_snoops) = digest(FilterPolicy::TokenBroadcast, cfg, scale);
    let (filt_state, filt_snoops) = digest(policy, cfg, scale);

    // The oracle must not be vacuous: the filter has to actually have
    // dropped snoops on this workload before equality means anything.
    assert!(
        filt_snoops < base_snoops,
        "{policy:?} filtered nothing ({filt_snoops} vs {base_snoops} snoops); \
         the state comparison below would be trivially true"
    );
    assert!(
        !base_state.is_empty(),
        "empty digest: caches never filled, the comparison is vacuous"
    );
    if base_state != filt_state {
        let diff = base_state
            .lines()
            .zip(filt_state.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        panic!(
            "{policy:?} diverged from TokenBroadcast architectural state \
             (first differing line: {diff:?}; baseline {} lines, filtered {} lines)",
            base_state.lines().count(),
            filt_state.lines().count(),
        );
    }
}

#[test]
fn vsnoop_base_preserves_architectural_state() {
    assert_filter_is_transparent(FilterPolicy::VsnoopBase);
}

#[test]
fn counter_filter_preserves_architectural_state() {
    assert_filter_is_transparent(FilterPolicy::Counter);
}

#[test]
fn counter_threshold_preserves_architectural_state() {
    assert_filter_is_transparent(FilterPolicy::CounterThreshold { threshold: 10 });
}

/// The same oracle under the Figs. 7-9 migration model: a cross-VM vCPU
/// swap every 0.1 scaled ms, so maps grow on every swap and the counter
/// policies shrink them again. Counter-threshold is the interesting
/// case: it removes a core that still holds up to nine of the VM's
/// lines, so its filtered snoops miss real holders, and a failed
/// filtered GETX bounces the tokens it collected to memory before the
/// broadcast retry.
fn migrating_digest(policy: FilterPolicy) -> (String, vsnoop::SimStats) {
    // One vCPU per VM, so a swap moves a VM off a core for many periods
    // at a time: long enough for the counters to drain and remove it.
    let cfg = SystemConfig {
        n_vms: 4,
        vcpus_per_vm: 1,
        ..SystemConfig::small_test()
    };
    let mut sim = Simulator::new(cfg, policy, ContentPolicy::Broadcast);
    let mut wl = workloads::Workload::homogeneous(
        profile("fft").unwrap(),
        cfg.n_vms,
        workloads::WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed: 0x0AC1E,
            ..Default::default()
        },
    );
    sim.run(&mut wl, 2_000);
    sim.reset_measurement();
    let period_cycles = cfg.cycles_per_ms / 10;
    let n_vms = cfg.n_vms as u16;
    let mut rng = SmallRng::seed_from_u64(0x51A9);
    sim.run_with_migration(&mut wl, 30_000, period_cycles, |_| {
        let a = rng.gen_range(0..n_vms);
        let b = (a + rng.gen_range(1..n_vms)) % n_vms;
        (VcpuId::new(VmId::new(a), 0), VcpuId::new(VmId::new(b), 0))
    });
    (sim.arch_state(), sim.stats().clone())
}

fn assert_migrating_filter_is_transparent(policy: FilterPolicy) -> vsnoop::SimStats {
    let (base_state, base) = migrating_digest(FilterPolicy::TokenBroadcast);
    let (filt_state, filt) = migrating_digest(policy);
    assert!(
        filt.snoops < base.snoops && filt.map_adds > 0,
        "{policy:?}: the run must filter and migrate for the comparison to mean anything"
    );
    assert_eq!(base.l2_misses, filt.l2_misses, "{policy:?}: miss stream");
    assert!(
        base_state == filt_state,
        "{policy:?} diverged from TokenBroadcast architectural state under migration \
         (first differing line: {:?})",
        base_state
            .lines()
            .zip(filt_state.lines())
            .find(|(a, b)| a != b)
    );
    filt
}

#[test]
fn vsnoop_base_preserves_architectural_state_under_migration() {
    assert_migrating_filter_is_transparent(FilterPolicy::VsnoopBase);
}

#[test]
fn counter_preserves_architectural_state_under_migration() {
    let s = assert_migrating_filter_is_transparent(FilterPolicy::Counter);
    assert!(s.map_removes > 0, "counter must shrink maps in this run");
}

#[test]
fn counter_threshold_preserves_architectural_state_under_migration() {
    let s = assert_migrating_filter_is_transparent(FilterPolicy::COUNTER_THRESHOLD_10);
    // Not vacuous: the threshold removed cores that still held lines, so
    // filtered attempts failed and were retried, bouncing tokens.
    assert!(
        s.retries > 0 && s.broadcast_fallbacks > 0,
        "threshold run never retried: {s:?}"
    );
}

#[test]
fn identical_runs_have_identical_digests() {
    // Self-consistency: the digest itself must be deterministic (sorted,
    // no HashMap iteration order, no timestamps) before cross-policy
    // equality can be trusted.
    let cfg = SystemConfig::small_test();
    let scale = RunScale::quick();
    let (a, _) = digest(FilterPolicy::TokenBroadcast, cfg, scale);
    let (b, _) = digest(FilterPolicy::TokenBroadcast, cfg, scale);
    assert_eq!(a, b);
}
