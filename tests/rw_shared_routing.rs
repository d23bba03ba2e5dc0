//! Guest misses to RW-shared pages are broadcast under every filter.
//!
//! The paper's filter trusts a VM's map only for pages that VM alone can
//! cache. A page the hypervisor registers as RW-shared between VMs (an
//! I/O ring, say) may sit in any core's cache, so a guest miss to it must
//! go to every core, exactly as under token broadcast. The workload
//! generator registers only the host pools as RW-shared, and only host
//! agents touch them, so no generated trace has a guest miss to such a
//! page; this test builds one by hand: the guest vCPUs of both VMs of
//! the small machine read and write a few pages registered
//! `SharingType::RwShared`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_mem::{BLOCK_BYTES, PAGE_BYTES};
use sim_vm::{Agent, SharingDirectory, SharingType, VcpuId, VmId};
use vsnoop::{ContentPolicy, FilterPolicy, SimStats, Simulator, SystemConfig, SystemWorkload};
use workloads::{AccessStream, TraceAccess};

/// First page of the shared ring, and its length in pages.
const RING: u64 = 64;
const RING_PAGES: u64 = 4;
const ROUNDS: u64 = 3_000;

/// Every vCPU of every VM loads and stores random blocks of the ring.
struct SharedRing {
    dir: SharingDirectory,
    rng: SmallRng,
}

impl SharedRing {
    fn new(seed: u64) -> Self {
        let mut dir = SharingDirectory::new();
        for page in RING..RING + RING_PAGES {
            dir.register(page, SharingType::RwShared, None);
        }
        SharedRing {
            dir,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl AccessStream for SharedRing {
    fn next_access(&mut self, vcpu: VcpuId) -> TraceAccess {
        let page = RING + self.rng.gen_range(0..RING_PAGES);
        let block = self.rng.gen_range(0..PAGE_BYTES / BLOCK_BYTES);
        TraceAccess {
            agent: Agent::Guest(vcpu),
            addr: page * PAGE_BYTES + block * BLOCK_BYTES,
            write: self.rng.gen_range(0..4u32) == 0,
        }
    }
}

impl SystemWorkload for SharedRing {
    fn directory(&self) -> &SharingDirectory {
        &self.dir
    }
    fn friend_of(&self, _vm: VmId) -> Option<VmId> {
        None
    }
}

/// Stats and architectural state after `ROUNDS` rounds under `policy`.
fn run(policy: FilterPolicy, seed: u64) -> (SimStats, String) {
    let mut sim = Simulator::new(SystemConfig::small_test(), policy, ContentPolicy::Broadcast);
    sim.run(&mut SharedRing::new(seed), ROUNDS);
    (sim.stats().clone(), sim.arch_state())
}

#[test]
fn guest_misses_to_rw_shared_pages_are_broadcast_under_every_filter() {
    let cfg = SystemConfig::small_test();
    assert!(cfg.n_vms >= 2, "the ring must be shared across VMs");
    for seed in [3, 0x1D0] {
        let (bcast, bcast_state) = run(FilterPolicy::TokenBroadcast, seed);
        assert!(
            bcast.l2_misses > 500,
            "seed {seed}: {} misses",
            bcast.l2_misses
        );
        assert_eq!(
            bcast.snoops,
            cfg.n_cores() as u64 * bcast.l2_misses,
            "seed {seed}: token broadcast snoops every core per miss"
        );
        for policy in [
            FilterPolicy::VsnoopBase,
            FilterPolicy::Counter,
            FilterPolicy::COUNTER_THRESHOLD_10,
        ] {
            let (filtered, state) = run(policy, seed);
            assert_eq!(
                (filtered.l2_misses, filtered.snoops, filtered.retries),
                (bcast.l2_misses, bcast.snoops, bcast.retries),
                "seed {seed}: {policy} routed RW-shared guest misses as TokenB does not \
                 (misses, snoops, retries)"
            );
            assert_eq!(
                state, bcast_state,
                "seed {seed}: {policy} architectural state differs from TokenB's"
            );
        }
    }
}
