//! A warmed-up simulator makes no heap allocation per step: once caches,
//! the token ledger and the workload's pools have grown to their working
//! size, `Simulator::run` reuses every buffer it touches.
//!
//! A test-only counting global allocator over `std::alloc::System` (hence
//! a test binary of its own) counts the allocations the calling thread
//! makes during a measured window. Counts, unlike timings, hold on any
//! host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_vm::{VcpuId, VmId};
use vsnoop::{CheckerConfig, ContentPolicy, FaultPlan, FilterPolicy, Simulator, SystemConfig};
use workloads::{profile, Workload, WorkloadConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, so `System`'s
// guarantees are this allocator's; counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_ROUNDS: u64 = 20_000;
const WINDOW_ROUNDS: u64 = 20_000;

/// Allocations of a `WINDOW_ROUNDS`-round window after a
/// `WARM_ROUNDS`-round warm-up, on the small test machine. The first
/// policy is the primary lane and the rest ride along as filter lanes.
/// With `migrate`, two vCPUs of different VMs exchange cores every
/// 0.1 ms, as in the paper's migration experiments. With `faults`, the
/// plan injects its faults throughout both rounds. With `checker`, the
/// invariant checker runs at its default sweep cadence.
fn window_allocations(
    policies: &[FilterPolicy],
    migrate: bool,
    faults: Option<FaultPlan>,
    checker: bool,
) -> u64 {
    let cfg = SystemConfig::small_test();
    let mut sim = Simulator::new(cfg, policies[0], ContentPolicy::Broadcast);
    if let Some(plan) = faults {
        sim.set_fault_plan(plan);
    }
    if checker {
        sim.enable_checker(CheckerConfig::default());
    }
    // The serial step is what is counted, whatever the engine knob says.
    sim.set_engine_workers(1);
    sim.add_filter_lanes(&policies[1..]).unwrap();
    let mut wl = Workload::homogeneous(
        profile("ocean").unwrap(),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed: 0xA110C,
            ..Default::default()
        },
    );
    let mut rng = SmallRng::seed_from_u64(0x5A4B);
    let mut pick = move |_| {
        let a = rng.gen_range(0..cfg.n_vms) as u16;
        let b = (a + rng.gen_range(1..cfg.n_vms) as u16) % cfg.n_vms as u16;
        (
            VcpuId::new(VmId::new(a), rng.gen_range(0..cfg.vcpus_per_vm)),
            VcpuId::new(VmId::new(b), rng.gen_range(0..cfg.vcpus_per_vm)),
        )
    };
    let period = cfg.cycles_per_ms / 10;
    let mut run = |sim: &mut Simulator, rounds| {
        if migrate {
            sim.run_with_migration(&mut wl, rounds, period, &mut pick);
        } else {
            sim.run(&mut wl, rounds);
        }
    };
    run(&mut sim, WARM_ROUNDS);
    let sweeps = sim.checker().map(|c| c.sweeps());
    let swaps = sim.hypervisor().swaps();
    let before = ALLOCATIONS.with(Cell::get);
    run(&mut sim, WINDOW_ROUNDS);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    // Not vacuous: the window missed in L2 and so ran token transactions,
    // and a migrating window really moved vCPUs.
    assert!(sim.lane_stats(0).l2_misses > 0);
    assert_eq!(sim.hypervisor().swaps() > swaps, migrate);
    // A checked window sweeps.
    if let (Some(sweeps), Some(ch)) = (sweeps, sim.checker()) {
        assert!(ch.sweeps() > sweeps);
    }
    allocations
}

#[test]
fn pinned_steps_allocate_nothing() {
    assert_eq!(
        window_allocations(&[FilterPolicy::VsnoopBase], false, None, false),
        0
    );
}

#[test]
fn broadcast_steps_allocate_nothing() {
    assert_eq!(
        window_allocations(&[FilterPolicy::TokenBroadcast], false, None, false),
        0
    );
}

#[test]
fn migrating_steps_allocate_nothing() {
    assert_eq!(
        window_allocations(&[FilterPolicy::VsnoopBase], true, None, false),
        0
    );
}

#[test]
fn migrating_counter_steps_allocate_nothing() {
    assert_eq!(
        window_allocations(&[FilterPolicy::Counter], true, None, false),
        0
    );
}

#[test]
fn migrating_three_lane_steps_allocate_nothing() {
    let lanes = [
        FilterPolicy::VsnoopBase,
        FilterPolicy::Counter,
        FilterPolicy::TokenBroadcast,
    ];
    assert_eq!(window_allocations(&lanes, true, None, false), 0);
}

/// The benchmark's `storm` shape without its checker: every fault class
/// armed while vCPUs migrate every 0.1 ms.
#[test]
fn storm_steps_allocate_nothing() {
    assert_eq!(
        window_allocations(
            &[FilterPolicy::Counter],
            true,
            Some(FaultPlan::all(7)),
            false
        ),
        0
    );
}

/// The benchmark's `storm` shape itself, checker on. The checker keeps
/// no record of the blocks it has seen: a sweep reads the blocks to check
/// off the caches and the token ledger, set by set, through one scratch
/// buffer that the warm-up's sweeps already grew to a set's worth of
/// lines. So the window, sweeps included, allocates nothing.
#[test]
fn checked_storm_steps_allocate_nothing() {
    assert_eq!(
        window_allocations(
            &[FilterPolicy::Counter],
            true,
            Some(FaultPlan::all(7)),
            true
        ),
        0
    );
}
