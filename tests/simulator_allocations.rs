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

use vsnoop::{ContentPolicy, FilterPolicy, Simulator, SystemConfig};
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

/// Allocations of a `WINDOW_ROUNDS`-round pinned window under `policy`,
/// after a `WARM_ROUNDS`-round warm-up, on the small test machine.
fn window_allocations(policy: FilterPolicy) -> u64 {
    let cfg = SystemConfig::small_test();
    let mut sim = Simulator::new(cfg, policy, ContentPolicy::Broadcast);
    let mut wl = Workload::homogeneous(
        profile("ocean").unwrap(),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed: 0xA110C,
            ..Default::default()
        },
    );
    sim.run(&mut wl, WARM_ROUNDS);
    let before = ALLOCATIONS.with(Cell::get);
    sim.run(&mut wl, WINDOW_ROUNDS);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    // Not vacuous: the window missed in L2 and so ran token transactions.
    assert!(sim.lane_stats(0).l2_misses > 0);
    allocations
}

#[test]
fn pinned_steps_allocate_nothing() {
    assert_eq!(window_allocations(FilterPolicy::VsnoopBase), 0);
}

#[test]
fn broadcast_steps_allocate_nothing() {
    assert_eq!(window_allocations(FilterPolicy::TokenBroadcast), 0);
}
