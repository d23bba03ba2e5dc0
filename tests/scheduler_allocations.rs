//! Heap allocations of `sim_vm::run_scheduler` do not grow with run
//! length: every buffer the tick loop uses is allocated once per run.
//!
//! A test-only counting global allocator over `std::alloc::System` (hence
//! a test binary of its own) counts the allocations the calling thread
//! makes during one run. Counts, unlike timings, hold on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sim_vm::{
    run_scheduler, SchedPolicy, SchedulerConfig, VmId, VmSpec, VmWorkload, WorkloadBehavior,
};

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

/// Four bursty 4-vCPU guests with serial phases plus a dom0 vCPU on eight
/// cores: wake placement, stealing and serial-phase descheduling all run
/// on most ticks.
fn workloads(work_ticks: f64) -> Vec<VmWorkload> {
    let guest = WorkloadBehavior {
        mean_busy_ticks: 20.0,
        mean_blocked_ticks: 8.0,
        mean_parallel_ticks: 150.0,
        mean_serial_ticks: 40.0,
        work_ticks,
        migration_penalty_ticks: 0.5,
    };
    let dom0 = WorkloadBehavior {
        mean_busy_ticks: 3.0,
        mean_blocked_ticks: 30.0,
        mean_parallel_ticks: f64::INFINITY,
        mean_serial_ticks: 0.0,
        work_ticks: f64::INFINITY,
        migration_penalty_ticks: 0.0,
    };
    (0..4)
        .map(|i| VmWorkload {
            spec: VmSpec::new(VmId::new(i), 4, 0),
            behavior: guest,
            background: false,
        })
        .chain([VmWorkload {
            spec: VmSpec::new(VmId::new(4), 1, 0),
            behavior: dom0,
            background: true,
        }])
        .collect()
}

/// `(allocations, makespan_ticks)` of one run.
fn run(policy: SchedPolicy, work_ticks: f64) -> (u64, u64) {
    let cfg = SchedulerConfig {
        n_cores: 8,
        policy,
        seed: 17,
        ..Default::default()
    };
    let wls = workloads(work_ticks);
    let before = ALLOCATIONS.with(Cell::get);
    let out = run_scheduler(&cfg, &wls);
    (ALLOCATIONS.with(Cell::get) - before, out.makespan_ticks)
}

#[test]
fn scheduler_allocations_do_not_grow_with_run_length() {
    for policy in [
        SchedPolicy::Pinned,
        SchedPolicy::FullMigration,
        SchedPolicy::Restricted { domain_cores: 4 },
    ] {
        let (short, short_ticks) = run(policy, 1_000.0);
        let (long, long_ticks) = run(policy, 20_000.0);
        assert!(
            long_ticks > 10 * short_ticks,
            "{policy:?}: the long run must run longer ({short_ticks} vs {long_ticks} ticks)"
        );
        assert_eq!(
            short, long,
            "{policy:?}: {short} allocations over {short_ticks} ticks, {long} over {long_ticks}"
        );
    }
}
