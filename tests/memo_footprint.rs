//! The process-wide experiment caches retain results, not machines: after
//! a migration sweep, the heap they keep is a few counters per cell,
//! far below one warmed simulator snapshot of the paper machine.
//!
//! A test-only global allocator over `std::alloc::System` (hence a test
//! binary of its own, with one test in it) tracks the bytes live in the
//! whole process, shard workers included. Byte counts, unlike RSS or
//! timings, hold on any host and allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use vsnoop::experiments::{clear_warm_pool, migration_sweep_for, RunScale};
use vsnoop::{ContentPolicy, FilterPolicy, Simulator, SystemConfig};
use workloads::{profile, Workload, WorkloadConfig};

struct Tracking;

/// Bytes currently allocated by the process (signed: a block freed here
/// may have been allocated before the counter was read).
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, so `System`'s
// guarantees are this allocator's; tracking touches no allocation.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The benchmark's campaign scale: 250 warm-up and 250 measured rounds.
const SCALE: RunScale = RunScale {
    warmup_rounds: 250,
    measure_rounds: 250,
    seed: 0xF007,
};

/// What the caches may keep after the sweep below. The memo holds three
/// results per (app, period) cell, a few KiB in all.
const BOUND: isize = 256 * 1024;

/// Heap held by one warmed snapshot of the paper machine running `app`.
fn snapshot_bytes(app: &str) -> isize {
    let cfg = SystemConfig::paper_default();
    let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
    let mut wl = Workload::homogeneous(
        profile(app).unwrap(),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed: SCALE.seed,
            ..Default::default()
        },
    );
    sim.run(&mut wl, SCALE.warmup_rounds);
    let before = live();
    let snapshot = sim.snapshot(&wl);
    let bytes = live() - before;
    drop(snapshot);
    bytes
}

#[test]
fn a_migration_sweep_leaves_results_not_machines_in_the_caches() {
    let apps = ["ocean", "canneal"].map(|name| profile(name).unwrap());
    for app in &apps {
        let snapshot = snapshot_bytes(app.name);
        assert!(
            snapshot > BOUND,
            "{}: a warmed snapshot holds {snapshot} B, under the {BOUND} B bound, \
             so the bound could not tell a kept machine from a memo entry",
            app.name
        );
    }

    clear_warm_pool();
    let before = live();
    let points = migration_sweep_for(&apps, &[5.0, 0.1], SCALE);
    assert_eq!(
        points.len(),
        2 * 2 * 3,
        "two apps x two periods x three policies"
    );
    drop(points);
    let retained = live() - before;
    assert!(
        retained < BOUND,
        "the experiment caches retain {retained} B after a two-app sweep (bound {BOUND} B)"
    );
}
