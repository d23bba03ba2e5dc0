//! One glibc malloc arena per CPU for the runner's threads.
//!
//! A campaign spawns short-lived threads by the hundred: one per job
//! attempt, a shard pool per sweep, engine workers per run. glibc gives
//! a new thread a fresh arena while there are fewer than eight per CPU,
//! and memory freed into one arena cannot serve an allocation from
//! another. The process's peak RSS then depended on which thread
//! happened to allocate each multi-megabyte simulator and warm snapshot:
//! identical runs of the benchmark's `campaign` workload on a 2-CPU
//! host peaked anywhere from 58 to 92 MiB. Capped at one arena per CPU
//! the same runs peak at 40–45 MiB, and their wall time moves by less
//! than its run-to-run noise.
//!
//! An explicit `MALLOC_ARENA_MAX` in the environment is left alone.

use std::sync::Once;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// `mallopt(3)` from the glibc that `std` already links.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_ARENA_MAX` from glibc's `<malloc.h>`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: i32 = -8;

/// Caps malloc arenas at the host's parallelism, once per process.
/// Called before the runner spawns threads; a no-op off glibc.
pub(crate) fn cap_per_cpu() {
    static CAP: Once = Once::new();
    CAP.call_once(|| {
        if std::env::var_os("MALLOC_ARENA_MAX").is_some() {
            return;
        }
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            let cpus = i32::try_from(crate::knob::auto_workers()).unwrap_or(i32::MAX);
            // SAFETY: mallopt only adjusts allocator tunables; an
            // out-of-range value is rejected with a 0 return.
            unsafe {
                mallopt(M_ARENA_MAX, cpus);
            }
        }
    });
}
