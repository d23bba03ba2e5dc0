//! Fine-grained sharding *inside* one supervised job.
//!
//! The campaign supervisor parallelizes across jobs, but the heavy
//! reports (the migration sweeps, the pinned and content tables) are
//! each one job built from many independent per-application cells.
//! [`scatter`] fans those cells out over a bounded pool of scoped
//! worker threads and returns the results **in item order**, so a
//! sweep's output is byte-identical to the serial loop it replaces.
//!
//! Supervision composes with sharding:
//!
//! - the caller's [`CancelToken`](super::CancelToken) (if the calling
//!   thread is a supervised job) is re-installed on every worker, so
//!   the watchdog's deadline cuts through the whole fan-out at the
//!   simulators' usual round-boundary polls;
//! - a panicking shard is caught, remaining unstarted shards are
//!   abandoned, and — after every in-flight shard has finished — the
//!   panic of the **lowest item index** is resumed on the caller. That
//!   is the same panic a serial loop would have surfaced, so panic
//!   isolation and crash reproducers behave identically at any worker
//!   count.
//!
//! The worker count is process-global: explicit
//! [`set_shard_workers`] (the `all` binary's `--workers` flag), else
//! the `VSNOOP_SHARD_WORKERS` environment variable, else the host's
//! available parallelism. A count of 1 — or a single-item input — runs
//! inline on the caller thread, which is exactly the legacy serial
//! path.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use super::cancel;
use super::json::Value;

/// Explicit worker-count override; 0 means "not set" (fall through to
/// the environment, then to the host parallelism).
static SHARD_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-global shard worker count (0 clears the override).
pub fn set_shard_workers(n: usize) {
    SHARD_WORKERS.store(n, Ordering::Relaxed);
}

/// The effective shard worker count: [`set_shard_workers`] if set, else
/// `VSNOOP_SHARD_WORKERS`, else the host's available parallelism.
pub fn shard_workers() -> usize {
    let n = SHARD_WORKERS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    if let Some(n) = crate::knob::env_positive_usize("VSNOOP_SHARD_WORKERS") {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on the shard worker pool and returns the
/// results in item order.
///
/// See the module docs for the ordering, cancellation and panic
/// contract. With one worker (or fewer than two items) this is exactly
/// `items.into_iter().map(f).collect()` on the caller thread.
pub fn scatter<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let workers = shard_workers().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    super::arenas::cap_per_cpu();
    let token = cancel::current();
    let scope = crate::obs::scope_label();
    let tenant = crate::obs::tenant_label();
    let n = items.len();
    let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let done: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..workers {
            let (work, done, next, abort, token, f, scope, tenant) =
                (&work, &done, &next, &abort, &token, &f, &scope, &tenant);
            s.spawn(move || {
                let drain = || loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("shard queue poisoned")
                        .take()
                        .expect("shard item dispatched twice");
                    let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                    if result.is_err() {
                        abort.store(true, Ordering::Relaxed);
                        // The failing shard's flight ring lives on this
                        // worker thread; dump it before the panic
                        // travels back to the caller.
                        if crate::obs::enabled() {
                            crate::obs::dump_flight("shard-panic");
                        }
                    }
                    *done[i].lock().expect("shard results poisoned") = Some(result);
                };
                // Re-install the supervising job's token (and the
                // panic-hook quieting that goes with it) on this worker,
                // and inherit its observability scope — so shard dumps
                // land next to the job's other artifacts — and tenant
                // label, so per-tenant accounting (warm-pool hit/miss)
                // follows the work onto helper threads.
                let scoped = || crate::obs::with_scope(scope, drain);
                let labelled = || match tenant {
                    Some(t) => crate::obs::with_tenant(t, scoped),
                    None => scoped(),
                };
                match token {
                    Some(t) => cancel::with_current(t.clone(), labelled),
                    None => labelled(),
                }
            });
        }
    });

    let mut results: Vec<Option<std::thread::Result<T>>> = done
        .into_iter()
        .map(|slot| slot.into_inner().expect("shard results poisoned"))
        .collect();

    // Lowest-index panic wins: identical to the serial loop, where
    // later items would never have run. Shards that *did* complete
    // after the failing index are discarded with it — record what that
    // partial progress was instead of dropping it silently.
    if let Some(i) = results.iter().position(|r| matches!(r, Some(Err(_)))) {
        if crate::obs::telemetry_active() {
            let completed_after = results[i + 1..]
                .iter()
                .filter(|r| matches!(r, Some(Ok(_))))
                .count();
            let unstarted = results.iter().filter(|r| r.is_none()).count();
            let message = match &results[i] {
                Some(Err(p)) => super::supervisor::panic_message(p.as_ref()),
                _ => unreachable!(),
            };
            crate::obs::telemetry::emit(
                "shard_panic",
                vec![
                    ("index", Value::UInt(i as u64)),
                    ("shards", Value::UInt(n as u64)),
                    ("completed_after", Value::UInt(completed_after as u64)),
                    ("dropped_unstarted", Value::UInt(unstarted as u64)),
                    ("message", Value::Str(message)),
                ],
            );
        }
        let Some(Err(payload)) = results.swap_remove(i) else {
            unreachable!()
        };
        resume_unwind(payload);
    }

    results
        .into_iter()
        .map(|r| match r {
            Some(Ok(v)) => v,
            // Unstarted shard past an aborted one; unreachable unless
            // an earlier slot holds the panic that caused the abort.
            _ => unreachable!("shard skipped without a preceding panic"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{CancelToken, Cancelled};

    /// Serializes tests that flip the process-global worker count.
    static WORKERS_LOCK: Mutex<()> = Mutex::new(());

    fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _g = WORKERS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = SHARD_WORKERS.load(Ordering::Relaxed);
        set_shard_workers(n);
        struct Reset(usize);
        impl Drop for Reset {
            fn drop(&mut self) {
                set_shard_workers(self.0);
            }
        }
        let _r = Reset(before);
        f()
    }

    #[test]
    fn preserves_item_order_at_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = with_workers(workers, || scatter(items.clone(), |i| i * i));
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn single_worker_runs_inline() {
        let caller = std::thread::current().id();
        let ids = with_workers(1, || {
            scatter(vec![(), ()], |()| std::thread::current().id())
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = with_workers(4, || scatter(Vec::<u32>::new(), |x| x));
        assert!(out.is_empty());
    }

    #[test]
    fn lowest_index_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            with_workers(4, || {
                scatter((0..16).collect::<Vec<u32>>(), |i| {
                    if i % 5 == 1 {
                        panic!("shard {i} failed");
                    }
                    i
                })
            })
        });
        let payload = r.expect_err("a shard panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "shard 1 failed", "serial order decides the panic");
    }

    #[test]
    fn cancelled_caller_token_reaches_workers() {
        let token = CancelToken::new();
        token.cancel();
        let r = std::panic::catch_unwind(|| {
            cancel::with_current(token, || {
                with_workers(4, || {
                    scatter((0..8).collect::<Vec<u32>>(), |i| {
                        crate::runner::poll_current();
                        i
                    })
                })
            })
        });
        let payload = r.expect_err("cancellation must unwind through scatter");
        assert!(
            payload.downcast_ref::<Cancelled>().is_some(),
            "the Cancelled sentinel must survive shard propagation"
        );
    }

    #[test]
    fn worker_count_resolution_prefers_override() {
        with_workers(3, || assert_eq!(shard_workers(), 3));
    }
}
