//! Fine-grained sharding *inside* one supervised job.
//!
//! The campaign supervisor parallelizes across jobs, but the heavy
//! reports (the migration sweeps, the pinned and content tables) are
//! each one job built from many independent per-application cells.
//! [`scatter`] fans those cells out over a bounded pool of scoped
//! worker threads and returns the results **in item order**, so a
//! sweep's output is byte-identical to the serial loop it replaces.
//!
//! Supervision composes with sharding: every shard runs on the attempt
//! path ([`super::attempt`]) in the caller's re-entered context, so the
//! watchdog's deadline cuts through the whole fan-out. A panicking shard
//! stops unstarted shards from starting and — after every in-flight
//! shard has finished — the panic of the **lowest item index** is
//! resumed on the caller: the panic a serial loop would have surfaced,
//! so panic isolation and crash reproducers behave identically at any
//! worker count.
//!
//! The worker count is process-global: explicit
//! [`set_shard_workers`] (the `all` binary's `--workers` flag), else
//! the host's available parallelism. A count of 1 — or a single-item
//! input — runs inline on the caller thread, which is exactly the
//! legacy serial path.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use super::attempt::{self, Context};
use super::json::Value;

/// Explicit worker-count override; 0 means "not set" (fall through to
/// the host parallelism).
static SHARD_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-global shard worker count (0 clears the override).
pub fn set_shard_workers(n: usize) {
    SHARD_WORKERS.store(n, Ordering::Relaxed);
}

/// The effective shard worker count: [`set_shard_workers`] if set, else
/// the host's available parallelism.
pub fn shard_workers() -> usize {
    match SHARD_WORKERS.load(Ordering::Relaxed) {
        0 => crate::knob::auto_workers(),
        n => n,
    }
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
    let ctx = Context::capture();
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let done: Mutex<Vec<Option<std::thread::Result<T>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let abort = AtomicBool::new(false);

    std::thread::scope(|s| {
        for _ in 0..workers {
            let (queue, done, abort, ctx, f) = (&queue, &done, &abort, &ctx, &f);
            s.spawn(move || {
                ctx.enter(|| {
                    while !abort.load(Ordering::Relaxed) {
                        let next = queue.lock().expect("shard queue poisoned").next();
                        let Some((i, item)) = next else { break };
                        let result = attempt::isolated(|| f(item), "shard-panic", "shard-panic");
                        if result.is_err() {
                            abort.store(true, Ordering::Relaxed);
                        }
                        done.lock().expect("shard results poisoned")[i] = Some(result);
                    }
                })
            });
        }
    });
    let mut results = done.into_inner().expect("shard results poisoned");

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
                Some(Err(p)) => attempt::panic_message(p.as_ref()),
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
    use crate::runner::{cancel, CancelToken, Cancelled};

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
