//! Workspace-wide observability: flight recorder, per-epoch time-series,
//! campaign telemetry.
//!
//! Simulation frameworks live or die by introspection, but every paper
//! metric comes out of [`SimStats`](crate::SimStats) as one opaque
//! end-of-run aggregate. This module adds three layers of visibility,
//! all **strictly zero-cost when disabled**:
//!
//! 1. **Flight recorder** ([`flight`]) — a fixed-capacity thread-local
//!    ring buffer of compact binary transaction events (requester,
//!    block, policy decision, destination mask, retries,
//!    fallback/escalation, tokens moved). Recording sits behind the
//!    single branch-predictable [`enabled`] check; the ring is dumped
//!    as JSONL next to the crash reproducers on panic, watchdog
//!    cancellation, or checker violation.
//! 2. **Per-epoch time-series** ([`epoch`]) — `SimStats` delta
//!    snapshots every N rounds (snoop fan-out histogram, per-kind and
//!    per-node traffic, map-maintenance events), exportable as JSONL
//!    and as a Chrome `trace_event` file loadable in Perfetto.
//! 3. **Campaign telemetry** ([`telemetry`]) — structured heartbeat
//!    and lifecycle records appended to a JSONL sink, tailed live by
//!    the `obs-tail` helper binary.
//!
//! # Enabling
//!
//! Everything is keyed off one process-global trace directory: set it
//! with [`set_trace_dir`], the `VSNOOP_TRACE` environment variable (via
//! [`init_from_env`]), or the bench binaries' shared `--trace-dir`
//! flag. With no directory configured, [`enabled`] is `false`, every
//! hook is a single predictable branch, and **no allocation, file, or
//! atomic write happens anywhere** — the hot path PR 3 flattened stays
//! allocation-free and the campaign stdout stays byte-identical.
//!
//! Telemetry and dumps go to side files only, never stdout, so report
//! output is byte-identical with tracing off and on.
//!
//! See `OBSERVABILITY.md` at the repository root for the event
//! schemas, the Perfetto how-to, and the full list of knobs.

pub mod epoch;
pub mod flight;
pub mod heartbeat;
pub mod metrics;
pub mod tail;
pub mod telemetry;

pub use epoch::{Epoch, EpochRecorder};
pub use flight::{dump_flight, record_tx, FlightEvent};
pub use heartbeat::Heartbeat;
pub use tail::Tailer;

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Fast gate for every hot-path hook: one relaxed atomic load, branch
/// predictable because it never changes mid-run in practice.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The configured trace directory (guards the slow paths only).
static TRACE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Process-wide round counter, incremented once per simulated round
/// while tracing is enabled — the heartbeat's rounds/s numerator.
static ROUNDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread scope label ("main" when unset); the campaign
    /// supervisor installs the job name so flight dumps land in
    /// per-job files next to that job's crash reproducer.
    static SCOPE: RefCell<Option<String>> = const { RefCell::new(None) };

    /// Per-thread tenant label (unset outside the service). The
    /// service installs it for the duration of a request; `scatter`
    /// re-installs it on shard workers, so cross-tenant resource
    /// accounting (e.g. the cell memo's per-tenant hit/miss counters)
    /// attributes work done on helper threads to the right tenant.
    static TENANT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Whether observability is enabled (a trace directory is configured).
///
/// This is the only check on the simulator's hot path; when it returns
/// `false` no event is constructed and no allocation happens.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether telemetry records should be constructed: a trace directory
/// is configured *or* a live tap (a service subscriber) is attached.
/// Producers of telemetry-only events gate on this; hot-path hooks
/// (flight recorder, epoch snapshots, round counting) stay gated on
/// the stricter [`enabled`].
#[inline]
pub fn telemetry_active() -> bool {
    enabled() || telemetry::tap_active()
}

/// Configures (or, with `None`, clears) the process-global trace
/// directory, enabling or disabling every observability layer at once.
///
/// The directory is created lazily by the first dump or telemetry
/// write, not here. Changing the directory re-targets the telemetry
/// sink on its next write.
pub fn set_trace_dir(dir: Option<PathBuf>) {
    let on = dir.is_some();
    *TRACE_DIR.lock().unwrap_or_else(|e| e.into_inner()) = dir;
    telemetry::invalidate_sink();
    ENABLED.store(on, Ordering::SeqCst);
}

/// The configured trace directory, if any.
pub fn trace_dir() -> Option<PathBuf> {
    TRACE_DIR.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Initializes the trace directory from the `VSNOOP_TRACE` environment
/// variable (a directory path; empty or unset leaves tracing off).
/// Called by every bench binary at startup; harmless to call twice.
pub fn init_from_env() {
    mono_ms(); // anchor the monotonic clock at startup
    if !enabled() {
        if let Some(dir) = crate::knob::trace_dir() {
            set_trace_dir(Some(dir));
        }
    }
}

/// Milliseconds elapsed since this clock's first use (one [`Instant`]
/// anchored process-wide) — the monotonic companion to telemetry's
/// wall-clock `ts_ms`, immune to clock steps. Every bench binary
/// touches it at startup via [`init_from_env`], so in practice it
/// counts from process start.
pub fn mono_ms() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Runs `f` with this thread's scope label set to `label` (restoring
/// the previous label afterwards). Flight dumps and telemetry records
/// emitted by the thread are attributed to the innermost scope.
pub fn with_scope<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let prev = SCOPE.with(|s| s.borrow_mut().replace(label.to_string()));
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            SCOPE.with(|s| *s.borrow_mut() = prev);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The current thread's scope label (`"main"` when no scope is set).
pub fn scope_label() -> String {
    SCOPE
        .with(|s| s.borrow().clone())
        .unwrap_or_else(|| "main".to_string())
}

/// Runs `f` with this thread's tenant label set (restoring the
/// previous label afterwards). Unlike scopes there is no default
/// tenant: single-user CLI campaigns run with the label unset and skip
/// per-tenant accounting entirely.
pub fn with_tenant<R>(label: &str, f: impl FnOnce() -> R) -> R {
    let prev = TENANT.with(|t| t.borrow_mut().replace(label.to_string()));
    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            TENANT.with(|t| *t.borrow_mut() = prev);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The current thread's tenant label, if one is installed.
pub fn tenant_label() -> Option<String> {
    TENANT.with(|t| t.borrow().clone())
}

/// Counts one simulated round toward the process-wide rounds/s rate
/// reported in telemetry heartbeats. Called from the simulator's round
/// loop; gated by [`enabled`] at the call site.
#[inline]
pub fn count_round() {
    ROUNDS.fetch_add(1, Ordering::Relaxed);
}

/// Total rounds counted since process start (monotonic; heartbeats
/// compute rates from deltas).
pub fn rounds_counted() -> u64 {
    ROUNDS.load(Ordering::Relaxed)
}

/// Current resident-set size in bytes (`VmRSS` from
/// `/proc/self/status`), or 0 where unavailable.
pub fn current_rss_bytes() -> u64 {
    proc_status_bytes("VmRSS:")
}

/// Peak resident-set size of the process so far in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where unavailable.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM:")
}

/// The `kB` figure of one `/proc/self/status` field, in bytes.
fn proc_status_bytes(field: &str) -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix(field) {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = field;
    0
}

/// Replaces path-hostile characters so labels can name dump files.
pub(crate) fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_label_nests_and_restores() {
        assert_eq!(scope_label(), "main");
        with_scope("outer", || {
            assert_eq!(scope_label(), "outer");
            with_scope("inner", || assert_eq!(scope_label(), "inner"));
            assert_eq!(scope_label(), "outer");
        });
        assert_eq!(scope_label(), "main");
    }

    #[test]
    fn tenant_label_nests_restores_and_defaults_to_none() {
        assert_eq!(tenant_label(), None);
        with_tenant("acme", || {
            assert_eq!(tenant_label(), Some("acme".into()));
            with_tenant("globex", || {
                assert_eq!(tenant_label(), Some("globex".into()));
            });
            assert_eq!(tenant_label(), Some("acme".into()));
        });
        assert_eq!(tenant_label(), None);
    }

    #[test]
    fn sanitize_keeps_safe_chars() {
        assert_eq!(sanitize("fig7-a_1"), "fig7-a_1");
        assert_eq!(sanitize("a/b c"), "a_b_c");
    }

    #[test]
    fn rss_probe_does_not_panic() {
        // On Linux this is > 0; elsewhere it degrades to 0.
        let _ = current_rss_bytes();
    }

    #[test]
    fn peak_rss_is_at_least_current_rss() {
        let now = current_rss_bytes();
        let peak = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(now > 0, "VmRSS must parse on Linux");
        }
        assert!(peak >= now, "VmHWM {peak} below VmRSS {now}");
    }
}
