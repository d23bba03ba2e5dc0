//! Campaign telemetry: structured lifecycle + heartbeat records.
//!
//! A process-global sink appends one JSON object per record to
//! `telemetry.jsonl` in the trace directory — job lifecycle events
//! from the supervisor (`job_start`, `job_ok`, `job_retry`,
//! `job_failed`, `job_abandoned`), periodic `heartbeat` records
//! (rounds/s, RSS, cell-memo counters), shard-panic events from
//! [`scatter`](crate::runner::scatter), and flight-dump notices. Each
//! line carries a monotonically increasing `seq`, a wall-clock
//! `ts_ms`, a monotonic `mono_ms` (milliseconds since process start,
//! immune to clock steps), the emitting thread's scope label, and the
//! event's own fields.
//!
//! Everything goes to the side file, **never stdout**, so report
//! output stays byte-identical with telemetry on. When tracing is off,
//! [`emit`] returns before touching the lock — no file, no
//! allocation. Records are flushed per line so `obs-tail` (and plain
//! `tail -f`) observe them live.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::runner::json::Value;

/// File name of the telemetry sink inside the trace directory.
pub const TELEMETRY_FILE: &str = "telemetry.jsonl";

struct Sink {
    path: PathBuf,
    file: File,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Process-global record sequence. Global (not per sink) so a record
/// keeps the same `seq` whether it reaches the file, a live tap, or
/// both, and so re-targeting the trace directory mid-process never
/// makes `seq` run backwards in a subscriber's stream.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// A live in-process subscriber to the telemetry stream; receives each
/// finished JSON line. Must be cheap and non-blocking (the service's
/// taps forward into an unbounded channel drained by the connection
/// writer).
type Tap = Box<dyn Fn(&str) + Send + Sync>;

/// Registered taps, with the handle ids used to remove them.
static TAPS: Mutex<Vec<(u64, Tap)>> = Mutex::new(Vec::new());
static NEXT_TAP_ID: AtomicU64 = AtomicU64::new(1);

/// Fast-path mirror of "TAPS is non-empty", so [`emit`] stays one
/// predictable branch when telemetry is fully off.
static TAP_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Whether any live tap is registered. Telemetry records are built
/// when *either* this or the trace directory is on.
pub fn tap_active() -> bool {
    TAP_ACTIVE.load(Ordering::Relaxed)
}

/// Registers a live subscriber for every subsequent telemetry record
/// (the serialized JSON line, no trailing newline). Returns the handle
/// to pass to [`remove_tap`]. Taps receive records even when no trace
/// directory is configured — the service uses this to stream
/// heartbeats and job lifecycle events to `subscribe` connections
/// without requiring tracing on disk.
pub fn add_tap(tap: impl Fn(&str) + Send + Sync + 'static) -> u64 {
    let id = NEXT_TAP_ID.fetch_add(1, Ordering::Relaxed);
    let mut taps = TAPS.lock().unwrap_or_else(|e| e.into_inner());
    taps.push((id, Box::new(tap)));
    TAP_ACTIVE.store(true, Ordering::Relaxed);
    id
}

/// Unregisters a tap registered by [`add_tap`]. Unknown handles are
/// ignored (a subscriber may race its own disconnect).
pub fn remove_tap(id: u64) {
    let mut taps = TAPS.lock().unwrap_or_else(|e| e.into_inner());
    taps.retain(|(tid, _)| *tid != id);
    TAP_ACTIVE.store(!taps.is_empty(), Ordering::Relaxed);
}

/// Drops the open sink so the next [`emit`] reopens it against the
/// (possibly re-targeted) trace directory.
pub(super) fn invalidate_sink() {
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Path of the telemetry sink for the current trace directory, or
/// `None` when tracing is off.
pub fn telemetry_path() -> Option<PathBuf> {
    super::trace_dir().map(|d| d.join(TELEMETRY_FILE))
}

/// Appends one telemetry record. A no-op (one predictable branch, no
/// allocation) when tracing is disabled.
///
/// The record is
/// `{"seq":…,"ts_ms":…,"mono_ms":…,"scope":…,"event":…, <fields>}`;
/// writes are best-effort — telemetry must never fail a run, so I/O
/// errors silently drop the record.
pub fn emit(event: &str, fields: Vec<(&'static str, Value)>) {
    let tapped = tap_active();
    if !super::enabled() && !tapped {
        return;
    }
    let mut pairs: Vec<(String, Value)> = Vec::with_capacity(fields.len() + 5);
    pairs.push((
        "seq".to_string(),
        Value::UInt(SEQ.fetch_add(1, Ordering::Relaxed)),
    ));
    pairs.push(("ts_ms".to_string(), Value::UInt(now_ms())));
    // The monotonic companion: `ts_ms` is wall-clock and can step
    // backwards under clock adjustments; `mono_ms` never does.
    // Consumers that predate the field ignore unknown keys, so old
    // journals and tails keep parsing.
    pairs.push(("mono_ms".to_string(), Value::UInt(super::mono_ms())));
    pairs.push(("scope".to_string(), Value::Str(super::scope_label())));
    pairs.push(("event".to_string(), Value::Str(event.to_string())));
    for (k, v) in fields {
        pairs.push((k.to_string(), v));
    }
    let line = Value::Obj(pairs).to_json();

    if super::enabled() {
        if let Some(path) = telemetry_path() {
            let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
            // (Re)open on first use or after a trace-dir change.
            let reopen = match guard.as_ref() {
                Some(sink) => sink.path != path,
                None => true,
            };
            if reopen {
                let opened = path.parent().and_then(|dir| {
                    std::fs::create_dir_all(dir).ok()?;
                    OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&path)
                        .ok()
                });
                *guard = opened.map(|file| Sink { path, file });
            }
            if let Some(sink) = guard.as_mut() {
                if writeln!(sink.file, "{line}").is_ok() {
                    let _ = sink.file.flush();
                }
            }
        }
    }

    // Taps run outside the sink lock; a slow file must not delay live
    // subscribers (nor vice versa).
    if tapped {
        let taps = TAPS.lock().unwrap_or_else(|e| e.into_inner());
        for (_, tap) in taps.iter() {
            tap(&line);
        }
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_without_tracing_is_silent() {
        // Unit tests in this binary never enable tracing; emitting must
        // not create a sink.
        if !super::super::enabled() {
            emit("noop", vec![("x", Value::UInt(1))]);
            assert!(SINK.lock().unwrap().is_none());
        }
    }
}
