//! The environment knobs, all read here.
//!
//! Every `VSNOOP_*` and `SOAK_*` environment variable the workspace
//! reads is read here, one function per knob. [`NAMES`] lists them and
//! OBSERVABILITY.md's "Environment variables" table documents them; a
//! root test keeps the three in step and fails on a knob name spelled
//! anywhere else. A tunable that nothing sets is a constant next to the
//! code that uses it, not a knob.
//!
//! Numeric knobs fall back to their default on a malformed value (a
//! bad knob must never abort a long campaign) but warn **once per
//! knob** on stderr, so `SOAK_ROUNDS=2k` is reported instead of
//! silently running the default storm.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

const SCALE: &str = "VSNOOP_SCALE";
const TRACE: &str = "VSNOOP_TRACE";
const HEARTBEAT_MS: &str = "VSNOOP_HEARTBEAT_MS";
const ENGINE_WORKERS: &str = "VSNOOP_ENGINE_WORKERS";
const CSV: &str = "VSNOOP_CSV";
const SOAK_ROUNDS: &str = "SOAK_ROUNDS";
const SOAK_SEED: &str = "SOAK_SEED";
const SOAK_FORCE_VIOLATION: &str = "SOAK_FORCE_VIOLATION";

/// Every knob name, in the order OBSERVABILITY.md documents them.
pub const NAMES: [&str; 8] = [
    SCALE,
    TRACE,
    HEARTBEAT_MS,
    ENGINE_WORKERS,
    CSV,
    SOAK_ROUNDS,
    SOAK_SEED,
    SOAK_FORCE_VIOLATION,
];

/// `VSNOOP_SCALE=quick`: run experiments at the quick smoke scale
/// instead of the full scale EXPERIMENTS.md reports.
pub fn quick_scale() -> bool {
    std::env::var(SCALE).as_deref() == Ok("quick")
}

/// `VSNOOP_TRACE`: the trace directory that turns observability on
/// (unset or blank: off).
pub fn trace_dir() -> Option<PathBuf> {
    env_dir(TRACE)
}

/// `VSNOOP_HEARTBEAT_MS`: the telemetry heartbeat period of campaigns
/// and the service, default 1000 ms.
pub fn heartbeat() -> Duration {
    Duration::from_millis(env_positive_u64(HEARTBEAT_MS).unwrap_or(1000))
}

/// `VSNOOP_ENGINE_WORKERS`: the batched engine's worker count, a
/// positive integer or `auto` for the host's available parallelism
/// (unset: `None`, the simulator's serial default).
pub fn engine_workers() -> Option<usize> {
    parse_worker_count(ENGINE_WORKERS, &std::env::var(ENGINE_WORKERS).ok()?)
}

/// `VSNOOP_CSV`: a directory the experiment tables are also dumped
/// into as CSV (unset or blank: no dump).
pub fn csv_dir() -> Option<PathBuf> {
    env_dir(CSV)
}

/// `SOAK_ROUNDS`: storm rounds of the soak, default 80 000 (one round
/// is 16 access steps on the paper machine).
pub fn soak_rounds() -> u64 {
    env_positive_u64(SOAK_ROUNDS).unwrap_or(80_000)
}

/// `SOAK_SEED`: the soak's seed, default `0x50AC`. Zero is a valid
/// seed.
pub fn soak_seed() -> u64 {
    std::env::var(SOAK_SEED)
        .ok()
        .and_then(|raw| parse_u64(SOAK_SEED, &raw))
        .unwrap_or(0x50AC)
}

/// `SOAK_FORCE_VIOLATION=1`: the soak runs its checker self-test
/// instead of the storm.
pub fn soak_force_violation() -> bool {
    std::env::var(SOAK_FORCE_VIOLATION).as_deref() == Ok("1")
}

/// The worker count "auto" resolves to: the host's available
/// parallelism, floored at 1 when it cannot be determined (restricted
/// sandboxes).
pub fn auto_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A directory-valued knob, trimmed; blank counts as unset.
fn env_dir(name: &str) -> Option<PathBuf> {
    let raw = std::env::var(name).ok()?;
    let dir = raw.trim();
    (!dir.is_empty()).then(|| PathBuf::from(dir))
}

fn env_positive_u64(name: &str) -> Option<u64> {
    parse_positive_u64(name, &std::env::var(name).ok()?)
}

/// Parses `raw` as a positive integer; `None` (after the warn-once
/// warning) on a malformed value. `name` is used only in the warning.
fn parse_positive_u64(name: &str, raw: &str) -> Option<u64> {
    match parse_u64(name, raw) {
        Some(0) => {
            warn_malformed(name, raw, "must be a positive integer (>= 1)");
            None
        }
        n => n,
    }
}

/// Parses `raw` as an unsigned integer, zero included; `None` (after
/// the warn-once warning) on a malformed value.
fn parse_u64(name: &str, raw: &str) -> Option<u64> {
    let n = raw.trim().parse::<u64>().ok();
    if n.is_none() {
        warn_malformed(name, raw, "is not an unsigned integer");
    }
    n
}

/// A worker count: the literal `auto` (case-insensitive) resolves to
/// [`auto_workers`], anything else parses as a positive integer.
fn parse_worker_count(name: &str, raw: &str) -> Option<usize> {
    if raw.trim().eq_ignore_ascii_case("auto") {
        return Some(auto_workers());
    }
    parse_positive_u64(name, raw).and_then(|n| usize::try_from(n).ok())
}

/// Prints the ignored-knob warning, once per knob name per process.
fn warn_malformed(name: &str, raw: &str, why: &str) {
    if note_first_warning(name) {
        eprintln!("warning: ignoring {name}={raw:?}: {why}; using the default");
    }
}

/// Records that `name` warned; returns `true` only the first time, which
/// is what makes the stderr warning once-per-knob. Split from the
/// printing so the latch itself is unit-testable.
fn note_first_warning(name: &str) -> bool {
    static WARNED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let mut warned = WARNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    warned.insert(name.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_values_parse() {
        assert_eq!(parse_positive_u64("TEST_OK", "1000"), Some(1000));
        assert_eq!(parse_positive_u64("TEST_OK", " 250 "), Some(250));
        assert_eq!(parse_positive_u64("TEST_OK", "1"), Some(1));
    }

    #[test]
    fn malformed_values_fall_back_to_default() {
        // Each rejected shape returns None (the caller keeps its default).
        for raw in ["abc", "0", "-3", "4.5", ""] {
            assert_eq!(parse_positive_u64("TEST_BAD", raw), None, "{raw:?}");
        }
    }

    #[test]
    fn soak_seed_accepts_zero_and_rejects_garbage() {
        // SOAK_SEED's parser: zero is a seed like any other, and a
        // malformed value warns and falls back instead of parsing to 0.
        assert_eq!(parse_u64(SOAK_SEED, "0"), Some(0));
        assert_eq!(parse_u64(SOAK_SEED, " 123 "), Some(123));
        assert_eq!(parse_u64(SOAK_SEED, "0x50AC"), None);
        assert_eq!(parse_u64(SOAK_SEED, "-1"), None);
        // SOAK_ROUNDS's parser: `2k` warns and keeps the default.
        assert_eq!(parse_positive_u64(SOAK_ROUNDS, "2k"), None);
        assert_eq!(parse_positive_u64(SOAK_ROUNDS, "2000"), Some(2000));
    }

    #[test]
    fn warning_latch_fires_once_per_knob() {
        assert!(note_first_warning("TEST_LATCH_A"));
        assert!(!note_first_warning("TEST_LATCH_A"));
        assert!(note_first_warning("TEST_LATCH_B"));
        assert!(!note_first_warning("TEST_LATCH_B"));
    }

    #[test]
    fn unset_knob_is_silent_none() {
        assert_eq!(env_positive_u64("TEST_DEFINITELY_UNSET"), None);
        assert_eq!(env_dir("TEST_DEFINITELY_UNSET"), None);
    }

    #[test]
    fn worker_count_auto_resolves_to_available_parallelism() {
        let auto = auto_workers();
        assert!(auto >= 1);
        for raw in ["auto", " AUTO ", "Auto"] {
            assert_eq!(parse_worker_count("TEST_WORKERS", raw), Some(auto));
        }
    }

    #[test]
    fn worker_count_numbers_and_rejects_behave_like_positive_ints() {
        assert_eq!(parse_worker_count("TEST_WORKERS_N", "4"), Some(4));
        assert_eq!(parse_worker_count("TEST_WORKERS_N", "0"), None);
        assert_eq!(parse_worker_count("TEST_WORKERS_N", "autoo"), None);
    }
}
