//! Flight recorder: a fixed-capacity ring of compact transaction events.
//!
//! Each simulated coherence transaction attempt appends one
//! [`FlightEvent`] — a small `Copy` struct, no heap indirection — to a
//! **thread-local** ring buffer. Thread-locality is load-bearing: the
//! campaign supervisor runs every job on its own thread, so each job
//! records into (and dumps from) its own ring with no locking, and the
//! ring outlives the simulator when a panic unwinds through the job —
//! the `catch_unwind` handler can still dump the last events leading
//! up to the failure.
//!
//! The ring holds the most recent [`DEFAULT_FLIGHT_CAP`] events.
//! [`dump_flight`] writes it oldest-first as JSONL
//! (`flight-<scope>-<reason>.jsonl` in the trace directory) with a
//! schema header line; see `OBSERVABILITY.md` for the field reference.
//!
//! Nothing here runs when observability is disabled: the recording
//! call sites are gated on [`obs::enabled`](super::enabled), and the
//! ring itself is allocated lazily on the first recorded event.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::PathBuf;

use crate::runner::json::Value;

/// Ring capacity per thread, in events.
pub const DEFAULT_FLIGHT_CAP: usize = 1024;

/// Schema tag written on the first line of every flight dump.
pub const FLIGHT_SCHEMA: &str = "vsnoop-flight/v1";

/// One recorded transaction attempt, packed for cheap copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulator cycle at which the attempt ran.
    pub cycle: u64,
    /// Block address the transaction targets.
    pub block: u64,
    /// Snoop destination mask the policy chose (bit per core).
    pub dest_mask: u64,
    /// Subset of `dest_mask` actually delivered (link faults may drop).
    pub delivered: u64,
    /// Requesting core index.
    pub core: u16,
    /// Coherence tokens that moved to the requester this attempt.
    pub tokens_moved: u16,
    /// Retry attempt number (0 = first try).
    pub attempt: u8,
    /// Miss-classification code from the page table (sharing class).
    pub sharing: u8,
    /// Bit-flags; see the `FLAG_*` constants.
    pub flags: u8,
}

impl FlightEvent {
    /// Flag: the attempt was a write miss (read miss when clear).
    pub const FLAG_WRITE: u8 = 1 << 0;
    /// Flag: the snoop was filtered (multicast narrower than broadcast).
    pub const FLAG_FILTERED: u8 = 1 << 1;
    /// Flag: the policy escalated to a degraded full broadcast.
    pub const FLAG_DEGRADED: u8 = 1 << 2;
    /// Flag: the attempt ran at persistent-request priority.
    pub const FLAG_PERSISTENT: u8 = 1 << 3;
    /// Flag: the attempt succeeded (transaction completed).
    pub const FLAG_SUCCESS: u8 = 1 << 4;
    /// Flag: the memory controller heard the request.
    pub const FLAG_MEMORY: u8 = 1 << 5;

    /// Renders the event as one ordered JSON object (a dump line).
    fn to_value(self) -> Value {
        Value::obj([
            ("cycle", Value::UInt(self.cycle)),
            ("core", Value::UInt(u64::from(self.core))),
            ("block", Value::UInt(self.block)),
            (
                "kind",
                Value::Str(
                    if self.flags & Self::FLAG_WRITE != 0 {
                        "write"
                    } else {
                        "read"
                    }
                    .to_string(),
                ),
            ),
            ("attempt", Value::UInt(u64::from(self.attempt))),
            ("sharing", Value::UInt(u64::from(self.sharing))),
            ("dest_mask", Value::UInt(self.dest_mask)),
            ("delivered", Value::UInt(self.delivered)),
            ("tokens_moved", Value::UInt(u64::from(self.tokens_moved))),
            (
                "filtered",
                Value::Bool(self.flags & Self::FLAG_FILTERED != 0),
            ),
            (
                "degraded",
                Value::Bool(self.flags & Self::FLAG_DEGRADED != 0),
            ),
            (
                "persistent",
                Value::Bool(self.flags & Self::FLAG_PERSISTENT != 0),
            ),
            ("memory", Value::Bool(self.flags & Self::FLAG_MEMORY != 0)),
            ("success", Value::Bool(self.flags & Self::FLAG_SUCCESS != 0)),
        ])
    }
}

/// The per-thread ring. `buf` grows up to `cap` then wraps at `head`.
struct Ring {
    buf: Vec<FlightEvent>,
    cap: usize,
    head: usize,
    total: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            buf: Vec::new(),
            cap: DEFAULT_FLIGHT_CAP,
            head: 0,
            total: 0,
        }
    }

    fn push(&mut self, ev: FlightEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Events oldest-first.
    fn ordered(&self) -> impl Iterator<Item = &FlightEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

thread_local! {
    static RING: RefCell<Option<Ring>> = const { RefCell::new(None) };
}

/// Records one transaction event into this thread's ring.
///
/// Call sites gate on [`obs::enabled`](super::enabled) so that the
/// event is never even constructed when tracing is off; the ring is
/// allocated on the first call.
pub fn record_tx(ev: FlightEvent) {
    RING.with(|r| r.borrow_mut().get_or_insert_with(Ring::new).push(ev));
}

/// Number of events currently held in this thread's ring.
pub fn recorded_len() -> usize {
    RING.with(|r| r.borrow().as_ref().map_or(0, |ring| ring.buf.len()))
}

/// Total events ever recorded on this thread (including overwritten).
pub fn recorded_total() -> u64 {
    RING.with(|r| r.borrow().as_ref().map_or(0, |ring| ring.total))
}

/// The most recent event recorded on this thread, if any.
pub fn last_event() -> Option<FlightEvent> {
    RING.with(|r| {
        r.borrow()
            .as_ref()
            .and_then(|ring| ring.ordered().last().copied())
    })
}

/// Drops this thread's ring (tests use this to isolate scenarios).
pub fn clear_ring() {
    RING.with(|r| *r.borrow_mut() = None);
}

/// Dumps this thread's ring as JSONL into the trace directory and
/// returns the file path, or `None` when tracing is off, the ring is
/// empty, or the write fails (dumping is best-effort by design: it
/// runs on panic/violation paths and must never mask the original
/// failure).
///
/// The file is `flight-<scope>-<reason>.jsonl`; `reason` is one of
/// `violation`, `panic`, `timeout`, or `shard-panic`. A later dump for
/// the same scope and reason overwrites the earlier one — last failure
/// wins, matching the crash-reproducer convention.
pub fn dump_flight(reason: &str) -> Option<PathBuf> {
    if !super::enabled() {
        return None;
    }
    let dir = super::trace_dir()?;
    let (header, lines) = RING.with(|r| {
        let borrow = r.borrow();
        let ring = borrow.as_ref()?;
        if ring.buf.is_empty() {
            return None;
        }
        let header = Value::obj([
            ("schema", Value::Str(FLIGHT_SCHEMA.to_string())),
            ("scope", Value::Str(super::scope_label())),
            ("reason", Value::Str(reason.to_string())),
            ("events", Value::UInt(ring.buf.len() as u64)),
            ("recorded_total", Value::UInt(ring.total)),
            ("capacity", Value::UInt(ring.cap as u64)),
        ]);
        let lines: Vec<String> = ring.ordered().map(|ev| ev.to_value().to_json()).collect();
        Some((header, lines))
    })?;

    if std::fs::create_dir_all(&dir).is_err() {
        return None;
    }
    let path = dir.join(format!(
        "flight-{}-{}.jsonl",
        super::sanitize(&super::scope_label()),
        super::sanitize(reason)
    ));
    let file = std::fs::File::create(&path).ok()?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "{}", header.to_json()).ok()?;
    for line in &lines {
        writeln!(w, "{line}").ok()?;
    }
    w.flush().ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> FlightEvent {
        FlightEvent {
            cycle,
            block: 0x40 + cycle,
            dest_mask: 0b1010,
            delivered: 0b1010,
            core: 3,
            tokens_moved: 1,
            attempt: 0,
            sharing: 2,
            flags: FlightEvent::FLAG_SUCCESS | FlightEvent::FLAG_FILTERED,
        }
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let mut ring = Ring {
            buf: Vec::new(),
            cap: 4,
            head: 0,
            total: 0,
        };
        for c in 0..10 {
            ring.push(ev(c));
        }
        let cycles: Vec<u64> = ring.ordered().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        assert_eq!(ring.total, 10);
    }

    #[test]
    fn event_json_is_ordered_and_complete() {
        let json = ev(7).to_value().to_json();
        assert!(json.starts_with("{\"cycle\":7,\"core\":3,\"block\":71,"));
        for key in [
            "kind",
            "attempt",
            "sharing",
            "dest_mask",
            "delivered",
            "tokens_moved",
            "filtered",
            "degraded",
            "persistent",
            "memory",
            "success",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
    }

    #[test]
    fn dump_without_tracing_is_none() {
        record_tx(ev(1));
        // The global trace dir may be toggled by other tests in other
        // *files*, but unit tests in this binary never enable it.
        if !super::super::enabled() {
            assert_eq!(dump_flight("panic"), None);
        }
        clear_ring();
        assert_eq!(recorded_len(), 0);
    }
}
