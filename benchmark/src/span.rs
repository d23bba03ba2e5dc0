//! Spans recorded by the benchmark's own code, around its calls into a
//! layer: kept in memory, written as one JSON line each when the
//! workload ends. Nothing here touches the program under test.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use vsnoop::runner::json::Value;

/// One timed interval. `trace` groups the spans of one request (or
/// window, or campaign job); `parent` is the `id` of the span that
/// caused this one, 0 for a root.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log with one time origin. A disabled tracer (the
/// untraced run) records nothing and costs one branch per call.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            on,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds of `t` since this tracer's origin.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens a span whose end is not known yet (a parent recorded
    /// before its children); close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: u64, trace: u64) -> u64 {
        let now = Instant::now();
        self.record(name, parent, trace, now, now)
    }

    pub fn close(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &str, parent: u64, trace: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, parent, trace, start, Instant::now());
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log as JSON lines `{id,parent,trace,name,start_ns,end_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Value::obj([
                ("id", Value::UInt(s.id)),
                ("parent", Value::UInt(s.parent)),
                ("trace", Value::UInt(s.trace)),
                ("name", Value::Str(s.name.clone())),
                ("start_ns", Value::UInt(s.start_ns)),
                ("end_ns", Value::UInt(s.end_ns)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

/// Per-name totals: `(name, count, total_ns, self_ns)`, largest self
/// time first. A span's self time is its duration minus the part of
/// that interval its direct children cover (overlapping children are
/// merged before subtracting, so concurrent children are not counted
/// twice).
pub fn self_times(spans: &[Span]) -> Vec<(String, u64, u64, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> = Default::default();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(covered);
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n.to_string(), c, t, s))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "late", 0, 10),
            // Two overlapping children: 20..60 and 50..80 cover 60 ns.
            span(3, 1, "wait", 20, 60),
            span(4, 1, "wait", 50, 80),
        ];
        let rows = self_times(&spans);
        let get = |n: &str| rows.iter().find(|r| r.0 == n).cloned().unwrap();
        assert_eq!(get("request"), ("request".into(), 1, 100, 30));
        assert_eq!(get("wait"), ("wait".into(), 2, 70, 70));
        assert_eq!(get("late"), ("late".into(), 1, 10, 10));
        assert_eq!(rows[0].0, "wait", "largest self time first");
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_an_open_span_closes_last() {
        let mut off = Tracer::new(false);
        assert_eq!(off.open("x", 0, 0), 0);
        off.close(0);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let root = on.open("root", 0, 0);
        let answer = on.time("child", root, 7, || 42);
        on.close(root);
        let s = on.spans();
        assert_eq!((s.len(), answer), (2, 42));
        assert_eq!((s[1].id, s[1].parent, s[1].trace), (2, 1, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[0].end_ns >= s[1].end_ns);
    }
}
