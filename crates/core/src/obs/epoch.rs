//! Per-epoch time-series: `SimStats` delta snapshots every N rounds.
//!
//! An [`EpochRecorder`] rides inside a [`Simulator`](crate::Simulator)
//! (as an `Option<Box<_>>`, so disabled runs pay one pointer of space
//! and one branch per round). Every `every` rounds it cuts an
//! [`Epoch`]: the delta of every `SimStats` counter since the previous
//! cut ([`SimStats::delta_since`]), the snoop fan-out histogram, the
//! per-kind and per-node network traffic, vCPU swap activity, and the
//! process-wide cell-memo (`warm_*`) counters.
//!
//! Two export formats:
//!
//! * [`EpochRecorder::to_jsonl`] — one JSON object per epoch after a
//!   schema header line (`vsnoop-epochs/v1`);
//! * [`EpochRecorder::to_chrome_trace`] — Chrome `trace_event` counter
//!   tracks (`ph:"C"`, timestamps in simulated cycles as µs), loadable
//!   directly in Perfetto (<https://ui.perfetto.dev>) for a visual
//!   time-series of snoops, misses, retries and traffic over a run.

use std::io;
use std::path::{Path, PathBuf};

use sim_net::{MessageKind, TrafficStats};

use crate::runner::json::Value;
use crate::SimStats;

/// Schema tag written on the first line of every epochs JSONL export.
pub const EPOCHS_SCHEMA: &str = "vsnoop-epochs/v1";

/// One completed epoch: deltas of every tracked quantity over the
/// epoch's rounds.
#[derive(Clone, Debug)]
pub struct Epoch {
    /// Epoch index (0-based, consecutive).
    pub index: u64,
    /// Simulator cycle at the start of the epoch.
    pub start_cycle: u64,
    /// Simulator cycle at the end of the epoch (the cut point).
    pub end_cycle: u64,
    /// Delta of every `SimStats` counter over the epoch.
    pub stats: SimStats,
    /// Snoop fan-out histogram: `fanout_hist[k]` counts transaction
    /// attempts whose snoop reached `k` cores (requester included).
    pub fanout_hist: Vec<u64>,
    /// Byte-links moved per [`MessageKind`] (indexed by
    /// `MessageKind::index()`).
    pub traffic_byte_links: Vec<u64>,
    /// Messages sent per [`MessageKind`].
    pub traffic_messages: Vec<u64>,
    /// Bytes attributed per mesh node (source + destination), when the
    /// network's per-node tally is enabled; empty otherwise.
    pub node_bytes: Vec<u64>,
    /// Successful vCPU swaps (migrations) during the epoch.
    pub vcpu_swaps: u64,
    /// Process-wide cell-memo hits during the epoch.
    pub warm_hits: u64,
    /// Process-wide cell-memo misses during the epoch.
    pub warm_misses: u64,
    /// Always 0: the cell memo never evicts. Kept for the record format.
    pub warm_evictions: u64,
}

impl Epoch {
    /// Renders the epoch as one ordered JSON object (a JSONL line).
    pub fn to_value(&self) -> Value {
        let mut counters: Vec<(&str, Value)> = Vec::new();
        for (name, v) in self.stats.counters() {
            counters.push((name, Value::UInt(v)));
        }
        let stall_max = self.stats.stall_cycles.iter().copied().max().unwrap_or(0);
        let traffic: Vec<(String, Value)> = MessageKind::ALL
            .iter()
            .map(|k| {
                (
                    format!("{k:?}"),
                    Value::obj([
                        (
                            "byte_links",
                            Value::UInt(self.traffic_byte_links[k.index()]),
                        ),
                        ("messages", Value::UInt(self.traffic_messages[k.index()])),
                    ]),
                )
            })
            .collect();
        Value::obj([
            ("epoch", Value::UInt(self.index)),
            ("start_cycle", Value::UInt(self.start_cycle)),
            ("end_cycle", Value::UInt(self.end_cycle)),
            (
                "counters",
                Value::Obj(
                    counters
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                ),
            ),
            ("stall_max", Value::UInt(stall_max)),
            (
                "fanout_hist",
                Value::Arr(self.fanout_hist.iter().map(|&v| Value::UInt(v)).collect()),
            ),
            ("traffic", Value::Obj(traffic)),
            (
                "node_bytes",
                Value::Arr(self.node_bytes.iter().map(|&v| Value::UInt(v)).collect()),
            ),
            ("vcpu_swaps", Value::UInt(self.vcpu_swaps)),
            (
                "warm",
                Value::obj([
                    ("hits", Value::UInt(self.warm_hits)),
                    ("misses", Value::UInt(self.warm_misses)),
                    ("evictions", Value::UInt(self.warm_evictions)),
                ]),
            ),
        ])
    }
}

/// Accumulates [`Epoch`]s from a running simulator.
///
/// The recorder owns the *baselines* (the counter values at the last
/// cut); the simulator feeds it one [`EpochRecorder::tick_round`] per
/// round plus [`EpochRecorder::record_fanout`] per transaction
/// attempt. [`EpochRecorder::rebaseline`] resets everything at
/// measurement boundaries (`Simulator::reset_measurement`).
#[derive(Clone, Debug)]
pub struct EpochRecorder {
    every: u64,
    rounds_in_epoch: u64,
    epoch_start_cycle: u64,
    base_stats: SimStats,
    base_traffic: TrafficStats,
    base_nodes: Vec<u64>,
    base_swaps: u64,
    base_warm: [u64; 3],
    fanout_cumulative: Vec<u64>,
    fanout_base: Vec<u64>,
    epochs: Vec<Epoch>,
}

impl EpochRecorder {
    /// Creates a recorder cutting an epoch every `every` rounds
    /// (clamped to at least 1). Baselines start at zero; call
    /// [`EpochRecorder::rebaseline`] before the measured run.
    pub fn new(every: u64) -> Self {
        EpochRecorder {
            every: every.max(1),
            rounds_in_epoch: 0,
            epoch_start_cycle: 0,
            base_stats: SimStats::default(),
            base_traffic: TrafficStats::default(),
            base_nodes: Vec::new(),
            base_swaps: 0,
            base_warm: warm_counters(),
            fanout_cumulative: Vec::new(),
            fanout_base: Vec::new(),
            epochs: Vec::new(),
        }
    }

    /// Rounds per epoch.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Completed epochs so far, oldest first.
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// Discards all recorded epochs and re-anchors every baseline at
    /// the given current values. Called at measurement boundaries.
    pub fn rebaseline(
        &mut self,
        cycle: u64,
        stats: &SimStats,
        traffic: &TrafficStats,
        nodes: &[u64],
        swaps: u64,
    ) {
        self.rounds_in_epoch = 0;
        self.epoch_start_cycle = cycle;
        self.base_stats = stats.clone();
        self.base_traffic = *traffic;
        self.base_nodes = nodes.to_vec();
        self.base_swaps = swaps;
        self.base_warm = warm_counters();
        self.fanout_cumulative.clear();
        self.fanout_base.clear();
        self.epochs.clear();
    }

    /// Counts one transaction attempt that snooped `cores` cores
    /// (requester included) toward the fan-out histogram.
    pub fn record_fanout(&mut self, cores: usize) {
        if self.fanout_cumulative.len() <= cores {
            self.fanout_cumulative.resize(cores + 1, 0);
        }
        self.fanout_cumulative[cores] += 1;
    }

    /// Advances one round; cuts an [`Epoch`] when the configured epoch
    /// length is reached. `cycle`, `stats`, `traffic`, `nodes` and
    /// `swaps` are the simulator's *current aggregate* values.
    pub fn tick_round(
        &mut self,
        cycle: u64,
        stats: &SimStats,
        traffic: &TrafficStats,
        nodes: &[u64],
        swaps: u64,
    ) {
        self.rounds_in_epoch += 1;
        if self.rounds_in_epoch < self.every {
            return;
        }
        self.cut(cycle, stats, traffic, nodes, swaps);
    }

    /// Cuts the current (possibly partial) epoch if any rounds have
    /// accumulated — used at end-of-run so the tail is not lost.
    pub fn flush(
        &mut self,
        cycle: u64,
        stats: &SimStats,
        traffic: &TrafficStats,
        nodes: &[u64],
        swaps: u64,
    ) {
        if self.rounds_in_epoch > 0 {
            self.cut(cycle, stats, traffic, nodes, swaps);
        }
    }

    fn cut(
        &mut self,
        cycle: u64,
        stats: &SimStats,
        traffic: &TrafficStats,
        nodes: &[u64],
        swaps: u64,
    ) {
        let delta_stats = stats.delta_since(&self.base_stats);
        let traffic_byte_links: Vec<u64> = MessageKind::ALL
            .iter()
            .map(|&k| traffic.byte_links_of(k) - self.base_traffic.byte_links_of(k))
            .collect();
        let traffic_messages: Vec<u64> = MessageKind::ALL
            .iter()
            .map(|&k| traffic.messages_of(k) - self.base_traffic.messages_of(k))
            .collect();
        let node_bytes: Vec<u64> = nodes
            .iter()
            .enumerate()
            .map(|(i, &b)| b - self.base_nodes.get(i).copied().unwrap_or(0))
            .collect();
        let mut fanout_hist = self.fanout_cumulative.clone();
        for (i, &b) in self.fanout_base.iter().enumerate() {
            fanout_hist[i] -= b;
        }
        let warm = warm_counters();
        self.epochs.push(Epoch {
            index: self.epochs.len() as u64,
            start_cycle: self.epoch_start_cycle,
            end_cycle: cycle,
            stats: delta_stats,
            fanout_hist,
            traffic_byte_links,
            traffic_messages,
            node_bytes,
            vcpu_swaps: swaps - self.base_swaps,
            // Warm-pool counters are process-global; under concurrent
            // jobs an epoch attributes all process activity in its
            // window, which is the honest observable.
            warm_hits: warm[0].saturating_sub(self.base_warm[0]),
            warm_misses: warm[1].saturating_sub(self.base_warm[1]),
            warm_evictions: warm[2].saturating_sub(self.base_warm[2]),
        });
        self.rounds_in_epoch = 0;
        self.epoch_start_cycle = cycle;
        self.base_stats = stats.clone();
        self.base_traffic = *traffic;
        self.base_nodes = nodes.to_vec();
        self.base_swaps = swaps;
        self.base_warm = warm;
        self.fanout_base = self.fanout_cumulative.clone();
    }

    /// Renders all epochs as JSONL: a schema header line followed by
    /// one JSON object per epoch.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Value::obj([
            ("schema", Value::Str(EPOCHS_SCHEMA.to_string())),
            ("every", Value::UInt(self.every)),
            ("epochs", Value::UInt(self.epochs.len() as u64)),
        ]);
        out.push_str(&header.to_json());
        out.push('\n');
        for e in &self.epochs {
            out.push_str(&e.to_value().to_json());
            out.push('\n');
        }
        out
    }

    /// Renders all epochs as a Chrome `trace_event` JSON document
    /// (counter events, timestamps = simulated cycles interpreted as
    /// µs). Open it at <https://ui.perfetto.dev> or
    /// `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut events: Vec<Value> = Vec::new();
        events.push(Value::obj([
            ("name", Value::Str("process_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::UInt(0)),
            (
                "args",
                Value::obj([("name", Value::Str("vsnoop".to_string()))]),
            ),
        ]));
        let counter = |name: &str, ts: u64, args: Vec<(String, Value)>| {
            Value::obj([
                ("name", Value::Str(name.to_string())),
                ("ph", Value::Str("C".to_string())),
                ("ts", Value::UInt(ts)),
                ("pid", Value::UInt(0)),
                ("args", Value::Obj(args)),
            ])
        };
        for e in &self.epochs {
            let ts = e.end_cycle;
            let s = &e.stats;
            events.push(counter(
                "coherence",
                ts,
                vec![
                    ("l2_misses".to_string(), Value::UInt(s.l2_misses)),
                    ("snoops".to_string(), Value::UInt(s.snoops)),
                    ("retries".to_string(), Value::UInt(s.retries)),
                ],
            ));
            events.push(counter(
                "escalations",
                ts,
                vec![
                    (
                        "broadcast_fallbacks".to_string(),
                        Value::UInt(s.broadcast_fallbacks),
                    ),
                    (
                        "degraded_broadcasts".to_string(),
                        Value::UInt(s.degraded_broadcasts),
                    ),
                    (
                        "persistent_requests".to_string(),
                        Value::UInt(s.persistent_requests),
                    ),
                ],
            ));
            events.push(counter(
                "traffic_byte_links",
                ts,
                MessageKind::ALL
                    .iter()
                    .map(|k| {
                        (
                            format!("{k:?}"),
                            Value::UInt(e.traffic_byte_links[k.index()]),
                        )
                    })
                    .collect(),
            ));
            events.push(counter(
                "map_maintenance",
                ts,
                vec![
                    ("map_adds".to_string(), Value::UInt(s.map_adds)),
                    ("map_removes".to_string(), Value::UInt(s.map_removes)),
                    ("map_repairs".to_string(), Value::UInt(s.map_repairs)),
                    ("vcpu_swaps".to_string(), Value::UInt(e.vcpu_swaps)),
                ],
            ));
            let fanned: u64 = e
                .fanout_hist
                .iter()
                .enumerate()
                .map(|(k, &n)| k as u64 * n)
                .sum();
            let attempts: u64 = e.fanout_hist.iter().sum();
            events.push(counter(
                "snoop_fanout_avg_x100",
                ts,
                vec![(
                    "cores_x100".to_string(),
                    Value::UInt((fanned * 100).checked_div(attempts).unwrap_or(0)),
                )],
            ));
            events.push(counter(
                "warm_pool",
                ts,
                vec![
                    ("hits".to_string(), Value::UInt(e.warm_hits)),
                    ("misses".to_string(), Value::UInt(e.warm_misses)),
                    ("evictions".to_string(), Value::UInt(e.warm_evictions)),
                ],
            ));
        }
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::Str("ms".to_string())),
        ])
        .to_json()
    }

    /// Writes `<stem>-epochs.jsonl` and `<stem>-trace.json` into `dir`
    /// (created if needed); returns both paths.
    pub fn write_files(&self, dir: &Path, stem: &str) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let stem = super::sanitize(stem);
        let jsonl = dir.join(format!("{stem}-epochs.jsonl"));
        std::fs::write(&jsonl, self.to_jsonl())?;
        let trace = dir.join(format!("{stem}-trace.json"));
        std::fs::write(&trace, self.to_chrome_trace())?;
        Ok((jsonl, trace))
    }
}

/// Current process-wide cell-memo `(hits, misses, evictions)`.
fn warm_counters() -> [u64; 3] {
    let (h, m, e) = crate::experiments::warm_counters();
    [h, m, e]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bump(stats: &mut SimStats, n: u64) {
        stats.rounds += n;
        stats.accesses += 4 * n;
        stats.l2_misses += n;
        stats.snoops += 3 * n;
        stats.stall_cycles[0] += 7 * n;
    }

    #[test]
    fn epochs_cut_every_n_rounds_and_deltas_reconstruct() {
        let mut rec = EpochRecorder::new(2);
        let mut stats = SimStats::new(2);
        let traffic = TrafficStats::default();
        rec.rebaseline(0, &stats, &traffic, &[], 0);
        for round in 1..=5u64 {
            bump(&mut stats, 1);
            rec.tick_round(round * 10, &stats, &traffic, &[], 0);
        }
        assert_eq!(rec.epochs().len(), 2, "two full epochs of 2 rounds");
        rec.flush(50, &stats, &traffic, &[], 0);
        assert_eq!(rec.epochs().len(), 3, "flush cuts the partial tail");
        // Reconstruction: sum of deltas equals the final aggregate.
        let mut rebuilt = SimStats::new(2);
        for e in rec.epochs() {
            rebuilt.add_delta(&e.stats);
        }
        assert_eq!(rebuilt, stats);
        // Epoch boundaries chain.
        assert_eq!(rec.epochs()[0].start_cycle, 0);
        assert_eq!(rec.epochs()[0].end_cycle, 20);
        assert_eq!(rec.epochs()[1].start_cycle, 20);
    }

    #[test]
    fn fanout_histogram_is_per_epoch() {
        let mut rec = EpochRecorder::new(1);
        let stats = SimStats::new(1);
        let traffic = TrafficStats::default();
        rec.rebaseline(0, &stats, &traffic, &[], 0);
        rec.record_fanout(4);
        rec.record_fanout(4);
        rec.record_fanout(16);
        rec.tick_round(1, &stats, &traffic, &[], 0);
        rec.record_fanout(2);
        rec.tick_round(2, &stats, &traffic, &[], 0);
        let e0 = &rec.epochs()[0];
        assert_eq!(e0.fanout_hist[4], 2);
        assert_eq!(e0.fanout_hist[16], 1);
        let e1 = &rec.epochs()[1];
        assert_eq!(e1.fanout_hist[2], 1);
        assert_eq!(e1.fanout_hist.get(4).copied().unwrap_or(0), 0);
        assert_eq!(e1.fanout_hist.get(16).copied().unwrap_or(0), 0);
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_epoch() {
        let mut rec = EpochRecorder::new(1);
        let mut stats = SimStats::new(1);
        let traffic = TrafficStats::default();
        rec.rebaseline(0, &stats, &traffic, &[], 0);
        bump(&mut stats, 2);
        rec.tick_round(5, &stats, &traffic, &[], 0);
        let out = rec.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(EPOCHS_SCHEMA));
        assert!(lines[1].contains("\"epoch\":0"));
        assert!(lines[1].contains("\"l2_misses\":2"));
    }

    #[test]
    fn chrome_trace_is_loadable_shape() {
        let mut rec = EpochRecorder::new(1);
        let mut stats = SimStats::new(1);
        let traffic = TrafficStats::default();
        rec.rebaseline(0, &stats, &traffic, &[], 0);
        bump(&mut stats, 1);
        rec.tick_round(3, &stats, &traffic, &[], 0);
        let trace = rec.to_chrome_trace();
        let parsed = Value::parse(&trace).expect("trace must be valid JSON");
        let events = parsed.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert!(events.len() > 1);
        assert_eq!(
            events[1].get("ph").and_then(Value::as_str),
            Some("C"),
            "counter events"
        );
    }

    #[test]
    fn rebaseline_discards_history() {
        let mut rec = EpochRecorder::new(1);
        let mut stats = SimStats::new(1);
        let traffic = TrafficStats::default();
        rec.rebaseline(0, &stats, &traffic, &[], 0);
        bump(&mut stats, 1);
        rec.tick_round(1, &stats, &traffic, &[], 0);
        assert_eq!(rec.epochs().len(), 1);
        rec.rebaseline(1, &stats, &traffic, &[], 0);
        assert!(rec.epochs().is_empty());
        bump(&mut stats, 1);
        rec.tick_round(2, &stats, &traffic, &[], 0);
        assert_eq!(rec.epochs()[0].stats.rounds, 1, "baseline re-anchored");
    }
}
