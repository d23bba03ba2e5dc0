//! Server-side metrics: sharded lock-free counters/gauges and
//! fixed-footprint log2-bucket latency histograms.
//!
//! Every stage of the serving stack records into process-global statics
//! defined here — the service request lifecycle (admission wait, WAL
//! group-commit fsync, per-tenant queue wait, job run time, end-to-end
//! request latency), the reactor loop (poll/epoll wait, events per
//! wake, dispatch and outbox-flush time, connection gauge), and the
//! batched parallel engine's three phases. The record path never
//! allocates and never locks: a [`Counter`] or [`Histogram`] is a fixed
//! array of cache-line-padded atomics striped by thread, so concurrent
//! recorders land on different lines and a snapshot is just a relaxed
//! sum over the stripes.
//!
//! Latencies are recorded in **microseconds** into 65 log2 buckets:
//! bucket 0 holds the value 0 and bucket `i` holds `[2^(i-1), 2^i - 1]`,
//! so a bucket-edge quantile brackets the exact nearest-rank value
//! within one power of two (the recorded maximum is tracked exactly and
//! caps the top). That fixed footprint is what makes snapshots
//! mergeable and the record path branch-free.
//!
//! Three exposition surfaces, all fed from the same statics:
//!
//! * the `metrics` wire op ([`snapshot_value`] → one JSON object with
//!   p50/p90/p99/max per histogram, global and per tenant);
//! * a Prometheus text dump ([`prometheus`], rewritten to
//!   `<trace>/metrics.prom` by [`write_prom`] on each heartbeat);
//! * periodic `service_metrics` records in `telemetry.jsonl`.
//!
//! Service- and reactor-stage recording is **always on**: each record
//! costs a thread-local read plus a few uncontended relaxed atomic
//! adds, noise against the millisecond-scale operations it measures
//! (the benchmark's `obs.hist_record_ns` prices one record). The
//! engine-phase histograms alone are gated on [`enabled`] —
//! [`set_enabled`] or an active trace directory — because the batched
//! simulation loop is the workspace's zero-cost hot path.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::runner::json::Value;

/// Number of log2 buckets: bucket 0 for the value 0, buckets 1..=64
/// for `[2^(i-1), 2^i - 1]` — every `u64` has exactly one bucket.
pub const BUCKETS: usize = 65;

/// Stripe count for counters and histograms. Eight matches the engine
/// shard count and the service worker scale; stripes are picked by a
/// per-thread round-robin token so steady-state recorders never share
/// a cache line.
const STRIPES: usize = 8;

/// The log2 bucket index of `v`: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive upper edge of bucket `i` (`0` for bucket 0,
/// `u64::MAX` for bucket 64).
#[inline]
fn bucket_edge(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// This thread's stripe index, assigned round-robin on first use.
#[inline]
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// One cache line worth of atomic counter, so adjacent stripes never
/// false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    const fn new() -> Self {
        PaddedU64(AtomicU64::new(0))
    }
}

/// A monotonically increasing event count, striped by thread.
pub struct Counter {
    stripes: [PaddedU64; STRIPES],
}

impl Counter {
    /// A zeroed counter, usable in a `static`.
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Counter {
        // Array-repeat initializer; each stripe is an independent copy.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: PaddedU64 = PaddedU64::new();
        Counter {
            stripes: [ZERO; STRIPES],
        }
    }

    /// Adds `n` on this thread's stripe. No allocation, no locks.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// [`Counter::add`]`(1)`.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The total across stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-write-wins instantaneous value (one atomic; gauges are
/// written from a single owner thread, so striping buys nothing).
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge, usable in a `static`.
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One stripe of a histogram: its own bucket array, sum, and max.
struct HistStripe {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistStripe {
    const fn new() -> HistStripe {
        // The const is an array-repeat initializer, not a shared value:
        // every use site copies a fresh zeroed atomic.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        HistStripe {
            buckets: [ZERO; BUCKETS],
            sum: ZERO,
            max: ZERO,
        }
    }
}

/// A fixed-footprint log2-bucket latency histogram, striped by thread.
///
/// [`Histogram::record`] is the hot path: one thread-local read, three
/// relaxed atomic ops on this thread's stripe, zero allocation. Values
/// are conventionally **microseconds** (the `_US` statics below), but
/// the histogram itself is unit-agnostic — `REACTOR_EVENTS_PER_WAKE`
/// records plain counts.
pub struct Histogram {
    stripes: [HistStripe; STRIPES],
}

impl Histogram {
    /// A zeroed histogram, usable in a `static`.
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Histogram {
        // Array-repeat initializer; each stripe is an independent copy.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: HistStripe = HistStripe::new();
        Histogram {
            stripes: [ZERO; STRIPES],
        }
    }

    /// Records one observation. Allocation-free and lock-free.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.stripes[stripe()];
        s.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merges the stripes into one consistent-enough snapshot (each
    /// stripe is read with relaxed loads; totals race with concurrent
    /// recorders by at most the in-flight records, like any live
    /// metrics scrape).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for s in &self.stripes {
            for (i, b) in s.buckets.iter().enumerate() {
                out.buckets[i] += b.load(Ordering::Relaxed);
            }
            out.sum += s.sum.load(Ordering::Relaxed);
            out.max = out.max.max(s.max.load(Ordering::Relaxed));
        }
        out.count = out.buckets.iter().sum();
        out
    }
}

/// A merged, immutable view of a [`Histogram`] — what snapshots,
/// quantile queries, and the exposition formats operate on.
#[derive(Clone)]
pub struct HistSnapshot {
    /// Per-bucket counts (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Folds `other` into `self` (histograms over the same bucket
    /// scheme merge by plain addition; `max` by max).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 100`), resolved to
    /// the upper edge of the bucket holding that rank and capped at the
    /// exact recorded maximum. For any recorded value `v > 0` the
    /// result brackets the exact nearest-rank answer within one bucket:
    /// `exact <= quantile(p) < 2 * exact`. Returns 0 when empty.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_edge(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded values (exact: `sum / count`), 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Exact nearest-rank percentile on an already-sorted slice — the one
/// shared implementation (the loadtest's client-side percentiles and
/// the histogram-bracketing property test both use it). `p` is in
/// percent; returns 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

// ---------------------------------------------------------------------
// The metric registry: every stage's statics, by layer.
// ---------------------------------------------------------------------

/// Admission wait: request parsed on the reactor → the service core
/// handles it (µs).
pub static SERVICE_ADMISSION_WAIT_US: Histogram = Histogram::new();
/// The WAL write+fsync of the core turn that made a submit's
/// acceptance durable, once per accepted submit (µs).
pub static SERVICE_WAL_FSYNC_US: Histogram = Histogram::new();
/// Queue wait: the turn published the `accepted` → the core dispatched
/// the job (µs).
pub static SERVICE_QUEUE_WAIT_US: Histogram = Histogram::new();
/// Job run time: dispatch → terminal outcome (µs).
pub static SERVICE_RUN_US: Histogram = Histogram::new();
/// End-to-end server-side request latency: request parsed → terminal
/// outcome queued for the client (µs).
pub static SERVICE_REQUEST_US: Histogram = Histogram::new();
/// Submit requests received on the reactor (before dedup/admission).
pub static SERVICE_REQUESTS: Counter = Counter::new();
/// Typed sheds (any reason, including `pipeline_full`).
pub static SERVICE_SHED: Counter = Counter::new();
/// Terminal `done` outcomes.
pub static SERVICE_DONE: Counter = Counter::new();

/// Reactor poll/epoll wait per wake (µs).
pub static REACTOR_POLL_WAIT_US: Histogram = Histogram::new();
/// Readiness events delivered per wake (a count, not µs).
pub static REACTOR_EVENTS_PER_WAKE: Histogram = Histogram::new();
/// Readiness-event handling time per wake: accepts, reads, request
/// dispatch, and the flushes they trigger (µs).
pub static REACTOR_DISPATCH_US: Histogram = Histogram::new();
/// Cross-thread reply flush time per wake: draining the dirty set
/// other threads' outbox appends marked (µs).
pub static REACTOR_FLUSH_US: Histogram = Histogram::new();
/// Open connections (gauge, reactor-owned).
pub static REACTOR_CONNECTIONS: Gauge = Gauge::new();

/// Batched engine update-procs phase per batch (µs; gated on
/// [`enabled`]).
pub static ENGINE_UPDATE_PROCS_US: Histogram = Histogram::new();
/// Batched engine update-caches phase per batch (µs; gated).
pub static ENGINE_UPDATE_CACHES_US: Histogram = Histogram::new();
/// Batched engine update-net replay per batch (µs; gated).
pub static ENGINE_UPDATE_NET_US: Histogram = Histogram::new();
/// Worker completion spread per batch — last worker's reply minus
/// first worker's reply, the measured shard imbalance (µs; gated).
pub static ENGINE_SHARD_IMBALANCE_US: Histogram = Histogram::new();

/// The per-tenant histogram families (request latency and queue wait).
/// First use of a tenant name allocates its slot once under the lock;
/// the recording itself stays on the lock-free histogram. The vec is
/// small (tenants, not requests), so lookup is a linear scan.
struct Family {
    slots: Mutex<Vec<(String, &'static Histogram)>>,
}

impl Family {
    const fn new() -> Family {
        Family {
            slots: Mutex::new(Vec::new()),
        }
    }

    fn get(&self, tenant: &str) -> &'static Histogram {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, h)) = slots.iter().find(|(t, _)| t == tenant) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        slots.push((tenant.to_string(), h));
        h
    }

    fn snapshot(&self) -> Vec<(String, HistSnapshot)> {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots
            .iter()
            .map(|(t, h)| (t.clone(), h.snapshot()))
            .collect()
    }
}

static TENANT_REQUEST_US: Family = Family::new();
static TENANT_QUEUE_WAIT_US: Family = Family::new();

/// Records one end-to-end request latency for `tenant` (µs) — global
/// histogram plus the tenant's family slot.
pub fn record_request(tenant: &str, us: u64) {
    SERVICE_REQUEST_US.record(us);
    TENANT_REQUEST_US.get(tenant).record(us);
}

/// Records one queue wait for `tenant` (µs) — global plus family.
pub fn record_queue_wait(tenant: &str, us: u64) {
    SERVICE_QUEUE_WAIT_US.record(us);
    TENANT_QUEUE_WAIT_US.get(tenant).record(us);
}

// ---------------------------------------------------------------------
// The engine-phase gate.
// ---------------------------------------------------------------------

static METRICS_ON: AtomicBool = AtomicBool::new(false);

/// Whether engine-phase metrics record. True when explicitly enabled
/// ([`set_enabled`]) **or** the observability
/// layer is on. Note the engine itself refuses the batched path while
/// tracing is on, so explicit enablement is how the batched phases are
/// actually observed (the benchmark's `engine.*` phase rows). Service
/// and reactor recording ignores this gate entirely.
#[inline]
pub fn enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed) || super::enabled()
}

/// Turns the engine-phase gate on or off (does not touch the trace
/// directory and never affects engine eligibility).
pub fn set_enabled(on: bool) {
    METRICS_ON.store(on, Ordering::SeqCst);
}

// ---------------------------------------------------------------------
// Exposition: JSON snapshot, Prometheus text, heartbeat record fields.
// ---------------------------------------------------------------------

/// One histogram rendered for the wire: count plus p50/p90/p99/max in
/// milliseconds (µs values scaled; `REACTOR_EVENTS_PER_WAKE` is the
/// only count-valued histogram and is rendered raw).
fn hist_value_ms(s: &HistSnapshot) -> Value {
    Value::obj(vec![
        ("count", Value::UInt(s.count)),
        ("p50_ms", Value::Float(s.quantile(50.0) as f64 / 1000.0)),
        ("p90_ms", Value::Float(s.quantile(90.0) as f64 / 1000.0)),
        ("p99_ms", Value::Float(s.quantile(99.0) as f64 / 1000.0)),
        ("max_ms", Value::Float(s.max as f64 / 1000.0)),
        ("mean_ms", Value::Float(s.mean() / 1000.0)),
    ])
}

fn hist_value_raw(s: &HistSnapshot) -> Value {
    Value::obj(vec![
        ("count", Value::UInt(s.count)),
        ("p50", Value::UInt(s.quantile(50.0))),
        ("p90", Value::UInt(s.quantile(90.0))),
        ("p99", Value::UInt(s.quantile(99.0))),
        ("max", Value::UInt(s.max)),
    ])
}

/// Every named µs-histogram in the registry, for the exposition
/// formats (engine histograms included — empty unless gated on).
fn us_histograms() -> [(&'static str, &'static Histogram); 11] {
    [
        ("service_request_us", &SERVICE_REQUEST_US),
        ("service_admission_wait_us", &SERVICE_ADMISSION_WAIT_US),
        ("service_wal_fsync_us", &SERVICE_WAL_FSYNC_US),
        ("service_queue_wait_us", &SERVICE_QUEUE_WAIT_US),
        ("service_run_us", &SERVICE_RUN_US),
        ("reactor_poll_wait_us", &REACTOR_POLL_WAIT_US),
        ("reactor_dispatch_us", &REACTOR_DISPATCH_US),
        ("reactor_flush_us", &REACTOR_FLUSH_US),
        ("engine_update_procs_us", &ENGINE_UPDATE_PROCS_US),
        ("engine_update_caches_us", &ENGINE_UPDATE_CACHES_US),
        ("engine_update_net_us", &ENGINE_UPDATE_NET_US),
    ]
}

/// The full JSON metrics snapshot: what the `metrics` wire op embeds.
/// Global counters/gauges plus the answering server's
/// `service_worker_spawns` (its pool's thread starts), every stage
/// histogram (p50/p90/p99/max in ms), per-tenant request-latency and
/// queue-wait families, the cell-memo counters, and the process uptime
/// ([`super::mono_ms`]).
pub fn snapshot_value(worker_spawns: u64) -> Value {
    let (warm_hits, warm_misses, warm_evictions) = crate::experiments::warm_counters();
    let counters = Value::obj(vec![
        ("requests", Value::UInt(SERVICE_REQUESTS.get())),
        ("shed", Value::UInt(SERVICE_SHED.get())),
        ("done", Value::UInt(SERVICE_DONE.get())),
        ("warm_hits", Value::UInt(warm_hits)),
        ("warm_misses", Value::UInt(warm_misses)),
        ("warm_evictions", Value::UInt(warm_evictions)),
        ("service_worker_spawns", Value::UInt(worker_spawns)),
    ]);
    let gauges = Value::obj(vec![(
        "connections",
        Value::UInt(REACTOR_CONNECTIONS.get()),
    )]);
    let mut hists: Vec<(String, Value)> = us_histograms()
        .iter()
        .map(|(name, h)| (name.to_string(), hist_value_ms(&h.snapshot())))
        .collect();
    hists.push((
        "engine_shard_imbalance_us".to_string(),
        hist_value_ms(&ENGINE_SHARD_IMBALANCE_US.snapshot()),
    ));
    hists.push((
        "reactor_events_per_wake".to_string(),
        hist_value_raw(&REACTOR_EVENTS_PER_WAKE.snapshot()),
    ));
    let tenants: Vec<(String, Value)> = {
        let reqs = TENANT_REQUEST_US.snapshot();
        let waits = TENANT_QUEUE_WAIT_US.snapshot();
        reqs.iter()
            .map(|(t, s)| {
                let mut fields = vec![("request".to_string(), hist_value_ms(s))];
                if let Some((_, w)) = waits.iter().find(|(wt, _)| wt == t) {
                    fields.push(("queue_wait".to_string(), hist_value_ms(w)));
                }
                (t.clone(), Value::Obj(fields))
            })
            .collect()
    };
    Value::obj(vec![
        ("uptime_ms", Value::UInt(super::mono_ms())),
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", Value::Obj(hists)),
        ("tenants", Value::Obj(tenants)),
    ])
}

/// Renders the registry in the Prometheus text exposition format:
/// each histogram as cumulative `_bucket{le=...}` series plus `_sum`
/// and `_count`, counters as `_total`, the connection gauge plain.
/// Tenant families ride on a `tenant` label.
pub fn prometheus() -> String {
    use std::fmt::Write;
    // `label` is either empty or a full `name="value"` pair; bucket
    // lines splice it after the `le` label, `_sum`/`_count` wrap it in
    // braces on their own.
    fn hist(out: &mut String, name: &str, label: &str, s: &HistSnapshot) {
        let _ = writeln!(out, "# TYPE vsnoop_{name} histogram");
        let sep = if label.is_empty() {
            String::new()
        } else {
            format!(",{label}")
        };
        let braced = if label.is_empty() {
            String::new()
        } else {
            format!("{{{label}}}")
        };
        let mut cum = 0u64;
        for (i, &b) in s.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            cum += b;
            let _ = writeln!(
                out,
                "vsnoop_{name}_bucket{{le=\"{}\"{sep}}} {cum}",
                bucket_edge(i)
            );
        }
        let _ = writeln!(out, "vsnoop_{name}_bucket{{le=\"+Inf\"{sep}}} {}", s.count);
        let _ = writeln!(out, "vsnoop_{name}_sum{braced} {}", s.sum);
        let _ = writeln!(out, "vsnoop_{name}_count{braced} {}", s.count);
    }
    let mut out = String::with_capacity(8192);
    for (name, h) in us_histograms() {
        hist(&mut out, name, "", &h.snapshot());
    }
    hist(
        &mut out,
        "engine_shard_imbalance_us",
        "",
        &ENGINE_SHARD_IMBALANCE_US.snapshot(),
    );
    hist(
        &mut out,
        "reactor_events_per_wake",
        "",
        &REACTOR_EVENTS_PER_WAKE.snapshot(),
    );
    for (t, s) in TENANT_REQUEST_US.snapshot() {
        hist(
            &mut out,
            "tenant_request_us",
            &format!("tenant=\"{}\"", sanitize_label(&t)),
            &s,
        );
    }
    for (t, s) in TENANT_QUEUE_WAIT_US.snapshot() {
        hist(
            &mut out,
            "tenant_queue_wait_us",
            &format!("tenant=\"{}\"", sanitize_label(&t)),
            &s,
        );
    }
    let _ = writeln!(out, "# TYPE vsnoop_service_requests_total counter");
    let _ = writeln!(
        out,
        "vsnoop_service_requests_total {}",
        SERVICE_REQUESTS.get()
    );
    let _ = writeln!(out, "# TYPE vsnoop_service_shed_total counter");
    let _ = writeln!(out, "vsnoop_service_shed_total {}", SERVICE_SHED.get());
    let _ = writeln!(out, "# TYPE vsnoop_service_done_total counter");
    let _ = writeln!(out, "vsnoop_service_done_total {}", SERVICE_DONE.get());
    let _ = writeln!(out, "# TYPE vsnoop_reactor_connections gauge");
    let _ = writeln!(
        out,
        "vsnoop_reactor_connections {}",
        REACTOR_CONNECTIONS.get()
    );
    out
}

/// Escapes a tenant name for use inside a Prometheus label value.
fn sanitize_label(t: &str) -> String {
    t.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Rewrites `<dir>/metrics.prom` atomically (write temp, rename) —
/// the heartbeat calls this with the active trace directory.
pub fn write_prom(dir: &Path) {
    let tmp = dir.join("metrics.prom.tmp");
    let dst = dir.join("metrics.prom");
    if std::fs::write(&tmp, prometheus()).is_ok() {
        let _ = std::fs::rename(&tmp, &dst);
    }
}

/// Rewrites `metrics.prom` under the current trace directory, if any.
/// A no-op when tracing is off, so heartbeats stay side-effect-free
/// without a trace dir.
pub fn write_prom_if_traced() {
    if let Some(dir) = super::trace_dir() {
        write_prom(&dir);
    }
}

/// The compact field set the heartbeat's `service_metrics` telemetry
/// record carries: the three lifecycle counters, the end-to-end latency
/// summary (ms), and the emitting server's `service_worker_spawns`.
pub fn heartbeat_fields(worker_spawns: u64) -> Vec<(&'static str, Value)> {
    let s = SERVICE_REQUEST_US.snapshot();
    vec![
        ("requests", Value::UInt(SERVICE_REQUESTS.get())),
        ("shed", Value::UInt(SERVICE_SHED.get())),
        ("done", Value::UInt(SERVICE_DONE.get())),
        ("connections", Value::UInt(REACTOR_CONNECTIONS.get())),
        ("latency_count", Value::UInt(s.count)),
        (
            "latency_p50_ms",
            Value::Float(s.quantile(50.0) as f64 / 1000.0),
        ),
        (
            "latency_p99_ms",
            Value::Float(s.quantile(99.0) as f64 / 1000.0),
        ),
        ("latency_max_ms", Value::Float(s.max as f64 / 1000.0)),
        ("service_worker_spawns", Value::UInt(worker_spawns)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_covers_every_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Every bucket's edge lands back in that bucket.
        for i in 1..BUCKETS {
            assert_eq!(bucket_of(bucket_edge(i)), i, "edge of bucket {i}");
            assert_eq!(bucket_of(bucket_edge(i - 1) + 1), i.max(1));
        }
    }

    #[test]
    fn histogram_quantiles_bracket_and_max_is_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 5, 9, 100, 1000, 1000, 4096, 70_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.max, 70_000);
        assert_eq!(s.sum, 76_216);
        // p100 is the exact max; every quantile brackets the exact
        // nearest-rank answer within one power of two.
        assert_eq!(s.quantile(100.0), 70_000);
        let mut sorted = [0u64, 1, 5, 5, 9, 100, 1000, 1000, 4096, 70_000];
        sorted.sort_unstable();
        for p in [10.0, 50.0, 90.0, 99.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank.clamp(1, sorted.len()) - 1];
            let q = s.quantile(p);
            assert!(q >= exact, "p{p}: {q} < exact {exact}");
            assert!(
                exact == 0 || q < 2 * exact.max(1),
                "p{p}: {q} >= 2x exact {exact}"
            );
        }
    }

    #[test]
    fn snapshots_merge_by_addition() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [100u64, 200] {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 5);
        assert_eq!(m.sum, 306);
        assert_eq!(m.max, 200);
        assert_eq!(m.quantile(100.0), 200);
    }

    #[test]
    fn counter_sums_across_stripes() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 75.0), 3.0);
        assert_eq!(percentile(&xs, 99.0), 4.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 1.0), 7.5);
    }

    #[test]
    fn snapshot_value_and_prometheus_render() {
        record_request("metrics-unit-test-tenant", 1234);
        let v = snapshot_value(2);
        let counters = v.get("counters").expect("counters");
        assert_eq!(
            counters
                .get("service_worker_spawns")
                .and_then(Value::as_u64),
            Some(2)
        );
        assert!(v.get("histograms").is_some());
        let text = prometheus();
        assert!(text.contains("# TYPE vsnoop_service_request_us histogram"));
        assert!(text.contains("vsnoop_service_requests_total"));
        assert!(text.contains("tenant=\"metrics-unit-test-tenant\""));
        // The rendered JSON round-trips through the strict parser.
        let parsed = Value::parse(&v.to_json()).expect("snapshot JSON parses");
        assert!(parsed.get("uptime_ms").is_some());
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    /// Records `values` split across `threads` concurrent recorders and
    /// asserts the merged snapshot equals the serial ground truth.
    fn assert_concurrent_equals_serial(values: Vec<u64>, threads: usize) {
        let h = Histogram::new();
        let c = Counter::new();
        let chunk = values.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for part in values.chunks(chunk) {
                let (h, c) = (&h, &c);
                s.spawn(move || {
                    for &v in part {
                        h.record(v);
                        c.add(v);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(snap.sum, values.iter().sum::<u64>());
        assert_eq!(snap.max, values.iter().copied().max().unwrap_or(0));
        assert_eq!(c.get(), values.iter().sum::<u64>());
        let mut serial = [0u64; BUCKETS];
        for &v in &values {
            serial[bucket_of(v)] += 1;
        }
        assert_eq!(snap.buckets, serial);
    }

    /// The satellite-3 bracket property: the histogram quantile is
    /// never below the exact nearest-rank value and never a full
    /// bucket (2x) above it.
    fn assert_quantile_brackets(values: &[u64], p: f64) {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let sorted_f: Vec<f64> = sorted.iter().map(|&v| v as f64).collect();
        let exact = percentile(&sorted_f, p) as u64;
        let q = h.snapshot().quantile(p);
        assert!(q >= exact, "p{p}: histogram {q} < exact {exact}");
        assert!(
            q <= 2 * exact.max(1),
            "p{p}: histogram {q} > 2x exact {exact}"
        );
    }

    proptest! {
        #[test]
        fn concurrent_recording_matches_serial_totals(
            values in proptest::collection::vec(0u64..1_000_000, 1..400),
            threads in 1usize..8,
        ) {
            assert_concurrent_equals_serial(values, threads);
        }

        #[test]
        fn histogram_quantile_brackets_nearest_rank(
            values in proptest::collection::vec(0u64..10_000_000, 1..300),
            p in 1.0f64..100.0,
        ) {
            assert_quantile_brackets(&values, p);
        }
    }
}
