//! Multi-tenant load harness for the simulation service.
//!
//! Starts an in-process server on a loopback port, drives it with many
//! concurrent client connections across several tenants, and reports
//! request-latency percentiles, shed counts and the process peak RSS.
//! The `loadtest` binary runs it.
//!
//! Each client thread pipelines all its submits up front and then
//! reads until every one has a terminal answer (`done` or `shed`), so
//! the server sees genuine concurrency and — with quotas sized below
//! the offered load — genuine overload. A request's latency is
//! submit-write to terminal-response; sheds are counted separately and
//! excluded from the latency distribution (they answer in
//! microseconds and would flatter the percentiles).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use vsnoop::obs::metrics::percentile;
use vsnoop::runner::json::Value;
use vsnoop::service::{serve, ChaosConfig, ChaosProxy, Response, ServiceConfig, TenantQuota};

use crate::service_jobs::registry_factory;

/// Load shape knobs.
#[derive(Clone, Copy, Debug)]
pub struct LoadOptions {
    /// Concurrent client connections.
    pub clients: usize,
    /// Distinct tenants the clients spread over (round-robin).
    pub tenants: usize,
    /// Submits each client pipelines.
    pub jobs_per_client: usize,
    /// Duration of the synthetic `spin` job each submit runs.
    pub spin_ms: u64,
    /// Server worker threads (concurrently running jobs).
    pub workers: usize,
    /// Global admission queue cap.
    pub queue_cap: usize,
    /// Per-tenant quota.
    pub quota: TenantQuota,
    /// Per-request deadline.
    pub deadline_ms: u64,
    /// Run the server with its write-ahead log (in a scratch state
    /// dir). On by default so the loadtest measures the service *with*
    /// its durability cost.
    pub wal: bool,
    /// Route every client through a fault-injecting [`ChaosProxy`]
    /// seeded here; clients switch to reconnect-and-retry submission
    /// keyed on idempotency keys. `None` connects directly.
    pub chaos_seed: Option<u64>,
    /// Per-connection pipelining cap handed to the server. Keep
    /// `jobs_per_client` at or under it unless the point is to
    /// observe `pipeline_full` sheds (clients pipeline every submit
    /// up front).
    pub pipeline_limit: usize,
    /// Progress-frame cadence handed to the server (`None` keeps the
    /// server default; `Some(0)` disables streaming).
    pub progress_ms: Option<u64>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            clients: 32,
            tenants: 4,
            jobs_per_client: 8,
            spin_ms: 2,
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            queue_cap: 128,
            quota: TenantQuota {
                max_inflight: 4,
                max_queued: 32,
                max_queued_bytes: 1 << 20,
            },
            deadline_ms: 10_000,
            wal: true,
            chaos_seed: None,
            pipeline_limit: 64,
            progress_ms: None,
        }
    }
}

/// What the soak observed.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Submits sent.
    pub requests: u64,
    /// Requests that finished `ok`.
    pub ok: u64,
    /// Typed sheds received, by reason (sorted by reason name).
    pub shed: Vec<(String, u64)>,
    /// Requests with a failed/timeout/cancelled outcome.
    pub failed: u64,
    /// Requests that never got a terminal answer (transport errors —
    /// must be 0 for a healthy run).
    pub unanswered: u64,
    /// Wall-clock of the whole soak.
    pub elapsed_s: f64,
    /// Completed (non-shed) request latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
    /// Completed requests per second (ok + failed, excluding sheds).
    pub requests_per_sec: f64,
    /// `VmHWM` after the soak, bytes.
    pub peak_rss_bytes: u64,
    /// Client reconnects performed (chaos mode; 0 otherwise).
    pub reconnects: u64,
    /// Faults the chaos proxy injected (fragments + stalls + cuts +
    /// resets; 0 without chaos). A "chaos" soak that injected nothing
    /// proves nothing, so the caller should assert this is > 0.
    pub chaos_faults: u64,
    /// Mid-run `progress` frames the clients observed (result
    /// streaming; 0 when jobs finish inside one progress interval).
    pub progress_frames: u64,
    /// Server-measured end-to-end p50 from the `metrics` wire op,
    /// milliseconds (0.0 when the scrape failed). The server's
    /// histograms are process-global, so in a process running several
    /// soaks they accumulate across runs — informational, not gated.
    pub server_p50_ms: f64,
    /// Server-measured end-to-end p99 (bucket upper edge capped at the
    /// exact max, so it can read up to one power of two above the
    /// client-measured p99).
    pub server_p99_ms: f64,
}

impl LoadReport {
    /// Total sheds across reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().map(|(_, n)| n).sum()
    }
}

/// One client's observations: latencies of terminal non-shed answers,
/// shed reasons, and outcome counts.
#[derive(Default)]
struct ClientTally {
    latencies_ms: Vec<f64>,
    sheds: Vec<String>,
    ok: u64,
    failed: u64,
    unanswered: u64,
    reconnects: u64,
    progress: u64,
}

/// Runs one client: pipelines `jobs` submits, reads until all are
/// answered (or the connection dies).
fn run_client(
    addr: std::net::SocketAddr,
    tenant: String,
    jobs: usize,
    spin_ms: u64,
    deadline_ms: u64,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let Ok(stream) = TcpStream::connect(addr) else {
        tally.unanswered = jobs as u64;
        return tally;
    };
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        tally.unanswered = jobs as u64;
        return tally;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);

    // tag -> submit instant; a request is outstanding until its tag
    // gets a terminal response.
    let mut outstanding: Vec<Option<Instant>> = vec![None; jobs];
    for (i, slot) in outstanding.iter_mut().enumerate() {
        let line = Value::obj([
            ("op", Value::Str("submit".into())),
            ("tenant", Value::Str(tenant.clone())),
            ("job", Value::Str("spin".into())),
            ("params", Value::obj([("ms", Value::UInt(spin_ms))])),
            ("deadline_ms", Value::UInt(deadline_ms)),
            ("tag", Value::Str(i.to_string())),
        ])
        .to_json();
        *slot = Some(Instant::now());
        if writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .is_err()
        {
            break;
        }
    }
    let _ = writer.flush();

    let mut pending = outstanding.iter().filter(|s| s.is_some()).count();
    tally.unanswered = (jobs - pending) as u64; // submits that failed to send
    let mut line = String::new();
    while pending > 0 {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let Ok(resp) = Response::parse(line.trim()) else {
            continue;
        };
        let (tag, terminal) = match &resp {
            Response::Accepted { tag, .. } => (tag.clone(), false),
            Response::Shed { tag, reason, .. } => {
                tally.sheds.push(reason.clone());
                (tag.clone(), true)
            }
            Response::Done { tag, outcome, .. } => {
                if outcome.is_ok() {
                    tally.ok += 1;
                } else {
                    tally.failed += 1;
                }
                (tag.clone(), true)
            }
            Response::Error { tag, .. } => {
                tally.failed += 1;
                (tag.clone(), true)
            }
            Response::Progress { .. } => {
                tally.progress += 1;
                (None, false)
            }
            _ => (None, false),
        };
        if !terminal {
            continue;
        }
        let Some(slot) = tag
            .and_then(|t| t.parse::<usize>().ok())
            .and_then(|i| outstanding.get_mut(i))
        else {
            continue;
        };
        if let Some(t0) = slot.take() {
            pending -= 1;
            // Sheds answer instantly; keeping them out of the latency
            // distribution stops overload from *improving* p99.
            if !matches!(resp, Response::Shed { .. }) {
                tally.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    tally.unanswered += pending as u64;
    tally
}

/// Runs one client against a *hostile* link (the chaos proxy):
/// pipelines submits carrying idempotency keys, and on any transport
/// fault reconnects with exponential backoff + jitter and resubmits
/// every unsettled job under its original key. The server dedups, so
/// a job whose `accepted` (or `done`) was eaten by the proxy is
/// answered from the original run — never run twice.
fn run_client_chaos(
    addr: std::net::SocketAddr,
    tenant: String,
    jobs: usize,
    spin_ms: u64,
    deadline_ms: u64,
    nonce: u64,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut settled: Vec<Option<bool>> = vec![None; jobs]; // Some(ok?)
    let mut started: Vec<Option<Instant>> = vec![None; jobs];
    let mut backoff_ms: u64 = 25;
    let max_attempts = 60;
    for attempt in 0..max_attempts {
        if settled.iter().all(Option::is_some) {
            break;
        }
        if attempt > 0 {
            tally.reconnects += 1;
            // Exponential backoff with deterministic per-client jitter.
            let jitter = (nonce ^ attempt) % (backoff_ms / 2 + 1);
            std::thread::sleep(Duration::from_millis(backoff_ms + jitter));
            backoff_ms = (backoff_ms * 2).min(500);
        }
        let Ok(stream) = TcpStream::connect(addr) else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        // A read timeout bounds how long a swallowed response can
        // stall the client; timeout → reconnect and resubmit.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let Ok(mut writer) = stream.try_clone() else {
            continue;
        };
        let mut reader = BufReader::new(stream);
        let mut sent_ok = true;
        for i in 0..jobs {
            if settled[i].is_some() {
                continue;
            }
            if started[i].is_none() {
                started[i] = Some(Instant::now());
            }
            let line = Value::obj([
                ("op", Value::Str("submit".into())),
                ("tenant", Value::Str(tenant.clone())),
                ("job", Value::Str("spin".into())),
                ("params", Value::obj([("ms", Value::UInt(spin_ms))])),
                ("deadline_ms", Value::UInt(deadline_ms)),
                ("tag", Value::Str(i.to_string())),
                ("idem_key", Value::Str(format!("lt-{nonce}-{tenant}-{i}"))),
            ])
            .to_json();
            if writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .is_err()
            {
                sent_ok = false;
                break;
            }
        }
        if sent_ok {
            let _ = writer.flush();
        }
        let mut line = String::new();
        while settled.iter().any(Option::is_none) {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // transport fault: reconnect
                Ok(_) => {}
            }
            let Ok(resp) = Response::parse(line.trim()) else {
                continue; // a torn frame the proxy glued; ignore
            };
            // Terminal verdict for the tagged slot; `None` means keep
            // waiting (accepted) or resubmit later (retryable error).
            enum Verdict {
                Ok,
                Failed,
                Shed(String),
            }
            let (tag, verdict) = match resp {
                Response::Done { tag, outcome, .. } => {
                    let v = if outcome.is_ok() {
                        Verdict::Ok
                    } else {
                        Verdict::Failed
                    };
                    (tag, Some(v))
                }
                Response::Shed { tag, reason, .. } => (tag, Some(Verdict::Shed(reason))),
                Response::Error { tag, retryable, .. } => {
                    // Retryable (e.g. wal_failed): leave unsettled,
                    // the next reconnect resends under the same key.
                    (tag, (!retryable).then_some(Verdict::Failed))
                }
                Response::Progress { .. } => {
                    tally.progress += 1;
                    (None, None)
                }
                _ => (None, None),
            };
            let Some(verdict) = verdict else { continue };
            let Some(i) = tag.and_then(|t| t.parse::<usize>().ok()) else {
                continue;
            };
            if i < jobs && settled[i].is_none() {
                let shed = matches!(verdict, Verdict::Shed(_));
                settled[i] = Some(matches!(verdict, Verdict::Ok));
                match verdict {
                    Verdict::Ok => tally.ok += 1,
                    Verdict::Failed => tally.failed += 1,
                    Verdict::Shed(reason) => tally.sheds.push(reason),
                }
                if !shed {
                    if let Some(t0) = started[i] {
                        tally.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                }
            }
        }
    }
    tally.unanswered = settled.iter().filter(|s| s.is_none()).count() as u64;
    tally
}

/// Queries the server's own `metrics` wire op — always directly
/// against the server socket, never through a chaos proxy — and
/// returns the server-measured end-to-end `(p50_ms, p99_ms)`.
/// `(0.0, 0.0)` when anything fails: the scrape is informational and
/// must never fail a soak.
fn scrape_server_percentiles(addr: std::net::SocketAddr) -> (f64, f64) {
    let scrape = || -> Option<(f64, f64)> {
        let stream = TcpStream::connect(addr).ok()?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut writer = stream.try_clone().ok()?;
        writer.write_all(b"{\"op\":\"metrics\"}\n").ok()?;
        writer.flush().ok()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let v = Value::parse(line.trim()).ok()?;
        let h = v
            .get("metrics")?
            .get("histograms")?
            .get("service_request_us")?;
        Some((h.get("p50_ms")?.as_f64()?, h.get("p99_ms")?.as_f64()?))
    };
    scrape().unwrap_or((0.0, 0.0))
}

/// Runs the full soak: server up, clients hammer it, graceful drain,
/// aggregate. `progress` receives one line per phase.
pub fn run_load(opts: &LoadOptions, progress: &mut dyn FnMut(&str)) -> Result<LoadReport, String> {
    let listener =
        TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
    // Per-run nonce: scopes idempotency keys so two soaks against one
    // state dir cannot collide, and seeds client backoff jitter.
    let nonce = std::process::id() as u64
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
    let state_dir = opts
        .wal
        .then(|| std::env::temp_dir().join(format!("vsnoop-load-{nonce:016x}")));
    let cfg = ServiceConfig {
        workers: opts.workers,
        queue_cap: opts.queue_cap,
        quota: opts.quota,
        default_deadline: Duration::from_millis(opts.deadline_ms),
        drain_grace: Duration::from_secs(5),
        cancel_grace: Duration::from_secs(2),
        journal_path: None,
        wal_path: state_dir.as_ref().map(|d| d.join("wal.jsonl")),
        pipeline_limit: opts.pipeline_limit,
        progress_interval: opts.progress_ms.map_or(
            ServiceConfig::default().progress_interval,
            Duration::from_millis,
        ),
        ..ServiceConfig::default()
    };
    let server = serve(listener, registry_factory(), cfg).map_err(|e| format!("serve: {e}"))?;
    let addr = server.local_addr();
    let proxy = match opts.chaos_seed {
        Some(seed) => Some(
            ChaosProxy::start(
                "127.0.0.1:0",
                ChaosConfig {
                    upstream: addr.to_string(),
                    seed,
                    ..ChaosConfig::default()
                },
            )
            .map_err(|e| format!("chaos proxy: {e}"))?,
        ),
        None => None,
    };
    let dial = proxy.as_ref().map_or(addr, ChaosProxy::addr);
    progress(&format!(
        "serving on {addr}{}: {} clients x {} submits over {} tenants{}",
        match opts.chaos_seed {
            Some(seed) => format!(" via chaos proxy {dial} (seed {seed})"),
            None => String::new(),
        },
        opts.clients,
        opts.jobs_per_client,
        opts.tenants,
        if opts.wal { ", WAL on" } else { "" },
    ));

    let t0 = Instant::now();
    let chaos = opts.chaos_seed.is_some();
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|i| {
                let tenant = format!("tenant{}", i % opts.tenants.max(1));
                let (jobs, spin_ms, deadline_ms) =
                    (opts.jobs_per_client, opts.spin_ms, opts.deadline_ms);
                s.spawn(move || {
                    if chaos {
                        run_client_chaos(
                            dial,
                            tenant,
                            jobs,
                            spin_ms,
                            deadline_ms,
                            nonce ^ (i as u64) << 32,
                        )
                    } else {
                        run_client(dial, tenant, jobs, spin_ms, deadline_ms)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientTally {
                    unanswered: opts.jobs_per_client as u64,
                    ..Default::default()
                })
            })
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    // Scrape the server's own latency histograms before the drain
    // tears the reactor down.
    let (server_p50_ms, server_p99_ms) = scrape_server_percentiles(addr);
    progress("clients done; draining server");
    server.shutdown();
    let _ = server.wait();
    let chaos_faults = match proxy {
        Some(p) => {
            let r = p.stop();
            progress(&format!(
                "chaos: {} connections, {} fragments, {} stalls, {} cuts, {} resets",
                r.connections, r.fragments, r.stalls, r.cuts, r.resets
            ));
            r.fragments + r.stalls + r.cuts + r.resets
        }
        None => 0,
    };
    if let Some(dir) = &state_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut latencies: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.latencies_ms.iter().copied())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mut shed_counts = std::collections::BTreeMap::<String, u64>::new();
    for t in &tallies {
        for reason in &t.sheds {
            *shed_counts.entry(reason.clone()).or_insert(0) += 1;
        }
    }
    let ok: u64 = tallies.iter().map(|t| t.ok).sum();
    let failed: u64 = tallies.iter().map(|t| t.failed).sum();
    let completed = latencies.len() as u64;
    Ok(LoadReport {
        requests: (opts.clients * opts.jobs_per_client) as u64,
        ok,
        shed: shed_counts.into_iter().collect(),
        failed,
        unanswered: tallies.iter().map(|t| t.unanswered).sum(),
        elapsed_s,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        max_ms: latencies.last().copied().unwrap_or(0.0),
        requests_per_sec: if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        },
        peak_rss_bytes: peak_rss_bytes(),
        reconnects: tallies.iter().map(|t| t.reconnects).sum(),
        chaos_faults,
        progress_frames: tallies.iter().map(|t| t.progress).sum(),
        server_p50_ms,
        server_p99_ms,
    })
}

/// Peak resident set size (`VmHWM`) in bytes, 0 where unavailable
/// ([`vsnoop::obs::peak_rss_bytes`]).
pub fn peak_rss_bytes() -> u64 {
    vsnoop::obs::peak_rss_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn small_soak_completes_without_sheds_or_losses() {
        let opts = LoadOptions {
            clients: 4,
            tenants: 2,
            jobs_per_client: 3,
            spin_ms: 1,
            workers: 4,
            queue_cap: 64,
            quota: TenantQuota::default(),
            deadline_ms: 5_000,
            ..LoadOptions::default()
        };
        let report = run_load(&opts, &mut |_| {}).expect("soak runs");
        assert_eq!(report.requests, 12);
        assert_eq!(report.ok, 12, "all jobs complete: {report:?}");
        assert_eq!(report.unanswered, 0);
        assert!(report.p99_ms > 0.0);
        // The server's own histograms answered the `metrics` op (the
        // exact values accumulate process-globally across soaks, so
        // only their shape is asserted here).
        assert!(
            report.server_p50_ms > 0.0 && report.server_p99_ms >= report.server_p50_ms,
            "server-side percentiles present and ordered: {report:?}"
        );
    }

    #[test]
    fn chaos_soak_loses_nothing_and_duplicates_nothing() {
        // Every submit rides a hostile link (torn frames, stalls,
        // cuts, resets) yet must settle exactly once: ok for every
        // request, zero unanswered, and the proxy must actually have
        // injected faults for the run to count as a chaos soak.
        let opts = LoadOptions {
            clients: 6,
            tenants: 2,
            jobs_per_client: 4,
            spin_ms: 1,
            workers: 4,
            queue_cap: 64,
            quota: TenantQuota::default(),
            deadline_ms: 10_000,
            wal: true,
            chaos_seed: Some(42),
            ..LoadOptions::default()
        };
        let report = run_load(&opts, &mut |_| {}).expect("chaos soak runs");
        assert_eq!(report.unanswered, 0, "no request may be lost: {report:?}");
        assert_eq!(report.requests, 24);
        assert_eq!(
            report.ok + report.failed + report.shed_total(),
            report.requests,
            "each request settles exactly once: {report:?}"
        );
        assert!(report.chaos_faults > 0, "proxy must inject faults");
    }

    #[test]
    fn overload_sheds_typed_without_hangs() {
        // 1-deep queues and 6x oversubmission: most requests must shed,
        // every request must still get a terminal answer.
        let opts = LoadOptions {
            clients: 6,
            tenants: 2,
            jobs_per_client: 6,
            spin_ms: 5,
            workers: 2,
            queue_cap: 4,
            quota: TenantQuota {
                max_inflight: 1,
                max_queued: 1,
                max_queued_bytes: 1 << 20,
            },
            deadline_ms: 5_000,
            ..LoadOptions::default()
        };
        let report = run_load(&opts, &mut |_| {}).expect("soak runs");
        assert_eq!(report.unanswered, 0, "no request may go unanswered");
        assert!(report.shed_total() > 0, "overload must shed: {report:?}");
        for (reason, _) in &report.shed {
            assert!(
                [
                    "queue_full",
                    "tenant_queue_full",
                    "tenant_bytes",
                    "pipeline_full",
                    "draining"
                ]
                .contains(&reason.as_str()),
                "unexpected shed reason {reason}"
            );
        }
        assert_eq!(
            report.ok + report.failed + report.shed_total(),
            report.requests
        );
    }

    #[test]
    fn pipelining_past_the_connection_cap_sheds_pipeline_full() {
        // Each client pipelines 6 submits against a 2-deep connection
        // cap: the excess must shed as retryable `pipeline_full`, and
        // every request must still settle exactly once.
        let opts = LoadOptions {
            clients: 3,
            tenants: 1,
            jobs_per_client: 6,
            spin_ms: 20,
            workers: 1,
            queue_cap: 64,
            quota: TenantQuota::default(),
            deadline_ms: 10_000,
            pipeline_limit: 2,
            ..LoadOptions::default()
        };
        let report = run_load(&opts, &mut |_| {}).expect("soak runs");
        assert_eq!(report.unanswered, 0, "no request may go unanswered");
        assert!(
            report
                .shed
                .iter()
                .any(|(reason, n)| reason == "pipeline_full" && *n > 0),
            "over-pipelined submits must shed pipeline_full: {report:?}"
        );
        assert_eq!(
            report.ok + report.failed + report.shed_total(),
            report.requests
        );
    }

    #[test]
    fn long_jobs_stream_progress_frames() {
        let opts = LoadOptions {
            clients: 2,
            tenants: 1,
            jobs_per_client: 1,
            spin_ms: 200,
            workers: 2,
            queue_cap: 8,
            quota: TenantQuota::default(),
            deadline_ms: 10_000,
            wal: false,
            progress_ms: Some(25),
            ..LoadOptions::default()
        };
        let report = run_load(&opts, &mut |_| {}).expect("soak runs");
        assert_eq!(report.ok, 2, "both long jobs complete: {report:?}");
        assert!(
            report.progress_frames > 0,
            "a 200ms job on a 25ms cadence must stream progress: {report:?}"
        );
    }
}
