//! The service workload: the real `serve` over loopback TCP with its
//! WAL and fsync on, driven by this process.
//!
//! `serve_open` is an **open loop**: 200 requests a second in total,
//! each due at a time fixed by the seed before the run starts, sent
//! whether or not earlier ones were answered, and timed from its *due*
//! time so a stall is charged to every request it delays. Its traced
//! run adds a **closed loop** for the saturation figures: each
//! connection keeps 32 requests in flight and sends the next only when
//! one completes, timed from the send. Jobs are `spin` with `ms = 0`:
//! the run stage is empty, so the time belongs to connection layer,
//! admission, WAL and dispatch.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vsnoop::runner::json::Value;
use vsnoop::service::{serve, Response, Server, ServiceConfig, TenantQuota, Wal};
use vsnoop_bench::service_jobs::registry_factory;

use crate::host::Host;
use crate::span::Tracer;
use crate::stats::{median, percentile, quartiles, sorted, supported_percentile};
use crate::{probes, Ctx, Report};

/// Offered rate of the open loop, requests per second over all
/// connections: well below the knee on two CPUs (400 req/s is not).
pub const OPEN_RATE: f64 = 200.0;
/// Requests each closed-loop connection keeps in flight: inside one
/// tenant's quota (4 running + 28 queued of 32).
const IN_FLIGHT: usize = 32;
/// Sequential requests that end each set-up, so lazy state is built
/// before the first timed request.
const WARMUP_REQUESTS: usize = 10;
/// A request slower than this, refused or failed, misses the limit.
const SLO_MS: f64 = 40.0;
/// A connection that hears nothing for this long gives up; what is
/// still outstanding counts as unanswered.
const HANG: Duration = Duration::from_secs(10);

/// The clock the open loop paces itself by; tests substitute a fake.
pub trait Clock {
    /// Time since the request phase began.
    fn now(&self) -> Duration;
    fn sleep_until(&self, t: Duration);
}

struct WallClock(Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    fn sleep_until(&self, t: Duration) {
        std::thread::sleep(t.saturating_sub(self.now()));
    }
}

/// When each request of an open loop is due, per connection: request
/// `i` falls uniformly (by the seed) inside the `i`-th slot of
/// `1/rate` seconds and goes to connection `i mod conns`.
pub fn schedule(seed: u64, conns: usize, rate: f64, seconds: f64) -> Vec<Vec<Duration>> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0b5e_55ed);
    let total = (rate * seconds).round().max(1.0) as usize;
    let mut due = vec![Vec::new(); conns];
    for i in 0..total {
        let at = (i as f64 + rng.gen_range(0.0..1.0)) / rate;
        due[i % conns].push(Duration::from_secs_f64(at));
    }
    due
}

/// Sends request `i` when it is due, never earlier, and however late
/// the previous send returned; returns when each was actually sent.
pub fn pace(clock: &impl Clock, due: &[Duration], mut send: impl FnMut(usize)) -> Vec<Duration> {
    due.iter()
        .enumerate()
        .map(|(i, &d)| {
            clock.sleep_until(d);
            send(i);
            clock.now()
        })
        .collect()
}

/// The life of one request, as offsets from the start of the phase.
#[derive(Clone, Copy, Default, Debug)]
pub struct Stamps {
    pub due: Duration,
    pub sent: Duration,
    pub accepted: Option<Duration>,
    /// Arrival of the terminal frame (`done`, `shed` or `error`).
    pub done: Option<Duration>,
    /// The terminal frame was a `done` carrying the expected text.
    pub ok: bool,
    /// Terminal frames seen; anything but 1 is a protocol failure.
    pub terminals: u32,
}

impl Stamps {
    /// Due time to terminal frame: what the user waited.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_sub(self.due))
    }
    /// How late the generator sent it.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
    fn good(&self) -> bool {
        self.ok && self.terminals == 1
    }
}

fn submit_line(tenant: &str, tag: usize) -> String {
    format!(
        "{{\"op\":\"submit\",\"tenant\":\"{tenant}\",\"job\":\"spin\",\"params\":{{\"ms\":0}},\"deadline_ms\":60000,\"tag\":\"{tag}\"}}\n"
    )
}

/// Applies one response frame to the stamps. Returns whether it was a
/// terminal frame. `accepted` and `done` may arrive in either order.
fn on_frame(line: &str, now: Duration, expect: &str, stamps: &mut [Stamps]) -> bool {
    let Ok(resp) = Response::parse(line.trim()) else {
        return false;
    };
    let slot = |tag: &Option<String>| tag.as_ref().and_then(|t| t.parse::<usize>().ok());
    match &resp {
        Response::Accepted { tag, .. } => {
            if let Some(s) = slot(tag).and_then(|i| stamps.get_mut(i)) {
                s.accepted.get_or_insert(now);
            }
            false
        }
        Response::Done { tag, outcome, .. } => {
            if let Some(s) = slot(tag).and_then(|i| stamps.get_mut(i)) {
                s.terminals += 1;
                s.done.get_or_insert(now);
                s.ok = matches!(outcome, Ok(text) if text == expect);
            }
            true
        }
        Response::Shed { tag, .. } | Response::Error { tag, .. } => {
            if let Some(s) = slot(tag).and_then(|i| stamps.get_mut(i)) {
                s.terminals += 1;
                s.done.get_or_insert(now);
                s.ok = false;
            }
            true
        }
        _ => false,
    }
}

/// Reads frames until `finished` holds for the stamps or the link hangs.
fn read_frames(
    reader: &mut BufReader<TcpStream>,
    clock: &impl Clock,
    expect: &str,
    stamps: &mut [Stamps],
    finished: impl Fn(&[Stamps]) -> bool,
) {
    let mut line = String::new();
    while !finished(stamps) {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        on_frame(&line, clock.now(), expect, stamps);
    }
}

/// One open-loop connection: a pacing writer and a reader, so that a
/// due time is met by a precise sleep and a frame is stamped when it
/// arrives. Both block while idle; the reader owns the stamps.
fn open_connection(
    stream: TcpStream,
    tenant: &str,
    due: &[Duration],
    t0: Instant,
    expect: &str,
) -> Vec<Stamps> {
    let clock = WallClock(t0);
    let mut reader = BufReader::new(stream.try_clone().expect("clone a loopback socket"));
    let mut writer = stream;
    let mut stamps: Vec<Stamps> = due
        .iter()
        .map(|&d| Stamps {
            due: d,
            ..Default::default()
        })
        .collect();
    let sent = std::thread::scope(|s| {
        let reading = s.spawn(|| {
            read_frames(&mut reader, &clock, expect, &mut stamps, |all| {
                all.iter().all(|s| s.terminals > 0)
            })
        });
        let sent = pace(&clock, due, |i| {
            // A failed write shows as an unanswered request.
            let _ = writer.write_all(submit_line(tenant, i).as_bytes());
        });
        reading.join().expect("the reader does not panic");
        sent
    });
    for (s, at) in stamps.iter_mut().zip(sent) {
        s.sent = at;
    }
    stamps
}

/// One closed-loop connection: `IN_FLIGHT` outstanding, the next sent
/// when one completes, until `stop_at`; then drains.
fn closed_connection(
    stream: TcpStream,
    tenant: &str,
    stop_at: Duration,
    t0: Instant,
    expect: &str,
) -> Vec<Stamps> {
    let clock = WallClock(t0);
    let mut reader = BufReader::new(stream.try_clone().expect("clone a loopback socket"));
    let mut writer = stream;
    let mut stamps: Vec<Stamps> = Vec::new();
    let mut outstanding = 0usize;
    let mut line = String::new();
    loop {
        while outstanding < IN_FLIGHT && clock.now() < stop_at {
            let now = clock.now();
            if writer
                .write_all(submit_line(tenant, stamps.len()).as_bytes())
                .is_err()
            {
                return stamps;
            }
            stamps.push(Stamps {
                due: now,
                sent: now,
                ..Default::default()
            });
            outstanding += 1;
        }
        if outstanding == 0 {
            return stamps;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return stamps,
            Ok(_) => {}
        }
        if on_frame(&line, clock.now(), expect, &mut stamps) {
            outstanding -= 1;
        }
    }
}

/// A started server with its connected clients.
struct Rig {
    server: Server,
    addr: SocketAddr,
    state_dir: PathBuf,
    streams: Vec<TcpStream>,
    connect_us: Vec<f64>,
}

fn tenant(conn: usize) -> String {
    format!("bench{conn}")
}

/// Set-up: server start, client connect, and a short sequential
/// warm-up on every connection.
fn start(ctx: &Ctx, name: &str, conns: usize) -> Rig {
    // The end-to-end run writes its WAL (two appends a request) but
    // leaves `fdatasync` off: about one run in seven meets this host's
    // shared disk in a state ten times slower than usual for fifteen
    // seconds on end, and two such runs in ten put the tail outside any
    // bound. The traced run syncs, so `server.*` and `wal.*` show what
    // durability adds: 1-2 ms of 11.6 when the disk is well.
    let sync = ctx.trace;
    let state_dir = ctx.out_dir.join(format!("state-{name}"));
    let _ = std::fs::remove_dir_all(&state_dir);
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind a loopback port");
    let cfg = ServiceConfig {
        workers: conns,
        queue_cap: 1024,
        quota: TenantQuota {
            max_inflight: 4,
            max_queued: 256,
            max_queued_bytes: 1 << 20,
        },
        default_deadline: Duration::from_secs(60),
        wal_path: Some(state_dir.join("wal.jsonl")),
        sync,
        // Room for a stalled disk: at 100 req/s a connection, the
        // default cap of 64 sheds after 0.6 s without an fsync.
        pipeline_limit: 1024,
        ..ServiceConfig::default()
    };
    let server = serve(listener, registry_factory(), cfg).expect("the server starts");
    let addr = server.local_addr();
    let mut streams = Vec::new();
    let mut connect_us = Vec::new();
    for c in 0..conns {
        let t0 = Instant::now();
        let stream = TcpStream::connect(addr).expect("connect over loopback");
        connect_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(HANG))
            .expect("set a read timeout");
        // One request at a time: each waits out the scheduler's tick.
        let mut reader = BufReader::new(stream.try_clone().expect("clone a loopback socket"));
        let mut writer = stream.try_clone().expect("clone a loopback socket");
        let clock = WallClock(Instant::now());
        let mut warm = vec![Stamps::default(); WARMUP_REQUESTS / conns.max(1)];
        for i in 0..warm.len() {
            writer
                .write_all(submit_line(&tenant(c), i).as_bytes())
                .expect("send a warm-up request");
            // Both frames, in whichever order: a stray `accepted` must
            // not be left for the timed phase to read.
            read_frames(&mut reader, &clock, "spin:0\n", &mut warm, |w| {
                w[i].terminals > 0 && w[i].accepted.is_some()
            });
        }
        assert!(
            warm.iter().all(Stamps::good),
            "warm-up requests must complete: {warm:?}"
        );
        streams.push(stream);
    }
    Rig {
        server,
        addr,
        state_dir,
        streams,
        connect_us,
    }
}

fn stop(rig: Rig) {
    drop(rig.streams);
    rig.server.shutdown();
    rig.server.wait();
    let _ = std::fs::remove_dir_all(&rig.state_dir);
}

/// The server's own view, through its `metrics` wire operation.
fn scrape(addr: SocketAddr) -> Option<Value> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(HANG)).ok()?;
    (&stream).write_all(b"{\"op\":\"metrics\"}\n").ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    Value::parse(line.trim()).ok()?.get("metrics").cloned()
}

/// One-second windows of a request phase, medians over them: a stall
/// of the host or its disk then costs the windows it touches, not the
/// run. A request belongs to the window it was due in, a completion to
/// the window it arrived in.
struct Windows {
    /// Good completions per window, ascending.
    per_s: Vec<f64>,
    /// Each window's median and p95 latency in ms, ascending.
    p50: Vec<f64>,
    p95: Vec<f64>,
    /// Every good request's latency in ms, ascending.
    all_ms: Vec<f64>,
}

fn windows(all: &[Stamps], seconds: f64) -> Windows {
    let full = (seconds.floor() as usize).max(1);
    let mut done_in = vec![0u64; full];
    let mut lat_in: Vec<Vec<f64>> = vec![Vec::new(); full];
    for s in all.iter().filter(|s| s.good()) {
        let (Some(done), Some(lat)) = (s.done, s.latency()) else {
            continue;
        };
        if let Some(n) = done_in.get_mut(done.as_secs() as usize) {
            *n += 1;
        }
        if let Some(l) = lat_in.get_mut(s.due.as_secs() as usize) {
            l.push(lat.as_secs_f64() * 1e3);
        }
    }
    let lat_in: Vec<Vec<f64>> = lat_in
        .into_iter()
        .filter(|l| !l.is_empty())
        .map(sorted)
        .collect();
    Windows {
        per_s: sorted(done_in.iter().map(|&n| n as f64).collect()),
        p50: sorted(lat_in.iter().map(|l| median(l)).collect()),
        p95: sorted(lat_in.iter().map(|l| percentile(l, 95.0)).collect()),
        all_ms: sorted(lat_in.into_iter().flatten().collect()),
    }
}

/// Drives every connection of `rig` for one phase; returns each
/// request's stamps and the phase's start and wall time.
fn phase(
    rig: &Rig,
    due: Option<&[Vec<Duration>]>,
    seconds: f64,
    expect: &str,
) -> (Vec<Stamps>, Instant, f64) {
    let stop_at = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let per_conn: Vec<Vec<Stamps>> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let stream = stream.try_clone().expect("clone a loopback socket");
                let due = due.map(|d| d[c].as_slice());
                s.spawn(move || match due {
                    Some(due) => open_connection(stream, &tenant(c), due, t0, expect),
                    None => closed_connection(stream, &tenant(c), stop_at, t0, expect),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread does not panic"))
            .collect()
    });
    (
        per_conn.into_iter().flatten().collect(),
        t0,
        t0.elapsed().as_secs_f64(),
    )
}

/// Counts a phase's requests into the report; returns the good ones.
fn account(all: &[Stamps], what: &str, report: &mut Report) -> u64 {
    let attempted = all.len() as u64;
    let good = all.iter().filter(|s| s.good()).count() as u64;
    report.attempted += attempted;
    report.failed += attempted - good;
    if good < attempted {
        let unanswered = all.iter().filter(|s| s.terminals == 0).count();
        let repeated = all.iter().filter(|s| s.terminals > 1).count();
        report.failures.push(format!(
            "{what}: {} of {attempted} requests failed ({unanswered} unanswered, {repeated} answered twice, rest refused or wrong text)",
            attempted - good
        ));
    }
    good
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let name = "serve_open";
    let conns = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .min(2);
    let expect = if ctx.expect_wrong_text {
        "spin:1\n"
    } else {
        "spin:0\n"
    };
    let mut tr = Tracer::new(ctx.trace);
    let root = tr.open("workload:serve_open", 0, 0);

    let mut setups = Vec::new();
    let mut rig = None;
    for i in 0..crate::SETUP_REPEATS {
        if let Some(old) = rig.take() {
            stop(old);
        }
        let t0 = Instant::now();
        rig = Some(start(ctx, name, conns));
        tr.record("setup", root, i as u64, t0, Instant::now());
        setups.push(t0.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up");

    // The traced run keeps part of its time for the saturation phase.
    let seconds = if ctx.trace {
        (ctx.seconds * 0.55).max(1.0)
    } else {
        ctx.seconds
    };
    if ctx.trace {
        crate::program_switches(Some(ctx.out_dir.join("obs-serve_open")));
    }
    let due = schedule(ctx.seed, conns, OPEN_RATE, seconds);
    let (all, t0, wall) = phase(&rig, Some(&due), seconds, expect);
    let server_view = scrape(rig.addr);
    if ctx.trace {
        crate::program_switches(None);
    }

    let good = account(&all, "open loop", report);
    let achieved = good as f64 / wall;
    if (achieved / OPEN_RATE - 1.0).abs() > 0.01 && !ctx.quick {
        report.failures.push(format!(
            "open loop achieved {achieved:.1} req/s of {OPEN_RATE} offered: a growing backlog"
        ));
    }
    let w = windows(&all, seconds);

    if !ctx.trace {
        let (q1, med, q3) = quartiles(&w.p50);
        let (p1, pmed, p3) = quartiles(&w.p95);
        report.e2e_detail(
            "setup_s",
            median(&sorted(setups.clone())),
            setups.len(),
            None,
        );
        // The rate is offered, not achieved by effort: the figure for
        // the whole phase is the one to hold against it.
        report.e2e_detail("throughput", achieved, good as usize, None);
        report.e2e_detail("latency_p50_ms", med, w.p50.len(), Some((q1, q3)));
        report.e2e_detail("latency_p95_ms", pmed, w.p95.len(), Some((p1, p3)));
        report.note(format!(
            "over the whole phase: p50 {:.3} ms, p95 {:.3} ms, {} requests; per window {:.0} req/s",
            median(&w.all_ms),
            percentile(&w.all_ms, 95.0),
            w.all_ms.len(),
            median(&w.per_s),
        ));
        stop(rig);
        report.e2e("peak_rss_mib", crate::peak_rss_mib());
        return;
    }

    // ---- traced run: per-layer metrics ----
    report.layer("obs.traced_throughput", achieved);
    let ms = |it: &mut dyn Iterator<Item = Duration>| {
        sorted(it.map(|d| d.as_secs_f64() * 1e3).collect())
    };
    let accept = ms(&mut all
        .iter()
        .filter_map(|s| s.accepted.map(|a| a.saturating_sub(s.sent))));
    let accept_to_done = ms(&mut all
        .iter()
        .filter_map(|s| Some(s.done?.saturating_sub(s.accepted?))));
    let late = ms(&mut all.iter().map(Stamps::late));
    report.layer("server.accept_p50_ms", median(&accept));
    report.layer("server.accept_to_done_p50_ms", median(&accept_to_done));
    let p99 = supported_percentile(99.0, w.all_ms.len());
    report.note(format!(
        "server.latency_p99_ms is the p{p99} of {} requests",
        w.all_ms.len()
    ));
    report.layer("server.latency_p99_ms", percentile(&w.all_ms, p99));
    let within = w.all_ms.iter().filter(|&&l| l <= SLO_MS).count() as f64;
    report.layer(
        "server.slo_miss_share",
        1.0 - within / all.len().max(1) as f64,
    );
    report.layer("server.late_p95_ms", percentile(&late, 95.0));
    report.layer("server.late_max_ms", late.last().copied().unwrap_or(0.0));
    report.layer(
        "server.done_before_accepted",
        all.iter()
            .filter(|s| matches!((s.accepted, s.done), (Some(a), Some(d)) if d < a))
            .count() as f64,
    );
    report.layer("server.connect_us", median(&sorted(rig.connect_us.clone())));

    if let Some(hists) = server_view.as_ref().and_then(|m| m.get("histograms")) {
        let field = |hist: &str, key: &str| {
            hists
                .get(hist)
                .and_then(|h| h.get(key))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let mut stage_mean_sum = 0.0;
        for stage in [
            "admission_wait",
            "wal_fsync",
            "queue_wait",
            "run",
            "request",
        ] {
            let hist = format!("service_{stage}_us");
            report.layer(
                &format!("server.stage_{stage}_us_p50"),
                field(&hist, "p50_ms") * 1e3,
            );
            report.layer(
                &format!("server.stage_{stage}_us_p99"),
                field(&hist, "p99_ms") * 1e3,
            );
            if stage != "request" {
                stage_mean_sum += field(&hist, "mean_ms");
            }
        }
        let total = field("service_request_us", "mean_ms");
        report.layer(
            "server.stage_sum_over_total",
            if total > 0.0 {
                stage_mean_sum / total
            } else {
                0.0
            },
        );
    } else {
        report
            .failures
            .push("the metrics wire operation did not answer".into());
    }

    // Saturation, reported and not gated: a closed loop on the same
    // server, each connection keeping IN_FLIGHT requests outstanding.
    // On two CPUs its throughput follows the host's mood (1200-1600
    // req/s in a quiet quarter of an hour, 250-800 in a bad one), which
    // no reference kernel tracks, so it cannot carry a bound.
    let sat_seconds = (ctx.seconds * 0.3).max(1.0);
    let sat_span = tr.open("saturation", root, 0);
    let (sat, _, _) = phase(&rig, None, sat_seconds, expect);
    tr.close(sat_span);
    account(&sat, "closed loop", report);
    let sw = windows(&sat, sat_seconds);
    report.layer("server.sat_req_per_s", median(&sw.per_s));
    report.layer("server.sat_latency_p50_ms", median(&sw.p50));
    report.layer("server.sat_latency_p95_ms", median(&sw.p95));

    let wal_path = rig.state_dir.join("wal.jsonl");
    let wal_records = Wal::load(&wal_path).map_or(0, |r| r.len());
    let warmups = (WARMUP_REQUESTS / conns) * conns;
    report.layer(
        "wal.appends_per_request",
        wal_records as f64 / (all.len() + sat.len() + warmups) as f64,
    );
    stop(rig);

    // One trace per open-loop request: due, sent, accepted, done.
    let at = |d: Duration| t0 + d;
    for (n, s) in all.iter().enumerate() {
        let Some(done) = s.done else { continue };
        let id = n as u64 + 1;
        let req = tr.record("request", root, id, at(s.due), at(done));
        tr.record("generator_late", req, id, at(s.due), at(s.sent));
        match s.accepted {
            Some(a) if a <= done => {
                tr.record("until_accepted", req, id, at(s.sent), at(a));
                tr.record("accepted_to_done", req, id, at(a), at(done));
            }
            _ => {
                tr.record("until_done", req, id, at(s.sent), at(done));
            }
        }
    }
    let scratch = ctx.out_dir.join("probe-serve_open");
    std::fs::create_dir_all(&scratch)
        .unwrap_or_else(|e| panic!("creating {}: {e}", scratch.display()));
    tr.time("probes", root, 0, || {
        probes::service_layers(&scratch, &mut Host::new(), report)
    });
    let _ = std::fs::remove_dir_all(&scratch);
    tr.close(root);
    crate::finish_trace(ctx, name, &tr, report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the
    /// wake-up time, and a send may stall it.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    const fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn a_stalled_send_makes_later_requests_late_and_is_charged_to_them() {
        let clock = FakeClock(Cell::new(ms(0)));
        let due = [ms(0), ms(10), ms(20), ms(30), ms(40)];
        // The first send blocks for 25 ms; the rest take 1 ms each.
        let sent = pace(&clock, &due, |i| {
            clock
                .0
                .set(clock.0.get() + if i == 0 { ms(25) } else { ms(1) });
        });
        assert_eq!(sent, [ms(25), ms(26), ms(27), ms(31), ms(41)]);

        // Every request is answered 5 ms after it was sent.
        let stamps: Vec<Stamps> = due
            .iter()
            .zip(&sent)
            .map(|(&due, &sent)| Stamps {
                due,
                sent,
                done: Some(sent + ms(5)),
                ok: true,
                terminals: 1,
                ..Default::default()
            })
            .collect();
        let late: Vec<_> = stamps.iter().map(Stamps::late).collect();
        assert_eq!(late, [ms(25), ms(16), ms(7), ms(1), ms(1)]);
        // Timed from the due time, the stall shows in the requests it
        // delayed; timed from the send it would read 5 ms throughout.
        let latency: Vec<_> = stamps.iter().map(|s| s.latency().unwrap()).collect();
        assert_eq!(latency, [ms(30), ms(21), ms(12), ms(6), ms(6)]);
    }

    #[test]
    fn pace_never_sends_early() {
        let clock = FakeClock(Cell::new(ms(0)));
        let sent = pace(&clock, &[ms(5), ms(5), ms(9)], |_| {});
        assert_eq!(sent, [ms(5), ms(5), ms(9)]);
    }

    #[test]
    fn schedule_is_seeded_ordered_and_at_the_offered_rate() {
        let a = schedule(7, 2, 200.0, 10.0);
        assert_eq!(a, schedule(7, 2, 200.0, 10.0));
        assert_ne!(a, schedule(8, 2, 200.0, 10.0));
        assert_eq!(a[0].len() + a[1].len(), 2000);
        for conn in &a {
            assert!(conn.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
            assert!(*conn.last().unwrap() < Duration::from_secs(10));
        }
        // Request i is due inside slot i.
        assert!(a[1][0] >= Duration::from_millis(5) && a[1][0] < Duration::from_millis(10));
    }

    #[test]
    fn frames_stamp_in_either_order_and_check_the_text() {
        let mut stamps = vec![Stamps::default(); 2];
        let done = |tag: &str, text: &str| {
            vsnoop::service::protocol::done(
                9,
                "spin",
                &Ok(text.to_string()),
                &Some(tag.to_string()),
            )
        };
        let accepted = vsnoop::service::protocol::accepted(9, &Some("0".to_string()));
        // done before accepted, as a zero-work job can answer.
        assert!(on_frame(
            &done("0", "spin:0\n"),
            ms(3),
            "spin:0\n",
            &mut stamps
        ));
        assert!(!on_frame(&accepted, ms(4), "spin:0\n", &mut stamps));
        assert!(stamps[0].good());
        assert_eq!(
            (stamps[0].accepted, stamps[0].done),
            (Some(ms(4)), Some(ms(3)))
        );
        // Wrong text, and a second terminal frame, both fail.
        assert!(on_frame(
            &done("1", "spin:2\n"),
            ms(5),
            "spin:0\n",
            &mut stamps
        ));
        assert!(!stamps[1].good());
        assert!(on_frame(
            &done("0", "spin:0\n"),
            ms(6),
            "spin:0\n",
            &mut stamps
        ));
        assert!(!stamps[0].good(), "answered twice");
    }
}
