//! End-to-end tests for the multi-tenant simulation service: real TCP
//! connections against [`vsnoop::service::serve`] with synthetic job
//! factories.
//!
//! The robustness contract under test: every request gets a typed
//! answer (overload sheds, deadlines time out, drains cancel), the
//! drain finishes in bounded time no matter what jobs do, `scatter`
//! shards inside a running job observe the drain's cancellation, and
//! everything terminal lands in the journal.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vsnoop::runner::{json::Value, poll_current, scatter, Job, JobError, Journal};
use vsnoop::service::{
    serve, JobFactory, Response, Server, ServiceConfig, Submit, TenantQuota, Wal, WalRecord,
};

/// A scratch directory unique to one test, cleaned before use.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vsnoop-service-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Starts a server on an ephemeral port.
fn start(factory: JobFactory, cfg: ServiceConfig) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    serve(listener, factory, cfg).expect("serve")
}

/// One client connection with line-oriented send/receive and a
/// generous read deadline so a server bug fails the test instead of
/// hanging it.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(server: &Server) -> Conn {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        Conn {
            reader: BufReader::new(stream),
            writer,
        }
    }

    /// Sends `line` and its newline in one write: split across two
    /// segments, the newline would wait for the server's delayed ACK.
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => panic!("server closed the connection"),
                Ok(_) if line.trim().is_empty() => continue,
                Ok(_) => return Response::parse(line.trim()).expect("parse response"),
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    /// Receives until a terminal (`done`/`shed`/`error`) response,
    /// skipping `accepted` acks.
    fn recv_terminal(&mut self) -> Response {
        loop {
            match self.recv() {
                Response::Accepted { .. } => continue,
                other => return other,
            }
        }
    }

    fn submit(&mut self, tenant: &str, job: &str, deadline_ms: Option<u64>, tag: &str) {
        let mut pairs = vec![
            ("op", Value::Str("submit".into())),
            ("tenant", Value::Str(tenant.into())),
            ("job", Value::Str(job.into())),
            ("tag", Value::Str(tag.into())),
        ];
        if let Some(d) = deadline_ms {
            pairs.push(("deadline_ms", Value::UInt(d)));
        }
        let line = Value::obj(pairs).to_json();
        self.send(&line);
    }

    /// Like [`Conn::submit`], with an idempotency key attached.
    fn submit_keyed(&mut self, tenant: &str, job: &str, key: &str, tag: &str) {
        let line = Value::obj(vec![
            ("op", Value::Str("submit".into())),
            ("tenant", Value::Str(tenant.into())),
            ("job", Value::Str(job.into())),
            ("tag", Value::Str(tag.into())),
            ("idem_key", Value::Str(key.into())),
        ])
        .to_json();
        self.send(&line);
    }
}

/// A factory of synthetic jobs:
///
/// - `"quick"`: returns immediately;
/// - `"poll"`: polls its token forever (ends only by cancellation);
/// - `"scatter"`: fans 8 forever-polling shards out through
///   [`scatter`], flipping `started` once the shards are running;
/// - `"hang"`: sleeps 1.5 s without polling its token, so a shorter
///   deadline plus grace abandons its worker;
/// - anything else: a factory error.
fn test_factory(started: Arc<AtomicBool>) -> JobFactory {
    Arc::new(move |submit: &Submit| {
        let started = Arc::clone(&started);
        match submit.job.as_str() {
            "quick" => Ok(Job::new("quick", 1, Value::obj(vec![]), |_ctx| {
                Ok("quick output\n".to_string())
            })),
            "poll" => Ok(Job::new("poll", 2, Value::obj(vec![]), move |_ctx| {
                started.store(true, Ordering::SeqCst);
                loop {
                    poll_current();
                    std::thread::sleep(Duration::from_millis(2));
                }
            })),
            "scatter" => Ok(Job::new("scatter", 3, Value::obj(vec![]), move |_ctx| {
                let started = Arc::clone(&started);
                // Each shard polls forever; the `loop` (type `!`) is the
                // shard's "result", so only cancellation ends the job.
                let outputs: Vec<u64> = scatter((0..8u64).collect::<Vec<_>>(), move |i| {
                    started.store(true, Ordering::SeqCst);
                    let _ = i;
                    loop {
                        poll_current();
                        std::thread::sleep(Duration::from_millis(2));
                    }
                });
                Ok(format!("{outputs:?}\n"))
            })),
            "hang" => Ok(Job::new("hang", 4, Value::obj(vec![]), |_ctx| {
                std::thread::sleep(Duration::from_millis(1_500));
                Ok("woke up\n".to_string())
            })),
            other => Err(format!("unknown test job {other:?}")),
        }
    })
}

fn wait_for(flag: &AtomicBool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn submit_over_tcp_returns_accepted_then_done() {
    let server = start(test_factory(Arc::default()), ServiceConfig::default());
    let mut conn = Conn::open(&server);

    conn.submit("acme", "quick", None, "t0");
    match conn.recv() {
        Response::Accepted { tag, .. } => assert_eq!(tag.as_deref(), Some("t0")),
        other => panic!("expected accepted, got {other:?}"),
    }
    match conn.recv() {
        Response::Done { outcome, tag, .. } => {
            assert_eq!(outcome.expect("job must succeed"), "quick output\n");
            assert_eq!(tag.as_deref(), Some("t0"));
        }
        other => panic!("expected done, got {other:?}"),
    }

    server.shutdown();
    let report = server.wait();
    assert_eq!(report.done, 1);
    assert_eq!(report.shed, 0);
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let server = start(test_factory(Arc::default()), ServiceConfig::default());
    let mut conn = Conn::open(&server);

    for bad in [
        "not json at all",
        "{}",
        r#"{"op":"warp"}"#,
        r#"{"op":"submit","tenant":"","job":"quick"}"#,
    ] {
        conn.send(bad);
        match conn.recv() {
            Response::Error { .. } => {}
            other => panic!("{bad:?}: expected error, got {other:?}"),
        }
    }
    // Unknown job names are factory errors, also typed.
    conn.submit("acme", "no-such-job", None, "t1");
    match conn.recv() {
        Response::Error { tag, .. } => assert_eq!(tag.as_deref(), Some("t1")),
        other => panic!("expected error, got {other:?}"),
    }
    // The connection is still usable afterwards.
    conn.send(r#"{"op":"ping"}"#);
    assert_eq!(conn.recv(), Response::Pong);

    server.shutdown();
    let report = server.wait();
    assert_eq!(report.done, 0, "nothing was ever admitted");
}

#[test]
fn overload_sheds_typed_per_tenant_and_globally() {
    let started = Arc::new(AtomicBool::new(false));
    let cfg = ServiceConfig {
        workers: 1,
        queue_cap: 3,
        quota: TenantQuota {
            max_inflight: 1,
            max_queued: 2,
            max_queued_bytes: 1 << 20,
        },
        drain_grace: Duration::from_millis(100),
        cancel_grace: Duration::from_secs(5),
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::clone(&started)), cfg);
    let mut conn = Conn::open(&server);

    // Occupy the single worker slot, then wait until it is actually
    // running so later submits genuinely queue behind it.
    conn.submit("a", "poll", None, "blocker");
    match conn.recv() {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }
    wait_for(&started, "the blocker job to start");

    // Tenant "a" can queue two more, then hits its per-tenant quota.
    let mut sheds = Vec::new();
    for i in 0..3 {
        conn.submit("a", "quick", None, &format!("a{i}"));
        match conn.recv() {
            Response::Accepted { .. } => {}
            Response::Shed {
                reason, retryable, ..
            } => {
                assert!(retryable, "load sheds must invite a retry");
                sheds.push(reason);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(sheds, ["tenant_queue_full"]);

    // The global queue (cap 3) now holds 2; tenant "b" gets one in and
    // then hits the global cap.
    let mut b_sheds = Vec::new();
    for i in 0..2 {
        conn.submit("b", "quick", None, &format!("b{i}"));
        match conn.recv() {
            Response::Accepted { .. } => {}
            Response::Shed { reason, .. } => b_sheds.push(reason),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(b_sheds, ["queue_full"]);

    // Drain: the blocker is cancelled, the queued jobs are evicted, and
    // every accepted submit still gets its terminal `done` line.
    server.shutdown();
    let mut terminal = 0;
    while terminal < 4 {
        match conn.recv() {
            Response::Done { .. } => terminal += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    let report = server.wait();
    assert_eq!(report.done, 4, "blocker + 3 queued");
    assert_eq!(report.shed, 2);
}

#[test]
fn deadline_cancels_job_as_timeout() {
    let started = Arc::new(AtomicBool::new(false));
    let cfg = ServiceConfig {
        cancel_grace: Duration::from_secs(5),
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::clone(&started)), cfg);
    let mut conn = Conn::open(&server);

    conn.submit("acme", "poll", Some(150), "t");
    let t0 = Instant::now();
    match conn.recv_terminal() {
        Response::Done { outcome, .. } => {
            let (kind, message) = outcome.expect_err("the poll job cannot succeed");
            assert_eq!(kind, "timeout");
            assert!(message.contains("150"), "deadline in message: {message}");
        }
        other => panic!("expected done, got {other:?}"),
    }
    // Cooperative cancellation: the job polls, so it unwinds right
    // after the deadline — long before the abandon path (5s) would.
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "timeout took {:?}",
        t0.elapsed()
    );

    server.shutdown();
    server.wait();
}

/// Satellite: a drain must cut through `scatter` fan-outs. The running
/// job's shards each poll the job token that the service cancelled, so
/// the whole fan-out unwinds within the drain + cancel grace — and the
/// journal records the partial campaign: completed jobs as `ok`, the
/// cancelled job and the evicted queued job as `cancelled`.
#[test]
fn drain_cancels_scatter_shards_within_grace_and_journals_partials() {
    let dir = scratch("drain-scatter");
    let journal_path = dir.join("service.jsonl");
    vsnoop::runner::set_shard_workers(4);

    let started = Arc::new(AtomicBool::new(false));
    let cfg = ServiceConfig {
        workers: 1,
        drain_grace: Duration::from_millis(150),
        cancel_grace: Duration::from_secs(10),
        journal_path: Some(journal_path.clone()),
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::clone(&started)), cfg);
    let mut conn = Conn::open(&server);

    // A completed job, a running scatter job, and a queued job.
    conn.submit("acme", "quick", None, "done-first");
    match conn.recv_terminal() {
        Response::Done { outcome, .. } => assert!(outcome.is_ok()),
        other => panic!("unexpected {other:?}"),
    }
    conn.submit("acme", "scatter", None, "sharded");
    match conn.recv() {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }
    wait_for(&started, "scatter shards to start");
    conn.submit("acme", "quick", None, "stuck-in-queue");
    match conn.recv() {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }

    // Drain. The shards poll every ~2ms, so the fan-out must unwind
    // right after drain_grace expires — nowhere near the 10s abandon
    // window, which is the proof the shards *observed* the token.
    let t0 = Instant::now();
    server.shutdown();
    let mut outcomes = Vec::new();
    while outcomes.len() < 2 {
        match conn.recv() {
            Response::Done { outcome, tag, .. } => {
                outcomes.push((tag.unwrap_or_default(), outcome));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(4),
        "drain took {elapsed:?}; shards did not observe cancellation within grace"
    );
    for (tag, outcome) in &outcomes {
        let (kind, message) = outcome.clone().expect_err("drained jobs are cancelled");
        assert_eq!(kind, "cancelled", "{tag}: {message}");
        assert!(
            !message.contains("abandoned"),
            "{tag} was abandoned instead of unwinding: {message}"
        );
    }

    let report = server.wait();
    assert_eq!(report.done, 3);
    assert_eq!(report.cancelled, 2, "one running, one evicted");

    // The journal holds the partial campaign.
    let (entries, warnings) = Journal::load_with_warnings(&journal_path).expect("journal loads");
    assert!(warnings.is_empty(), "clean journal: {warnings:?}");
    assert_eq!(entries.len(), 3);
    let by_name = |name: &str| {
        entries
            .iter()
            .find(|e| e.job == name)
            .unwrap_or_else(|| panic!("journal entry for {name}"))
    };
    assert_eq!(by_name("quick").outcome.as_deref(), Ok("quick output\n"));
    assert!(matches!(
        by_name("scatter").outcome,
        Err(JobError::Cancelled { .. })
    ));
    let evicted = entries
        .iter()
        .filter(|e| matches!(&e.outcome, Err(JobError::Cancelled { reason }) if reason.contains("evicted")))
        .count();
    assert_eq!(evicted, 1, "the queued job was journaled as evicted");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn subscriber_sees_job_lifecycle_telemetry() {
    let server = start(test_factory(Arc::default()), ServiceConfig::default());

    let mut sub = Conn::open(&server);
    sub.send(r#"{"op":"subscribe"}"#);
    assert_eq!(sub.recv(), Response::Subscribed);

    let mut conn = Conn::open(&server);
    conn.submit("acme", "quick", None, "t");
    match conn.recv_terminal() {
        Response::Done { outcome, .. } => assert!(outcome.is_ok()),
        other => panic!("unexpected {other:?}"),
    }

    // The subscriber connection now carries raw telemetry records; the
    // submit must have produced the admit → dispatch → done sequence.
    let mut seen = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !seen.contains(&"service_done".to_string()) {
        assert!(Instant::now() < deadline, "telemetry not seen: {seen:?}");
        let mut line = String::new();
        match sub.reader.read_line(&mut line) {
            Ok(0) => panic!("subscriber connection closed"),
            Ok(_) => {
                let v = Value::parse(line.trim()).expect("telemetry is valid JSON");
                if let Some(event) = v.get("event").and_then(Value::as_str) {
                    seen.push(event.to_string());
                }
            }
            Err(e) => panic!("subscriber read: {e}"),
        }
    }
    for expected in ["service_admit", "service_dispatch", "service_done"] {
        assert!(
            seen.contains(&expected.to_string()),
            "missing {expected} in {seen:?}"
        );
    }

    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_op_drains_and_sheds_late_submits_as_draining() {
    let started = Arc::new(AtomicBool::new(false));
    let cfg = ServiceConfig {
        workers: 1,
        drain_grace: Duration::from_millis(300),
        cancel_grace: Duration::from_secs(5),
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::clone(&started)), cfg);
    let mut conn = Conn::open(&server);

    // Keep one job running so the drain stays observable while the
    // late submit goes in.
    conn.submit("acme", "poll", None, "blocker");
    match conn.recv() {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }
    wait_for(&started, "the blocker job to start");

    conn.send(r#"{"op":"shutdown"}"#);
    assert_eq!(conn.recv(), Response::ShuttingDown);

    // Wait until the scheduler has flipped admission into draining, so
    // the late submit's outcome is deterministic.
    loop {
        conn.send(r#"{"op":"status"}"#);
        let Response::Status(v) = conn.recv() else {
            panic!("expected status")
        };
        if v.get("draining").and_then(Value::as_bool) == Some(true) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    conn.submit("late", "quick", None, "late");
    match conn.recv() {
        Response::Shed {
            reason, retryable, ..
        } => {
            assert_eq!(reason, "draining");
            assert!(!retryable, "a draining server is going away; don't retry");
        }
        other => panic!("unexpected {other:?}"),
    }

    // The blocker still gets its terminal answer.
    match conn.recv() {
        Response::Done { outcome, .. } => {
            let (kind, _) = outcome.expect_err("drained job is cancelled");
            assert_eq!(kind, "cancelled");
        }
        other => panic!("unexpected {other:?}"),
    }
    let report = server.wait();
    assert_eq!(report.done, 1);
    assert_eq!(report.shed, 1);
    assert_eq!(report.cancelled, 1);
}

/// Tentpole: a WAL left by a crashed process (an `accepted` record
/// with no terminal `done`) is replayed on startup — the job runs to
/// a durable terminal outcome under its original id, numbering
/// resumes above the high-water mark, and completions retained by the
/// WAL keep answering idempotent resubmissions from before the crash.
#[test]
fn restart_replays_wal_pending_jobs_and_keeps_idempotency() {
    let dir = scratch("wal-recovery");
    let wal_path = dir.join("wal.jsonl");
    let journal_path = dir.join("journal.jsonl");

    // Hand-write the log of a crashed server: job 3 finished (keyed,
    // so its completion is retained for dedup), job 7 was accepted but
    // never reached a terminal record.
    let crashed = [
        WalRecord::Accepted {
            job_id: 3,
            tenant: "acme".into(),
            job: "quick".into(),
            params: Value::Null,
            deadline_ms: None,
            idem_key: Some("k-done".into()),
            bytes: 10,
        },
        WalRecord::Done {
            job_id: 3,
            outcome: Ok("old output\n".into()),
        },
        WalRecord::Accepted {
            job_id: 7,
            tenant: "acme".into(),
            job: "quick".into(),
            params: Value::Null,
            deadline_ms: None,
            idem_key: Some("k-pending".into()),
            bytes: 10,
        },
    ];
    let mut text = String::new();
    for r in &crashed {
        text.push_str(&r.to_json_line());
        text.push('\n');
    }
    std::fs::write(&wal_path, text).expect("seed wal");

    let cfg = ServiceConfig {
        wal_path: Some(wal_path.clone()),
        journal_path: Some(journal_path.clone()),
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::default()), cfg);
    let mut conn = Conn::open(&server);

    // The crashed completion still answers its idempotency key — with
    // the original output, not a re-execution.
    conn.submit_keyed("acme", "quick", "k-done", "replay");
    match conn.recv() {
        Response::Accepted { job_id, tag } => {
            assert_eq!(job_id, 3);
            assert_eq!(tag.as_deref(), Some("replay"));
        }
        other => panic!("expected accepted, got {other:?}"),
    }
    match conn.recv() {
        Response::Done {
            job_id, outcome, ..
        } => {
            assert_eq!(job_id, 3);
            assert_eq!(outcome.expect("replayed ok"), "old output\n");
        }
        other => panic!("expected done, got {other:?}"),
    }

    // A resubmission of the *recovered* job dedups against it too
    // (whether it is still in flight or already finished), and never
    // runs it a second time.
    conn.submit_keyed("acme", "quick", "k-pending", "dup");
    match conn.recv() {
        Response::Accepted { job_id, .. } => assert_eq!(job_id, 7),
        other => panic!("expected accepted, got {other:?}"),
    }
    match conn.recv() {
        Response::Done {
            job_id,
            outcome,
            tag,
            ..
        } => {
            assert_eq!(job_id, 7);
            assert_eq!(outcome.expect("recovered job succeeds"), "quick output\n");
            assert_eq!(tag.as_deref(), Some("dup"));
        }
        other => panic!("expected done, got {other:?}"),
    }

    // Fresh submissions number above the recovered high-water mark.
    conn.submit("acme", "quick", None, "fresh");
    match conn.recv() {
        Response::Accepted { job_id, .. } => {
            assert!(
                job_id > 7,
                "id {job_id} must not collide with recovered ids"
            );
        }
        other => panic!("expected accepted, got {other:?}"),
    }
    match conn.recv_terminal() {
        Response::Done { outcome, .. } => assert!(outcome.is_ok()),
        other => panic!("expected done, got {other:?}"),
    }

    server.shutdown();
    let report = server.wait();
    assert_eq!(report.recovered, 1, "exactly job 7 was re-enqueued");

    // The journal holds the recovered job's terminal outcome under its
    // original id, exactly once.
    let entries = Journal::load(&journal_path).expect("journal loads");
    let for_seven: Vec<_> = entries.iter().filter(|e| e.index == 7).collect();
    assert_eq!(for_seven.len(), 1, "{entries:?}");
    assert!(for_seven[0].outcome.is_ok());

    // And the final WAL has no pending work left: nothing was lost.
    let state = Wal::replay(&wal_path).expect("wal replays");
    assert!(state.pending.is_empty(), "{:?}", state.pending);
    assert!(state.max_job_id > 7);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole: a duplicate submit with the same idempotency key — the
/// retry of a client that never saw its answer — executes the job
/// once. The duplicate gets the original result, echoed under its own
/// tag, even from a different connection; a duplicate that lands while
/// the job is still in flight is parked and answered on completion.
#[test]
fn idempotent_resubmission_executes_once_and_answers_every_caller() {
    let dir = scratch("idem-once");
    let executions = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let factory: JobFactory = {
        let (executions, release, started) = (
            Arc::clone(&executions),
            Arc::clone(&release),
            Arc::clone(&started),
        );
        Arc::new(move |submit: &Submit| {
            let (executions, release, started) = (
                Arc::clone(&executions),
                Arc::clone(&release),
                Arc::clone(&started),
            );
            match submit.job.as_str() {
                "gated" => Ok(Job::new("gated", 1, Value::obj(vec![]), move |_ctx| {
                    executions.fetch_add(1, Ordering::SeqCst);
                    started.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        poll_current();
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Ok("gated output\n".to_string())
                })),
                other => Err(format!("unknown test job {other:?}")),
            }
        })
    };
    let cfg = ServiceConfig {
        wal_path: Some(dir.join("wal.jsonl")),
        ..ServiceConfig::default()
    };
    let server = start(factory, cfg);

    let mut first = Conn::open(&server);
    first.submit_keyed("acme", "gated", "the-key", "first");
    let original_id = match first.recv() {
        Response::Accepted { job_id, .. } => job_id,
        other => panic!("expected accepted, got {other:?}"),
    };
    wait_for(&started, "the gated job to start");

    // Duplicate while in flight, from a second connection: parked, not
    // re-executed.
    let mut second = Conn::open(&server);
    second.submit_keyed("acme", "gated", "the-key", "second");
    match second.recv() {
        Response::Accepted { job_id, tag } => {
            assert_eq!(job_id, original_id, "the duplicate maps to the same job");
            assert_eq!(tag.as_deref(), Some("second"));
        }
        other => panic!("expected accepted, got {other:?}"),
    }

    release.store(true, Ordering::SeqCst);
    for (conn, tag) in [(&mut first, "first"), (&mut second, "second")] {
        match conn.recv() {
            Response::Done {
                job_id,
                outcome,
                tag: got,
                ..
            } => {
                assert_eq!(job_id, original_id);
                assert_eq!(outcome.expect("job succeeds"), "gated output\n");
                assert_eq!(got.as_deref(), Some(tag), "each caller keeps its own tag");
            }
            other => panic!("{tag}: expected done, got {other:?}"),
        }
    }

    // Duplicate after completion: replayed from the idempotency map.
    let mut third = Conn::open(&server);
    third.submit_keyed("acme", "gated", "the-key", "third");
    match third.recv() {
        Response::Accepted { job_id, .. } => assert_eq!(job_id, original_id),
        other => panic!("expected accepted, got {other:?}"),
    }
    match third.recv() {
        Response::Done { outcome, tag, .. } => {
            assert_eq!(outcome.expect("replayed ok"), "gated output\n");
            assert_eq!(tag.as_deref(), Some("third"));
        }
        other => panic!("expected done, got {other:?}"),
    }

    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "three submits, one execution"
    );
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: a request line longer than `max_frame_bytes` is answered
/// with a typed, non-retryable `oversized_frame` error — one error for
/// the whole frame, however many reads it spanned — and the connection
/// stays usable for well-behaved frames afterwards.
#[test]
fn oversized_frames_get_typed_error_and_the_connection_survives() {
    let cfg = ServiceConfig {
        max_frame_bytes: 1024,
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::default()), cfg);
    let mut conn = Conn::open(&server);

    // 64 KiB of garbage on one line: far past the cap, so the server
    // must stream it to the floor rather than buffer it.
    let huge = "x".repeat(64 * 1024);
    conn.send(&huge);
    match conn.recv() {
        Response::Error {
            code,
            retryable,
            message,
            ..
        } => {
            assert_eq!(code.as_deref(), Some("oversized_frame"), "{message}");
            assert!(!retryable, "resending an oversized frame cannot help");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // Exactly one error for the frame, and the connection still works.
    conn.send(r#"{"op":"ping"}"#);
    assert_eq!(conn.recv(), Response::Pong);
    conn.submit("acme", "quick", None, "after");
    match conn.recv_terminal() {
        Response::Done { outcome, .. } => assert!(outcome.is_ok()),
        other => panic!("expected done, got {other:?}"),
    }

    server.shutdown();
    server.wait();
}

/// Satellite: a subscriber that stops reading cannot wedge the server.
/// Its pump buffer is bounded; on overflow the server disconnects the
/// subscriber with a typed `subscriber_lagged` error instead of
/// blocking telemetry emitters or buffering without bound.
#[test]
fn lagged_subscriber_is_disconnected_with_typed_error() {
    let cfg = ServiceConfig {
        sub_buffer: 4,
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::default()), cfg);

    let mut sub = Conn::open(&server);
    sub.send(r#"{"op":"subscribe"}"#);
    assert_eq!(sub.recv(), Response::Subscribed);

    // Burst far more telemetry than the 4-record buffer holds while
    // the subscriber reads nothing. Emits are microseconds apart, so
    // the pump — a socket write per record, eventually blocking on the
    // unread socket — cannot keep up, and the tap must drop to the
    // lagged path rather than block this (emitting) thread.
    for i in 0..50_000u64 {
        vsnoop::obs::telemetry::emit("spam", vec![("i", Value::UInt(i))]);
    }

    // The subscriber's stream: buffered telemetry records, then the
    // typed error. (The TCP connection itself stays open — only the
    // subscription is dropped.)
    let mut saw_lagged = false;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut line = String::new();
    while !saw_lagged {
        assert!(Instant::now() < deadline, "no lagged error seen");
        line.clear();
        match sub.reader.read_line(&mut line) {
            Ok(0) => panic!("connection closed without the typed error"),
            Ok(_) if line.trim().is_empty() => continue,
            Ok(_) => {
                let v = Value::parse(line.trim()).expect("valid JSON on subscriber stream");
                if v.get("type").and_then(Value::as_str) == Some("error") {
                    assert_eq!(
                        v.get("code").and_then(Value::as_str),
                        Some("subscriber_lagged"),
                        "{line}"
                    );
                    assert_eq!(
                        v.get("retryable").and_then(Value::as_bool),
                        Some(true),
                        "resubscribing is allowed: {line}"
                    );
                    saw_lagged = true;
                }
            }
            Err(e) => panic!("subscriber read: {e}"),
        }
    }

    // The server itself is unaffected.
    let mut conn = Conn::open(&server);
    conn.send(r#"{"op":"ping"}"#);
    assert_eq!(conn.recv(), Response::Pong);
    conn.submit("acme", "quick", None, "after");
    match conn.recv_terminal() {
        Response::Done { outcome, .. } => assert!(outcome.is_ok()),
        other => panic!("unexpected {other:?}"),
    }

    server.shutdown();
    server.wait();
}

/// Tentpole: one connection pipelines a batch of submits without
/// waiting for answers. The reactor assembles the frames in arrival
/// order, the admission thread preserves that order, and a single
/// worker executes them FIFO — so both the `accepted` acks and the
/// `done` results come back in submit order on the one socket.
#[test]
fn pipelined_submits_on_one_connection_answer_in_order() {
    let cfg = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::default()), cfg);
    let mut conn = Conn::open(&server);

    let tags: Vec<String> = (0..6).map(|i| format!("p{i}")).collect();
    for tag in &tags {
        conn.submit("acme", "quick", None, tag);
    }

    let mut accepted = Vec::new();
    let mut done = Vec::new();
    while done.len() < tags.len() {
        match conn.recv() {
            Response::Accepted { tag, .. } => accepted.push(tag.unwrap_or_default()),
            Response::Done { outcome, tag, .. } => {
                assert!(outcome.is_ok());
                done.push(tag.unwrap_or_default());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(accepted, tags, "acks follow submit order");
    assert_eq!(done, tags, "one worker answers FIFO");

    server.shutdown();
    let report = server.wait();
    assert_eq!(report.done, 6);
}

/// Tentpole: submits pipelined past the per-connection cap are shed
/// with the typed retryable `pipeline_full` reason, while the ones
/// under the cap still run to completion.
#[test]
fn pipelining_past_the_cap_sheds_typed_pipeline_full() {
    let started = Arc::new(AtomicBool::new(false));
    let cfg = ServiceConfig {
        workers: 1,
        pipeline_limit: 2,
        drain_grace: Duration::from_millis(150),
        cancel_grace: Duration::from_secs(5),
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::clone(&started)), cfg);
    let mut conn = Conn::open(&server);

    // Fill both pipeline slots: a running blocker plus one queued job.
    conn.submit("acme", "poll", None, "blocker");
    match conn.recv() {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }
    wait_for(&started, "the blocker job to start");
    conn.submit("acme", "quick", None, "queued");
    match conn.recv() {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }

    // The third in-flight submit overflows the connection's pipeline.
    conn.submit("acme", "quick", None, "over");
    match conn.recv() {
        Response::Shed {
            reason,
            retryable,
            tag,
            ..
        } => {
            assert_eq!(reason, "pipeline_full");
            assert!(retryable, "a full pipeline invites a retry after reading");
            assert_eq!(tag.as_deref(), Some("over"));
        }
        other => panic!("expected shed, got {other:?}"),
    }

    // Both admitted jobs still reach terminal answers on the drain.
    server.shutdown();
    let mut terminal = 0;
    while terminal < 2 {
        match conn.recv() {
            Response::Done { .. } => terminal += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    let report = server.wait();
    assert_eq!(report.done, 2);
}

/// Tentpole: a running job streams `progress` frames to its submitting
/// connection between `accepted` and `done` when a cadence is
/// configured.
#[test]
fn long_running_job_streams_progress_frames_mid_flight() {
    let started = Arc::new(AtomicBool::new(false));
    let cfg = ServiceConfig {
        progress_interval: Duration::from_millis(25),
        cancel_grace: Duration::from_secs(5),
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::clone(&started)), cfg);
    let mut conn = Conn::open(&server);

    // A poll job with a 300 ms deadline: runs long enough for several
    // progress ticks, then times out to a terminal `done`.
    conn.submit("acme", "poll", Some(300), "t");
    let mut progress = 0u32;
    let mut saw_accept = false;
    loop {
        match conn.recv() {
            Response::Accepted { .. } => saw_accept = true,
            Response::Progress {
                job, elapsed_ms, ..
            } => {
                assert!(saw_accept, "progress must follow the accepted ack");
                assert_eq!(job, "poll");
                assert!(elapsed_ms > 0, "elapsed time is measured");
                progress += 1;
            }
            Response::Done { outcome, .. } => {
                let (kind, _) = outcome.expect_err("the poll job times out");
                assert_eq!(kind, "timeout");
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(
        progress >= 1,
        "a 300ms job at a 25ms cadence must stream progress"
    );

    server.shutdown();
    server.wait();
}

/// Tentpole: a connection with no traffic and no in-flight work is
/// reaped after the idle timeout with a typed retryable `idle_timeout`
/// error, while a connection whose job is still running is kept alive
/// no matter how long it stays quiet.
#[test]
fn idle_connections_are_reaped_but_busy_ones_survive() {
    let started = Arc::new(AtomicBool::new(false));
    let cfg = ServiceConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(150),
        drain_grace: Duration::from_millis(150),
        cancel_grace: Duration::from_secs(5),
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::clone(&started)), cfg);

    // Busy connection: its poll job keeps it exempt from reaping.
    let mut busy = Conn::open(&server);
    busy.submit("acme", "poll", None, "blocker");
    match busy.recv() {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }
    wait_for(&started, "the blocker job to start");

    // Idle connection: reaped with the typed error, then closed.
    let mut idle = Conn::open(&server);
    match idle.recv() {
        Response::Error {
            code,
            retryable,
            message,
            ..
        } => {
            assert_eq!(code.as_deref(), Some("idle_timeout"), "{message}");
            assert!(retryable, "reconnecting after an idle reap is fine");
        }
        other => panic!("expected idle_timeout error, got {other:?}"),
    }
    let mut rest = String::new();
    assert_eq!(
        idle.reader.read_line(&mut rest).expect("read to EOF"),
        0,
        "the reaped connection is closed after the error: {rest:?}"
    );

    // The busy connection sat just as quiet but still answers.
    busy.send(r#"{"op":"ping"}"#);
    assert_eq!(busy.recv(), Response::Pong);

    server.shutdown();
    match busy.recv() {
        Response::Done { outcome, .. } => {
            let (kind, _) = outcome.expect_err("drained job is cancelled");
            assert_eq!(kind, "cancelled");
        }
        other => panic!("unexpected {other:?}"),
    }
    server.wait();
}

/// Tentpole: a drain with hundreds of parked connections — open,
/// idle, nothing in flight — walks the reactor's connection table
/// instead of joining per-connection threads: every parked socket is
/// closed promptly, the one running job still reaches its terminal
/// answer, and the whole shutdown is far faster than any per-
/// connection timeout.
#[test]
fn drain_closes_hundreds_of_parked_connections_promptly() {
    let started = Arc::new(AtomicBool::new(false));
    let cfg = ServiceConfig {
        workers: 1,
        drain_grace: Duration::from_millis(200),
        cancel_grace: Duration::from_secs(5),
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::clone(&started)), cfg);

    let mut active = Conn::open(&server);
    active.submit("acme", "poll", None, "blocker");
    match active.recv() {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }
    wait_for(&started, "the blocker job to start");

    // A ping/pong roundtrip proves each connection made it out of the
    // accept backlog and into the reactor's table before we drain —
    // connections still queued on the listener when it closes get a
    // kernel RST, which is not what this test is about.
    let parked: Vec<Conn> = (0..300)
        .map(|_| {
            let mut conn = Conn::open(&server);
            conn.send(r#"{"op":"ping"}"#);
            assert_eq!(conn.recv(), Response::Pong);
            conn
        })
        .collect();

    let t0 = Instant::now();
    server.shutdown();
    match active.recv() {
        Response::Done { outcome, .. } => {
            let (kind, _) = outcome.expect_err("drained job is cancelled");
            assert_eq!(kind, "cancelled");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Every parked connection sees a clean close, not a hang or reset.
    for (i, mut conn) in parked.into_iter().enumerate() {
        let mut line = String::new();
        assert_eq!(
            conn.reader.read_line(&mut line).expect("read to EOF"),
            0,
            "parked connection {i} got unexpected data: {line:?}"
        );
    }
    let report = server.wait();
    let elapsed = t0.elapsed();
    assert_eq!(report.done, 1);
    assert!(
        elapsed < Duration::from_secs(10),
        "drain of 300 parked connections took {elapsed:?}"
    );
}

/// Satellite: the `metrics` wire op returns the server-side metrics
/// snapshot, and its counts reconcile with what this connection
/// actually did. Metrics are process-global (other tests in this
/// binary record into them concurrently), so the per-tenant family —
/// keyed by a tenant name unique to this test — is checked exactly,
/// while the global counters are only checked as lower bounds.
#[test]
fn metrics_op_reports_counts_that_reconcile_with_submits() {
    let server = start(test_factory(Arc::default()), ServiceConfig::default());
    let mut conn = Conn::open(&server);

    let tenant = format!("metrics-reconcile-{}", std::process::id());
    const JOBS: u64 = 5;
    for i in 0..JOBS {
        conn.submit(&tenant, "quick", None, &format!("m{i}"));
        match conn.recv_terminal() {
            Response::Done { outcome, .. } => assert!(outcome.is_ok()),
            other => panic!("unexpected {other:?}"),
        }
    }

    conn.send(r#"{"op":"metrics"}"#);
    let snapshot = match conn.recv() {
        // The frame keeps the envelope; the snapshot sits under its
        // `metrics` key (same convention as `status`).
        Response::Metrics(v) => v.get("metrics").expect("snapshot embedded").clone(),
        other => panic!("expected metrics, got {other:?}"),
    };

    // Global counters: at least this test's traffic happened.
    let counter = |name: &str| {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("counter {name} in {snapshot:?}"))
    };
    assert!(counter("requests") >= JOBS, "{snapshot:?}");
    assert!(counter("done") >= JOBS, "{snapshot:?}");

    // The per-tenant request-latency family reconciles exactly: one
    // recorded end-to-end latency per terminal submit.
    let tenant_hist = snapshot
        .get("tenants")
        .and_then(|t| t.get(&tenant))
        .and_then(|t| t.get("request"))
        .unwrap_or_else(|| panic!("tenant {tenant} in {snapshot:?}"));
    assert_eq!(
        tenant_hist.get("count").and_then(Value::as_u64),
        Some(JOBS),
        "{tenant_hist:?}"
    );
    let pct = |name: &str| {
        tenant_hist
            .get(name)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} in {tenant_hist:?}"))
    };
    assert!(
        pct("p50_ms") <= pct("p99_ms") && pct("p99_ms") <= pct("max_ms"),
        "{tenant_hist:?}"
    );

    // The global stage histograms saw the same lifecycle stages.
    for stage in [
        "service_request_us",
        "service_run_us",
        "service_queue_wait_us",
    ] {
        let count = snapshot
            .get("histograms")
            .and_then(|h| h.get(stage))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("histogram {stage} in {snapshot:?}"));
        assert!(count >= JOBS, "{stage}: {count} < {JOBS}");
    }

    server.shutdown();
    let report = server.wait();
    assert_eq!(report.done, JOBS);
}

/// Tentpole: the scheduler has no poll interval. Each of a run of
/// zero-work submits on an idle server is dispatched because its
/// admission said so, and finished because its worker said so; no
/// timer ever comes due, however slow the host. (Deadlines far away and
/// no progress cadence, so the only timers that could fire are ones a
/// poll would need.)
#[test]
fn sequential_submits_are_dispatched_by_admission_not_by_a_timer() {
    let cfg = ServiceConfig {
        default_deadline: Duration::from_secs(3600),
        progress_interval: Duration::ZERO,
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::default()), cfg);
    let mut conn = Conn::open(&server);

    const JOBS: u64 = 50;
    for i in 0..JOBS {
        conn.submit("acme", "quick", None, &format!("s{i}"));
        match conn.recv_terminal() {
            Response::Done { outcome, .. } => assert!(outcome.is_ok()),
            other => panic!("unexpected {other:?}"),
        }
    }
    let woken = server.scheduler_wakeups();
    assert_eq!(woken.timers, 0, "{woken:?}");
    assert_eq!(woken.messages, 2 * JOBS, "one admitted, one completed each");

    server.shutdown();
    assert_eq!(server.wait().done, JOBS);
}

/// Tentpole: an idle server sleeps. With nothing running no timer is
/// armed, so over any stretch of idleness the scheduler thread wakes
/// zero times — the assertion cannot fail for being slow, only for a
/// wakeup that should not exist.
#[test]
fn idle_server_never_wakes_its_scheduler() {
    let server = start(test_factory(Arc::default()), ServiceConfig::default());
    let mut conn = Conn::open(&server);
    conn.send(r#"{"op":"ping"}"#);
    assert_eq!(conn.recv(), Response::Pong);

    std::thread::sleep(Duration::from_millis(200));
    let woken = server.scheduler_wakeups();
    assert_eq!((woken.messages, woken.timers), (0, 0));

    server.shutdown();
    server.wait();
}

/// Satellite: the wire contract SERVICE.md states — a job's `accepted`
/// frame always precedes its `done` — under the load that used to break
/// it: 2 000 zero-work submits pipelined over 4 connections, each job
/// finishing within microseconds of its admission.
#[test]
fn accepted_always_precedes_done_for_pipelined_submits() {
    const CONNS: usize = 4;
    const PER_CONN: usize = 500;
    let cfg = ServiceConfig {
        queue_cap: CONNS * PER_CONN,
        quota: TenantQuota {
            max_queued: PER_CONN,
            ..TenantQuota::default()
        },
        pipeline_limit: PER_CONN,
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::default()), cfg);

    std::thread::scope(|s| {
        for c in 0..CONNS {
            let mut conn = Conn::open(&server);
            s.spawn(move || {
                let tenant = format!("pipe{c}");
                for i in 0..PER_CONN {
                    conn.submit(&tenant, "quick", None, &format!("{i}"));
                }
                let mut accepted = std::collections::HashSet::new();
                let mut done = 0;
                while done < PER_CONN {
                    match conn.recv() {
                        Response::Accepted { job_id, .. } => {
                            accepted.insert(job_id);
                        }
                        Response::Done {
                            job_id, outcome, ..
                        } => {
                            assert!(outcome.is_ok());
                            assert!(
                                accepted.contains(&job_id),
                                "connection {c}: done for job {job_id} before its accepted"
                            );
                            done += 1;
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                assert_eq!(accepted.len(), PER_CONN);
            });
        }
    });

    server.shutdown();
    assert_eq!(server.wait().done, (CONNS * PER_CONN) as u64);
}

/// Tentpole: the reactor's incremental frame assembly — a request
/// torn into tiny writes with pauses in between (worst-case
/// nonblocking reads) still parses as exactly one frame, and several
/// frames landing in one read still each get an answer.
#[test]
fn torn_and_coalesced_frames_assemble_correctly() {
    let server = start(test_factory(Arc::default()), ServiceConfig::default());
    let mut conn = Conn::open(&server);

    // One submit dribbled out 5 bytes at a time across ~20 writes.
    let line = Value::obj(vec![
        ("op", Value::Str("submit".into())),
        ("tenant", Value::Str("acme".into())),
        ("job", Value::Str("quick".into())),
        ("tag", Value::Str("torn".into())),
    ])
    .to_json()
        + "\n";
    for chunk in line.as_bytes().chunks(5) {
        conn.writer.write_all(chunk).expect("write chunk");
        conn.writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    match conn.recv() {
        Response::Accepted { tag, .. } => assert_eq!(tag.as_deref(), Some("torn")),
        other => panic!("expected accepted, got {other:?}"),
    }
    match conn.recv_terminal() {
        Response::Done { outcome, tag, .. } => {
            assert!(outcome.is_ok());
            assert_eq!(tag.as_deref(), Some("torn"));
        }
        other => panic!("expected done, got {other:?}"),
    }

    // Two pings and a submit coalesced into a single write: three
    // frames, three answers.
    let batch = "{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n".to_string()
        + &Value::obj(vec![
            ("op", Value::Str("submit".into())),
            ("tenant", Value::Str("acme".into())),
            ("job", Value::Str("quick".into())),
            ("tag", Value::Str("batched".into())),
        ])
        .to_json()
        + "\n";
    conn.writer
        .write_all(batch.as_bytes())
        .expect("write batch");
    conn.writer.flush().expect("flush");
    assert_eq!(conn.recv(), Response::Pong);
    assert_eq!(conn.recv(), Response::Pong);
    match conn.recv_terminal() {
        Response::Done { outcome, tag, .. } => {
            assert!(outcome.is_ok());
            assert_eq!(tag.as_deref(), Some("batched"));
        }
        other => panic!("expected done, got {other:?}"),
    }

    server.shutdown();
    let report = server.wait();
    assert_eq!(report.done, 2);
}

/// The server's `service_worker_spawns` counter, scraped through the
/// `metrics` wire op.
fn worker_spawns(conn: &mut Conn) -> u64 {
    conn.send(r#"{"op":"metrics"}"#);
    match conn.recv() {
        Response::Metrics(v) => v
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("service_worker_spawns"))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("service_worker_spawns in {v:?}")),
        other => panic!("expected metrics, got {other:?}"),
    }
}

/// Runs one `quick` job to completion on `conn`.
fn run_quick(conn: &mut Conn, tag: &str) {
    conn.submit("acme", "quick", None, tag);
    match conn.recv_terminal() {
        Response::Done { outcome, .. } => assert_eq!(outcome, Ok("quick output\n".into())),
        other => panic!("unexpected {other:?}"),
    }
}

/// Jobs run on the pool started with the server: after warm-up, 200
/// zero-work submits start no thread at all.
#[test]
fn a_warm_worker_pool_serves_hundreds_of_jobs_without_starting_a_thread() {
    let cfg = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::default()), cfg);
    let mut conn = Conn::open(&server);
    for i in 0..5 {
        run_quick(&mut conn, &format!("w{i}"));
    }
    assert_eq!(worker_spawns(&mut conn), 2);
    for i in 0..200 {
        run_quick(&mut conn, &format!("j{i}"));
    }
    assert_eq!(worker_spawns(&mut conn), 2);

    server.shutdown();
    assert_eq!(server.wait().done, 205);
}

/// A job that never polls its token is abandoned after its deadline plus
/// `cancel_grace`; the pool starts exactly one replacement worker, and
/// the next submit runs on it.
#[test]
fn an_abandoned_job_costs_exactly_one_replacement_worker() {
    let cfg = ServiceConfig {
        workers: 1,
        cancel_grace: Duration::from_millis(100),
        progress_interval: Duration::ZERO,
        ..ServiceConfig::default()
    };
    let server = start(test_factory(Arc::default()), cfg);
    let mut conn = Conn::open(&server);
    assert_eq!(worker_spawns(&mut conn), 1);

    conn.submit("acme", "hang", Some(50), "h");
    match conn.recv_terminal() {
        Response::Done { outcome, .. } => {
            assert_eq!(outcome.expect_err("abandoned").0, "timeout");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(worker_spawns(&mut conn), 2);
    // The only original worker is still asleep in the hung job.
    run_quick(&mut conn, "after");
    assert_eq!(worker_spawns(&mut conn), 2);

    server.shutdown();
    assert_eq!(server.wait().done, 2);
}
