//! The server-side stage histograms partition a request's life. This
//! lives in a test binary of its own because the histograms are
//! process-global: with one server and one request in the process,
//! every histogram's sum is that request's stage time exactly.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use vsnoop::obs::metrics;
use vsnoop::runner::{json::Value, Job};
use vsnoop::service::{serve, JobFactory, Response, ServiceConfig, Submit};

/// Satellite: admission wait, WAL fsync, queue wait and run are
/// disjoint stretches of one request, so for a lone request on a
/// syncing WAL they add up to no more than its end-to-end time. (Queue
/// wait used to start before the WAL append and count the fsync twice.)
#[test]
fn stage_times_of_a_lone_synced_request_sum_to_no_more_than_its_total() {
    let dir = std::env::temp_dir().join(format!("vsnoop-service-stages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let factory: JobFactory = Arc::new(|submit: &Submit| {
        Ok(Job::new(&submit.job, 1, Value::Null, |_ctx| {
            Ok("output\n".to_string())
        }))
    });
    let cfg = ServiceConfig {
        wal_path: Some(dir.join("wal.jsonl")),
        sync: true,
        ..ServiceConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = serve(listener, factory, cfg).expect("serve");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    writeln!(stream, r#"{{"op":"submit","tenant":"lone","job":"quick"}}"#).expect("send");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).expect("read") > 0, "closed");
        match Response::parse(line.trim()).expect("parse response") {
            Response::Accepted { .. } => {}
            Response::Done { outcome, .. } => break assert!(outcome.is_ok()),
            other => panic!("unexpected {other:?}"),
        }
    }

    let stages = [
        &metrics::SERVICE_ADMISSION_WAIT_US,
        &metrics::SERVICE_WAL_FSYNC_US,
        &metrics::SERVICE_QUEUE_WAIT_US,
        &metrics::SERVICE_RUN_US,
    ]
    .map(|h| h.snapshot());
    let total = metrics::SERVICE_REQUEST_US.snapshot();
    for s in stages.iter().chain([&total]) {
        assert_eq!(s.count, 1, "one request, one sample a stage");
    }
    let [admission, wal, queue, run] = stages.map(|s| s.sum);
    assert!(
        admission + wal + queue + run <= total.sum,
        "admission {admission} + wal {wal} + queue {queue} + run {run} > request {} (us)",
        total.sum
    );

    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
