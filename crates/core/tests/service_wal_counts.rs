//! The WAL costs exactly two records a request. A drained server that
//! took N zero-work submits holds N `accepted` and N `done` records,
//! whether the submits came one at a time (one request a core turn) or
//! pipelined in a burst (many requests sharing a turn and its sync).

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vsnoop::runner::{json::Value, Job};
use vsnoop::service::{
    serve, JobFactory, Response, Server, ServiceConfig, Submit, TenantQuota, Wal, WalRecord,
};

const N: usize = 200;

fn zero_work() -> JobFactory {
    Arc::new(|submit: &Submit| {
        Ok(Job::new(&submit.job, 1, Value::Null, |_ctx| {
            Ok("output\n".to_string())
        }))
    })
}

/// A server with a synced WAL under a fresh scratch directory, sized so
/// a burst of `N` pipelined submits on one connection sheds nothing.
fn start(test: &str) -> (Server, PathBuf) {
    let dir = std::env::temp_dir().join(format!("vsnoop-wal-counts-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cfg = ServiceConfig {
        wal_path: Some(dir.join("wal.jsonl")),
        sync: true,
        queue_cap: N,
        quota: TenantQuota {
            max_queued: N,
            ..TenantQuota::default()
        },
        pipeline_limit: N,
        ..ServiceConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    (serve(listener, zero_work(), cfg).expect("serve"), dir)
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// One write a frame: a frame torn across two writes would wait out
/// the peer's delayed ACK.
fn send_submit(stream: &mut TcpStream, i: usize) {
    let line =
        format!("{{\"op\":\"submit\",\"tenant\":\"count\",\"job\":\"quick\",\"tag\":\"{i}\"}}\n");
    stream.write_all(line.as_bytes()).expect("send");
}

/// Reads frames until `n` `done` frames have arrived, each after its
/// `accepted`.
fn await_done(reader: &mut BufReader<TcpStream>, n: usize) {
    let mut accepted = HashSet::new();
    let mut done = 0;
    let mut line = String::new();
    while done < n {
        line.clear();
        assert!(reader.read_line(&mut line).expect("read") > 0, "closed");
        match Response::parse(line.trim()).expect("parse response") {
            Response::Accepted { job_id, .. } => assert!(accepted.insert(job_id)),
            Response::Done {
                job_id, outcome, ..
            } => {
                assert!(outcome.is_ok());
                assert!(accepted.contains(&job_id), "done before accepted");
                done += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Drains the server and counts its WAL's records by kind.
fn drain_and_count(server: Server, dir: PathBuf) -> (usize, usize, usize) {
    server.shutdown();
    assert_eq!(server.wait().done, N as u64);
    let records = Wal::load(&dir.join("wal.jsonl")).expect("the WAL loads");
    let _ = std::fs::remove_dir_all(&dir);
    let accepted: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Accepted { job_id, .. } => Some(*job_id),
            _ => None,
        })
        .collect();
    let done: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            WalRecord::Done { job_id, .. } => Some(*job_id),
            _ => None,
        })
        .collect();
    assert_eq!(accepted, done, "every accepted job is terminal, once");
    (accepted.len(), done.len(), records.len())
}

#[test]
fn sequential_submits_cost_one_accepted_and_one_done_record_each() {
    let (server, dir) = start("sequential");
    let (mut stream, mut reader) = connect(&server);
    for i in 0..N {
        send_submit(&mut stream, i);
        await_done(&mut reader, 1);
    }
    assert_eq!(drain_and_count(server, dir), (N, N, 2 * N));
}

#[test]
fn a_pipelined_burst_costs_one_accepted_and_one_done_record_each() {
    let (server, dir) = start("burst");
    let (mut stream, mut reader) = connect(&server);
    for i in 0..N {
        send_submit(&mut stream, i);
    }
    await_done(&mut reader, N);
    assert_eq!(drain_and_count(server, dir), (N, N, 2 * N));
}
