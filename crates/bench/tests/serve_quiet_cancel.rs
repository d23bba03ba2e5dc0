//! A drain that cancels a running job is quiet: `serve` answers the job
//! `cancelled`, exits 0, and prints no panic on stderr, because the
//! cancellation unwind is the job's expected ending, not a crash.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use vsnoop::service::Response;

#[test]
fn drain_cancels_a_running_job_without_a_panic_on_stderr() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    for name in vsnoop::knob::NAMES {
        cmd.env_remove(name);
    }
    let mut serve = cmd
        .args(["--addr", "127.0.0.1:0", "--drain-grace-ms", "300"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(serve.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();

    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap()).lines();
    let mut next_reply = || Response::parse(&replies.next().unwrap().unwrap()).unwrap();
    let submit = r#"{"op":"submit","tenant":"acme","job":"spin","params":{"ms":60000}}"#;
    writeln!(conn, "{submit}").unwrap();
    // A progress frame proves the job is running, not queued, when the
    // drain begins.
    loop {
        match next_reply() {
            Response::Accepted { .. } => {}
            Response::Progress { .. } => break,
            other => panic!("expected accepted then progress, got {other:?}"),
        }
    }
    writeln!(conn, r#"{{"op":"shutdown"}}"#).unwrap();
    let outcome = loop {
        if let Response::Done { outcome, .. } = next_reply() {
            break outcome;
        }
    };
    assert_eq!(outcome.expect_err("a drained job").0, "cancelled");

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = serve.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            serve.kill().unwrap();
            panic!("serve did not exit after its drain");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    serve
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "serve exited {status}: {stderr}");
    assert!(!stderr.contains("panicked at"), "stderr: {stderr}");
}
