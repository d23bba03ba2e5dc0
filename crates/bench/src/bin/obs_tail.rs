//! Live-tails a campaign's telemetry stream.
//!
//! Every supervised run with tracing on (`--trace-dir DIR` on the
//! campaign binaries, or `VSNOOP_TRACE=DIR`) appends heartbeat and
//! job-lifecycle records to `<dir>/telemetry.jsonl`. This binary
//! follows that file like `tail -f`, so a long soak or campaign can be
//! watched from a second terminal without touching its stdout:
//!
//! ```text
//! obs_tail [--trace-dir DIR] [--once] [--interval-ms N]
//! ```
//!
//! The trace directory comes from `--trace-dir`, else `VSNOOP_TRACE`.
//! Lines are passed through verbatim (they are already one JSON object
//! per line — see OBSERVABILITY.md for the schema), so the output
//! composes with `jq`-style filters. `--once` prints whatever the file
//! holds right now and exits — the mode the verify script and CI use.
//!
//! The actual tailing is [`vsnoop::obs::Tailer`], which holds back
//! partially-written lines (even ones torn mid-way through a
//! multi-byte character) until the writer finishes them, and resets to
//! the new beginning when the file shrinks (a fresh run reusing the
//! directory, or log rotation).

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use vsnoop::obs::Tailer;

struct Cli {
    dir: Option<PathBuf>,
    once: bool,
    interval: Duration,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        dir: None,
        once: false,
        interval: Duration::from_millis(500),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--trace-dir" => cli.dir = Some(PathBuf::from(value("--trace-dir")?)),
            "--once" => cli.once = true,
            "--interval-ms" => {
                let ms: u64 = value("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?;
                cli.interval = Duration::from_millis(ms.max(1));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: obs_tail [--trace-dir DIR] [--once] [--interval-ms N]\n\
                     follows <dir>/telemetry.jsonl (dir from --trace-dir or VSNOOP_TRACE)"
                        .into(),
                );
            }
            other => return Err(format!("unknown argument: {other} (try --help)")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let dir = cli.dir.or_else(vsnoop::knob::trace_dir);
    let Some(dir) = dir else {
        eprintln!("obs_tail: no trace directory (pass --trace-dir or set VSNOOP_TRACE)");
        return ExitCode::from(2);
    };
    let path = dir.join("telemetry.jsonl");

    let stdout = std::io::stdout();
    let mut tailer = Tailer::new(&path);
    let mut warned = false;
    let mut seen_any = false;
    loop {
        let mut pipe_closed = false;
        match tailer.poll(|line| {
            let mut out = stdout.lock();
            if writeln!(out, "{line}").is_err() || out.flush().is_err() {
                pipe_closed = true;
            }
        }) {
            Ok(n) => {
                seen_any |= n > 0;
            }
            Err(e) => {
                // `NotFound` is absorbed by the tailer; anything else
                // (permissions, IO error) is worth a single warning in
                // follow mode and is fatal in --once mode.
                if cli.once {
                    eprintln!("obs_tail: {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                if !warned {
                    eprintln!("obs_tail: {}: {e}", path.display());
                    warned = true;
                }
            }
        }
        if pipe_closed {
            return ExitCode::SUCCESS; // downstream pipe closed
        }
        if cli.once {
            if !seen_any && !path.exists() {
                eprintln!("obs_tail: {}: no such file", path.display());
                return ExitCode::FAILURE;
            }
            return ExitCode::SUCCESS;
        }
        if !warned && !seen_any && !path.exists() {
            eprintln!("obs_tail: waiting for {}", path.display());
            warned = true;
        }
        std::thread::sleep(cli.interval);
    }
}
