//! The supervised experiment campaign: every paper artifact as a named,
//! seeded job with panic isolation, per-job deadlines, retries,
//! checkpoint/resume, and crash reproducers.
//!
//! This is the one entry point for the paper's fifteen artifacts.
//! Fault-free, stdout is their reports concatenated in paper order
//! (`--only NAME` narrows it to the named ones, `--list` prints the
//! names); progress and the degraded-mode summary go to stderr.
//!
//! ```text
//! all [--jobs N] [--workers N] [--timeout SECS] [--retries N] [--dir DIR]
//!     [--trace-dir DIR] [--resume] [--only NAME]... [--list] [--repro FILE]
//!     [--inject-panic NAME]... [--inject-hang NAME]... [--inject-flaky NAME]...
//! ```
//!
//! `--jobs` bounds the supervisor's worker pool (whole artifacts in
//! flight); `--workers` bounds the *shard* pool each heavy artifact
//! fans its per-application cells over (default: all cores; `1` forces
//! the serial legacy path). Output is byte-identical at any setting of
//! either knob.
//!
//! Artifacts land under `--dir` (default `target/campaign/`) with
//! deterministic names: `journal.jsonl` (append-only checkpoint),
//! `merged.jsonl` (canonical index-sorted journal), `campaign.txt` (the
//! merged report text), and `repro-<job>.json` per terminal failure.
//! The campaign exits 0 even when jobs fail — degraded mode is reported
//! in the summary and the journal; only usage or IO errors exit
//! non-zero.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use vsnoop::runner::{run_campaign, CrashReproducer, Journal, RunnerConfig};
use vsnoop_bench::campaign::{artifact_names, campaign_jobs, job_from_repro, CampaignOptions};
use vsnoop_bench::scale_from_env;

struct Cli {
    jobs: usize,
    workers: Option<usize>,
    timeout_secs: u64,
    retries: u32,
    dir: PathBuf,
    resume: bool,
    list: bool,
    repro: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    opts: CampaignOptions,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        jobs: 1,
        workers: None,
        timeout_secs: 0,
        retries: 1,
        dir: PathBuf::from("target/campaign"),
        resume: false,
        list: false,
        repro: None,
        trace_dir: None,
        opts: CampaignOptions::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--jobs" => {
                cli.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--workers" => {
                cli.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--timeout" => {
                cli.timeout_secs = value("--timeout")?
                    .parse()
                    .map_err(|e| format!("--timeout: {e}"))?;
            }
            "--retries" => {
                cli.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--dir" => cli.dir = PathBuf::from(value("--dir")?),
            "--trace-dir" => cli.trace_dir = Some(PathBuf::from(value("--trace-dir")?)),
            "--resume" => cli.resume = true,
            "--list" => cli.list = true,
            "--repro" => cli.repro = Some(PathBuf::from(value("--repro")?)),
            "--only" => cli.opts.only.push(value("--only")?),
            "--inject-panic" => cli.opts.inject_panic.push(value("--inject-panic")?),
            "--inject-hang" => cli.opts.inject_hang.push(value("--inject-hang")?),
            "--inject-flaky" => cli.opts.inject_flaky.push(value("--inject-flaky")?),
            "--help" | "-h" => {
                return Err(format!(
                    "usage: all [--jobs N] [--workers N] [--timeout SECS] [--retries N] [--dir DIR]\n\
                     \u{20}          [--trace-dir DIR] [--resume] [--only NAME]... [--list] [--repro FILE]\n\
                     \u{20}          [--inject-panic NAME]... [--inject-hang NAME]... \
                     [--inject-flaky NAME]...\n\
                     artifacts: {}",
                    artifact_names().join(", ")
                ));
            }
            other => return Err(format!("unknown argument: {other} (try --help)")),
        }
    }
    Ok(cli)
}

/// Replays a crash reproducer in-process, unsupervised, so panics keep
/// their native backtrace for debugging.
fn replay(path: &Path) -> ExitCode {
    let repro = match CrashReproducer::load(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "replaying {} (seed {:#x}, recorded failure: {})",
        repro.spec.name, repro.spec.seed, repro.error
    );
    let job = match job_from_repro(&repro, scale_from_env()) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = vsnoop::runner::JobCtx {
        token: vsnoop::runner::CancelToken::new(),
        attempt: 1,
    };
    match (job.run)(&ctx) {
        Ok(text) => {
            print!("{text}");
            eprintln!("replay of {} completed without failing", repro.spec.name);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay of {} failed: {e}", repro.spec.name);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // Telemetry, heartbeats and flight dumps go to side files under the
    // trace directory; stdout stays byte-identical with tracing on.
    match &cli.trace_dir {
        Some(dir) => vsnoop::obs::set_trace_dir(Some(dir.clone())),
        None => vsnoop::obs::init_from_env(),
    }
    if cli.list {
        for name in artifact_names() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &cli.repro {
        return replay(path);
    }

    if let Some(n) = cli.workers {
        vsnoop::runner::set_shard_workers(n.max(1));
    }
    let scale = scale_from_env();
    let jobs = match campaign_jobs(scale, &cli.opts) {
        Ok(j) => j,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunnerConfig {
        workers: cli.jobs.max(1),
        timeout: (cli.timeout_secs > 0).then(|| Duration::from_secs(cli.timeout_secs)),
        retries: cli.retries,
        journal_path: Some(cli.dir.join("journal.jsonl")),
        repro_dir: Some(cli.dir.clone()),
        resume: cli.resume,
        ..RunnerConfig::default()
    };
    let report = match run_campaign(&jobs, &cfg, &mut |msg| eprintln!("[campaign] {msg}")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign aborted: {e}");
            return ExitCode::from(2);
        }
    };

    let merged = report.merged_output();
    print!("{merged}");
    if let Err(e) = std::fs::write(cli.dir.join("campaign.txt"), &merged) {
        eprintln!("campaign: writing campaign.txt: {e}");
        return ExitCode::from(2);
    }
    if let Err(e) = Journal::write_merged(&cli.dir.join("merged.jsonl"), &report.entries()) {
        eprintln!("campaign: writing merged.jsonl: {e}");
        return ExitCode::from(2);
    }
    eprint!("\n{}", report.summary());
    ExitCode::SUCCESS
}
