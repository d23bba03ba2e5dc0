//! Multi-tenant service soak: in-process server, many concurrent
//! clients, latency percentiles and shed accounting.
//!
//! ```text
//! loadtest [--clients N] [--tenants N] [--jobs N] [--spin-ms N]
//!          [--workers N] [--queue-cap N] [--max-inflight N]
//!          [--max-queued N] [--pipeline-limit N] [--progress-ms N]
//!          [--deadline-ms N] [--overload] [--chaos] [--chaos-seed N]
//!          [--no-wal]
//! ```
//!
//! Runs the `vsnoop_bench::service_load` harness. `--overload` shrinks
//! the queues until most submits shed, verifying that saturation
//! produces typed rejections rather than hangs. `--chaos` routes every
//! client through a fault-injecting proxy (torn frames, stalls, cuts,
//! resets; deterministic per `--chaos-seed`) and switches the clients
//! to their retrying mode — the run must still answer every request
//! exactly once. `--no-wal` drops the write-ahead log for a
//! best-effort soak. `--pipeline-limit` caps how many submits a single
//! connection may have in flight before the reactor sheds with the
//! retryable `pipeline_full` reason; `--progress-ms` streams periodic
//! `progress` frames for running jobs (0 disables them).
//!
//! Exits 1 if any request went unanswered (a hang or transport loss),
//! if `--overload` produced no sheds, or if `--chaos` injected no
//! faults (a proxy misconfiguration would otherwise pass vacuously).

use std::process::ExitCode;

use vsnoop::service::TenantQuota;
use vsnoop_bench::service_load::{run_load, LoadOptions};

fn parse_cli() -> Result<(LoadOptions, bool), String> {
    let mut opts = LoadOptions::default();
    let mut overload = false;
    let mut chaos = false;
    let mut chaos_seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let parse_u64 = |flag: &str, v: String| -> Result<u64, String> {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        };
        match arg.as_str() {
            "--clients" => opts.clients = parse_u64("--clients", value("--clients")?)? as usize,
            "--tenants" => {
                opts.tenants = parse_u64("--tenants", value("--tenants")?)?.max(1) as usize;
            }
            "--jobs" => opts.jobs_per_client = parse_u64("--jobs", value("--jobs")?)? as usize,
            "--spin-ms" => opts.spin_ms = parse_u64("--spin-ms", value("--spin-ms")?)?,
            "--workers" => {
                opts.workers = parse_u64("--workers", value("--workers")?)?.max(1) as usize
            }
            "--queue-cap" => {
                opts.queue_cap = parse_u64("--queue-cap", value("--queue-cap")?)? as usize;
            }
            "--max-inflight" => {
                opts.quota.max_inflight =
                    parse_u64("--max-inflight", value("--max-inflight")?)?.max(1) as usize;
            }
            "--max-queued" => {
                opts.quota.max_queued = parse_u64("--max-queued", value("--max-queued")?)? as usize;
            }
            "--pipeline-limit" => {
                opts.pipeline_limit =
                    parse_u64("--pipeline-limit", value("--pipeline-limit")?)?.max(1) as usize;
            }
            "--progress-ms" => {
                opts.progress_ms = Some(parse_u64("--progress-ms", value("--progress-ms")?)?);
            }
            "--deadline-ms" => {
                opts.deadline_ms = parse_u64("--deadline-ms", value("--deadline-ms")?)?;
            }
            "--overload" => overload = true,
            "--chaos" => chaos = true,
            "--chaos-seed" => {
                chaos = true;
                chaos_seed = parse_u64("--chaos-seed", value("--chaos-seed")?)?;
            }
            "--no-wal" => opts.wal = false,
            "--help" | "-h" => {
                return Err(
                    "usage: loadtest [--clients N] [--tenants N] [--jobs N] [--spin-ms N]\n\
                     \u{20}               [--workers N] [--queue-cap N] [--max-inflight N]\n\
                     \u{20}               [--max-queued N] [--pipeline-limit N] [--progress-ms N]\n\
                     \u{20}               [--deadline-ms N] [--overload] [--chaos]\n\
                     \u{20}               [--chaos-seed N] [--no-wal]"
                        .into(),
                );
            }
            other => return Err(format!("unknown argument: {other} (try --help)")),
        }
    }
    if overload {
        // Saturate: tiny queues against the full client herd.
        opts.queue_cap = opts.queue_cap.min(8);
        opts.quota = TenantQuota {
            max_inflight: 1,
            max_queued: 2,
            max_queued_bytes: opts.quota.max_queued_bytes,
        };
    }
    if chaos {
        opts.chaos_seed = Some(chaos_seed);
    }
    Ok((opts, overload))
}

fn main() -> ExitCode {
    let (opts, overload) = match parse_cli() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let report = match run_load(&opts, &mut |msg| eprintln!("[loadtest] {msg}")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadtest: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "requests={} ok={} failed={} shed={} unanswered={}",
        report.requests,
        report.ok,
        report.failed,
        report.shed_total(),
        report.unanswered
    );
    for (reason, n) in &report.shed {
        println!("  shed {reason}: {n}");
    }
    if opts.chaos_seed.is_some() {
        println!(
            "chaos: faults={} client reconnects={}",
            report.chaos_faults, report.reconnects
        );
    }
    if opts.progress_ms.is_some_and(|ms| ms > 0) {
        println!("progress frames: {}", report.progress_frames);
    }
    println!(
        "latency p50={:.2}ms p99={:.2}ms max={:.2}ms  throughput={:.0} req/s  elapsed={:.2}s",
        report.p50_ms, report.p99_ms, report.max_ms, report.requests_per_sec, report.elapsed_s
    );
    // Server-measured percentiles from the `metrics` wire op, printed
    // next to the client-measured line above (the server resolves to
    // log2 bucket edges, so its p99 may read up to 2x the client's).
    println!(
        "server  p50={:.2}ms p99={:.2}ms (from metrics op)",
        report.server_p50_ms, report.server_p99_ms
    );
    println!("peak RSS: {} MiB", report.peak_rss_bytes / (1024 * 1024));

    if report.unanswered > 0 {
        eprintln!("LOADTEST FAIL: {} requests unanswered", report.unanswered);
        return ExitCode::FAILURE;
    }
    if overload && report.shed_total() == 0 {
        eprintln!("LOADTEST FAIL: overload produced no sheds");
        return ExitCode::FAILURE;
    }
    if opts.chaos_seed.is_some() && report.chaos_faults == 0 {
        eprintln!("LOADTEST FAIL: chaos mode injected no faults");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
