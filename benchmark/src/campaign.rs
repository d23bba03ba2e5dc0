//! The `campaign` workload: cold passes over all fifteen paper
//! artifacts, the way the `all` binary runs them — `campaign_jobs` then
//! `run_campaign` under `RunnerConfig::default()` — timed around the
//! `run_campaign` call only.

use std::time::{Duration, Instant};

use vsnoop::experiments::RunScale;
use vsnoop::runner::{run_campaign, CampaignReport, RunnerConfig};
use vsnoop_bench::campaign::{campaign_jobs, CampaignOptions};

use crate::host::{Host, Sampler};
use crate::span::Tracer;
use crate::stats::{median, sorted};
use crate::{probes, Ctx, Report};

/// Rounds of warm-up and of measurement per cell in a timed pass. The
/// migration sweeps (fig7, fig8, fig9) measure sixteen times as many.
const PASS_ROUNDS: u64 = 250;
/// The set-up pass: the cheap simulation artifacts, so simulator, warm
/// pool and shard pool have run once before the timed pass.
const SETUP_ARTIFACTS: &[&str] = &[
    "fig1",
    "fig2_validation",
    "table4",
    "fig6",
    "table5",
    "fig10",
    "table6",
];

/// Set-ups per run: they are short and run on both CPUs, so it takes
/// a few for a steady median.
const SETUP_REPEATS: usize = 7;

/// One cold pass. Returns the report and the wall time of the
/// `run_campaign` call; with a tracer on, each job becomes a span
/// stamped from the runner's progress callback.
fn pass(
    rounds: u64,
    seed: u64,
    only: &[&str],
    tr: &mut Tracer,
    parent: u64,
) -> (CampaignReport, Duration) {
    vsnoop::clear_warm_pool();
    let scale = RunScale {
        warmup_rounds: rounds,
        measure_rounds: rounds,
        seed,
    };
    let opts = CampaignOptions {
        only: only.iter().map(|s| s.to_string()).collect(),
        ..Default::default()
    };
    let jobs = campaign_jobs(scale, &opts).expect("every artifact named here is registered");
    let mut started: Vec<(String, Instant)> = Vec::new();
    let mut job_no = 0u64;
    let t0 = Instant::now();
    let report = run_campaign(&jobs, &RunnerConfig::default(), &mut |msg: &str| {
        if !tr.enabled() {
            return;
        }
        // "job <name>: start (attempt 1)" / "job <name>: ok (attempt 1)"
        let Some((name, what)) = msg.strip_prefix("job ").and_then(|m| m.split_once(": ")) else {
            return;
        };
        if what.starts_with("start") {
            started.push((name.to_string(), Instant::now()));
        } else if let Some(i) = started.iter().position(|(n, _)| n == name) {
            let (name, t) = started.swap_remove(i);
            job_no += 1;
            tr.record(&format!("job:{name}"), parent, job_no, t, Instant::now());
        }
    })
    .expect("the campaign configuration is valid");
    (report, t0.elapsed())
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let mut tr = Tracer::new(ctx.trace);
    let mut host = Host::new();
    let root = tr.open("workload:campaign", 0, 0);
    let rounds = if ctx.quick {
        PASS_ROUNDS / 10
    } else {
        PASS_ROUNDS
    };

    let mut setups = Vec::new();
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let (wall, norm) = host.timed(|| {
            let (r, _) = pass(
                rounds,
                ctx.seed,
                SETUP_ARTIFACTS,
                &mut Tracer::new(false),
                0,
            );
            assert!(r.all_ok(), "set-up pass failed");
        });
        tr.record("setup", root, i as u64, t0, t0 + wall);
        setups.push(norm);
    }

    if ctx.trace {
        crate::program_switches(Some(ctx.out_dir.join("obs-campaign")));
    }
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut raw = Vec::new(); // wall seconds of each pass
    let mut secs = Vec::new(); // the same at nominal host speed
    let mut speeds = Vec::new();
    let mut failures = Vec::new();
    let mut last: Option<CampaignReport> = None;
    let (hits0, misses0, _) = vsnoop::warm_counters();
    // Another pass starts only if it should end inside the run.
    while raw.is_empty()
        || Instant::now() + Duration::from_secs_f64(median(&sorted(raw.clone()))) <= deadline
    {
        let span = tr.open("run_campaign", root, raw.len() as u64 + 1);
        let sampler = Sampler::start();
        let (r, wall) = pass(rounds, ctx.seed, &[], &mut tr, span);
        let speed = sampler.stop();
        tr.close(span);
        raw.push(wall.as_secs_f64());
        secs.push(wall.as_secs_f64() * speed);
        speeds.push(speed);
        if !r.all_ok() {
            failures.push(format!("pass {}: {} job(s) failed", raw.len(), r.failed()));
        }
        let mut h = crate::Fnv::default();
        h.write(r.merged_output().as_bytes());
        let d = h.hex();
        if raw.len() == 1 {
            report.note(format!("digest campaign.{:x} {d}", ctx.seed));
            if !ctx.quick {
                failures.extend(crate::check_digest(ctx, "campaign", &d));
            }
        }
        last = Some(r);
    }
    if ctx.trace {
        crate::program_switches(None);
    }
    let last = last.expect("at least one pass ran");
    report.attempted = raw.len() as u64;
    report.failed = if failures.is_empty() {
        0
    } else {
        raw.len() as u64
    };
    report.failures = failures;
    report.note(format!(
        "host speed {:.3} of nominal while passes ran; raw pass wall {:.3} s (median of {})",
        median(&sorted(speeds.clone())),
        median(&sorted(raw.clone())),
        raw.len()
    ));

    if !ctx.trace {
        report.e2e_units(&setups, &secs, 1.0, crate::peak_rss_mib());
        return;
    }

    let per_s = sorted(secs.iter().map(|s| 1.0 / s).collect());
    report.layer("host.relative_speed", median(&sorted(speeds)));
    report.layer("obs.traced_throughput", median(&per_s));
    let wall_s = |name: &str| {
        last.records
            .iter()
            .filter(|r| r.spec.name == name)
            .filter_map(|r| r.wall_ms)
            .sum::<u64>() as f64
            / 1e3
    };
    let all_s: f64 = last.records.iter().filter_map(|r| r.wall_ms).sum::<u64>() as f64 / 1e3;
    report.layer("runner.job_wall_s.fig7", wall_s("fig7"));
    report.layer("runner.job_wall_s.fig8", wall_s("fig8"));
    report.layer(
        "runner.job_wall_s.rest",
        all_s - wall_s("fig7") - wall_s("fig8"),
    );
    let (hits, misses, _) = vsnoop::warm_counters();
    let (hits, misses) = (hits - hits0, misses - misses0);
    report.layer(
        "warm.hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.layer("warm.pool_len", vsnoop::experiments::warm_pool_len() as f64);
    tr.time("probes", root, 0, || {
        probes::campaign_layers(ctx.seed, &mut host, report)
    });
    tr.close(root);
    crate::finish_trace(ctx, "campaign", &tr, report);
}
