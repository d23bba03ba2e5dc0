//! The experiment campaign: every paper artifact as a supervised job.
//!
//! `ARTIFACTS` is the one registry of paper artifacts. Job order is
//! the paper's presentation order; the merged campaign output
//! concatenates the jobs' canonical report text in this order, so a
//! fault-free supervised run is byte-identical at any worker count, and
//! `all --only <name>` prints exactly `reports::<name>`.
//!
//! The `inject_*` options exist for the campaign's own robustness
//! smoke tests (and `scripts/verify.sh`): they wrap the named jobs with
//! a deterministic panic, a cooperative hang, or a fails-then-succeeds
//! flake, exercising panic isolation, the watchdog, and the retry path
//! against the real job registry rather than synthetic fixtures.

use vsnoop::experiments::RunScale;
use vsnoop::runner::{json::Value, CrashReproducer, Job, JobCtx};

use crate::reports;

/// One report generator: takes the campaign scale, returns canonical
/// report text.
pub type ReportFn = fn(RunScale) -> Result<String, String>;

/// `(name, generator, uses_scale, migration)` — `uses_scale` marks jobs
/// whose work actually depends on the run scale (for the step window);
/// `migration` marks jobs running at the x16 migration scale.
const ARTIFACTS: &[(&str, ReportFn, bool, bool)] = &[
    ("fig1", reports::fig1, true, false),
    ("fig2", reports::fig2, false, false),
    ("fig2_validation", reports::fig2_validation, true, false),
    ("fig3", reports::fig3, false, false),
    ("table1", reports::table1, false, false),
    ("table2", reports::table2, false, false),
    ("table3", reports::table3, false, false),
    ("table4", reports::table4, true, false),
    ("fig6", reports::fig6, true, false),
    ("fig7", reports::fig7, true, true),
    ("fig8", reports::fig8, true, true),
    ("fig9", reports::fig9, true, true),
    ("table5", reports::table5, true, false),
    ("fig10", reports::fig10, true, false),
    ("table6", reports::table6, true, false),
];

/// Campaign-assembly options.
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// Restrict to these job names (empty = all), preserving campaign
    /// order.
    pub only: Vec<String>,
    /// Self-test: named jobs panic deterministically.
    pub inject_panic: Vec<String>,
    /// Self-test: named jobs hang (polling their token) until cancelled.
    pub inject_hang: Vec<String>,
    /// Self-test: named jobs fail on attempt 1 and succeed from
    /// attempt 2.
    pub inject_flaky: Vec<String>,
}

/// Every artifact name, in campaign order.
pub fn artifact_names() -> Vec<&'static str> {
    ARTIFACTS.iter().map(|a| a.0).collect()
}

fn spec_params(scale: RunScale, inject: Option<&str>) -> Value {
    let mut pairs = vec![
        ("warmup", Value::UInt(scale.warmup_rounds)),
        ("measure", Value::UInt(scale.measure_rounds)),
        ("scale_seed", Value::UInt(scale.seed)),
    ];
    // Injections are part of the job's identity: a reproducer written for
    // an injected failure must replay the injection, not the clean job.
    if let Some(kind) = inject {
        pairs.push(("inject", Value::Str(kind.to_string())));
    }
    Value::obj(pairs)
}

fn build_job(
    name: &'static str,
    run: ReportFn,
    uses_scale: bool,
    migration: bool,
    scale: RunScale,
    opts: &CampaignOptions,
) -> Job {
    let inject_panic = opts.inject_panic.iter().any(|n| n == name);
    let inject_hang = opts.inject_hang.iter().any(|n| n == name);
    let inject_flaky = opts.inject_flaky.iter().any(|n| n == name);
    let inject = if inject_panic {
        Some("panic")
    } else if inject_hang {
        Some("hang")
    } else if inject_flaky {
        Some("flaky")
    } else {
        None
    };
    let params = spec_params(scale, inject);
    let job = Job::new(name, scale.seed, params, move |ctx: &JobCtx| {
        if inject_panic {
            panic!("injected panic (campaign self-test)");
        }
        if inject_hang {
            loop {
                ctx.checkpoint();
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        if inject_flaky && ctx.attempt == 1 {
            return Err("injected flake (campaign self-test, attempt 1)".into());
        }
        run(scale)
    });
    if uses_scale {
        let effective = if migration {
            scale.for_migration()
        } else {
            scale
        };
        job.with_step_window(
            effective.warmup_rounds,
            effective.warmup_rounds + effective.measure_rounds,
        )
    } else {
        job
    }
}

/// Builds the campaign's job list for `scale`, honoring `opts`.
///
/// # Errors
///
/// Returns the offending name if `opts.only` or an injection list names
/// an unknown artifact (the message lists valid names).
pub fn campaign_jobs(scale: RunScale, opts: &CampaignOptions) -> Result<Vec<Job>, String> {
    for list in [
        &opts.only,
        &opts.inject_panic,
        &opts.inject_hang,
        &opts.inject_flaky,
    ] {
        for n in list {
            if !ARTIFACTS.iter().any(|a| a.0 == n) {
                return Err(format!(
                    "unknown artifact \"{n}\" (available: {})",
                    artifact_names().join(", ")
                ));
            }
        }
    }
    Ok(ARTIFACTS
        .iter()
        .filter(|(name, ..)| opts.only.is_empty() || opts.only.iter().any(|n| n == name))
        .map(|&(name, run, uses_scale, migration)| {
            build_job(name, run, uses_scale, migration, scale, opts)
        })
        .collect())
}

/// Rebuilds the single job a crash reproducer describes, at the scale
/// recorded in the reproducer (falling back to `fallback_scale` for any
/// missing field).
///
/// # Errors
///
/// Returns a message if the reproducer names an unknown artifact.
pub fn job_from_repro(repro: &CrashReproducer, fallback_scale: RunScale) -> Result<Job, String> {
    let p = &repro.spec.params;
    let scale = RunScale {
        warmup_rounds: p
            .get("warmup")
            .and_then(Value::as_u64)
            .unwrap_or(fallback_scale.warmup_rounds),
        measure_rounds: p
            .get("measure")
            .and_then(Value::as_u64)
            .unwrap_or(fallback_scale.measure_rounds),
        seed: p
            .get("scale_seed")
            .and_then(Value::as_u64)
            .unwrap_or(repro.spec.seed),
    };
    let mut opts = CampaignOptions {
        only: vec![repro.spec.name.clone()],
        ..Default::default()
    };
    match p.get("inject").and_then(Value::as_str) {
        Some("panic") => opts.inject_panic.push(repro.spec.name.clone()),
        Some("hang") => opts.inject_hang.push(repro.spec.name.clone()),
        Some("flaky") => opts.inject_flaky.push(repro.spec.name.clone()),
        _ => {}
    }
    let mut jobs = campaign_jobs(scale, &opts)?;
    if jobs.is_empty() {
        return Err(format!(
            "reproducer names unknown artifact \"{}\" (available: {})",
            repro.spec.name,
            artifact_names().join(", ")
        ));
    }
    Ok(jobs.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunScale {
        RunScale {
            warmup_rounds: 10,
            measure_rounds: 10,
            seed: 7,
        }
    }

    #[test]
    fn campaign_order_matches_the_paper() {
        let names = artifact_names();
        assert_eq!(names.len(), 15);
        assert_eq!(names[0], "fig1");
        assert_eq!(names[14], "table6");
        let jobs = campaign_jobs(quick(), &CampaignOptions::default()).unwrap();
        assert_eq!(jobs.len(), 15);
        assert!(jobs.iter().zip(names).all(|(j, n)| j.spec.name == n));
    }

    #[test]
    fn only_filters_and_validates() {
        let opts = CampaignOptions {
            only: vec!["table2".into(), "fig2".into()],
            ..Default::default()
        };
        let jobs = campaign_jobs(quick(), &opts).unwrap();
        let names: Vec<_> = jobs.iter().map(|j| j.spec.name.as_str()).collect();
        assert_eq!(names, ["fig2", "table2"], "campaign order preserved");

        let bad = CampaignOptions {
            only: vec!["fig99".into()],
            ..Default::default()
        };
        let err = campaign_jobs(quick(), &bad).unwrap_err();
        assert!(err.contains("fig99") && err.contains("fig1"), "{err}");
    }

    #[test]
    fn step_windows_cover_warmup_plus_measure() {
        let jobs = campaign_jobs(quick(), &CampaignOptions::default()).unwrap();
        let fig1 = jobs.iter().find(|j| j.spec.name == "fig1").unwrap();
        assert_eq!(fig1.spec.step_window, Some((10, 20)));
        let table2 = jobs.iter().find(|j| j.spec.name == "table2").unwrap();
        assert_eq!(table2.spec.step_window, None, "analytic job has no window");
        let fig7 = jobs.iter().find(|j| j.spec.name == "fig7").unwrap();
        let (start, end) = fig7.spec.step_window.unwrap();
        assert!(end - start > 20, "migration jobs run the x16 scale");
    }
}
