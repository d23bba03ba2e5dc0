//! A campaign runs its attempts on a pool started with it: the only
//! thread it starts later is the replacement for an attempt the
//! watchdog abandons.

use std::time::Duration;

use vsnoop::experiments::RunScale;
use vsnoop::runner::{run_campaign, JobError, RunnerConfig};
use vsnoop_bench::campaign::{campaign_jobs, CampaignOptions};

#[test]
fn an_abandoned_hang_starts_exactly_one_thread_past_the_pool() {
    let opts = CampaignOptions {
        only: vec!["table2".into()],
        inject_hang: vec!["table2".into()],
        ..CampaignOptions::default()
    };
    let jobs = campaign_jobs(RunScale::quick(), &opts).expect("known artifact");
    // No grace: the pass that cancels the hung attempt also abandons it.
    let cfg = RunnerConfig {
        workers: 2,
        timeout: Some(Duration::from_millis(50)),
        grace: Duration::ZERO,
        ..RunnerConfig::default()
    };
    let report = run_campaign(&jobs, &cfg, &mut |_| {}).expect("the campaign runs");
    assert_eq!(
        report.records[0].outcome,
        Err(JobError::TimedOut { limit_ms: 50 })
    );
    assert_eq!(report.worker_spawns, 3, "two workers plus one replacement");
}
