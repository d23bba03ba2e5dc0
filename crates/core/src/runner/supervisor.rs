//! The campaign supervisor: bounded worker pool, retry/backoff,
//! checkpointing, reproducers.
//!
//! Each job attempt runs on a worker of the campaign's
//! [`attempt::Pool`] through the shared attempt path ([`super::attempt`]:
//! isolation, outcome, watchdog), so a panic in job 17 becomes a typed
//! [`JobError`] instead of tearing down the whole multi-minute campaign,
//! and a hung job is cancelled and, if it never polls, abandoned to a
//! replacement worker. Failures are retried with exponential backoff up to
//! a bounded budget; terminal results are journaled immediately and
//! failures emit crash-reproducer files.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::attempt::{self, Outcome, Watch};
use super::job::{Job, JobError, JobRecord};
use super::journal::{Journal, JournalEntry};
use super::json::Value;
use super::repro::CrashReproducer;

/// Supervision parameters for one campaign run.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Worker threads (concurrent jobs), started with the campaign. 1
    /// reproduces the classic serial campaign exactly.
    pub workers: usize,
    /// Per-job deadline; `None` disables the watchdog.
    pub timeout: Option<Duration>,
    /// How long after cancellation to wait for a job to unwind before
    /// abandoning its thread and reclaiming the worker slot.
    pub grace: Duration,
    /// Retry budget per job *after* the first attempt.
    pub retries: u32,
    /// First retry delay; doubles per subsequent retry.
    pub backoff_base: Duration,
    /// Checkpoint journal path; `None` keeps the campaign in memory.
    pub journal_path: Option<PathBuf>,
    /// Directory for crash-reproducer files; `None` disables them.
    pub repro_dir: Option<PathBuf>,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            workers: 1,
            timeout: None,
            grace: Duration::from_secs(2),
            retries: 0,
            backoff_base: Duration::from_millis(250),
            journal_path: None,
            repro_dir: None,
            resume: false,
        }
    }
}

/// The outcome of a supervised campaign.
#[derive(Debug)]
pub struct CampaignReport {
    /// One record per job, in campaign (definition) order.
    pub records: Vec<JobRecord>,
    /// Crash-reproducer files written this run.
    pub repro_paths: Vec<PathBuf>,
    /// Worker threads the campaign started: `workers` at start-up plus
    /// one replacement per abandoned attempt.
    pub worker_spawns: u64,
}

impl CampaignReport {
    /// Jobs that succeeded.
    pub fn succeeded(&self) -> usize {
        self.records.iter().filter(|r| r.succeeded()).count()
    }

    /// Jobs that failed terminally.
    pub fn failed(&self) -> usize {
        self.records.len() - self.succeeded()
    }

    /// Whether every job succeeded.
    pub fn all_ok(&self) -> bool {
        self.failed() == 0
    }

    /// Journal entries for every job, in campaign order (the canonical
    /// merged journal).
    pub fn entries(&self) -> Vec<JournalEntry> {
        self.records.iter().map(JournalEntry::from_record).collect()
    }

    /// The merged campaign output: every job's canonical text in
    /// campaign order. Fault-free this is byte-identical to running the
    /// jobs serially and concatenating their outputs; failed jobs are
    /// rendered as a flagged placeholder block instead of silently
    /// producing an empty report (degraded mode).
    pub fn merged_output(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            match &r.outcome {
                Ok(text) => out.push_str(text),
                Err(e) => {
                    out.push_str(&format!(
                        "\n=== {} — FAILED ===\n{} attempt(s); last error: {e}\n\
                         replay in isolation: --repro <campaign-dir>/{}\n",
                        r.spec.name,
                        r.attempts,
                        CrashReproducer::file_name(&r.spec.name),
                    ));
                }
            }
        }
        out
    }

    /// Degraded-mode summary: per-job status plus totals.
    pub fn summary(&self) -> String {
        let name_w = self
            .records
            .iter()
            .map(|r| r.spec.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:<9}  {:>8}  note\n",
            "job", "status", "attempts"
        ));
        for r in &self.records {
            let (status, note) = match &r.outcome {
                Ok(_) if r.resumed => ("ok", "resumed from journal".to_string()),
                Ok(_) if r.retried() => ("ok", "succeeded after retries".to_string()),
                Ok(_) => ("ok", String::new()),
                Err(e) if r.resumed => ("FAILED", format!("(journaled) {e}")),
                Err(e) => ("FAILED", e.to_string()),
            };
            out.push_str(&format!(
                "{:<name_w$}  {:<9}  {:>8}  {}\n",
                r.spec.name, status, r.attempts, note
            ));
        }
        let rescued = self
            .records
            .iter()
            .filter(|r| r.succeeded() && r.retried())
            .count();
        out.push_str(&format!(
            "{} job(s): {} succeeded ({} after retries), {} failed\n",
            self.records.len(),
            self.succeeded(),
            rescued,
            self.failed(),
        ));
        if !self.all_ok() {
            out.push_str("campaign completed in DEGRADED mode — see reproducer files\n");
        }
        out
    }
}

/// Per-job scheduling state inside the supervisor loop.
enum Slot {
    /// Waiting (or backing off) until `ready_at` for attempt `attempt`.
    Pending { ready_at: Instant, attempt: u32 },
    /// Attempt `attempt` is running on a pool worker.
    Running {
        attempt: u32,
        watch: Watch,
        ticket: attempt::Ticket,
    },
    /// Terminal.
    Done,
}

/// Milliseconds elapsed since `t`, saturated into `u64`.
fn elapsed_ms(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Campaign progress counters shared with the heartbeat thread. The
/// dispatch loop is the only writer; the heartbeat tick only reads, so
/// plain relaxed atomics (and one small mutex for the name list) are
/// enough.
struct HeartbeatState {
    jobs_total: u64,
    done: AtomicU64,
    retries: AtomicU64,
    running_names: Mutex<Vec<String>>,
}

impl HeartbeatState {
    /// Emits one `heartbeat` telemetry record; `last`/`rounds` are the
    /// tick's own rate-window state, advanced on every call.
    fn emit(&self, last: &mut Instant, rounds: &mut u64) {
        let rounds_now = crate::obs::rounds_counted();
        let secs = last.elapsed().as_secs_f64();
        let rounds_per_sec = if secs > 0.0 {
            ((rounds_now - *rounds) as f64 / secs) as u64
        } else {
            0
        };
        let running_jobs: Vec<Value> = self
            .running_names
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|n| Value::Str(n.clone()))
            .collect();
        let (wh, wm, we) = crate::experiments::warm_counters();
        crate::obs::telemetry::emit(
            "heartbeat",
            vec![
                ("jobs_total", Value::UInt(self.jobs_total)),
                ("jobs_done", Value::UInt(self.done.load(Ordering::Relaxed))),
                ("jobs_running", Value::UInt(running_jobs.len() as u64)),
                ("running", Value::Arr(running_jobs)),
                ("retries", Value::UInt(self.retries.load(Ordering::Relaxed))),
                ("rounds_per_sec", Value::UInt(rounds_per_sec)),
                ("rss_bytes", Value::UInt(crate::obs::current_rss_bytes())),
                ("warm_hits", Value::UInt(wh)),
                ("warm_misses", Value::UInt(wm)),
                ("warm_evictions", Value::UInt(we)),
            ],
        );
        *last = Instant::now();
        *rounds = rounds_now;
    }

    fn add_running(&self, name: &str) {
        self.running_names
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(name.to_string());
    }

    fn remove_running(&self, name: &str) {
        let mut names = self.running_names.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = names.iter().position(|n| n == name) {
            names.remove(pos);
        }
    }
}

/// Emits one structured job-lifecycle telemetry record (no-op when
/// tracing is off — `emit` returns before allocating).
fn emit_job_event(event: &str, job: &str, attempt: u32, extra: Vec<(&'static str, Value)>) {
    if !crate::obs::telemetry_active() {
        return;
    }
    let mut fields = vec![
        ("job", Value::Str(job.to_string())),
        ("attempt", Value::UInt(u64::from(attempt))),
    ];
    fields.extend(extra);
    crate::obs::telemetry::emit(event, fields);
}

/// Runs `jobs` under supervision and returns the per-job records.
///
/// `progress` receives human-readable status lines (start, retry,
/// timeout, completion); route it to stderr to keep stdout reserved for
/// the merged campaign output.
///
/// # Errors
///
/// Returns an error for an invalid configuration (zero workers,
/// duplicate job names) or for journal/reproducer IO failures. Job
/// failures are *not* errors — they are recorded in the report
/// (degraded mode).
pub fn run_campaign(
    jobs: &[Job],
    cfg: &RunnerConfig,
    progress: &mut dyn FnMut(&str),
) -> std::io::Result<CampaignReport> {
    use std::io::{Error, ErrorKind};

    if cfg.workers == 0 {
        return Err(Error::new(ErrorKind::InvalidInput, "workers must be >= 1"));
    }
    for (i, a) in jobs.iter().enumerate() {
        for b in &jobs[..i] {
            if a.spec.name == b.spec.name {
                return Err(Error::new(
                    ErrorKind::InvalidInput,
                    format!("duplicate job name: {}", a.spec.name),
                ));
            }
        }
    }
    super::arenas::cap_per_cpu();

    // Resume: restore terminal results recorded by a previous run. The
    // prior journal is loaded *before* it is reopened for appending,
    // because `Journal::open` repairs a torn trailing line (truncating
    // it) and the operator should still hear about that lost checkpoint
    // (the job simply re-runs).
    let mut records: Vec<Option<JobRecord>> = (0..jobs.len()).map(|_| None).collect();
    let mut slots: Vec<Slot> = Vec::with_capacity(jobs.len());
    let now = Instant::now();
    let mut resumed = 0usize;
    let prior = match (&cfg.journal_path, cfg.resume) {
        (Some(path), true) => {
            let (prior, warnings) = Journal::load_with_warnings(path)?;
            for w in &warnings {
                progress(&format!("resume: {w}"));
            }
            prior
        }
        _ => Vec::new(),
    };
    let mut journal = match &cfg.journal_path {
        Some(path) => Some(Journal::open(path, !cfg.resume)?),
        None => None,
    };
    for (idx, job) in jobs.iter().enumerate() {
        let hit = prior
            .iter()
            .find(|e| e.index == idx && e.job == job.spec.name && e.seed == job.spec.seed);
        match hit {
            Some(e) => {
                records[idx] = Some(JobRecord {
                    index: idx,
                    spec: job.spec.clone(),
                    attempts: e.attempts,
                    outcome: e.outcome.clone(),
                    resumed: true,
                    wall_ms: e.wall_ms,
                    attempt_ms: e.attempt_ms,
                });
                slots.push(Slot::Done);
                resumed += 1;
            }
            None => slots.push(Slot::Pending {
                ready_at: now,
                attempt: 1,
            }),
        }
    }
    if resumed > 0 {
        progress(&format!(
            "resume: {resumed}/{} job(s) restored from {}",
            jobs.len(),
            cfg.journal_path
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        ));
    }

    let mut repro_paths = Vec::new();
    let (tx, rx) = mpsc::channel::<(usize, u32, Outcome)>();
    let pool = attempt::Pool::start(cfg.workers, "vsnoop-job")
        .map_err(|e| Error::other(format!("spawn failed: {e}")))?;

    // Wall-clock bookkeeping for journal records and telemetry: when
    // each job was first dispatched (spanning retries and backoff).
    let mut first_started: Vec<Option<Instant>> = vec![None; jobs.len()];

    // FIFO of job indices ready to start keeps campaign order; backoff
    // re-entries are appended when their delay elapses.
    let mut done = slots.iter().filter(|s| matches!(s, Slot::Done)).count();
    let mut running = 0usize;

    // Telemetry heartbeat: a side thread emits progress/rate/RSS
    // records every interval, reading the shared counters the dispatch
    // loop keeps current. The thread is joined (bounded) when this
    // function returns — detaching it would leak one thread per
    // campaign in embedders and let a late tick write into a trace
    // directory the embedder is already tearing down.
    let hb_state = Arc::new(HeartbeatState {
        jobs_total: jobs.len() as u64,
        done: AtomicU64::new(done as u64),
        retries: AtomicU64::new(0),
        running_names: Mutex::new(Vec::new()),
    });
    let _heartbeat = if crate::obs::telemetry_active() {
        let state = Arc::clone(&hb_state);
        let mut last = Instant::now();
        let mut rounds = crate::obs::rounds_counted();
        Some(crate::obs::Heartbeat::spawn(
            "campaign",
            crate::knob::heartbeat(),
            move || {
                state.emit(&mut last, &mut rounds);
                crate::obs::metrics::write_prom_if_traced();
            },
        ))
    } else {
        None
    };

    // The terminal-result handler, shared by the normal path and the
    // watchdog's abandonment path.
    macro_rules! finish {
        ($idx:expr, $attempt:expr, $outcome:expr) => {{
            let idx: usize = $idx;
            let attempt: u32 = $attempt;
            let outcome: Result<String, JobError> = $outcome;
            let job = &jobs[idx];
            // The slot is still `Running` here on both the normal and
            // the abandonment path; its start time dates the attempt.
            let attempt_ms = match &slots[idx] {
                Slot::Running { watch, .. } => Some(elapsed_ms(watch.started)),
                _ => None,
            };
            let wall_ms = first_started[idx].map(elapsed_ms);
            let ms = |v: Option<u64>| v.map_or(Value::Null, Value::UInt);
            match &outcome {
                Err(err) if attempt <= cfg.retries => {
                    hb_state.retries.fetch_add(1, Ordering::Relaxed);
                    let shift = (attempt - 1).min(16);
                    let delay = cfg.backoff_base.saturating_mul(1u32 << shift);
                    progress(&format!(
                        "job {}: {} (attempt {attempt}); retrying in {:?}",
                        job.spec.name, err, delay
                    ));
                    emit_job_event(
                        "job_retry",
                        &job.spec.name,
                        attempt,
                        vec![
                            ("error_kind", Value::Str(err.kind().to_string())),
                            ("error", Value::Str(err.to_string())),
                            ("attempt_ms", ms(attempt_ms)),
                        ],
                    );
                    slots[idx] = Slot::Pending {
                        ready_at: Instant::now() + delay,
                        attempt: attempt + 1,
                    };
                }
                _ => {
                    match &outcome {
                        Ok(_) => {
                            progress(&format!("job {}: ok (attempt {attempt})", job.spec.name));
                            emit_job_event(
                                "job_ok",
                                &job.spec.name,
                                attempt,
                                vec![("wall_ms", ms(wall_ms)), ("attempt_ms", ms(attempt_ms))],
                            );
                        }
                        Err(err) => {
                            progress(&format!(
                                "job {}: {} (attempt {attempt}); retry budget exhausted",
                                job.spec.name, err
                            ));
                            emit_job_event(
                                "job_failed",
                                &job.spec.name,
                                attempt,
                                vec![
                                    ("error_kind", Value::Str(err.kind().to_string())),
                                    ("error", Value::Str(err.to_string())),
                                    ("wall_ms", ms(wall_ms)),
                                    ("attempt_ms", ms(attempt_ms)),
                                ],
                            );
                        }
                    }
                    let rec = JobRecord {
                        index: idx,
                        spec: job.spec.clone(),
                        attempts: attempt,
                        outcome,
                        resumed: false,
                        wall_ms,
                        attempt_ms,
                    };
                    if let Some(j) = journal.as_mut() {
                        j.append(&JournalEntry::from_record(&rec))?;
                    }
                    if let (Err(err), Some(dir)) = (&rec.outcome, &cfg.repro_dir) {
                        let path = CrashReproducer::new(&job.spec, attempt, err).write_to(dir)?;
                        progress(&format!(
                            "job {}: crash reproducer written to {}",
                            job.spec.name,
                            path.display()
                        ));
                        repro_paths.push(path);
                    }
                    records[idx] = Some(rec);
                    slots[idx] = Slot::Done;
                    done += 1;
                    hb_state.done.store(done as u64, Ordering::Relaxed);
                }
            }
        }};
    }

    while done < jobs.len() {
        // Dispatch ready jobs onto free workers, in campaign order.
        let now = Instant::now();
        for idx in 0..jobs.len() {
            if running >= cfg.workers {
                break;
            }
            let Slot::Pending { ready_at, attempt } = slots[idx] else {
                continue;
            };
            if ready_at > now {
                continue;
            }
            let watch = Watch::start(Instant::now(), cfg.timeout);
            first_started[idx].get_or_insert(watch.started);
            progress(&format!(
                "job {}: start (attempt {attempt}{})",
                jobs[idx].spec.name,
                if attempt > 1 { ", retry" } else { "" }
            ));
            emit_job_event("job_start", &jobs[idx].spec.name, attempt, Vec::new());
            let run = jobs[idx].run.clone();
            let ctx = attempt::Context::job(&watch.token, &jobs[idx].spec.name, None);
            let worker_tx = tx.clone();
            let ticket = pool.submit(Box::new(move || {
                let outcome = attempt::run(&ctx, &run, attempt);
                // The supervisor may have abandoned us; a closed
                // channel or a stale attempt is simply ignored.
                let _ = worker_tx.send((idx, attempt, outcome));
            }));
            slots[idx] = Slot::Running {
                attempt,
                watch,
                ticket,
            };
            running += 1;
            hb_state.add_running(&jobs[idx].spec.name);
        }

        // Sleep until a result arrives or the earliest timer is due: a
        // deadline, an abandonment, or (with a worker free) the end of a
        // backoff.
        let next_timer = slots
            .iter()
            .flat_map(|slot| match slot {
                Slot::Running { watch, .. } => [watch.deadline_at(), watch.abandon_at(cfg.grace)],
                Slot::Pending { ready_at, .. } if running < cfg.workers => [Some(*ready_at), None],
                _ => [None, None],
            })
            .flatten()
            .min();
        let woken = match next_timer {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        match woken {
            Ok((idx, attempt, outcome)) => match &slots[idx] {
                Slot::Running {
                    attempt: a, watch, ..
                } if *a == attempt => {
                    let timed_out = watch.timed_out();
                    running -= 1;
                    hb_state.remove_running(&jobs[idx].spec.name);
                    finish!(idx, attempt, outcome.into_result(timed_out));
                }
                // A late result from an abandoned attempt: its outcome
                // was already recorded; drop it.
                _ => {}
            },
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => unreachable!("tx kept alive above"),
        }

        // Watchdog: cancel overdue attempts; abandon unresponsive ones.
        let now = Instant::now();
        for idx in 0..jobs.len() {
            let Slot::Running {
                attempt,
                watch,
                ticket,
            } = &mut slots[idx]
            else {
                continue;
            };
            let attempt = *attempt;
            if watch.deadline_at().is_some_and(|at| now >= at) {
                progress(&format!(
                    "job {}: deadline exceeded; cancelling (attempt {attempt})",
                    jobs[idx].spec.name
                ));
                watch.cancel(now);
            }
            if watch.abandon_at(cfg.grace).is_some_and(|at| now >= at) {
                // The job is not polling its token: give its worker up
                // to a replacement and reclaim the slot.
                progress(&format!(
                    "job {}: unresponsive after cancellation; abandoning thread \
                     (attempt {attempt})",
                    jobs[idx].spec.name
                ));
                pool.abandon(ticket)
                    .map_err(|e| Error::other(format!("spawn failed: {e}")))?;
                let timed_out = watch.timed_out();
                emit_job_event("job_abandoned", &jobs[idx].spec.name, attempt, Vec::new());
                running -= 1;
                hb_state.remove_running(&jobs[idx].spec.name);
                finish!(idx, attempt, Err(timed_out));
            }
        }
    }

    let records: Vec<JobRecord> = records.into_iter().map(Option::unwrap).collect();
    Ok(CampaignReport {
        records,
        repro_paths,
        worker_spawns: pool.spawns(),
    })
}
