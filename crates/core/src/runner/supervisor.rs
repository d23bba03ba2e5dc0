//! The campaign supervisor: bounded worker pool, panic isolation,
//! watchdog deadlines, retry/backoff, checkpointing, reproducers.
//!
//! Each job attempt runs on its own thread under `catch_unwind`, so a
//! panic in job 17 is converted into a typed [`JobError`] instead of
//! tearing down the whole multi-minute campaign. A watchdog cancels
//! attempts past their deadline through the job's [`CancelToken`]
//! (simulation loops poll it at round boundaries); an attempt that does
//! not respond within the grace period is *abandoned* — its thread is
//! left to die with the process and its worker slot is reclaimed, so one
//! truly hung job cannot stall the campaign. Failures are retried with
//! exponential backoff up to a bounded budget; terminal results are
//! journaled immediately and failures emit crash-reproducer files.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use super::cancel::{self, CancelToken, Cancelled};
use super::job::{Job, JobCtx, JobError, JobRecord};
use super::journal::{Journal, JournalEntry};
use super::json::Value;
use super::repro::CrashReproducer;

/// Supervision parameters for one campaign run.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Worker threads (concurrent jobs). 1 reproduces the classic
    /// serial campaign exactly.
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
}

impl CampaignReport {
    /// Jobs that succeeded.
    pub fn succeeded(&self) -> usize {
        self.records.iter().filter(|r| r.succeeded()).count()
    }

    /// Jobs that succeeded or failed only after at least one retry.
    pub fn retried(&self) -> usize {
        self.records.iter().filter(|r| r.retried()).count()
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
    /// Attempt `attempt` is running on a worker thread.
    Running {
        attempt: u32,
        token: CancelToken,
        deadline: Option<Instant>,
        cancelled_at: Option<Instant>,
        started: Instant,
    },
    /// Terminal.
    Done,
}

/// Milliseconds elapsed since `t`, saturated into `u64`.
fn elapsed_ms(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Telemetry heartbeat period: `VSNOOP_HEARTBEAT_MS`, default 1000
/// (shared warn-once knob parsing: malformed values warn on stderr and
/// keep the default).
fn heartbeat_interval() -> Duration {
    Duration::from_millis(crate::knob::env_positive_u64("VSNOOP_HEARTBEAT_MS").unwrap_or(1000))
}

/// Campaign progress counters shared with the heartbeat thread. The
/// dispatch loop is the only writer; the heartbeat tick only reads, so
/// plain relaxed atomics (and one small mutex for the name list) are
/// enough.
struct HeartbeatState {
    jobs_total: u64,
    done: AtomicU64,
    running: AtomicU64,
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
                (
                    "jobs_running",
                    Value::UInt(self.running.load(Ordering::Relaxed)),
                ),
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
        self.running.fetch_add(1, Ordering::Relaxed);
        self.running_names
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(name.to_string());
    }

    fn remove_running(&self, name: &str) {
        self.running.fetch_sub(1, Ordering::Relaxed);
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

/// Extracts a readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Installs (once, process-wide) a panic hook that stays quiet for
/// panics on supervised job threads — the supervisor reports those
/// itself — and forwards everything else to the previous hook.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !cancel::in_job() {
                prev(info);
            }
        }));
    });
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
    install_quiet_hook();
    super::arenas::cap_per_cpu();

    // Resume: restore terminal results recorded by a previous run. The
    // prior journal is loaded *before* it is reopened for appending,
    // because `Journal::open` repairs a torn trailing line (truncating
    // it) and the warning about that lost checkpoint should still reach
    // the operator.
    let mut records: Vec<Option<JobRecord>> = (0..jobs.len()).map(|_| None).collect();
    let mut slots: Vec<Slot> = Vec::with_capacity(jobs.len());
    let now = Instant::now();
    let mut resumed = 0usize;
    let prior = match (&cfg.journal_path, cfg.resume) {
        (Some(path), true) => {
            // A crash mid-append leaves a truncated trailing line; the
            // loader skips it (the job simply re-runs) but the operator
            // should hear about the lost checkpoint.
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
    let (tx, rx) = mpsc::channel::<(usize, u32, Result<String, JobError>)>();
    let limit_ms = cfg
        .timeout
        .map(|t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX));

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
        running: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        running_names: Mutex::new(Vec::new()),
    });
    let _heartbeat = if crate::obs::telemetry_active() {
        let state = Arc::clone(&hb_state);
        let mut last = Instant::now();
        let mut rounds = crate::obs::rounds_counted();
        Some(crate::obs::Heartbeat::spawn(
            "campaign",
            heartbeat_interval(),
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
                Slot::Running { started, .. } => Some(elapsed_ms(*started)),
                _ => None,
            };
            let wall_ms = first_started[idx].map(elapsed_ms);
            match outcome {
                Ok(output) => {
                    progress(&format!("job {}: ok (attempt {attempt})", job.spec.name));
                    emit_job_event(
                        "job_ok",
                        &job.spec.name,
                        attempt,
                        vec![
                            ("wall_ms", wall_ms.map_or(Value::Null, Value::UInt)),
                            ("attempt_ms", attempt_ms.map_or(Value::Null, Value::UInt)),
                        ],
                    );
                    let rec = JobRecord {
                        index: idx,
                        spec: job.spec.clone(),
                        attempts: attempt,
                        outcome: Ok(output),
                        resumed: false,
                        wall_ms,
                        attempt_ms,
                    };
                    if let Some(j) = journal.as_mut() {
                        j.append(&JournalEntry::from_record(&rec))?;
                    }
                    records[idx] = Some(rec);
                    slots[idx] = Slot::Done;
                    done += 1;
                    hb_state.done.store(done as u64, Ordering::Relaxed);
                }
                Err(err) => {
                    if attempt <= cfg.retries {
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
                                ("attempt_ms", attempt_ms.map_or(Value::Null, Value::UInt)),
                            ],
                        );
                        slots[idx] = Slot::Pending {
                            ready_at: Instant::now() + delay,
                            attempt: attempt + 1,
                        };
                    } else {
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
                                ("wall_ms", wall_ms.map_or(Value::Null, Value::UInt)),
                                ("attempt_ms", attempt_ms.map_or(Value::Null, Value::UInt)),
                            ],
                        );
                        let rec = JobRecord {
                            index: idx,
                            spec: job.spec.clone(),
                            attempts: attempt,
                            outcome: Err(err.clone()),
                            resumed: false,
                            wall_ms,
                            attempt_ms,
                        };
                        if let Some(j) = journal.as_mut() {
                            j.append(&JournalEntry::from_record(&rec))?;
                        }
                        if let Some(dir) = &cfg.repro_dir {
                            let repro = CrashReproducer::new(&job.spec, attempt, &err);
                            let path = repro.write_to(dir)?;
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
            }
        }};
    }

    while done < jobs.len() {
        // Dispatch ready jobs onto free workers, in campaign order.
        if running < cfg.workers {
            let now = Instant::now();
            let mut ready: VecDeque<usize> = (0..jobs.len())
                .filter(
                    |&i| matches!(&slots[i], Slot::Pending { ready_at, .. } if *ready_at <= now),
                )
                .collect();
            while running < cfg.workers {
                let Some(idx) = ready.pop_front() else { break };
                let Slot::Pending { attempt, .. } = slots[idx] else {
                    continue;
                };
                let token = CancelToken::new();
                let started = Instant::now();
                let deadline = cfg.timeout.map(|t| started + t);
                first_started[idx].get_or_insert(started);
                progress(&format!(
                    "job {}: start (attempt {attempt}{})",
                    jobs[idx].spec.name,
                    if attempt > 1 { ", retry" } else { "" }
                ));
                emit_job_event("job_start", &jobs[idx].spec.name, attempt, Vec::new());
                let run = jobs[idx].run.clone();
                let job_name = jobs[idx].spec.name.clone();
                let thread_token = token.clone();
                let thread_tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("job-{}", jobs[idx].spec.name))
                    .spawn(move || {
                        let ctx = JobCtx {
                            token: thread_token.clone(),
                            attempt,
                        };
                        // The job runs inside an observability scope so
                        // its flight events dump into a per-job file;
                        // the dump happens here, on the job's own
                        // thread, because the ring is thread-local and
                        // each attempt gets a fresh thread.
                        let result = cancel::with_current(thread_token, || {
                            crate::obs::with_scope(&job_name, || {
                                let r = catch_unwind(AssertUnwindSafe(|| (run)(&ctx)));
                                if let Err(payload) = &r {
                                    if crate::obs::enabled() {
                                        let reason =
                                            if payload.downcast_ref::<Cancelled>().is_some() {
                                                "timeout"
                                            } else {
                                                "panic"
                                            };
                                        crate::obs::dump_flight(reason);
                                    }
                                }
                                r
                            })
                        });
                        let outcome = match result {
                            Ok(Ok(output)) => Ok(output),
                            Ok(Err(message)) => Err(JobError::Failed { message }),
                            Err(payload) => {
                                if payload.downcast_ref::<Cancelled>().is_some() {
                                    Err(JobError::TimedOut {
                                        limit_ms: limit_ms.unwrap_or(0),
                                    })
                                } else {
                                    Err(JobError::Panicked {
                                        message: panic_message(payload.as_ref()),
                                    })
                                }
                            }
                        };
                        // The supervisor may have abandoned us; a closed
                        // channel or a stale attempt is simply ignored.
                        let _ = thread_tx.send((idx, attempt, outcome));
                    })
                    .map_err(|e| Error::other(format!("spawn failed: {e}")))?;
                slots[idx] = Slot::Running {
                    attempt,
                    token,
                    deadline,
                    cancelled_at: None,
                    started,
                };
                running += 1;
                hb_state.add_running(&jobs[idx].spec.name);
            }
        }

        // Collect one result (or time out quickly to run the watchdog).
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok((idx, attempt, outcome)) => {
                let current = matches!(
                    &slots[idx],
                    Slot::Running { attempt: a, .. } if *a == attempt
                );
                if current {
                    running -= 1;
                    hb_state.remove_running(&jobs[idx].spec.name);
                    finish!(idx, attempt, outcome);
                }
                // Otherwise: a late result from an abandoned attempt —
                // its outcome was already recorded; drop it.
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("tx kept alive above"),
        }

        // Watchdog: cancel overdue attempts; abandon unresponsive ones.
        let now = Instant::now();
        for idx in 0..jobs.len() {
            let Slot::Running {
                attempt,
                token,
                deadline,
                cancelled_at,
                ..
            } = &mut slots[idx]
            else {
                continue;
            };
            let attempt = *attempt;
            if let Some(dl) = *deadline {
                if cancelled_at.is_none() && now >= dl {
                    progress(&format!(
                        "job {}: deadline exceeded; cancelling (attempt {attempt})",
                        jobs[idx].spec.name
                    ));
                    token.cancel();
                    *cancelled_at = Some(now);
                }
            }
            if let Some(t) = *cancelled_at {
                if now >= t + cfg.grace {
                    // The job is not polling its token: abandon the
                    // thread (it dies with the process) and reclaim the
                    // worker slot.
                    progress(&format!(
                        "job {}: unresponsive after cancellation; abandoning thread \
                         (attempt {attempt})",
                        jobs[idx].spec.name
                    ));
                    emit_job_event("job_abandoned", &jobs[idx].spec.name, attempt, Vec::new());
                    running -= 1;
                    hb_state.remove_running(&jobs[idx].spec.name);
                    finish!(
                        idx,
                        attempt,
                        Err(JobError::TimedOut {
                            limit_ms: limit_ms.unwrap_or(0),
                        })
                    );
                }
            }
        }
    }

    let records: Vec<JobRecord> = records.into_iter().map(Option::unwrap).collect();
    Ok(CampaignReport {
        records,
        repro_paths,
    })
}
