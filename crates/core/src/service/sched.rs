//! The service core: one thread that owns admission, the idempotency
//! map, the waiters and dispatch onto the server's worker pool, which
//! runs each job on the runner's attempt path
//! ([`crate::runner::attempt`]: context, isolation, outcome, watchdog,
//! and the [`Pool`](attempt::Pool) of `workers` parked threads started
//! with the server). It also collects completions, streams `progress`
//! frames and runs the drain. No thread starts per job: only a job the
//! watchdog abandons gets its worker replaced.
//!
//! The loop is purely event-driven. Everything it must react to arrives
//! as a [`SchedMsg`] on one channel — a submit or `status` the reactor
//! parsed, a worker finished, a drain was requested — and between
//! messages it sleeps until the earliest armed timer ([`next_wakeup`]):
//! a running job's deadline, the end of its cancel grace, its next
//! `progress` frame, or the end of the drain grace. With nothing running
//! and no drain under way no timer is armed and the thread blocks: an
//! idle server does no core work at all.
//!
//! Each loop turn, in order:
//!
//! 1. handles every message already queued (plus due timers and, once
//!    draining, the queue's evictions), collecting WAL records and reply
//!    lines instead of writing them;
//! 2. writes the turn's WAL records and syncs once
//!    ([`Wal::append_all`]);
//! 3. publishes the turn's replies to the connections' outboxes;
//! 4. dispatches onto free workers.
//!
//! So no `accepted` or `done` reaches a client before its record is
//! durable, and no job is dispatched before its `accepted` is
//! published: a `done` can never overtake it.
//!
//! Every state transition of [`Scheduler`] takes `now` as a parameter
//! and jobs reach the pool through an injectable [`Submitter`], so the
//! unit tests below drive admission, deduplication, deadlines, progress
//! frames and the drain single-threaded on a made-up clock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::obs::metrics;
use crate::runner::attempt::{self, Outcome, Watch};
use crate::runner::json::Value;
use crate::runner::{Job, JobError, Journal, JournalEntry};

use super::protocol::{self, ShedReason, Submit, TenantStatus};
use super::quota::Admission;
use super::server::{send_line, ConnWriter, JobFactory, ServiceConfig, ServiceReport, Shared};
use super::wal::{PendingRecovery, Wal, WalRecord, WalState};

/// What wakes the core. Every producer that changes what it must do
/// sends one of these; nothing is discovered by polling.
pub(super) enum SchedMsg {
    /// A submit the reactor parsed.
    Submit {
        submit: Submit,
        /// The request line's length, accounted against the tenant's
        /// byte quota.
        bytes: usize,
        writer: ConnWriter,
        /// When the reactor parsed the request — admission wait and the
        /// end-to-end server-side latency both start here.
        received: Instant,
        /// Whether the reactor took one of the connection's pipeline
        /// slots for it. Every path that answers terminally returns a
        /// slot it holds; without one only a duplicate of a known
        /// idempotency key is answered, anything else sheds
        /// `pipeline_full`.
        slot: bool,
    },
    /// A `status` request, answered on its connection.
    Status(ConnWriter),
    /// Job `.0`'s worker finished it.
    Completed(u64, Outcome),
    /// Begin the graceful drain.
    Stop,
    /// The reactor forwards nothing after this: answer every earlier
    /// message, acknowledge, and exit.
    Exit(Sender<()>),
}

/// Hands a job's `body` to a worker of `pool`. The core goes through
/// this seam so a test can refuse a job, never run it, or run it
/// inline.
type Submitter = fn(&attempt::Pool, attempt::Task) -> std::io::Result<attempt::Ticket>;

/// The production [`Submitter`]: the job waits for the next parked
/// worker. Workers are never joined: a job that never polls its token is
/// abandoned to a replacement worker instead.
fn to_pool(pool: &attempt::Pool, body: attempt::Task) -> std::io::Result<attempt::Ticket> {
    Ok(pool.submit(body))
}

/// An admitted-but-undispatched job. `writer` is `None` for jobs
/// re-enqueued from the WAL at startup — their submitting connection
/// died with the old process; a resubmit with the same idempotency key
/// re-attaches via the waiter list.
pub(super) struct Pending {
    job_id: u64,
    job: Job,
    deadline: Duration,
    tag: Option<String>,
    idem_key: Option<String>,
    writer: Option<ConnWriter>,
    /// When the reactor parsed the originating submit (`None` for jobs
    /// re-enqueued from the WAL — their submit predates this process).
    received: Option<Instant>,
    /// When the job became dispatchable: set once its turn's WAL
    /// records are durable and its `accepted` is published, and shared
    /// by every job of that turn. Dispatch turns the difference into the
    /// queue-wait metric.
    queued: Arc<OnceLock<Instant>>,
}

/// One idempotency key's lifecycle. Keys move `InFlight` → `Done` and
/// are then retained (bounded by `idem_cap`) so a late resubmission
/// gets the original outcome instead of a second run.
enum IdemState {
    /// The keyed job is queued or running under this id.
    InFlight { job_id: u64 },
    Done {
        job_id: u64,
        job: String,
        outcome: Result<String, JobError>,
    },
}

/// The idempotency-key table: key → lifecycle state, with FIFO
/// eviction of completed entries once past the cap. In-flight entries
/// are never evicted — they are exactly the keys a reconnecting client
/// is about to resend.
#[derive(Default)]
struct IdemMap {
    entries: HashMap<String, IdemState>,
    done_order: VecDeque<String>,
}

impl IdemMap {
    /// Marks `key` completed, evicting the oldest completed entries
    /// beyond `cap`.
    fn record_done(
        &mut self,
        key: String,
        job_id: u64,
        job: String,
        outcome: Result<String, JobError>,
        cap: usize,
    ) {
        self.entries.insert(
            key.clone(),
            IdemState::Done {
                job_id,
                job,
                outcome,
            },
        );
        self.done_order.push_back(key);
        while self.done_order.len() > cap {
            if let Some(old) = self.done_order.pop_front() {
                if matches!(self.entries.get(&old), Some(IdemState::Done { .. })) {
                    self.entries.remove(&old);
                }
            }
        }
    }
}

/// A reply held until its turn commits.
struct Reply {
    writer: ConnWriter,
    line: Line,
    /// The line answers its submit terminally: publishing it returns the
    /// connection's pipeline slot.
    release: bool,
}

/// What a [`Reply`] says.
enum Line {
    /// A fresh acceptance: `accepted` once the turn's WAL write
    /// succeeded, else a retryable `wal_failed` error (the job still
    /// runs, and a keyed retry dedups against it, so the failure
    /// degrades durability without breaking no-duplication).
    Accepted {
        job_id: u64,
        tag: Option<String>,
    },
    Text(String),
}

/// The core's totals, republished after every turn for the heartbeat
/// thread: the core is the only writer.
#[derive(Default)]
pub(super) struct Gauges {
    queued: AtomicU64,
    running: AtomicU64,
    done: AtomicU64,
    shed: AtomicU64,
    draining: AtomicBool,
}

/// Why a running job's token was cancelled.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CancelCause {
    Deadline,
    Drain,
}

/// Core-side record of a running job.
struct Running {
    tenant: String,
    name: String,
    seed: u64,
    watch: Watch,
    /// The pool's handle on the job's task, for the watchdog.
    ticket: attempt::Ticket,
    tag: Option<String>,
    idem_key: Option<String>,
    writer: Option<ConnWriter>,
    /// See [`Pending::received`].
    received: Option<Instant>,
    cancel_cause: Option<CancelCause>,
    /// Last time a `progress` frame was streamed to the submitter.
    last_progress: Instant,
}

/// A running job's timers — its watch's deadline and abandonment, and
/// its `progress` cadence — are what the watchdog fires on and
/// [`next_wakeup`] sleeps until, so none is slept through or spins.
impl Running {
    /// Cancels the job's token at `now` for `cause`, unless something
    /// already has.
    fn cancel(&mut self, cause: CancelCause, now: Instant) {
        if self.cancel_cause.is_none() {
            self.watch.cancel(now);
            self.cancel_cause = Some(cause);
        }
    }

    /// What the job's cancellation means, with `drain_reason` as the
    /// reason of a drain cancellation.
    fn cancel_error(&self, drain_reason: &str) -> JobError {
        match self.cancel_cause {
            Some(CancelCause::Drain) => JobError::Cancelled {
                reason: drain_reason.into(),
            },
            _ => self.watch.timed_out(),
        }
    }

    /// When the next `progress` frame is due (never, for a job with no
    /// connection to stream to).
    fn progress_at(&self, cfg: &ServiceConfig) -> Option<Instant> {
        (cfg.progress_interval > Duration::ZERO && self.writer.is_some())
            .then(|| self.last_progress + cfg.progress_interval)
    }
}

/// The instant the core must next act with no message to prompt it: the
/// earliest armed timer of any running job, or `drain_cancel_at` (the
/// end of the drain grace, while that is still pending). `None` means
/// nothing is armed and the wait may block.
fn next_wakeup(
    running: &HashMap<u64, Running>,
    drain_cancel_at: Option<Instant>,
    cfg: &ServiceConfig,
) -> Option<Instant> {
    running
        .values()
        .flat_map(|r| {
            [
                r.watch.deadline_at(),
                r.watch.abandon_at(cfg.cancel_grace),
                r.progress_at(cfg),
            ]
        })
        .chain([drain_cancel_at])
        .flatten()
        .min()
}

/// The core's state machine, one step per method; [`scheduler_loop`]
/// owns the waiting.
struct Scheduler {
    shared: Arc<Shared>,
    factory: JobFactory,
    admission: Admission<Pending>,
    idem: IdemMap,
    /// Extra connections waiting on a job's terminal outcome: resubmits
    /// of an in-flight idempotency key (typically a client that
    /// reconnected after losing the original connection). Each waiter
    /// gets the `done` line with its own tag.
    waiters: HashMap<u64, Vec<(ConnWriter, Option<String>)>>,
    next_job_id: u64,
    /// Jobs cancelled by the drain or a deadline.
    cancelled: u64,
    /// Jobs re-enqueued from the write-ahead log at startup.
    recovered: u64,
    wal: Option<Wal>,
    /// The core is the journal's only writer.
    journal: Option<Journal>,
    running: HashMap<u64, Running>,
    submit: Submitter,
    draining: bool,
    /// When the drain stops waiting for natural finishes and cancels
    /// every running token; taken once it has.
    drain_cancel_at: Option<Instant>,
    /// The open turn: WAL records, journal entries and replies, written
    /// in that order by [`commit`](Self::commit).
    records: Vec<WalRecord>,
    entries: Vec<JournalEntry>,
    replies: Vec<Reply>,
    /// The [`Pending::queued`] stamp of the jobs accepted this turn.
    stamp: Option<Arc<OnceLock<Instant>>>,
    /// Set by [`SchedMsg::Exit`]: the reactor is waiting for this
    /// acknowledgement.
    exit: Option<Sender<()>>,
}

impl Scheduler {
    /// A core resuming from `state`, a replayed WAL: its keyed
    /// completions answer duplicates, job ids resume above its
    /// high-water mark, and its pending jobs are re-enqueued under their
    /// original tenants and ids, ahead of any new submit.
    fn new(
        shared: Arc<Shared>,
        factory: JobFactory,
        wal: Option<Wal>,
        state: WalState,
        submit: Submitter,
    ) -> Scheduler {
        let cfg = &shared.cfg;
        let journal = cfg.journal_path.as_deref().and_then(|p| {
            Journal::open_with_sync(p, false, cfg.sync)
                .map_err(|e| eprintln!("service: journal {}: {e}", p.display()))
                .ok()
        });
        let mut core = Scheduler {
            admission: Admission::new(cfg.queue_cap, cfg.quota),
            idem: IdemMap::default(),
            waiters: HashMap::new(),
            next_job_id: state.max_job_id + 1,
            cancelled: 0,
            recovered: 0,
            wal,
            journal,
            running: HashMap::new(),
            submit,
            draining: false,
            drain_cancel_at: None,
            records: Vec::new(),
            entries: Vec::new(),
            replies: Vec::new(),
            stamp: None,
            exit: None,
            shared,
            factory,
        };
        let cap = core.shared.cfg.idem_cap;
        for (key, rec) in state.completed {
            core.idem
                .record_done(key, rec.job_id, rec.job, rec.outcome, cap);
        }
        let now = Instant::now();
        for p in state.pending {
            core.recover(p, now);
        }
        core
    }

    /// Re-enqueues one job from the WAL, bypassing the shed checks (its
    /// acceptance predates the crash). A job the factory no longer
    /// builds (the registry changed across the restart) is terminally
    /// failed instead — durably, so it never replays again: "exactly one
    /// terminal outcome per accepted job" has to hold even for work that
    /// can no longer run.
    fn recover(&mut self, p: PendingRecovery, now: Instant) {
        let submit = Submit {
            tenant: p.tenant.clone(),
            job: p.job.clone(),
            params: p.params.clone(),
            deadline_ms: p.deadline_ms,
            tag: None,
            idem_key: p.idem_key.clone(),
        };
        let job = match (self.factory)(&submit) {
            Ok(job) => job,
            Err(message) => {
                let error = JobError::Failed {
                    message: format!("recovery: job no longer buildable: {message}"),
                };
                self.finish_job(
                    &p.tenant,
                    p.job_id,
                    &p.job,
                    0,
                    &None,
                    &p.idem_key,
                    &None,
                    Err(error),
                );
                return;
            }
        };
        if let Some(key) = &p.idem_key {
            self.idem
                .entries
                .insert(key.clone(), IdemState::InFlight { job_id: p.job_id });
        }
        let pending = Pending {
            job_id: p.job_id,
            job,
            deadline: p
                .deadline_ms
                .map_or(self.shared.cfg.default_deadline, Duration::from_millis),
            tag: None,
            idem_key: p.idem_key,
            writer: None,
            received: None,
            queued: Arc::new(OnceLock::from(now)),
        };
        self.admission.restore(&p.tenant, pending, p.bytes as usize);
        if self.wal.is_some() {
            self.records.push(WalRecord::Recovered { job_id: p.job_id });
        }
        if crate::obs::telemetry_active() {
            crate::obs::telemetry::emit(
                "service_recovered",
                vec![
                    ("job_id", Value::UInt(p.job_id)),
                    ("tenant", Value::Str(p.tenant)),
                    ("job", Value::Str(p.job)),
                ],
            );
        }
        self.recovered += 1;
    }

    /// Step 1 of a turn, once per queued message.
    fn handle(&mut self, msg: SchedMsg, now: Instant) {
        match msg {
            SchedMsg::Submit {
                submit,
                bytes,
                writer,
                received,
                slot,
            } => self.handle_submit(submit, bytes, &writer, received, slot, now),
            SchedMsg::Status(writer) => {
                let line = self.status_line();
                self.reply(&writer, Line::Text(line), false);
            }
            SchedMsg::Completed(job_id, outcome) => {
                // An abandoned job's late completion: its record is
                // gone; drop the message.
                if let Some(run) = self.running.remove(&job_id) {
                    let outcome = outcome.into_result(run.cancel_error("drain"));
                    self.finish_running(job_id, run, outcome, now);
                }
            }
            SchedMsg::Stop => {
                if !self.draining {
                    self.draining = true;
                    self.drain_cancel_at = Some(now + self.shared.cfg.drain_grace);
                    self.admission.set_draining();
                }
            }
            SchedMsg::Exit(ack) => self.exit = Some(ack),
        }
    }

    /// Admission for one submit: dedup on the idempotency key, build
    /// the job, offer it to the queue, and hold its WAL `accepted`
    /// record and its `accepted` line for the turn's commit.
    fn handle_submit(
        &mut self,
        submit: Submit,
        bytes: usize,
        writer: &ConnWriter,
        received: Instant,
        slot: bool,
        now: Instant,
    ) {
        // How long the submit sat on the channel, plus any turn ahead
        // of it.
        metrics::SERVICE_ADMISSION_WAIT_US
            .record(now.saturating_duration_since(received).as_micros() as u64);
        // Idempotency dedup first: a duplicate must be answered from the
        // original run even when the server is draining, the queue is
        // full or the connection's pipeline is — the original
        // acceptance already promised the work.
        if let Some(key) = &submit.idem_key {
            if self.answer_duplicate(key, &submit, writer, slot) {
                return;
            }
        }
        if !slot {
            self.shed(&submit, ShedReason::PipelineFull, writer, false);
            return;
        }
        let job = match (self.factory)(&submit) {
            Ok(job) => job,
            Err(message) => {
                let line = protocol::error(&message, &submit.tag);
                self.reply(writer, Line::Text(line), true);
                return;
            }
        };
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        let pending = Pending {
            job_id,
            job,
            deadline: submit
                .deadline_ms
                .map_or(self.shared.cfg.default_deadline, Duration::from_millis),
            tag: submit.tag.clone(),
            idem_key: submit.idem_key.clone(),
            writer: Some(Arc::clone(writer)),
            received: Some(received),
            queued: Arc::clone(self.stamp.get_or_insert_with(Arc::default)),
        };
        if let Err(reason) = self.admission.offer(&submit.tenant, pending, bytes) {
            // The key never entered flight, so a later (post-backoff)
            // retry is a fresh submission.
            self.shed(&submit, reason, writer, true);
            return;
        }
        if let Some(key) = &submit.idem_key {
            self.idem
                .entries
                .insert(key.clone(), IdemState::InFlight { job_id });
        }
        if crate::obs::telemetry_active() {
            crate::obs::telemetry::emit(
                "service_admit",
                vec![
                    ("job_id", Value::UInt(job_id)),
                    ("tenant", Value::Str(submit.tenant.clone())),
                    ("job", Value::Str(submit.job.clone())),
                ],
            );
        }
        if self.wal.is_some() {
            self.records.push(WalRecord::Accepted {
                job_id,
                tenant: submit.tenant,
                job: submit.job,
                params: submit.params,
                deadline_ms: submit.deadline_ms,
                idem_key: submit.idem_key,
                bytes: bytes as u64,
            });
        }
        let tag = submit.tag;
        self.reply(writer, Line::Accepted { job_id, tag }, false);
    }

    /// Answers `submit` from the job that already owns its idempotency
    /// `key`, if there is one: a completed key replays `accepted` +
    /// `done`, a key in flight parks this connection as a waiter for
    /// that job's `done` (taking a pipeline slot if the submit came
    /// without one: the reply is owed). Returns whether the submit was
    /// answered.
    fn answer_duplicate(
        &mut self,
        key: &str,
        submit: &Submit,
        writer: &ConnWriter,
        slot: bool,
    ) -> bool {
        let (job_id, phase) = match self.idem.entries.get(key) {
            Some(IdemState::Done {
                job_id,
                job,
                outcome,
            }) => {
                let job_id = *job_id;
                let done = protocol::done(job_id, job, outcome, &submit.tag);
                let accepted = protocol::accepted(job_id, &submit.tag);
                self.reply(writer, Line::Text(accepted), false);
                self.reply(writer, Line::Text(done), slot);
                (job_id, "done")
            }
            Some(IdemState::InFlight { job_id }) => {
                let job_id = *job_id;
                if !slot {
                    writer.gate.acquire();
                }
                self.waiters
                    .entry(job_id)
                    .or_default()
                    .push((Arc::clone(writer), submit.tag.clone()));
                let accepted = protocol::accepted(job_id, &submit.tag);
                self.reply(writer, Line::Text(accepted), false);
                (job_id, "in_flight")
            }
            None => return false,
        };
        if crate::obs::telemetry_active() {
            crate::obs::telemetry::emit(
                "service_idem_hit",
                vec![
                    ("job_id", Value::UInt(job_id)),
                    ("tenant", Value::Str(submit.tenant.clone())),
                    ("job", Value::Str(submit.job.clone())),
                    ("phase", Value::Str(phase.to_string())),
                ],
            );
        }
        true
    }

    /// Refuses `submit` with a typed `reason`.
    fn shed(&mut self, submit: &Submit, reason: ShedReason, writer: &ConnWriter, slot: bool) {
        metrics::SERVICE_SHED.inc();
        if crate::obs::telemetry_active() {
            crate::obs::telemetry::emit(
                "service_shed",
                vec![
                    ("tenant", Value::Str(submit.tenant.clone())),
                    ("job", Value::Str(submit.job.clone())),
                    ("reason", Value::Str(reason.as_str().into())),
                ],
            );
        }
        let line = protocol::shed(reason, &submit.tag);
        self.reply(writer, Line::Text(line), slot);
    }

    fn reply(&mut self, writer: &ConnWriter, line: Line, release: bool) {
        self.replies.push(Reply {
            writer: Arc::clone(writer),
            line,
            release,
        });
    }

    /// A `status` response from admission plus the cell-memo counters.
    fn status_line(&self) -> String {
        let warm: HashMap<String, (u64, u64)> = crate::warm_tenant_counters()
            .into_iter()
            .map(|(t, h, m)| (t, (h, m)))
            .collect();
        let adm = &self.admission;
        let tenants: Vec<TenantStatus> = adm
            .tenant_counters()
            .into_iter()
            .map(|(tenant, queued, running, done, shed)| {
                let (warm_hits, warm_misses) = warm.get(&tenant).copied().unwrap_or((0, 0));
                TenantStatus {
                    tenant,
                    queued,
                    running,
                    done,
                    shed,
                    warm_hits,
                    warm_misses,
                }
            })
            .collect();
        protocol::status(
            adm.queued_total() as u64,
            adm.inflight_total() as u64,
            adm.done_total(),
            adm.shed_total(),
            adm.draining(),
            &tenants,
        )
    }

    /// Steps 2 and 3 of a turn, after firing the timers that have come
    /// due and, once draining, evicting the queue: see
    /// [`commit`](Self::commit).
    fn settle(&mut self, now: Instant) {
        self.fire_timers(now);
        if self.draining {
            self.evict_queued(now);
        }
        self.commit();
    }

    /// Ends the open turn. Its WAL records are written with one sync
    /// and its journal entries appended, and only then are its replies
    /// published, in the order they were made: an outcome a client has
    /// observed is durable, so it can never be re-run after a restart.
    fn commit(&mut self) {
        let mut durable = Ok(());
        if let Some(wal) = &self.wal {
            if !self.records.is_empty() {
                let start = Instant::now();
                durable = wal.append_all(&self.records);
                let us = start.elapsed().as_micros() as u64;
                for r in &self.records {
                    if matches!(r, WalRecord::Accepted { .. }) {
                        metrics::SERVICE_WAL_FSYNC_US.record(us);
                    }
                }
                if let Err(e) = &durable {
                    eprintln!(
                        "service: wal append of {} records failed: {e}",
                        self.records.len()
                    );
                }
            }
        }
        self.records.clear();
        if let Some(j) = self.journal.as_mut() {
            for entry in &self.entries {
                if let Err(e) = j.append(entry) {
                    eprintln!("service: journal append failed: {e}");
                }
            }
        }
        self.entries.clear();
        for Reply {
            writer,
            line,
            release,
        } in self.replies.drain(..)
        {
            let line = match line {
                Line::Text(line) => line,
                Line::Accepted { job_id, tag } if durable.is_ok() => {
                    protocol::accepted(job_id, &tag)
                }
                Line::Accepted { tag, .. } => protocol::error_coded(
                    "acceptance could not be made durable; retry",
                    "wal_failed",
                    true,
                    &tag,
                ),
            };
            send_line(&writer, &line);
            if release {
                writer.gate.release();
            }
        }
        if let Some(stamp) = self.stamp.take() {
            let _ = stamp.set(Instant::now());
        }
    }

    /// Fires every timer that has come due: the drain grace, then per
    /// running job its deadline, its abandonment and its `progress`
    /// cadence.
    fn fire_timers(&mut self, now: Instant) {
        if self.drain_cancel_at.is_some_and(|at| now >= at) {
            self.drain_cancel_at = None;
            for run in self.running.values_mut() {
                run.cancel(CancelCause::Drain, now);
            }
        }
        let cfg = &self.shared.cfg;
        let mut abandoned: Vec<u64> = Vec::new();
        for (id, run) in self.running.iter_mut() {
            if run.watch.deadline_at().is_some_and(|at| now >= at) {
                run.cancel(CancelCause::Deadline, now);
            }
            if run
                .watch
                .abandon_at(cfg.cancel_grace)
                .is_some_and(|at| now >= at)
            {
                abandoned.push(*id);
                continue;
            }
            if run.progress_at(cfg).is_some_and(|at| now >= at) {
                run.last_progress = now;
                if let Some(w) = &run.writer {
                    let elapsed_ms = now.duration_since(run.watch.started).as_millis() as u64;
                    self.replies.push(Reply {
                        writer: Arc::clone(w),
                        line: Line::Text(protocol::progress(*id, &run.name, elapsed_ms, &run.tag)),
                        release: false,
                    });
                }
            }
        }
        for id in abandoned {
            let run = self.running.remove(&id).expect("abandoned id vanished");
            if let Err(e) = self.shared.pool.abandon(&run.ticket) {
                eprintln!("service: no replacement for job {id}'s worker: {e}");
            }
            let outcome = Err(run.cancel_error("drain: abandoned (never polled)"));
            self.finish_running(id, run, outcome, now);
        }
    }

    /// Gives every queued job its `cancelled` outcome (journaled, not
    /// silently dropped).
    fn evict_queued(&mut self, now: Instant) {
        for (tenant, pending) in self.admission.evict_queued() {
            if let Some(rcv) = pending.received {
                metrics::record_request(
                    &tenant,
                    now.saturating_duration_since(rcv).as_micros() as u64,
                );
            }
            let outcome = Err(JobError::Cancelled {
                reason: "drain: evicted from queue".into(),
            });
            self.finish_job(
                &tenant,
                pending.job_id,
                &pending.job.spec.name,
                pending.job.spec.seed,
                &pending.tag,
                &pending.idem_key,
                &pending.writer,
                outcome,
            );
            self.cancelled += 1;
            // Nothing was in flight for this job: bump only the
            // tenant's terminal count.
            self.admission.finish_queued(&tenant);
        }
    }

    /// Step 4 of a turn: dispatches while worker slots are free, then
    /// commits the outcome of any job the pool refused.
    fn pump(&mut self, now: Instant) {
        if self.draining {
            return;
        }
        while self.running.len() < self.shared.cfg.workers {
            let Some((tenant, pending)) = self.admission.next_dispatch() else {
                break;
            };
            self.dispatch(tenant, pending, now);
        }
        self.commit();
    }

    /// Whether the drain is complete: nothing running, nothing queued.
    fn drained(&self) -> bool {
        self.draining && self.running.is_empty() && self.admission.queued_total() == 0
    }

    /// Hands one dispatched job to the pool and records it in the
    /// running map.
    fn dispatch(&mut self, tenant: String, pending: Pending, now: Instant) {
        let Pending {
            job_id,
            job,
            deadline,
            tag,
            idem_key,
            writer,
            received,
            queued,
        } = pending;
        let queued = queued.get().copied().unwrap_or(now);
        metrics::record_queue_wait(
            &tenant,
            now.saturating_duration_since(queued).as_micros() as u64,
        );
        let watch = Watch::start(now, Some(deadline));
        let ctx = attempt::Context::job(&watch.token, &job.spec.name, Some(&tenant));
        let mut run = Running {
            tenant: tenant.clone(),
            name: job.spec.name.clone(),
            seed: job.spec.seed,
            watch,
            ticket: attempt::Ticket::default(),
            tag,
            idem_key,
            writer,
            received,
            cancel_cause: None,
            last_progress: now,
        };
        if crate::obs::telemetry_active() {
            crate::obs::telemetry::emit(
                "service_dispatch",
                vec![
                    ("job_id", Value::UInt(job_id)),
                    ("tenant", Value::Str(tenant)),
                    ("job", Value::Str(job.spec.name.clone())),
                ],
            );
        }
        let tx = self.shared.sched_tx.clone();
        let body = move || {
            let outcome = attempt::run(&ctx, &job.run, 1);
            // The core may have exited after abandoning us; a closed
            // channel is simply ignored.
            let _ = tx.send(SchedMsg::Completed(job_id, outcome));
        };
        match (self.submit)(&self.shared.pool, Box::new(body)) {
            Ok(ticket) => {
                run.ticket = ticket;
                self.running.insert(job_id, run);
            }
            // A refused start: fail the job through the normal path
            // rather than leaking the slot.
            Err(_) => {
                let outcome = Err(JobError::Failed {
                    message: "service: could not spawn worker thread".into(),
                });
                self.finish_running(job_id, run, outcome, now);
            }
        }
    }

    /// The terminal path of a job leaving the running map: latency
    /// histograms (jobs recovered from the WAL have no `received`
    /// instant and skip the end-to-end record), the cancelled count,
    /// [`finish_job`](Self::finish_job), and the tenant's in-flight
    /// slot.
    fn finish_running(
        &mut self,
        job_id: u64,
        run: Running,
        outcome: Result<String, JobError>,
        now: Instant,
    ) {
        metrics::SERVICE_RUN_US.record(now.duration_since(run.watch.started).as_micros() as u64);
        if let Some(rcv) = run.received {
            metrics::record_request(
                &run.tenant,
                now.saturating_duration_since(rcv).as_micros() as u64,
            );
        }
        if matches!(
            outcome,
            Err(JobError::TimedOut { .. } | JobError::Cancelled { .. })
        ) {
            self.cancelled += 1;
        }
        self.finish_job(
            &run.tenant,
            job_id,
            &run.name,
            run.seed,
            &run.tag,
            &run.idem_key,
            &run.writer,
            outcome,
        );
        self.admission.finish(&run.tenant);
    }

    /// Terminal bookkeeping shared by every completion path: telemetry,
    /// the WAL `done` record and journal entry, idempotency-map
    /// completion, and `done` replies to the submitting connection and
    /// every waiter — each returning that connection's pipeline slot.
    /// The replies go out at the turn's commit, after the outcome is
    /// durable.
    #[allow(clippy::too_many_arguments)]
    fn finish_job(
        &mut self,
        tenant: &str,
        job_id: u64,
        name: &str,
        seed: u64,
        tag: &Option<String>,
        idem_key: &Option<String>,
        writer: &Option<ConnWriter>,
        outcome: Result<String, JobError>,
    ) {
        metrics::SERVICE_DONE.inc();
        if crate::obs::telemetry_active() {
            let status = match &outcome {
                Ok(_) => "ok".to_string(),
                Err(e) => e.kind().to_string(),
            };
            crate::obs::telemetry::emit(
                "service_done",
                vec![
                    ("job_id", Value::UInt(job_id)),
                    ("tenant", Value::Str(tenant.to_string())),
                    ("job", Value::Str(name.to_string())),
                    ("status", Value::Str(status)),
                ],
            );
        }
        if self.wal.is_some() {
            self.records.push(WalRecord::Done {
                job_id,
                outcome: outcome.clone(),
            });
        }
        if self.journal.is_some() {
            self.entries
                .push(protocol::journal_entry(job_id, name, seed, outcome.clone()));
        }
        if let Some(w) = writer {
            let line = protocol::done(job_id, name, &outcome, tag);
            self.reply(w, Line::Text(line), true);
        }
        for (w, waiter_tag) in self.waiters.remove(&job_id).unwrap_or_default() {
            let line = protocol::done(job_id, name, &outcome, &waiter_tag);
            self.reply(&w, Line::Text(line), true);
        }
        if let Some(key) = idem_key {
            let cap = self.shared.cfg.idem_cap;
            self.idem
                .record_done(key.clone(), job_id, name.to_string(), outcome, cap);
        }
    }

    /// Republishes the totals the heartbeat reports.
    fn publish_gauges(&self) {
        let (g, adm) = (&self.shared.gauges, &self.admission);
        g.queued.store(adm.queued_total() as u64, Ordering::Relaxed);
        g.running
            .store(adm.inflight_total() as u64, Ordering::Relaxed);
        g.done.store(adm.done_total(), Ordering::Relaxed);
        g.shed.store(adm.shed_total(), Ordering::Relaxed);
        g.draining.store(adm.draining(), Ordering::Relaxed);
    }

    /// Exit: close the journal and report.
    fn finish(self) -> ServiceReport {
        // Journal appends flush per line; dropping it closes the file.
        drop(self.journal);
        let report = ServiceReport {
            done: self.admission.done_total(),
            shed: self.admission.shed_total(),
            cancelled: self.cancelled,
            recovered: self.recovered,
        };
        if crate::obs::telemetry_active() {
            crate::obs::telemetry::emit(
                "service_drained",
                vec![
                    ("done", Value::UInt(report.done)),
                    ("shed", Value::UInt(report.shed)),
                    ("cancelled", Value::UInt(report.cancelled)),
                    ("recovered", Value::UInt(report.recovered)),
                ],
            );
        }
        report
    }
}

/// Starts the core thread on `state`, a replayed WAL (see
/// [`Scheduler::new`]).
pub(super) fn start(
    shared: &Arc<Shared>,
    factory: JobFactory,
    wal: Option<Wal>,
    state: WalState,
    rx: Receiver<SchedMsg>,
) -> std::io::Result<std::thread::JoinHandle<ServiceReport>> {
    let core = Scheduler::new(Arc::clone(shared), factory, wal, state, to_pool);
    std::thread::Builder::new()
        .name("vsnoop-svc-sched".into())
        .spawn(move || scheduler_loop(core, rx))
}

/// The core thread: turn after turn until the reactor's
/// [`SchedMsg::Exit`].
fn scheduler_loop(mut core: Scheduler, rx: Receiver<SchedMsg>) -> ServiceReport {
    let shared = Arc::clone(&core.shared);
    let _heartbeat = spawn_heartbeat(&shared);
    loop {
        core.settle(Instant::now());
        core.pump(Instant::now());
        core.publish_gauges();
        if let Some(ack) = core.exit.take() {
            let _ = ack.send(());
            break;
        }
        if core.drained() {
            shared.mark_drained();
        }
        let woken = match next_wakeup(&core.running, core.drain_cancel_at, &shared.cfg) {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        match woken {
            Ok(msg) => {
                shared.sched_message_wakeups.fetch_add(1, Ordering::Relaxed);
                core.handle(msg, Instant::now());
                while let Ok(msg) = rx.try_recv() {
                    core.handle(msg, Instant::now());
                }
            }
            // The timer that came due fires at the top of the loop.
            Err(RecvTimeoutError::Timeout) => {
                shared.sched_timer_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Disconnected) => unreachable!("`Shared` holds a sender"),
        }
    }
    core.finish()
}

/// Service heartbeat: queue/running/shed depth plus the process-wide
/// RSS and cell-memo (`warm_*`) counters, emitted on the shared obs cadence and
/// visible to subscribers even without a trace dir. The tick gates
/// itself so an idle, untraced server does no per-interval work.
fn spawn_heartbeat(shared: &Arc<Shared>) -> crate::obs::Heartbeat {
    let interval = crate::knob::heartbeat();
    let shared = Arc::clone(shared);
    crate::obs::Heartbeat::spawn("service", interval, move || {
        // The Prometheus dump only needs a trace directory, not a
        // telemetry consumer.
        metrics::write_prom_if_traced();
        if !crate::obs::telemetry_active() {
            return;
        }
        let g = &shared.gauges;
        let load = |a: &AtomicU64| Value::UInt(a.load(Ordering::Relaxed));
        let (warm_hits, warm_misses, warm_evictions) = crate::warm_counters();
        crate::obs::telemetry::emit(
            "service_heartbeat",
            vec![
                ("queued", load(&g.queued)),
                ("running", load(&g.running)),
                ("done", load(&g.done)),
                ("shed", load(&g.shed)),
                ("draining", Value::Bool(g.draining.load(Ordering::Relaxed))),
                ("rss_bytes", Value::UInt(crate::obs::current_rss_bytes())),
                ("warm_hits", Value::UInt(warm_hits)),
                ("warm_misses", Value::UInt(warm_misses)),
                ("warm_evictions", Value::UInt(warm_evictions)),
            ],
        );
        crate::obs::telemetry::emit(
            "service_metrics",
            metrics::heartbeat_fields(shared.pool.spawns()),
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::reactor;
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc::channel;

    const MS: Duration = Duration::from_millis(1);

    /// A core with no thread of its own: the test is its clock and its
    /// event source.
    struct Rig {
        sched: Scheduler,
        rx: Receiver<SchedMsg>,
        _reactor_end: UnixStream,
    }

    fn rig(cfg: ServiceConfig, submit: Submitter) -> Rig {
        let (waker, reactor_end) = reactor::wake_pair().expect("wake pair");
        let (tx, rx) = channel();
        let wal = cfg
            .wal_path
            .as_deref()
            .map(|p| Wal::open(p, false).expect("wal"));
        let factory: JobFactory =
            Arc::new(|s: &Submit| Ok(Job::new(&s.job, 7, Value::Null, |_| Ok("out\n".into()))));
        let shared = Shared::new(cfg, waker, tx).expect("the worker pool starts");
        Rig {
            sched: Scheduler::new(Arc::new(shared), factory, wal, WalState::default(), submit),
            rx,
            _reactor_end: reactor_end,
        }
    }

    /// Steps 2-4 of a loop turn at `now` (step 1 is the test's own
    /// `handle` calls).
    fn turn(rig: &mut Rig, now: Instant) {
        rig.sched.settle(now);
        rig.sched.pump(now);
    }

    /// A zero-work job of tenant `t` and the connection its replies go
    /// to.
    fn pending(rig: &Rig, job_id: u64, deadline: Duration, now: Instant) -> (Pending, ConnWriter) {
        let writer = rig.sched.shared.outbox(job_id);
        let pending = Pending {
            job_id,
            job: Job::new("unit", 7, Value::Null, |_| Ok("out\n".into())),
            deadline,
            tag: None,
            idem_key: None,
            writer: Some(Arc::clone(&writer)),
            received: Some(now),
            queued: Arc::new(OnceLock::from(now)),
        };
        (pending, writer)
    }

    /// Queues [`pending`] straight into admission.
    fn admit(rig: &mut Rig, job_id: u64, deadline: Duration, now: Instant) -> ConnWriter {
        let (pending, writer) = pending(rig, job_id, deadline, now);
        let offered = rig.sched.admission.offer("t", pending, 10);
        assert_eq!(offered, Ok(()));
        writer
    }

    /// A submit of `job` for tenant `t` from `writer`, holding a
    /// pipeline slot if the connection has one free, as the reactor
    /// forwards it.
    fn submit(writer: &ConnWriter, key: Option<&str>, tag: &str, now: Instant) -> SchedMsg {
        SchedMsg::Submit {
            submit: Submit {
                tenant: "t".into(),
                job: "unit".into(),
                params: Value::Null,
                deadline_ms: None,
                tag: Some(tag.into()),
                idem_key: key.map(str::to_string),
            },
            bytes: 10,
            writer: Arc::clone(writer),
            received: now,
            slot: writer.gate.try_acquire(),
        }
    }

    /// The frames queued for one connection since the last call, parsed.
    fn frames(writer: &ConnWriter) -> Vec<protocol::Response> {
        writer
            .take_lines(usize::MAX)
            .iter()
            .map(|l| protocol::Response::parse(l).expect("server frames parse"))
            .collect()
    }

    fn accepted(job_id: u64, tag: &str) -> protocol::Response {
        protocol::Response::Accepted {
            job_id,
            tag: Some(tag.into()),
        }
    }

    fn done(job_id: u64, tag: &str) -> protocol::Response {
        protocol::Response::Done {
            job_id,
            job: "unit".into(),
            outcome: Ok("out\n".into()),
            tag: Some(tag.into()),
        }
    }

    fn refuse(_: &attempt::Pool, _: attempt::Task) -> std::io::Result<attempt::Ticket> {
        Err(std::io::Error::other("no threads left"))
    }

    /// Accepts the job and never runs it: the job stays running until
    /// the test completes it by hand or a timer gives up on it.
    fn never_runs(_: &attempt::Pool, _: attempt::Task) -> std::io::Result<attempt::Ticket> {
        Ok(attempt::Ticket::default())
    }

    fn inline(_: &attempt::Pool, body: attempt::Task) -> std::io::Result<attempt::Ticket> {
        body();
        Ok(attempt::Ticket::default())
    }

    fn scratch(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vsnoop-sched-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn next_wakeup_is_the_earliest_armed_timer_or_none() {
        let t0 = Instant::now();
        let cfg = ServiceConfig {
            cancel_grace: 2_000 * MS,
            progress_interval: 500 * MS,
            ..ServiceConfig::default()
        };
        let quiet = ServiceConfig {
            progress_interval: Duration::ZERO,
            ..cfg.clone()
        };
        let rig = rig(cfg.clone(), never_runs);
        let job = |deadline_ms: u64, cancelled_ms: Option<u64>, progress_ms: u64, wired: bool| {
            let mut run = Running {
                tenant: "t".into(),
                name: "unit".into(),
                seed: 0,
                watch: Watch::start(t0, Some(deadline_ms as u32 * MS)),
                ticket: attempt::Ticket::default(),
                tag: None,
                idem_key: None,
                writer: wired.then(|| rig.sched.shared.outbox(0)),
                received: None,
                cancel_cause: None,
                last_progress: t0 + progress_ms as u32 * MS,
            };
            if let Some(ms) = cancelled_ms {
                run.cancel(CancelCause::Deadline, t0 + ms as u32 * MS);
            }
            run
        };
        let at = |ms: u64| Some(t0 + ms as u32 * MS);
        // (running jobs, end of drain grace, config, expected wakeup)
        let table = vec![
            (vec![], None, &cfg, None),
            (vec![], at(150), &cfg, at(150)),
            // Progress cadence comes first for a connected job ...
            (vec![job(30_000, None, 0, true)], None, &cfg, at(500)),
            (vec![job(30_000, None, 1_200, true)], None, &cfg, at(1_700)),
            // ... and is not armed without a connection or a cadence.
            (vec![job(30_000, None, 0, false)], None, &cfg, at(30_000)),
            (vec![job(30_000, None, 0, true)], None, &quiet, at(30_000)),
            (vec![job(300, None, 0, true)], None, &cfg, at(300)),
            // A cancelled job waits for its abandonment, not its deadline.
            (vec![job(300, Some(300), 0, false)], None, &cfg, at(2_300)),
            (
                vec![job(300, Some(300), 2_000, true)],
                None,
                &cfg,
                at(2_300),
            ),
            // The minimum over jobs and the drain grace.
            (
                vec![job(9_000, None, 0, false), job(4_000, None, 0, false)],
                at(5_000),
                &quiet,
                at(4_000),
            ),
            (
                vec![job(9_000, None, 0, false), job(4_000, None, 0, false)],
                at(1_000),
                &quiet,
                at(1_000),
            ),
        ];
        for (n, (jobs, drain, cfg, expected)) in table.into_iter().enumerate() {
            let running: HashMap<u64, Running> = (0u64..).zip(jobs).collect();
            assert_eq!(next_wakeup(&running, drain, cfg), expected, "row {n}");
        }
    }

    #[test]
    fn spawn_failure_reaches_the_journal_the_wal_and_the_client() {
        let dir = scratch("spawn");
        let cfg = ServiceConfig {
            journal_path: Some(dir.join("journal.jsonl")),
            wal_path: Some(dir.join("wal.jsonl")),
            sync: false,
            ..ServiceConfig::default()
        };
        let mut rig = rig(cfg, refuse);
        let t0 = Instant::now();
        let conn = admit(&mut rig, 1, 1_000 * MS, t0);
        conn.gate.acquire();

        rig.sched.pump(t0);

        assert!(
            rig.sched.running.is_empty(),
            "the worker slot is not leaked"
        );
        match frames(&conn).as_slice() {
            [protocol::Response::Done { outcome, .. }] => {
                let (kind, message) = outcome.clone().expect_err("spawn failed");
                assert_eq!(kind, "failed");
                assert!(message.contains("spawn"), "{message}");
            }
            other => panic!("expected one done frame, got {other:?}"),
        }
        assert_eq!(conn.gate.inflight(), 0, "the pipeline slot is released");
        let journal = Journal::load(&dir.join("journal.jsonl")).expect("journal loads");
        assert_eq!(journal.len(), 1, "{journal:?}");
        assert_eq!(journal[0].index, 1);
        assert!(matches!(journal[0].outcome, Err(JobError::Failed { .. })));
        let wal = Wal::load(&dir.join("wal.jsonl")).expect("wal loads");
        assert!(
            matches!(
                wal.as_slice(),
                [WalRecord::Done {
                    job_id: 1,
                    outcome: Err(_)
                }]
            ),
            "{wal:?}"
        );
        let adm = &rig.sched.admission;
        assert_eq!((adm.inflight_total(), adm.done_total()), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admitted_job_runs_and_completes_without_any_timer() {
        let mut rig = rig(ServiceConfig::default(), inline);
        let t0 = Instant::now();
        let conn = rig.sched.shared.outbox(1);
        rig.sched.handle(submit(&conn, None, "a", t0), t0);
        turn(&mut rig, t0);
        // The worker ran inline and reported on the core's channel.
        let msg = rig.rx.try_recv().expect("a completion message");
        rig.sched.handle(msg, t0 + MS);
        turn(&mut rig, t0 + MS);
        assert_eq!(frames(&conn), [accepted(1, "a"), done(1, "a")]);
        assert_eq!(conn.gate.inflight(), 0);
        assert_eq!(
            next_wakeup(&rig.sched.running, None, &rig.sched.shared.cfg),
            None
        );
    }

    /// The durability order: a turn's replies reach no outbox until its
    /// WAL records are written, and its jobs are dispatched only after
    /// their `accepted` is published.
    #[test]
    fn replies_wait_for_the_turns_wal_write_and_dispatch_waits_for_the_replies() {
        let dir = scratch("order");
        let cfg = ServiceConfig {
            wal_path: Some(dir.join("wal.jsonl")),
            ..ServiceConfig::default()
        };
        let mut rig = rig(cfg, never_runs);
        let t0 = Instant::now();
        let conn = rig.sched.shared.outbox(1);
        rig.sched.handle(submit(&conn, None, "a", t0), t0);
        rig.sched.handle(submit(&conn, None, "b", t0), t0);
        assert!(frames(&conn).is_empty(), "nothing is published mid-turn");
        assert!(Wal::load(&dir.join("wal.jsonl")).unwrap().is_empty());

        rig.sched.settle(t0);
        assert!(rig.sched.running.is_empty(), "nothing dispatched yet");
        let wal = Wal::load(&dir.join("wal.jsonl")).unwrap();
        assert!(
            matches!(
                wal.as_slice(),
                [
                    WalRecord::Accepted { job_id: 1, .. },
                    WalRecord::Accepted { job_id: 2, .. }
                ]
            ),
            "{wal:?}"
        );
        assert_eq!(frames(&conn), [accepted(1, "a"), accepted(2, "b")]);

        rig.sched.pump(t0);
        assert_eq!(rig.sched.running.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A duplicate of a key in flight is parked, not run: it gets
    /// `accepted` at once and the original's `done` under its own tag.
    #[test]
    fn a_duplicate_of_an_in_flight_key_waits_for_the_originals_done() {
        let mut rig = rig(ServiceConfig::default(), never_runs);
        let t0 = Instant::now();
        let (first, second) = (rig.sched.shared.outbox(1), rig.sched.shared.outbox(2));
        rig.sched.handle(submit(&first, Some("k"), "first", t0), t0);
        turn(&mut rig, t0);
        assert_eq!(frames(&first), [accepted(1, "first")]);

        rig.sched
            .handle(submit(&second, Some("k"), "second", t0), t0);
        turn(&mut rig, t0);
        assert_eq!(frames(&second), [accepted(1, "second")]);
        assert_eq!(rig.sched.running.len(), 1, "the duplicate does not run");
        assert_eq!(second.gate.inflight(), 1, "its `done` is still owed");

        let ok = Outcome::Ok("out\n".into());
        rig.sched.handle(SchedMsg::Completed(1, ok), t0 + MS);
        turn(&mut rig, t0 + MS);
        assert_eq!(frames(&first), [done(1, "first")]);
        assert_eq!(frames(&second), [done(1, "second")]);
        assert_eq!((first.gate.inflight(), second.gate.inflight()), (0, 0));
    }

    /// A duplicate handled in the same turn as its original's
    /// completion gets exactly one `accepted` and one `done`, whichever
    /// of the two messages comes first.
    #[test]
    fn a_duplicate_in_the_turn_of_its_originals_completion_is_answered_once() {
        for duplicate_first in [false, true] {
            let mut rig = rig(ServiceConfig::default(), never_runs);
            let t0 = Instant::now();
            let (first, second) = (rig.sched.shared.outbox(1), rig.sched.shared.outbox(2));
            rig.sched.handle(submit(&first, Some("k"), "first", t0), t0);
            turn(&mut rig, t0);

            let dup = submit(&second, Some("k"), "late", t0);
            let completed = SchedMsg::Completed(1, Outcome::Ok("out\n".into()));
            let batch = if duplicate_first {
                [dup, completed]
            } else {
                [completed, dup]
            };
            for msg in batch {
                rig.sched.handle(msg, t0 + MS);
            }
            turn(&mut rig, t0 + MS);
            assert_eq!(
                frames(&second),
                [accepted(1, "late"), done(1, "late")],
                "duplicate first: {duplicate_first}"
            );
            assert_eq!(frames(&first), [accepted(1, "first"), done(1, "first")]);
            assert_eq!(second.gate.inflight(), 0);
            assert!(rig.sched.running.is_empty(), "nothing ran twice");
        }
    }

    /// A shed submit's key never enters flight: a retry after the queue
    /// frees up is admitted as a fresh job.
    #[test]
    fn a_shed_submit_forgets_its_key_so_a_retry_is_fresh() {
        let cfg = ServiceConfig {
            workers: 1,
            queue_cap: 1,
            ..ServiceConfig::default()
        };
        let mut rig = rig(cfg, never_runs);
        let t0 = Instant::now();
        let conn = rig.sched.shared.outbox(1);
        // One job runs, one fills the queue, the keyed one is shed.
        rig.sched.handle(submit(&conn, None, "run", t0), t0);
        turn(&mut rig, t0);
        rig.sched.handle(submit(&conn, None, "queue", t0), t0);
        rig.sched.handle(submit(&conn, Some("k"), "keyed", t0), t0);
        turn(&mut rig, t0);
        match frames(&conn).as_slice() {
            [_, _, protocol::Response::Shed { reason, tag, .. }] => {
                assert_eq!(reason, "queue_full");
                assert_eq!(tag.as_deref(), Some("keyed"));
            }
            other => panic!("expected two accepts and a shed, got {other:?}"),
        }
        assert_eq!(conn.gate.inflight(), 2, "the shed returned its slot");

        // The running job finishes; the queued one takes its worker.
        rig.sched
            .handle(SchedMsg::Completed(1, Outcome::Ok("out\n".into())), t0 + MS);
        turn(&mut rig, t0 + MS);
        assert_eq!(frames(&conn), [done(1, "run")]);
        rig.sched
            .handle(submit(&conn, Some("k"), "retry", t0), t0 + MS);
        turn(&mut rig, t0 + MS);
        assert_eq!(frames(&conn), [accepted(4, "retry")]);
        assert_eq!(rig.sched.admission.queued_total(), 1);
    }

    #[test]
    fn a_submit_after_stop_is_shed_draining() {
        let mut rig = rig(ServiceConfig::default(), never_runs);
        let t0 = Instant::now();
        let conn = rig.sched.shared.outbox(1);
        rig.sched.handle(SchedMsg::Stop, t0);
        rig.sched.handle(submit(&conn, Some("k"), "late", t0), t0);
        turn(&mut rig, t0);
        match frames(&conn).as_slice() {
            [protocol::Response::Shed {
                reason, retryable, ..
            }] => {
                assert_eq!(reason, "draining");
                assert!(!retryable, "this server will not take it again");
            }
            other => panic!("expected one shed, got {other:?}"),
        }
        assert_eq!(conn.gate.inflight(), 0);
        assert!(rig.sched.drained());
    }

    #[test]
    fn deadline_progress_and_abandonment_fire_on_a_made_up_clock() {
        let cfg = ServiceConfig {
            cancel_grace: 1_000 * MS,
            progress_interval: 500 * MS,
            ..ServiceConfig::default()
        };
        let mut rig = rig(cfg, never_runs);
        let t0 = Instant::now();
        let at = |ms: u32| t0 + ms * MS;
        let wake = |rig: &Rig| next_wakeup(&rig.sched.running, None, &rig.sched.shared.cfg);
        let conn = admit(&mut rig, 1, 2_000 * MS, t0);
        rig.sched.pump(t0);
        assert_eq!(wake(&rig), Some(at(500)));

        turn(&mut rig, at(499));
        assert!(frames(&conn).is_empty(), "nothing is due yet");
        turn(&mut rig, at(500));
        assert!(matches!(
            frames(&conn).as_slice(),
            [protocol::Response::Progress {
                job_id: 1,
                elapsed_ms: 500,
                ..
            }]
        ));
        assert_eq!(wake(&rig), Some(at(1_000)));

        // The deadline cancels the token and arms the abandonment.
        let token = rig.sched.running[&1].watch.token.clone();
        turn(&mut rig, at(2_000));
        assert!(token.is_cancelled());
        assert_eq!(frames(&conn).len(), 1, "one more progress frame");
        assert_eq!(wake(&rig), Some(at(2_500)));

        // The job never unwinds: it is abandoned as a timeout.
        turn(&mut rig, at(3_000));
        match frames(&conn).as_slice() {
            [protocol::Response::Done { outcome, .. }] => {
                assert_eq!(outcome.clone().expect_err("abandoned").0, "timeout");
            }
            other => panic!("expected one done frame, got {other:?}"),
        }
        assert!(rig.sched.running.is_empty());
        assert_eq!(wake(&rig), None, "an idle core arms nothing");
        // Its late completion is dropped, not answered twice.
        rig.sched
            .handle(SchedMsg::Completed(1, Outcome::Cancelled), at(3_100));
        turn(&mut rig, at(3_100));
        assert!(frames(&conn).is_empty());
    }

    #[test]
    fn drain_evicts_the_queue_and_cancels_after_grace() {
        let cfg = ServiceConfig {
            workers: 1,
            drain_grace: 300 * MS,
            progress_interval: Duration::ZERO,
            ..ServiceConfig::default()
        };
        let mut rig = rig(cfg, never_runs);
        let t0 = Instant::now();
        let at = |ms: u32| t0 + ms * MS;
        let runner = admit(&mut rig, 1, 30_000 * MS, t0);
        let queued = admit(&mut rig, 2, 30_000 * MS, t0);
        rig.sched.pump(t0);
        assert_eq!(rig.sched.running.len(), 1, "one worker slot");

        rig.sched.handle(SchedMsg::Stop, at(100));
        turn(&mut rig, at(100));
        let cancelled = |conn: &ConnWriter, reason: &str| match frames(conn).as_slice() {
            [protocol::Response::Done { outcome, .. }] => {
                let (kind, message) = outcome.clone().expect_err("drained");
                assert_eq!(kind, "cancelled");
                assert!(message.contains(reason), "{message}");
            }
            other => panic!("expected one done frame, got {other:?}"),
        };
        cancelled(&queued, "evicted");
        assert_eq!(
            next_wakeup(
                &rig.sched.running,
                rig.sched.drain_cancel_at,
                &rig.sched.shared.cfg
            ),
            Some(at(400)),
            "the drain grace is the next timer"
        );

        // Grace over: the running job's token is cancelled, and it
        // unwinds as a drain cancellation.
        let token = rig.sched.running[&1].watch.token.clone();
        turn(&mut rig, at(400));
        assert!(token.is_cancelled());
        rig.sched
            .handle(SchedMsg::Completed(1, Outcome::Cancelled), at(410));
        turn(&mut rig, at(410));
        cancelled(&runner, "drain");
        assert!(rig.sched.drained());
        assert_eq!(rig.sched.cancelled, 2);
    }
}
