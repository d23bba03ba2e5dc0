//! The scheduler: fair dispatch out of [`Admission`] onto the server's
//! worker pool, which runs each job on the runner's attempt path
//! ([`crate::runner::attempt`]: context, isolation, outcome, watchdog,
//! and the [`Pool`](attempt::Pool) of `workers` parked threads started
//! with the server), completion collection, `progress` frames, and the
//! drain sequence. No thread starts per job: only a job the watchdog
//! abandons gets its worker replaced.
//!
//! The loop is purely event-driven. Everything it must react to arrives
//! as a [`SchedMsg`] on one channel — a job became dispatchable, a
//! worker finished, a drain was requested — and between messages it
//! sleeps until the earliest armed timer ([`next_wakeup`]): a running
//! job's deadline, the end of its cancel grace, its next `progress`
//! frame, or the end of the drain grace. With nothing running and no
//! drain under way no timer is armed and the thread blocks: an idle
//! server does no scheduler work at all, and a submit is dispatched
//! when its `Admitted` message lands, not at the next poll.
//!
//! Every state transition of [`Scheduler`] takes `now` as a parameter
//! and jobs reach the pool through an injectable [`Submitter`], so the
//! unit tests below drive deadlines, progress frames and the drain
//! single-threaded on a made-up clock.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

use crate::obs::metrics;
use crate::runner::attempt::{self, Outcome, Watch};
use crate::runner::json::Value;
use crate::runner::{JobError, Journal};

use super::protocol;
use super::quota::Admission;
use super::server::{send_line, ConnWriter, Pending, ServiceConfig, ServiceReport, Shared};
use super::wal::WalRecord;

/// What wakes the scheduler. Every producer that changes what it must
/// do sends one of these; nothing is discovered by polling.
pub(super) enum SchedMsg {
    /// A job joined the dispatch queue (published by the admission
    /// thread, or re-enqueued by recovery).
    Admitted,
    /// Job `.0`'s worker finished it.
    Completed(u64, Outcome),
    /// Begin the graceful drain.
    Stop,
}

/// A job recovered from the WAL that the factory no longer builds (the
/// registry changed across the restart).
pub(super) struct Unbuildable {
    pub(super) tenant: String,
    pub(super) job_id: u64,
    pub(super) name: String,
    pub(super) idem_key: Option<String>,
    pub(super) error: JobError,
}

/// Hands a job's `body` to a worker of `pool`. The scheduler goes
/// through this seam so a test can refuse a job, never run it, or run it
/// inline.
type Submitter = fn(&attempt::Pool, attempt::Task) -> std::io::Result<attempt::Ticket>;

/// The production [`Submitter`]: the job waits for the next parked
/// worker. Workers are never joined: a job that never polls its token is
/// abandoned to a replacement worker instead.
fn to_pool(pool: &attempt::Pool, body: attempt::Task) -> std::io::Result<attempt::Ticket> {
    Ok(pool.submit(body))
}

/// Why a running job's token was cancelled.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CancelCause {
    Deadline,
    Drain,
}

/// Scheduler-side record of a running job.
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

/// The instant the scheduler must next act with no message to prompt
/// it: the earliest armed timer of any running job, or
/// `drain_cancel_at` (the end of the drain grace, while that is still
/// pending). `None` means nothing is armed and the wait may block.
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

/// The scheduler's state machine, one step per method; [`scheduler_loop`]
/// owns the waiting.
struct Scheduler {
    shared: Arc<Shared>,
    /// The scheduler is the journal's only writer.
    journal: Option<Journal>,
    running: HashMap<u64, Running>,
    submit: Submitter,
    draining: bool,
    /// When the drain stops waiting for natural finishes and cancels
    /// every running token; taken once it has.
    drain_cancel_at: Option<Instant>,
}

impl Scheduler {
    fn new(shared: Arc<Shared>, submit: Submitter) -> Scheduler {
        let journal = shared.cfg.journal_path.as_deref().and_then(|p| {
            Journal::open_with_sync(p, false, shared.cfg.sync)
                .map_err(|e| eprintln!("service: journal {}: {e}", p.display()))
                .ok()
        });
        Scheduler {
            shared,
            journal,
            running: HashMap::new(),
            submit,
            draining: false,
            drain_cancel_at: None,
        }
    }

    fn handle(&mut self, msg: SchedMsg, now: Instant) {
        match msg {
            // The `pump` that follows every wakeup dispatches it.
            SchedMsg::Admitted => {}
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
                    self.lock_admission().set_draining();
                }
            }
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
                    send_line(
                        w,
                        &protocol::progress(
                            *id,
                            &run.name,
                            now.duration_since(run.watch.started).as_millis() as u64,
                            &run.tag,
                        ),
                    );
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

    /// Moves queued work along: dispatches while worker slots are free
    /// or, once draining, gives every queued job its `cancelled`
    /// outcome instead (journaled, not silently dropped).
    fn pump(&mut self, now: Instant) {
        if self.draining {
            let evicted = self.lock_admission().evict_queued();
            for (tenant, pending) in evicted {
                if let Some(rcv) = pending.received {
                    metrics::record_request(
                        &tenant,
                        now.saturating_duration_since(rcv).as_micros() as u64,
                    );
                }
                let outcome = Err(JobError::Cancelled {
                    reason: "drain: evicted from queue".into(),
                });
                finish_job(
                    &self.shared,
                    &mut self.journal,
                    &tenant,
                    pending.job_id,
                    &pending.job.spec.name,
                    pending.job.spec.seed,
                    &pending.tag,
                    &pending.idem_key,
                    &pending.writer,
                    outcome,
                );
                self.shared.cancelled.fetch_add(1, Ordering::Relaxed);
                // Nothing was in flight for this job: bump only the
                // tenant's terminal count.
                self.lock_admission().finish_queued(&tenant);
            }
            return;
        }
        while self.running.len() < self.shared.cfg.workers {
            let next = self.lock_admission().next_dispatch();
            let Some((tenant, pending)) = next else { break };
            self.dispatch(tenant, pending, now);
        }
    }

    /// Whether the drain is complete: nothing running, nothing queued,
    /// and no admission still between its reservation and its publish
    /// (that job's `Admitted` is on its way, and `pump` will cancel it).
    fn drained(&self) -> bool {
        self.draining && self.running.is_empty() && self.lock_admission().queued_total() == 0
    }

    fn lock_admission(&self) -> MutexGuard<'_, Admission<Pending>> {
        self.shared
            .admission
            .lock()
            .unwrap_or_else(|e| e.into_inner())
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
            // The scheduler may have exited after abandoning us; a
            // closed channel is simply ignored.
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
    /// [`finish_job`], and the tenant's in-flight slot.
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
            self.shared.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        finish_job(
            &self.shared,
            &mut self.journal,
            &run.tenant,
            job_id,
            &run.name,
            run.seed,
            &run.tag,
            &run.idem_key,
            &run.writer,
            outcome,
        );
        self.lock_admission().finish(&run.tenant);
    }

    /// Drain complete: close the journal, report, release the reactor.
    fn finish(self) -> ServiceReport {
        // Journal appends flush per line; dropping it closes the file.
        drop(self.journal);
        let shared = self.shared;
        let report = {
            let adm = shared.admission.lock().unwrap_or_else(|e| e.into_inner());
            ServiceReport {
                done: adm.done_total(),
                shed: adm.shed_total(),
                cancelled: shared.cancelled.load(Ordering::Relaxed),
                recovered: shared.recovered.load(Ordering::Relaxed),
            }
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
        shared.mark_drained();
        report
    }
}

/// The scheduler thread: dispatch, deadlines, completions, progress
/// frames, drain.
pub(super) fn scheduler_loop(
    shared: &Arc<Shared>,
    rx: Receiver<SchedMsg>,
    unbuildable: Vec<Unbuildable>,
) -> ServiceReport {
    let mut sched = Scheduler::new(Arc::clone(shared), to_pool);

    // Recovered jobs whose factory rejected them: give them a durable
    // terminal outcome right away — "exactly one terminal outcome per
    // accepted job" has to hold even for work that can no longer run.
    for u in unbuildable {
        finish_job(
            shared,
            &mut sched.journal,
            &u.tenant,
            u.job_id,
            &u.name,
            0,
            &None,
            &u.idem_key,
            &None,
            Err(u.error),
        );
    }

    let _heartbeat = spawn_heartbeat(shared);

    loop {
        let now = Instant::now();
        sched.fire_timers(now);
        sched.pump(now);
        if sched.drained() {
            break;
        }
        let woken = match next_wakeup(&sched.running, sched.drain_cancel_at, &shared.cfg) {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        match woken {
            Ok(msg) => {
                shared.sched_message_wakeups.fetch_add(1, Ordering::Relaxed);
                sched.handle(msg, Instant::now());
            }
            // The timer that came due fires at the top of the loop.
            Err(RecvTimeoutError::Timeout) => {
                shared.sched_timer_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            Err(RecvTimeoutError::Disconnected) => unreachable!("`Shared` holds a sender"),
        }
    }
    sched.finish()
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
        let (queued, inflight, done, shed, draining) = {
            let adm = shared.admission.lock().unwrap_or_else(|e| e.into_inner());
            (
                adm.queued_total() as u64,
                adm.inflight_total() as u64,
                adm.done_total(),
                adm.shed_total(),
                adm.draining(),
            )
        };
        let (warm_hits, warm_misses, warm_evictions) = crate::warm_counters();
        crate::obs::telemetry::emit(
            "service_heartbeat",
            vec![
                ("queued", Value::UInt(queued)),
                ("running", Value::UInt(inflight)),
                ("done", Value::UInt(done)),
                ("shed", Value::UInt(shed)),
                ("draining", Value::Bool(draining)),
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

/// Terminal bookkeeping shared by every completion path: telemetry,
/// WAL `done` record, journal entry, idempotency-map completion,
/// `done` responses to the submitting connection and every waiter —
/// each send also releasing that connection's pipeline-gate slot.
///
/// Ordering is the durability contract's other half: the outcome is
/// made durable (WAL fsync, journal) *before* any client sees `done`,
/// so an outcome a client has observed can never be re-run after a
/// restart — that would duplicate the job's side effects.
#[allow(clippy::too_many_arguments)]
fn finish_job(
    shared: &Shared,
    journal: &mut Option<Journal>,
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
    if let Some(w) = &shared.wal {
        let record = WalRecord::Done {
            job_id,
            outcome: outcome.clone(),
        };
        if let Err(e) = w.append(&record) {
            eprintln!("service: wal done append failed for job {job_id}: {e}");
        }
    }
    if let Some(j) = journal.as_mut() {
        let entry = protocol::journal_entry(job_id, name, seed, outcome.clone());
        if let Err(e) = j.append(&entry) {
            eprintln!("service: journal append failed: {e}");
        }
    }
    // Record completion in the idem map *before* collecting waiters
    // (same idem → waiters lock order as submit-side registration): a
    // duplicate submit either sees InFlight and lands in the waiter
    // list we are about to drain, or sees Done and answers itself.
    let waiting = {
        if let Some(key) = idem_key {
            let mut idem = shared.idem.lock().unwrap_or_else(|e| e.into_inner());
            idem.record_done(
                key.clone(),
                job_id,
                name.to_string(),
                outcome.clone(),
                shared.cfg.idem_cap,
            );
        }
        let mut waiters = shared.waiters.lock().unwrap_or_else(|e| e.into_inner());
        waiters.remove(&job_id).unwrap_or_default()
    };
    if let Some(w) = writer {
        send_line(w, &protocol::done(job_id, name, &outcome, tag));
        w.gate.release();
    }
    for (w, waiter_tag) in waiting {
        send_line(&w, &protocol::done(job_id, name, &outcome, &waiter_tag));
        w.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Job;
    use crate::service::reactor;
    use crate::service::server::IdemMap;
    use crate::service::wal::Wal;
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc::channel;

    const MS: Duration = Duration::from_millis(1);

    /// A scheduler with no thread of its own: the test is its clock and
    /// its event source.
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
        let factory: crate::service::JobFactory = Arc::new(|_| Err("unused".into()));
        let shared = Shared::new(cfg, factory, wal, IdemMap::default(), 1, waker, tx)
            .expect("the worker pool starts");
        Rig {
            sched: Scheduler::new(Arc::new(shared), submit),
            rx,
            _reactor_end: reactor_end,
        }
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
            queued: now,
        };
        (pending, writer)
    }

    /// Queues [`pending`] as the admission thread would.
    fn admit(rig: &Rig, job_id: u64, deadline: Duration, now: Instant) -> ConnWriter {
        let (pending, writer) = pending(rig, job_id, deadline, now);
        let offered = rig.sched.lock_admission().offer("t", pending, 10);
        assert_eq!(offered, Ok(()));
        writer
    }

    /// The frames queued for one connection since the last call, parsed.
    fn frames(writer: &ConnWriter) -> Vec<protocol::Response> {
        writer
            .take_lines(usize::MAX)
            .iter()
            .map(|l| protocol::Response::parse(l).expect("server frames parse"))
            .collect()
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
        let dir = std::env::temp_dir().join(format!("vsnoop-sched-spawn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let cfg = ServiceConfig {
            journal_path: Some(dir.join("journal.jsonl")),
            wal_path: Some(dir.join("wal.jsonl")),
            sync: false,
            ..ServiceConfig::default()
        };
        let mut rig = rig(cfg, refuse);
        let t0 = Instant::now();
        let conn = admit(&rig, 1, 1_000 * MS, t0);
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
        let adm = rig.sched.lock_admission();
        assert_eq!((adm.inflight_total(), adm.done_total()), (0, 1));
        drop(adm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admitted_job_runs_and_completes_without_any_timer() {
        let mut rig = rig(ServiceConfig::default(), inline);
        let t0 = Instant::now();
        let conn = admit(&rig, 1, 1_000 * MS, t0);
        rig.sched.handle(SchedMsg::Admitted, t0);
        rig.sched.pump(t0);
        // The worker ran inline and reported on the scheduler's channel.
        let msg = rig.rx.try_recv().expect("a completion message");
        rig.sched.handle(msg, t0 + MS);
        assert_eq!(
            frames(&conn),
            [protocol::Response::Done {
                job_id: 1,
                job: "unit".into(),
                outcome: Ok("out\n".into()),
                tag: None,
            }]
        );
        assert_eq!(
            next_wakeup(&rig.sched.running, None, &rig.sched.shared.cfg),
            None
        );
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
        let conn = admit(&rig, 1, 2_000 * MS, t0);
        rig.sched.pump(t0);
        assert_eq!(wake(&rig), Some(at(500)));

        rig.sched.fire_timers(at(499));
        assert!(frames(&conn).is_empty(), "nothing is due yet");
        rig.sched.fire_timers(at(500));
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
        rig.sched.fire_timers(at(2_000));
        assert!(token.is_cancelled());
        assert_eq!(frames(&conn).len(), 1, "one more progress frame");
        assert_eq!(wake(&rig), Some(at(2_500)));

        // The job never unwinds: it is abandoned as a timeout.
        rig.sched.fire_timers(at(3_000));
        match frames(&conn).as_slice() {
            [protocol::Response::Done { outcome, .. }] => {
                assert_eq!(outcome.clone().expect_err("abandoned").0, "timeout");
            }
            other => panic!("expected one done frame, got {other:?}"),
        }
        assert!(rig.sched.running.is_empty());
        assert_eq!(wake(&rig), None, "an idle scheduler arms nothing");
        // Its late completion is dropped, not answered twice.
        rig.sched
            .handle(SchedMsg::Completed(1, Outcome::Cancelled), at(3_100));
        assert!(frames(&conn).is_empty());
    }

    #[test]
    fn drain_evicts_the_queue_waits_for_reservations_and_cancels_after_grace() {
        let cfg = ServiceConfig {
            workers: 1,
            drain_grace: 300 * MS,
            progress_interval: Duration::ZERO,
            ..ServiceConfig::default()
        };
        let mut rig = rig(cfg, never_runs);
        let t0 = Instant::now();
        let at = |ms: u32| t0 + ms * MS;
        let runner = admit(&rig, 1, 30_000 * MS, t0);
        let queued = admit(&rig, 2, 30_000 * MS, t0);
        rig.sched.pump(t0);
        assert_eq!(rig.sched.running.len(), 1, "one worker slot");
        // A third submit is between its reservation and its publish
        // (its WAL append, say) when the drain begins.
        assert_eq!(rig.sched.lock_admission().reserve("t", 10), Ok(()));

        rig.sched.handle(SchedMsg::Stop, at(100));
        rig.sched.pump(at(100));
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
        rig.sched.fire_timers(at(400));
        assert!(token.is_cancelled());
        rig.sched
            .handle(SchedMsg::Completed(1, Outcome::Cancelled), at(410));
        cancelled(&runner, "drain");

        // Nothing runs, nothing is queued, yet the drain is not over:
        // the reserved submit has been promised an answer.
        assert!(!rig.sched.drained());
        let (pending, late) = pending(&rig, 3, 30_000 * MS, at(420));
        rig.sched.lock_admission().publish("t", pending, 10);
        rig.sched.handle(SchedMsg::Admitted, at(420));
        rig.sched.pump(at(420));
        cancelled(&late, "evicted");
        assert!(rig.sched.drained());
        assert_eq!(rig.sched.shared.cancelled.load(Ordering::Relaxed), 3);
    }
}
