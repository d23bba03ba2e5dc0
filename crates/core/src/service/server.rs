//! The always-on simulation server: a readiness reactor driving every
//! connection and an admission thread owning durable accepts. The
//! scheduler that drives dispatch, deadlines, and graceful drain lives
//! next door in [`super::sched`].
//!
//! Threading model (all plain `std::thread` + `std::net`, no external
//! runtime):
//!
//! - **reactor** (one thread): a [`super::reactor::Poller`] over the
//!   listener, a self-wake channel, and every client socket — all
//!   nonblocking. It accepts connections, assembles JSONL frames from
//!   bounded per-connection read buffers, answers cheap requests
//!   (`status`/`ping`/`shutdown`/`subscribe`) inline, enforces the
//!   per-connection pipelining cap (excess submits shed with a typed
//!   retryable `pipeline_full`), reaps idle connections with a typed
//!   `idle_timeout` error, and flushes every connection's outbox to
//!   its socket. One thread serves hundreds of connections; a
//!   connection storm costs file descriptors, not threads;
//! - **admission** (one thread): receives submits from the reactor
//!   over a channel and runs dedup + admission + the fsynced WAL
//!   `accepted` append. Disk waits land here, never on the reactor,
//!   and the single thread preserves global submit order. A job joins
//!   the dispatch queue only after its `accepted` line is in the
//!   outbox, and the scheduler is told so at once;
//! - **scheduler** (one thread, [`super::sched`]): round-robin
//!   dispatch out of [`Admission`] onto the worker pool (at most
//!   `workers` jobs running), completion collection, the per-job
//!   deadline watchdog, periodic `progress` frames for running jobs,
//!   and the drain sequence. It sleeps until a message or a job's
//!   timer wakes it. It is the only writer of the journal, so journal
//!   entries land in completion order without interleaving;
//! - **workers** (`workers` parked threads, started with the server):
//!   an [`attempt::Pool`] that runs each dispatched job on the runner's
//!   attempt path ([`crate::runner::attempt`]) and reports its outcome
//!   back over a channel. A job the watchdog abandons is the only
//!   reason a thread starts later: the pool replaces its worker.
//!
//! Replies never block the reactor either: every connection has an
//! **outbox** (an unbounded queue of response lines) that any thread —
//! the admission thread, the scheduler, a subscriber pump — appends to
//! via [`send_line`]; the append marks the connection dirty and wakes
//! the reactor, which copies lines into a bounded write buffer and
//! writes as far as the socket allows. A connection whose outbox backs
//! up past a cap stops being *read* (backpressure) until it drains.
//!
//! Every response a client can observe is typed; overload sheds, bad
//! requests get `error` lines, deadlines become `timeout` outcomes and
//! a drain becomes `cancelled` outcomes — the server never answers a
//! request with silence and never panics on malformed input.
//!
//! The drain contract (also in `SERVICE.md`): stop accepting, shed new
//! submits as `draining`, journal still-queued jobs as cancelled, give
//! running jobs `drain_grace` to finish, then cancel their tokens; the
//! attempt path's watchdog bounds the rest with `cancel_grace` (each is
//! journaled as cancelled) so shutdown completes in bounded time no
//! matter what a job does. The reactor then stops the
//! admission thread (answering everything still queued to it), gives
//! every connection a final flush window, and closes them all.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, RecvTimeoutError, Sender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::obs::metrics;
use crate::runner::attempt;
use crate::runner::json::Value;
use crate::runner::{Job, JobError};

use super::protocol::{self, Request, ShedReason, Submit, TenantStatus};
use super::quota::{Admission, PipelineGate, TenantQuota};
use super::reactor::{self, Interest, Poller, ReadyEvent};
use super::sched::{scheduler_loop, SchedMsg, Unbuildable};
use super::wal::{Wal, WalRecord, WalState};

/// Builds a runnable [`Job`] from a submit request, or a client-visible
/// error message (unknown job name, bad parameters). The bench
/// binaries install the campaign registry here; tests install
/// synthetic jobs.
pub type JobFactory = Arc<dyn Fn(&Submit) -> Result<Job, String> + Send + Sync>;

/// Server tuning knobs. The defaults are sized for the integration
/// tests and the verify smoke; the `serve` binary exposes flags for
/// each.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Max jobs running concurrently across all tenants.
    pub workers: usize,
    /// Global cap on queued (admitted, undispatched) jobs.
    pub queue_cap: usize,
    /// Per-tenant quota.
    pub quota: TenantQuota,
    /// Deadline for submits that don't carry `deadline_ms`.
    pub default_deadline: Duration,
    /// How long a drain waits for running jobs to finish naturally
    /// before cancelling their tokens.
    pub drain_grace: Duration,
    /// How long a cancelled job gets to unwind before it is abandoned.
    pub cancel_grace: Duration,
    /// Journal of every accepted job's terminal outcome (`None`
    /// disables journaling).
    pub journal_path: Option<PathBuf>,
    /// Write-ahead submission log (`None` disables durability): every
    /// `accepted` is fsynced here before the client sees it, and every
    /// terminal outcome before its `done`.
    pub wal_path: Option<PathBuf>,
    /// Replay the WAL on startup, re-enqueueing non-terminal jobs
    /// under their original tenants (no-op without a WAL, or on a
    /// fresh log). On by default: an operator who configures a WAL
    /// wants the jobs in it to run.
    pub recover: bool,
    /// `fdatasync` WAL appends (group-committed) and journal terminal
    /// entries. Off trades power-loss durability for speed — crash
    /// safety against process death (kill -9) is retained either way,
    /// since both logs flush per line.
    pub sync: bool,
    /// Longest request line accepted, in bytes; longer frames get a
    /// typed `oversized_frame` error and are discarded without ever
    /// being buffered whole.
    pub max_frame_bytes: usize,
    /// Completed idempotency-key entries retained for dedup (oldest
    /// evicted first; also the compaction bound for completed pairs
    /// kept in the WAL across restarts).
    pub idem_cap: usize,
    /// Telemetry records buffered per subscriber before it is declared
    /// lagged and disconnected.
    pub sub_buffer: usize,
    /// Max in-flight submits per connection (accepted but not yet
    /// answered with `done`). Excess pipelined submits are shed with a
    /// typed retryable `pipeline_full` reason. Dedup replays of an
    /// idempotency key the server already knows are always honoured,
    /// even at the cap — the original acceptance promised the outcome.
    pub pipeline_limit: usize,
    /// Close connections with no traffic, no in-flight jobs and no
    /// subscription after this long, with a typed retryable
    /// `idle_timeout` error. Zero disables reaping.
    pub idle_timeout: Duration,
    /// How often a running job streams a `progress` frame back to its
    /// submitting connection (between `accepted` and `done`). Zero
    /// disables streaming.
    pub progress_interval: Duration,
    /// Accept-queue depth re-requested on the listener at startup.
    /// `std::net::TcpListener::bind` hard-codes a backlog of 128,
    /// which a herd of simultaneous connects (the 512-connection soak)
    /// overflows — the kernel then drops handshakes and clients see
    /// resets or SYN-retry stalls. `listen(2)` on an already-listening
    /// socket updates the backlog in place; the kernel clamps it to
    /// `net.core.somaxconn`. Zero keeps the bind-time backlog.
    pub listen_backlog: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_cap: 256,
            quota: TenantQuota::default(),
            default_deadline: Duration::from_secs(30),
            drain_grace: Duration::from_secs(5),
            cancel_grace: Duration::from_secs(2),
            journal_path: None,
            wal_path: None,
            recover: true,
            sync: true,
            max_frame_bytes: 64 * 1024,
            idem_cap: 1024,
            sub_buffer: 256,
            pipeline_limit: 64,
            idle_timeout: Duration::from_secs(300),
            progress_interval: Duration::from_millis(500),
            listen_backlog: 1024,
        }
    }
}

/// End-of-life counters returned by [`Server::wait`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Jobs that reached a terminal outcome (any kind).
    pub done: u64,
    /// Submits refused by admission.
    pub shed: u64,
    /// Jobs cancelled by the drain (queued evictions + token cancels +
    /// abandons).
    pub cancelled: u64,
    /// Jobs re-enqueued from the write-ahead log at startup.
    pub recovered: u64,
}

/// How often the scheduler thread has left its wait, by cause (see
/// [`Server::scheduler_wakeups`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerWakeups {
    /// A message arrived: a job was admitted, a worker finished, or a
    /// drain was requested.
    pub messages: u64,
    /// A running job's deadline, cancel grace or progress cadence, or
    /// the drain grace, came due with no message pending.
    pub timers: u64,
}

/// Reactor wakeup shared by every outbox: appending a response line
/// marks the connection's token dirty and pokes the poller, so replies
/// reach the socket on the next reactor pass rather than the next
/// timeout tick.
struct WakeShared {
    waker: reactor::Waker,
    /// Tokens with freshly appended outbox lines (deduplicated).
    dirty: Mutex<Vec<u64>>,
}

impl WakeShared {
    fn mark_dirty(&self, token: u64) {
        let newly = {
            let mut dirty = self.dirty.lock().unwrap_or_else(|e| e.into_inner());
            if dirty.contains(&token) {
                false
            } else {
                dirty.push(token);
                true
            }
        };
        // One wake per dirtying, not per line: a token already marked
        // implies a pending (or imminent) reactor pass.
        if newly {
            self.waker.wake();
        }
    }

    fn take_dirty(&self) -> Vec<u64> {
        std::mem::take(&mut *self.dirty.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Queued-but-unwritten response lines for one connection.
#[derive(Default)]
struct OutQueue {
    lines: VecDeque<String>,
    bytes: usize,
    closed: bool,
}

/// A connection's write side, shared between the reactor, the
/// admission thread, the scheduler (`accepted`/`progress`/`done`
/// responses) and subscriber pumps. Appends never block: lines land in
/// an outbox the reactor flushes to the nonblocking socket as fast as
/// the client reads. The pipeline gate rides here because its lifetime
/// is exactly the connection's.
pub(super) struct Outbox {
    /// The reactor token of the owning connection.
    token: u64,
    /// Per-connection pipelining cap (submits in flight).
    pub(super) gate: PipelineGate,
    queue: Mutex<OutQueue>,
    wake: Arc<WakeShared>,
}

impl Outbox {
    fn push(&self, line: &str) {
        {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.closed {
                return;
            }
            q.bytes += line.len() + 1;
            q.lines.push_back(line.to_string());
        }
        self.wake.mark_dirty(self.token);
    }

    /// Pops queued lines until roughly `target_bytes` worth are taken.
    pub(super) fn take_lines(&self, target_bytes: usize) -> Vec<String> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        let mut taken = 0usize;
        while taken < target_bytes {
            match q.lines.pop_front() {
                Some(line) => {
                    taken += line.len() + 1;
                    q.bytes = q.bytes.saturating_sub(line.len() + 1);
                    out.push(line);
                }
                None => break,
            }
        }
        out
    }

    fn backlog_lines(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lines
            .len()
    }

    fn backlog_bytes(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).bytes
    }

    fn is_closed(&self) -> bool {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).closed
    }

    /// Marks the connection gone: future pushes are dropped and pumps
    /// watching [`is_closed`](Self::is_closed) exit.
    fn close(&self) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        q.lines.clear();
        q.bytes = 0;
    }
}

/// See [`Outbox`].
pub(super) type ConnWriter = Arc<Outbox>;

/// Queues one response line, best-effort: a dead or slow client must
/// never take the server down with it (its lines are dropped once the
/// connection closes).
pub(super) fn send_line(writer: &ConnWriter, line: &str) {
    writer.push(line);
}

/// An admitted-but-undispatched job. `writer` is `None` for jobs
/// re-enqueued from the WAL at startup — their submitting connection
/// died with the old process; a resubmit with the same idempotency key
/// re-attaches via the waiter list.
pub(super) struct Pending {
    pub(super) job_id: u64,
    pub(super) job: Job,
    pub(super) deadline: Duration,
    pub(super) tag: Option<String>,
    pub(super) idem_key: Option<String>,
    pub(super) writer: Option<ConnWriter>,
    /// When the reactor parsed the originating submit (`None` for jobs
    /// re-enqueued from the WAL — their submit predates this process).
    pub(super) received: Option<Instant>,
    /// When the job became dispatchable — published to the admission
    /// queue, after its WAL append and its `accepted` line; the
    /// scheduler's dispatch turns the difference into the queue-wait
    /// metric.
    pub(super) queued: Instant,
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
pub(super) struct IdemMap {
    entries: HashMap<String, IdemState>,
    done_order: VecDeque<String>,
}

impl IdemMap {
    /// Marks `key` completed, evicting the oldest completed entries
    /// beyond `cap`.
    pub(super) fn record_done(
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

/// Extra connections waiting on a job's terminal outcome: resubmits of
/// an in-flight idempotency key (typically a client that reconnected
/// after losing the original connection). Each waiter gets the `done`
/// line with its own tag.
pub(super) type Waiters = HashMap<u64, Vec<(ConnWriter, Option<String>)>>;

/// One submit forwarded from the reactor to the admission thread. The
/// gate slot was already acquired by the reactor; every admission path
/// either keeps it (an eventual `done` releases it) or releases it
/// with its terminal reply.
struct AdmitRequest {
    submit: Submit,
    bytes: usize,
    writer: ConnWriter,
    /// When the reactor parsed the request — admission wait and the
    /// end-to-end server-side latency both start here.
    received: Instant,
}

/// State shared by the reactor, admission thread and scheduler.
pub(super) struct Shared {
    pub(super) admission: Mutex<Admission<Pending>>,
    /// Set by [`request_stop`](Self::request_stop); the reactor closes
    /// the listener on it (the scheduler gets [`SchedMsg::Stop`]).
    stop: AtomicBool,
    /// Set once the drain has completed; the reactor flushes and
    /// closes every connection on it.
    done: AtomicBool,
    next_job_id: AtomicU64,
    pub(super) cancelled: AtomicU64,
    pub(super) recovered: AtomicU64,
    /// Lock order where both are held: `idem` before `waiters`. That
    /// makes "saw InFlight → registered waiter" atomic against the
    /// scheduler's "record done → drain waiters", closing the window
    /// where a resubmit could register after the drain and wait
    /// forever.
    pub(super) idem: Mutex<IdemMap>,
    pub(super) waiters: Mutex<Waiters>,
    pub(super) wal: Option<Wal>,
    wake: Arc<WakeShared>,
    /// Everything the scheduler must react to is sent here: it has no
    /// poll interval to fall back on.
    pub(super) sched_tx: Sender<SchedMsg>,
    /// [`SchedulerWakeups`], counted by the scheduler loop.
    pub(super) sched_message_wakeups: AtomicU64,
    pub(super) sched_timer_wakeups: AtomicU64,
    /// Runs dispatched jobs; dropped with the last handle on the server.
    pub(super) pool: attempt::Pool,
    pub(super) cfg: ServiceConfig,
    factory: JobFactory,
}

impl Shared {
    pub(super) fn new(
        cfg: ServiceConfig,
        factory: JobFactory,
        wal: Option<Wal>,
        idem: IdemMap,
        first_job_id: u64,
        waker: reactor::Waker,
        sched_tx: Sender<SchedMsg>,
    ) -> std::io::Result<Shared> {
        Ok(Shared {
            admission: Mutex::new(Admission::new(cfg.queue_cap, cfg.quota)),
            stop: AtomicBool::new(false),
            done: AtomicBool::new(false),
            next_job_id: AtomicU64::new(first_job_id),
            cancelled: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            idem: Mutex::new(idem),
            waiters: Mutex::new(Waiters::new()),
            wal,
            wake: Arc::new(WakeShared {
                waker,
                dirty: Mutex::new(Vec::new()),
            }),
            sched_tx,
            sched_message_wakeups: AtomicU64::new(0),
            sched_timer_wakeups: AtomicU64::new(0),
            pool: attempt::Pool::start(cfg.workers, "vsnoop-svc-worker")?,
            cfg,
            factory,
        })
    }

    /// The write side of a new connection registered under `token`.
    pub(super) fn outbox(&self, token: u64) -> ConnWriter {
        Arc::new(Outbox {
            token,
            gate: PipelineGate::new(self.cfg.pipeline_limit),
            queue: Mutex::new(OutQueue::default()),
            wake: Arc::clone(&self.wake),
        })
    }

    /// Starts the graceful drain, once: in-process shutdown, the
    /// `shutdown` op and a signal all land here.
    fn request_stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // A scheduler that has already exited is already drained.
            let _ = self.sched_tx.send(SchedMsg::Stop);
            self.wake.waker.wake();
        }
    }

    /// Tells the reactor the drain is complete: it flushes and closes
    /// every connection, then exits.
    pub(super) fn mark_drained(&self) {
        self.done.store(true, Ordering::SeqCst);
        // The reactor may be parked in a poll: start its final flush now.
        self.wake.waker.wake();
    }

    /// Builds a `status` response from admission + warm-pool counters.
    fn status_line(&self) -> String {
        let warm: HashMap<String, (u64, u64)> = crate::warm_tenant_counters()
            .into_iter()
            .map(|(t, h, m)| (t, (h, m)))
            .collect();
        let adm = self.admission.lock().unwrap_or_else(|e| e.into_inner());
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
}

/// A running service instance. Dropping it does *not* stop the server;
/// call [`shutdown`](Self::shutdown) then [`wait`](Self::wait).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<std::thread::JoinHandle<()>>,
    scheduler: Option<std::thread::JoinHandle<ServiceReport>>,
}

impl Server {
    /// The bound address (useful with port 0 in tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain (same path as SIGTERM).
    pub fn shutdown(&self) {
        self.shared.request_stop();
    }

    /// How often the scheduler thread has woken so far. An idle server
    /// reads the same value however long it idles, and a job that
    /// finishes inside its timers adds to `messages` only.
    pub fn scheduler_wakeups(&self) -> SchedulerWakeups {
        SchedulerWakeups {
            messages: self.shared.sched_message_wakeups.load(Ordering::Relaxed),
            timers: self.shared.sched_timer_wakeups.load(Ordering::Relaxed),
        }
    }

    /// Blocks until the drain completes and returns the final
    /// counters. Also called internally by the `serve` binary after a
    /// signal.
    pub fn wait(mut self) -> ServiceReport {
        let report = self
            .scheduler
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        report
    }
}

/// Starts serving on `listener`. Returns immediately; the server runs
/// on background threads until a drain completes.
///
/// When a WAL is configured, startup first replays it (unless
/// `recover` is off), compacts it, and re-enqueues every non-terminal
/// job under its original tenant and job id — all *before* the reactor
/// starts, so recovered work is ahead of new submits and job-id
/// allocation resumes above the high-water mark.
pub fn serve(
    listener: TcpListener,
    factory: JobFactory,
    cfg: ServiceConfig,
) -> std::io::Result<Server> {
    listener.set_nonblocking(true)?;
    deepen_backlog(&listener, cfg.listen_backlog);
    let addr = listener.local_addr()?;

    // --- WAL replay + compaction (before any thread starts). ---
    let mut wal = None;
    let mut state = WalState::default();
    if let Some(path) = &cfg.wal_path {
        if cfg.recover {
            state = Wal::replay(path)?;
            Wal::compact(path, &state, cfg.idem_cap)?;
        }
        wal = Some(Wal::open(path, cfg.sync)?);
    }
    let mut idem = IdemMap::default();
    for (key, rec) in std::mem::take(&mut state.completed) {
        idem.record_done(key, rec.job_id, rec.job, rec.outcome, cfg.idem_cap);
    }

    let poller = Poller::new()?;
    let (waker, wake_rx) = reactor::wake_pair()?;
    let (sched_tx, sched_rx) = channel::<SchedMsg>();

    let shared = Arc::new(Shared::new(
        cfg.clone(),
        factory,
        wal,
        idem,
        state.max_job_id + 1,
        waker,
        sched_tx,
    )?);

    // --- Re-enqueue the recovered backlog. Jobs whose factory no
    // longer recognizes them (registry changed across the restart)
    // are terminally failed instead — durably, so they never replay
    // again — and journaled by the scheduler at startup.
    let mut unbuildable: Vec<Unbuildable> = Vec::new();
    for p in state.pending {
        let submit = Submit {
            tenant: p.tenant.clone(),
            job: p.job.clone(),
            params: p.params.clone(),
            deadline_ms: p.deadline_ms,
            tag: None,
            idem_key: p.idem_key.clone(),
        };
        match (shared.factory)(&submit) {
            Ok(job) => {
                if let Some(key) = &p.idem_key {
                    let mut idem = shared.idem.lock().unwrap_or_else(|e| e.into_inner());
                    idem.entries
                        .insert(key.clone(), IdemState::InFlight { job_id: p.job_id });
                }
                let pending = Pending {
                    job_id: p.job_id,
                    job,
                    deadline: p
                        .deadline_ms
                        .map_or(cfg.default_deadline, Duration::from_millis),
                    tag: None,
                    idem_key: p.idem_key.clone(),
                    writer: None,
                    received: None,
                    queued: Instant::now(),
                };
                {
                    let mut adm = shared.admission.lock().unwrap_or_else(|e| e.into_inner());
                    adm.restore(&p.tenant, pending, p.bytes as usize);
                }
                let _ = shared.sched_tx.send(SchedMsg::Admitted);
                if let Some(w) = &shared.wal {
                    w.append(&WalRecord::Recovered { job_id: p.job_id })?;
                }
                if crate::obs::telemetry_active() {
                    crate::obs::telemetry::emit(
                        "service_recovered",
                        vec![
                            ("job_id", Value::UInt(p.job_id)),
                            ("tenant", Value::Str(p.tenant.clone())),
                            ("job", Value::Str(p.job.clone())),
                        ],
                    );
                }
                shared.recovered.fetch_add(1, Ordering::Relaxed);
            }
            Err(message) => {
                unbuildable.push(Unbuildable {
                    tenant: p.tenant.clone(),
                    job_id: p.job_id,
                    name: p.job.clone(),
                    idem_key: p.idem_key.clone(),
                    error: JobError::Failed {
                        message: format!("recovery: job no longer buildable: {message}"),
                    },
                });
            }
        }
    }

    let scheduler = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("vsnoop-svc-sched".into())
            .spawn(move || scheduler_loop(&shared, sched_rx, unbuildable))?
    };

    // Submits hop from the reactor to this thread so the WAL fsync in
    // `handle_submit` never stalls connection I/O. One thread, one
    // channel: global FIFO admission order is preserved.
    let (admit_tx, admit_rx) = channel::<AdmitRequest>();
    let admit = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("vsnoop-svc-admit".into())
            .spawn(move || {
                while let Ok(req) = admit_rx.recv() {
                    handle_submit(req.submit, req.bytes, &req.writer, &shared, req.received);
                }
            })?
    };

    // A SIGTERM should interrupt a blocked poll immediately.
    super::signal::set_wake_fd(shared.wake.waker.raw_fd());

    let reactor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("vsnoop-svc-reactor".into())
            .spawn(move || reactor_loop(listener, poller, wake_rx, &shared, admit_tx, admit))?
    };

    Ok(Server {
        addr,
        shared,
        reactor: Some(reactor),
        scheduler: Some(scheduler),
    })
}

/// Re-requests a deeper accept queue on an already-listening socket
/// (see [`ServiceConfig::listen_backlog`]). Best-effort: on failure the
/// bind-time backlog stays in effect, which only costs handshake
/// latency under connect storms.
fn deepen_backlog(listener: &TcpListener, backlog: u32) {
    use std::os::raw::c_int;
    extern "C" {
        fn listen(fd: c_int, backlog: c_int) -> c_int;
    }
    if backlog == 0 {
        return;
    }
    let capped = backlog.min(c_int::MAX as u32) as c_int;
    unsafe {
        let _ = listen(listener.as_raw_fd(), capped);
    }
}

// --- Reactor constants. ---

/// Token of the accept listener in the poll set.
const LISTENER_TOKEN: u64 = 0;
/// Token of the self-wake channel's read end.
const WAKE_TOKEN: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Bytes read per `read(2)` round.
const READ_CHUNK: usize = 16 * 1024;
/// Max read rounds per readiness event per connection — level-
/// triggered polling re-reports an fd that still has bytes, so capping
/// rounds bounds per-connection latency without losing data.
const READ_ROUNDS: usize = 8;
/// Target fill of the per-connection write buffer per flush.
const WBUF_TARGET: usize = 64 * 1024;
/// Outbox backlog past which the connection stops being read
/// (backpressure for clients that submit faster than they read).
const OUTBOX_PAUSE_BYTES: usize = 1 << 20;
/// How long the post-drain final flush may take before connections
/// are closed with output still queued.
const FINAL_FLUSH_GRACE: Duration = Duration::from_secs(5);
/// Poll timeout: the reactor re-checks stop/done flags and idle
/// timers at least this often.
const TICK: Duration = Duration::from_millis(50);

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    writer: ConnWriter,
    /// Partial frame bytes awaiting a newline.
    rbuf: Vec<u8>,
    /// An over-cap frame is streaming past; drop bytes to its newline.
    discarding: bool,
    /// Write buffer: lines copied out of the outbox, partially written.
    wbuf: Vec<u8>,
    wpos: usize,
    last_activity: Instant,
    /// Telemetry tap id when this connection subscribed.
    tap_id: Option<u64>,
    interest: Interest,
    /// Flush what's queued, then close (drain, idle reap).
    closing: bool,
    /// The client closed its write half; stop reading but keep
    /// delivering responses for its in-flight jobs.
    read_eof: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wpos >= self.wbuf.len() && self.writer.backlog_lines() == 0
    }
}

/// The reactor: accept, read + frame assembly, request handling for
/// everything except submits (which hop to the admission thread),
/// outbox flushing, idle reaping, and the post-drain connection sweep.
fn reactor_loop(
    listener: TcpListener,
    mut poller: Poller,
    mut wake_rx: UnixStream,
    shared: &Arc<Shared>,
    admit_tx: Sender<AdmitRequest>,
    admit_join: std::thread::JoinHandle<()>,
) {
    let mut listener = Some(listener);
    if let Some(l) = &listener {
        let _ = poller.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
    }
    let _ = poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ);
    if crate::obs::telemetry_active() {
        crate::obs::telemetry::emit(
            "service_reactor",
            vec![("backend", Value::Str(poller.backend_name().to_string()))],
        );
    }

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut admit = Some((admit_tx, admit_join));
    let mut done_at: Option<Instant> = None;
    let mut events: Vec<ReadyEvent> = Vec::new();
    let mut to_close: Vec<u64> = Vec::new();

    loop {
        if super::signal::requested() {
            // Propagate a signal-initiated drain to the scheduler.
            shared.request_stop();
        }
        if shared.stop.load(Ordering::SeqCst) {
            if let Some(l) = listener.take() {
                let _ = poller.deregister(l.as_raw_fd());
                // Dropping closes the port; new connects are refused.
            }
        }
        if shared.done.load(Ordering::SeqCst) && done_at.is_none() {
            // The scheduler's drain is complete. Stop the admission
            // thread first — joining it guarantees every submit still
            // queued on its channel got its reply (a `draining` shed
            // or a dedup answer) into an outbox before we start the
            // final flush.
            if let Some((tx, join)) = admit.take() {
                drop(tx);
                let _ = join.join();
            }
            for conn in conns.values_mut() {
                conn.closing = true;
            }
            done_at = Some(Instant::now());
        }
        if let Some(at) = done_at {
            let expired = at.elapsed() >= FINAL_FLUSH_GRACE;
            to_close.clear();
            for (&token, conn) in conns.iter_mut() {
                let open = flush_conn(conn, &mut poller, token);
                if !open || expired || conn.flushed() {
                    to_close.push(token);
                }
            }
            for token in to_close.drain(..) {
                if let Some(conn) = conns.remove(&token) {
                    close_conn(conn, &mut poller);
                }
            }
            if conns.is_empty() {
                break;
            }
        }

        let poll_start = Instant::now();
        if poller.wait(&mut events, TICK).is_err() {
            // A broken poller would spin; back off and retry (the next
            // wait rebuilds the fd set from scratch on the poll
            // backend and kernel state survives on epoll).
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        metrics::REACTOR_POLL_WAIT_US.record(poll_start.elapsed().as_micros() as u64);
        metrics::REACTOR_EVENTS_PER_WAKE.record(events.len() as u64);

        let dispatch_start = Instant::now();
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => {
                    accept_ready(&listener, &mut poller, &mut conns, &mut next_token, shared);
                }
                WAKE_TOKEN => reactor::drain_wakes(&mut wake_rx),
                token => {
                    let mut keep = true;
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.readable && !conn.closing && !conn.read_eof {
                            keep = read_ready(conn, shared, admit.as_ref().map(|(tx, _)| tx));
                        }
                        if keep {
                            keep = flush_conn(conn, &mut poller, token);
                        }
                        if keep && ev.hangup && !ev.readable {
                            keep = false;
                        }
                    }
                    if !keep {
                        if let Some(conn) = conns.remove(&token) {
                            close_conn(conn, &mut poller);
                        }
                    }
                }
            }
        }

        metrics::REACTOR_DISPATCH_US.record(dispatch_start.elapsed().as_micros() as u64);

        // Flush every connection another thread appended replies to.
        let flush_start = Instant::now();
        for token in shared.wake.take_dirty() {
            if let Some(conn) = conns.get_mut(&token) {
                if !flush_conn(conn, &mut poller, token) {
                    if let Some(conn) = conns.remove(&token) {
                        close_conn(conn, &mut poller);
                    }
                }
            }
        }
        metrics::REACTOR_FLUSH_US.record(flush_start.elapsed().as_micros() as u64);

        // Idle reaping + deferred closes (half-closed peers whose jobs
        // finished, reaped or draining connections now fully flushed).
        let now = Instant::now();
        let idle = shared.cfg.idle_timeout;
        to_close.clear();
        for (&token, conn) in conns.iter_mut() {
            let parked = conn.tap_id.is_none() && conn.writer.gate.inflight() == 0;
            if !conn.closing && conn.read_eof && parked && conn.flushed() {
                to_close.push(token);
                continue;
            }
            if !conn.closing
                && !conn.read_eof
                && parked
                && idle > Duration::ZERO
                && now.duration_since(conn.last_activity) >= idle
            {
                send_line(
                    &conn.writer,
                    &protocol::error_coded(
                        &format!("connection idle for {}ms; closing", idle.as_millis()),
                        "idle_timeout",
                        true,
                        &None,
                    ),
                );
                conn.closing = true;
            }
            if conn.closing {
                let open = flush_conn(conn, &mut poller, token);
                if !open || conn.flushed() {
                    to_close.push(token);
                }
            }
        }
        for token in to_close.drain(..) {
            if let Some(conn) = conns.remove(&token) {
                close_conn(conn, &mut poller);
            }
        }
        metrics::REACTOR_CONNECTIONS.set(conns.len() as u64);
    }
    metrics::REACTOR_CONNECTIONS.set(0);
    super::signal::clear_wake_fd(shared.wake.waker.raw_fd());
}

/// Accepts every connection the listener has ready.
fn accept_ready(
    listener: &Option<TcpListener>,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &Arc<Shared>,
) {
    let Some(listener) = listener else { return };
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller
                    .register(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                let writer = shared.outbox(token);
                conns.insert(
                    token,
                    Conn {
                        stream,
                        writer,
                        rbuf: Vec::new(),
                        discarding: false,
                        wbuf: Vec::new(),
                        wpos: 0,
                        last_activity: Instant::now(),
                        tap_id: None,
                        interest: Interest::READ,
                        closing: false,
                        read_eof: false,
                    },
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

/// One frame-assembly output.
enum FrameOut {
    /// A complete request line (without its newline).
    Line(String),
    /// A line exceeded the frame cap; its bytes were discarded as they
    /// streamed in (never buffered whole).
    Oversized,
}

/// Feeds one freshly read chunk through the incremental JSONL frame
/// assembler. Unlike a `read_line`, an over-long frame costs O(max)
/// memory, not O(frame): once the cap is crossed the rest of the line
/// is dropped as it streams in (`discarding` carries that state across
/// chunks, exactly as the reads deliver them — torn frames reassemble
/// byte-for-byte).
fn assemble_frames(
    rbuf: &mut Vec<u8>,
    discarding: &mut bool,
    chunk: &[u8],
    max: usize,
    out: &mut Vec<FrameOut>,
) {
    let mut rest = chunk;
    while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
        let overflow = *discarding || rbuf.len() + pos > max;
        if overflow {
            *discarding = false;
            rbuf.clear();
            out.push(FrameOut::Oversized);
        } else {
            rbuf.extend_from_slice(&rest[..pos]);
            out.push(FrameOut::Line(String::from_utf8_lossy(rbuf).into_owned()));
            rbuf.clear();
        }
        rest = &rest[pos + 1..];
    }
    if !*discarding {
        if rbuf.len() + rest.len() > max {
            *discarding = true;
            rbuf.clear();
        } else {
            rbuf.extend_from_slice(rest);
        }
    }
}

/// Reads as much as fairness allows from a readable connection and
/// handles every complete frame. Returns `false` when the connection
/// should be closed (hard error); EOF instead parks the connection so
/// in-flight responses still reach a half-closed peer.
fn read_ready(
    conn: &mut Conn,
    shared: &Arc<Shared>,
    admit_tx: Option<&Sender<AdmitRequest>>,
) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    let mut frames: Vec<FrameOut> = Vec::new();
    for _ in 0..READ_ROUNDS {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_eof = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                frames.clear();
                assemble_frames(
                    &mut conn.rbuf,
                    &mut conn.discarding,
                    &chunk[..n],
                    shared.cfg.max_frame_bytes,
                    &mut frames,
                );
                for frame in frames.drain(..) {
                    match frame {
                        FrameOut::Line(text) => {
                            let trimmed = text.trim();
                            if !trimmed.is_empty() {
                                handle_request(
                                    trimmed,
                                    &conn.writer,
                                    shared,
                                    &mut conn.tap_id,
                                    admit_tx,
                                );
                            }
                        }
                        FrameOut::Oversized => {
                            send_line(
                                &conn.writer,
                                &protocol::error_coded(
                                    &format!(
                                        "request line exceeds {} bytes",
                                        shared.cfg.max_frame_bytes
                                    ),
                                    "oversized_frame",
                                    false,
                                    &None,
                                ),
                            );
                        }
                    }
                }
                if n < chunk.len() {
                    // Short read: the socket buffer is likely drained;
                    // a level-triggered poll re-reports any remainder.
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Copies outbox lines into the write buffer and writes as far as the
/// socket allows, then re-arms poll interest to match what's left.
/// Returns `false` on a hard write error.
fn flush_conn(conn: &mut Conn, poller: &mut Poller, token: u64) -> bool {
    loop {
        if conn.wpos >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            let lines = conn.writer.take_lines(WBUF_TARGET);
            if lines.is_empty() {
                break;
            }
            for line in &lines {
                conn.wbuf.extend_from_slice(line.as_bytes());
                conn.wbuf.push(b'\n');
            }
        }
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    let want = Interest {
        readable: !conn.closing
            && !conn.read_eof
            && conn.writer.backlog_bytes() < OUTBOX_PAUSE_BYTES,
        writable: conn.wpos < conn.wbuf.len() || conn.writer.backlog_lines() > 0,
    };
    if want != conn.interest {
        conn.interest = want;
        let _ = poller.modify(conn.stream.as_raw_fd(), token, want);
    }
    true
}

/// Tears one connection down: poll deregistration (before the fd
/// closes), outbox closure (pumps exit, future replies are dropped)
/// and telemetry-tap removal.
fn close_conn(conn: Conn, poller: &mut Poller) {
    let _ = poller.deregister(conn.stream.as_raw_fd());
    conn.writer.close();
    if let Some(id) = conn.tap_id {
        crate::obs::telemetry::remove_tap(id);
    }
}

/// Dispatches one parsed request line (on the reactor thread; only
/// submits leave it, hopping to the admission thread with a pipeline
/// slot already held).
fn handle_request(
    line: &str,
    writer: &ConnWriter,
    shared: &Arc<Shared>,
    tap_id: &mut Option<u64>,
    admit_tx: Option<&Sender<AdmitRequest>>,
) {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(message) => {
            // Best-effort tag echo so even a malformed submit can be
            // correlated by the client.
            let tag = Value::parse(line)
                .ok()
                .and_then(|v| v.get("tag").and_then(Value::as_str).map(str::to_string));
            send_line(writer, &protocol::error(&message, &tag));
            return;
        }
    };
    match request {
        Request::Submit(submit) => {
            let received = Instant::now();
            metrics::SERVICE_REQUESTS.inc();
            let gate = &writer.gate;
            let mut granted = gate.try_acquire();
            if !granted {
                // An idempotency key the server already knows is owed
                // its original outcome even at the cap: dedup replies
                // cost no new work, and shedding them would break the
                // "accepted once, answered once" promise.
                let owed = submit.idem_key.as_deref().is_some_and(|key| {
                    shared
                        .idem
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .entries
                        .contains_key(key)
                });
                if owed {
                    gate.acquire();
                    granted = true;
                }
            }
            if !granted {
                metrics::SERVICE_SHED.inc();
                if crate::obs::telemetry_active() {
                    crate::obs::telemetry::emit(
                        "service_shed",
                        vec![
                            ("tenant", Value::Str(submit.tenant.clone())),
                            ("job", Value::Str(submit.job.clone())),
                            (
                                "reason",
                                Value::Str(ShedReason::PipelineFull.as_str().into()),
                            ),
                        ],
                    );
                }
                send_line(
                    writer,
                    &protocol::shed(ShedReason::PipelineFull, &submit.tag),
                );
                return;
            }
            let bytes = line.len();
            let forwarded = admit_tx.is_some_and(|tx| {
                tx.send(AdmitRequest {
                    submit: submit.clone(),
                    bytes,
                    writer: Arc::clone(writer),
                    received,
                })
                .is_ok()
            });
            if !forwarded {
                // The admission thread is gone: the drain has already
                // completed. Same answer a draining queue would give.
                metrics::SERVICE_SHED.inc();
                gate.release();
                send_line(writer, &protocol::shed(ShedReason::Draining, &submit.tag));
            }
        }
        Request::Status => send_line(writer, &shared.status_line()),
        Request::Metrics => send_line(
            writer,
            &protocol::metrics(metrics::snapshot_value(shared.pool.spawns())),
        ),
        Request::Ping => send_line(writer, &protocol::pong()),
        Request::Shutdown => {
            shared.request_stop();
            send_line(writer, &protocol::shutting_down());
        }
        Request::Subscribe => {
            if tap_id.is_some() {
                send_line(writer, &protocol::error("already subscribed", &None));
                return;
            }
            send_line(writer, &protocol::subscribed());
            // Tap → *bounded* channel → pump thread → outbox. The tap
            // never blocks (telemetry producers hold the tap lock while
            // emitting, so a stalled subscriber must cost them nothing):
            // when the buffer is full the tap just raises the lagged
            // flag. The pump notices — likewise when the subscriber's
            // outbox backs up past the same bound, the outbox being
            // unbounded — emits `subscriber_lagged`, and disconnects
            // the subscription. The tap closure itself cannot call
            // `remove_tap`, which takes the lock `emit` is already
            // holding when it invokes taps.
            let (tx, rx) = sync_channel::<String>(shared.cfg.sub_buffer);
            let lagged = Arc::new(AtomicBool::new(false));
            let lag_flag = Arc::clone(&lagged);
            let id = crate::obs::telemetry::add_tap(move |record| {
                if lag_flag.load(Ordering::Relaxed) {
                    return;
                }
                if let Err(TrySendError::Full(_)) = tx.try_send(record.to_string()) {
                    lag_flag.store(true, Ordering::Relaxed);
                }
            });
            *tap_id = Some(id);
            let pump_writer = Arc::clone(writer);
            let sub_cap = shared.cfg.sub_buffer;
            let _ = std::thread::Builder::new()
                .name("vsnoop-svc-sub".into())
                .spawn(move || loop {
                    if lagged.load(Ordering::Relaxed) || pump_writer.backlog_lines() > sub_cap {
                        crate::obs::telemetry::remove_tap(id);
                        if crate::obs::telemetry_active() {
                            crate::obs::telemetry::emit(
                                "subscriber_lagged",
                                vec![("tap", Value::UInt(id))],
                            );
                        }
                        send_line(
                            &pump_writer,
                            &protocol::error_coded(
                                "subscriber lagged; subscription dropped",
                                "subscriber_lagged",
                                true,
                                &None,
                            ),
                        );
                        return;
                    }
                    if pump_writer.is_closed() {
                        crate::obs::telemetry::remove_tap(id);
                        return;
                    }
                    match rx.recv_timeout(Duration::from_millis(100)) {
                        Ok(record) => send_line(&pump_writer, &record),
                        Err(RecvTimeoutError::Timeout) => {}
                        // Tap removed elsewhere (connection closed).
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                });
        }
    }
}

/// Admission for one submit (on the admission thread): dedup on the
/// idempotency key, build the job, reserve its queue slot, make the
/// acceptance durable, answer, and only then publish the job to the
/// scheduler.
///
/// Durability ordering: the WAL `accepted` record is written *and
/// fsynced* before the `accepted` line goes out — a client that has
/// seen `accepted` owns a job that survives any crash. If the WAL
/// write fails the client gets a retryable `wal_failed` error instead
/// (the job still runs, and a keyed retry dedups against it, so the
/// failure degrades durability without breaking no-duplication).
///
/// Wire ordering: the job joins the dispatch queue after its `accepted`
/// line is in the outbox, so the scheduler — which dispatches the
/// moment it is told — cannot put a `done` ahead of it.
///
/// Pipeline-gate contract: the caller (reactor) acquired one slot for
/// this submit. Paths that answer terminally here (dedup `done`
/// replay, factory error, shed) release it; paths that promise a
/// later `done` (queued, in-flight waiter, even `wal_failed` — the
/// job runs) keep it, and the scheduler's `finish_job` releases it
/// with the `done`.
fn handle_submit(
    submit: Submit,
    bytes: usize,
    writer: &ConnWriter,
    shared: &Arc<Shared>,
    received: Instant,
) {
    // How long the submit sat on the reactor→admission channel (plus
    // any WAL stall ahead of it).
    metrics::SERVICE_ADMISSION_WAIT_US.record(received.elapsed().as_micros() as u64);
    // Idempotency dedup first: a duplicate must be answered from the
    // original run even when the server is draining or the queue is
    // full — the original acceptance already promised the work.
    if let Some(key) = &submit.idem_key {
        let idem = shared.idem.lock().unwrap_or_else(|e| e.into_inner());
        if answer_duplicate(&idem, key, &submit, writer, shared, false) {
            return;
        }
    }
    let job = match (shared.factory)(&submit) {
        Ok(job) => job,
        Err(message) => {
            send_line(writer, &protocol::error(&message, &submit.tag));
            writer.gate.release();
            return;
        }
    };
    let deadline = submit
        .deadline_ms
        .map_or(shared.cfg.default_deadline, Duration::from_millis);
    let job_id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
    if let Some(key) = &submit.idem_key {
        let mut idem = shared.idem.lock().unwrap_or_else(|e| e.into_inner());
        // A racing duplicate may have won between our peek and now;
        // defer to it exactly as the peek would have.
        if answer_duplicate(&idem, key, &submit, writer, shared, true) {
            return;
        }
        idem.entries
            .insert(key.clone(), IdemState::InFlight { job_id });
    }
    let reserved = {
        let mut adm = shared.admission.lock().unwrap_or_else(|e| e.into_inner());
        adm.reserve(&submit.tenant, bytes)
    };
    if let Err(reason) = reserved {
        // The key never entered flight: forget it so a later
        // (post-backoff) retry is a fresh submission.
        if let Some(key) = &submit.idem_key {
            let mut idem = shared.idem.lock().unwrap_or_else(|e| e.into_inner());
            if matches!(idem.entries.get(key), Some(IdemState::InFlight { job_id: id }) if *id == job_id)
            {
                idem.entries.remove(key);
            }
        }
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
        send_line(writer, &protocol::shed(reason, &submit.tag));
        writer.gate.release();
        return;
    }
    let mut durable = Ok(());
    if let Some(w) = &shared.wal {
        let record = WalRecord::Accepted {
            job_id,
            tenant: submit.tenant.clone(),
            job: submit.job.clone(),
            params: submit.params.clone(),
            deadline_ms: submit.deadline_ms,
            idem_key: submit.idem_key.clone(),
            bytes: bytes as u64,
        };
        let fsync_start = Instant::now();
        durable = w.append(&record);
        metrics::SERVICE_WAL_FSYNC_US.record(fsync_start.elapsed().as_micros() as u64);
    }
    match durable {
        Ok(()) => {
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
            send_line(writer, &protocol::accepted(job_id, &submit.tag));
        }
        Err(e) => {
            eprintln!("service: wal append failed for job {job_id}: {e}");
            send_line(
                writer,
                &protocol::error_coded(
                    "acceptance could not be made durable; retry",
                    "wal_failed",
                    true,
                    &submit.tag,
                ),
            );
        }
    }
    let pending = Pending {
        job_id,
        job,
        deadline,
        tag: submit.tag,
        idem_key: submit.idem_key,
        writer: Some(Arc::clone(writer)),
        received: Some(received),
        queued: Instant::now(),
    };
    {
        let mut adm = shared.admission.lock().unwrap_or_else(|e| e.into_inner());
        adm.publish(&submit.tenant, pending, bytes);
    }
    // In a drain the scheduler may have picked the job up on another
    // wakeup, cancelled it and exited already: nobody is left to tell.
    let _ = shared.sched_tx.send(SchedMsg::Admitted);
}

/// Answers `submit` from the job that already owns its idempotency
/// `key`, if there is one: a completed key replays `accepted` + `done`
/// (releasing the pipeline slot), a key in flight parks this
/// connection as a waiter for that job's `done`. Returns whether the
/// submit was answered. `race` only labels the telemetry.
///
/// The caller holds `idem` across the call. The scheduler records a key
/// done under the same lock before it collects waiters, so a waiter
/// parked here is never missed, and its `accepted` is queued before
/// that `done` can be.
fn answer_duplicate(
    idem: &IdemMap,
    key: &str,
    submit: &Submit,
    writer: &ConnWriter,
    shared: &Shared,
    race: bool,
) -> bool {
    let (job_id, phase) = match idem.entries.get(key) {
        Some(IdemState::Done {
            job_id,
            job,
            outcome,
        }) => {
            send_line(writer, &protocol::accepted(*job_id, &submit.tag));
            send_line(writer, &protocol::done(*job_id, job, outcome, &submit.tag));
            writer.gate.release();
            (*job_id, "done")
        }
        Some(IdemState::InFlight { job_id }) => {
            {
                let mut waiters = shared.waiters.lock().unwrap_or_else(|e| e.into_inner());
                waiters
                    .entry(*job_id)
                    .or_default()
                    .push((Arc::clone(writer), submit.tag.clone()));
            }
            send_line(writer, &protocol::accepted(*job_id, &submit.tag));
            (*job_id, "in_flight")
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
                (
                    "phase",
                    Value::Str(if race { "race" } else { phase }.to_string()),
                ),
            ],
        );
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(chunks: &[&[u8]], max: usize) -> (Vec<String>, usize, Vec<u8>, bool) {
        let mut rbuf = Vec::new();
        let mut discarding = false;
        let mut out = Vec::new();
        for chunk in chunks {
            assemble_frames(&mut rbuf, &mut discarding, chunk, max, &mut out);
        }
        let mut lines = Vec::new();
        let mut oversized = 0usize;
        for frame in out {
            match frame {
                FrameOut::Line(l) => lines.push(l),
                FrameOut::Oversized => oversized += 1,
            }
        }
        (lines, oversized, rbuf, discarding)
    }

    #[test]
    fn assembles_lines_torn_across_chunks() {
        let (lines, oversized, rbuf, discarding) = collect(
            &[b"{\"op\":\"pi", b"ng\"}\n{\"op\"", b":\"status\"}\npar"],
            1024,
        );
        assert_eq!(lines, vec!["{\"op\":\"ping\"}", "{\"op\":\"status\"}"]);
        assert_eq!(oversized, 0);
        assert_eq!(rbuf, b"par");
        assert!(!discarding);
    }

    #[test]
    fn one_chunk_many_frames_and_empty_lines_pass_through() {
        let (lines, oversized, rbuf, _) = collect(&[b"a\nb\n\nc\n"], 1024);
        assert_eq!(lines, vec!["a", "b", "", "c"]);
        assert_eq!(oversized, 0);
        assert!(rbuf.is_empty());
    }

    #[test]
    fn oversized_frame_is_discarded_not_buffered() {
        // 10-byte cap; a 20-byte line torn across chunks must cost one
        // Oversized, keep nothing buffered, and resync on the newline.
        let (lines, oversized, rbuf, discarding) =
            collect(&[b"0123456789AB", b"CDEFGHIJ\nok\n"], 10);
        assert_eq!(lines, vec!["ok"]);
        assert_eq!(oversized, 1);
        assert!(rbuf.is_empty());
        assert!(!discarding);
    }

    #[test]
    fn frame_exactly_at_cap_is_allowed_and_one_over_is_not() {
        let at = vec![b'x'; 10];
        let mut with_newline = at.clone();
        with_newline.push(b'\n');
        let (lines, oversized, _, _) = collect(&[&with_newline], 10);
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].len(), 10);
        assert_eq!(oversized, 0);

        let over = vec![b'y'; 11];
        let mut with_newline = over.clone();
        with_newline.push(b'\n');
        let (lines, oversized, _, _) = collect(&[&with_newline], 10);
        assert!(lines.is_empty());
        assert_eq!(oversized, 1);
    }

    #[test]
    fn discard_state_spans_many_chunks() {
        let big = vec![b'z'; 64];
        let (lines, oversized, _, discarding) = collect(&[&big, &big, &big, b"\ndone\n"], 16);
        assert_eq!(lines, vec!["done"]);
        assert_eq!(oversized, 1);
        assert!(!discarding);
    }
}
