//! The attempt path: how one attempt of job code runs and how it ends.
//!
//! The campaign supervisor ([`run_campaign`](super::run_campaign)), the
//! service scheduler and the [`scatter`](super::scatter) shard pool all
//! run job code through this module and nowhere else:
//!
//! - **Context.** Job code runs inside a [`Context`]: the attempt's
//!   [`CancelToken`] (which [`poll_current`](super::poll_current) reads),
//!   the obs scope that names its flight dumps and telemetry, and the
//!   tenant label that per-tenant accounting reads. The supervisors build
//!   one per attempt; `scatter` [captures](Context::capture) the caller's
//!   and re-enters it on every shard thread, so a deadline, a dump or a
//!   tenant's cell-memo count follows the work across the fan-out.
//! - **Isolation.** Job code runs under `catch_unwind`. On an unwind the
//!   thread's flight ring is dumped (when obs is on) before the payload
//!   leaves the thread, and a process-wide panic hook, installed on first
//!   use, keeps panics on job threads off stderr: the caller reports them.
//! - **Outcome.** [`run`] ends every attempt as an [`Outcome`]: ok,
//!   failed, panicked, or cancelled (the [`Cancelled`] unwind). Only the
//!   caller knows why a token fired, so it decides what a cancellation
//!   means: the supervisor journals a timeout; the scheduler a timeout or
//!   a drain cancellation. `scatter` keeps the raw payload instead and
//!   resumes the lowest-index one on its caller.
//! - **Workers.** Both supervisors run attempts on a [`Pool`] of parked
//!   workers, sized to their own worker count and started with them, not
//!   on a thread per attempt. [`run`] clears the worker's flight ring and
//!   installs a fresh context, so job code sees what a new thread would.
//! - **Watchdog.** Each running attempt has a [`Watch`]. Its deadline
//!   cancels the token; threads cannot be killed, so an attempt that has
//!   not unwound `grace` after its cancellation is abandoned: its result
//!   is decided without it, its slot is reused, and its late completion is
//!   dropped. The pool starts one replacement worker for it
//!   ([`Pool::abandon`]); the stuck worker, if it ever returns, leaves
//!   when the pool is full again. Both supervisors sleep until the
//!   earliest armed timer ([`Watch::deadline_at`], [`Watch::abandon_at`],
//!   plus their own), or until a completion arrives, and poll nothing.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

use super::cancel::{self, CancelToken, Cancelled};
use super::job::{JobCtx, JobError, JobFn};

/// The thread-local context job code runs in.
pub(crate) struct Context {
    token: Option<CancelToken>,
    scope: String,
    tenant: Option<String>,
}

impl Context {
    /// A job attempt's context: its token, the obs scope `name`, and the
    /// tenant label, if any.
    pub(crate) fn job(token: &CancelToken, name: &str, tenant: Option<&str>) -> Context {
        Context {
            token: Some(token.clone()),
            scope: name.to_string(),
            tenant: tenant.map(str::to_string),
        }
    }

    /// The calling thread's context, to re-enter on a helper thread.
    pub(crate) fn capture() -> Context {
        Context {
            token: cancel::current(),
            scope: crate::obs::scope_label(),
            tenant: crate::obs::tenant_label(),
        }
    }

    /// Runs `f` on the calling thread with this context installed.
    pub(crate) fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let scoped = || crate::obs::with_scope(&self.scope, f);
        let labelled = || match &self.tenant {
            Some(t) => crate::obs::with_tenant(t, scoped),
            None => scoped(),
        };
        match &self.token {
            Some(t) => cancel::with_current(t.clone(), labelled),
            None => labelled(),
        }
    }
}

/// How an attempt of job code ended.
pub(crate) enum Outcome {
    /// The job returned its output.
    Ok(String),
    /// The job returned an error of its own.
    Failed(String),
    /// The job panicked; the payload's message.
    Panicked(String),
    /// The job unwound with [`Cancelled`] after its token fired.
    Cancelled,
}

impl Outcome {
    /// The attempt's result, with a cancellation read as `cancelled`.
    pub(crate) fn into_result(self, cancelled: JobError) -> Result<String, JobError> {
        match self {
            Outcome::Ok(output) => Ok(output),
            Outcome::Failed(message) => Err(JobError::Failed { message }),
            Outcome::Panicked(message) => Err(JobError::Panicked { message }),
            Outcome::Cancelled => Err(cancelled),
        }
    }
}

/// Runs attempt number `attempt` of `job` in `ctx` on the calling thread.
/// The thread's flight ring is cleared first, so a dump holds this
/// attempt's events only, whatever ran on the thread before.
pub(crate) fn run(ctx: &Context, job: &JobFn, attempt: u32) -> Outcome {
    crate::obs::flight::clear_ring();
    let job_ctx = JobCtx {
        token: ctx.token.clone().unwrap_or_default(),
        attempt,
    };
    match ctx.enter(|| isolated(|| job(&job_ctx), "timeout", "panic")) {
        Ok(Ok(output)) => Outcome::Ok(output),
        Ok(Err(message)) => Outcome::Failed(message),
        Err(p) if p.is::<Cancelled>() => Outcome::Cancelled,
        Err(p) => Outcome::Panicked(panic_message(p.as_ref())),
    }
}

/// Runs `f` under `catch_unwind`, keeping a panic's raw payload. On an
/// unwind, dumps this thread's flight ring as `on_cancel` for the
/// [`Cancelled`] sentinel, else as `on_panic`.
pub(super) fn isolated<T>(
    f: impl FnOnce() -> T,
    on_cancel: &str,
    on_panic: &str,
) -> std::thread::Result<T> {
    static QUIET_HOOK: Once = Once::new();
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if cancel::current().is_none() {
                prev(info);
            }
        }));
    });
    let result = catch_unwind(AssertUnwindSafe(f));
    if let Err(payload) = &result {
        if crate::obs::enabled() {
            let cancelled = payload.is::<Cancelled>();
            crate::obs::dump_flight(if cancelled { on_cancel } else { on_panic });
        }
    }
    result
}

/// A readable message from a panic payload.
pub(super) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The watchdog's record of one running attempt.
pub(crate) struct Watch {
    /// The attempt's cancellation token.
    pub(crate) token: CancelToken,
    /// When the attempt started.
    pub(crate) started: Instant,
    limit: Option<Duration>,
    cancelled_at: Option<Instant>,
}

impl Watch {
    /// Starts watching an attempt that begins at `now` with a fresh token
    /// and, if `limit` is set, a deadline `limit` later.
    pub(crate) fn start(now: Instant, limit: Option<Duration>) -> Watch {
        Watch {
            token: CancelToken::new(),
            started: now,
            limit,
            cancelled_at: None,
        }
    }

    /// When the deadline cancels the token (until something has).
    pub(crate) fn deadline_at(&self) -> Option<Instant> {
        let armed = self.cancelled_at.is_none();
        self.limit.filter(|_| armed).map(|l| self.started + l)
    }

    /// The error of an attempt that timed out: its configured limit, not
    /// the measured wall time, so journal entries stay deterministic.
    pub(crate) fn timed_out(&self) -> JobError {
        let limit_ms = self.limit.map_or(0, |l| l.as_millis());
        JobError::TimedOut {
            limit_ms: u64::try_from(limit_ms).unwrap_or(u64::MAX),
        }
    }

    /// When a cancelled attempt that has not unwound is abandoned.
    pub(crate) fn abandon_at(&self, grace: Duration) -> Option<Instant> {
        self.cancelled_at.map(|at| at + grace)
    }

    /// Cancels the token at `now`, unless it already is.
    pub(crate) fn cancel(&mut self, now: Instant) {
        if self.cancelled_at.is_none() {
            self.token.cancel();
            self.cancelled_at = Some(now);
        }
    }
}

/// Work handed to a [`Pool`] worker: one attempt and the report of its
/// outcome.
pub(crate) type Task = Box<dyn FnOnce() + Send>;

/// A submitted task, as the watchdog names it to [`Pool::abandon`].
#[derive(Clone, Default)]
pub(crate) struct Ticket(Arc<AtomicU8>);

/// [`Ticket`] states: queued or running, returned, abandoned.
const RUNNING: u8 = 0;
const RETURNED: u8 = 1;
const ABANDONED: u8 = 2;

impl Ticket {
    /// Moves a running ticket to `to`; false if it already left
    /// `RUNNING` (its worker returned, or the watchdog gave up on it).
    fn leave_running(&self, to: u8) -> bool {
        self.0
            .compare_exchange(RUNNING, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// A fixed set of parked worker threads that run submitted tasks in
/// order. Workers are started with the pool; after that a thread starts
/// only as the replacement for an abandoned attempt. Dropping the pool
/// lets every idle worker exit.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
}

struct PoolShared {
    name: String,
    size: usize,
    state: Mutex<PoolState>,
    ready: Condvar,
    spawns: AtomicU64,
}

struct PoolState {
    queue: VecDeque<(Task, Ticket)>,
    /// Workers that count toward `size`: all of them but those stuck in
    /// an abandoned attempt.
    live: usize,
    closed: bool,
}

impl Pool {
    /// Starts `size` workers named `name-<n>`.
    pub(crate) fn start(size: usize, name: &str) -> std::io::Result<Pool> {
        let pool = Pool {
            shared: Arc::new(PoolShared {
                name: name.to_string(),
                size,
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    live: 0,
                    closed: false,
                }),
                ready: Condvar::new(),
                spawns: AtomicU64::new(0),
            }),
        };
        // On an error the pool drops, and the workers already started exit.
        for _ in 0..size {
            pool.shared.spawn_worker()?;
        }
        Ok(pool)
    }

    /// Queues `task` for the next free worker.
    pub(crate) fn submit(&self, task: Task) -> Ticket {
        let ticket = Ticket::default();
        self.shared.lock().queue.push_back((task, ticket.clone()));
        self.shared.ready.notify_one();
        ticket
    }

    /// The watchdog gave up on `ticket`'s attempt: its worker no longer
    /// counts toward the pool's size, and exactly one replacement worker
    /// starts. (If the worker returned in the meantime, the replacement
    /// finds the pool full and exits at once.)
    ///
    /// # Errors
    ///
    /// The replacement thread could not be started; the pool runs one
    /// worker short.
    pub(crate) fn abandon(&self, ticket: &Ticket) -> std::io::Result<()> {
        if ticket.leave_running(ABANDONED) {
            self.shared.lock().live -= 1;
        }
        self.shared.spawn_worker()
    }

    /// Worker threads started so far, replacements included.
    pub(crate) fn spawns(&self) -> u64 {
        self.shared.spawns.load(Ordering::Relaxed)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.ready.notify_all();
    }
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spawn_worker(self: &Arc<Self>) -> std::io::Result<()> {
        self.lock().live += 1;
        let n = self.spawns.load(Ordering::Relaxed);
        let shared = Arc::clone(self);
        let started = std::thread::Builder::new()
            .name(format!("{}-{n}", self.name))
            .spawn(move || shared.work());
        match started {
            Ok(_) => {
                self.spawns.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.lock().live -= 1;
                Err(e)
            }
        }
    }

    /// A worker: takes tasks until the pool closes or has a worker too
    /// many, and leaves after an abandoned attempt if its replacement
    /// has filled the pool.
    fn work(&self) {
        loop {
            let (task, ticket) = {
                let mut state = self.lock();
                loop {
                    if state.live > self.size {
                        state.live -= 1;
                        return;
                    }
                    if let Some(next) = state.queue.pop_front() {
                        break next;
                    }
                    if state.closed {
                        state.live -= 1;
                        return;
                    }
                    state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            };
            task();
            if !ticket.leave_running(RETURNED) {
                let mut state = self.lock();
                if state.live >= self.size {
                    return;
                }
                state.live += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_classifies_every_ending_inside_the_context() {
        let token = CancelToken::new();
        let ctx = Context::job(&token, "unit", Some("acme"));
        let run_with = |f: fn(&JobCtx) -> Result<String, String>| {
            let job: JobFn = Arc::new(f);
            run(&ctx, &job, 3)
        };
        let seen = run_with(|c| {
            let ctx = Context::capture();
            Ok(format!("{} {} {:?}", c.attempt, ctx.scope, ctx.tenant))
        });
        assert!(matches!(seen, Outcome::Ok(s) if s == "3 unit Some(\"acme\")"));
        let outside = Context::capture();
        assert_eq!((outside.token.is_none(), outside.tenant), (true, None));
        assert!(matches!(run_with(|_| Err("off".into())), Outcome::Failed(m) if m == "off"));
        let panicked = run_with(|_| panic!("boom {}", 7));
        assert!(matches!(panicked, Outcome::Panicked(m) if m == "boom 7"));
        token.cancel();
        let cancelled = run_with(|c| {
            c.checkpoint();
            Ok(String::new())
        });
        assert!(matches!(cancelled, Outcome::Cancelled));
    }

    use std::sync::mpsc;
    use std::thread::ThreadId;

    const MS: Duration = Duration::from_millis(1);

    /// Waits until `shared` has `handles` strong handles: the pool's
    /// own, if alive, plus one per worker thread still running.
    fn await_handles(shared: &Arc<PoolShared>, handles: usize) {
        let deadline = Instant::now() + 10_000 * MS;
        while Arc::strong_count(shared) != handles {
            assert!(Instant::now() < deadline, "workers did not exit");
            std::thread::sleep(MS);
        }
    }

    #[test]
    fn a_reused_worker_serves_after_a_panic_and_a_cancellation() {
        let pool = Pool::start(1, "unit-pool").expect("the pool starts");
        let (tx, rx) = mpsc::channel();
        let submit = |token: &CancelToken, tenant: Option<&str>, job: JobFn| {
            let ctx = Context::job(token, "unit", tenant);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                let outcome = run(&ctx, &job, 1);
                let _ = tx.send((outcome, std::thread::current().id()));
            }));
        };
        let next = || -> (Outcome, ThreadId) { rx.recv().expect("the worker reports") };

        submit(
            &CancelToken::new(),
            Some("acme"),
            Arc::new(|_| panic!("boom")),
        );
        let (panicked, first) = next();
        assert!(matches!(panicked, Outcome::Panicked(m) if m == "boom"));

        // Cancelled mid-run, as a drain cancels a running job.
        let drained = CancelToken::new();
        let (started_tx, started_rx) = mpsc::channel();
        submit(
            &drained,
            None,
            Arc::new(move |c| {
                let _ = started_tx.send(());
                loop {
                    c.checkpoint();
                    std::thread::sleep(MS);
                }
            }),
        );
        started_rx.recv().expect("the job starts");
        drained.cancel();
        let (cancelled, second) = next();
        assert!(matches!(cancelled, Outcome::Cancelled));

        // The third job sees a fresh context: its own attempt, its own
        // scope, no tenant left over from the first job.
        submit(
            &CancelToken::new(),
            None,
            Arc::new(|c| {
                let ctx = Context::capture();
                c.checkpoint();
                Ok(format!("{} {} {:?}", c.attempt, ctx.scope, ctx.tenant))
            }),
        );
        let (ok, third) = next();
        assert!(matches!(ok, Outcome::Ok(s) if s == "1 unit None"));
        assert_eq!((second, third), (first, first), "one worker ran all three");
        assert_eq!(pool.spawns(), 1, "and no thread started after it");
    }

    #[test]
    fn an_abandoned_worker_is_replaced_once_and_leaves_when_it_returns() {
        let pool = Pool::start(1, "unit-pool").expect("the pool starts");
        let (ran_tx, ran_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let stuck = {
            let ran_tx = ran_tx.clone();
            pool.submit(Box::new(move || {
                let _ = release_rx.recv();
                let _ = ran_tx.send(std::thread::current().id());
            }))
        };
        pool.abandon(&stuck).expect("the replacement starts");
        assert_eq!(pool.spawns(), 2);
        let next = || {
            let ran_tx = ran_tx.clone();
            pool.submit(Box::new(move || {
                let _ = ran_tx.send(std::thread::current().id());
            }));
            ran_rx.recv().expect("the task runs")
        };
        let replacement = next();

        release_tx.send(()).expect("the stuck task waits");
        let returned = ran_rx.recv().expect("the stuck task returns");
        assert_ne!(returned, replacement);
        // The returning worker found the pool full and left: every
        // later task runs on the replacement, and no thread starts.
        await_handles(&pool.shared, 2);
        for _ in 0..3 {
            assert_eq!(next(), replacement);
        }
        assert_eq!(pool.spawns(), 2);
    }

    #[test]
    fn abandoning_a_returned_attempt_still_leaves_one_worker() {
        let pool = Pool::start(1, "unit-pool").expect("the pool starts");
        let (tx, rx) = mpsc::channel();
        let ticket = pool.submit(Box::new(move || {
            let _ = tx.send(());
        }));
        rx.recv().expect("the task runs");
        // The watchdog gives up just as the worker returns: whichever
        // of them wins, one worker is left over once the dust settles.
        pool.abandon(&ticket).expect("the replacement starts");
        assert_eq!(pool.spawns(), 2);
        await_handles(&pool.shared, 2);
        assert_eq!(pool.shared.lock().live, 1);
    }

    #[test]
    fn idle_workers_exit_when_the_pool_drops() {
        let pool = Pool::start(3, "unit-pool").expect("the pool starts");
        let shared = Arc::clone(&pool.shared);
        await_handles(&shared, 5);
        drop(pool);
        await_handles(&shared, 1);
        assert_eq!(shared.lock().live, 0);
    }
}
