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
//!   tenant's warm-pool count follows the work across the fan-out.
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
//! - **Watchdog.** Each running attempt has a [`Watch`]. Its deadline
//!   cancels the token; threads cannot be killed, so an attempt that has
//!   not unwound `grace` after its cancellation is abandoned: its result
//!   is decided without it, its slot is reused, and its late completion is
//!   dropped. Both supervisors sleep until the earliest armed timer
//!   ([`Watch::deadline_at`], [`Watch::abandon_at`], plus their own), or
//!   until a completion arrives, and poll nothing.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
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
pub(crate) fn run(ctx: &Context, job: &JobFn, attempt: u32) -> Outcome {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
}
