//! Cooperative cancellation for supervised jobs.
//!
//! Rust threads cannot be killed, so the watchdog enforces deadlines
//! cooperatively: every job thread carries a [`CancelToken`], and
//! long-running simulation loops poll the *current thread's* token at
//! step boundaries via [`poll_current`]. When the watchdog fires, the
//! next poll unwinds the job thread with the [`Cancelled`] sentinel,
//! which the attempt path ([`super::attempt`]) reports as a cancellation.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Panic payload used to unwind a cancelled job out of arbitrarily deep
/// simulation loops, telling a cancellation apart from a genuine panic.
#[derive(Clone, Copy, Debug)]
pub struct Cancelled;

/// A shared cancellation flag between the watchdog and one job attempt.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (called by the watchdog).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Polls the token, unwinding with [`Cancelled`] if it fired. Jobs
    /// call this at step boundaries (directly or via [`poll_current`]).
    pub fn checkpoint(&self) {
        if self.is_cancelled() {
            std::panic::panic_any(Cancelled);
        }
    }
}

thread_local! {
    /// The token of the job currently running on this thread, if any.
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Installs `token` as the current thread's job token for the duration of
/// `f`, and marks the thread as a supervised job thread (so the global
/// panic hook stays quiet — the caller reports the failure instead).
pub(crate) fn with_current<R>(token: CancelToken, f: impl FnOnce() -> R) -> R {
    // Reset through a drop guard: job panics (including the Cancelled
    // sentinel) unwind straight through this frame.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = None);
        }
    }
    CURRENT.with(|c| *c.borrow_mut() = Some(token));
    let _reset = Reset;
    f()
}

/// The current thread's job token, if one is installed (captured for
/// helper threads by [`super::attempt::Context::capture`]).
pub(crate) fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Polls the current thread's cancellation token, if one is installed.
///
/// This is the hook the simulator's round loops call: outside a
/// supervised job it is a thread-local read and costs nothing
/// measurable; inside one it unwinds with [`Cancelled`] once the
/// watchdog has fired.
pub fn poll_current() {
    CURRENT.with(|c| {
        if let Some(token) = c.borrow().as_ref() {
            token.checkpoint();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.checkpoint(); // must not unwind
        t.cancel();
        assert!(t.is_cancelled());
        let t2 = t.clone();
        assert!(t2.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn checkpoint_unwinds_with_sentinel() {
        let t = CancelToken::new();
        t.cancel();
        let r = std::panic::catch_unwind(|| t.checkpoint());
        let payload = r.expect_err("must unwind");
        assert!(payload.downcast_ref::<Cancelled>().is_some());
    }

    #[test]
    fn poll_current_is_inert_outside_jobs() {
        poll_current(); // no token installed: must be a no-op
    }

    #[test]
    fn poll_current_sees_installed_token() {
        let t = CancelToken::new();
        t.cancel();
        let r = std::panic::catch_unwind(|| {
            with_current(t, || {
                poll_current();
            })
        });
        assert!(r.is_err());
        // The thread-local must be usable again after the unwind cleared.
        poll_current();
    }
}
