//! Always-on multi-tenant simulation service.
//!
//! Turns the batch campaign runner into a long-lived server: many
//! clients submit experiment jobs over a plain TCP + JSONL protocol
//! multiplexed on one event-driven reactor thread, an admission
//! controller applies per-tenant quotas and bounded queueing with
//! typed load-shedding (plus a per-connection pipelining cap), a fair
//! scheduler dispatches over worker threads (each job fully
//! supervised — deadline watchdog, panic isolation, cancellation via
//! the same [`CancelToken`] machinery the campaign runner uses) and
//! streams `progress` frames back to submitters, and SIGTERM/ctrl-c
//! trigger a graceful bounded-time drain that journals every
//! unfinished job.
//!
//! The module splits into:
//!
//! - [`protocol`] — the wire format: request/response types and their
//!   JSONL codec (no networking);
//! - [`quota`] — admission control: [`TenantQuota`], the bounded
//!   per-tenant queues, round-robin fairness, the per-connection
//!   [`quota::PipelineGate`] (no networking, no threads — fully
//!   unit-tested in isolation);
//! - [`reactor`] — the readiness layer: raw `poll(2)`/`epoll(7)` FFI
//!   behind [`reactor::Poller`], plus the cross-thread
//!   [`reactor::Waker`];
//! - [`server`] — the TCP server: the reactor loop driving nonblocking
//!   connection I/O ([`serve`], [`Server`], [`ServiceConfig`]);
//! - `sched` — the service core, one event-driven thread that owns
//!   admission, the idempotency map, the waiters and dispatch, with
//!   per-job deadline/cancel-grace/progress timers and the drain; each
//!   turn it makes the turn's WAL records durable with one sync before
//!   publishing the turn's replies;
//! - [`signal`] — the SIGTERM/SIGINT → drain flag bridge (and reactor
//!   wake-fd poke);
//! - [`wal`] — the crash-safe write-ahead submission log behind the
//!   no-loss/no-duplication durability contract ([`Wal`],
//!   [`WalRecord`], replay + startup compaction);
//! - [`chaos`] — a fault-injecting TCP proxy (torn frames, stalls,
//!   resets, drops; seeded) for soaking the durability contract.
//!
//! `SERVICE.md` at the repository root is the operator-facing spec:
//! the full protocol grammar, the quota and backpressure semantics,
//! and the shutdown contract. The `serve`, `client` and `loadtest`
//! binaries in `crates/bench` are thin wrappers over this module.
//!
//! [`CancelToken`]: crate::runner::CancelToken

pub mod chaos;
pub mod protocol;
pub mod quota;
pub mod reactor;
mod sched;
pub mod server;
pub mod signal;
pub mod wal;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosReport};
pub use protocol::{Request, Response, ShedReason, Submit, TenantStatus};
pub use quota::{Admission, PipelineGate, TenantQuota};
pub use server::{serve, JobFactory, SchedulerWakeups, Server, ServiceConfig, ServiceReport};
pub use wal::{PendingRecovery, Wal, WalRecord, WalState};
