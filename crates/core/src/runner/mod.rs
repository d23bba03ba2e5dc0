//! Supervised, checkpointed experiment-campaign runner.
//!
//! Turns every figure/table experiment into a named, seeded [`Job`]
//! executed under supervision:
//!
//! - a bounded worker pool isolates each attempt on its own thread and
//!   converts panics into typed [`JobError`]s via `catch_unwind`, so one
//!   bad experiment cannot take down a multi-hour campaign;
//! - a watchdog enforces per-job deadlines through cooperative
//!   [`CancelToken`]s that the simulator's round loops poll
//!   ([`poll_current`]); stragglers are cancelled, retried with
//!   exponential backoff under a bounded budget, and — if they never
//!   poll — abandoned so the campaign keeps moving;
//! - every terminal result is appended to a JSON-lines checkpoint
//!   [`Journal`] and flushed, so a killed campaign resumes with
//!   `--resume`, re-running only unfinished jobs and producing a merged
//!   journal byte-identical to an uninterrupted run;
//! - terminal failures emit self-contained [`CrashReproducer`] files
//!   (name, seed, parameters, step window) replayable in isolation with
//!   `--repro <file>`;
//! - inside one job, [`scatter`] fans independent cells (e.g. one per
//!   application in a sweep) over a bounded shard pool, preserving item
//!   order, the caller's cancellation token, and serial-order panic
//!   propagation — so a sharded report stays byte-identical to, and
//!   exactly as supervisable as, its serial form.
//!
//! The runner lives in the core crate so both the bench binaries and
//! tests can drive it; it has no dependencies beyond `std` (the journal
//! and reproducers use the small hand-rolled [`json`] codec).

mod arenas;
mod cancel;
mod job;
mod journal;
pub mod json;
mod repro;
mod scatter;
mod supervisor;

pub(crate) use cancel::with_current;
pub use cancel::{poll_current, CancelToken, Cancelled};
pub use job::{Job, JobCtx, JobError, JobFn, JobRecord, JobSpec};
pub use journal::{Journal, JournalEntry};
pub use repro::CrashReproducer;
pub use scatter::{scatter, set_shard_workers, shard_workers};
pub(crate) use supervisor::panic_message;
pub use supervisor::{run_campaign, CampaignReport, RunnerConfig};
