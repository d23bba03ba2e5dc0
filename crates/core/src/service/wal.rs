//! The crash-safe write-ahead submission log.
//!
//! The durability contract (`SERVICE.md` "Durability & recovery"):
//! **no accepted job is ever lost, and no job's side effects are ever
//! duplicated**, even across `kill -9`. The mechanism is a JSONL
//! append-only log next to the journal:
//!
//! - an [`accepted`](WalRecord::Accepted) record — enough of the
//!   original submit to rebuild the job (tenant, job name, params,
//!   deadline, idempotency key, accounted bytes) — is appended and
//!   **fsynced before** the `accepted` response line is written to the
//!   client. A client that has seen `accepted` can therefore rely on
//!   the job surviving any crash;
//! - a [`done`](WalRecord::Done) record is appended and fsynced before
//!   the `done` response, so a client that has seen a terminal outcome
//!   can rely on the job *not* re-running after a restart (re-running
//!   a completed job is the "duplicated side effects" failure mode);
//! - a [`recovered`](WalRecord::Recovered) marker is appended for each
//!   job a restart re-enqueued, so the log itself narrates the crash.
//!
//! [`Wal::replay`] folds a log into a [`WalState`]: the non-terminal
//! jobs to re-enqueue (in original admission order), the
//! idempotency-key map for dedup of client resubmissions, and the
//! highest job id ever issued. [`Wal::compact`] rewrites the log at
//! startup down to that state (pending jobs plus a bounded tail of
//! keyed completions), via write-temp + fsync + rename, so the log
//! does not grow without bound across restarts.
//!
//! Writes are batched by the caller, not by the log: the server's one
//! core thread collects every record of a loop turn and hands them to
//! [`Wal::append_all`], which writes them under the file lock and
//! covers them all with one `fdatasync`. Under load the fsync cost is
//! amortized over every request handled in the turn (the benchmark's
//! traced `serve_open` run reports it as
//! `server.stage_wal_fsync_us_*`).
//!
//! Like every JSONL artifact in the repo, a torn trailing line (the
//! process died mid-append) is repaired on reopen and skipped on load.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::runner::json::Value;
use crate::runner::{for_each_line, repair_tail, JobError};

/// One write-ahead log record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A submit passed admission. Written (and fsynced) before the
    /// client sees `accepted`; carries everything needed to rebuild
    /// and re-enqueue the job after a crash.
    Accepted {
        /// Server-assigned job id (also the journal index).
        job_id: u64,
        /// Tenant the job is accounted to.
        tenant: String,
        /// Registry name of the job.
        job: String,
        /// Submit params, verbatim (the factory rebuilds from these).
        params: Value,
        /// Requested deadline, if the submit carried one.
        deadline_ms: Option<u64>,
        /// Client idempotency key, if the submit carried one.
        idem_key: Option<String>,
        /// Request-payload bytes accounted against the tenant quota.
        bytes: u64,
    },
    /// A job reached a terminal outcome. Written (and fsynced) before
    /// the client sees `done`.
    Done {
        /// The job id of the matching `Accepted` record.
        job_id: u64,
        /// The terminal outcome, in journal-entry encoding.
        outcome: Result<String, JobError>,
    },
    /// A restart re-enqueued this non-terminal job.
    Recovered {
        /// The job id of the matching `Accepted` record.
        job_id: u64,
    },
}

impl WalRecord {
    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            WalRecord::Accepted {
                job_id,
                tenant,
                job,
                params,
                deadline_ms,
                idem_key,
                bytes,
            } => {
                let mut pairs = vec![
                    ("rec", Value::Str("accepted".into())),
                    ("job_id", Value::UInt(*job_id)),
                    ("tenant", Value::Str(tenant.clone())),
                    ("job", Value::Str(job.clone())),
                    ("params", params.clone()),
                ];
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms", Value::UInt(*ms)));
                }
                if let Some(k) = idem_key {
                    pairs.push(("idem_key", Value::Str(k.clone())));
                }
                pairs.push(("bytes", Value::UInt(*bytes)));
                Value::obj(pairs).to_json()
            }
            WalRecord::Done { job_id, outcome } => {
                let mut pairs = vec![
                    ("rec", Value::Str("done".into())),
                    ("job_id", Value::UInt(*job_id)),
                ];
                match outcome {
                    Ok(output) => {
                        pairs.push(("status", Value::Str("ok".into())));
                        pairs.push(("output", Value::Str(output.clone())));
                    }
                    Err(e) => {
                        pairs.push(("status", Value::Str("failed".into())));
                        pairs.push(("error_kind", Value::Str(e.kind().into())));
                        pairs.push(("error", Value::Str(e.to_string())));
                        if let JobError::TimedOut { limit_ms } = e {
                            pairs.push(("limit_ms", Value::UInt(*limit_ms)));
                        }
                    }
                }
                Value::obj(pairs).to_json()
            }
            WalRecord::Recovered { job_id } => Value::obj(vec![
                ("rec", Value::Str("recovered".into())),
                ("job_id", Value::UInt(*job_id)),
            ])
            .to_json(),
        }
    }

    /// Parses one log line; `None` for torn or foreign lines (the
    /// loader skips them, exactly like the journal loader).
    pub fn from_json_line(line: &str) -> Option<WalRecord> {
        let v = Value::parse(line).ok()?;
        match v.get("rec")?.as_str()? {
            "accepted" => Some(WalRecord::Accepted {
                job_id: v.get("job_id")?.as_u64()?,
                tenant: v.get("tenant")?.as_str()?.to_string(),
                job: v.get("job")?.as_str()?.to_string(),
                params: v.get("params").cloned().unwrap_or(Value::Null),
                deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
                idem_key: v
                    .get("idem_key")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                bytes: v.get("bytes").and_then(Value::as_u64).unwrap_or(0),
            }),
            "done" => {
                let outcome = match v.get("status")?.as_str()? {
                    "ok" => Ok(v.get("output")?.as_str()?.to_string()),
                    "failed" => {
                        let message = v.get("error")?.as_str()?.to_string();
                        Err(match v.get("error_kind")?.as_str()? {
                            "timeout" => JobError::TimedOut {
                                limit_ms: v.get("limit_ms")?.as_u64()?,
                            },
                            "panic" => JobError::Panicked {
                                message: message
                                    .strip_prefix("panicked: ")
                                    .unwrap_or(&message)
                                    .to_string(),
                            },
                            "cancelled" => JobError::Cancelled {
                                reason: message
                                    .strip_prefix("cancelled: ")
                                    .unwrap_or(&message)
                                    .to_string(),
                            },
                            _ => JobError::Failed {
                                message: message
                                    .strip_prefix("failed: ")
                                    .unwrap_or(&message)
                                    .to_string(),
                            },
                        })
                    }
                    _ => return None,
                };
                Some(WalRecord::Done {
                    job_id: v.get("job_id")?.as_u64()?,
                    outcome,
                })
            }
            "recovered" => Some(WalRecord::Recovered {
                job_id: v.get("job_id")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

/// One job the replay found accepted but not terminal: what a restart
/// must re-enqueue.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingRecovery {
    /// The original server-assigned job id (reused after recovery so
    /// WAL, journal and client-side idempotency all keep lining up).
    pub job_id: u64,
    /// Original tenant (quota accounting is restored under it).
    pub tenant: String,
    /// Registry name of the job.
    pub job: String,
    /// Original submit params.
    pub params: Value,
    /// Original requested deadline.
    pub deadline_ms: Option<u64>,
    /// Original idempotency key.
    pub idem_key: Option<String>,
    /// Original accounted byte size.
    pub bytes: u64,
}

/// One completed job retained for idempotency dedup: a resubmission
/// with the same key is answered from this instead of re-running.
#[derive(Clone, Debug, PartialEq)]
pub struct CompletedRecord {
    /// The original job id (echoed in the replayed `accepted`/`done`).
    pub job_id: u64,
    /// Registry name of the job (echoed in the replayed `done`).
    pub job: String,
    /// The original terminal outcome, returned verbatim.
    pub outcome: Result<String, JobError>,
}

/// What a log folds down to: the recovery work-list plus the dedup map.
#[derive(Clone, Debug, Default)]
pub struct WalState {
    /// Accepted-but-not-terminal jobs, in original admission order.
    pub pending: Vec<PendingRecovery>,
    /// Keyed completions, in completion order (oldest first).
    pub completed: Vec<(String, CompletedRecord)>,
    /// Highest job id seen; the server resumes numbering above it.
    pub max_job_id: u64,
}

/// The open write-ahead log: a locked appender with one `fdatasync`
/// per call.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: Mutex<File>,
    /// Whether appends fsync at all (`false` turns the WAL into a
    /// flush-only log for benchmarking the fsync cost itself).
    sync: bool,
}

impl Wal {
    /// Opens (or creates) the log for appending, repairing a torn
    /// trailing line first. `sync` makes every append call end in one
    /// `fdatasync`, as the durability contract needs (the default
    /// everywhere but benchmarks).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path, sync: bool) -> std::io::Result<Wal> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        repair_tail(path)?;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Wal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            sync,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and returns once it is durable.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write or the sync.
    pub fn append(&self, record: &WalRecord) -> std::io::Result<()> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Appends `records` in order with one write and returns once all
    /// of them are durable: one `fdatasync` covers the whole call.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write or the sync.
    pub fn append_all(&self, records: &[WalRecord]) -> std::io::Result<()> {
        let mut lines = String::new();
        for record in records {
            lines.push_str(&record.to_json_line());
            lines.push('\n');
        }
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(lines.as_bytes())?;
        if self.sync {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Loads every parseable record. Torn or foreign lines are
    /// skipped; a missing file is an empty log.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than `NotFound`.
    pub fn load(path: &Path) -> std::io::Result<Vec<WalRecord>> {
        let mut records = Vec::new();
        for_each_line(path, |_, line| {
            records.extend(WalRecord::from_json_line(line))
        })?;
        Ok(records)
    }

    /// Folds a log into its [`WalState`]: pending jobs (accepted, no
    /// terminal record) in admission order, keyed completions in
    /// completion order, and the job-id high-water mark.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than `NotFound`.
    pub fn replay(path: &Path) -> std::io::Result<WalState> {
        let records = Self::load(path)?;
        let mut accepted: Vec<PendingRecovery> = Vec::new();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        let mut done: HashMap<u64, Result<String, JobError>> = HashMap::new();
        let mut done_order: Vec<u64> = Vec::new();
        let mut max_job_id = 0;
        for record in records {
            match record {
                WalRecord::Accepted {
                    job_id,
                    tenant,
                    job,
                    params,
                    deadline_ms,
                    idem_key,
                    bytes,
                } => {
                    max_job_id = max_job_id.max(job_id);
                    by_id.insert(job_id, accepted.len());
                    accepted.push(PendingRecovery {
                        job_id,
                        tenant,
                        job,
                        params,
                        deadline_ms,
                        idem_key,
                        bytes,
                    });
                }
                WalRecord::Done { job_id, outcome } => {
                    max_job_id = max_job_id.max(job_id);
                    if done.insert(job_id, outcome).is_none() {
                        done_order.push(job_id);
                    }
                }
                WalRecord::Recovered { job_id } => {
                    max_job_id = max_job_id.max(job_id);
                }
            }
        }
        let completed = done_order
            .iter()
            .filter_map(|job_id| {
                let idx = by_id.get(job_id)?;
                let rec = &accepted[*idx];
                let key = rec.idem_key.clone()?;
                Some((
                    key,
                    CompletedRecord {
                        job_id: *job_id,
                        job: rec.job.clone(),
                        outcome: done.get(job_id).cloned()?,
                    },
                ))
            })
            .collect();
        let pending = accepted
            .into_iter()
            .filter(|r| !done.contains_key(&r.job_id))
            .collect();
        Ok(WalState {
            pending,
            completed,
            max_job_id,
        })
    }

    /// Rewrites the log down to `state`, keeping the pending jobs plus
    /// at most `keep_completed` of the most recent keyed completions
    /// (older dedup entries age out — the client retry window is
    /// minutes, not restarts-ago). Atomic: write temp, fsync, rename
    /// over, fsync the directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn compact(path: &Path, state: &WalState, keep_completed: usize) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = String::new();
        let skip = state.completed.len().saturating_sub(keep_completed);
        for (key, rec) in state.completed.iter().skip(skip) {
            out.push_str(
                &WalRecord::Accepted {
                    job_id: rec.job_id,
                    tenant: String::new(),
                    job: rec.job.clone(),
                    params: Value::Null,
                    deadline_ms: None,
                    idem_key: Some(key.clone()),
                    bytes: 0,
                }
                .to_json_line(),
            );
            out.push('\n');
            out.push_str(
                &WalRecord::Done {
                    job_id: rec.job_id,
                    outcome: rec.outcome.clone(),
                }
                .to_json_line(),
            );
            out.push('\n');
        }
        for p in &state.pending {
            out.push_str(
                &WalRecord::Accepted {
                    job_id: p.job_id,
                    tenant: p.tenant.clone(),
                    job: p.job.clone(),
                    params: p.params.clone(),
                    deadline_ms: p.deadline_ms,
                    idem_key: p.idem_key.clone(),
                    bytes: p.bytes,
                }
                .to_json_line(),
            );
            out.push('\n');
        }
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(out.as_bytes())?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            // Make the rename itself durable. Directory fsync can be
            // refused on some filesystems; the rename is still atomic,
            // so a failure here only narrows (never breaks) the
            // durability window.
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vsnoop-wal-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn accepted(job_id: u64, idem: Option<&str>) -> WalRecord {
        WalRecord::Accepted {
            job_id,
            tenant: "acme".into(),
            job: "fig2".into(),
            params: Value::obj([("warmup", Value::UInt(5))]),
            deadline_ms: Some(1000),
            idem_key: idem.map(str::to_string),
            bytes: 120,
        }
    }

    #[test]
    fn records_round_trip() {
        for r in [
            accepted(1, Some("k1")),
            accepted(2, None),
            WalRecord::Done {
                job_id: 1,
                outcome: Ok("output\n".into()),
            },
            WalRecord::Done {
                job_id: 2,
                outcome: Err(JobError::TimedOut { limit_ms: 500 }),
            },
            WalRecord::Done {
                job_id: 3,
                outcome: Err(JobError::Cancelled {
                    reason: "drain".into(),
                }),
            },
            WalRecord::Recovered { job_id: 7 },
        ] {
            let line = r.to_json_line();
            assert!(!line.contains('\n'), "one line per record: {line}");
            assert_eq!(WalRecord::from_json_line(&line).expect("parses"), r);
        }
    }

    #[test]
    fn replay_splits_pending_from_completed_and_tracks_ids() {
        let dir = scratch("replay");
        let path = dir.join("wal.jsonl");
        let wal = Wal::open(&path, true).unwrap();
        wal.append(&accepted(1, Some("k1"))).unwrap();
        wal.append(&accepted(2, None)).unwrap();
        wal.append(&accepted(3, Some("k3"))).unwrap();
        wal.append(&WalRecord::Done {
            job_id: 1,
            outcome: Ok("one\n".into()),
        })
        .unwrap();
        drop(wal);

        let state = Wal::replay(&path).unwrap();
        assert_eq!(state.max_job_id, 3);
        let pending: Vec<u64> = state.pending.iter().map(|p| p.job_id).collect();
        assert_eq!(pending, [2, 3], "admission order, terminals dropped");
        assert_eq!(state.pending[1].idem_key.as_deref(), Some("k3"));
        assert_eq!(state.completed.len(), 1, "only keyed completions kept");
        assert_eq!(state.completed[0].0, "k1");
        assert_eq!(state.completed[0].1.outcome.as_deref(), Ok("one\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_repaired_and_skipped() {
        let dir = scratch("torn");
        let path = dir.join("wal.jsonl");
        {
            let wal = Wal::open(&path, true).unwrap();
            wal.append(&accepted(1, None)).unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"rec\":\"accepted\",\"job_id\":2,\"ten")
                .unwrap();
        }
        // Load skips the torn line outright.
        assert_eq!(Wal::load(&path).unwrap().len(), 1);
        // Reopen repairs it so the next append is not glued to it.
        {
            let wal = Wal::open(&path, true).unwrap();
            wal.append(&accepted(3, None)).unwrap();
        }
        let state = Wal::replay(&path).unwrap();
        let ids: Vec<u64> = state.pending.iter().map(|p| p.job_id).collect();
        assert_eq!(ids, [1, 3], "torn record 2 is gone, 3 is intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_pending_and_bounded_completions() {
        let dir = scratch("compact");
        let path = dir.join("wal.jsonl");
        let wal = Wal::open(&path, true).unwrap();
        for i in 1..=4u64 {
            wal.append(&accepted(i, Some(&format!("k{i}")))).unwrap();
            wal.append(&WalRecord::Done {
                job_id: i,
                outcome: Ok(format!("out{i}\n")),
            })
            .unwrap();
        }
        wal.append(&accepted(5, None)).unwrap();
        drop(wal);

        let state = Wal::replay(&path).unwrap();
        Wal::compact(&path, &state, 2).unwrap();
        let state2 = Wal::replay(&path).unwrap();
        assert_eq!(state2.pending.len(), 1);
        assert_eq!(state2.pending[0].job_id, 5);
        let keys: Vec<&str> = state2.completed.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["k3", "k4"], "only the most recent completions");
        assert_eq!(state2.max_job_id, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_from_many_threads_all_land() {
        let dir = scratch("group");
        let path = dir.join("wal.jsonl");
        let wal = Arc::new(Wal::open(&path, true).unwrap());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..16u64 {
                        wal.append(&accepted(t * 100 + i, None)).unwrap();
                    }
                });
            }
        });
        let records = Wal::load(&path).unwrap();
        assert_eq!(records.len(), 128, "every concurrent append landed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_records_are_skipped_not_fatal() {
        let dir = scratch("foreign");
        let path = dir.join("wal.jsonl");
        std::fs::write(
            &path,
            "{\"rec\":\"future_thing\",\"x\":1}\n{\"rec\":\"accepted\",\"job_id\":9,\"tenant\":\"t\",\"job\":\"spin\",\"params\":null,\"bytes\":3}\nnot json\n",
        )
        .unwrap();
        let state = Wal::replay(&path).unwrap();
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.pending[0].job_id, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
