//! The service wire protocol: JSONL over TCP.
//!
//! One JSON object per `\n`-terminated line in each direction, encoded
//! with the same hand-rolled [`Value`](crate::runner::json::Value)
//! codec the journal uses — no new dependency, and the framing matches
//! every other JSONL artifact in the repository (journals, telemetry,
//! flight dumps), so the same tail/parse tooling works on a network
//! capture.
//!
//! Requests carry an optional client-chosen `tag` that is echoed on
//! every response they trigger, so a client multiplexing many submits
//! over one connection can correlate replies. The full request and
//! response grammar is specified in `SERVICE.md` at the repository
//! root; this module is the single source of truth for the field
//! names.

use crate::runner::json::Value;
use crate::runner::{JobError, JournalEntry};

/// Why an admission was refused. Every variant is a *typed* shed — the
/// client can tell "back off and retry" apart from "shrink your queue"
/// — and none of them cost the server more than the rejection line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The global admission queue is at capacity.
    QueueFull,
    /// The tenant is at its max queued-job quota.
    TenantQueueFull,
    /// The tenant is at its max queued-bytes quota.
    TenantBytes,
    /// The submitting *connection* is at its pipelining cap (too many
    /// in-flight submits on one socket); retry once some complete.
    PipelineFull,
    /// The server is draining and accepts no new work.
    Draining,
}

impl ShedReason {
    /// Stable machine-readable reason string.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::TenantQueueFull => "tenant_queue_full",
            ShedReason::TenantBytes => "tenant_bytes",
            ShedReason::PipelineFull => "pipeline_full",
            ShedReason::Draining => "draining",
        }
    }

    /// Whether retrying the same request later can succeed (`false`
    /// only while draining — the server is going away).
    pub fn retryable(self) -> bool {
        !matches!(self, ShedReason::Draining)
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit one job for execution.
    Submit(Submit),
    /// Ask for server/tenant status counters.
    Status,
    /// Ask for the server-side metrics snapshot (latency histograms,
    /// stage timings, counters; see `OBSERVABILITY.md` "Metrics").
    Metrics,
    /// Stream live telemetry records on this connection.
    Subscribe,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and exit (same path as SIGTERM).
    Shutdown,
}

/// The `submit` request body.
#[derive(Clone, Debug, PartialEq)]
pub struct Submit {
    /// Tenant the work is accounted to (quotas, fairness, cell-memo
    /// counters). Required and non-empty.
    pub tenant: String,
    /// Registry name of the job to run (e.g. a campaign artifact like
    /// `"fig2"`).
    pub job: String,
    /// Job parameters, passed to the job factory verbatim (the bench
    /// registry reads `warmup`/`measure`/`scale_seed` from here).
    pub params: Value,
    /// Per-request deadline in milliseconds, measured from dispatch;
    /// `None` uses the server default.
    pub deadline_ms: Option<u64>,
    /// Client correlation tag, echoed on every response this request
    /// triggers.
    pub tag: Option<String>,
    /// Client idempotency key. Two submits with the same key are the
    /// *same logical request*: the server runs the job once and
    /// answers later duplicates with the original job id/outcome (the
    /// retrying client derives these from a per-invocation nonce so a
    /// resend after a dropped connection can never double-run a job).
    pub idem_key: Option<String>,
}

impl Request {
    /// Parses one request line. Returns a human-readable error for
    /// anything malformed — the server turns that into a typed `error`
    /// response instead of dropping the connection.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Value::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing \"op\"")?;
        match op {
            "submit" => {
                let tenant = v
                    .get("tenant")
                    .and_then(Value::as_str)
                    .ok_or("submit: missing \"tenant\"")?
                    .to_string();
                if tenant.is_empty() {
                    return Err("submit: empty \"tenant\"".into());
                }
                let job = v
                    .get("job")
                    .and_then(Value::as_str)
                    .ok_or("submit: missing \"job\"")?
                    .to_string();
                Ok(Request::Submit(Submit {
                    tenant,
                    job,
                    params: v.get("params").cloned().unwrap_or(Value::Null),
                    deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
                    tag: v.get("tag").and_then(Value::as_str).map(str::to_string),
                    idem_key: v
                        .get("idem_key")
                        .and_then(Value::as_str)
                        .map(str::to_string),
                }))
            }
            "status" => Ok(Request::Status),
            "metrics" => Ok(Request::Metrics),
            "subscribe" => Ok(Request::Subscribe),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// Appends `tag` to `pairs` when present (tags ride on every response
/// to a tagged request).
fn push_tag(pairs: &mut Vec<(&'static str, Value)>, tag: &Option<String>) {
    if let Some(t) = tag {
        pairs.push(("tag", Value::Str(t.clone())));
    }
}

/// `accepted`: the submit passed admission; `job_id` names the job in
/// later `done` responses and status listings.
pub fn accepted(job_id: u64, tag: &Option<String>) -> String {
    let mut pairs = vec![
        ("ok", Value::Bool(true)),
        ("type", Value::Str("accepted".into())),
        ("job_id", Value::UInt(job_id)),
    ];
    push_tag(&mut pairs, tag);
    Value::obj(pairs).to_json()
}

/// `shed`: the submit was refused under load (typed, never a hang).
pub fn shed(reason: ShedReason, tag: &Option<String>) -> String {
    let mut pairs = vec![
        ("ok", Value::Bool(false)),
        ("type", Value::Str("shed".into())),
        ("reason", Value::Str(reason.as_str().into())),
        ("retryable", Value::Bool(reason.retryable())),
    ];
    push_tag(&mut pairs, tag);
    Value::obj(pairs).to_json()
}

/// `done`: terminal outcome of an accepted job, mirroring the journal
/// entry schema (`status`/`output` or `status`/`error_kind`/`error`).
pub fn done(
    job_id: u64,
    job: &str,
    outcome: &Result<String, JobError>,
    tag: &Option<String>,
) -> String {
    let mut pairs = vec![
        ("ok", Value::Bool(outcome.is_ok())),
        ("type", Value::Str("done".into())),
        ("job_id", Value::UInt(job_id)),
        ("job", Value::Str(job.to_string())),
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
        }
    }
    push_tag(&mut pairs, tag);
    Value::obj(pairs).to_json()
}

/// `error`: a malformed or unfulfillable request (bad JSON, unknown
/// job name, missing fields). The connection stays open.
pub fn error(message: &str, tag: &Option<String>) -> String {
    let mut pairs = vec![
        ("ok", Value::Bool(false)),
        ("type", Value::Str("error".into())),
        ("message", Value::Str(message.to_string())),
    ];
    push_tag(&mut pairs, tag);
    Value::obj(pairs).to_json()
}

/// `error` with a machine-readable `code` and an explicit `retryable`
/// flag, for faults a client program must branch on (`oversized_frame`
/// is permanent; `wal_failed` is worth retrying — the job was admitted
/// but its durability record could not be written; `idle_timeout`
/// means the reactor reaped the connection for inactivity and a fresh
/// connection will be served normally).
pub fn error_coded(message: &str, code: &str, retryable: bool, tag: &Option<String>) -> String {
    let mut pairs = vec![
        ("ok", Value::Bool(false)),
        ("type", Value::Str("error".into())),
        ("code", Value::Str(code.to_string())),
        ("retryable", Value::Bool(retryable)),
        ("message", Value::Str(message.to_string())),
    ];
    push_tag(&mut pairs, tag);
    Value::obj(pairs).to_json()
}

/// `progress`: a running job is still alive. Streamed periodically on
/// the submitting connection between `accepted` and `done` (knob:
/// `ServiceConfig::progress_interval`), so a client waiting on a long
/// campaign can tell "still computing" from "dead server" without
/// polling `status`. Never terminal — clients must keep reading.
pub fn progress(job_id: u64, job: &str, elapsed_ms: u64, tag: &Option<String>) -> String {
    let mut pairs = vec![
        ("ok", Value::Bool(true)),
        ("type", Value::Str("progress".into())),
        ("job_id", Value::UInt(job_id)),
        ("job", Value::Str(job.to_string())),
        ("elapsed_ms", Value::UInt(elapsed_ms)),
    ];
    push_tag(&mut pairs, tag);
    Value::obj(pairs).to_json()
}

/// `pong`: liveness reply.
pub fn pong() -> String {
    Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("type", Value::Str("pong".into())),
    ])
    .to_json()
}

/// `subscribed`: acknowledges a `subscribe`; every following line on
/// the connection is a raw telemetry record.
pub fn subscribed() -> String {
    Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("type", Value::Str("subscribed".into())),
    ])
    .to_json()
}

/// `shutting_down`: acknowledges a `shutdown` op; the server drains
/// and exits.
pub fn shutting_down() -> String {
    Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("type", Value::Str("shutting_down".into())),
    ])
    .to_json()
}

/// One tenant's slice of a `status` response.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStatus {
    /// Tenant name.
    pub tenant: String,
    /// Jobs waiting in this tenant's admission queue.
    pub queued: u64,
    /// Jobs of this tenant currently running.
    pub running: u64,
    /// Terminal jobs this tenant has completed (any outcome).
    pub done: u64,
    /// Submits refused for this tenant.
    pub shed: u64,
    /// Warm-pool hits attributed to this tenant.
    pub warm_hits: u64,
    /// Warm-pool misses attributed to this tenant.
    pub warm_misses: u64,
}

/// `status`: server-wide and per-tenant counters.
pub fn status(
    queued: u64,
    running: u64,
    done_jobs: u64,
    shed_total: u64,
    draining: bool,
    tenants: &[TenantStatus],
) -> String {
    let tenant_objs: Vec<Value> = tenants
        .iter()
        .map(|t| {
            Value::obj(vec![
                ("tenant", Value::Str(t.tenant.clone())),
                ("queued", Value::UInt(t.queued)),
                ("running", Value::UInt(t.running)),
                ("done", Value::UInt(t.done)),
                ("shed", Value::UInt(t.shed)),
                ("warm_hits", Value::UInt(t.warm_hits)),
                ("warm_misses", Value::UInt(t.warm_misses)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("type", Value::Str("status".into())),
        ("queued", Value::UInt(queued)),
        ("running", Value::UInt(running)),
        ("done", Value::UInt(done_jobs)),
        ("shed", Value::UInt(shed_total)),
        ("draining", Value::Bool(draining)),
        ("tenants", Value::Arr(tenant_objs)),
    ])
    .to_json()
}

/// `metrics`: the server-side metrics snapshot. `snapshot` is the JSON
/// object produced by [`crate::obs::metrics::snapshot_value`] —
/// counters, gauges, per-stage latency histograms (p50/p90/p99/max in
/// ms) globally and per tenant.
pub fn metrics(snapshot: Value) -> String {
    Value::obj(vec![
        ("ok", Value::Bool(true)),
        ("type", Value::Str("metrics".into())),
        ("metrics", snapshot),
    ])
    .to_json()
}

/// A parsed server response, as seen by clients (the `client` and
/// `loadtest` binaries, and the integration tests).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Submit accepted.
    Accepted {
        /// Server-assigned job id.
        job_id: u64,
        /// Echoed client tag.
        tag: Option<String>,
    },
    /// Submit refused.
    Shed {
        /// Typed reason.
        reason: String,
        /// Whether a later retry can succeed.
        retryable: bool,
        /// Echoed client tag.
        tag: Option<String>,
    },
    /// Terminal job outcome.
    Done {
        /// Server-assigned job id.
        job_id: u64,
        /// Job registry name.
        job: String,
        /// Output on success, journal-style error on failure.
        outcome: Result<String, (String, String)>,
        /// Echoed client tag.
        tag: Option<String>,
    },
    /// Request-level error.
    Error {
        /// Human-readable message.
        message: String,
        /// Machine-readable code, when the server attached one
        /// (`oversized_frame`, `wal_failed`, `subscriber_lagged`).
        code: Option<String>,
        /// Whether retrying the request can succeed. Plain validation
        /// errors default to `false` — resending bad JSON stays bad.
        retryable: bool,
        /// Echoed client tag.
        tag: Option<String>,
    },
    /// Periodic liveness report for a running job (non-terminal; the
    /// terminal `done` for the same `job_id` follows).
    Progress {
        /// Server-assigned job id.
        job_id: u64,
        /// Job registry name.
        job: String,
        /// Time since dispatch, in milliseconds.
        elapsed_ms: u64,
        /// Echoed client tag.
        tag: Option<String>,
    },
    /// Liveness reply.
    Pong,
    /// Subscription acknowledged.
    Subscribed,
    /// Shutdown acknowledged; the server is draining.
    ShuttingDown,
    /// Status counters (kept as raw JSON for display).
    Status(Value),
    /// Metrics snapshot (kept as raw JSON; the `metrics` key holds the
    /// snapshot object).
    Metrics(Value),
}

impl Response {
    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Value::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("missing \"type\"")?;
        let tag = v.get("tag").and_then(Value::as_str).map(str::to_string);
        match ty {
            "accepted" => Ok(Response::Accepted {
                job_id: v
                    .get("job_id")
                    .and_then(Value::as_u64)
                    .ok_or("accepted: missing job_id")?,
                tag,
            }),
            "shed" => Ok(Response::Shed {
                reason: v
                    .get("reason")
                    .and_then(Value::as_str)
                    .ok_or("shed: missing reason")?
                    .to_string(),
                retryable: v.get("retryable").and_then(Value::as_bool).unwrap_or(true),
                tag,
            }),
            "done" => {
                let job_id = v
                    .get("job_id")
                    .and_then(Value::as_u64)
                    .ok_or("done: missing job_id")?;
                let job = v
                    .get("job")
                    .and_then(Value::as_str)
                    .ok_or("done: missing job")?
                    .to_string();
                let outcome = match v.get("status").and_then(Value::as_str) {
                    Some("ok") => Ok(v
                        .get("output")
                        .and_then(Value::as_str)
                        .ok_or("done: missing output")?
                        .to_string()),
                    Some("failed") => Err((
                        v.get("error_kind")
                            .and_then(Value::as_str)
                            .unwrap_or("failed")
                            .to_string(),
                        v.get("error")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )),
                    _ => return Err("done: bad status".into()),
                };
                Ok(Response::Done {
                    job_id,
                    job,
                    outcome,
                    tag,
                })
            }
            "error" => Ok(Response::Error {
                message: v
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                code: v.get("code").and_then(Value::as_str).map(str::to_string),
                retryable: v.get("retryable").and_then(Value::as_bool).unwrap_or(false),
                tag,
            }),
            "progress" => Ok(Response::Progress {
                job_id: v
                    .get("job_id")
                    .and_then(Value::as_u64)
                    .ok_or("progress: missing job_id")?,
                job: v
                    .get("job")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                elapsed_ms: v.get("elapsed_ms").and_then(Value::as_u64).unwrap_or(0),
                tag,
            }),
            "pong" => Ok(Response::Pong),
            "subscribed" => Ok(Response::Subscribed),
            "shutting_down" => Ok(Response::ShuttingDown),
            "status" => Ok(Response::Status(v)),
            "metrics" => Ok(Response::Metrics(v)),
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

/// Builds the journal entry for a service job's terminal outcome.
/// `index` is the server-assigned job id, so one service journal holds
/// every tenant's jobs in admission order and `Journal::write_merged`
/// produces a deterministic drain artifact.
pub fn journal_entry(
    job_id: u64,
    job: &str,
    seed: u64,
    outcome: Result<String, JobError>,
) -> JournalEntry {
    JournalEntry {
        index: job_id as usize,
        job: job.to_string(),
        seed,
        attempts: 1,
        outcome,
        wall_ms: None,
        attempt_ms: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips() {
        let line = r#"{"op":"submit","tenant":"acme","job":"fig2","params":{"warmup":10},"deadline_ms":500,"tag":"t1"}"#;
        let req = Request::parse(line).unwrap();
        let Request::Submit(s) = req else {
            panic!("not a submit")
        };
        assert_eq!(s.tenant, "acme");
        assert_eq!(s.job, "fig2");
        assert_eq!(s.params.get("warmup").and_then(Value::as_u64), Some(10));
        assert_eq!(s.deadline_ms, Some(500));
        assert_eq!(s.tag.as_deref(), Some("t1"));
        assert_eq!(s.idem_key, None, "idem_key is optional");
    }

    #[test]
    fn submit_carries_idempotency_key() {
        let line = r#"{"op":"submit","tenant":"acme","job":"fig2","idem_key":"run9-3"}"#;
        let Request::Submit(s) = Request::parse(line).unwrap() else {
            panic!("not a submit")
        };
        assert_eq!(s.idem_key.as_deref(), Some("run9-3"));
    }

    #[test]
    fn coded_errors_round_trip() {
        let line = error_coded("frame too large", "oversized_frame", false, &None);
        match Response::parse(&line).unwrap() {
            Response::Error {
                message,
                code,
                retryable,
                ..
            } => {
                assert_eq!(message, "frame too large");
                assert_eq!(code.as_deref(), Some("oversized_frame"));
                assert!(!retryable);
            }
            other => panic!("{other:?}"),
        }
        // Plain errors have no code and are not retryable.
        match Response::parse(&error("bad JSON", &None)).unwrap() {
            Response::Error {
                code, retryable, ..
            } => {
                assert_eq!(code, None);
                assert!(!retryable);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","tenant":"","job":"fig2"}"#,
            r#"{"op":"submit","tenant":"a"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn responses_round_trip() {
        let tag = Some("t9".to_string());
        match Response::parse(&accepted(7, &tag)).unwrap() {
            Response::Accepted { job_id: 7, tag: t } => assert_eq!(t.as_deref(), Some("t9")),
            other => panic!("{other:?}"),
        }
        match Response::parse(&shed(ShedReason::QueueFull, &None)).unwrap() {
            Response::Shed {
                reason, retryable, ..
            } => {
                assert_eq!(reason, "queue_full");
                assert!(retryable);
            }
            other => panic!("{other:?}"),
        }
        match Response::parse(&shed(ShedReason::Draining, &None)).unwrap() {
            Response::Shed { retryable, .. } => assert!(!retryable),
            other => panic!("{other:?}"),
        }
        let ok = done(3, "fig2", &Ok("text\n".into()), &None);
        match Response::parse(&ok).unwrap() {
            Response::Done { outcome, .. } => assert_eq!(outcome.unwrap(), "text\n"),
            other => panic!("{other:?}"),
        }
        let cancelled = done(
            4,
            "fig2",
            &Err(JobError::Cancelled {
                reason: "drain".into(),
            }),
            &None,
        );
        match Response::parse(&cancelled).unwrap() {
            Response::Done { outcome, .. } => {
                let (kind, msg) = outcome.unwrap_err();
                assert_eq!(kind, "cancelled");
                assert!(msg.contains("drain"));
            }
            other => panic!("{other:?}"),
        }
        let streamed = progress(5, "fig2", 1200, &tag);
        match Response::parse(&streamed).unwrap() {
            Response::Progress {
                job_id,
                job,
                elapsed_ms,
                tag,
            } => {
                assert_eq!(job_id, 5);
                assert_eq!(job, "fig2");
                assert_eq!(elapsed_ms, 1200);
                assert_eq!(tag.as_deref(), Some("t9"));
            }
            other => panic!("{other:?}"),
        }
        match Response::parse(&shed(ShedReason::PipelineFull, &None)).unwrap() {
            Response::Shed {
                reason, retryable, ..
            } => {
                assert_eq!(reason, "pipeline_full");
                assert!(retryable, "pipeline sheds clear as jobs finish");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(Response::parse(&pong()).unwrap(), Response::Pong);
        assert_eq!(
            Response::parse(&subscribed()).unwrap(),
            Response::Subscribed
        );
        assert!(matches!(
            Response::parse(&status(1, 2, 3, 4, false, &[])).unwrap(),
            Response::Status(_)
        ));
    }

    #[test]
    fn metrics_round_trips() {
        assert_eq!(Request::parse(r#"{"op":"metrics"}"#), Ok(Request::Metrics));
        let line = metrics(Value::obj(vec![("uptime_ms", Value::UInt(5))]));
        match Response::parse(&line).unwrap() {
            Response::Metrics(v) => {
                let snap = v.get("metrics").expect("snapshot embedded");
                assert_eq!(snap.get("uptime_ms").and_then(Value::as_u64), Some(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shed_reasons_are_stable() {
        assert_eq!(ShedReason::QueueFull.as_str(), "queue_full");
        assert_eq!(ShedReason::TenantQueueFull.as_str(), "tenant_queue_full");
        assert_eq!(ShedReason::TenantBytes.as_str(), "tenant_bytes");
        assert_eq!(ShedReason::PipelineFull.as_str(), "pipeline_full");
        assert_eq!(ShedReason::Draining.as_str(), "draining");
    }
}
