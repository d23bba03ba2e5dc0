//! Property-based tests of the wire protocol and durability logs under
//! hostile input.
//!
//! The service reads frames from the network and replays logs written
//! by a process that may have died mid-byte, so the parsers here are
//! the repo's main untrusted-input surface. Two families of
//! properties:
//!
//! 1. **Round-trips** — every response builder and every WAL record
//!    parses back to exactly what was serialized, for strings drawn
//!    from a palette of JSON-hostile characters (quotes, backslashes,
//!    braces, newlines, NUL, multi-byte unicode).
//! 2. **No panics** — truncated, bit-flipped, and spliced-together
//!    frames (what a torn TCP stream or a crash mid-append produces)
//!    may fail to parse, but must never panic the parser.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vsnoop::runner::json::Value;
use vsnoop::runner::{JobError, JournalEntry};
use vsnoop::service::{protocol, Request, Response, ShedReason, WalRecord};

/// Strings stitched from characters JSON encoders get wrong first:
/// escapes, delimiters, control bytes, and multi-byte code points.
fn hostile_string() -> impl Strategy<Value = String> {
    let palette = [
        '"', '\\', '{', '}', '[', ']', ':', ',', '\n', '\r', '\t', '\0', 'a', 'é', '世', '🦀', ' ',
        '/',
    ];
    prop::collection::vec(0usize..palette.len(), 0..24)
        .prop_map(move |ix| ix.into_iter().map(|i| palette[i]).collect())
}

fn hostile_outcome() -> impl Strategy<Value = (bool, String)> {
    (any::<bool>(), hostile_string())
}

fn opt_tag() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), hostile_string()).prop_map(|(some, s)| some.then_some(s))
}

proptest! {
    #[test]
    fn accepted_round_trips(job_id in any::<u64>(), tag in opt_tag()) {
        let line = protocol::accepted(job_id, &tag);
        prop_assert!(!line.contains('\n'), "one frame per line: {line:?}");
        let parsed = Response::parse(&line).expect("accepted parses");
        prop_assert_eq!(parsed, Response::Accepted { job_id, tag });
    }

    #[test]
    fn done_round_trips(
        job_id in any::<u64>(),
        job in hostile_string(),
        (ok, payload) in hostile_outcome(),
        tag in opt_tag(),
    ) {
        let outcome = if ok {
            Ok(payload.clone())
        } else {
            Err(JobError::Failed { message: payload.clone() })
        };
        let line = protocol::done(job_id, &job, &outcome, &tag);
        prop_assert!(!line.contains('\n'), "one frame per line: {line:?}");
        match Response::parse(&line).expect("done parses") {
            Response::Done { job_id: id, job: j, outcome: got, tag: t } => {
                prop_assert_eq!(id, job_id);
                prop_assert_eq!(j, job);
                prop_assert_eq!(t, tag);
                match got {
                    Ok(out) => {
                        prop_assert!(ok);
                        prop_assert_eq!(out, payload);
                    }
                    Err((kind, message)) => {
                        prop_assert!(!ok);
                        prop_assert_eq!(kind, "failed");
                        prop_assert!(message.contains(&payload), "{message:?}");
                    }
                }
            }
            other => return Err(TestCaseError::fail(format!("not done: {other:?}"))),
        }
    }

    #[test]
    fn coded_errors_round_trip(
        message in hostile_string(),
        code in hostile_string(),
        retryable in any::<bool>(),
        tag in opt_tag(),
    ) {
        let line = protocol::error_coded(&message, &code, retryable, &tag);
        let parsed = Response::parse(&line).expect("error parses");
        prop_assert_eq!(
            parsed,
            Response::Error { message, code: Some(code), retryable, tag }
        );
    }

    #[test]
    fn sheds_round_trip(reason_ix in 0usize..4, tag in opt_tag()) {
        let reason = [
            ShedReason::QueueFull,
            ShedReason::TenantQueueFull,
            ShedReason::TenantBytes,
            ShedReason::Draining,
        ][reason_ix];
        let line = protocol::shed(reason, &tag);
        let parsed = Response::parse(&line).expect("shed parses");
        prop_assert_eq!(
            parsed,
            Response::Shed {
                reason: reason.as_str().to_string(),
                retryable: reason.retryable(),
                tag,
            }
        );
    }

    #[test]
    fn submits_round_trip(
        tenant in hostile_string(),
        job in hostile_string(),
        idem_key in opt_tag(),
        tag in opt_tag(),
        deadline in any::<bool>(),
        param in any::<u64>(),
    ) {
        // Empty tenants are rejected by design; pad them.
        let tenant = format!("t{tenant}");
        let mut pairs = vec![
            ("op", Value::Str("submit".into())),
            ("tenant", Value::Str(tenant.clone())),
            ("job", Value::Str(job.clone())),
            ("params", Value::obj(vec![("spin", Value::UInt(param))])),
        ];
        if let Some(t) = &tag {
            pairs.push(("tag", Value::Str(t.clone())));
        }
        if let Some(k) = &idem_key {
            pairs.push(("idem_key", Value::Str(k.clone())));
        }
        if deadline {
            pairs.push(("deadline_ms", Value::UInt(param)));
        }
        let line = Value::obj(pairs).to_json();
        match Request::parse(&line).expect("submit parses") {
            Request::Submit(s) => {
                prop_assert_eq!(s.tenant, tenant);
                prop_assert_eq!(s.job, job);
                prop_assert_eq!(s.tag, tag);
                prop_assert_eq!(s.idem_key, idem_key);
                prop_assert_eq!(s.deadline_ms, deadline.then_some(param));
                prop_assert_eq!(s.params.get("spin").and_then(Value::as_u64), Some(param));
            }
            other => return Err(TestCaseError::fail(format!("not submit: {other:?}"))),
        }
    }

    #[test]
    fn wal_records_round_trip(
        job_id in any::<u64>(),
        tenant in hostile_string(),
        job in hostile_string(),
        idem_key in opt_tag(),
        (ok, payload) in hostile_outcome(),
        bytes in any::<u64>(),
        which in 0usize..3,
    ) {
        let record = match which {
            0 => WalRecord::Accepted {
                job_id,
                tenant,
                job,
                params: Value::obj(vec![("n", Value::UInt(bytes))]),
                deadline_ms: ok.then_some(bytes),
                idem_key,
                bytes,
            },
            1 => WalRecord::Done {
                job_id,
                outcome: if ok {
                    Ok(payload)
                } else {
                    Err(JobError::Failed { message: payload })
                },
            },
            _ => WalRecord::Recovered { job_id },
        };
        let line = record.to_json_line();
        prop_assert!(!line.contains('\n'), "one record per line: {line:?}");
        let back = WalRecord::from_json_line(&line).expect("record parses");
        prop_assert_eq!(back, record);
    }

    /// A torn stream hands the parsers any prefix of a valid frame;
    /// a corrupted disk or proxy hands them bit flips; an interleaved
    /// write hands them two frames spliced mid-byte. None may panic.
    #[test]
    fn mangled_frames_never_panic(
        job_id in any::<u64>(),
        job in hostile_string(),
        (ok, payload) in hostile_outcome(),
        tag in opt_tag(),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
        flip_at in any::<usize>(),
        flip_to in any::<u8>(),
    ) {
        let outcome = if ok {
            Ok(payload.clone())
        } else {
            Err(JobError::TimedOut { limit_ms: job_id })
        };
        let frame_a = protocol::done(job_id, &job, &outcome, &tag);
        let frame_b = WalRecord::Accepted {
            job_id,
            tenant: payload.clone(),
            job: job.clone(),
            params: Value::Null,
            deadline_ms: None,
            idem_key: tag.clone(),
            bytes: job_id,
        }
        .to_json_line();

        // Truncations (on arbitrary byte, not char, boundaries).
        let trunc_a = &frame_a.as_bytes()[..cut_a % (frame_a.len() + 1)];
        // A single-byte mutation.
        let mut flipped = frame_b.clone().into_bytes();
        if !flipped.is_empty() {
            let at = flip_at % flipped.len();
            flipped[at] = flip_to;
        }
        // Two frames spliced together mid-byte.
        let mut spliced = frame_a.as_bytes()[..cut_a % (frame_a.len() + 1)].to_vec();
        spliced.extend_from_slice(&frame_b.as_bytes()[cut_b % (frame_b.len() + 1)..]);

        for bytes in [trunc_a.to_vec(), flipped, spliced] {
            let text = String::from_utf8_lossy(&bytes);
            // Any of Err/None is fine; a panic is the only failure.
            let _ = Request::parse(&text);
            let _ = Response::parse(&text);
            let _ = WalRecord::from_json_line(&text);
            let _ = JournalEntry::from_json_line(&text);
            let _ = Value::parse(&text);
        }
    }
}
