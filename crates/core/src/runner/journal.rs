//! The JSON-lines checkpoint journal.
//!
//! Every *terminal* job result (success, or failure after the retry
//! budget) is appended to `journal.jsonl` and flushed immediately, so a
//! killed campaign loses at most the jobs that were still in flight.
//! `--resume` reads the journal back and re-runs only jobs without a
//! terminal entry. Entries carry no wall-clock quantities — everything
//! in them is a deterministic function of the job and its configuration
//! — so the *merged* journal of an interrupted-and-resumed campaign is
//! byte-identical to that of an uninterrupted one.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use super::job::{JobError, JobRecord};
use super::json::Value;

/// One journal line: the terminal outcome of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// Position in the campaign's job list.
    pub index: usize,
    /// Job name (the resume key, together with `seed`).
    pub job: String,
    /// The job's seed.
    pub seed: u64,
    /// Attempts consumed.
    pub attempts: u32,
    /// `Ok(output)` or the final error.
    pub outcome: Result<String, JobError>,
    /// Wall-clock time from first dispatch to the terminal outcome, in
    /// milliseconds. `None` in journals written before this field
    /// existed (old journals stay parseable) and in the merged journal,
    /// which strips wall-clock quantities to stay deterministic.
    pub wall_ms: Option<u64>,
    /// Duration of the final attempt alone, in milliseconds; `None`
    /// under the same conditions as `wall_ms`.
    pub attempt_ms: Option<u64>,
}

impl JournalEntry {
    /// Builds the entry for a finished job record.
    pub fn from_record(r: &JobRecord) -> Self {
        JournalEntry {
            index: r.index,
            job: r.spec.name.clone(),
            seed: r.spec.seed,
            attempts: r.attempts,
            outcome: r.outcome.clone(),
            wall_ms: r.wall_ms,
            attempt_ms: r.attempt_ms,
        }
    }

    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut pairs = vec![
            ("index", Value::UInt(self.index as u64)),
            ("job", Value::Str(self.job.clone())),
            ("seed", Value::UInt(self.seed)),
            ("attempts", Value::UInt(u64::from(self.attempts))),
        ];
        match &self.outcome {
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
        // Wall-clock fields go last so the deterministic prefix of the
        // line is unchanged from journals that predate them.
        if let Some(ms) = self.wall_ms {
            pairs.push(("wall_ms", Value::UInt(ms)));
        }
        if let Some(ms) = self.attempt_ms {
            pairs.push(("attempt_ms", Value::UInt(ms)));
        }
        Value::obj(pairs).to_json()
    }

    /// Parses one journal line.
    pub fn from_json_line(line: &str) -> Option<JournalEntry> {
        let v = Value::parse(line).ok()?;
        let index = v.get("index")?.as_u64()? as usize;
        let job = v.get("job")?.as_str()?.to_string();
        let seed = v.get("seed")?.as_u64()?;
        let attempts = v.get("attempts")?.as_u64()? as u32;
        let status = v.get("status")?.as_str()?;
        let outcome = match status {
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
        Some(JournalEntry {
            index,
            job,
            seed,
            attempts,
            outcome,
            // Optional in both directions: absent in old journals, and
            // absence round-trips as `None`.
            wall_ms: v.get("wall_ms").and_then(Value::as_u64),
            attempt_ms: v.get("attempt_ms").and_then(Value::as_u64),
        })
    }
}

/// An append-only JSONL journal on disk.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: BufWriter<File>,
    /// `fdatasync` each appended entry (the durable-service path);
    /// batch campaign runs keep the cheap flush-only default.
    sync: bool,
}

impl Journal {
    /// Opens the journal for appending, creating it (and its parent
    /// directories) as needed. With `fresh`, any existing journal is
    /// truncated first — a non-resume campaign must not inherit stale
    /// checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path, fresh: bool) -> std::io::Result<Journal> {
        Self::open_with_sync(path, fresh, false)
    }

    /// Like [`Journal::open`], but with `sync` every append also
    /// `fdatasync`s, so a terminal outcome survives power loss — not
    /// just process death. The service journal opens with `sync`;
    /// campaign runs stay flush-only (a lost checkpoint there only
    /// re-runs one job, which is not worth an fsync per entry).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_with_sync(path: &Path, fresh: bool, sync: bool) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        if !fresh {
            repair_tail(path)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(!fresh)
            .write(true)
            .truncate(fresh)
            .open(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
            sync,
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one entry and flushes it to the OS, so a SIGKILL
    /// immediately afterwards cannot lose it. When the journal was
    /// opened with sync (see [`Journal::open_with_sync`]), the entry
    /// is also `fdatasync`ed to stable storage before returning.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, entry: &JournalEntry) -> std::io::Result<()> {
        self.writer.write_all(entry.to_json_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        if self.sync {
            self.writer.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Loads all parseable entries from a journal file. A half-written
    /// final line (the process died mid-append) is skipped rather than
    /// failing the whole resume; a missing file is an empty journal.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than `NotFound`.
    pub fn load(path: &Path) -> std::io::Result<Vec<JournalEntry>> {
        Ok(Self::load_with_warnings(path)?.0)
    }

    /// Like [`Journal::load`], but also reports every skipped line as a
    /// human-readable warning, so a resume after a crash mid-append can
    /// tell the user which checkpoint was lost (that job simply
    /// re-runs) instead of dropping it silently. The file is read as
    /// raw bytes: a write cut short inside a multi-byte character must
    /// not fail the whole resume either.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than `NotFound`.
    pub fn load_with_warnings(path: &Path) -> std::io::Result<(Vec<JournalEntry>, Vec<String>)> {
        let mut entries = Vec::new();
        let mut warnings = Vec::new();
        for_each_line(path, |lineno, line| {
            match JournalEntry::from_json_line(line) {
                Some(e) => entries.push(e),
                None => warnings.push(format!(
                    "journal {}: line {lineno} is unparseable (crash mid-write?); \
                     skipping it — the affected job will re-run",
                    path.display(),
                )),
            }
        })?;
        Ok((entries, warnings))
    }

    /// Writes the canonical merged journal: one line per job, sorted by
    /// campaign index. Because entries are deterministic, this file is
    /// byte-identical whether the campaign ran straight through or was
    /// killed and resumed any number of times — the wall-clock fields
    /// (`wall_ms`, `attempt_ms`) are stripped here for exactly that
    /// reason; they survive only in the raw append journal.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_merged(path: &Path, entries: &[JournalEntry]) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut sorted: Vec<&JournalEntry> = entries.iter().collect();
        sorted.sort_by_key(|e| e.index);
        let mut out = String::new();
        for e in sorted {
            let stripped = JournalEntry {
                wall_ms: None,
                attempt_ms: None,
                ..(*e).clone()
            };
            out.push_str(&stripped.to_json_line());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Truncates a torn trailing line — a crash mid-append leaves the file
/// without a final newline — so the next append starts on a fresh line
/// instead of gluing onto the torn bytes and corrupting itself too. A
/// missing file needs no repair. Every append-only JSONL log (this
/// journal and the service WAL) repairs on reopen with this.
pub(crate) fn repair_tail(path: &Path) -> std::io::Result<()> {
    let mut f = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    if bytes.last().is_some_and(|&b| b != b'\n') {
        let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        f.set_len(keep as u64)?;
    }
    Ok(())
}

/// Calls `f` with the 1-based number and trimmed text of every non-blank
/// line of a JSONL log; a missing file has no lines. The file is read as
/// raw bytes and decoded lossily, so a write cut short inside a
/// multi-byte character costs only its own line.
///
/// # Errors
///
/// Propagates filesystem errors other than `NotFound`.
pub(crate) fn for_each_line(path: &Path, mut f: impl FnMut(usize, &str)) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut file) => file.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for (i, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let line = String::from_utf8_lossy(raw);
        let line = line.trim();
        if !line.is_empty() {
            f(i + 1, line);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(index: usize, name: &str, outcome: Result<String, JobError>) -> JournalEntry {
        JournalEntry {
            index,
            job: name.into(),
            seed: 0xC0FFEE,
            attempts: if outcome.is_ok() { 1 } else { 3 },
            outcome,
            wall_ms: None,
            attempt_ms: None,
        }
    }

    #[test]
    fn wall_clock_fields_round_trip_and_merge_strips_them() {
        let mut timed = entry(0, "fig1", Ok("out".into()));
        timed.wall_ms = Some(1234);
        timed.attempt_ms = Some(456);
        let line = timed.to_json_line();
        assert!(line.contains("\"wall_ms\":1234"));
        assert!(line.ends_with("\"attempt_ms\":456}"));
        assert_eq!(JournalEntry::from_json_line(&line).unwrap(), timed);

        // Old journals (no wall-clock fields) parse with `None`.
        let old = entry(1, "fig3", Ok("x".into()));
        let parsed = JournalEntry::from_json_line(&old.to_json_line()).unwrap();
        assert_eq!(parsed.wall_ms, None);
        assert_eq!(parsed.attempt_ms, None);

        // The merged journal is byte-identical with and without them.
        let dir = std::env::temp_dir().join(format!("vsnoop-journal-wall-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let with_times = dir.join("with.jsonl");
        let without_times = dir.join("without.jsonl");
        let mut untimed = timed.clone();
        untimed.wall_ms = None;
        untimed.attempt_ms = None;
        Journal::write_merged(&with_times, &[timed]).unwrap();
        Journal::write_merged(&without_times, &[untimed]).unwrap();
        assert_eq!(
            std::fs::read(&with_times).unwrap(),
            std::fs::read(&without_times).unwrap(),
            "write_merged must strip wall-clock fields"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_round_trip() {
        for e in [
            entry(0, "fig1", Ok("\n=== Figure 1 ===\ntable\n".into())),
            entry(
                3,
                "fig7",
                Err(JobError::Panicked {
                    message: "index out of bounds".into(),
                }),
            ),
            entry(5, "fig8", Err(JobError::TimedOut { limit_ms: 60_000 })),
            entry(
                7,
                "soak",
                Err(JobError::Failed {
                    message: "2 invariant violations".into(),
                }),
            ),
        ] {
            let line = e.to_json_line();
            assert!(!line.contains('\n'), "one line per entry: {line}");
            let back = JournalEntry::from_json_line(&line).expect("parses");
            assert_eq!(back, e);
        }
    }

    #[test]
    fn append_load_and_merge() {
        let dir = std::env::temp_dir().join(format!("vsnoop-journal-{}", std::process::id()));
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut j = Journal::open(&path, true).unwrap();
            j.append(&entry(1, "b", Ok("B".into()))).unwrap();
            j.append(&entry(0, "a", Ok("A".into()))).unwrap();
        }
        // Simulate a crash mid-append: a truncated trailing line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"index\":2,\"job\":\"c\",\"se").unwrap();
        }
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.len(), 2, "truncated line skipped");
        assert_eq!(loaded[0].job, "b");

        let merged = dir.join("merged.jsonl");
        Journal::write_merged(&merged, &loaded).unwrap();
        let text = std::fs::read_to_string(&merged).unwrap();
        let names: Vec<String> = text
            .lines()
            .map(|l| JournalEntry::from_json_line(l).unwrap().job)
            .collect();
        assert_eq!(names, ["a", "b"], "merged journal is index-sorted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_entries_round_trip() {
        let e = entry(
            2,
            "fig7",
            Err(JobError::Cancelled {
                reason: "drain".into(),
            }),
        );
        let line = e.to_json_line();
        assert!(line.contains("\"status\":\"failed\""));
        assert!(line.contains("\"error_kind\":\"cancelled\""));
        assert_eq!(JournalEntry::from_json_line(&line).unwrap(), e);
    }

    #[test]
    fn truncated_lines_are_skipped_with_warnings() {
        let dir = std::env::temp_dir().join(format!("vsnoop-journal-trunc-{}", std::process::id()));
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut j = Journal::open(&path, true).unwrap();
            j.append(&entry(0, "a", Ok("A".into()))).unwrap();
        }
        // A crash mid-write can stop inside a multi-byte character; the
        // loader must tolerate the invalid UTF-8 tail, not just missing
        // braces.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"index\":1,\"job\":\"caf\xc3").unwrap();
        }
        let (entries, warnings) = Journal::load_with_warnings(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].job, "a");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("line 2"), "{warnings:?}");
        assert!(warnings[0].contains("re-run"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_for_append_repairs_a_torn_tail() {
        let dir =
            std::env::temp_dir().join(format!("vsnoop-journal-repair-{}", std::process::id()));
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut j = Journal::open(&path, true).unwrap();
            j.append(&entry(0, "a", Ok("A".into()))).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"index\":1,\"job\":\"to").unwrap();
        }
        // Reopening for append (the resume path) truncates the torn
        // line; the next entry must not be glued onto its bytes.
        {
            let mut j = Journal::open(&path, false).unwrap();
            j.append(&entry(1, "b", Ok("B".into()))).unwrap();
        }
        let (entries, warnings) = Journal::load_with_warnings(&path).unwrap();
        assert_eq!(warnings, Vec::<String>::new());
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].job, "b");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_is_empty() {
        let loaded = Journal::load(Path::new("/nonexistent/definitely/missing.jsonl")).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn fresh_open_truncates() {
        let dir = std::env::temp_dir().join(format!("vsnoop-journal-fresh-{}", std::process::id()));
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut j = Journal::open(&path, true).unwrap();
            j.append(&entry(0, "a", Ok("A".into()))).unwrap();
        }
        {
            let _j = Journal::open(&path, true).unwrap();
        }
        assert!(Journal::load(&path).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
