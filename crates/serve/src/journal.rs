//! Crash-safe job journal: append-only JSON lines.
//!
//! Every admitted job is journaled *before* the client sees a 202, and
//! every terminal transition (`done` or `failed`) is journaled after. On startup, [`recover`] replays the log: accepted
//! jobs with no terminal record are the work the previous process died
//! holding, and the server re-admits each **exactly once** — recovered
//! jobs keep their original ids and are not re-journaled as accepted,
//! so a second crash-and-restart cannot double them.
//!
//! Format: one compact JSON object per line (the serde_json shim
//! escapes embedded newlines, so multi-line spec bodies are safe).
//! Torn final lines — the tail a `kill -9` can leave — are skipped
//! with a warning rather than poisoning recovery.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::job::PreparedJob;

/// An `accepted` record replayed from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptedRecord {
    /// The job id the previous process assigned.
    pub id: u64,
    /// The submitting client's name.
    pub client: String,
    /// The validated job, reconstructed from the journaled fields.
    pub job: PreparedJob,
}

/// What [`recover`] found in an existing journal.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Accepted jobs with no terminal record, in acceptance order.
    pub incomplete: Vec<AcceptedRecord>,
    /// One past the highest id seen, so new jobs never collide.
    pub next_id: u64,
    /// Torn or unparsable lines that were skipped.
    pub skipped: usize,
}

/// The append-only journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` for appending.
    ///
    /// If the previous process died mid-append, the file can end in a
    /// torn line with no trailing newline. Appending straight after it
    /// would splice the next record into the garbage — losing *that*
    /// record too — so the torn tail is newline-terminated here,
    /// leaving it as one skippable line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() > 0 {
            let mut tail = [0u8; 1];
            let mut reader = File::open(path)?;
            reader.seek(SeekFrom::End(-1))?;
            reader.read_exact(&mut tail)?;
            if tail[0] != b'\n' {
                file.write_all(b"\n")?;
                file.flush()?;
            }
        }
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Journals an accepted job. Synced to disk before returning so
    /// the acceptance survives a crash that follows the client's 202.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the caller must *not* admit the
    /// job if journaling failed.
    pub fn accepted(&self, id: u64, client: &str, job: &PreparedJob) -> std::io::Result<()> {
        let rec = Value::Object(vec![
            ("event".into(), Value::Str("accepted".into())),
            ("job".into(), Value::U64(id)),
            ("client".into(), Value::Str(client.into())),
            ("label".into(), Value::Str(job.label.clone())),
            ("fingerprint".into(), Value::Str(job.fingerprint.clone())),
            ("cacheable".into(), Value::Bool(job.cacheable)),
            ("weight".into(), Value::U64(job.weight)),
            ("body".into(), Value::Str(job.body.clone())),
        ]);
        self.append(rec, true)
    }

    /// Journals a terminal transition (`"done"` or `"failed"`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures. Terminal records are flushed
    /// but not fsynced — losing one only costs a redundant (cached)
    /// re-run after a crash, never duplicated work.
    pub fn terminal(&self, id: u64, event: &str) -> std::io::Result<()> {
        let rec = Value::Object(vec![
            ("event".into(), Value::Str(event.into())),
            ("job".into(), Value::U64(id)),
        ]);
        self.append(rec, false)
    }

    fn append(&self, rec: Value, sync: bool) -> std::io::Result<()> {
        let line = serde_json::to_string(&rec).map_err(std::io::Error::other)?;
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        if sync {
            file.sync_data()?;
        }
        Ok(())
    }
}

/// Replays the journal at `path`. A missing file is an empty journal.
///
/// # Errors
///
/// Propagates filesystem failures other than the file not existing.
pub fn recover(path: &Path) -> std::io::Result<Recovery> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovery::default()),
        Err(e) => return Err(e),
    };
    let mut accepted: BTreeMap<u64, AcceptedRecord> = BTreeMap::new();
    let mut recovery = Recovery::default();
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(rec) = serde_json::parse_value(&line) else {
            recovery.skipped += 1;
            continue;
        };
        let Some(event) = rec.get("event").and_then(Value::as_str) else {
            recovery.skipped += 1;
            continue;
        };
        let Some(id) = rec.get("job").and_then(Value::as_u64) else {
            recovery.skipped += 1;
            continue;
        };
        recovery.next_id = recovery.next_id.max(id + 1);
        match event {
            "accepted" => {
                let field = |k: &str| rec.get(k).and_then(Value::as_str).map(str::to_string);
                let (Some(client), Some(label), Some(fingerprint), Some(body)) = (
                    field("client"),
                    field("label"),
                    field("fingerprint"),
                    field("body"),
                ) else {
                    recovery.skipped += 1;
                    continue;
                };
                accepted.insert(
                    id,
                    AcceptedRecord {
                        id,
                        client,
                        job: PreparedJob {
                            label,
                            fingerprint,
                            cacheable: rec.get("cacheable").is_none_or(|v| *v == true),
                            weight: rec.get("weight").and_then(Value::as_u64).unwrap_or(1),
                            body,
                        },
                    },
                );
            }
            // This server writes only `done` and `failed`; `quarantined`
            // is still read, since another process may have written the
            // journal.
            "done" | "failed" | "quarantined" => {
                accepted.remove(&id);
            }
            _ => recovery.skipped += 1,
        }
    }
    recovery.incomplete = accepted.into_values().collect();
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(label: &str) -> PreparedJob {
        PreparedJob {
            label: label.into(),
            fingerprint: format!("fp-{label}"),
            cacheable: true,
            weight: 7,
            body: format!("{{\"spec\":\"{label}\"}}"),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hvx-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    #[test]
    fn recovery_returns_accepted_minus_terminal_exactly() {
        let path = temp_path("basic");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.accepted(1, "alice", &job("a")).unwrap();
        j.accepted(2, "bob", &job("b")).unwrap();
        j.accepted(3, "alice", &job("c")).unwrap();
        j.terminal(2, "done").unwrap();
        j.terminal(3, "failed").unwrap();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.incomplete.len(), 1);
        assert_eq!(rec.incomplete[0].id, 1);
        assert_eq!(rec.incomplete[0].client, "alice");
        assert_eq!(rec.incomplete[0].job, job("a"));
        assert_eq!(rec.next_id, 4);
        assert_eq!(rec.skipped, 0);
    }

    #[test]
    fn torn_tail_lines_are_skipped_not_fatal() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.accepted(1, "alice", &job("a")).unwrap();
        // Simulate a kill -9 mid-append: a truncated record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"acce").unwrap();
        }
        let rec = recover(&path).unwrap();
        assert_eq!(rec.incomplete.len(), 1);
        assert_eq!(rec.skipped, 1);
    }

    #[test]
    fn reopening_after_a_torn_tail_does_not_swallow_the_next_record() {
        let path = temp_path("torn-reopen");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.accepted(1, "alice", &job("a")).unwrap();
        // kill -9 mid-append: the tail line has no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"do").unwrap();
        }
        drop(j);
        // The next process reopens and journals job 1's completion;
        // that record must not be spliced into the torn garbage.
        let j = Journal::open(&path).unwrap();
        j.terminal(1, "done").unwrap();
        let rec = recover(&path).unwrap();
        assert!(rec.incomplete.is_empty(), "terminal record survived");
        assert_eq!(rec.skipped, 1);
    }

    #[test]
    fn missing_journal_is_an_empty_recovery() {
        let rec = recover(Path::new("/nonexistent/hvx/journal.jsonl")).unwrap();
        assert!(rec.incomplete.is_empty());
        assert_eq!(rec.next_id, 0);
    }

    #[test]
    fn multiline_bodies_survive_the_line_format() {
        let path = temp_path("multiline");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        let mut pretty = job("p");
        pretty.body = "{\n  \"hypervisor\": \"kvm-arm\"\n}".into();
        j.accepted(9, "carol", &pretty).unwrap();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.incomplete[0].job.body, pretty.body);
        assert_eq!(rec.next_id, 10);
    }
}
