//! Append-only, checksummed campaign journal.
//!
//! The journal is the campaign's source of durability: every run transition
//! (started, completed, failed attempt, gave up) is appended as one line and
//! fsynced before the runner proceeds, so a `kill -9` at any instant loses at
//! most the line being written — never a previously acknowledged record.
//!
//! ## Format (version 2)
//!
//! The file is plain text, one JSON object per line, each line sealed by
//! [`particles::record`]:
//!
//! ```text
//! {"campaign":2,"spec":"<spec-fingerprint-hex>"} % <sum>
//! {"seq":0,"event":"started","run":"<run>","attempt":1} % <sum>
//! {"seq":1,"event":"completed","run":"<run>","attempt":1,"payload_len":<n>,"payload_sum":"<hex>"} % <sum>
//! {"seq":2,"event":"attempt-failed","run":"<run>","attempt":1,"kind":"<kind>","detail":"<detail>"} % <sum>
//! {"seq":3,"event":"gave-up","run":"<run>","attempts":3,"kind":"<kind>","detail":"<detail>"} % <sum>
//! ```
//!
//! 64-bit fingerprints and sums are 16-digit hex strings (a JSON number is
//! an `f64`). Each line's sum is *chained* from the previous line's (the
//! header's from [`CHAIN_SEED`]), so a line is only valid in its exact
//! position: records cannot be reordered, spliced from another journal, or
//! survive a corrupted predecessor. Version 1 — a space-separated grammar
//! with its own escapes — is not read: its header is a [`JournalError::BadHeader`].
//!
//! ## Torn tails
//!
//! On [`Journal::open`] the file is replayed; the first line that fails to
//! parse or checksum marks the *torn tail*: everything from it onward is
//! discarded (the file is truncated back to the valid prefix) and reported in
//! [`Journal::torn`]. A run whose `started` record survived but whose outcome
//! was torn off is simply in-flight again and will be re-run — re-running a
//! completed-but-unacknowledged run is safe because runs are deterministic.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek};
use std::path::Path;

use particles::json::Json;
use particles::record::{self, fold};

/// Seed for the journal's chained checksum and payload checksums
/// ("CAMPAIGN" in ASCII).
pub const CHAIN_SEED: u64 = 0x4341_4d50_4149_474e;

/// The journal format this crate writes and reads.
const VERSION: u64 = 2;

/// Fingerprint of a campaign specification: a fold over the ordered run
/// names. A journal opened against a *different* spec (renamed, reordered or
/// re-counted runs) is rejected with [`JournalError::SpecMismatch`] instead
/// of silently mixing two campaigns' states.
pub fn spec_fingerprint<S: AsRef<str>>(names: &[S]) -> u64 {
    let mut h = fold(CHAIN_SEED, &(names.len() as u64).to_le_bytes());
    for n in names {
        let b = n.as_ref().as_bytes();
        h = fold(h, &(b.len() as u64).to_le_bytes());
        h = fold(h, b);
    }
    h
}

/// A 64-bit value as a JSON string of 16 hex digits.
fn hex(x: u64) -> Json {
    Json::Str(format!("{x:016x}"))
}

/// The 64-bit value of a [`hex`] field.
fn unhex(v: &Json) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

/// One campaign state transition, as journaled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// Attempt `attempt` (1-based) of run `run` began executing.
    Started {
        /// Run name.
        run: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// Run `run` completed on attempt `attempt`; its payload was durably
    /// written before this record, and is `payload_len` bytes with the given
    /// fold checksum, so resume can verify the payload file it finds.
    Completed {
        /// Run name.
        run: String,
        /// 1-based attempt number that succeeded.
        attempt: u32,
        /// Payload length in bytes.
        payload_len: u64,
        /// [`fold`] checksum of the payload (seed [`CHAIN_SEED`]).
        payload_sum: u64,
    },
    /// Attempt `attempt` of run `run` failed with a retryable error; the
    /// runner will back off and try again.
    AttemptFailed {
        /// Run name.
        run: String,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// Failure class (e.g. `"panic"`, `"deadline"`, `"deadlock"`).
        kind: String,
        /// Human-readable failure detail.
        detail: String,
    },
    /// Run `run` exhausted its retry budget; `kind`/`detail` describe the
    /// final attempt's failure. The run is terminally failed.
    GaveUp {
        /// Run name.
        run: String,
        /// Total attempts made.
        attempts: u32,
        /// Failure class of the final attempt.
        kind: String,
        /// Human-readable failure detail of the final attempt.
        detail: String,
    },
}

impl Record {
    /// The record as the JSON object of journal line `seq`.
    fn to_json(&self, seq: u64) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        let count = |n: u32| Json::Num(f64::from(n));
        let mut pairs = vec![("seq", Json::Num(seq as f64))];
        pairs.extend(match self {
            Record::Started { run, attempt } => {
                vec![("event", text("started")), ("run", text(run)), ("attempt", count(*attempt))]
            }
            Record::Completed { run, attempt, payload_len, payload_sum } => vec![
                ("event", text("completed")),
                ("run", text(run)),
                ("attempt", count(*attempt)),
                ("payload_len", Json::Num(*payload_len as f64)),
                ("payload_sum", hex(*payload_sum)),
            ],
            Record::AttemptFailed { run, attempt, kind, detail } => vec![
                ("event", text("attempt-failed")),
                ("run", text(run)),
                ("attempt", count(*attempt)),
                ("kind", text(kind)),
                ("detail", text(detail)),
            ],
            Record::GaveUp { run, attempts, kind, detail } => vec![
                ("event", text("gave-up")),
                ("run", text(run)),
                ("attempts", count(*attempts)),
                ("kind", text(kind)),
                ("detail", text(detail)),
            ],
        });
        Json::obj(pairs)
    }

    /// The record of journal line `seq`, if `v` is exactly what
    /// [`Record::to_json`] writes for it.
    fn from_json(v: &Json, seq: u64) -> Option<Record> {
        let text = |k: &str| Some(v.get(k)?.as_str()?.to_string());
        let count = |k: &str| u32::try_from(v.get(k)?.as_u64()?).ok();
        let rec = match v.get("event")?.as_str()? {
            "started" => Record::Started { run: text("run")?, attempt: count("attempt")? },
            "completed" => Record::Completed {
                run: text("run")?,
                attempt: count("attempt")?,
                payload_len: v.get("payload_len")?.as_u64()?,
                payload_sum: unhex(v.get("payload_sum")?)?,
            },
            "attempt-failed" => Record::AttemptFailed {
                run: text("run")?,
                attempt: count("attempt")?,
                kind: text("kind")?,
                detail: text("detail")?,
            },
            "gave-up" => Record::GaveUp {
                run: text("run")?,
                attempts: count("attempts")?,
                kind: text("kind")?,
                detail: text("detail")?,
            },
            _ => return None,
        };
        // Exact keys, order and sequence number; nothing extra.
        (rec.to_json(seq) == *v).then_some(rec)
    }
}

/// Why a journal could not be opened.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The header is present and valid but records a different campaign
    /// specification (run names changed, reordered, or re-counted).
    SpecMismatch {
        /// Fingerprint recorded in the journal header.
        found: u64,
        /// Fingerprint of the spec being resumed.
        expected: u64,
    },
    /// The header itself is unreadable — the file exists but is not a
    /// campaign journal (or its very first line was torn). The caller should
    /// start fresh (typically under a new path or after explicit removal).
    BadHeader,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::SpecMismatch { found, expected } => write!(
                f,
                "journal belongs to a different campaign spec \
                 (journal {found:016x}, expected {expected:016x})"
            ),
            JournalError::BadHeader => {
                write!(f, "file is not a campaign journal (bad or torn header)")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Description of a torn tail discarded on open.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Number of valid records that survived (excluding the header).
    pub valid_records: usize,
    /// Bytes truncated off the end of the file.
    pub dropped_bytes: u64,
}

/// An open campaign journal: the replayed record prefix plus an append
/// handle positioned after the last valid record.
pub struct Journal {
    file: File,
    /// Records replayed from the valid prefix, in append order; the next
    /// record's sequence number is their count.
    records: Vec<Record>,
    /// Checksum of the last valid line (the chain of the next).
    chain: u64,
    /// Torn tail discarded on open, if any.
    torn: Option<TornTail>,
}

impl Journal {
    /// Create a fresh journal at `path` for the spec with the given
    /// fingerprint, truncating any existing file.
    pub fn create(path: &Path, fingerprint: u64) -> Result<Journal, JournalError> {
        let mut file = File::create(path)?;
        let header =
            Json::obj(vec![("campaign", Json::Num(VERSION as f64)), ("spec", hex(fingerprint))]);
        let (line, chain) = record::seal(CHAIN_SEED, &header.line());
        record::write_durable(&mut file, line.as_bytes())?;
        Ok(Journal { file, records: Vec::new(), chain, torn: None })
    }

    /// Open an existing journal, replaying its records and truncating any
    /// torn tail. Fails if the header is unreadable, of another version, or
    /// belongs to a different spec fingerprint.
    pub fn open(path: &Path, fingerprint: u64) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut text = Vec::new();
        file.read_to_end(&mut text)?;

        // Header: first line, chained from the fixed seed.
        let header = record::unseal(&text, CHAIN_SEED).map_err(|_| JournalError::BadHeader)?;
        let v = Json::parse(header.body).map_err(|_| JournalError::BadHeader)?;
        let found = match (v.get("campaign").and_then(Json::as_u64), v.get("spec").and_then(unhex))
        {
            (Some(VERSION), Some(found)) => found,
            _ => return Err(JournalError::BadHeader),
        };
        if found != fingerprint {
            return Err(JournalError::SpecMismatch { found, expected: fingerprint });
        }

        // Records: replay until the first invalid line.
        let mut records = Vec::new();
        let (mut chain, mut pos) = (header.sum, header.len);
        while let Ok(line) = record::unseal(&text[pos..], chain) {
            let seq = records.len() as u64;
            match Json::parse(line.body).ok().and_then(|v| Record::from_json(&v, seq)) {
                Some(r) => records.push(r),
                None => break,
            }
            chain = line.sum;
            pos += line.len;
        }

        // Truncate the torn tail, if any.
        let torn = if pos < text.len() {
            let dropped = (text.len() - pos) as u64;
            file.set_len(pos as u64)?;
            file.sync_data()?;
            Some(TornTail { valid_records: records.len(), dropped_bytes: dropped })
        } else {
            None
        };
        file.seek(std::io::SeekFrom::Start(pos as u64))?;

        Ok(Journal { file, records, chain, torn })
    }

    /// Append one record durably: the line is written and fsynced before
    /// this returns, so an acknowledged record survives `kill -9`.
    pub fn append(&mut self, rec: &Record) -> std::io::Result<()> {
        let body = rec.to_json(self.records.len() as u64).line();
        let (line, chain) = record::seal(self.chain, &body);
        record::write_durable(&mut self.file, line.as_bytes())?;
        self.chain = chain;
        self.records.push(rec.clone());
        Ok(())
    }

    /// Records replayed (on open) and appended so far, in order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The torn tail truncated on open, if any.
    pub fn torn(&self) -> Option<&TornTail> {
        self.torn.as_ref()
    }
}

/// Per-run resume state derived from a replayed journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunState {
    /// The run completed; its payload file should be `payload_len` bytes
    /// with checksum `payload_sum`.
    Completed {
        /// Attempt that succeeded.
        attempt: u32,
        /// Expected payload length.
        payload_len: u64,
        /// Expected payload checksum.
        payload_sum: u64,
    },
    /// The run terminally failed after `attempts` attempts.
    GaveUp {
        /// Total attempts made.
        attempts: u32,
        /// Failure class of the final attempt.
        kind: String,
        /// Failure detail of the final attempt.
        detail: String,
    },
    /// The run was started (possibly several times) but has no terminal
    /// record: it was in flight when the campaign died and must re-run.
    InFlight {
        /// Number of `attempt-failed` records seen (the next attempt number
        /// is `failed_attempts + 1`).
        failed_attempts: u32,
    },
}

impl Journal {
    /// Fold the replayed records into per-run states. Runs never mentioned
    /// in the journal are absent from the result (they never started). A
    /// `BTreeMap`, so a caller that walks it sees the runs in name order.
    pub fn resume_states(&self) -> std::collections::BTreeMap<String, RunState> {
        let mut m = std::collections::BTreeMap::new();
        for rec in &self.records {
            match rec {
                Record::Started { run, .. } => {
                    m.entry(run.clone()).or_insert(RunState::InFlight { failed_attempts: 0 });
                }
                Record::Completed { run, attempt, payload_len, payload_sum } => {
                    m.insert(
                        run.clone(),
                        RunState::Completed {
                            attempt: *attempt,
                            payload_len: *payload_len,
                            payload_sum: *payload_sum,
                        },
                    );
                }
                Record::AttemptFailed { run, attempt, .. } => {
                    m.insert(run.clone(), RunState::InFlight { failed_attempts: *attempt });
                }
                Record::GaveUp { run, attempts, kind, detail } => {
                    m.insert(
                        run.clone(),
                        RunState::GaveUp {
                            attempts: *attempts,
                            kind: kind.clone(),
                            detail: detail.clone(),
                        },
                    );
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("campaign-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Started { run: "fig8/a".into(), attempt: 1 },
            Record::AttemptFailed {
                run: "fig8/a".into(),
                attempt: 1,
                kind: "panic".into(),
                detail: "rank 2 panicked: injected fault".into(),
            },
            Record::Started { run: "fig8/a".into(), attempt: 2 },
            Record::Completed {
                run: "fig8/a".into(),
                attempt: 2,
                payload_len: 123,
                payload_sum: 7,
            },
            Record::Started { run: "with space".into(), attempt: 1 },
            Record::GaveUp {
                run: "with space".into(),
                attempts: 3,
                kind: "deadline".into(),
                detail: "wall-clock deadline of 2 s exceeded".into(),
            },
            Record::Started { run: "torn".into(), attempt: 1 },
        ]
    }

    #[test]
    fn roundtrip_append_reopen() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("journal.log");
        let fp = spec_fingerprint(&["fig8/a", "with space", "torn"]);
        let recs = sample_records();
        {
            let mut j = Journal::create(&path, fp).unwrap();
            for r in &recs {
                j.append(r).unwrap();
            }
        }
        let j = Journal::open(&path, fp).unwrap();
        assert_eq!(j.records(), &recs[..]);
        assert!(j.torn().is_none());
        let states = j.resume_states();
        assert_eq!(
            states["fig8/a"],
            RunState::Completed { attempt: 2, payload_len: 123, payload_sum: 7 }
        );
        assert!(matches!(states["with space"], RunState::GaveUp { attempts: 3, .. }));
        assert_eq!(states["torn"], RunState::InFlight { failed_attempts: 0 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_wrong_spec_fingerprint() {
        let dir = tmpdir("spec");
        let path = dir.join("journal.log");
        let fp = spec_fingerprint(&["a", "b"]);
        Journal::create(&path, fp).unwrap();
        let other = spec_fingerprint(&["a", "b", "c"]);
        match Journal::open(&path, other) {
            Err(JournalError::SpecMismatch { found, expected }) => {
                assert_eq!(found, fp);
                assert_eq!(expected, other);
            }
            other => panic!("expected SpecMismatch, got {other:?}", other = other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn awkward_names_and_details_round_trip() {
        let dir = tmpdir("awkward");
        let path = dir.join("journal.log");
        let awkward = [
            "",
            " ",
            "a b",
            "line\nbreak",
            "back\\slash",
            "\r\n",
            "\"quoted\"",
            "tr ail ",
            "x % 0123456789abcdef",
            "tab\tand\u{1}control",
            "ünïcødé",
        ];
        let fp = spec_fingerprint(&awkward);
        let recs: Vec<Record> = awkward
            .iter()
            .flat_map(|&s| {
                [
                    Record::Started { run: s.into(), attempt: 1 },
                    Record::AttemptFailed {
                        run: s.into(),
                        attempt: 1,
                        kind: s.into(),
                        detail: s.into(),
                    },
                    Record::GaveUp { run: s.into(), attempts: 2, kind: s.into(), detail: s.into() },
                ]
            })
            .collect();
        {
            let mut j = Journal::create(&path, fp).unwrap();
            for r in &recs {
                j.append(r).unwrap();
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), recs.len() + 1, "one line per record");
        let j = Journal::open(&path, fp).unwrap();
        assert_eq!(j.records(), &recs[..]);
        assert!(j.torn().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lines_are_sealed_json_objects() {
        let dir = tmpdir("format");
        let path = dir.join("journal.log");
        let fp = spec_fingerprint(&["a"]);
        {
            let mut j = Journal::create(&path, fp).unwrap();
            j.append(&Record::Started { run: "a".into(), attempt: 1 }).unwrap();
            j.append(&Record::Completed {
                run: "a".into(),
                attempt: 1,
                payload_len: 5,
                payload_sum: u64::MAX,
            })
            .unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let bodies: Vec<&str> = text.lines().map(|l| l.rsplit_once(" % ").unwrap().0).collect();
        assert_eq!(
            bodies,
            [
                format!(r#"{{"campaign":2,"spec":"{fp:016x}"}}"#).as_str(),
                r#"{"seq":0,"event":"started","run":"a","attempt":1}"#,
                r#"{"seq":1,"event":"completed","run":"a","attempt":1,"payload_len":5,"payload_sum":"ffffffffffffffff"}"#,
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_journal_is_a_bad_header() {
        let dir = tmpdir("v1");
        let path = dir.join("journal.log");
        let fp = spec_fingerprint(&["a"]);
        // A whole, correctly chained version-1 journal: header and a record.
        let (header, chain) = record::seal(CHAIN_SEED, &format!("campaign 1 {fp:016x}"));
        let (started, _) = record::seal(chain, "0 started a 1");
        std::fs::write(&path, header + &started).unwrap();
        assert!(matches!(Journal::open(&path, fp), Err(JournalError::BadHeader)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Property test: any truncation of the journal, and any single bit flip
    /// anywhere in it, is detected on open — the journal recovers to a valid
    /// record prefix and never replays a corrupted record. Mirrors the
    /// `Snapshot` footer corruption test in `mdsim::io`.
    #[test]
    fn truncated_and_bit_flipped_tails_recover_to_valid_prefix() {
        let dir = tmpdir("corrupt");
        let path = dir.join("journal.log");
        let fp = spec_fingerprint(&["fig8/a", "with space", "torn"]);
        let recs = sample_records();
        {
            let mut j = Journal::create(&path, fp).unwrap();
            for r in &recs {
                j.append(r).unwrap();
            }
        }
        let pristine = std::fs::read(&path).unwrap();
        // Line start offsets tell us how many full records precede a byte.
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(pristine.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1))
            .collect();
        let complete_records_before = |byte: usize| -> usize {
            // Lines fully contained in [0, byte): count, minus 1 for the header.
            line_starts.iter().filter(|&&s| s > 0 && s <= byte).count().saturating_sub(1)
        };

        // Truncation at every byte boundary (step 7 keeps the test fast but
        // still hits every line at several interior offsets).
        for cut in (0..pristine.len()).step_by(7).chain([pristine.len() - 1]) {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            match Journal::open(&path, fp) {
                Ok(j) => {
                    let expect = complete_records_before(cut);
                    assert_eq!(j.records().len(), expect, "cut at {cut}");
                    assert_eq!(j.records(), &recs[..expect], "cut at {cut}");
                    if cut < pristine.len() && !line_starts.contains(&cut) {
                        assert!(j.torn().is_some(), "partial line at {cut} must report torn");
                    }
                }
                Err(JournalError::BadHeader) => {
                    // Only legal while the header line itself is incomplete.
                    assert!(cut < line_starts[1], "cut at {cut} unexpectedly lost the header");
                }
                Err(e) => panic!("cut at {cut}: unexpected error {e}"),
            }
        }

        // Single bit flips: every 11th byte, middle bit positions.
        for byte in (0..pristine.len()).step_by(11) {
            for bit in [0, 3, 7] {
                let mut bad = pristine.clone();
                bad[byte] ^= 1 << bit;
                std::fs::write(&path, &bad).unwrap();
                match Journal::open(&path, fp) {
                    Ok(j) => {
                        // The flipped line (and everything after) must be gone.
                        let limit = complete_records_before(byte + 1);
                        assert!(
                            j.records().len() <= limit,
                            "flip at {byte}.{bit}: replayed {} records past the flip",
                            j.records().len()
                        );
                        assert_eq!(j.records(), &recs[..j.records().len()]);
                        assert!(j.torn().is_some(), "flip at {byte}.{bit} must report torn");
                    }
                    Err(JournalError::BadHeader) => {
                        assert!(byte < line_starts[1], "flip at {byte}.{bit} outside header");
                    }
                    Err(e) => panic!("flip at {byte}.{bit}: unexpected error {e}"),
                }
            }
        }

        // After recovery, the journal must accept new appends and reopen clean.
        std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        {
            let mut j = Journal::open(&path, fp).unwrap();
            assert!(j.torn().is_some());
            j.append(&Record::Started { run: "torn".into(), attempt: 1 }).unwrap();
        }
        let j = Journal::open(&path, fp).unwrap();
        assert!(j.torn().is_none());
        assert_eq!(j.records().last(), Some(&Record::Started { run: "torn".into(), attempt: 1 }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chained_checksums_reject_record_reordering() {
        let dir = tmpdir("reorder");
        let path = dir.join("journal.log");
        let fp = spec_fingerprint(&["a"]);
        {
            let mut j = Journal::create(&path, fp).unwrap();
            j.append(&Record::Started { run: "a".into(), attempt: 1 }).unwrap();
            j.append(&Record::Completed {
                run: "a".into(),
                attempt: 1,
                payload_len: 1,
                payload_sum: 2,
            })
            .unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(1, 2);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let j = Journal::open(&path, fp).unwrap();
        // Both swapped lines are invalid in their new positions.
        assert_eq!(j.records().len(), 0);
        assert!(j.torn().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
