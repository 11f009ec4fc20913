//! Append-only, checksummed campaign journal.
//!
//! The journal is the campaign's source of durability: every run transition
//! (started, completed, failed attempt, gave up) is appended as one line and
//! fsynced before the runner proceeds, so a `kill -9` at any instant loses at
//! most the line being written — never a previously acknowledged record.
//!
//! ## Format
//!
//! The file is plain text, one record per line:
//!
//! ```text
//! campaign 1 <spec-fingerprint-hex> % <sum>
//! <seq> started <run> <attempt> % <sum>
//! <seq> completed <run> <attempt> <payload-len> <payload-sum-hex> % <sum>
//! <seq> attempt-failed <run> <attempt> <kind> <detail> % <sum>
//! <seq> gave-up <run> <attempts> <kind> <detail> % <sum>
//! ```
//!
//! Each line ends in a checksum over its body, *chained* from the previous
//! line's checksum (the header chains from a fixed seed). Chaining means a
//! line is only valid in its exact position: records cannot be reordered,
//! spliced from another journal, or survive a corrupted predecessor. This is
//! the same footer discipline as `mdsim::io::Snapshot` — a splitmix64 fold
//! over the bytes — extended from one footer per file to one per record so an
//! append-only log can be cut back to its longest valid prefix.
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
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Seed for the journal's chained checksum and payload checksums
/// ("CAMPAIGN" in ASCII).
pub const CHAIN_SEED: u64 = 0x4341_4d50_4149_474e;

/// Fixed-point hash step (same function as `particles::systems::splitmix64`,
/// re-derived locally so the campaign crate depends only on `simcomm`).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fold arbitrary bytes into a 64-bit checksum starting from `seed`
/// (8-byte little-endian chunks, zero-padded — the `Snapshot` discipline).
pub fn fold_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(word));
    }
    h
}

/// Fingerprint of a campaign specification: a fold over the ordered run
/// names. A journal opened against a *different* spec (renamed, reordered or
/// re-counted runs) is rejected with [`JournalError::SpecMismatch`] instead
/// of silently mixing two campaigns' states.
pub fn spec_fingerprint<S: AsRef<str>>(names: &[S]) -> u64 {
    let mut h = fold_bytes(CHAIN_SEED, &(names.len() as u64).to_le_bytes());
    for n in names {
        let b = n.as_ref().as_bytes();
        h = fold_bytes(h, &(b.len() as u64).to_le_bytes());
        h = fold_bytes(h, b);
    }
    h
}

/// Escape one record field for the space-separated line format.
/// `\` → `\\`, space → `\s`, newline → `\n`, CR → `\r`; the empty string
/// becomes `\e` so every field occupies exactly one token.
fn escape(s: &str) -> String {
    if s.is_empty() {
        return "\\e".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a dangling or unknown escape.
fn unescape(s: &str) -> Option<String> {
    if s == "\\e" {
        return Some(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next()? {
            '\\' => out.push('\\'),
            's' => out.push(' '),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            'e' => return None, // \e is only valid as the whole field
            _ => return None,
        }
    }
    Some(out)
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
        /// [`fold_bytes`] checksum of the payload (seed [`CHAIN_SEED`]).
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
    /// Serialize the record body (no sequence number, no checksum).
    fn body(&self) -> String {
        match self {
            Record::Started { run, attempt } => {
                format!("started {} {attempt}", escape(run))
            }
            Record::Completed { run, attempt, payload_len, payload_sum } => {
                format!("completed {} {attempt} {payload_len} {payload_sum:016x}", escape(run))
            }
            Record::AttemptFailed { run, attempt, kind, detail } => {
                format!(
                    "attempt-failed {} {attempt} {} {}",
                    escape(run),
                    escape(kind),
                    escape(detail)
                )
            }
            Record::GaveUp { run, attempts, kind, detail } => {
                format!("gave-up {} {attempts} {} {}", escape(run), escape(kind), escape(detail))
            }
        }
    }

    /// Parse a record body produced by [`Record::body`].
    fn parse(body: &str) -> Option<Record> {
        let mut t = body.split(' ');
        let rec = match t.next()? {
            "started" => {
                Record::Started { run: unescape(t.next()?)?, attempt: t.next()?.parse().ok()? }
            }
            "completed" => Record::Completed {
                run: unescape(t.next()?)?,
                attempt: t.next()?.parse().ok()?,
                payload_len: t.next()?.parse().ok()?,
                payload_sum: u64::from_str_radix(t.next()?, 16).ok()?,
            },
            "attempt-failed" => Record::AttemptFailed {
                run: unescape(t.next()?)?,
                attempt: t.next()?.parse().ok()?,
                kind: unescape(t.next()?)?,
                detail: unescape(t.next()?)?,
            },
            "gave-up" => Record::GaveUp {
                run: unescape(t.next()?)?,
                attempts: t.next()?.parse().ok()?,
                kind: unescape(t.next()?)?,
                detail: unescape(t.next()?)?,
            },
            _ => return None,
        };
        if t.next().is_some() {
            return None; // trailing garbage
        }
        Some(rec)
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
    path: PathBuf,
    /// Records replayed from the valid prefix, in append order.
    records: Vec<Record>,
    /// Chained checksum of the last valid line (the seed for the next).
    chain: u64,
    /// Next record's sequence number.
    seq: u64,
    /// Torn tail discarded on open, if any.
    torn: Option<TornTail>,
}

impl Journal {
    /// Create a fresh journal at `path` for the spec with the given
    /// fingerprint, truncating any existing file.
    pub fn create(path: &Path, fingerprint: u64) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
        let body = format!("campaign 1 {fingerprint:016x}");
        let chain = fold_bytes(CHAIN_SEED, body.as_bytes());
        writeln!(file, "{body} % {chain:016x}")?;
        file.sync_data()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            records: Vec::new(),
            chain,
            seq: 0,
            torn: None,
        })
    }

    /// Open an existing journal, replaying its records and truncating any
    /// torn tail. Fails if the header is unreadable or belongs to a
    /// different spec fingerprint.
    pub fn open(path: &Path, fingerprint: u64) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        // Raw bytes, not a String: a bit flip can produce invalid UTF-8, and
        // that must count as a torn line, not an unreadable file.
        let mut text = Vec::new();
        file.read_to_end(&mut text)?;
        let text = &text[..];

        // Header: first line, checksum chained from the fixed seed.
        let (header_body, header_chain, header_end) =
            next_valid_line(text, 0, CHAIN_SEED).ok_or(JournalError::BadHeader)?;
        let mut h = header_body.split(' ');
        match (h.next(), h.next(), h.next(), h.next()) {
            (Some("campaign"), Some("1"), Some(fp), None) => {
                let found = u64::from_str_radix(fp, 16).map_err(|_| JournalError::BadHeader)?;
                if found != fingerprint {
                    return Err(JournalError::SpecMismatch { found, expected: fingerprint });
                }
            }
            _ => return Err(JournalError::BadHeader),
        }

        // Records: replay until the first invalid line.
        let mut records = Vec::new();
        let mut chain = header_chain;
        let mut pos = header_end;
        let mut seq = 0u64;
        loop {
            if pos >= text.len() {
                break;
            }
            match next_valid_line(text, pos, chain) {
                Some((body, line_chain, end)) => {
                    // Body must be "<seq> <record-body>" with the expected seq.
                    let rec = body
                        .split_once(' ')
                        .filter(|(s, _)| s.parse::<u64>() == Ok(seq))
                        .and_then(|(_, rest)| Record::parse(rest));
                    match rec {
                        Some(r) => {
                            records.push(r);
                            chain = line_chain;
                            seq += 1;
                            pos = end;
                        }
                        None => break,
                    }
                }
                None => break,
            }
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

        Ok(Journal { file, path: path.to_path_buf(), records, chain, seq, torn })
    }

    /// Append one record durably: the line is written and fsynced before
    /// this returns, so an acknowledged record survives `kill -9`.
    pub fn append(&mut self, rec: &Record) -> std::io::Result<()> {
        let body = format!("{} {}", self.seq, rec.body());
        let chain = fold_bytes(self.chain, body.as_bytes());
        writeln!(self.file, "{body} % {chain:016x}")?;
        self.file.sync_data()?;
        self.chain = chain;
        self.seq += 1;
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

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Parse the line starting at byte `pos`: it must end in `\n`, be valid
/// UTF-8, split as `"{body} % {sum:016x}"`, and `sum` must equal
/// `fold_bytes(chain, body)`. Returns `(body, new_chain, next_pos)`.
/// Positions are raw byte offsets so a recovered prefix can be `set_len` to.
fn next_valid_line(text: &[u8], pos: usize, chain: u64) -> Option<(&str, u64, usize)> {
    let rest = &text[pos..];
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&rest[..nl]).ok()?;
    let (body, sum_hex) = line.rsplit_once(" % ")?;
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    let expect = fold_bytes(chain, body.as_bytes());
    if sum != expect {
        return None;
    }
    Some((body, sum, pos + nl + 1))
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
    fn escape_roundtrips_awkward_fields() {
        for s in ["", " ", "a b", "line\nbreak", "back\\slash", "\r\n", "\\e", "tr ail "] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s), "field {s:?}");
            assert!(!escape(s).contains(' '), "escaped form must be one token: {s:?}");
        }
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
                    Err(JournalError::SpecMismatch { .. }) => {
                        // A flip inside the header's fingerprint hex digits.
                        assert!(byte < line_starts[1]);
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
