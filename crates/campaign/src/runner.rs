//! The supervised campaign runner: retry state machine + resume logic.
//!
//! Each run walks a small state machine, every transition journaled before
//! the runner acts on it:
//!
//! ```text
//!             ┌────────────────────── backoff · attempt+1 ──────────────┐
//!             ▼                                                         │
//! (pending) ── started ──▶ executing ──▶ ok ──▶ payload fsync ──▶ completed
//!                              │
//!                              └─ err/panic ─▶ attempt < max ? attempt-failed ─┘
//!                                             attempt = max ? gave-up (terminal)
//! ```
//!
//! Retries re-execute the *same* closure with the same config and a bumped
//! attempt counter; because runs are deterministic (seeded virtual-time
//! simulations), a retry that succeeds produces a payload bitwise identical
//! to an unfaulted first attempt — which is what makes kill-and-resume
//! reproducible end to end.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use simcomm::WorldError;

use particles::record;

use crate::journal::{spec_fingerprint, Journal, JournalError, Record, RunState, CHAIN_SEED};
use crate::pool::run_stealing;

/// One run in a campaign: a unique name (the journal/resume key) plus the
/// caller's configuration value.
pub struct RunDef<C> {
    /// Unique, stable run name. Resume matches journal records by this name,
    /// so it must not change between invocations of the same campaign.
    pub name: String,
    /// Caller-defined configuration handed to the exec closure.
    pub config: C,
}

/// Campaign-wide supervision policy.
#[derive(Clone, Debug)]
pub struct Policy {
    /// Worker threads executing runs concurrently.
    pub workers: usize,
    /// Maximum attempts per run (>= 1); the final failure becomes a
    /// `gave-up` record instead of another retry.
    pub max_attempts: u32,
    /// Base backoff slept after attempt `k` fails: `backoff * 2^(k-1)`.
    pub backoff: Duration,
    /// Per-run wall-clock deadline, passed through to the exec closure via
    /// [`RunCtx::deadline`] (typically wired to `simcomm::Runner::deadline`).
    pub deadline: Option<Duration>,
    /// Crash-injection hook for tests and CI: stop claiming new runs after
    /// this many runs reached a terminal state *in this invocation*. The
    /// campaign returns with [`CampaignOutcome::halted`] set; a subsequent
    /// invocation resumes from the journal exactly as after a `kill -9`.
    pub halt_after: Option<usize>,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            workers: 4,
            max_attempts: 3,
            backoff: Duration::from_millis(50),
            deadline: None,
            halt_after: None,
        }
    }
}

/// Per-attempt context handed to the exec closure.
pub struct RunCtx {
    /// The run's name.
    pub name: String,
    /// 1-based attempt number. Deterministically flaky test configs key on
    /// this; real runs ignore it (that is what makes retries seed-stable).
    pub attempt: u32,
    /// The policy deadline, for wiring into `simcomm::Runner::deadline`.
    pub deadline: Option<Duration>,
    /// Per-run scratch directory, stable across attempts *and* resumes —
    /// the place for mid-run checkpoints (`mdsim::io::Snapshot`) so a retry
    /// or resumed campaign can pick up a partially completed run.
    pub dir: PathBuf,
}

/// Terminal result of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The run succeeded and produced a payload (typically a serialized
    /// per-run report).
    Completed {
        /// The payload as returned by the exec closure (re-read from disk
        /// when reused by a resume — verified against the journal).
        payload: String,
        /// Attempts consumed (1 = clean first attempt).
        attempts: u32,
        /// True when this outcome was reused from a previous invocation's
        /// journal instead of executed now.
        resumed: bool,
    },
    /// The run exhausted its retry budget; the campaign continued without it.
    Failed {
        /// Failure class of the final attempt (a `WorldError::kind()` string,
        /// or `"harness-panic"` for a panic outside the world).
        kind: String,
        /// Failure detail of the final attempt.
        detail: String,
        /// Attempts consumed.
        attempts: u32,
        /// True when reused from a previous invocation's journal.
        resumed: bool,
    },
}

/// One row of the campaign result, in input (not completion) order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunRow {
    /// The run's name.
    pub name: String,
    /// Terminal outcome, or `None` if the campaign halted before this run
    /// was claimed (it remains pending in the journal and will run on the
    /// next invocation).
    pub outcome: Option<RunOutcome>,
}

/// Aggregated result of one campaign invocation.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Per-run rows in input order.
    pub runs: Vec<RunRow>,
    /// Runs whose terminal outcome was reused from the journal.
    pub reused: usize,
    /// Runs executed (at least one attempt) in this invocation.
    pub executed: usize,
    /// True when [`Policy::halt_after`] stopped the invocation early.
    pub halted: bool,
}

impl CampaignOutcome {
    /// Rows that reached [`RunOutcome::Completed`].
    pub fn completed(&self) -> impl Iterator<Item = &RunRow> {
        self.runs.iter().filter(|r| matches!(r.outcome, Some(RunOutcome::Completed { .. })))
    }

    /// Rows that reached [`RunOutcome::Failed`].
    pub fn failed(&self) -> impl Iterator<Item = &RunRow> {
        self.runs.iter().filter(|r| matches!(r.outcome, Some(RunOutcome::Failed { .. })))
    }
}

/// Why a campaign invocation failed as a whole (individual run failures do
/// *not* fail the campaign — they become [`RunOutcome::Failed`] rows).
#[derive(Debug)]
pub enum CampaignError {
    /// The journal could not be created, opened, or belongs to another spec.
    Journal(JournalError),
    /// A durable write (journal append, payload file) failed mid-campaign.
    Io(std::io::Error),
    /// Two runs share a name; resume state would be ambiguous.
    DuplicateRun(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Journal(e) => write!(f, "campaign journal: {e}"),
            CampaignError::Io(e) => write!(f, "campaign io: {e}"),
            CampaignError::DuplicateRun(name) => {
                write!(f, "duplicate run name {name:?} in campaign spec")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// Filesystem-safe, collision-free file stem for a run name: alphanumerics,
/// `-`, `_` and `.` pass through, everything else becomes `_`, and an 8-hex
/// hash of the original name is appended so distinct names never collide.
pub fn mangle(name: &str) -> String {
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || "-_.".contains(c) { c } else { '_' })
        .collect();
    format!("{safe}-{:08x}", record::fold(0, name.as_bytes()) as u32)
}

/// Checksum of a run payload, as its `completed` record carries it.
fn payload_sum(payload: &[u8]) -> u64 {
    record::fold(CHAIN_SEED, payload)
}

/// Extract a panic payload as text.
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shared mutable campaign state, one lock each so workers serialize only on
/// the journal (the hot path) and the first-error slot (cold).
struct Shared<'a> {
    journal: Mutex<&'a mut Journal>,
    first_io_error: Mutex<Option<std::io::Error>>,
    terminal_this_invocation: AtomicUsize,
    stop: &'a AtomicBool,
    halt_after: Option<usize>,
}

impl Shared<'_> {
    /// Journal a record; on io failure, latch the error and stop the pool.
    fn journal(&self, rec: &Record) -> bool {
        let res = self.journal.lock().expect("journal lock poisoned").append(rec);
        match res {
            Ok(()) => true,
            Err(e) => {
                self.fail_io(e);
                false
            }
        }
    }

    fn fail_io(&self, e: std::io::Error) {
        let mut slot = self.first_io_error.lock().expect("error lock poisoned");
        if slot.is_none() {
            *slot = Some(e);
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Count one run reaching a terminal state; trip the halt if configured.
    fn terminal(&self) {
        let n = self.terminal_this_invocation.fetch_add(1, Ordering::SeqCst) + 1;
        if self.halt_after.is_some_and(|h| n >= h) {
            self.stop.store(true, Ordering::SeqCst);
        }
    }
}

/// Execute a campaign of `runs` under `policy`, journaling into `dir`.
///
/// `exec` is called once per attempt with the run's config and a [`RunCtx`];
/// it returns the run's payload (serialized per-run report) on success or a
/// [`WorldError`] on simulation failure. Panics escaping `exec` are caught
/// (`catch_unwind`) and classified as `"harness-panic"` — a distinct kind
/// from `"panic"` (a rank panic the world itself reported) so harness bugs
/// do not masquerade as simulation faults.
///
/// If `dir` already holds a journal for the *same* spec, completed runs are
/// reused (their payloads verified against the journaled length/checksum),
/// terminally failed runs stay failed, and in-flight runs re-execute with
/// their attempt counter restored. A journal for a different spec is an
/// error ([`JournalError::SpecMismatch`]).
pub fn run_campaign<C, F>(
    dir: &Path,
    policy: &Policy,
    runs: &[RunDef<C>],
    exec: F,
) -> Result<CampaignOutcome, CampaignError>
where
    C: Sync,
    F: Fn(&C, &RunCtx) -> Result<String, WorldError> + Sync,
{
    let names: Vec<&str> = runs.iter().map(|r| r.name.as_str()).collect();
    {
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            if !seen.insert(*n) {
                return Err(CampaignError::DuplicateRun((*n).to_string()));
            }
        }
    }
    std::fs::create_dir_all(dir.join("payloads"))?;
    std::fs::create_dir_all(dir.join("scratch"))?;

    let fp = spec_fingerprint(&names);
    let journal_path = dir.join("journal.log");
    let mut journal = if journal_path.exists() {
        Journal::open(&journal_path, fp)?
    } else {
        Journal::create(&journal_path, fp)?
    };
    let states = journal.resume_states();

    // Pre-fill rows from resume state; collect the indices still needing work.
    let rows: Vec<Mutex<Option<RunOutcome>>> = runs.iter().map(|_| Mutex::new(None)).collect();
    let mut pending: Vec<(usize, u32)> = Vec::new(); // (run index, starting attempt)
    let mut reused = 0usize;
    for (i, def) in runs.iter().enumerate() {
        match states.get(&def.name) {
            Some(RunState::Completed { attempt, payload_len, payload_sum: expected_sum }) => {
                let path = dir.join("payloads").join(format!("{}.json", mangle(&def.name)));
                match std::fs::read(&path) {
                    Ok(bytes)
                        if bytes.len() as u64 == *payload_len
                            && payload_sum(&bytes) == *expected_sum =>
                    {
                        let payload = String::from_utf8(bytes)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                        *rows[i].lock().expect("row lock") = Some(RunOutcome::Completed {
                            payload,
                            attempts: *attempt,
                            resumed: true,
                        });
                        reused += 1;
                    }
                    // Missing or corrupt payload: the journal said completed
                    // but the evidence is gone — re-run from scratch.
                    _ => pending.push((i, 1)),
                }
            }
            Some(RunState::GaveUp { attempts, kind, detail }) => {
                *rows[i].lock().expect("row lock") = Some(RunOutcome::Failed {
                    kind: kind.clone(),
                    detail: detail.clone(),
                    attempts: *attempts,
                    resumed: true,
                });
                reused += 1;
            }
            Some(RunState::InFlight { failed_attempts }) => pending.push((i, failed_attempts + 1)),
            None => pending.push((i, 1)),
        }
    }

    let stop = AtomicBool::new(false);
    let shared = Shared {
        journal: Mutex::new(&mut journal),
        first_io_error: Mutex::new(None),
        terminal_this_invocation: AtomicUsize::new(0),
        stop: &stop,
        halt_after: policy.halt_after,
    };
    let executed = AtomicUsize::new(0);

    run_stealing(pending.len(), policy.workers, &stop, |p| {
        let (i, start_attempt) = pending[p];
        let def = &runs[i];
        executed.fetch_add(1, Ordering::SeqCst);
        let outcome = supervise_one(dir, policy, def, start_attempt, &shared, &exec);
        if let Some(out) = outcome {
            *rows[i].lock().expect("row lock") = Some(out);
            shared.terminal();
        }
    });

    if let Some(e) = shared.first_io_error.lock().expect("error lock").take() {
        return Err(CampaignError::Io(e));
    }

    let halted = stop.load(Ordering::SeqCst);
    let runs_out: Vec<RunRow> = runs
        .iter()
        .zip(&rows)
        .map(|(def, row)| RunRow {
            name: def.name.clone(),
            outcome: row.lock().expect("row lock").take(),
        })
        .collect();
    Ok(CampaignOutcome {
        runs: runs_out,
        reused,
        executed: executed.load(Ordering::SeqCst),
        halted,
    })
}

/// Drive one run through the retry state machine. Returns `None` only when
/// a journal/payload write failed (the campaign is already stopping).
fn supervise_one<C, F>(
    dir: &Path,
    policy: &Policy,
    def: &RunDef<C>,
    start_attempt: u32,
    shared: &Shared<'_>,
    exec: &F,
) -> Option<RunOutcome>
where
    C: Sync,
    F: Fn(&C, &RunCtx) -> Result<String, WorldError> + Sync,
{
    let stem = mangle(&def.name);
    let scratch = dir.join("scratch").join(&stem);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        shared.fail_io(e);
        return None;
    }
    let mut attempt = start_attempt.max(1);
    loop {
        if !shared.journal(&Record::Started { run: def.name.clone(), attempt }) {
            return None;
        }
        let ctx = RunCtx {
            name: def.name.clone(),
            attempt,
            deadline: policy.deadline,
            dir: scratch.clone(),
        };
        let result = catch_unwind(AssertUnwindSafe(|| exec(&def.config, &ctx)));
        let (kind, detail) = match result {
            Ok(Ok(payload)) => {
                // Durable payload *before* the completed record: the record
                // asserts the payload exists with this length and checksum.
                let path = dir.join("payloads").join(format!("{stem}.json"));
                let written = std::fs::File::create(&path)
                    .and_then(|mut file| record::write_durable(&mut file, payload.as_bytes()));
                if let Err(e) = written {
                    shared.fail_io(e);
                    return None;
                }
                if !shared.journal(&Record::Completed {
                    run: def.name.clone(),
                    attempt,
                    payload_len: payload.len() as u64,
                    payload_sum: payload_sum(payload.as_bytes()),
                }) {
                    return None;
                }
                return Some(RunOutcome::Completed { payload, attempts: attempt, resumed: false });
            }
            Ok(Err(world_err)) => (world_err.kind().to_string(), world_err.to_string()),
            Err(panic) => ("harness-panic".to_string(), panic_message(panic)),
        };
        if attempt >= policy.max_attempts {
            if !shared.journal(&Record::GaveUp {
                run: def.name.clone(),
                attempts: attempt,
                kind: kind.clone(),
                detail: detail.clone(),
            }) {
                return None;
            }
            return Some(RunOutcome::Failed { kind, detail, attempts: attempt, resumed: false });
        }
        if !shared.journal(&Record::AttemptFailed { run: def.name.clone(), attempt, kind, detail })
        {
            return None;
        }
        // Exponential backoff: base * 2^(attempt-1), saturating.
        let factor = 1u32 << (attempt - 1).min(16);
        std::thread::sleep(policy.backoff.saturating_mul(factor));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("campaign-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn defs(n: usize) -> Vec<RunDef<usize>> {
        (0..n).map(|i| RunDef { name: format!("run/{i}"), config: i }).collect()
    }

    fn quick_policy() -> Policy {
        Policy {
            workers: 4,
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            ..Policy::default()
        }
    }

    #[test]
    fn all_clean_runs_complete_in_input_order() {
        let dir = tmpdir("clean");
        let out = run_campaign(&dir, &quick_policy(), &defs(9), |cfg, ctx| {
            assert_eq!(ctx.attempt, 1);
            Ok(format!("payload-{cfg}"))
        })
        .unwrap();
        assert!(!out.halted);
        assert_eq!(out.executed, 9);
        assert_eq!(out.reused, 0);
        for (i, row) in out.runs.iter().enumerate() {
            assert_eq!(row.name, format!("run/{i}"));
            assert_eq!(
                row.outcome,
                Some(RunOutcome::Completed {
                    payload: format!("payload-{i}"),
                    attempts: 1,
                    resumed: false
                })
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failures_become_rows_not_aborts() {
        let dir = tmpdir("isolate");
        let out = run_campaign(&dir, &quick_policy(), &defs(6), |cfg, _ctx| match cfg {
            2 => panic!("harness bug in config 2"),
            4 => Err(WorldError::RankPanic { rank: 1, message: "injected".into() }),
            _ => Ok(format!("ok-{cfg}")),
        })
        .unwrap();
        assert_eq!(out.completed().count(), 4);
        assert_eq!(out.failed().count(), 2);
        match out.runs[2].outcome.as_ref().unwrap() {
            RunOutcome::Failed { kind, detail, attempts, .. } => {
                assert_eq!(kind, "harness-panic");
                assert!(detail.contains("harness bug"));
                assert_eq!(*attempts, 3);
            }
            o => panic!("{o:?}"),
        }
        match out.runs[4].outcome.as_ref().unwrap() {
            RunOutcome::Failed { kind, .. } => assert_eq!(kind, "panic"),
            o => panic!("{o:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flaky_run_retries_to_success() {
        let dir = tmpdir("flaky");
        let out = run_campaign(&dir, &quick_policy(), &defs(1), |_cfg, ctx| {
            if ctx.attempt < 3 {
                Err(WorldError::DeadlineExceeded { seconds: 1.0 })
            } else {
                Ok("third time lucky".into())
            }
        })
        .unwrap();
        assert_eq!(
            out.runs[0].outcome,
            Some(RunOutcome::Completed {
                payload: "third time lucky".into(),
                attempts: 3,
                resumed: false
            })
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_reuses_completed_and_failed_and_reruns_in_flight() {
        let dir = tmpdir("resume");
        let policy = Policy { halt_after: Some(2), workers: 1, ..quick_policy() };
        // First invocation: worker 0 processes runs serially and halts after
        // two terminal records — the rest stay pending.
        let first = run_campaign(&dir, &policy, &defs(5), |cfg, _ctx| {
            if *cfg == 1 {
                Err(WorldError::DeadlineExceeded { seconds: 9.0 })
            } else {
                Ok(format!("p{cfg}"))
            }
        })
        .unwrap();
        assert!(first.halted);
        let done_first: Vec<usize> = first
            .runs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.outcome.is_some())
            .map(|(i, _)| i)
            .collect();
        assert!(done_first.len() >= 2, "{done_first:?}");

        // Second invocation, same spec: terminal rows reused, rest executed.
        let policy2 = Policy { halt_after: None, ..policy };
        let second = run_campaign(&dir, &policy2, &defs(5), |cfg, _ctx| {
            if *cfg == 1 {
                Err(WorldError::DeadlineExceeded { seconds: 9.0 })
            } else {
                Ok(format!("p{cfg}"))
            }
        })
        .unwrap();
        assert!(!second.halted);
        assert_eq!(second.reused, done_first.len());
        assert_eq!(second.executed, 5 - done_first.len());
        for (i, row) in second.runs.iter().enumerate() {
            match row.outcome.as_ref().unwrap() {
                RunOutcome::Completed { payload, resumed, .. } => {
                    assert_eq!(payload, &format!("p{i}"));
                    assert_eq!(*resumed, done_first.contains(&i));
                }
                RunOutcome::Failed { kind, attempts, resumed, .. } => {
                    assert_eq!(i, 1);
                    assert_eq!(kind, "deadline");
                    assert_eq!(*attempts, 3);
                    // Either terminally failed in the first invocation or now.
                    assert_eq!(*resumed, done_first.contains(&i));
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_restores_attempt_counter_for_in_flight_runs() {
        let dir = tmpdir("attempts");
        // Simulate a crash after one failed attempt: journal it by hand.
        let names = vec!["run/0".to_string()];
        let fp = spec_fingerprint(&names);
        {
            let mut j = Journal::create(&dir.join("journal.log"), fp).unwrap();
            j.append(&Record::Started { run: "run/0".into(), attempt: 1 }).unwrap();
            j.append(&Record::AttemptFailed {
                run: "run/0".into(),
                attempt: 1,
                kind: "panic".into(),
                detail: "x".into(),
            })
            .unwrap();
            j.append(&Record::Started { run: "run/0".into(), attempt: 2 }).unwrap();
            // ...crash here: attempt 2 in flight.
        }
        let out = run_campaign(&dir, &quick_policy(), &defs(1), |_cfg, ctx| {
            // The resumed attempt must be 2, not 1 — flaky configs keyed on
            // the attempt number stay deterministic across resume.
            Ok(format!("attempt-{}", ctx.attempt))
        })
        .unwrap();
        assert_eq!(
            out.runs[0].outcome,
            Some(RunOutcome::Completed {
                payload: "attempt-2".into(),
                attempts: 2,
                resumed: false
            })
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_payload_forces_rerun_despite_completed_record() {
        let dir = tmpdir("payload");
        let run_it = |marker: &'static str| {
            run_campaign(&dir, &quick_policy(), &defs(1), move |_cfg, _ctx| Ok(marker.to_string()))
                .unwrap()
        };
        let first = run_it("original");
        assert_eq!(first.executed, 1);
        // Flip a byte in the payload file; the journal still says completed.
        let p = dir.join("payloads").join(format!("{}.json", mangle("run/0")));
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[0] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let second = run_it("rerun");
        assert_eq!(second.reused, 0, "corrupt payload must not be reused");
        assert_eq!(second.executed, 1);
        assert_eq!(
            second.runs[0].outcome,
            Some(RunOutcome::Completed { payload: "rerun".into(), attempts: 1, resumed: false })
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_run_names_rejected() {
        let dir = tmpdir("dup");
        let runs = vec![
            RunDef { name: "same".into(), config: 0 },
            RunDef { name: "same".into(), config: 1 },
        ];
        match run_campaign(&dir, &quick_policy(), &runs, |_c, _x| Ok(String::new())) {
            Err(CampaignError::DuplicateRun(n)) => assert_eq!(n, "same"),
            other => panic!("{other:?}", other = other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fold_bits_are_pinned() {
        // Values of the version-1 code's own fold: stems and payload sums
        // written before the record codec existed still match.
        assert_eq!(mangle("flaky/checkpoint"), "flaky_checkpoint-0686a82a");
        assert_eq!(payload_sum(b"hello, campaign"), 0x338c_0bd1_b89b_7960);
        assert_eq!(payload_sum(b""), CHAIN_SEED);
    }

    #[test]
    fn mangle_is_safe_and_collision_free() {
        let a = mangle("fig8/fmm a=1");
        assert!(a.chars().all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)), "{a}");
        assert_ne!(mangle("a/b"), mangle("a b"), "distinct names must mangle apart");
    }
}
