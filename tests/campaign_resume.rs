//! Campaign crash-safety integration: an interrupted campaign — whether
//! halted cleanly, killed with a torn journal tail, or missing payload
//! files — must resume to an aggregated result **bitwise identical** to an
//! uninterrupted campaign over the same spec, at every host width of
//! `common::WIDTHS`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use campaign::{run_campaign, CampaignOutcome, Policy, RunCtx, RunDef, RunOutcome};
use simcomm::{MachineModel, Runner, WorldError};

#[path = "../crates/simcomm/tests/common/mod.rs"]
mod common;
use common::WIDTHS;

/// Per-run config: a seed, plus fault bits.
#[derive(Clone, Copy)]
struct Cfg {
    seed: u64,
    /// Fail attempt 1 with an injected rank panic, succeed from attempt 2.
    flaky: bool,
    /// Fail every attempt (terminal failure record).
    poisoned: bool,
}

/// The campaign spec: 10 runs, one deterministically flaky, one poisoned.
fn spec() -> Vec<RunDef<Cfg>> {
    (0..10u64)
        .map(|i| RunDef {
            name: format!("run/{i}"),
            config: Cfg { seed: 0x9e37_79b9 ^ (i * 0x85eb_ca6b), flaky: i == 3, poisoned: i == 7 },
        })
        .collect()
}

/// Deterministic world at host width `width`: 4 ranks fold the seed through
/// an allreduce; the payload is the reduced value plus every rank's final
/// clock bits, so any divergence between an original and a retried/resumed
/// execution, or between two widths, shows up as a byte difference.
fn exec(width: usize) -> impl Fn(&Cfg, &RunCtx) -> Result<String, WorldError> + Sync {
    move |cfg, ctx| {
        let inject = cfg.poisoned || (cfg.flaky && ctx.attempt == 1);
        let seed = cfg.seed;
        let runner = Runner::default().host_parallelism(width);
        let out = runner.try_run(4, MachineModel::juropa_like(), move |comm| {
            if inject && comm.rank() == 2 {
                panic!("injected fault");
            }
            let mine = seed.wrapping_mul(comm.rank() as u64 + 1);
            let data: Vec<(usize, Vec<u8>)> =
                (0..comm.size()).map(|q| (q, mine.to_le_bytes().to_vec())).collect();
            let got = comm.alltoallv(data);
            got.iter()
                .map(|(_, v)| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
                .fold(0u64, u64::wrapping_add)
        })?;
        let clocks: Vec<String> =
            out.clocks.iter().map(|c| format!("{:016x}", c.to_bits())).collect();
        Ok(format!("{:016x} {}", out.results[0], clocks.join(" ")))
    }
}

/// Canonical aggregation of a finished campaign — the analogue of the bench
/// bin's report: input order, payloads and attempt counts for completions,
/// kind/detail for failures. Excludes the `resumed` bookkeeping flag, which
/// legitimately differs between a fresh and a resumed invocation.
fn aggregate(outcome: &CampaignOutcome) -> String {
    let mut doc = String::new();
    for row in &outcome.runs {
        let line = match row.outcome.as_ref().expect("campaign finished") {
            RunOutcome::Completed { payload, attempts, .. } => {
                format!("{} ok attempts={attempts} {payload}\n", row.name)
            }
            RunOutcome::Failed { kind, detail, attempts, .. } => {
                format!("{} failed attempts={attempts} {kind}: {detail}\n", row.name)
            }
        };
        doc.push_str(&line);
    }
    doc
}

fn policy(halt_after: Option<usize>) -> Policy {
    Policy {
        workers: 3,
        max_attempts: 2,
        backoff: Duration::from_millis(1),
        deadline: None,
        halt_after,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign_resume_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The uninterrupted reference aggregation, at width 1.
fn reference(dir: &Path) -> String {
    let outcome =
        run_campaign(dir, &policy(None), &spec(), exec(WIDTHS[0])).expect("reference campaign");
    assert!(!outcome.halted);
    assert_eq!(outcome.failed().count(), 1, "exactly the poisoned run fails");
    assert_eq!(outcome.completed().count(), 9);
    aggregate(&outcome)
}

#[test]
fn halted_campaign_resumes_bitwise_identical() {
    let ref_dir = tmp_dir("ref");
    let expected = reference(&ref_dir);

    for width in WIDTHS {
        // Interrupt after 4 terminal runs, then resume in the same dir.
        let dir = tmp_dir(&format!("halt{width}"));
        let halted =
            run_campaign(&dir, &policy(Some(4)), &spec(), exec(width)).expect("halted campaign");
        assert!(halted.halted);
        assert!(halted.runs.iter().any(|r| r.outcome.is_none()), "some runs still pending");
        let resumed =
            run_campaign(&dir, &policy(None), &spec(), exec(width)).expect("resumed campaign");
        assert!(!resumed.halted);
        assert!(resumed.reused >= 4, "terminal runs were reused, not re-executed");
        assert_eq!(aggregate(&resumed).as_bytes(), expected.as_bytes(), "width {width}");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn torn_journal_and_lost_payload_resume_bitwise_identical() {
    let ref_dir = tmp_dir("ref2");
    let expected = reference(&ref_dir);

    for width in WIDTHS {
        // Simulate a kill -9: run to completion, then tear the journal
        // mid-file (a partially flushed record) and delete one completed
        // payload.
        let dir = tmp_dir(&format!("torn{width}"));
        let full = run_campaign(&dir, &policy(None), &spec(), exec(width)).expect("first campaign");
        assert!(!full.halted);

        let journal = dir.join("journal.log");
        let bytes = std::fs::read(&journal).expect("read journal");
        // Cut at 60% of the file, landing mid-record with near certainty; the
        // torn tail must be detected and the affected runs re-executed.
        std::fs::write(&journal, &bytes[..bytes.len() * 6 / 10]).expect("tear journal");
        // Also lose a payload whose `completed` record may have survived the
        // tear: resume must notice the missing file and re-run that config.
        let lost = dir.join("payloads").join(format!("{}.json", campaign::mangle("run/1")));
        std::fs::remove_file(&lost).ok();

        let resumed =
            run_campaign(&dir, &policy(None), &spec(), exec(width)).expect("resumed campaign");
        assert!(!resumed.halted);
        assert!(resumed.executed > 0, "torn runs were re-executed");
        assert_eq!(aggregate(&resumed).as_bytes(), expected.as_bytes(), "width {width}");
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&ref_dir).ok();
}
