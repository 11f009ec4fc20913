//! # campaign — supervised sweeps of simulated-world runs
//!
//! A *campaign* executes many simulation configurations concurrently on a
//! work-stealing worker pool, supervising each run so a single bad
//! configuration never aborts the sweep:
//!
//! - **Panic isolation** — each run executes under `catch_unwind`; a rank
//!   panic surfaces as a typed [`simcomm::WorldError`] (via
//!   `Runner::try_run`), a panic outside the world as a `"harness-panic"`
//!   failure record.
//! - **Deadlines** — a per-run wall-clock limit ([`Policy::deadline`],
//!   wired through [`RunCtx::deadline`] to `simcomm::Runner::deadline`)
//!   retires hung runs instead of wedging a worker forever.
//! - **Bounded retry with backoff** — failed attempts retry up to
//!   [`Policy::max_attempts`] with exponential backoff; runs are
//!   deterministic, so a successful retry is bitwise identical to an
//!   unfaulted first attempt.
//! - **Crash-safe resume** — every state transition is journaled
//!   (append-only JSON lines sealed by `particles::record`: per-line chained
//!   checksums, fsync'd — see [`journal`]);
//!   after a `kill -9`, re-running the same campaign reuses completed and
//!   terminally-failed runs and re-executes in-flight ones, converging on a
//!   result bitwise identical to an uninterrupted campaign.
//!
//! ```
//! use campaign::{run_campaign, Policy, RunDef};
//!
//! let dir = std::env::temp_dir().join(format!("campaign-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! std::fs::create_dir_all(&dir).unwrap();
//! let runs: Vec<RunDef<u32>> =
//!     (0..4).map(|i| RunDef { name: format!("sweep/{i}"), config: i }).collect();
//! let out = run_campaign(&dir, &Policy::default(), &runs, |cfg, _ctx| {
//!     if *cfg == 2 {
//!         panic!("injected failure"); // isolated: becomes a failure row
//!     }
//!     Ok(format!("result of {cfg}"))
//! })
//! .unwrap();
//! assert_eq!(out.completed().count(), 3);
//! assert_eq!(out.failed().count(), 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
// No result of this crate may depend on `RandomState`: nothing outside tests
// iterates a hash container.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod journal;
mod pool;
mod runner;

pub use journal::{spec_fingerprint, Journal, JournalError, Record, RunState, TornTail};
pub use pool::run_stealing;
pub use runner::{
    mangle, run_campaign, CampaignError, CampaignOutcome, Policy, RunCtx, RunDef, RunOutcome,
    RunRow,
};
