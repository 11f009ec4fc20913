//! # bench — harnesses reproducing the paper's evaluation
//!
//! One binary per figure of the paper's Sect. IV (`fig6`, `fig7`, `fig8`,
//! `fig9`), an `ablation` binary for the design-choice comparisons, and
//! Criterion micro-benchmarks for the computational kernels.
//!
//! The figure binaries print the same rows/series the paper plots and write
//! CSV files. Runtimes are **virtual seconds** of the simulated machine
//! models (`juropa_like`, `juqueen_like`); see `DESIGN.md` for the
//! substitution rationale. Default workload sizes are scaled down from the
//! paper's 829 440-particle system so every figure regenerates on a laptop in
//! minutes; `--cells`/`--steps`/`--procs` restore paper scale.

#![warn(missing_docs)]
// No result of this crate may depend on `RandomState`: nothing outside tests
// iterates a hash container.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

/// Stdout, the one way this crate's programs print ([`outln!`] or
/// `write!(Out, ..)`). A closed stdout (`fig7 | head -1`) ends the
/// printing, not the program: every write to it is dropped, so a harness
/// still writes its CSV and report.
pub struct Out;

impl Out {
    /// Print `args` (what `write!` and `writeln!` call).
    pub fn write_fmt(&mut self, args: std::fmt::Arguments) {
        if let Err(e) = std::io::stdout().lock().write_fmt(args) {
            assert!(e.kind() == ErrorKind::BrokenPipe, "failed printing to stdout: {e}");
        }
    }
}

/// `println!` through [`Out`]. Defined before the modules, which use it.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::Out.write_fmt(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::Out.write_fmt(format_args!("{}\n", format_args!($($arg)*)))
    };
}

pub mod cli;
pub mod microbench;
pub mod report;
pub mod selftime;

use std::io::{ErrorKind, Write};

use mdsim::StepRecord;
pub use report::{
    accounting_bound, format_phase_table, BlameRow, CritPath, PhaseRow, RunEntry, RunReport,
    SelftimeRow,
};
pub use selftime::{alloc_counters, thread_alloc_counters, CountingAlloc, Selftime};

/// Every binary of this crate counts its heap allocations (see
/// [`selftime`]): the `harness_selftime` report section is how the CI
/// perf-smoke job catches per-step allocation regressions.
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

/// What one MD world yields ([`try_run_md_world`]).
pub struct MdWorld {
    /// Per-step records aggregated over ranks (component-wise maxima).
    pub records: Vec<StepRecord>,
    /// The global RMS displacement.
    pub rms: f64,
    /// Rollback-and-replay recoveries the MD step loop performed (collective —
    /// identical on every rank).
    pub recoveries: u64,
    /// The report entry (makespan, per-phase aggregates and run totals — see
    /// [`RunEntry`]), with the critical-path analysis attached when the run
    /// was traced.
    pub entry: RunEntry,
    /// The per-rank event streams (empty unless the runner traces).
    pub traces: Vec<simcomm::Trace>,
}

/// Run a full MD simulation world of `p` ranks under `runner`, which decides
/// tracing, the fault plan and the wall-clock deadline. Failures (a rank
/// panic, a virtual deadlock, a refused thread spawn, an elapsed deadline)
/// come back as a [`simcomm::WorldError`], so a supervisor can classify,
/// journal and retry the run; harnesses that cannot fail `.expect` it.
/// Tracing is clock-invisible: records, clocks and the entry's aggregates
/// are the same bits whether or not the runner traces.
pub fn try_run_md_world(
    runner: &simcomm::Runner,
    model: simcomm::MachineModel,
    p: usize,
    crystal: &particles::IonicCrystal,
    dist: particles::InitialDistribution,
    cfg: &mdsim::SimConfig,
) -> Result<MdWorld, simcomm::WorldError> {
    let bbox = particles::ParticleSource::system_box(crystal);
    let out = runner.try_run(p, model, |comm| {
        let dims = simcomm::CartGrid::balanced(p).dims();
        let set = particles::local_set(crystal, dist, comm.rank(), p, dims);
        mdsim::simulate(comm, bbox, set, cfg)
    })?;
    let per_rank: Vec<Vec<StepRecord>> = out.results.iter().map(|r| r.records.clone()).collect();
    Ok(MdWorld {
        records: aggregate_steps(&per_rank),
        rms: out.results[0].rms_displacement,
        recoveries: out.results[0].recoveries,
        entry: analyzed_entry(&out),
        traces: out.traces,
    })
}

/// Run the happens-before trace analysis and record its condensed form
/// (critical-path split + top blame rows) on the report entry. Returns the
/// full [`simtrace::Analysis`] for harnesses that print more detail.
pub fn attach_analysis(entry: &mut RunEntry, traces: &[simcomm::Trace]) -> simtrace::Analysis {
    let analysis = simtrace::analyze(traces);
    entry.critpath = Some(CritPath::from_analysis(&analysis));
    analysis
}

/// The report entry of a run, with the critical-path analysis attached when
/// the run was traced.
fn analyzed_entry<R>(out: &simcomm::RunOutput<R>) -> RunEntry {
    let mut entry = RunEntry::from_run(out);
    // An untraced world still returns one (empty) trace per rank.
    if out.traces.iter().any(|t| !t.events.is_empty()) {
        attach_analysis(&mut entry, &out.traces);
    }
    entry
}

/// Finish one raw [`simcomm::Runner`] run: build its report entry, attach the
/// critical-path analysis when the run was traced, feed the timeline sink,
/// and push the entry under `label`. The shared tail of every run site in the
/// harnesses that drive worlds directly (ablation, plancache, scale).
pub fn record_run<R>(
    label: String,
    out: simcomm::RunOutput<R>,
    report: &mut RunReport,
    timeline: &mut TimelineSink,
) {
    let entry = analyzed_entry(&out);
    timeline.push(label.clone(), out.traces);
    report.push(label, entry);
}

/// Accumulates the labelled traces of a harness's runs and writes them as a
/// single Chrome/Perfetto timeline on [`TimelineSink::finish`] — the
/// `--perfetto <path>` behaviour every figure binary shares. Inactive (all
/// methods no-ops) when the flag was not given.
pub struct TimelineSink {
    path: Option<std::path::PathBuf>,
    runs: Vec<(String, Vec<simcomm::Trace>)>,
}

impl TimelineSink {
    /// Build from an explicit `--perfetto` value (empty = inactive) — the
    /// [`cli`] module's construction path.
    pub fn from_path(path: String) -> TimelineSink {
        TimelineSink { path: (!path.is_empty()).then(|| path.into()), runs: Vec::new() }
    }

    /// Is a timeline being collected? (Harnesses fold this into their
    /// `--analyze` decision: `--perfetto` implies tracing.)
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Record one run's traces under a timeline label (one Perfetto process
    /// per pushed run). Drops the traces when inactive.
    pub fn push(&mut self, label: impl Into<String>, traces: Vec<simcomm::Trace>) {
        if self.active() {
            self.runs.push((label.into(), traces));
        }
    }

    /// Write the collected timeline (no-op when inactive).
    pub fn finish(self) {
        let Some(path) = self.path else { return };
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        let runs: Vec<(&str, &[simcomm::Trace])> =
            self.runs.iter().map(|(l, t)| (l.as_str(), t.as_slice())).collect();
        simtrace::write_perfetto(std::io::BufWriter::new(file), &runs)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let events: usize = self.runs.iter().flat_map(|(_, t)| t).map(|t| t.events.len()).sum();
        outln!(
            "wrote Perfetto timeline {} ({} runs, {events} events) — open at \
             https://ui.perfetto.dev",
            path.display(),
            self.runs.len()
        );
    }
}

/// Print the one-line report summary every harness emits after writing its
/// JSON report: path, entry count, and the worst accounting error (see
/// [`RunEntry::decomposition_error`]).
pub fn report_summary(path: &std::path::Path, report: &RunReport) {
    outln!(
        "wrote {} ({} runs; phase times sum to rank clocks within {:.1e} s)",
        path.display(),
        report.runs.len(),
        report.decomposition_error().max(1e-15)
    );
}

/// Aggregate per-rank step records into per-step maxima (the slowest rank
/// determines the parallel runtime of each component).
pub fn aggregate_steps(per_rank: &[Vec<StepRecord>]) -> Vec<StepRecord> {
    assert!(!per_rank.is_empty());
    let steps = per_rank[0].len();
    (0..steps)
        .map(|s| {
            let mut agg = StepRecord { step: per_rank[0][s].step, ..StepRecord::default() };
            for r in per_rank {
                agg.sort = agg.sort.max(r[s].sort);
                agg.restore = agg.restore.max(r[s].restore);
                agg.resort = agg.resort.max(r[s].resort);
                agg.total = agg.total.max(r[s].total);
                agg.max_move = agg.max_move.max(r[s].max_move);
                agg.energy = r[s].energy; // identical on every rank
                agg.resorted = r[s].resorted;
            }
            agg
        })
        .collect()
}

/// Sum of a field over records `from..` (skipping warm-up entries).
pub fn sum_from(records: &[StepRecord], from: usize, f: impl Fn(&StepRecord) -> f64) -> f64 {
    records[from.min(records.len())..].iter().map(f).sum()
}

/// Write CSV rows to `results/<name>.csv` (header + rows of f64 columns).
pub fn write_csv(name: &str, header: &str, rows: &[Vec<f64>]) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").unwrap();
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(f, "{}", line.join(",")).unwrap();
    }
    path
}

/// Format a duration in seconds with engineering-style precision.
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".into()
    } else if s >= 0.1 {
        format!("{s:.3}")
    } else if s >= 1e-4 {
        format!("{:.3}m", s * 1e3)
    } else {
        format!("{:.3}u", s * 1e6)
    }
}

/// Print a header banner for a figure harness.
pub fn banner(title: &str, detail: &str) {
    outln!("==============================================================");
    outln!("{title}");
    outln!("{detail}");
    outln!("(virtual seconds on the simulated machine model; shapes, not");
    outln!(" absolute values, are comparable to the paper — see DESIGN.md)");
    outln!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_takes_maxima() {
        let r1 = vec![StepRecord { step: 0, sort: 1.0, total: 5.0, ..Default::default() }];
        let r2 = vec![StepRecord { step: 0, sort: 2.0, total: 4.0, ..Default::default() }];
        let agg = aggregate_steps(&[r1, r2]);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].sort, 2.0);
        assert_eq!(agg[0].total, 5.0);
    }

    #[test]
    fn sum_from_skips_prefix() {
        let recs = vec![
            StepRecord { total: 1.0, ..Default::default() },
            StepRecord { total: 2.0, ..Default::default() },
            StepRecord { total: 4.0, ..Default::default() },
        ];
        assert_eq!(sum_from(&recs, 1, |r| r.total), 6.0);
        assert_eq!(sum_from(&recs, 0, |r| r.total), 7.0);
        assert_eq!(sum_from(&recs, 10, |r| r.total), 0.0);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.0), "0");
        assert_eq!(fmt_secs(1.5), "1.500");
        assert!(fmt_secs(0.0015).ends_with('m'));
        assert!(fmt_secs(1.5e-6).ends_with('u'));
    }
}
