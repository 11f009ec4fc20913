//! Figure 7: Method A vs Method B over the initial solver execution and the
//! first eight time steps, starting from a uniformly random initial particle
//! distribution (256 processes, JuRoPA-like machine).
//!
//! Reproduces, per solver: "Sort / Restore / Total" for Method A and
//! "Sort / Resort / Total" for Method B.
//!
//! Expected shape (paper Sect. IV-C): Method A's times are constant over the
//! steps (the random distribution is restored every step and re-sorted from
//! scratch). Method B's sort and resort times drop by one to two orders of
//! magnitude after the first time step because the application keeps the
//! solver-specific order and distribution; its total runtime drops to a
//! fraction of Method A's (the paper reports ~45 % for the FMM and ~20 % for
//! the P2NFFT solver).

use bench::cli::{Cli, Opt, OBS_OPTS};
use bench::{
    aggregate_steps, banner, fmt_secs, outln, report_summary, write_csv, MdWorld, RunReport,
};
use fcs::SolverKind;
use mdsim::SimConfig;
use particles::{InitialDistribution, IonicCrystal};
use simcomm::{MachineModel, Runner};

fn main() {
    let cli = Cli::parse(
        "fig7",
        "Method A vs Method B over the first time steps (paper Fig. 7)",
        &[
            Opt::new("cells", "N", "crystal cells per dimension (default 32)"),
            Opt::new("procs", "P", "simulated process count (default 256)"),
            Opt::new("tolerance", "T", "solver tolerance (default 1e-2)"),
            Opt::new("steps", "N", "time steps after the initial solve (default 8)"),
            Opt::new("seed", "S", "crystal perturbation seed (default 1)"),
        ],
        OBS_OPTS,
    );
    let cells: usize = cli.get("cells", 32);
    let procs: usize = cli.get("procs", 256);
    let tolerance: f64 = cli.get("tolerance", 1e-2);
    let steps: usize = cli.get("steps", 8);
    let seed: u64 = cli.get("seed", 1);
    let mut timeline = cli.timeline();
    let analyze = cli.analyze(&timeline);
    let runner = Runner::default().traced(analyze);

    let crystal = IonicCrystal::paper_like(cells, seed);
    let dt = mdsim::suggested_dt(crystal.spacing, 1.0);
    banner(
        "Figure 7 — Method A vs Method B over the first time steps",
        &format!(
            "{} particles (cells {cells}), {procs} processes, random initial \
             distribution, juropa-like machine, tolerance {tolerance:e}",
            crystal.n()
        ),
    );
    let _ = aggregate_steps; // (re-exported for doc discoverability)

    let mut report = RunReport::new("fig7", "juropa_like");
    report.param("cells", cells);
    report.param("procs", procs);
    report.param("tolerance", tolerance);
    report.param("steps", steps);
    report.param("seed", seed);
    let mut rows = Vec::new();
    for (si, solver) in [SolverKind::Fmm, SolverKind::P2Nfft].into_iter().enumerate() {
        outln!("\n--- {} solver ---", format!("{solver:?}").to_uppercase());
        outln!(
            "{:<8} {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11}",
            "step",
            "sortA",
            "restoreA",
            "totalA",
            "sortB",
            "resortB",
            "totalB"
        );
        let run = |resort: bool| {
            let cfg = SimConfig { solver, resort, steps, tolerance, dt, ..SimConfig::default() };
            let MdWorld { records, entry, traces, .. } = bench::try_run_md_world(
                &runner,
                MachineModel::juropa_like(),
                procs,
                &crystal,
                InitialDistribution::Random,
                &cfg,
            )
            .expect("MD world");
            (records, entry, traces)
        };
        let (a, entry_a, traces_a) = run(false);
        let (b, entry_b, traces_b) = run(true);
        timeline.push(format!("{solver:?}/methodA"), traces_a);
        timeline.push(format!("{solver:?}/methodB"), traces_b);
        report.push(format!("{solver:?}/methodA"), entry_a);
        report.push(format!("{solver:?}/methodB"), entry_b);
        for s in 0..=steps {
            let label = if s == 0 { "initial".to_string() } else { s.to_string() };
            outln!(
                "{:<8} {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11}",
                label,
                fmt_secs(a[s].sort),
                fmt_secs(a[s].restore),
                fmt_secs(a[s].total),
                fmt_secs(b[s].sort),
                fmt_secs(b[s].resort),
                fmt_secs(b[s].total)
            );
            rows.push(vec![
                si as f64,
                s as f64,
                a[s].sort,
                a[s].restore,
                a[s].total,
                b[s].sort,
                b[s].resort,
                b[s].total,
            ]);
        }
        // Paper headline: the total runtime ratio B/A after the first step.
        let avg = |recs: &[mdsim::StepRecord]| {
            recs[1..].iter().map(|r| r.total).sum::<f64>() / steps.max(1) as f64
        };
        let ratio = avg(&b) / avg(&a);
        outln!(
            "=> method B total is {:.0} % of method A over steps 1..{steps} \
             (paper: ~45 % FMM, ~20 % P2NFFT)",
            100.0 * ratio
        );
    }
    let path = write_csv("fig7", "solver,step,sortA,restoreA,totalA,sortB,resortB,totalB", &rows);
    outln!("\nwrote {}", path.display());
    timeline.finish();
    report_summary(&report.write("fig7"), &report);
}
