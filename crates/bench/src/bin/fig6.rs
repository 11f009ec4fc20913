//! Figure 6: influence of the initial particle distribution.
//!
//! Reproduces: "Total runtimes and runtimes for sorting and restoring the
//! particles for the computation of particle interactions with the FMM solver
//! and the P2NFFT solver using three different initial particle
//! distributions: all particles on one single process (single process),
//! uniformly random distribution of particles among processes (random), and a
//! domain decomposition that distributes particles uniformly among a
//! Cartesian process grid (process grid)." — 256 processes on the JuRoPA
//! system, Method A.
//!
//! Expected shape (paper Sect. IV-B): single process is slowest by far (the
//! one process is the communication bottleneck); random improves it
//! substantially; process grid cuts sort/restore by at least another order of
//! magnitude, and for the P2NFFT solver (which uses the same grid
//! decomposition) the remaining redistribution cost is mainly ghost creation.

use bench::cli::{Cli, Opt, OBS_OPTS};
use bench::{banner, fmt_secs, outln, report_summary, write_csv, MdWorld, RunReport};
use fcs::SolverKind;
use mdsim::SimConfig;
use particles::{InitialDistribution, IonicCrystal};
use simcomm::{MachineModel, Runner};

fn main() {
    let cli = Cli::parse(
        "fig6",
        "influence of the initial particle distribution (paper Fig. 6)",
        &[
            Opt::new("cells", "N", "crystal cells per dimension (default 44)"),
            Opt::new("procs", "P", "simulated process count (default 256)"),
            Opt::new("tolerance", "T", "solver tolerance (default 1e-3)"),
            Opt::new("seed", "S", "crystal perturbation seed (default 1)"),
        ],
        OBS_OPTS,
    );
    let cells: usize = cli.get("cells", 44);
    let procs: usize = cli.get("procs", 256);
    let tolerance: f64 = cli.get("tolerance", 1e-3);
    let seed: u64 = cli.get("seed", 1);
    let mut timeline = cli.timeline();
    let analyze = cli.analyze(&timeline);
    let runner = Runner::default().traced(analyze);

    let crystal = IonicCrystal::paper_like(cells, seed);
    banner(
        "Figure 6 — Influence of the initial particle distribution",
        &format!(
            "{} particles (cells {cells}), {procs} processes, method A, \
             juropa-like machine, tolerance {tolerance:e}",
            crystal.n()
        ),
    );

    let dists = [
        InitialDistribution::SingleProcess,
        InitialDistribution::Random,
        InitialDistribution::Grid,
    ];
    outln!(
        "{:<8} {:<16} {:>12} {:>12} {:>12}",
        "solver",
        "distribution",
        "total",
        "sort",
        "restore"
    );
    let mut report = RunReport::new("fig6", "juropa_like");
    report.param("cells", cells);
    report.param("procs", procs);
    report.param("tolerance", tolerance);
    report.param("seed", seed);
    let mut rows = Vec::new();
    for (si, solver) in [SolverKind::Fmm, SolverKind::P2Nfft].into_iter().enumerate() {
        for (di, dist) in dists.into_iter().enumerate() {
            // One solver execution (steps = 0 -> only the initial
            // interactions, line 5 of the paper's Fig. 3).
            let cfg =
                SimConfig { solver, resort: false, steps: 0, tolerance, ..SimConfig::default() };
            let MdWorld { records, entry, traces, .. } = bench::try_run_md_world(
                &runner,
                MachineModel::juropa_like(),
                procs,
                &crystal,
                dist,
                &cfg,
            )
            .expect("MD world");
            timeline.push(format!("{solver:?}/{}", dist.label()), traces);
            report.push(format!("{solver:?}/{}", dist.label()), entry);
            let r = &records[0];
            outln!(
                "{:<8} {:<16} {:>12} {:>12} {:>12}",
                format!("{solver:?}"),
                dist.label(),
                fmt_secs(r.total),
                fmt_secs(r.sort),
                fmt_secs(r.restore)
            );
            rows.push(vec![si as f64, di as f64, r.total, r.sort, r.restore]);
        }
    }
    let path = write_csv("fig6", "solver,distribution,total,sort,restore", &rows);
    outln!("\nwrote {}", path.display());
    timeline.finish();
    report_summary(&report.write("fig6"), &report);
    outln!("(solver: 0 = FMM, 1 = P2NFFT; distribution: 0 = single process, 1 = random, 2 = grid)");
}
