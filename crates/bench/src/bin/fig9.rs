//! Figure 9: total parallel runtimes of the particle dynamics simulation.
//!
//! Left panel: FMM solver on the JuRoPA-like (switched fabric) machine over
//! process counts 8..1024. Right panel: P2NFFT-style solver on the
//! Juqueen-like (torus) machine over process counts 16..16384. Three series
//! each: Method A, Method B, and Method B exploiting the maximum particle
//! movement (merge-based parallel sort for the FMM, neighbourhood
//! point-to-point communication for the particle-mesh solver).
//!
//! Expected shapes (paper Sect. IV-D):
//! * FMM/JuRoPA: Method B is fastest (biggest gap ~33 % around 256 procs);
//!   exploiting the movement *slightly increases* the runtime (the switched
//!   network gives no advantage to point-to-point neighbourhood traffic).
//! * P2NFFT/Juqueen: at large process counts plain Method B becomes *slower*
//!   than Method A (the extra resort communication dominates), while Method B
//!   with maximum movement keeps scaling and ends ~40 % below Method A at the
//!   largest machine.

use bench::cli::{Cli, Opt, OBS_OPTS};
use bench::{
    banner, fmt_secs, outln, report_summary, sum_from, write_csv, MdWorld, RunReport, TimelineSink,
};
use fcs::SolverKind;
use mdsim::SimConfig;
use particles::{InitialDistribution, IonicCrystal};
use simcomm::{MachineModel, Runner};

fn main() {
    let cli = Cli::parse(
        "fig9",
        "total parallel runtimes over process counts, both machines (paper Fig. 9)",
        &[
            Opt::new("cells", "N", "crystal cells per dimension (default 24)"),
            Opt::new("steps", "N", "time steps (default 10)"),
            Opt::new("tolerance", "T", "solver tolerance (default 1e-2)"),
            Opt::new("seed", "S", "crystal perturbation seed (default 1)"),
            Opt::new("left-procs", "P1,P2,...", "left panel (FMM/JuRoPA) process counts"),
            Opt::new("right-procs", "P1,P2,...", "right panel (P2NFFT/Juqueen) process counts"),
            Opt::flag("skip-left", "skip the left panel"),
            Opt::flag("skip-right", "skip the right panel"),
            Opt::new("dist", "D", "initial distribution: 'random' (default) or 'grid'"),
            Opt::new("tag", "T", "suffix for the output CSV/report names"),
        ],
        OBS_OPTS,
    );
    let cells: usize = cli.get("cells", 24);
    let steps: usize = cli.get("steps", 10);
    let tolerance: f64 = cli.get("tolerance", 1e-2);
    let seed: u64 = cli.get("seed", 1);
    let left_procs = cli.list("left-procs", &[8, 16, 32, 64, 128, 256, 512, 1024]);
    let right_procs = cli.list("right-procs", &[16, 64, 256, 1024, 4096, 16384]);
    // The paper simulates 1000 time steps from the *grid* distribution; by
    // mid-run the particles have drifted so far that Method A effectively
    // redistributes a decorrelated system every step (cf. Fig. 8). This
    // scaled-down harness runs far fewer steps, so it defaults to the
    // *random* initial distribution to operate in that same decorrelated
    // regime; pass `--dist grid --steps 1000` for the literal setup.
    let dist = match cli.get::<String>("dist", "random".into()).as_str() {
        "random" => InitialDistribution::Random,
        "grid" => InitialDistribution::Grid,
        other => cli.fail(format!("--dist must be 'random' or 'grid', got '{other}'")),
    };
    let mut timeline = cli.timeline();
    let runner = Runner::default().traced(cli.analyze(&timeline));

    let crystal = IonicCrystal::paper_like(cells, seed);
    let dt = mdsim::suggested_dt(crystal.spacing, 1.0);
    banner(
        "Figure 9 — Total parallel runtimes vs process count",
        &format!(
            "{} particles (cells {cells}), {steps} time steps per run, {} \
             initial distribution, tolerance {tolerance:e}",
            crystal.n(),
            dist.label(),
        ),
    );

    let mut report = RunReport::new("fig9", "mixed");
    report.param("cells", cells);
    report.param("tolerance", tolerance);
    report.param("steps", steps);
    report.param("seed", seed);
    report.param("dist", dist.label());
    let mut rows = Vec::new();
    #[allow(clippy::too_many_arguments)]
    let panel = |name: &str,
                 solver: SolverKind,
                 model: MachineModel,
                 procs_list: &[usize],
                 panel_ix: f64,
                 rows: &mut Vec<Vec<f64>>,
                 report: &mut RunReport,
                 timeline: &mut TimelineSink| {
        outln!("\n--- {name} ---");
        outln!(
            "{:<8} {:>12} {:>12} {:>16} | {:>11} {:>11} {:>11}",
            "procs",
            "methodA",
            "methodB",
            "methodB+move",
            "redistA",
            "redistB",
            "redistBm"
        );
        for &p in procs_list {
            let mut totals = Vec::new();
            let mut redists = Vec::new();
            for (resort, exploit) in [(false, false), (true, false), (true, true)] {
                let method = match (resort, exploit) {
                    (false, _) => "methodA",
                    (true, false) => "methodB",
                    (true, true) => "methodB+move",
                };
                let cfg = SimConfig {
                    solver,
                    resort,
                    exploit_movement: exploit,
                    steps,
                    tolerance,
                    dt,
                    ..SimConfig::default()
                };
                let MdWorld { records, entry, traces, .. } =
                    bench::try_run_md_world(&runner, model.clone(), p, &crystal, dist, &cfg)
                        .expect("MD world");
                timeline.push(format!("{solver:?}/p={p}/{method}"), traces);
                report.push(format!("{solver:?}/p={p}/{method}"), entry);
                // Total simulation runtime: sum of all solver executions
                // (including application-side resorting), like the paper's
                // "total parallel runtimes". The redistribution-only sums
                // expose the methods' difference where solver computation
                // dominates the totals.
                totals.push(sum_from(&records, 0, |r| r.total));
                redists.push(sum_from(&records, 0, |r| r.sort + r.restore + r.resort));
            }
            outln!(
                "{:<8} {:>12} {:>12} {:>16} | {:>11} {:>11} {:>11}",
                p,
                fmt_secs(totals[0]),
                fmt_secs(totals[1]),
                fmt_secs(totals[2]),
                fmt_secs(redists[0]),
                fmt_secs(redists[1]),
                fmt_secs(redists[2])
            );
            rows.push(vec![
                panel_ix, p as f64, totals[0], totals[1], totals[2], redists[0], redists[1],
                redists[2],
            ]);
        }
    };

    if !cli.flag("skip-left") {
        panel(
            "FMM on the juropa-like machine (switched fabric)",
            SolverKind::Fmm,
            MachineModel::juropa_like(),
            &left_procs,
            0.0,
            &mut rows,
            &mut report,
            &mut timeline,
        );
    }
    if !cli.flag("skip-right") {
        panel(
            "P2NFFT-style solver on the juqueen-like machine (5D torus)",
            SolverKind::P2Nfft,
            MachineModel::juqueen_like(),
            &right_procs,
            1.0,
            &mut rows,
            &mut report,
            &mut timeline,
        );
    }

    // `--tag <suffix>` writes to fig9_<suffix>.csv / fig9_<suffix>_report.json
    // so special runs (e.g. CI's small smoke) don't clobber the default
    // outputs.
    let tag: String = cli.get("tag", String::new());
    let name = if tag.is_empty() { "fig9".to_string() } else { format!("fig9_{tag}") };
    let name = name.as_str();
    let path = write_csv(
        name,
        "panel,procs,methodA,methodB,methodB_move,redistA,redistB,redistB_move",
        &rows,
    );
    outln!("\nwrote {}", path.display());
    timeline.finish();
    report_summary(&report.write(name), &report);
    outln!("(panel: 0 = FMM/juropa-like, 1 = P2NFFT/juqueen-like)");
}
