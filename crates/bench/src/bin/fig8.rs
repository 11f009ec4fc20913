//! Figure 8: Method A vs Method B over a long simulation with the *process
//! grid* initial distribution (256 processes, JuRoPA-like machine).
//!
//! Reproduces, per solver: per-time-step "Sort and restore / Total" (Method
//! A) and "Sort and resort / Total" (Method B) series, plus the
//! movement-exploiting Method B variant (merge-based sorting / neighbourhood
//! communication, as in Fig. 9's third series) where the persistent
//! communication-plan cache engages across time steps.
//!
//! Expected shape (paper Sect. IV-C): initially both methods are cheap (the
//! solver decompositions barely differ from the grid distribution). As the
//! particles drift, Method A's redistribution grows steadily — by the end of
//! the paper's 1000 steps it is ~50 % of the FMM step time and up to ~75 % of
//! the P2NFFT step time — while Method B stays flat (~3 % / ~2 %).

use bench::cli::{Cli, Opt, OBS_OPTS};
use bench::{
    banner, fmt_secs, outln, report_summary, sum_from, write_csv, MdWorld, RunReport, Selftime,
};
use fcs::SolverKind;
use mdsim::SimConfig;
use particles::{InitialDistribution, IonicCrystal};
use simcomm::{MachineModel, Runner};

fn main() {
    let cli = Cli::parse(
        "fig8",
        "Method A vs Method B over a long simulation, grid init (paper Fig. 8)",
        &[
            Opt::new("cells", "N", "crystal cells per dimension (default 24)"),
            Opt::new("procs", "P", "simulated process count (default 256)"),
            Opt::new("tolerance", "T", "solver tolerance (default 1e-2)"),
            Opt::new("steps", "N", "time steps (default 600)"),
            Opt::new("seed", "S", "crystal perturbation seed (default 1)"),
            Opt::new("mass", "M", "particle mass scaling (default 1.0)"),
            Opt::new("every", "N", "print every N-th step (default steps/20)"),
            Opt::new("jitter", "J", "initial lattice jitter fraction (default 0.15)"),
        ],
        OBS_OPTS,
    );
    let cells: usize = cli.get("cells", 24);
    let procs: usize = cli.get("procs", 256);
    let tolerance: f64 = cli.get("tolerance", 1e-2);
    let steps: usize = cli.get("steps", 600);
    let seed: u64 = cli.get("seed", 1);
    let mass: f64 = cli.get("mass", 1.0);
    let every: usize = cli.get("every", (steps / 20).max(1));

    let jitter: f64 = cli.get("jitter", 0.15);
    let mut timeline = cli.timeline();
    let analyze = cli.analyze(&timeline);
    let runner = Runner::default().traced(analyze);
    let mut crystal = IonicCrystal::paper_like(cells, seed);
    crystal.jitter = jitter * crystal.spacing;
    let dt = mdsim::suggested_dt(crystal.spacing, 1.0);
    banner(
        "Figure 8 — Method A vs Method B over a long simulation (grid init)",
        &format!(
            "{} particles (cells {cells}), {procs} processes, {steps} steps, \
             juropa-like machine, tolerance {tolerance:e}",
            crystal.n()
        ),
    );

    let mut selftime = Selftime::start();
    let mut report = RunReport::new("fig8", "juropa_like");
    report.param("cells", cells);
    report.param("procs", procs);
    report.param("tolerance", tolerance);
    report.param("steps", steps);
    report.param("seed", seed);
    report.param("jitter", jitter);
    let mut rows = Vec::new();
    for (si, solver) in [SolverKind::Fmm, SolverKind::P2Nfft].into_iter().enumerate() {
        outln!("\n--- {} solver ---", format!("{solver:?}").to_uppercase());
        let run = |resort: bool, exploit: bool| {
            let cfg = SimConfig {
                solver,
                resort,
                // `exploit` additionally feeds the measured maximum movement
                // to the solver under Method B (merge-based sorting /
                // neighbourhood communication), as in Fig. 9's third series.
                exploit_movement: exploit,
                steps,
                tolerance,
                mass,
                dt,
                ..SimConfig::default()
            };
            bench::try_run_md_world(
                &runner,
                MachineModel::juropa_like(),
                procs,
                &crystal,
                InitialDistribution::Grid,
                &cfg,
            )
            .expect("MD world")
        };
        let MdWorld { records: a, rms: rms_a, entry: entry_a, traces: traces_a, .. } =
            run(false, false);
        selftime.lap_steps(&format!("run:{solver:?}/methodA"), steps as u64);
        let MdWorld { records: b, entry: entry_b, traces: traces_b, .. } = run(true, false);
        selftime.lap_steps(&format!("run:{solver:?}/methodB"), steps as u64);
        let MdWorld { records: bm, entry: entry_bm, traces: traces_bm, .. } = run(true, true);
        selftime.lap_steps(&format!("run:{solver:?}/methodB+movement"), steps as u64);
        timeline.push(format!("{solver:?}/methodA"), traces_a);
        timeline.push(format!("{solver:?}/methodB"), traces_b);
        timeline.push(format!("{solver:?}/methodB+movement"), traces_bm);
        report.push(format!("{solver:?}/methodA"), entry_a);
        report.push(format!("{solver:?}/methodB"), entry_b);
        report.push(format!("{solver:?}/methodB+movement"), entry_bm);
        outln!(
            "{:<8} {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>12} {:>10}",
            "step",
            "redistA",
            "totalA",
            "redistB",
            "totalB",
            "redistBM",
            "totalBM",
            "drift"
        );
        for s in (0..=steps).step_by(every) {
            let ra = a[s].sort + a[s].restore;
            let rb = b[s].sort + b[s].resort;
            let rbm = bm[s].sort + bm[s].resort;
            outln!(
                "{:<8} {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>12} {:>10.2}",
                s,
                fmt_secs(ra),
                fmt_secs(a[s].total),
                fmt_secs(rb),
                fmt_secs(b[s].total),
                fmt_secs(rbm),
                fmt_secs(bm[s].total),
                a[s].max_move
            );
            rows.push(vec![si as f64, s as f64, ra, a[s].total, rb, b[s].total, rbm, bm[s].total]);
        }
        // Paper headline numbers: redistribution share near the end vs start.
        let tail = steps.saturating_sub(steps / 10).max(1);
        let share = |recs: &[mdsim::StepRecord], redist: &dyn Fn(&mdsim::StepRecord) -> f64| {
            let rsum = sum_from(recs, tail, |r| redist(r));
            let tsum = sum_from(recs, tail, |r| r.total);
            100.0 * rsum / tsum.max(f64::MIN_POSITIVE)
        };
        let share_a = share(&a, &|r| r.sort + r.restore);
        let share_b = share(&b, &|r| r.sort + r.resort);
        let share_bm = share(&bm, &|r| r.sort + r.resort);
        let grow_a =
            (a[steps].sort + a[steps].restore) / (a[1].sort + a[1].restore).max(f64::MIN_POSITIVE);
        outln!(
            "=> late-run redistribution share: method A {share_a:.0} % of the step \
             (paper: ~50 % FMM / ~75 % P2NFFT), method B {share_b:.0} % (paper: ~3 % / ~2 %), \
             method B + movement {share_bm:.0} %"
        );
        outln!(
            "=> method A redistribution grew {grow_a:.1}x from step 1 to step {steps} \
             (RMS particle drift {rms_a:.2} box units)"
        );
    }
    report.selftime = selftime.rows();
    outln!("\nharness selftime (real wall-clock, process-wide heap allocations):");
    for row in &report.selftime {
        outln!(
            "  {:<28} {:>10} wall  {:>12} allocs  {:>14} B  ({} steps)",
            row.name,
            fmt_secs(row.wall_seconds),
            row.allocs,
            row.alloc_bytes,
            row.steps
        );
    }
    let path =
        write_csv("fig8", "solver,step,redistA,totalA,redistB,totalB,redistBM,totalBM", &rows);
    outln!("\nwrote {}", path.display());
    timeline.finish();
    report_summary(&report.write("fig8"), &report);
}
