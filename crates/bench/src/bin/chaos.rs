//! Chaos benchmark: fault-rate sweep over the MD timestep loop on both
//! machine models, contrasting the guarded movement-exploiting path against
//! the always-general redistribution path under identical injected faults.
//!
//! For each machine model and each fault intensity the same melting-crystal
//! simulation (P2NFFT solver, Method B resort, process-grid initial
//! distribution) runs three times:
//!
//! * **clean** — no fault layer at all: the reference trajectory.
//! * **guarded** — `exploit_movement` on, under [`simcomm::FaultPlan::chaos`]
//!   at the given intensity: latency spikes, transient send losses, one
//!   straggler rank, wait timeouts and per-step movement-hint lies. The
//!   solvers' movement-bound guards detect hint violations and fall back to
//!   the general path for the affected step; the driver's recovery loop
//!   rolls back to an in-memory snapshot and replays on injected
//!   stalls/timeouts.
//! * **general** — `exploit_movement` off (every step pays the full general
//!   redistribution), under the *same* fault plan: the degradation baseline
//!   the guarded path is compared against.
//!
//! Faults delay — they never corrupt payloads — and the guards/recovery mask
//! every movement-bound violation, so both faulted variants must reproduce
//! the clean trajectory **bit for bit**. The harness asserts that, and that
//! the guarded makespan stays within 2x the always-general makespan at every
//! intensity (the fallback's worst case: guard collectives plus an occasional
//! double redistribution, never a corrupted or hung run).
//!
//! Writes `results/chaos_report.json` (the run-report schema; each run's
//! totals carry its fault counters).

use bench::cli::{Cli, Opt, OBS_OPTS};
use bench::{banner, fmt_secs, outln, report_summary, MdWorld, RunReport};
use fcs::SolverKind;
use mdsim::SimConfig;
use particles::{InitialDistribution, IonicCrystal};
use simcomm::{FaultPlan, MachineModel, Runner};

/// Short machine label ("juropa-like") for run labels and table rows.
fn short_name(model: &MachineModel) -> &str {
    model.name.split_whitespace().next().unwrap_or(&model.name)
}

fn main() {
    let cli = Cli::parse(
        "chaos",
        "deterministic fault injection: clean vs faulted runs, bitwise physics",
        &[
            Opt::new("cells", "N", "crystal cells per dimension (default 6)"),
            Opt::new("procs", "P", "simulated process count (default 16)"),
            Opt::new("steps", "N", "time steps (default 6)"),
            Opt::new("tolerance", "T", "solver tolerance (default 1e-2)"),
            Opt::new("seed", "S", "crystal + fault seed (default 11)"),
            Opt::new("jitter", "J", "initial lattice jitter fraction (default 0.15)"),
        ],
        OBS_OPTS,
    );
    let cells: usize = cli.get("cells", 6);
    let procs: usize = cli.get("procs", 16);
    let steps: usize = cli.get("steps", 6);
    let tolerance: f64 = cli.get("tolerance", 1e-2);
    let seed: u64 = cli.get("seed", 11);
    let jitter: f64 = cli.get("jitter", 0.15);
    let mut timeline = cli.timeline();
    let runner = Runner::default().traced(cli.analyze(&timeline));
    let intensities = [0.0, 0.25, 0.5, 1.0];

    let mut crystal = IonicCrystal::cubic(cells, 1.0, 0.0, seed);
    crystal.jitter = jitter * crystal.spacing;
    banner(
        "Chaos — fault-rate sweep: guarded movement exploitation vs the always-general path",
        &format!(
            "{} particles (cells {cells}), {procs} processes, {steps} steps, \
             P2NFFT + Method B resort, tolerance {tolerance:e}; \
             intensities {intensities:?}",
            crystal.n()
        ),
    );

    let mut report = RunReport::new("chaos", "mixed");
    report.param("cells", cells);
    report.param("procs", procs);
    report.param("steps", steps);
    report.param("tolerance", tolerance);
    report.param("seed", seed);
    report.param("jitter", jitter);

    let cfg = |exploit: bool| SimConfig {
        solver: SolverKind::P2Nfft,
        resort: true,
        exploit_movement: exploit,
        steps,
        tolerance,
        ..SimConfig::default()
    };

    outln!(
        "{:<14} {:>9} {:>13} {:>13} {:>13} {:>7} {:>7} {:>9} {:>9}",
        "machine",
        "intensity",
        "clean",
        "guarded",
        "general",
        "ratio",
        "faults",
        "recover",
        "timeouts"
    );
    for model in [MachineModel::juropa_like(), MachineModel::juqueen_like()] {
        let name = short_name(&model);

        // Clean reference: the trajectory every faulted variant must match.
        let run = |runner: &Runner, exploit: bool| {
            let (dist, cfg) = (InitialDistribution::Grid, cfg(exploit));
            bench::try_run_md_world(runner, model.clone(), procs, &crystal, dist, &cfg)
                .expect("MD world")
        };
        let MdWorld { records: clean_recs, entry: clean_entry, traces: clean_traces, .. } =
            run(&runner, true);
        let clean_makespan = clean_entry.makespan;
        timeline.push(format!("{name}/clean"), clean_traces);
        report.push(format!("{name}/clean"), clean_entry);

        for &intensity in &intensities {
            let plan = FaultPlan::chaos(seed ^ (intensity * 16.0) as u64, intensity);
            let faulted = runner.clone().faulted(plan);
            let MdWorld {
                records: guarded_recs,
                recoveries,
                entry: guarded_entry,
                traces: guarded_traces,
                ..
            } = run(&faulted, true);
            let MdWorld {
                records: general_recs, entry: general_entry, traces: general_traces, ..
            } = run(&faulted, false);
            timeline.push(format!("{name}/i{intensity}/guarded"), guarded_traces);
            timeline.push(format!("{name}/i{intensity}/general"), general_traces);

            // Zero correctness deviations: the guards and the recovery loop
            // fully mask the faults — both faulted trajectories reproduce
            // the clean one bit for bit, at every step.
            for (c, g) in clean_recs.iter().zip(&guarded_recs) {
                assert_eq!(
                    c.energy.to_bits(),
                    g.energy.to_bits(),
                    "{name} intensity {intensity}: guarded energy deviates at step {}",
                    c.step
                );
                assert_eq!(c.max_move.to_bits(), g.max_move.to_bits());
            }
            for (c, g) in clean_recs.iter().zip(&general_recs) {
                assert_eq!(
                    c.energy.to_bits(),
                    g.energy.to_bits(),
                    "{name} intensity {intensity}: general energy deviates at step {}",
                    c.step
                );
            }

            let guarded = guarded_entry.makespan;
            let general = general_entry.makespan;
            let ratio = guarded / general;
            let (faults, timeouts) =
                (guarded_entry.totals.faults_injected, guarded_entry.totals.timeouts);
            outln!("{name:<14} {intensity:>9} {:>13} {:>13} {:>13} {:>6.2}x {faults:>7} {recoveries:>9} {timeouts:>9}",
                fmt_secs(clean_makespan),
                fmt_secs(guarded),
                fmt_secs(general),
                ratio,
            );
            report.push(format!("{name}/i{intensity}/guarded"), guarded_entry);
            report.push(format!("{name}/i{intensity}/general"), general_entry);

            // The degradation bound: guarded fallback never costs more than
            // twice the always-general path under the same faults.
            assert!(
                guarded <= 2.0 * general,
                "{name} intensity {intensity}: guarded makespan {guarded} s exceeds \
                 2x the always-general path ({general} s)"
            );
        }
    }

    let path = report.write("chaos");
    outln!();
    timeline.finish();
    report_summary(&path, &report);
}
