//! Supervised campaign sweep: many simulation configurations run
//! concurrently under the `campaign` crate's worker pool, with panic
//! isolation, per-run deadlines, bounded retry and crash-safe resume.
//!
//! The sweep mixes the repository's benchmark families into one campaign of
//! 25 configurations:
//!
//! * **fig8-style MD runs** — both machine models x both solvers x both
//!   redistribution methods.
//! * **plancache runs** — the movement-exploiting P2NFFT path, whose
//!   communication plans are kept across time steps.
//! * **chaos runs** — the same MD workload under [`simcomm::FaultPlan::chaos`]
//!   at three intensities (faults delay, never corrupt).
//! * **straggler runs** — a 4x compute straggler on rank 0, which slows a
//!   run in *virtual* time but completes normally.
//! * **injected failures** — one config whose world panics on every attempt
//!   (`fault/panic`) and one that stalls in host time until the wall-clock
//!   deadline retires it (`fault/hang`). Both exhaust their retry budget and
//!   become typed failure records in the report; the campaign never aborts.
//! * **flaky runs** — `flaky/retry` fails its first attempt with an injected
//!   panic and then runs clean; the harness asserts its payload is **bitwise
//!   identical** to the never-faulted `clean/retry-twin` (retries are
//!   seed-stable). `flaky/checkpoint` checkpoints every rank durably at the
//!   halfway step before failing, and its retry resumes from the
//!   `mdsim::io::Snapshot` files — the in-world assertions hold the resumed
//!   trajectory to the uninterrupted one.
//!
//! Campaign state is journaled under `--dir`; killing this process (or using
//! `--halt-after N`, which exits with code 3) and re-running the same
//! command resumes: completed runs are reused from their durable payloads,
//! in-flight runs re-execute. Because every payload is a deterministic
//! function of its config, the aggregated report written after a resume is
//! **byte-identical** to one from an uninterrupted campaign — CI enforces
//! this with `cmp`.
//!
//! Writes `results/campaign_report.json` (run-report schema, one entry per
//! completed run, `failed:<name>` params for the failure records).

use std::path::PathBuf;
use std::time::Duration;

use bench::cli::{Cli, Opt};
use bench::json::Json;
use bench::{banner, fmt_secs, report_summary, RunEntry, RunReport};
use campaign::{run_campaign, Policy, RunCtx, RunDef, RunOutcome};
use fcs::SolverKind;
use mdsim::io::Snapshot;
use mdsim::{simulate, simulate_from, SimConfig};
use particles::{local_set, InitialDistribution, IonicCrystal};
use simcomm::{CartGrid, FaultPlan, MachineModel, Runner, WorldError};

/// Short machine label ("juropa-like") for run names.
fn short_name(model: &MachineModel) -> &str {
    model.name.split_whitespace().next().unwrap_or(&model.name)
}

/// One MD workload: everything `bench::try_run_md_world` needs besides the
/// shared crystal.
#[derive(Clone)]
struct MdSpec {
    model: MachineModel,
    procs: usize,
    cfg: SimConfig,
    fault: Option<FaultPlan>,
}

/// What a campaign run does when a worker claims it.
enum Kind {
    /// A straight MD run; the payload is the serialized report entry.
    Md(MdSpec),
    /// A world whose rank 2 panics on every attempt (terminal failure).
    Panic,
    /// A world that stalls in host time; the wall-clock deadline retires it
    /// on every attempt (terminal failure).
    Hang {
        /// Per-attempt wall-clock limit handed to `Runner::deadline`.
        deadline: Duration,
    },
    /// Panics on attempt 1, runs the MD spec cleanly from attempt 2 on.
    FlakyRetry(MdSpec),
    /// Checkpoints all ranks durably at the halfway step and fails attempt
    /// 1; attempt 2 resumes from the snapshots and verifies the physics
    /// against an uninterrupted twin run in the same world.
    Checkpoint(MdSpec),
}

/// Run one MD workload and serialize its report entry as the payload.
fn md_payload(spec: &MdSpec, crystal: &IonicCrystal) -> Result<String, WorldError> {
    let runner = Runner::default().faulted(spec.fault.clone().unwrap_or_else(FaultPlan::none));
    let (model, dist) = (spec.model.clone(), InitialDistribution::Grid);
    let world = bench::try_run_md_world(&runner, model, spec.procs, crystal, dist, &spec.cfg)?;
    Ok(world.entry.to_json().pretty())
}

/// A tiny world that panics on one rank — the injected transient/terminal
/// fault used by the `fault/panic` and `flaky/retry` configs. Always returns
/// the typed [`WorldError::RankPanic`].
fn panicking_world(rank: usize, message: &'static str) -> WorldError {
    let res: Result<simcomm::RunOutput<()>, WorldError> =
        Runner::default().try_run(4, MachineModel::ideal(), move |comm| {
            if comm.rank() == rank {
                panic!("{message}");
            }
            comm.barrier();
        });
    match res {
        Ok(_) => unreachable!("the injected rank panic must fail the world"),
        Err(e) => e,
    }
}

/// The `fault/hang` world: every rank sleeps and synchronizes for ever — a
/// host-time stall with virtual time advancing, so there is no deadlock to
/// detect and only the deadline watchdog can retire it.
fn hung_world(deadline: Duration) -> WorldError {
    let res: Result<simcomm::RunOutput<()>, WorldError> =
        Runner::default().deadline(Some(deadline)).try_run(2, MachineModel::ideal(), |comm| loop {
            std::thread::sleep(Duration::from_millis(2));
            comm.barrier();
        });
    match res {
        Ok(_) => unreachable!("the hung world must be retired by the deadline"),
        Err(e) => e,
    }
}

/// The `flaky/checkpoint` run: attempt 1 simulates the first half, durably
/// snapshots every rank into the run's scratch dir, then fails; attempts 2+
/// resume from the snapshots, and an uninterrupted twin run inside the same
/// world pins the resumed physics to the continuous trajectory.
fn checkpoint_run(
    spec: &MdSpec,
    crystal: &IonicCrystal,
    ctx: &RunCtx,
) -> Result<String, WorldError> {
    let half = spec.cfg.steps / 2;
    let rest = spec.cfg.steps - half;
    let dims = CartGrid::balanced(spec.procs).dims();
    let bbox = crystal.system_box();
    let dir = ctx.dir.clone();
    let crystal = crystal.clone();
    let cfg_with = |steps: usize| SimConfig { steps, ..spec.cfg.clone() };
    let runner = Runner::default();
    if ctx.attempt == 1 {
        let cfg_half = cfg_with(half);
        let res: Result<simcomm::RunOutput<()>, WorldError> =
            runner.try_run(spec.procs, spec.model.clone(), move |comm| {
                let set =
                    local_set(&crystal, InitialDistribution::Grid, comm.rank(), comm.size(), dims);
                let first = simulate(comm, bbox, set, &cfg_half);
                let path = dir.join(format!("rank{}.snap", comm.rank()));
                first.final_state.save_durable(&path).expect("durable checkpoint write");
                // All ranks checkpoint before the fault fires, so the retry
                // always finds a complete snapshot set.
                comm.barrier();
                if comm.rank() == 0 {
                    panic!("injected post-checkpoint fault");
                }
            });
        match res {
            Ok(_) => unreachable!("attempt 1 must fail after checkpointing"),
            Err(e) => Err(e),
        }
    } else {
        let (cfg_rest, cfg_full) = (cfg_with(rest), cfg_with(spec.cfg.steps));
        let out = runner.try_run(spec.procs, spec.model.clone(), move |comm| {
            let path = dir.join(format!("rank{}.snap", comm.rank()));
            let snap = Snapshot::load(&path).expect("checkpoint read on retry");
            let resumed = simulate_from(comm, snap, &cfg_rest);
            // Uninterrupted twin in the same world: the resumed trajectory
            // must land on the identical particle state (the
            // checkpoint_restart integration test's discipline).
            let set =
                local_set(&crystal, InitialDistribution::Grid, comm.rank(), comm.size(), dims);
            let full = simulate(comm, bbox, set, &cfg_full);
            assert_eq!(full.final_state.id, resumed.final_state.id, "resumed ids diverged");
            assert_eq!(full.final_state.pos, resumed.final_state.pos, "resumed positions diverged");
            resumed.final_state.id.len()
        })?;
        Ok(RunEntry::from_run(&out).to_json().pretty())
    }
}

/// Build the 25-configuration campaign spec.
fn build_runs(
    steps: usize,
    procs: usize,
    seed: u64,
    tolerance: f64,
    hang: Duration,
) -> Vec<RunDef<Kind>> {
    let models = [MachineModel::juropa_like(), MachineModel::juqueen_like()];
    let base = |solver: SolverKind, resort: bool| SimConfig {
        solver,
        resort,
        steps,
        tolerance,
        dt: mdsim::suggested_dt(1.0, 1.0),
        track_displacement: true,
        ..SimConfig::default()
    };
    let mut runs = Vec::new();
    let mut md = |name: String, spec: MdSpec| {
        runs.push(RunDef { name, config: Kind::Md(spec) });
    };

    // fig8 family: model x solver x method.
    for model in &models {
        for (solver, tag) in [(SolverKind::Fmm, "fmm"), (SolverKind::P2Nfft, "p2nfft")] {
            for (resort, method) in [(false, "a"), (true, "b")] {
                md(
                    format!("fig8/{}/{tag}-{method}", short_name(model)),
                    MdSpec { model: model.clone(), procs, cfg: base(solver, resort), fault: None },
                );
            }
        }
    }

    // plancache family: the movement-exploiting path, plans kept.
    for model in &models {
        let cfg = SimConfig { exploit_movement: true, ..base(SolverKind::P2Nfft, true) };
        md(
            format!("plancache/{}/cache-on", short_name(model)),
            MdSpec { model: model.clone(), procs, cfg, fault: None },
        );
    }

    // chaos family: deterministic injected faults at three intensities.
    for model in &models {
        for intensity in [0.25f64, 0.5, 1.0] {
            let plan = FaultPlan::chaos(seed ^ (intensity * 16.0) as u64, intensity);
            let cfg = SimConfig { exploit_movement: true, ..base(SolverKind::P2Nfft, true) };
            md(
                format!("chaos/{}/i{intensity}", short_name(model)),
                MdSpec { model: model.clone(), procs, cfg, fault: Some(plan) },
            );
        }
    }

    // straggler family: rank 0 computes 4x slower — slow in virtual time,
    // still a clean completion (the campaign must NOT retire it).
    for model in &models {
        let plan =
            FaultPlan { straggler_ranks: vec![0], straggler_factor: 4.0, ..FaultPlan::none() };
        md(
            format!("straggler/{}", short_name(model)),
            MdSpec {
                model: model.clone(),
                procs,
                cfg: base(SolverKind::Fmm, true),
                fault: Some(plan),
            },
        );
    }

    // wide family: double the rank count.
    for model in &models {
        md(
            format!("wide/{}", short_name(model)),
            MdSpec {
                model: model.clone(),
                procs: procs * 2,
                cfg: base(SolverKind::P2Nfft, true),
                fault: None,
            },
        );
    }

    // Injected terminal failures: exactly these two must fail.
    runs.push(RunDef { name: "fault/panic".into(), config: Kind::Panic });
    runs.push(RunDef { name: "fault/hang".into(), config: Kind::Hang { deadline: hang } });

    // Flaky pair: the retried run must be bitwise identical to its
    // never-faulted twin.
    let twin =
        MdSpec { model: models[0].clone(), procs, cfg: base(SolverKind::Fmm, true), fault: None };
    runs.push(RunDef { name: "flaky/retry".into(), config: Kind::FlakyRetry(twin.clone()) });
    runs.push(RunDef { name: "clean/retry-twin".into(), config: Kind::Md(twin) });

    // Mid-run checkpoint resume.
    runs.push(RunDef {
        name: "flaky/checkpoint".into(),
        config: Kind::Checkpoint(MdSpec {
            model: models[0].clone(),
            procs: 4,
            cfg: SimConfig { steps: steps.max(2) * 2, ..base(SolverKind::P2Nfft, true) },
            fault: None,
        }),
    });

    runs
}

/// The completed payload of a named run, if any.
fn payload_of<'a>(rows: &'a [campaign::RunRow], name: &str) -> Option<&'a str> {
    rows.iter().find(|r| r.name == name).and_then(|r| match &r.outcome {
        Some(RunOutcome::Completed { payload, .. }) => Some(payload.as_str()),
        _ => None,
    })
}

fn main() {
    let cli = Cli::parse(
        "campaign",
        "supervised campaign: concurrent runs, retries, deadlines, crash-safe resume",
        &[
            Opt::new(
                "dir",
                "PATH",
                "campaign state dir: journal, payloads, scratch (default results/campaign)",
            ),
            Opt::new(
                "out",
                "PATH",
                "aggregated report path (default results/campaign_report.json)",
            ),
            Opt::flag("fresh", "delete the campaign dir first (no resume)"),
            Opt::new("workers", "N", "concurrent worker threads (default 4)"),
            Opt::new("attempts", "N", "max attempts per run (default 3)"),
            Opt::new("backoff-ms", "MS", "base retry backoff, doubled per attempt (default 10)"),
            Opt::new(
                "hang-ms",
                "MS",
                "wall-clock deadline for the fault/hang config (default 400)",
            ),
            Opt::new(
                "halt-after",
                "N",
                "stop after N terminal runs and exit 3 (crash injection; 0 = off)",
            ),
            Opt::new("cells", "N", "crystal cells per dimension (default 4)"),
            Opt::new("steps", "N", "time steps per MD run (default 3)"),
            Opt::new("procs", "P", "simulated process count per MD run (default 8)"),
            Opt::new("seed", "S", "crystal + fault seed (default 11)"),
            Opt::new("tolerance", "T", "solver tolerance (default 1e-2)"),
        ],
        &[],
    );
    let dir = PathBuf::from(cli.get("dir", "results/campaign".to_string()));
    let out_path = cli.get("out", "results/campaign_report.json".to_string());
    let workers: usize = cli.get("workers", 4);
    let attempts: u32 = cli.get("attempts", 3);
    let backoff_ms: u64 = cli.get("backoff-ms", 10);
    let hang_ms: u64 = cli.get("hang-ms", 400);
    let halt_after: usize = cli.get("halt-after", 0);
    let cells: usize = cli.get("cells", 4);
    let steps: usize = cli.get("steps", 3);
    let procs: usize = cli.get("procs", 8);
    let seed: u64 = cli.get("seed", 11);
    let tolerance: f64 = cli.get("tolerance", 1e-2);

    if cli.flag("fresh") {
        std::fs::remove_dir_all(&dir).ok();
    }

    let mut crystal = IonicCrystal::cubic(cells, 1.0, 0.0, seed);
    crystal.jitter = 0.15 * crystal.spacing;
    let hang = Duration::from_millis(hang_ms);
    let runs = build_runs(steps, procs, seed, tolerance, hang);

    banner(
        "Campaign — supervised concurrent sweep with retries, deadlines and resume",
        &format!(
            "{} configurations ({} particles, {procs} procs, {steps} steps), \
             {workers} workers, {attempts} attempts, state in {}",
            runs.len(),
            crystal.n(),
            dir.display()
        ),
    );

    let policy = Policy {
        workers,
        max_attempts: attempts,
        backoff: Duration::from_millis(backoff_ms),
        deadline: None,
        halt_after: if halt_after == 0 { None } else { Some(halt_after) },
    };
    let crystal_ref = &crystal;
    let outcome = run_campaign(&dir, &policy, &runs, |kind: &Kind, ctx: &RunCtx| match kind {
        Kind::Md(spec) => md_payload(spec, crystal_ref),
        Kind::Panic => Err(panicking_world(2, "injected campaign fault")),
        Kind::Hang { deadline } => Err(hung_world(*deadline)),
        Kind::FlakyRetry(spec) => {
            if ctx.attempt == 1 {
                Err(panicking_world(1, "injected transient fault"))
            } else {
                md_payload(spec, crystal_ref)
            }
        }
        Kind::Checkpoint(spec) => checkpoint_run(spec, crystal_ref, ctx),
    })
    .unwrap_or_else(|e| {
        eprintln!("campaign: {e}");
        std::process::exit(1);
    });

    if outcome.halted {
        let done = outcome.runs.iter().filter(|r| r.outcome.is_some()).count();
        println!(
            "campaign halted after {done}/{} terminal runs ({} executed here, {} reused); \
             re-run the same command without --halt-after to resume",
            outcome.runs.len(),
            outcome.executed,
            outcome.reused
        );
        std::process::exit(3);
    }

    // Aggregate: one report entry per completed run (parsed back from the
    // durable payload so the fresh and resumed paths are identical), one
    // `failed:<name>` param per failure record. Nothing wall-clock-dependent
    // enters the report — a resumed campaign writes identical bytes.
    let mut report = RunReport::new("campaign", "mixed");
    report.param("configs", runs.len());
    report.param("cells", cells);
    report.param("steps", steps);
    report.param("procs", procs);
    report.param("seed", seed);
    report.param("tolerance", tolerance);
    report.param("hang_ms", hang_ms);

    println!("{:<28} {:>10} {:>9} {:>14}", "run", "status", "attempts", "makespan");
    let mut failures: Vec<(String, String)> = Vec::new();
    for row in &outcome.runs {
        match row.outcome.as_ref().expect("non-halted campaign has only terminal rows") {
            RunOutcome::Completed { payload, attempts, .. } => {
                let v = Json::parse(payload)
                    .unwrap_or_else(|e| panic!("payload of {} is not JSON: {e}", row.name));
                let entry = RunEntry::from_json(&v)
                    .unwrap_or_else(|e| panic!("payload of {} is not a run entry: {e}", row.name));
                println!(
                    "{:<28} {:>10} {:>9} {:>14}",
                    row.name,
                    "ok",
                    attempts,
                    fmt_secs(entry.makespan)
                );
                if *attempts > 1 {
                    report.param(&format!("attempts:{}", row.name), attempts);
                }
                report.push(row.name.clone(), entry);
            }
            RunOutcome::Failed { kind, detail, attempts, .. } => {
                println!("{:<28} {:>10} {:>9} {:>14}", row.name, kind.as_str(), attempts, "-");
                failures.push((row.name.clone(), kind.clone()));
                report.param(
                    &format!("failed:{}", row.name),
                    format!("{kind} after {attempts} attempts: {detail}"),
                );
            }
        }
    }

    // Exactly the two injected terminal failures — a straggler or chaos run
    // being retired would show up here and fail the sweep.
    let mut failed_names: Vec<&str> = failures.iter().map(|(n, _)| n.as_str()).collect();
    failed_names.sort_unstable();
    assert_eq!(
        failed_names,
        ["fault/hang", "fault/panic"],
        "expected exactly the two injected failures, got {failures:?}"
    );
    for (name, kind) in &failures {
        let expect = if name == "fault/panic" { "panic" } else { "deadline" };
        assert_eq!(kind, expect, "{name}: wrong failure class");
    }

    // Seed-stable retry: the retried run's payload is bitwise identical to
    // its never-faulted twin's.
    let retried = payload_of(&outcome.runs, "flaky/retry").expect("flaky/retry completed");
    let twin = payload_of(&outcome.runs, "clean/retry-twin").expect("twin completed");
    assert_eq!(
        retried.as_bytes(),
        twin.as_bytes(),
        "retried run payload differs from its unfaulted twin"
    );

    let json = report.to_json().pretty();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!(
        "\n{} completed ({} reused from journal, {} executed), {} failure records",
        outcome.completed().count(),
        outcome.reused,
        outcome.executed,
        failures.len()
    );
    report_summary(out_path.as_ref(), &report);
}
