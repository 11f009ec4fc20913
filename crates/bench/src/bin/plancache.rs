//! Plan-cache benchmark: kept communication plans in the full fig8-style MD
//! loop, on both machine models:
//!
//! * **MD timestep loop** (`md/planned`, the fig8 workload at reduced scale):
//!   the melting-crystal simulation (P2NFFT solver, Method B resort, movement
//!   exploitation, process-grid initial distribution), whose ghost routes,
//!   sort probe schedules and resort schedules persist across timesteps and
//!   are re-executed while the accumulated movement stays under the plan's
//!   validity bound.
//!
//! Two unplanned redistribution families ride along on the same `procs`:
//!
//! * **Neighbourhood exchange** (`exchange/*`): every rank sends a 4 KiB
//!   message to each of the 26 ranks nearest to it on a ring, as the
//!   nonblocking [`simcomm::Comm::neighbor_exchange`] (drained in arrival
//!   order) and, for reference, as the collective `alltoallv`; and as the
//!   sparse [`simcomm::Comm::sparse_exchange`] with 0, 1 or all 26 partners
//!   given a message (`exchange/sparse-{0,1,26}`).
//! * **Multi-field resort** (`resort/*`, the `fcs_resort_*` path): three
//!   per-particle fields of 2000 elements per rank, routed as three
//!   sequential single-field resorts (`per-field`) or in one combined byte
//!   exchange round (`combined`, [`atasp::resort_planes`] over a three-plane
//!   [`particles::PlaneSet`]).
//!
//! The MD workload is sized so the tuned short-range cutoff stays below the
//! domain-cell width (`procs 64`, `cells 16`), giving the ghost-plan cache a
//! positive skin margin to absorb particle movement.
//!
//! Writes `results/plancache_report.json` (the run-report schema), and
//! fails loudly if the MD run builds or executes no plan.

use atasp::{encode_index, resort, resort_planes, ExchangeMode};
use bench::cli::{Cli, Opt, OBS_OPTS};
use bench::{
    banner, fmt_secs, record_run, report_summary, MdWorld, RunReport, Selftime, SelftimeRow,
    TimelineSink,
};
use fcs::SolverKind;
use mdsim::SimConfig;
use particles::{InitialDistribution, IonicCrystal, PlaneSet, Vec3};
use simcomm::{CartGrid, Comm, MachineModel, Runner};

/// Payload of one message of the `exchange/*` runs.
const EXCHANGE_BYTES: usize = 4096;

/// Elements per rank of each field of the `resort/*` runs.
const RESORT_ELEMS: usize = 2000;

/// Short machine label ("juropa-like") for run labels and table rows.
fn short_name(model: &MachineModel) -> &str {
    model.name.split_whitespace().next().unwrap_or(&model.name)
}

const TAG_GHOSTS: u64 = 0x706c_616e;

/// Symmetric ring neighbourhood of `reach` ranks on each side (the 26
/// distinct partners of a 3×3×3 stencil when `reach` is 13).
fn ring_partners(comm: &Comm, reach: usize) -> Vec<usize> {
    let (me, p) = (comm.rank(), comm.size());
    let mut partners: Vec<usize> =
        (1..=reach).flat_map(|d| [(me + d) % p, (me + p - d) % p]).filter(|&q| q != me).collect();
    partners.sort_unstable();
    partners.dedup();
    partners
}

/// The `exchange/*` runs: one 26-partner round of [`EXCHANGE_BYTES`]
/// messages, point to point and as a collective.
fn exchange_workloads(
    model: &MachineModel,
    procs: usize,
    analyze: bool,
    report: &mut RunReport,
    timeline: &mut TimelineSink,
) {
    let runner = Runner::default().traced(analyze);
    let payloads = |partners: &[usize]| -> Vec<(usize, Vec<u8>)> {
        partners.iter().map(|&q| (q, vec![0u8; EXCHANGE_BYTES])).collect()
    };
    let nonblocking = runner.run(procs, model.clone(), |comm| {
        let partners = ring_partners(comm, 13);
        let _ = comm.neighbor_exchange(&partners, payloads(&partners), 1);
    });
    let collective = runner.run(procs, model.clone(), |comm| {
        let partners = ring_partners(comm, 13);
        let _ = comm.alltoallv(payloads(&partners));
    });
    let name = short_name(model);
    println!(
        "{name:<14} {:<14} nonblocking {:>12}  alltoallv {:>12}",
        "exchange",
        fmt_secs(nonblocking.makespan()),
        fmt_secs(collective.makespan())
    );
    record_run(format!("{name}/exchange/nonblocking"), nonblocking, report, timeline);
    record_run(format!("{name}/exchange/alltoallv"), collective, report, timeline);
    // The sparse exchange over the same neighbourhood, with 0, 1 and all 26
    // partners given a message — the next ranks up the ring, so every rank
    // also receives that many: what NBX's barrier costs against what the
    // messages it does not send save.
    for full in [0, 1, 26] {
        let sparse = runner.run(procs, model.clone(), move |comm| {
            let (me, p) = (comm.rank(), comm.size());
            let partners = ring_partners(comm, 13);
            let mut sends = payloads(&partners);
            sends.sort_by_key(|&(q, _)| (q + p - me) % p);
            sends.truncate(full);
            let _ = comm.sparse_exchange(&partners, sends);
        });
        let makespan = fmt_secs(sparse.makespan());
        println!("{name:<14} {:<14} {full:>2} partners {makespan:>12}", "exchange/sparse");
        record_run(format!("{name}/exchange/sparse-{full}"), sparse, report, timeline);
    }
}

/// The `resort/*` runs: three fields of [`RESORT_ELEMS`] elements per rank,
/// every rank's block rotated to the next rank with positions reversed,
/// resorted one field at a time and all three in one round.
fn resort_workloads(
    model: &MachineModel,
    procs: usize,
    analyze: bool,
    report: &mut RunReport,
    timeline: &mut TimelineSink,
) {
    let runner = Runner::default().traced(analyze);
    let elems = RESORT_ELEMS;
    let indices = |comm: &Comm| -> Vec<u64> {
        let dst = (comm.rank() + 1) % comm.size();
        (0..elems).map(|i| encode_index(dst, elems - 1 - i)).collect()
    };
    let fields = |comm: &Comm| -> [Vec<f64>; 3] {
        let base = (comm.rank() * elems) as f64;
        let a: Vec<f64> = (0..elems).map(|i| base + i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 0.25).collect();
        let c: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
        [a, b, c]
    };
    let per_field = runner.run(procs, model.clone(), |comm| {
        let ix = indices(comm);
        let [a, b, c] = fields(comm);
        for ch in [&a, &b, &c] {
            let _ = resort(comm, ch, &ix, elems, &ExchangeMode::Collective);
        }
    });
    let combined = runner.run(procs, model.clone(), |comm| {
        let ix = indices(comm);
        let [a, b, c] = fields(comm);
        let mut set = PlaneSet::new();
        for (name, data) in [("a", &a), ("b", &b), ("c", &c)] {
            let id = set.register::<f64>(name);
            set.resize(data.len());
            set.plane_mut::<f64>(id).copy_from_slice(data);
        }
        let mut plan = None;
        resort_planes(comm, &mut set, &ix, elems, &ExchangeMode::Collective, &mut plan);
    });
    let name = short_name(model);
    println!(
        "{name:<14} {:<14} per-field {:>14}  combined {:>13}",
        "resort",
        fmt_secs(per_field.makespan()),
        fmt_secs(combined.makespan())
    );
    record_run(format!("{name}/resort/per-field"), per_field, report, timeline);
    record_run(format!("{name}/resort/combined"), combined, report, timeline);
}

/// `n` records in three planes of different element sizes (`vel`, `charge`,
/// `tag`), each record's values derived from its index.
fn three_planes(n: usize) -> PlaneSet {
    let mut set = PlaneSet::new();
    let vel = set.register::<Vec3>("vel");
    let charge = set.register::<f64>("charge");
    let tag = set.register::<u64>("tag");
    set.resize(n);
    for i in 0..n {
        set.plane_mut::<Vec3>(vel)[i] = Vec3::splat(i as f64);
        set.plane_mut::<f64>(charge)[i] = i as f64 * 0.5;
        set.plane_mut::<u64>(tag)[i] = i as u64;
    }
    set
}

fn main() {
    let cli = Cli::parse(
        "plancache",
        "persistent communication-plan cache: hit rates and steady-state allocations",
        &[
            Opt::new("cells", "N", "crystal cells per dimension (default 16)"),
            Opt::new("procs", "P", "simulated process count (default 64)"),
            Opt::new("steps", "N", "time steps (default 30)"),
            Opt::new("tolerance", "T", "solver tolerance (default 1e-2)"),
            Opt::new("seed", "S", "crystal perturbation seed (default 1)"),
            Opt::new("jitter", "J", "initial lattice jitter fraction (default 0.15)"),
        ],
        OBS_OPTS,
    );
    let cells: usize = cli.get("cells", 16);
    let procs: usize = cli.get("procs", 64);
    let steps: usize = cli.get("steps", 30);
    let tolerance: f64 = cli.get("tolerance", 1e-2);
    let seed: u64 = cli.get("seed", 1);
    let jitter: f64 = cli.get("jitter", 0.15);
    let mut timeline = cli.timeline();
    let analyze = cli.analyze(&timeline);
    let runner = Runner::default().traced(analyze);

    let mut crystal = IonicCrystal::paper_like(cells, seed);
    crystal.jitter = jitter * crystal.spacing;
    let dt = mdsim::suggested_dt(crystal.spacing, 1.0);
    banner(
        "Plan cache — kept communication plans in the MD loop",
        &format!(
            "MD: {} particles (cells {cells}), {procs} processes, {steps} steps, \
             P2NFFT + Method B resort, tolerance {tolerance:e}; exchange: 26 partners x \
             {EXCHANGE_BYTES} B; resort: {RESORT_ELEMS} elements x 3 fields per rank",
            crystal.n()
        ),
    );

    let mut selftime = Selftime::start();
    let mut report = RunReport::new("plancache", "mixed");
    report.param("cells", cells);
    report.param("procs", procs);
    report.param("steps", steps);
    report.param("tolerance", tolerance);
    report.param("seed", seed);
    report.param("jitter", jitter);

    println!("{:<14} {:<14} {:>14} {:>20}", "machine", "workload", "makespan", "plan reuse");
    for model in [MachineModel::juropa_like(), MachineModel::juqueen_like()] {
        let name = short_name(&model);

        // --- MD timestep loop ---
        let cfg = SimConfig {
            solver: SolverKind::P2Nfft,
            resort: true,
            exploit_movement: true,
            steps,
            tolerance,
            dt,
            ..SimConfig::default()
        };
        let dist = InitialDistribution::Grid;
        let MdWorld { entry, traces, .. } =
            bench::try_run_md_world(&runner, model.clone(), procs, &crystal, dist, &cfg)
                .expect("MD world");
        selftime.lap_steps(&format!("run:{name}/md/planned"), steps as u64);
        timeline.push(format!("{name}/md/planned"), traces);

        let (builds, execs) = (entry.totals.plan_builds, entry.totals.plan_execs);
        let reuse = 100.0 * execs as f64 / ((builds + execs) as f64).max(1.0);
        println!(
            "{name:<14} {:<14} {:>14} {:>7} builds {:>5.1}%",
            "md-loop",
            fmt_secs(entry.makespan),
            builds,
            reuse
        );
        report.push(format!("{name}/md/planned"), entry);
        assert!(
            builds > 0 && execs > 0,
            "{}: planned MD run recorded no plan builds/executions — the \
             cache never engaged",
            model.name
        );

        // --- Unplanned redistribution: exchange and resort ---
        exchange_workloads(&model, procs, analyze, &mut report, &mut timeline);
        resort_workloads(&model, procs, analyze, &mut report, &mut timeline);
        selftime.lap(&format!("run:{name}/exchange+resort"));
    }

    // --- Steady-state allocation probe ---
    // The zero-per-step-allocation claim of the byte-plane resort path,
    // measured directly: one rank, a frozen `ResortPlan` over an all-local
    // permutation, three heterogeneous planes. After warm-up (plan built,
    // slabs and pooled buffers at their high-water sizes) the probe loop
    // must not touch the allocator at all — `commstats --check
    // --alloc-budget steady-resort=0,steady-exchange=1` holds both lines in
    // CI.
    let probe_steps = 64u64;
    let probe = Runner::default().run(1, MachineModel::ideal(), move |comm| {
        let n = 2048usize;
        let mut set = three_planes(n);
        // A fixed permutation (1031 is odd, so coprime with 2048): every
        // element moves every step, all of it rank-local.
        let ix: Vec<u64> = (0..n).map(|i| encode_index(0, (i * 1031) % n)).collect();
        let mode = ExchangeMode::Neighborhood(Vec::new());
        let mut plan = None;
        for _ in 0..4 {
            resort_planes(comm, &mut set, &ix, n, &mode, &mut plan);
        }
        let t0 = std::time::Instant::now();
        let (a0, b0) = bench::alloc_counters();
        for _ in 0..probe_steps {
            resort_planes(comm, &mut set, &ix, n, &mode, &mut plan);
        }
        let (a1, b1) = bench::alloc_counters();
        (a1 - a0, b1 - b0, t0.elapsed().as_secs_f64())
    });
    let (probe_allocs, probe_bytes, probe_wall) = probe.results[0];

    // The same path with real messages: a warm 27-rank torus world, where a
    // rank's 26 neighbours are all the other ranks. Share `k` of every
    // rank's records goes to rank `k` — 26 shares over the byte exchange,
    // one kept — into the slot of its sender, counted on rank 0's thread
    // (`steady-resort-neighbourhood=0`).
    let neighbourhood = Runner::default().run(27, MachineModel::juqueen_like(), move |comm| {
        let (me, p) = (comm.rank(), comm.size());
        let share = 64;
        let n = share * p;
        let mut set = three_planes(n);
        let ix: Vec<u64> =
            (0..n).map(|i| encode_index(i / share, me * share + i % share)).collect();
        let mode = ExchangeMode::Neighborhood(CartGrid::balanced(p).neighbors26(me));
        let mut plan = None;
        for _ in 0..4 {
            resort_planes(comm, &mut set, &ix, n, &mode, &mut plan);
        }
        let t0 = std::time::Instant::now();
        let (a0, b0) = bench::thread_alloc_counters();
        for _ in 0..probe_steps {
            resort_planes(comm, &mut set, &ix, n, &mode, &mut plan);
        }
        let (a1, b1) = bench::thread_alloc_counters();
        (a1 - a0, b1 - b0, t0.elapsed().as_secs_f64())
    });
    let (neighbourhood_allocs, neighbourhood_bytes, neighbourhood_wall) = neighbourhood.results[0];

    // The typed neighbourhood exchange's budget, the same way: a warm
    // 27-rank torus world (3 x 3 x 3, so every rank has 26 distinct
    // neighbours), `Vec<u64>` payloads, and rank 0's own allocations around
    // the loop — every rank is its own host thread. Payloads are staged
    // before the counted region, so what remains is the call itself: the
    // returned `Vec`, one allocation per step (`--alloc-budget
    // steady-exchange=1`). Envelopes, request kinds, match state and the
    // completion schedule are all recycled.
    let exchange = Runner::default().run(27, MachineModel::juqueen_like(), move |comm| {
        let partners = CartGrid::balanced(comm.size()).neighbors26(comm.rank());
        let me = comm.rank() as u64;
        let payloads =
            || partners.iter().map(|&q| (q, vec![me; 32])).collect::<Vec<(usize, Vec<u64>)>>();
        // Two rounds posted before either is received put 52 messages into
        // every mailbox — the most one can ever hold, since a neighbour is at
        // most one step ahead — so no queue or envelope list grows later, at
        // any host width.
        let mut requests = Vec::new();
        for round in 0..2 {
            requests.extend(partners.iter().map(|&q| comm.irecv::<u64>(q, TAG_GHOSTS + round)));
        }
        for round in 0..2 {
            for (q, buf) in payloads() {
                requests.push(comm.isend(q, TAG_GHOSTS + round, buf));
            }
        }
        let _ = comm.waitall(requests);
        let mut staged: Vec<_> = (0..probe_steps + 2).map(|_| payloads()).collect();
        for _ in 0..2 {
            let _ = comm.neighbor_exchange(&partners, staged.pop().expect("staged"), TAG_GHOSTS);
        }
        let t0 = std::time::Instant::now();
        let (a0, b0) = bench::thread_alloc_counters();
        while let Some(data) = staged.pop() {
            std::hint::black_box(comm.neighbor_exchange(&partners, data, TAG_GHOSTS));
        }
        let (a1, b1) = bench::thread_alloc_counters();
        (a1 - a0, b1 - b0, t0.elapsed().as_secs_f64())
    });
    let (exchange_allocs, exchange_bytes, exchange_wall) = exchange.results[0];

    // The collectives' budgets, on the same 27-rank world and again as rank
    // 0's own allocations around warm loops: deposit and result envelopes
    // stay in the collective slots and are refilled in place, so an
    // `allreduce` allocates nothing (`steady-allreduce=0`; `u64` and `f64`
    // alternate, one type per slot), an `allgather` only the `Vec` it
    // returns (`steady-allgather=1`), and a six-partner sparse `alltoallv`
    // — payloads staged before the counted region — only the list it
    // returns (`steady-alltoallv=1`): no box per destination, no collected
    // bin.
    let collectives = Runner::default().run(27, MachineModel::juqueen_like(), move |comm| {
        let faces = CartGrid::balanced(comm.size()).neighbors6(comm.rank());
        let me = comm.rank();
        let counted = |comm: &mut Comm, body: &mut dyn FnMut(&mut Comm)| {
            for _ in 0..2 {
                body(comm);
            }
            let t0 = std::time::Instant::now();
            let (a0, b0) = bench::thread_alloc_counters();
            for _ in 0..probe_steps {
                body(comm);
            }
            let (a1, b1) = bench::thread_alloc_counters();
            (a1 - a0, b1 - b0, t0.elapsed().as_secs_f64())
        };
        let allreduce = counted(comm, &mut |comm| {
            std::hint::black_box(comm.allreduce(me as u64, |a, b| a + b));
            std::hint::black_box(comm.allreduce(me as f64, |a, b| a + b));
        });
        let allgather = counted(comm, &mut |comm| {
            std::hint::black_box(comm.allgather(me));
        });
        let mut staged: Vec<Vec<(usize, Vec<u64>)>> = (0..probe_steps + 2)
            .map(|_| faces.iter().map(|&q| (q, vec![me as u64; 32])).collect())
            .collect();
        let alltoallv = counted(comm, &mut |comm| {
            std::hint::black_box(comm.alltoallv(staged.pop().expect("staged")));
        });
        // The flat form of the same exchange: the payload is one staged
        // block, what is received lands in kept buffers — nothing at all
        // (`steady-alltoallv-flat=0`).
        let segments: Vec<(usize, usize)> = faces.iter().map(|&q| (q, 32)).collect();
        let (mut recv, mut sources) = (Vec::new(), Vec::new());
        let mut staged: Vec<Vec<u64>> =
            (0..probe_steps + 2).map(|_| vec![me as u64; 32 * faces.len()]).collect();
        let flat = counted(comm, &mut |comm| {
            comm.alltoallv_flat(staged.pop().expect("staged"), &segments, &mut recv, &mut sources);
            std::hint::black_box(&recv);
        });
        // The flat form on a group: the 3 x 3 x 3 grid's planes, every
        // member to each of the other eight — again nothing at all
        // (`steady-group-alltoallv-flat=0`).
        let mut plane = comm.split((me / 9) as u32, me as u32);
        let peers: Vec<(usize, usize)> =
            plane.members().iter().filter(|&&q| q != me).map(|&q| (q, 32)).collect();
        let mut staged: Vec<Vec<u64>> =
            (0..probe_steps + 2).map(|_| vec![me as u64; 32 * peers.len()]).collect();
        let group_flat = counted(comm, &mut |comm| {
            let payload = staged.pop().expect("staged");
            plane.alltoallv_flat(comm, payload, &peers, &mut recv, &mut sources);
            std::hint::black_box(&recv);
        });
        // Both flat forms posted, computed over and waited: a posted
        // collective boxes nothing either (`steady-ialltoallv-flat=0`).
        let mut staged: Vec<(Vec<u64>, Vec<u64>)> = (0..probe_steps + 2)
            .map(|_| (vec![me as u64; 32 * faces.len()], vec![me as u64; 32 * peers.len()]))
            .collect();
        let nonblocking = counted(comm, &mut |comm| {
            let (world, group) = staged.pop().expect("staged");
            let request = comm.ialltoallv_flat(world, &segments);
            comm.advance(1e-6);
            request.wait(comm, None, &mut recv, &mut sources);
            let request = plane.ialltoallv_flat(comm, group, &peers);
            comm.advance(1e-6);
            request.wait(comm, Some(&mut plane), &mut recv, &mut sources);
            std::hint::black_box(&recv);
        });
        // Three deposit types with an odd period, so that every type meets
        // both slots after every other: the envelopes of the types not in use
        // wait on the rank's side and nothing is boxed again
        // (`steady-alternating-collectives=0`).
        let mut staged: Vec<Vec<(u64, [f64; 8])>> =
            (0..probe_steps + 8).map(|_| vec![(me as u64, [0.5; 8]); 32 * faces.len()]).collect();
        let mut wide = Vec::new();
        let mut round = 0;
        let mut one_of_three = |comm: &mut Comm| {
            match round % 3 {
                0 => drop(std::hint::black_box(comm.allreduce(me as u64, |a, b| a + b))),
                1 => {
                    let payload = staged.pop().expect("staged");
                    comm.alltoallv_flat(payload, &segments, &mut wide, &mut sources);
                }
                _ => drop(std::hint::black_box(
                    comm.allreduce((me % 2 == 0, true), |a, b| (a.0 && b.0, a.1 && b.1)),
                )),
            }
            round += 1;
        };
        // Warm: every type once in either slot.
        for _ in 0..6 {
            one_of_three(comm);
        }
        let alternating = counted(comm, &mut one_of_three);
        [allreduce, allgather, alltoallv, flat, group_flat, nonblocking, alternating]
    });
    let [allreduce_probe, allgather_probe, alltoallv_probe, flat_probe, group_flat_probe, nonblocking_probe, alternating_probe] =
        collectives.results[0];

    // One warm `mdsim` step per solver and method, as process-wide
    // allocations per rank-step: the difference between a `LONG`-step and a
    // `SHORT`-step run of the same world (the shorter trajectory is a prefix of
    // the longer one, so set-up, warm-up and plan builds cancel). The world
    // is the sparse regime of the figures — 27 particles per rank, where the
    // per-step fixed cost is what a step costs.
    let md_step_rows: Vec<SelftimeRow> = {
        const SHORT: usize = 4;
        const LONG: usize = 8;
        const RANKS: usize = 64;
        let crystal = IonicCrystal::paper_like(12, seed);
        let dt = mdsim::suggested_dt(crystal.spacing, 1.0);
        let methods = [("a", false, false), ("b", true, false), ("b+move", true, true)];
        let solvers = [("fmm", SolverKind::Fmm), ("p2nfft", SolverKind::P2Nfft)];
        let mut rows = Vec::new();
        for (solver_name, solver) in solvers {
            for (method, resort, exploit_movement) in methods {
                let measure = |steps: usize| {
                    let cfg = SimConfig {
                        solver,
                        resort,
                        exploit_movement,
                        steps,
                        tolerance,
                        dt,
                        ..SimConfig::default()
                    };
                    let t0 = std::time::Instant::now();
                    let (a0, b0) = bench::alloc_counters();
                    let (model, dist) = (MachineModel::juropa_like(), InitialDistribution::Grid);
                    bench::try_run_md_world(&Runner::default(), model, RANKS, &crystal, dist, &cfg)
                        .expect("MD world");
                    let (a1, b1) = bench::alloc_counters();
                    (a1 - a0, b1 - b0, t0.elapsed().as_secs_f64())
                };
                let (short, long) = (measure(SHORT), measure(LONG));
                rows.push(SelftimeRow {
                    name: format!("md-step/{solver_name}/{method}"),
                    wall_seconds: (long.2 - short.2).max(0.0),
                    allocs: long.0.saturating_sub(short.0),
                    alloc_bytes: long.1.saturating_sub(short.1),
                    steps: ((LONG - SHORT) * RANKS) as u64,
                });
            }
        }
        rows
    };

    selftime.lap("probe:setup+warmup");
    let mut selftime = selftime.rows();
    selftime.push(SelftimeRow {
        name: "steady-resort".into(),
        wall_seconds: probe_wall,
        allocs: probe_allocs,
        alloc_bytes: probe_bytes,
        steps: probe_steps,
    });
    selftime.push(SelftimeRow {
        name: "steady-resort-neighbourhood".into(),
        wall_seconds: neighbourhood_wall,
        allocs: neighbourhood_allocs,
        alloc_bytes: neighbourhood_bytes,
        steps: probe_steps,
    });
    selftime.push(SelftimeRow {
        name: "steady-exchange".into(),
        wall_seconds: exchange_wall,
        allocs: exchange_allocs,
        alloc_bytes: exchange_bytes,
        steps: probe_steps,
    });
    for (name, (allocs, alloc_bytes, wall_seconds)) in [
        ("steady-allreduce", allreduce_probe),
        ("steady-allgather", allgather_probe),
        ("steady-alltoallv", alltoallv_probe),
        ("steady-alltoallv-flat", flat_probe),
        ("steady-group-alltoallv-flat", group_flat_probe),
        ("steady-ialltoallv-flat", nonblocking_probe),
        ("steady-alternating-collectives", alternating_probe),
    ] {
        selftime.push(SelftimeRow {
            name: name.into(),
            wall_seconds,
            allocs,
            alloc_bytes,
            steps: probe_steps,
        });
    }
    selftime.extend(md_step_rows);
    println!("\nharness selftime (real wall-clock, process-wide heap allocations):");
    for row in &selftime {
        println!(
            "  {:<28} {:>10} wall  {:>12} allocs  {:>14} B{}",
            row.name,
            fmt_secs(row.wall_seconds),
            row.allocs,
            row.alloc_bytes,
            if row.steps > 0 { format!("  ({} steps)", row.steps) } else { String::new() }
        );
    }
    // In release builds the steady-state resort path must be allocation-free
    // (debug builds carry a diagnostic duplicate-position bitmap).
    if !cfg!(debug_assertions) {
        assert_eq!(
            probe_allocs, 0,
            "steady-state resort allocated {probe_allocs} times over {probe_steps} steps"
        );
    }
    assert!(
        exchange_allocs <= probe_steps,
        "steady-state typed neighbor_exchange allocated {exchange_allocs} times over \
         {probe_steps} steps on rank 0 (budget: the returned Vec, one per step)"
    );
    report.selftime = selftime;

    timeline.finish();
    let path = report.write("plancache");
    println!();
    report_summary(&path, &report);
}
