//! A quiet FMM step pays for two collectives: the merge sort closes on one
//! allgather whose spans feed the cell alignment, the alignment exchanges
//! nothing when no leaf cell is split across ranks, and its resort plan is
//! the identity route, which exchanges nothing. None of it
//! shows in the physics: every run below returns the bits of a solver whose
//! plans are dropped before every run — or, after a guard fallback, of a
//! solver that chose the partition sort up front. A step that moves builds
//! its resort plan from the key owners with no message, and the plan — the
//! identity on a quiet step — puts every byte of additional data where
//! resort indices put it.

use std::collections::BTreeMap;

use atasp::{build_resort_indices_with, encode_index, ExchangeMode, ResortPlan};
use fmm::tree::{cell_center, leaf_key};
use fmm::{FmmConfig, FmmSolver};
use particles::systems::splitmix64;
use particles::{PlaneSet, RedistMethod, SolverOutput, SystemBox, Vec3};
use simcomm::{Comm, FaultPlan, MachineModel, Runner, TraceKind};

#[path = "../../simcomm/tests/common/mod.rs"]
mod common;
use common::thinned;

/// A world of `p` ranks at the widths [`thinned`] picks for it.
fn run<R, F>(p: usize, model: MachineModel, f: F) -> simcomm::RunOutput<R>
where
    R: Send + std::fmt::Debug,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    common::run_at(thinned(p), &Runner::default(), p, model, f)
}

/// The world sizes every case runs at.
const PS: [usize; 6] = [1, 2, 3, 8, 27, 64];

/// Octree depth: 8 x 8 x 8 leaf cells.
const LEVEL: u32 = 3;

/// splitmix64 stream of uniform draws in `[0, 1)`.
struct Gen(u64);

impl Gen {
    fn unit(&mut self) -> f64 {
        self.0 = splitmix64(self.0);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn bbox(periodic: bool) -> SystemBox {
    SystemBox::new(Vec3::new(-1.0, 0.5, 0.0), Vec3::new(8.0, 6.0, 10.0), [periodic; 3])
}

fn config() -> FmmConfig {
    FmmConfig { order: 2, level: LEVEL, soft_core: None }
}

/// `n` particles spread over the box, charges in `(0.5, 1.5)`.
fn system(seed: u64, b: &SystemBox, n: usize) -> Vec<(Vec3, f64)> {
    let mut g = Gen(seed);
    (0..n)
        .map(|_| {
            let t = [g.unit(), g.unit(), g.unit()];
            let pos = Vec3::new(
                b.offset.x() + t[0] * b.lengths.x(),
                b.offset.y() + t[1] * b.lengths.y(),
                b.offset.z() + t[2] * b.lengths.z(),
            );
            (pos, 0.5 + g.unit())
        })
        .collect()
}

/// Positions, charges and ids of `particles[range]` (ids are indices).
type Local = (Vec<Vec3>, Vec<f64>, Vec<u64>);

fn local(particles: &[(Vec3, f64)], range: std::ops::Range<usize>) -> Local {
    let pos = particles[range.clone()].iter().map(|x| x.0).collect();
    let charge = particles[range.clone()].iter().map(|x| x.1).collect();
    (pos, charge, range.map(|i| i as u64).collect())
}

/// Rank `me`'s block of an even deal.
fn block(particles: &[(Vec3, f64)], me: usize, p: usize) -> Local {
    let n = particles.len();
    local(particles, me * n / p..(me + 1) * n / p)
}

/// Every bit a run returns to the application, timings aside.
fn bits(o: &SolverOutput) -> Vec<u64> {
    let vecs = o.pos.iter().chain(&o.field).flat_map(|v| [0, 1, 2].map(|d| v[d].to_bits()));
    let scalars = o.charge.iter().chain(&o.potential).map(|x| x.to_bits());
    vecs.chain(scalars).chain(o.id.iter().copied()).chain([u64::from(o.resorted)]).collect()
}

/// Collectives and messages sent so far inside phases named `name` (all
/// `sort:*` sub-phases too when `name` ends with `*`).
fn traffic(comm: &Comm, name: &str) -> (u64, u64) {
    let wanted = |n: &str| match name.strip_suffix('*') {
        Some(prefix) => n.starts_with(prefix),
        None => n == name,
    };
    let phases = comm.phase_profile().phases.iter().filter(|s| wanted(s.name));
    phases.fold((0, 0), |(c, m), s| (c + s.coll_ops, m + s.p2p_sent_msgs))
}

/// One Method B run of `solver`, with the traffic of its innermost `sort`
/// phase (the alignment), of all its sort phases and of its `resort` phase.
struct Run {
    out: SolverOutput,
    align: (u64, u64),
    sort: (u64, u64),
    resort: (u64, u64),
}

fn run_b(comm: &mut Comm, solver: &mut FmmSolver, input: &Local, hint: Option<f64>) -> Run {
    let before = [traffic(comm, "sort"), traffic(comm, "sort*"), traffic(comm, "resort")];
    let (pos, charge, id) = input;
    let out = solver.run(comm, pos, charge, id, RedistMethod::UseChanged, hint, usize::MAX);
    let after = [traffic(comm, "sort"), traffic(comm, "sort*"), traffic(comm, "resort")];
    let d = |i: usize| (after[i].0 - before[i].0, after[i].1 - before[i].1);
    Run { out, align: d(0), sort: d(1), resort: d(2) }
}

/// No leaf key is held by two ranks.
fn assert_aligned(ranks: &[Vec<u64>], what: &str) {
    let mut spans: Vec<(u64, u64)> =
        ranks.iter().filter_map(|k| Some((*k.first()?, *k.last()?))).collect();
    let n = spans.len();
    spans.dedup();
    assert_eq!(spans.len(), n, "{what}: two ranks hold the same span");
    assert!(spans.windows(2).all(|w| w[0].1 < w[1].0), "{what}: a leaf cell is split: {spans:?}");
}

#[test]
fn repeated_b_with_movement_is_quiet_and_keeps_the_bits() {
    for p in PS {
        for periodic in [false, true] {
            let b = bbox(periodic);
            let sys = system(0x9017 ^ p as u64, &b, 12 * p + 7);
            run(p, MachineModel::juropa_like(), |comm| {
                let me = comm.rank();
                let mut planned = FmmSolver::new(b, config());
                let mut fresh = FmmSolver::new(b, config());
                let mut input = block(&sys, me, p);
                for r in 0..4 {
                    let what = format!("p {p} periodic {periodic} rank {me} run {r}");
                    let hint = (r > 0).then_some(0.0);
                    let got = run_b(comm, &mut planned, &input, hint);
                    fresh.invalidate_plans();
                    let want = run_b(comm, &mut fresh, &input, hint);
                    assert_eq!(bits(&got.out), bits(&want.out), "{what}: bits differ");
                    if r > 0 {
                        let report = &planned.last_report;
                        assert!(report.used_merge_sort, "{what}: the hint selects the merge sort");
                        assert!(report.resort_exchange_skipped, "{what}: a quiet step");
                        assert_eq!(got.resort, (0, 0), "{what}: the resort communicates");
                        assert_eq!(got.align, (0, 0), "{what}: the alignment communicates");
                        // One gather closes the sort; from the second merge
                        // sort on, the kept plan skips every probe.
                        assert_eq!(got.sort.0, u64::from(p > 1), "{what}: sort collectives");
                        if r > 1 {
                            assert_eq!(got.sort.1, 0, "{what}: probes under the kept plan");
                        }
                        // The quiet test reads the output, not the plans.
                        assert!(fresh.last_report.resort_exchange_skipped, "{what}: dropped plans");
                        assert_eq!(want.resort, (0, 0), "{what}: the resort without plans");
                    }
                    input = (got.out.pos, got.out.charge, got.out.id);
                }
            });
        }
    }
}

#[test]
fn a_particle_crossing_a_rank_boundary_is_not_quiet_and_still_resorts() {
    for p in PS {
        let b = bbox(false);
        let sys = system(0xc205 ^ p as u64, &b, 12 * p + 7);
        let out = run(p, MachineModel::juropa_like(), |comm| {
            let me = comm.rank();
            let mut planned = FmmSolver::new(b, config());
            let mut fresh = FmmSolver::new(b, config());
            let mut input = block(&sys, me, p);
            let mut pair = (0, 0);
            for r in 0..3 {
                let what = format!("p {p} rank {me} run {r}");
                if r == 2 {
                    // The first particle of rank 0 jumps next to the last one
                    // of rank 1: only those two ranks change, every other
                    // rank keeps its particles in order and is quiet on its
                    // own, but not in the world.
                    let last = (*input.2.last().unwrap(), *input.0.last().unwrap());
                    let ends = comm.allgather((input.2[0], last));
                    let (neighbour, x) = ends[1.min(p - 1)].1;
                    let target = x + (cell_center(&b, leaf_key(&b, x, LEVEL), LEVEL) - x) * 0.5;
                    pair = (ends[0].0, neighbour);
                    for (x, &i) in input.0.iter_mut().zip(&input.2) {
                        if i == pair.0 {
                            *x = target;
                        }
                    }
                }
                let hint = (r > 0).then_some(0.0);
                let got = run_b(comm, &mut planned, &input, hint);
                fresh.invalidate_plans();
                let want = run_b(comm, &mut fresh, &input, hint);
                assert_eq!(bits(&got.out), bits(&want.out), "{what}: bits differ");
                let quiet = r == 1;
                assert_eq!(planned.last_report.resort_exchange_skipped, quiet, "{what}");
                // The plan — the identity on a quiet step — carries data in
                // the input order to the output's.
                let tags: Vec<f64> = input.2.iter().map(|&i| i as f64).collect();
                let o = &got.out;
                let plan = planned.resort_plan().expect("a run that resorts leaves its plan");
                let moved = plan.execute(comm, &[&tags]).pop().expect("one channel");
                assert!(moved.into_iter().eq(o.id.iter().map(|&i| i as f64)), "{what}: resort");
                // The plan follows the key owners: building it sends nothing.
                assert_eq!(got.resort, (0, 0), "{what}: the resort communicates");
                input = (got.out.pos, got.out.charge, got.out.id);
            }
            (input.2, pair)
        });
        let holder = |id: u64| out.results.iter().position(|(ids, _)| ids.contains(&id));
        let (mover, neighbour) = out.results[0].1;
        assert_eq!(holder(mover), holder(neighbour), "p {p}: the moved particle's new rank");
        assert_eq!(out.results.iter().map(|r| r.0.len()).sum::<usize>(), sys.len(), "p {p}");
    }
}

/// Three particles in each of `cells` leaf cells, ascending, dealt to the
/// even ranks (every rank below three) so that every holder after the first
/// starts one particle into a cell: each boundary cell is split between two
/// holders, with an empty rank between them from three ranks on.
fn straddling(b: &SystemBox, p: usize) -> (Vec<(Vec3, f64)>, Vec<std::ops::Range<usize>>) {
    let holders: Vec<usize> = (0..p).filter(|&r| p < 3 || r % 2 == 0).collect();
    let cells = 5 * holders.len() + 1;
    let stride = (1u64 << (3 * LEVEL)) / cells as u64;
    let mut g = Gen(0x57a6 ^ p as u64);
    let particles: Vec<(Vec3, f64)> = (0..3 * cells)
        .map(|i| {
            let c = cell_center(b, (i / 3) as u64 * stride, LEVEL);
            let jitter = Vec3::new(g.unit() - 0.5, g.unit() - 0.5, g.unit() - 0.5) * 0.2;
            (c + jitter, 0.5 + g.unit())
        })
        .collect();
    let start = |s: usize| if s == 0 { 0 } else { 15 * s + 1 };
    let mut ranges = vec![0..0; p];
    for (s, &r) in holders.iter().enumerate() {
        let end = if s + 1 == holders.len() { particles.len() } else { start(s + 1) };
        ranges[r] = start(s)..end;
    }
    (particles, ranges)
}

#[test]
fn a_leaf_cell_split_across_ranks_is_still_aligned() {
    for p in PS {
        let b = bbox(false);
        let (sys, ranges) = straddling(&b, p);
        let out = run(p, MachineModel::juropa_like(), |comm| {
            let me = comm.rank();
            let what = format!("p {p} rank {me}");
            let input = local(&sys, ranges[me].clone());
            let mut planned = FmmSolver::new(b, config());
            let mut fresh = FmmSolver::new(b, config());
            // Already in key order: the merge sort moves nothing, and the
            // split cells are the alignment's to move.
            let got = run_b(comm, &mut planned, &input, Some(0.0));
            let want = run_b(comm, &mut fresh, &input, Some(0.0));
            assert_eq!(bits(&got.out), bits(&want.out), "{what}: bits differ");
            assert!(planned.last_report.used_merge_sort, "{what}");
            assert_eq!(planned.last_report.sort_sent, 0, "{what}: sorted input moved");
            // One all-to-all and no gather of its own: the spans came from
            // the merge sort.
            assert_eq!(got.align.0, u64::from(p > 1), "{what}: alignment collectives");
            assert!(!planned.last_report.resort_exchange_skipped || p == 1, "{what}");
            // Method A takes the partition sort and aligns after its own
            // gather.
            let (pos, charge, id) = &input;
            let a = planned.run(comm, pos, charge, id, RedistMethod::RestoreOriginal, None, 0);
            fresh.invalidate_plans();
            let a_fresh = fresh.run(comm, pos, charge, id, RedistMethod::RestoreOriginal, None, 0);
            assert_eq!(bits(&a), bits(&a_fresh), "{what}: Method A bits differ");
            assert_eq!(a.id, *id, "{what}: Method A restores the input");
            got.out.pos.iter().map(|&x| leaf_key(&b, x, LEVEL)).collect::<Vec<_>>()
        });
        assert_aligned(&out.results, &format!("p {p}"));
        assert_eq!(out.results.iter().map(Vec::len).sum::<usize>(), sys.len(), "p {p}");
    }
}

#[test]
fn with_no_split_cell_the_sort_phase_has_no_all_to_all() {
    for p in PS {
        let b = bbox(true);
        // One particle per leaf cell: no cell can be split.
        let cells = 8usize.pow(LEVEL);
        let n = (10 * p).min(cells);
        let stride = cells / n;
        let mut g = Gen(0x5011 ^ p as u64);
        let mut sys: Vec<(Vec3, f64)> =
            (0..n).map(|i| (cell_center(&b, (i * stride) as u64, LEVEL), 0.5 + g.unit())).collect();
        // Dealt out of key order, so the partition sort has work to do.
        sys.reverse();
        run(p, MachineModel::juropa_like(), |comm| {
            let me = comm.rank();
            let input = block(&sys, me, p);
            let (pos, charge, id) = &input;
            let mut solver = FmmSolver::new(b, config());
            for (method, what) in [
                (RedistMethod::RestoreOriginal, "Method A"),
                (RedistMethod::UseChanged, "Method B"),
            ] {
                let what = format!("p {p} rank {me} {what}");
                let before = traffic(comm, "sort");
                solver.run(comm, pos, charge, id, method, None, usize::MAX);
                let after = traffic(comm, "sort");
                // The alignment's own gather of the partition sort's output,
                // and nothing else.
                let gather = u64::from(p > 1);
                assert_eq!((after.0 - before.0, after.1 - before.1), (gather, 0), "{what}");
            }
        });
    }
}

#[test]
fn a_lying_hint_falls_back_and_the_alignment_gathers_its_own_spans() {
    // A fault-active plan whose only effect is to engage the guards.
    let plan =
        FaultPlan { seed: 3, hint_lie_prob: 1.0, hint_lie_factor: 1e-3, ..FaultPlan::none() };
    for p in PS {
        let b = bbox(false);
        // Rank 0 holds 200 particles in the upper octant of the box, every
        // other rank two in the lower one: far out of Z order, so a tiny hint
        // lies, and the merge network's cleanup needs about a round per rank.
        let counts: Vec<usize> = (0..p).map(|r| if r == 0 { 200 } else { 2 }).collect();
        let mut sys = system(0xfa11 ^ p as u64, &b, counts.iter().sum());
        for (i, (x, _)) in sys.iter_mut().enumerate() {
            let half = if i < counts[0] { 0.5 } else { 0.0 };
            let squeeze = |d: usize| b.offset[d] + half * b.lengths[d] + 0.5 * (x[d] - b.offset[d]);
            *x = Vec3::new(squeeze(0), squeeze(1), squeeze(2));
        }
        let runner = Runner::default().faulted(plan.clone());
        common::run_at(thinned(p), &runner, p, MachineModel::juropa_like(), |comm| {
            let me = comm.rank();
            let what = format!("p {p} rank {me}");
            let start: usize = counts[..me].iter().sum();
            let input = local(&sys, start..start + counts[me]);
            let mut guarded = FmmSolver::new(b, config());
            let mut partition = FmmSolver::new(b, config());
            let got = run_b(comm, &mut guarded, &input, Some(1e-9));
            let want = run_b(comm, &mut partition, &input, None);
            // Up to eight ranks the cleanup ends within its cap of
            // `2 + ceil(log2 p)` rounds; from 27 on it needs more.
            let fell_back = guarded.last_report.movement_guard_fallback;
            assert_eq!(fell_back, p > 8, "{what}: guard fallback");
            if fell_back {
                assert_eq!(bits(&got.out), bits(&want.out), "{what}: fallback bits differ");
                // Without the merge sort's spans the alignment gathers its
                // own, exactly as after a partition sort chosen up front.
                assert_eq!(got.align, want.align, "{what}: alignment traffic");
                assert!(got.align.0 >= 1, "{what}: no gather of its own");
            }
        });
    }
}

/// Additional data of `ids`: a `u64` tag (the id) alone, or beside planes of
/// three other strides, every byte a function of the id.
fn additional(ids: &[u64], several: bool) -> PlaneSet {
    let mut set = PlaneSet::new();
    let tag = set.register::<u64>("tag");
    let planes = several.then(|| {
        (set.register::<f32>("f32"), set.register::<Vec3>("vec3"), set.register::<i32>("i32"))
    });
    set.resize(ids.len());
    for (i, &id) in ids.iter().enumerate() {
        set.plane_mut::<u64>(tag)[i] = id;
        if let Some((a, v, n)) = planes {
            let h = splitmix64(id ^ 0xadd);
            set.plane_mut::<f32>(a)[i] = h as f32;
            set.plane_mut::<Vec3>(v)[i] = Vec3::new(h as f64, -(id as f64), 0.5);
            set.plane_mut::<i32>(n)[i] = (h >> 32) as i32;
        }
    }
    set
}

/// The resort plan of the run that turned `input_ids` into `out`, against
/// the plan of the resort indices built from where every output particle
/// was in the input: additional data lands alike, byte for byte, with one
/// plane and with several. Returns the collectives of the plan's two
/// executions.
fn assert_plan_is_the_index_plan(
    comm: &mut Comm,
    solver: &FmmSolver,
    input_ids: &[u64],
    out: &SolverOutput,
    what: &str,
) -> u64 {
    let plan = solver.resort_plan().expect("a run that resorts leaves its plan");
    let origin_of: BTreeMap<u64, u64> = (comm.allgather(input_ids.to_vec()).into_iter())
        .enumerate()
        .flat_map(|(r, ids)| (0..ids.len()).map(move |i| (ids[i], encode_index(r, i))))
        .collect();
    let origins: Vec<u64> = out.id.iter().map(|id| origin_of[id]).collect();
    let collective = ExchangeMode::Collective;
    let indices = build_resort_indices_with(comm, &origins, input_ids.len(), &collective);
    let oracle = ResortPlan::build(comm, &indices, out.id.len(), &collective);
    let mut collectives = 0;
    for several in [false, true] {
        let mut by_plan = additional(input_ids, several);
        let mut by_indices = by_plan.clone();
        let before = comm.stats().coll_ops;
        plan.execute_planes(comm, &mut by_plan);
        collectives += comm.stats().coll_ops - before;
        oracle.execute_planes(comm, &mut by_indices);
        let planes =
            |set: &PlaneSet| set.ids().map(|id| set.bytes(id).to_vec()).collect::<Vec<_>>();
        assert_eq!(planes(&by_plan), planes(&by_indices), "{what} several={several}");
        let tags = by_plan.plane::<u64>(by_plan.id_at(0));
        assert_eq!(tags, &out.id[..], "{what} several={several}: tags off their particles");
    }
    collectives
}

/// The particles of `out`, each moved by up to `step` along every axis.
fn drifted(b: &SystemBox, out: &SolverOutput, step: f64, salt: u64) -> Local {
    let mut g = Gen(salt);
    let mut shift = || (2.0 * g.unit() - 1.0) * step;
    let pos = out.pos.iter().map(|&x| b.wrap(x + Vec3::new(shift(), shift(), shift()))).collect();
    (pos, out.charge.clone(), out.id.clone())
}

#[test]
fn the_owner_map_plan_puts_every_byte_where_the_indices_put_it() {
    // Cell widths are about one: a drift of 0.3 per axis changes cells.
    let step = 0.3;
    for p in PS {
        let b = bbox(true);
        let sys = system(0x0e5 ^ p as u64, &b, 12 * p + 7);
        let (split, ranges) = straddling(&bbox(false), p);
        run(p, MachineModel::juqueen_like(), |comm| {
            let me = comm.rank();
            let mut solver = FmmSolver::new(b, config());
            // A partition sort of a dealt system, then merge sorts of it
            // drifting.
            let mut input = block(&sys, me, p);
            for r in 0..3 {
                let what = format!("p {p} rank {me} run {r}");
                let hint = (r > 0).then_some(step * 3f64.sqrt());
                let got = run_b(comm, &mut solver, &input, hint);
                assert_eq!(solver.last_report.used_merge_sort, r > 0, "{what}");
                // Building the plan is local.
                assert_eq!(got.resort, (0, 0), "{what}: the resort communicates");
                let colls = assert_plan_is_the_index_plan(comm, &solver, &input.2, &got.out, &what);
                // Point to point after a merge sort, one all-to-all-v each
                // after a partition sort, nothing on a quiet step.
                let point_to_point = r > 0 || solver.last_report.resort_exchange_skipped;
                assert_eq!(colls, if point_to_point { 0 } else { 2 }, "{what}: plan collectives");
                input = drifted(&b, &got.out, step, 0xd1f7 ^ (r * p + me) as u64);
            }
            // Split cells the alignment moves, and empty ranks from three on.
            let b = bbox(false);
            let input = local(&split, ranges[me].clone());
            let mut solver = FmmSolver::new(b, config());
            let what = format!("p {p} rank {me} split cells");
            let got = run_b(comm, &mut solver, &input, Some(0.0));
            assert!(solver.last_report.used_merge_sort, "{what}");
            if p > 1 {
                assert_plan_is_the_index_plan(comm, &solver, &input.2, &got.out, &what);
            }
            // Dropped with the other plans.
            solver.invalidate_plans();
            assert!(solver.resort_plan().is_none(), "{what}: a plan survives invalidate_plans");
        });
    }
}

#[test]
fn a_moving_method_b_step_records_no_message_and_no_collective_in_resort() {
    let p = 8;
    let b = bbox(true);
    let sys = system(0x7ace, &b, 12 * p + 7);
    let runner = Runner::default().traced(true);
    let out = common::run_at(thinned(p), &runner, p, MachineModel::juropa_like(), |comm| {
        let mut solver = FmmSolver::new(b, config());
        let input = block(&sys, comm.rank(), p);
        let first = run_b(comm, &mut solver, &input, None);
        let input = drifted(&b, &first.out, 0.3, 0x7ace ^ comm.rank() as u64);
        run_b(comm, &mut solver, &input, Some(0.3 * 3f64.sqrt()));
        (solver.last_report.used_merge_sort, solver.last_report.resort_exchange_skipped)
    });
    for (me, (&(merged, quiet), trace)) in out.results.iter().zip(&out.traces).enumerate() {
        assert!(merged && !quiet, "rank {me}: a moving merge-sort step");
        let resort: Vec<_> = trace.events.iter().filter(|e| e.phase == "resort").collect();
        // Two plan builds, one per run, and nothing else.
        assert_eq!(resort.len(), 2, "rank {me}: {resort:?}");
        assert!(resort.iter().all(|e| e.kind == TraceKind::PlanBuild), "rank {me}: {resort:?}");
    }
}
