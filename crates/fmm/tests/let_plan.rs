//! The kept locally essential tree plan is invisible in the physics: a solver
//! that keeps it and one whose plans are dropped before every run return the
//! same bits through every way a tree can repeat or change between runs — and the
//! one that keeps it fetches the remote multipoles of a quiet step in one
//! collective instead of three, beside ghosts a third smaller than whole
//! particles.

use std::collections::{BTreeMap, BTreeSet};

use fmm::tree::{cell_center, leaf_key, neighbor_keys};
use fmm::{FmmConfig, FmmSolver};
use particles::systems::splitmix64;
use particles::{Particle, RedistMethod, SystemBox, Vec3};
use simcomm::{Comm, MachineModel, Runner};

#[path = "../../simcomm/tests/common/mod.rs"]
mod common;
use common::{run_at, thinned};

/// splitmix64 stream of uniform draws in `[0, 1)`.
struct Gen(u64);

impl Gen {
    fn unit(&mut self) -> f64 {
        self.0 = splitmix64(self.0);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Level-3 cells are an eighth of the box per dimension; no particle of the
/// base system lies in the corner cell `[0, L/8)^3`, so moving one there
/// gives its rank a leaf it never had.
const LEVEL: u32 = 3;

fn bbox(periodic: bool) -> SystemBox {
    SystemBox::new(Vec3::new(-1.0, 0.5, 0.0), Vec3::new(8.0, 6.0, 10.0), [periodic; 3])
}

/// `n` particles outside the corner cell with charges in `(0.5, 1.5)`.
fn base(g: &mut Gen, b: &SystemBox, n: usize) -> Vec<(Vec3, f64)> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let t = [g.unit(), g.unit(), g.unit()];
        if t.iter().all(|&x| x < 0.125) {
            continue;
        }
        let pos = Vec3::new(
            b.offset.x() + t[0] * b.lengths.x(),
            b.offset.y() + t[1] * b.lengths.y(),
            b.offset.z() + t[2] * b.lengths.z(),
        );
        out.push((pos, 0.5 + g.unit()));
    }
    out
}

/// What a step expects of the planned solver's far field.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Expect {
    Build,
    Reuse,
    /// The plan may or may not hold; only the bits are checked.
    Either,
}

/// One step of the script: the whole system, whether to drop the planned
/// solver's plans first, whether to re-tune both solvers, and what the
/// planned far field must do.
struct Step {
    what: &'static str,
    particles: Vec<(Vec3, f64)>,
    invalidate: bool,
    retune: Option<FmmConfig>,
    expect: Expect,
}

fn script(b: &SystemBox, p: usize, seed: u64) -> Vec<Step> {
    let mut g = Gen(seed);
    let sys = base(&mut g, b, 12 * p + 7);
    let step = |what, particles: &Vec<(Vec3, f64)>, expect| Step {
        what,
        particles: particles.clone(),
        invalidate: false,
        retune: None,
        expect,
    };
    let mut steps =
        vec![step("first run", &sys, Expect::Build), step("reuse", &sys, Expect::Reuse)];
    // New charges, and particle 0 a tenth of the way to its cell's centre:
    // the same leaves, other multipoles.
    let mut quiet = sys.clone();
    for (i, q) in quiet.iter_mut().enumerate() {
        q.1 = 0.5 + (i % 7) as f64 / 7.0;
    }
    let c = cell_center(b, leaf_key(b, quiet[0].0, LEVEL), LEVEL);
    quiet[0].0 = quiet[0].0 + (c - quiet[0].0) * 0.1;
    steps.push(step("same leaves, new charges and a move inside a cell", &quiet, Expect::Reuse));
    // One particle into the corner cell, which nobody held.
    let mut moved = quiet.clone();
    moved[1].0 = cell_center(b, 0, LEVEL);
    steps.push(step("a particle changes leaf cell", &moved, Expect::Build));
    steps.push(step("reuse after a rebuild", &moved, Expect::Reuse));
    // More particles: every rank's range shifts.
    let mut shifted = moved.clone();
    shifted.extend(base(&mut g, b, 3 * p + 1));
    steps.push(step("ranges shift", &shifted, Expect::Build));
    // Fewer particles than ranks: some ranks become empty.
    let few: Vec<_> = shifted[..p.div_ceil(2)].to_vec();
    steps.push(step("ranks become empty", &few, Expect::Either));
    steps.push(step("reuse with empty ranks", &few, Expect::Reuse));
    steps.push(Step { invalidate: true, ..step("after invalidate_plans", &few, Expect::Build) });
    // Everything in one leaf cell: after alignment one rank holds it all.
    let c = cell_center(b, leaf_key(b, sys[0].0, LEVEL), LEVEL);
    let one: Vec<_> = sys
        .iter()
        .enumerate()
        .map(|(i, &(_, q))| (c + Vec3::splat(1e-3 * (i % 5) as f64), q))
        .collect();
    steps.push(step("one rank holds everything", &one, Expect::Either));
    steps.push(step("reuse with one rank holding everything", &one, Expect::Reuse));
    // A re-tune builds new solvers: another level and order.
    let cfg = FmmConfig { order: 4, level: LEVEL - 1, soft_core: None };
    steps.push(Step { retune: Some(cfg), ..step("re-tuned", &sys, Expect::Build) });
    steps.push(step("reuse after the re-tune", &sys, Expect::Reuse));
    steps
}

/// Every potential and field bit of one run.
fn bits(o: &particles::SolverOutput) -> (Vec<u64>, Vec<[u64; 3]>) {
    let field = o.field.iter().map(|e| [0, 1, 2].map(|d| e[d].to_bits())).collect();
    (o.potential.iter().map(|x| x.to_bits()).collect(), field)
}

fn far_collectives(comm: &Comm) -> u64 {
    comm.phase_profile().get("far").map_or(0, |f| f.coll_ops)
}

#[test]
fn kept_plan_returns_the_bits_of_a_fresh_fetch() {
    for p in [1usize, 2, 3, 8, 27, 64] {
        for periodic in [false, true] {
            let b = bbox(periodic);
            let steps = script(&b, p, 0x1e7 ^ p as u64);
            run_at(thinned(p), &Runner::default(), p, MachineModel::juropa_like(), |comm| {
                let me = comm.rank();
                let cfg = FmmConfig { order: 2, level: LEVEL, soft_core: None };
                let mut planned = FmmSolver::new(b, cfg.clone());
                let mut fresh = FmmSolver::new(b, cfg);
                for s in &steps {
                    let what = format!("p {p} periodic {periodic} rank {me}: {}", s.what);
                    if let Some(cfg) = &s.retune {
                        planned = FmmSolver::new(b, cfg.clone());
                        fresh = FmmSolver::new(b, cfg.clone());
                    }
                    if s.invalidate {
                        planned.invalidate_plans();
                    }
                    let n = s.particles.len();
                    let mine = &s.particles[me * n / p..(me + 1) * n / p];
                    let pos: Vec<Vec3> = mine.iter().map(|x| x.0).collect();
                    let charge: Vec<f64> = mine.iter().map(|x| x.1).collect();
                    let id: Vec<u64> = (me * n / p..(me + 1) * n / p).map(|i| i as u64).collect();
                    let method = RedistMethod::RestoreOriginal;
                    let before = far_collectives(comm);
                    let got = planned.run(comm, &pos, &charge, &id, method, None, usize::MAX);
                    let far = far_collectives(comm) - before;
                    fresh.invalidate_plans();
                    let want = fresh.run(comm, &pos, &charge, &id, method, None, usize::MAX);
                    assert_eq!(bits(&got), bits(&want), "{what}: bits differ");
                    let hit = planned.last_report.far_plan_hit;
                    assert_eq!(far, if hit { 1 } else { 3 }, "{what}: far-phase collectives");
                    assert!(!fresh.last_report.far_plan_hit, "{what}: a dropped plan reused");
                    match s.expect {
                        Expect::Build => assert!(!hit, "{what}: must rebuild"),
                        Expect::Reuse => assert!(hit, "{what}: must reuse"),
                        Expect::Either => {}
                    }
                }
            });
        }
    }
}

/// `runs` Method B runs of one solver on a quiet system (the first sorts, the
/// others keep the order they get back), its plans kept or dropped before
/// every run. Per rank: the far-phase collectives
/// and the near-phase bytes received from the world's phase profile, the
/// ghost bytes the reports count, and the leaf key of every particle the
/// rank ends up holding.
fn quiet_world(
    b: SystemBox,
    p: usize,
    particles: &[(Vec3, f64)],
    keep: bool,
    runs: usize,
) -> Vec<(u64, u64, u64, Vec<u64>)> {
    let n = particles.len();
    let out = run_at(thinned(p), &Runner::default(), p, MachineModel::juropa_like(), |comm| {
        let me = comm.rank();
        let mine = &particles[me * n / p..(me + 1) * n / p];
        let mut pos: Vec<Vec3> = mine.iter().map(|x| x.0).collect();
        let mut charge: Vec<f64> = mine.iter().map(|x| x.1).collect();
        let mut id: Vec<u64> = (me * n / p..(me + 1) * n / p).map(|i| i as u64).collect();
        let mut solver = FmmSolver::new(b, FmmConfig { order: 2, level: LEVEL, soft_core: None });
        let mut ghost_bytes = 0;
        for r in 0..runs {
            if !keep {
                solver.invalidate_plans();
            }
            let hint = (r > 0).then_some(0.0);
            let o =
                solver.run(comm, &pos, &charge, &id, RedistMethod::UseChanged, hint, usize::MAX);
            assert!(o.resorted);
            ghost_bytes += solver.last_report.ghost_bytes;
            (pos, charge, id) = (o.pos, o.charge, o.id);
        }
        (ghost_bytes, pos.iter().map(|&x| leaf_key(&b, x, LEVEL)).collect::<Vec<_>>())
    });
    let phase = |r: usize, name: &str| out.phases[r].get(name).copied().unwrap_or_default();
    (0..p)
        .map(|r| {
            let (ghost_bytes, keys) = out.results[r].clone();
            (phase(r, "far").coll_ops, phase(r, "near").p2p_recv_bytes, ghost_bytes, keys)
        })
        .collect()
}

/// Ghost records one run ships, counted from the final distribution alone:
/// every cell goes once to every other rank whose key range covers one of
/// its neighbours.
fn ghost_records(ranks: &[Vec<u64>], periodic: bool) -> u64 {
    let owner = |k: u64| {
        let covers =
            |keys: &&Vec<u64>| keys.first().is_some_and(|&f| f <= k) && keys.last() >= Some(&k);
        ranks.iter().position(|keys| covers(&keys))
    };
    let mut records = 0;
    for (me, keys) in ranks.iter().enumerate() {
        let mut cells: BTreeMap<u64, u64> = BTreeMap::new();
        for &k in keys {
            *cells.entry(k).or_default() += 1;
        }
        for (&k, &count) in &cells {
            let to: BTreeSet<usize> = neighbor_keys(k, LEVEL, periodic)
                .into_iter()
                .filter_map(owner)
                .filter(|&o| o != me)
                .collect();
            records += count * to.len() as u64;
        }
    }
    records
}

#[test]
fn a_quiet_step_fetches_in_one_collective_and_ships_two_thirds_of_the_ghost_bytes() {
    const RUNS: u64 = 4;
    for (p, periodic) in [(3usize, false), (8, true), (27, false)] {
        let b = bbox(periodic);
        let particles = base(&mut Gen(0x9057 + p as u64), &b, 40 * p);
        let planned = quiet_world(b, p, &particles, true, RUNS as usize);
        let fresh = quiet_world(b, p, &particles, false, RUNS as usize);
        for (r, (with, without)) in planned.iter().zip(&fresh).enumerate() {
            // Three rounds to build, then one per reusing run.
            assert_eq!(with.0, 3 + (RUNS - 1), "p {p} rank {r}: far collectives with the plan");
            assert_eq!(without.0, 3 * RUNS, "p {p} rank {r}: far collectives without it");
            assert_eq!(with.1, with.2, "p {p} rank {r}: near bytes are the ghost bytes");
            assert_eq!(with.1, without.1, "p {p} rank {r}: the plan leaves the ghosts alone");
        }
        let keys: Vec<Vec<u64>> = planned.iter().map(|r| r.3.clone()).collect();
        let records = ghost_records(&keys, periodic);
        assert!(records > 0, "p {p}: no ghost exchanged");
        let whole = RUNS * records * std::mem::size_of::<Particle>() as u64;
        let shipped: u64 = planned.iter().map(|r| r.1).sum();
        assert_eq!(3 * shipped, 2 * whole, "p {p}: ghosts are (position, charge) records");
    }
}
