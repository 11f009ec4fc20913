//! Stale workspaces never leak: a solver that has run before returns, on every
//! later input, the bits a solver built for that input alone returns.
//!
//! The solvers keep part of their staging from run to run (DESIGN.md,
//! "Workspaces"). One solver object is therefore driven through inputs that
//! shrink, grow and move — a rank that holds nothing, more particles than any
//! run before, a run after `invalidate_plans`, a quiet step — under Methods
//! A, B and B with the movement hint, at two octree levels, and at two meshes
//! and three world sizes (`P` at and beyond the mesh), and after each run a
//! fresh solver is given the same input in the same world. Plans may make the
//! kept solver's virtual time differ; its output may not differ in a bit, and
//! neither may either solver's resort plan — its routes and placement —
//! which the run builds from kept buffers.

use fmm::{FmmConfig, FmmSolver};
use particles::systems::splitmix64;
use particles::{MovementHint, RedistMethod, SolverOutput, SystemBox, Vec3};
use pmsolver::{PmConfig, PmSolver};
use simcomm::{run, Comm, MachineModel};

const EDGE: f64 = 12.0;

/// Where a run's input comes from.
enum Input {
    /// `n` particles at hashed positions on hashed ranks; the solver is told
    /// nothing about movement.
    Fresh(u64),
    /// The previous run's output — under Method B in the solver's order and
    /// distribution, which is what the movement hint presupposes — with every
    /// particle whose id is not a multiple of `keep_every` dropped and the
    /// rest moved by less than [`DRIFT`].
    Derived { keep_every: u64 },
}

/// What a run is given, and whether the cached plans are dropped first.
struct Step {
    input: Input,
    invalidate: bool,
}

const STEPS: [Step; 6] = [
    Step { input: Input::Fresh(600), invalidate: false },
    // Fewer — and rank 3 holds nothing afterwards.
    Step { input: Input::Derived { keep_every: 2 }, invalidate: false },
    // More than any run before.
    Step { input: Input::Fresh(900), invalidate: false },
    Step { input: Input::Derived { keep_every: 1 }, invalidate: true },
    // Quiet: the same particles again (plans hit).
    Step { input: Input::Derived { keep_every: 1 }, invalidate: false },
    Step { input: Input::Derived { keep_every: 20 }, invalidate: false },
];

/// Bound on a particle's movement between a run and the next derived one.
const DRIFT: f64 = 0.05;

fn unit(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

type Particles = (Vec<Vec3>, Vec<f64>, Vec<u64>);

/// Rank `me`'s input of step `s` in a world of `ranks`, given its output of
/// the step before.
fn local_input(me: usize, ranks: usize, s: usize, previous: &Particles) -> Particles {
    let bbox = SystemBox::cubic(EDGE);
    let (mut pos, mut charge, mut id) = (Vec::new(), Vec::new(), Vec::new());
    match STEPS[s].input {
        Input::Fresh(n) => {
            for i in (0..n).filter(|i| splitmix64(i ^ 0xabc) % ranks as u64 == me as u64) {
                pos.push(Vec3::new(
                    EDGE * unit(4 * i),
                    EDGE * unit(4 * i + 1),
                    EDGE * unit(4 * i + 2),
                ));
                charge.push(if i % 2 == 0 { 1.0 } else { -1.0 });
                id.push(i);
            }
        }
        Input::Derived { keep_every } => {
            for k in (0..previous.2.len()).filter(|&k| previous.2[k].is_multiple_of(keep_every)) {
                if s == 1 && me == 3 {
                    continue;
                }
                let i = previous.2[k] + 7919 * s as u64;
                let step =
                    Vec3::new(unit(3 * i) - 0.5, unit(3 * i + 1) - 0.5, unit(3 * i + 2) - 0.5);
                pos.push(bbox.wrap(previous.0[k] + step * (DRIFT / 0.9)));
                charge.push(previous.1[k]);
                id.push(previous.2[k]);
            }
        }
    }
    (pos, charge, id)
}

/// Every output array as bit patterns (`-0.0` and `0.0` differ).
fn bits(o: &SolverOutput) -> String {
    let v3 = |v: &Vec3| [v.x().to_bits(), v.y().to_bits(), v.z().to_bits()];
    format!(
        "{:?}",
        (
            o.pos.iter().map(v3).collect::<Vec<_>>(),
            o.charge.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            &o.id,
            o.potential.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            o.field.iter().map(v3).collect::<Vec<_>>(),
            o.resorted,
            &o.resort_indices,
        )
    )
}

/// What the two solvers have in common here.
trait Solver {
    fn solve(
        &mut self,
        comm: &mut Comm,
        input: &Particles,
        method: RedistMethod,
        movement: MovementHint,
    ) -> SolverOutput;
    fn invalidate(&mut self);
    /// The resort plan the run built from its routes, if any, spelled out.
    fn resort_plan(&self) -> String;
}

impl Solver for FmmSolver {
    fn solve(
        &mut self,
        comm: &mut Comm,
        (pos, charge, id): &Particles,
        method: RedistMethod,
        movement: MovementHint,
    ) -> SolverOutput {
        self.run(comm, pos, charge, id, method, movement, usize::MAX)
    }

    fn invalidate(&mut self) {
        self.invalidate_plans();
    }

    fn resort_plan(&self) -> String {
        format!("{:?}", FmmSolver::resort_plan(self))
    }
}

impl Solver for PmSolver {
    fn solve(
        &mut self,
        comm: &mut Comm,
        (pos, charge, id): &Particles,
        method: RedistMethod,
        movement: MovementHint,
    ) -> SolverOutput {
        self.run(comm, pos, charge, id, method, movement, usize::MAX)
    }

    fn invalidate(&mut self) {
        self.invalidate_plans();
    }

    fn resort_plan(&self) -> String {
        format!("{:?}", PmSolver::resort_plan(self))
    }
}

/// Drive one solver through [`STEPS`]; after each run a `fresh()` one runs
/// the same input and must agree bit for bit.
fn kept_matches_fresh<S: Solver>(
    comm: &mut Comm,
    what: &str,
    (method, hint): (RedistMethod, bool),
    fresh: impl Fn() -> S,
) {
    let mut kept = fresh();
    let mut previous = Particles::default();
    for (s, step) in STEPS.iter().enumerate() {
        let input = local_input(comm.rank(), comm.size(), s, &previous);
        if step.invalidate {
            kept.invalidate();
        }
        let derived = matches!(step.input, Input::Derived { .. });
        let movement = (hint && derived).then_some(DRIFT);
        let got = kept.solve(comm, &input, method, movement);
        let mut fresh = fresh();
        let want = fresh.solve(comm, &input, method, movement);
        assert!(
            bits(&got) == bits(&want) && kept.resort_plan() == fresh.resort_plan(),
            "{what}, {method:?}, hint {hint}, step {s}, rank {}: a solver that has run before \
             differs from a fresh one",
            comm.rank()
        );
        previous = (got.pos, got.charge, got.id);
    }
}

#[test]
fn a_solver_that_has_run_before_returns_what_a_fresh_one_returns() {
    let bbox = SystemBox::cubic(EDGE);
    let configurations = [
        (RedistMethod::RestoreOriginal, false),
        (RedistMethod::UseChanged, false),
        (RedistMethod::UseChanged, true),
    ];
    // The FMM at two octree levels on 8 ranks. The P2NFFT at meshes 8 and 16
    // on 8 ranks, where its transform grid is `[8, 1]`, and at mesh 8 beyond
    // it: on 16 ranks (`[4, 4]`) and on 27 (`[9, 3]`, one row without mesh).
    let worlds: [(usize, &[usize], bool); 3] =
        [(8, &[8, 16], true), (16, &[8], false), (27, &[8], false)];
    for (ranks, meshes, with_fmm) in worlds {
        let out = run(ranks, MachineModel::juropa_like(), move |comm| {
            let mut runs = 0;
            for configuration in configurations {
                for level in [2, 3].into_iter().filter(|_| with_fmm) {
                    let cfg = FmmConfig { order: 2, level, soft_core: None };
                    let what = format!("FMM level {level}");
                    kept_matches_fresh(comm, &what, configuration, || {
                        FmmSolver::new(bbox, cfg.clone())
                    });
                    runs += STEPS.len();
                }
                for &mesh in meshes {
                    let cfg =
                        PmConfig { mesh, assign_order: 3, alpha: 0.9, rcut: 3.0, soft_core: None };
                    let what = format!("P2NFFT mesh {mesh} on {ranks} ranks");
                    kept_matches_fresh(comm, &what, configuration, || {
                        PmSolver::new(bbox, cfg.clone(), ranks)
                    });
                    runs += STEPS.len();
                }
            }
            runs
        });
        let solvers = meshes.len() + if with_fmm { 2 } else { 0 };
        assert!(out.results.iter().all(|&runs| runs == 3 * solvers * STEPS.len()));
    }
}
