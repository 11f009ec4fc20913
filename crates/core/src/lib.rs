//! # fcs — the coupling library interface
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! ScaFaCoS-style coupling library that connects application-independent
//! long-range solvers (the tree-based [`fmm`] and the grid-based
//! [`pmsolver`]) with a particle dynamics simulation, offering **two particle
//! data redistribution methods** (Sect. III of the paper):
//!
//! * **Method A** (default, [`Fcs::set_resort`]`(false)`): all reordering and
//!   redistribution a solver performs is hidden inside the library; the
//!   calculated potential and field values are returned in the exact original
//!   particle order and distribution.
//! * **Method B** ([`Fcs::set_resort`]`(true)`): the solver-specific order
//!   and distribution is returned to the application together with **resort
//!   indices**, and [`Fcs::resort_floats`]/[`Fcs::resort_ints`]/
//!   [`Fcs::resort_vec3`] redistribute the application's *additional*
//!   particle data (velocities, accelerations, ...) accordingly. If any
//!   process's local arrays are too small, the library falls back to
//!   restoring the original distribution; [`Fcs::resorted`] reports which
//!   happened.
//!
//! The application can additionally report the maximum distance particles
//! moved since the last execution ([`Fcs::set_max_particle_move`]); the
//! solvers then switch to cheaper redistribution strategies — the FMM to a
//! merge-based parallel sort, the particle-mesh solver to neighbourhood
//! point-to-point communication (Sect. III-B), where a message goes only to
//! a neighbour that has data for it ([`atasp::ExchangeMode::Neighborhood`]).
//! The resort of additional data follows the routes the solver's particles
//! took — the P2NFFT's owner redistribution, or the FMM's owner of every
//! input's leaf key — so no resort index is built or exchanged. On a quiet
//! step — one where the solver has shown every rank's
//! resort indices to be the identity, and after every Ewald step — it places
//! locally without communicating.
//!
//! ## Usage (mirrors `fcs_init` / `fcs_set_common` / `fcs_tune` / `fcs_run` /
//! `fcs_destroy`)
//!
//! ```
//! use fcs::{Fcs, SolverKind};
//! use particles::{SystemBox, Vec3};
//! use simcomm::{run, MachineModel};
//!
//! let out = run(2, MachineModel::ideal(), |comm| {
//!     let mut handle = Fcs::init(SolverKind::P2Nfft, comm.size());
//!     handle.set_common(SystemBox::cubic(4.0));
//!     handle.set_tolerance(1e-3);
//!     // Two particles per rank, alternating charges.
//!     let x = comm.rank() as f64;
//!     let pos = vec![Vec3::new(x + 0.25, 1.0, 1.0), Vec3::new(x + 0.75, 3.0, 3.0)];
//!     let charge = vec![1.0, -1.0];
//!     let id = vec![comm.rank() as u64 * 2, comm.rank() as u64 * 2 + 1];
//!     handle.tune(comm, &pos, &charge);
//!     let result = handle.run(comm, &pos, &charge, &id, usize::MAX);
//!     assert_eq!(result.potential.len(), 2);
//!     result.potential[0]
//! });
//! assert!(out.results[0].is_finite());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

use atasp::ExchangeMode;
use ewald::{EwaldConfig, EwaldSolver};
use fmm::{FmmConfig, FmmSolver};
use particles::{MovementHint, PlaneElem, PlaneSet, RedistMethod, SolverOutput, SystemBox, Vec3};
use pmsolver::{PmConfig, PmSolver};
use simcomm::Comm;

/// The solver methods integrated behind the unique library interface.
/// (In ScaFaCoS the method is chosen by a string parameter of `fcs_init`,
/// e.g. `"fmm"` or `"p2nfft"`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// The tree-based Fast Multipole Method (Z-order decomposition,
    /// parallel-sorting-based redistribution).
    Fmm,
    /// The grid-based particle-mesh solver (Cartesian process grid,
    /// fine-grained redistribution with ghost particles).
    P2Nfft,
    /// Classical Ewald summation: the exact (but slow) reference solver.
    /// Works on any particle distribution and never changes the particle
    /// order.
    Ewald,
}

impl std::str::FromStr for SolverKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fmm" => Ok(SolverKind::Fmm),
            "p2nfft" | "pm" | "p3m" => Ok(SolverKind::P2Nfft),
            "ewald" => Ok(SolverKind::Ewald),
            other => Err(format!("unknown solver '{other}' (expected 'fmm', 'p2nfft' or 'ewald')")),
        }
    }
}

/// The resort exchange of a quiet step: an empty neighbourhood, so the
/// `resort_*` calls place locally with no message and no barrier (see
/// [`ExchangeMode::Neighborhood`]).
static QUIET: ExchangeMode = ExchangeMode::Neighborhood(Vec::new());

/// The solver behind a handle (the two with workspaces boxed: a handle is
/// moved about, a solver is not).
enum SolverInstance {
    Fmm(Box<FmmSolver>),
    Pm(Box<PmSolver>),
    Ewald(EwaldSolver),
}

/// A solver handle (the analogue of the `FCS` handle type): one per rank,
/// created identically on all ranks of the communicator.
pub struct Fcs {
    kind: SolverKind,
    nprocs: usize,
    bbox: Option<SystemBox>,
    tolerance: f64,
    resort_enabled: bool,
    max_move: MovementHint,
    soft_core: Option<particles::SoftCore>,
    solver: Option<SolverInstance>,
    // State of the most recent run, for the query/resort functions.
    last_resorted: bool,
    last_resort_indices: Vec<u64>,
    /// The input particle count: the length of additional data to resort.
    last_n_in: usize,
    last_new_len: usize,
    last_resort_mode: ExchangeMode,
    /// Whether the run's resort plan is the solver's, built from its routes.
    last_routed: bool,
    /// Frozen redistribution schedule for the current resort indices, shared
    /// by all `resort_*` calls and reused across runs while the indices,
    /// output length and exchange mode are unchanged.
    resort_plan: Option<atasp::ResortPlan>,
    /// Resort plans built (including rebuilds) over the handle lifetime.
    resort_plan_builds: u64,
    /// Resort calls that reused the cached plan.
    resort_plan_hits: u64,
}

impl Fcs {
    /// `fcs_init`: create a new solver instance for a world of `nprocs`
    /// ranks. Must be called identically by all ranks.
    pub fn init(kind: SolverKind, nprocs: usize) -> Self {
        Fcs {
            kind,
            nprocs,
            bbox: None,
            tolerance: 1e-3,
            resort_enabled: false,
            max_move: None,
            soft_core: None,
            solver: None,
            last_resorted: false,
            last_resort_indices: Vec::new(),
            last_n_in: 0,
            last_new_len: 0,
            last_resort_mode: ExchangeMode::Collective,
            last_routed: false,
            resort_plan: None,
            resort_plan_builds: 0,
            resort_plan_hits: 0,
        }
    }

    /// Drop every cached communication plan — the solver's sort/ghost plans,
    /// its resort plan built from its routes and the handle's frozen resort
    /// schedule — without touching tuning state; resorting after a run that
    /// moved particles then needs the next run. Recovery code that
    /// rewinds the particle state to an earlier snapshot must call this
    /// before replaying: cached plans carry movement accounting relative to
    /// the state they were built for, and replaying against a rewound state
    /// would mis-account it. Plans never affect the
    /// physics, so dropping them is always safe (costs only rebuild time).
    /// Must be called identically on all ranks.
    pub fn invalidate_plans(&mut self) {
        self.resort_plan = None;
        match &mut self.solver {
            Some(SolverInstance::Fmm(s)) => s.invalidate_plans(),
            Some(SolverInstance::Pm(s)) => s.invalidate_plans(),
            _ => {}
        }
    }

    /// Communication-plan cache statistics as `(builds, hits)`, aggregated
    /// over the solver's plans (ghost plan or sort plan) and the resort
    /// plans: a run that builds its plan from the routes counts one build,
    /// and the resort calls it serves count nothing.
    pub fn plan_stats(&self) -> (u64, u64) {
        let (sb, sh) = match &self.solver {
            Some(SolverInstance::Fmm(s)) => (s.plan_builds, s.plan_hits),
            Some(SolverInstance::Pm(s)) => (s.plan_builds, s.plan_hits),
            _ => (0, 0),
        };
        (sb + self.resort_plan_builds, sh + self.resort_plan_hits)
    }

    /// Which solver method this handle drives.
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// `fcs_set_common`: set the particle system properties (system box
    /// shape, offset and periodicity).
    pub fn set_common(&mut self, bbox: SystemBox) {
        self.bbox = Some(bbox);
        self.solver = None; // re-tune required
    }

    /// Target relative accuracy of the computed interactions (the paper's
    /// benchmark uses a relative total-energy error below 1e-3).
    pub fn set_tolerance(&mut self, eps: f64) {
        assert!(eps > 0.0 && eps < 1.0);
        self.tolerance = eps;
        self.solver = None;
    }

    /// Optional short-range repulsive soft core added to the near-field
    /// computations of both solvers — the "additional short range
    /// interactions" a particle application couples with the long-range
    /// solver. `None` (default) keeps the pure Coulomb kernel.
    pub fn set_soft_core(&mut self, core: Option<particles::SoftCore>) {
        self.soft_core = core;
        self.solver = None;
    }

    /// Enable Method B: return the changed (solver-specific) particle order
    /// and distribution instead of restoring the original one.
    ///
    /// ```
    /// use fcs::{Fcs, SolverKind};
    /// use particles::{SystemBox, Vec3};
    ///
    /// let out = simcomm::run(2, simcomm::MachineModel::ideal(), |comm| {
    ///     let r = comm.rank() as f64;
    ///     let pos = vec![Vec3::new(1.0 + r, 1.0, 1.0), Vec3::new(1.0 + r, 2.5, 2.0)];
    ///     let charge = vec![1.0, -1.0];
    ///     let id = vec![2 * comm.rank() as u64, 2 * comm.rank() as u64 + 1];
    ///
    ///     let mut h = Fcs::init(SolverKind::Fmm, comm.size());
    ///     h.set_common(SystemBox::cubic(4.0));
    ///     h.tune(comm, &pos, &charge);
    ///     h.set_resort(true); // Method B: keep the solver's particle order
    ///     let o = h.run(comm, &pos, &charge, &id, usize::MAX);
    ///     assert!(h.resorted());
    ///     o.pos.len() // the *changed* local particle count
    /// });
    /// assert_eq!(out.results.iter().sum::<usize>(), 4); // no particles lost
    /// ```
    pub fn set_resort(&mut self, enabled: bool) {
        self.resort_enabled = enabled;
    }

    /// Report the maximum distance any particle moved since the previous
    /// `run`. Solvers use this to switch to cheaper redistribution paths
    /// (merge-based sorting / neighbourhood communication). Reset to
    /// "unknown" by passing `None`.
    ///
    /// ```
    /// use fcs::{Fcs, SolverKind};
    /// use particles::{SystemBox, Vec3};
    ///
    /// simcomm::run(2, simcomm::MachineModel::ideal(), |comm| {
    ///     let r = comm.rank() as f64;
    ///     let mut pos = vec![Vec3::new(1.0 + r, 1.0, 1.0), Vec3::new(1.0 + r, 2.5, 2.0)];
    ///     let charge = vec![1.0, -1.0];
    ///     let id = vec![2 * comm.rank() as u64, 2 * comm.rank() as u64 + 1];
    ///
    ///     let mut h = Fcs::init(SolverKind::Fmm, comm.size());
    ///     h.set_common(SystemBox::cubic(4.0));
    ///     h.tune(comm, &pos, &charge);
    ///     h.set_resort(true);
    ///     h.run(comm, &pos, &charge, &id, usize::MAX);
    ///
    ///     // Particles drifted a little since the previous execution: tell
    ///     // the library, so the next run may use the cheaper merge-based
    ///     // redistribution instead of a full parallel sort.
    ///     for p in &mut pos {
    ///         *p = *p + Vec3::new(0.01, 0.0, 0.0);
    ///     }
    ///     h.set_max_particle_move(Some(0.01));
    ///     h.run(comm, &pos, &charge, &id, usize::MAX);
    /// });
    /// ```
    pub fn set_max_particle_move(&mut self, movement: MovementHint) {
        self.max_move = movement;
    }

    /// `fcs_tune`: determine solver-specific parameters from the current
    /// particle system. The tuning results remain valid as long as the
    /// particle positions do not change "too much". Collective.
    pub fn tune(&mut self, comm: &mut Comm, pos: &[Vec3], charge: &[f64]) {
        assert_eq!(pos.len(), charge.len());
        assert_eq!(comm.size(), self.nprocs, "world size must match fcs_init");
        let bbox = self.bbox.expect("fcs_set_common must be called before fcs_tune");
        let n_total = comm.allreduce(pos.len() as u64, |a, b| a + b);
        match self.kind {
            SolverKind::Fmm => {
                let mut cfg = FmmConfig::tuned(n_total, self.tolerance);
                cfg.soft_core = self.soft_core;
                self.solver = Some(SolverInstance::Fmm(Box::new(FmmSolver::new(bbox, cfg))));
            }
            SolverKind::P2Nfft => {
                let l = bbox.lengths;
                let lmin = l.x().min(l.y()).min(l.z());
                // Cutoff: a few mean inter-particle spacings, capped
                // by the minimum-image bound and the subdomain width.
                let mean_spacing = (bbox.volume() / n_total.max(1) as f64).cbrt();
                let grid = simcomm::CartGrid::balanced(self.nprocs);
                let dims = grid.dims();
                let min_width = (0..3).map(|d| l[d] / dims[d] as f64).fold(f64::INFINITY, f64::min);
                let rcut = (2.8 * mean_spacing).min(0.49 * lmin).min(min_width);
                let mut cfg = PmConfig::tuned(&bbox, self.tolerance, rcut);
                cfg.soft_core = self.soft_core;
                let solver = PmSolver::new(bbox, cfg, self.nprocs);
                self.solver = Some(SolverInstance::Pm(Box::new(solver)));
            }
            SolverKind::Ewald => {
                let mut cfg = EwaldConfig::tuned(&bbox, self.tolerance);
                cfg.soft_core = self.soft_core;
                self.solver = Some(SolverInstance::Ewald(EwaldSolver::new(bbox, cfg)));
            }
        }
        // Any previously frozen resort schedule is decomposition-stale.
        self.resort_plan = None;
    }

    /// `fcs_run`: compute the long-range interactions of the given local
    /// particles. Returns positions/charges/ids together with the calculated
    /// potentials and field values — in the original order (Method A, or
    /// Method B fallback) or the changed solver order (Method B). Collective.
    ///
    /// `max_local` is the capacity of the application's local particle
    /// arrays (the maximum number of particles this process can store).
    ///
    /// When the solver reports a quiet step (every rank's resort indices are
    /// the identity), and after every Ewald run, the `resort_*` calls of
    /// this run place locally, with no message and no barrier.
    pub fn run(
        &mut self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        id: &[u64],
        max_local: usize,
    ) -> SolverOutput {
        let solver = self.solver.as_mut().expect("fcs_tune must be called before fcs_run");
        let method = if self.resort_enabled {
            RedistMethod::UseChanged
        } else {
            RedistMethod::RestoreOriginal
        };
        comm.enter_phase("solver");
        // Whether the resort indices of this run are the identity on every
        // rank, so that nothing leaves any rank: the solver's allreduce shows
        // it on a quiet step, and Ewald never changes the order.
        self.last_routed = false;
        let (out, quiet) = match solver {
            SolverInstance::Fmm(s) => {
                let o = s.run(comm, pos, charge, id, method, self.max_move, max_local);
                self.last_routed = s.resort_plan().is_some();
                (o, s.last_report.resort_exchange_skipped)
            }
            SolverInstance::Pm(s) => {
                let o = s.run(comm, pos, charge, id, method, self.max_move, max_local);
                self.last_routed = s.resort_plan().is_some();
                (o, s.last_report.resort_exchange_skipped)
            }
            SolverInstance::Ewald(s) => {
                (s.run(comm, pos, charge, id, method, self.max_move, max_local), true)
            }
        };
        comm.exit_phase();
        let resort_mode = if quiet { &QUIET } else { &ExchangeMode::Collective };
        if self.last_resort_mode != *resort_mode {
            self.last_resort_mode = resort_mode.clone();
        }
        self.resort_plan_builds += u64::from(self.last_routed);
        self.last_resorted = out.resorted;
        self.last_resort_indices.clone_from(&out.resort_indices);
        self.last_n_in = pos.len();
        self.last_new_len = out.pos.len();
        out
    }

    /// Query whether the most recent `run` returned the changed particle
    /// order and distribution (`true`) or restored the original one
    /// (`false`, including the Method B capacity fallback).
    pub fn resorted(&self) -> bool {
        self.last_resorted
    }

    /// Number of local particles after the most recent `run` (the length
    /// additional data arrays will have after resorting).
    pub fn resort_len(&self) -> usize {
        self.last_new_len
    }

    /// `fcs_resort_floats`: redistribute additional per-particle `f64` data
    /// from the original order into the changed order of the most recent
    /// `run`. Must only be called when [`Fcs::resorted`] is true. Collective.
    ///
    /// ```
    /// use fcs::{Fcs, SolverKind};
    /// use particles::{SystemBox, Vec3};
    ///
    /// simcomm::run(2, simcomm::MachineModel::ideal(), |comm| {
    ///     let r = comm.rank() as f64;
    ///     let pos = vec![Vec3::new(1.0 + r, 1.0, 1.0), Vec3::new(1.0 + r, 2.5, 2.0)];
    ///     let charge = vec![1.0, -1.0];
    ///     let id = vec![2 * comm.rank() as u64, 2 * comm.rank() as u64 + 1];
    ///
    ///     let mut h = Fcs::init(SolverKind::Fmm, comm.size());
    ///     h.set_common(SystemBox::cubic(4.0));
    ///     h.tune(comm, &pos, &charge);
    ///     h.set_resort(true);
    ///     h.run(comm, &pos, &charge, &id, usize::MAX);
    ///     assert!(h.resorted());
    ///
    ///     // Additional per-particle data (here: masses, keyed by particle
    ///     // id) follows the particles into the changed distribution.
    ///     let mass: Vec<f64> = id.iter().map(|&i| 1.0 + i as f64).collect();
    ///     let mass_new = h.resort_floats(comm, &mass);
    ///     assert_eq!(mass_new.len(), h.resort_len());
    /// });
    /// ```
    pub fn resort_floats(&mut self, comm: &mut Comm, data: &[f64]) -> Vec<f64> {
        self.resort_data(comm, data)
    }

    /// `fcs_resort_ints`: like [`Fcs::resort_floats`] for `i64` data.
    pub fn resort_ints(&mut self, comm: &mut Comm, data: &[i64]) -> Vec<i64> {
        self.resort_data(comm, data)
    }

    /// Redistribute additional per-particle 3-vectors (velocities,
    /// accelerations) — the common case in the paper's integration method.
    pub fn resort_vec3(&mut self, comm: &mut Comm, data: &[Vec3]) -> Vec<Vec3> {
        self.resort_data(comm, data)
    }

    /// Generic resort of additional per-particle data.
    ///
    /// Convenience wrapper over the byte-plane path: the data is staged
    /// into a single-plane [`PlaneSet`] and moved with one byte exchange.
    /// Callers that keep their additional data in a persistent `PlaneSet`
    /// should use [`Fcs::resort_planes`] instead, which moves every
    /// registered plane in one round without the staging copies.
    pub fn resort_data<T: PlaneElem + Send>(&mut self, comm: &mut Comm, data: &[T]) -> Vec<T> {
        assert!(
            self.last_resorted,
            "resort functions require a successful Method B run (check resorted())"
        );
        assert_eq!(
            data.len(),
            self.last_n_in,
            "additional data must match the original particle count"
        );
        let plan = self.current_resort_plan(comm);
        plan.execute(comm, &[data]).pop().expect("one channel in, one channel out")
    }

    /// The frozen redistribution schedule of the most recent run: the
    /// solver's plan built from its routes, or the plan for the run's resort
    /// indices — reused while the indices/length/mode are unchanged (also
    /// *across* runs on quiet steps where the solver reproduces the same
    /// placement), rebuilt otherwise.
    fn current_resort_plan(&mut self, comm: &mut Comm) -> &atasp::ResortPlan {
        if self.last_routed {
            let plan = match &self.solver {
                Some(SolverInstance::Fmm(s)) => s.resort_plan(),
                Some(SolverInstance::Pm(s)) => s.resort_plan(),
                _ => None,
            };
            return plan
                .expect("the last run's resort plan was dropped (plans invalidated or re-tuned)");
        }
        let hit = self.resort_plan.as_ref().is_some_and(|pl| {
            pl.matches(&self.last_resort_indices, self.last_new_len, &self.last_resort_mode)
        });
        if hit {
            self.resort_plan_hits += 1;
        } else {
            self.resort_plan_builds += 1;
            self.resort_plan = Some(atasp::ResortPlan::build(
                comm,
                &self.last_resort_indices,
                self.last_new_len,
                &self.last_resort_mode,
            ));
        }
        self.resort_plan.as_ref().expect("plan built above")
    }

    /// Redistribute every registered plane of `set` — the application's
    /// additional per-particle data in structure-of-arrays form — into the
    /// changed order of the most recent `run`, in a **single** combined byte
    /// exchange round (see [`atasp::resort_planes`]).
    ///
    /// This is the preferred multi-channel resort: planes of different
    /// element types (velocities as `Vec3`, a tag as `u64`, ...) ride one
    /// exchange, received elements land in the set's back slabs, and the
    /// commit is a pointer swap — the steady-state path allocates nothing
    /// once slabs and pooled message buffers have reached their high-water
    /// sizes. On return `set.len()` equals [`Fcs::resort_len`]. Must only be
    /// called when [`Fcs::resorted`] is true. Collective.
    ///
    /// The frozen schedule is shared with the per-`T` entry points and
    /// cached across runs (see [`Fcs::plan_stats`]).
    ///
    /// ```
    /// use fcs::{Fcs, SolverKind};
    /// use particles::{PlaneSet, SystemBox, Vec3};
    ///
    /// simcomm::run(2, simcomm::MachineModel::ideal(), |comm| {
    ///     let r = comm.rank() as f64;
    ///     let pos = vec![Vec3::new(1.0 + r, 1.0, 1.0), Vec3::new(1.0 + r, 2.5, 2.0)];
    ///     let charge = vec![1.0, -1.0];
    ///     let id = vec![2 * comm.rank() as u64, 2 * comm.rank() as u64 + 1];
    ///
    ///     let mut h = Fcs::init(SolverKind::Fmm, comm.size());
    ///     h.set_common(SystemBox::cubic(4.0));
    ///     h.tune(comm, &pos, &charge);
    ///     h.set_resort(true);
    ///     h.run(comm, &pos, &charge, &id, usize::MAX);
    ///     assert!(h.resorted());
    ///
    ///     // Velocities and a per-particle tag follow the particles
    ///     // together, riding a single byte exchange.
    ///     let mut aux = PlaneSet::new();
    ///     let vel = aux.register::<Vec3>("vel");
    ///     let tag = aux.register::<u64>("tag");
    ///     aux.resize(2);
    ///     aux.plane_mut::<Vec3>(vel).fill(Vec3::new(r, 0.0, 0.0));
    ///     aux.plane_mut::<u64>(tag).copy_from_slice(&id);
    ///     h.resort_planes(comm, &mut aux);
    ///     assert_eq!(aux.len(), h.resort_len());
    /// });
    /// ```
    pub fn resort_planes(&mut self, comm: &mut Comm, set: &mut PlaneSet) {
        assert!(
            self.last_resorted,
            "resort functions require a successful Method B run (check resorted())"
        );
        assert_eq!(set.len(), self.last_n_in, "plane set must match the original particle count");
        let plan = self.current_resort_plan(comm);
        plan.execute_planes(comm, set);
    }

    /// `fcs_destroy`: release the solver instance. (Rust frees resources on
    /// drop; provided for interface parity.)
    pub fn destroy(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use particles::{local_set, InitialDistribution, IonicCrystal};
    use simcomm::{run, CartGrid, MachineModel};

    fn run_solver(
        kind: SolverKind,
        p: usize,
        resort: bool,
        dist: InitialDistribution,
    ) -> (f64, Vec<bool>) {
        let c = IonicCrystal::cubic(6, 1.0, 0.15, 4);
        let bbox = c.system_box();
        let out = run(p, MachineModel::ideal(), move |comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = local_set(&c, dist, comm.rank(), p, dims);
            let mut h = Fcs::init(kind, p);
            h.set_common(bbox);
            h.set_tolerance(1e-3);
            h.tune(comm, set.pos(), set.charge());
            h.set_resort(resort);
            let o = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
            let e = 0.5 * o.potential.iter().zip(&o.charge).map(|(a, q)| a * q).sum::<f64>();
            (e, h.resorted())
        });
        let energy: f64 = out.results.iter().map(|&(e, _)| e).sum();
        let resorted: Vec<bool> = out.results.iter().map(|&(_, r)| r).collect();
        (energy, resorted)
    }

    #[test]
    fn all_solvers_agree_on_energy() {
        let (e_fmm, _) = run_solver(SolverKind::Fmm, 4, false, InitialDistribution::Random);
        let (e_pm, _) = run_solver(SolverKind::P2Nfft, 4, false, InitialDistribution::Random);
        let (e_ew, _) = run_solver(SolverKind::Ewald, 4, false, InitialDistribution::Random);
        // Ewald is the exact reference: the particle-mesh solver must match it
        // to its tolerance, the FMM (cell-pair minimum-image approximation of
        // periodicity) more loosely.
        let rel_pm = (e_pm - e_ew).abs() / e_ew.abs();
        assert!(rel_pm < 3e-3, "pm {e_pm} vs ewald {e_ew} (rel {rel_pm})");
        let rel_fmm = (e_fmm - e_ew).abs() / e_ew.abs();
        assert!(rel_fmm < 5e-2, "fmm {e_fmm} vs ewald {e_ew} (rel {rel_fmm})");
    }

    #[test]
    fn method_a_and_b_identical_energy_per_solver() {
        for kind in [SolverKind::Fmm, SolverKind::P2Nfft] {
            let (ea, ra) = run_solver(kind, 4, false, InitialDistribution::Grid);
            let (eb, rb) = run_solver(kind, 4, true, InitialDistribution::Grid);
            assert!(ra.iter().all(|&r| !r));
            assert!(rb.iter().all(|&r| r), "{kind:?} must resort");
            assert!((ea - eb).abs() < 1e-9 * ea.abs(), "{kind:?}: {ea} vs {eb}");
        }
    }

    #[test]
    fn resort_floats_follow_particles() {
        // Tag every particle with a float equal to its id; after a Method B
        // run + resort_floats, tags must line up with the returned ids.
        let c = IonicCrystal::cubic(6, 1.0, 0.2, 8);
        let bbox = c.system_box();
        let p = 8;
        for kind in [SolverKind::Fmm, SolverKind::P2Nfft] {
            let c = c.clone();
            run(p, MachineModel::ideal(), move |comm| {
                let set = local_set(&c, InitialDistribution::Random, comm.rank(), p, [2, 2, 2]);
                let mut h = Fcs::init(kind, p);
                h.set_common(bbox);
                h.tune(comm, set.pos(), set.charge());
                h.set_resort(true);
                let o = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
                assert!(h.resorted());
                let tags: Vec<f64> = set.id().iter().map(|&i| i as f64).collect();
                let moved = h.resort_floats(comm, &tags);
                assert_eq!(moved.len(), o.id.len());
                for (tag, id) in moved.iter().zip(&o.id) {
                    assert_eq!(*tag, *id as f64, "{kind:?}: tag must follow its particle");
                }
                // Vec3 resorting too.
                let vtags: Vec<Vec3> = set.id().iter().map(|&i| Vec3::splat(i as f64)).collect();
                let vmoved = h.resort_vec3(comm, &vtags);
                for (tag, id) in vmoved.iter().zip(&o.id) {
                    assert_eq!(tag.x(), *id as f64);
                }
            });
        }
    }

    #[test]
    fn soft_core_consistent_across_all_solvers() {
        // The short-range repulsive core is evaluated in three different
        // near-field implementations (FMM P2P, linked cells, Ewald ring);
        // total energies must agree. Ewald is exact; the fast solvers carry
        // their usual Coulomb approximation error on top.
        let c = IonicCrystal::cubic(4, 1.0, 0.2, 19);
        let bbox = c.system_box();
        let p = 4;
        let energy = |kind: SolverKind| -> f64 {
            let c = c.clone();
            let out = run(p, MachineModel::ideal(), move |comm| {
                let dims = CartGrid::balanced(p).dims();
                let set = local_set(&c, InitialDistribution::Grid, comm.rank(), p, dims);
                let mut h = Fcs::init(kind, p);
                h.set_common(bbox);
                h.set_tolerance(1e-3);
                h.set_soft_core(Some(particles::SoftCore::for_spacing(1.0)));
                h.tune(comm, set.pos(), set.charge());
                let o = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
                0.5 * o.potential.iter().zip(&o.charge).map(|(a, q)| a * q).sum::<f64>()
            });
            out.results.iter().sum()
        };
        let e_ewald = energy(SolverKind::Ewald);
        let e_pm = energy(SolverKind::P2Nfft);
        let e_fmm = energy(SolverKind::Fmm);
        assert!((e_pm - e_ewald).abs() < 5e-3 * e_ewald.abs(), "pm {e_pm} vs ewald {e_ewald}");
        assert!((e_fmm - e_ewald).abs() < 5e-2 * e_ewald.abs(), "fmm {e_fmm} vs ewald {e_ewald}");
        // The repulsion must actually contribute (jitter 0.2 creates close
        // pairs): energy with core differs from pure Coulomb.
        let pure = {
            let c = c.clone();
            let out = run(p, MachineModel::ideal(), move |comm| {
                let dims = CartGrid::balanced(p).dims();
                let set = local_set(&c, InitialDistribution::Grid, comm.rank(), p, dims);
                let mut h = Fcs::init(SolverKind::Ewald, p);
                h.set_common(bbox);
                h.set_tolerance(1e-3);
                h.tune(comm, set.pos(), set.charge());
                let o = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
                0.5 * o.potential.iter().zip(&o.charge).map(|(a, q)| a * q).sum::<f64>()
            });
            out.results.iter().sum::<f64>()
        };
        assert!(e_ewald > pure, "repulsion must raise the energy: {e_ewald} vs {pure}");
    }

    #[test]
    fn capacity_fallback_reports_not_resorted() {
        let c = IonicCrystal::cubic(4, 1.0, 0.1, 2);
        let bbox = c.system_box();
        let p = 4;
        run(p, MachineModel::ideal(), move |comm| {
            let set = local_set(&c, InitialDistribution::Random, comm.rank(), p, [2, 2, 1]);
            let mut h = Fcs::init(SolverKind::Fmm, p);
            h.set_common(bbox);
            h.tune(comm, set.pos(), set.charge());
            h.set_resort(true);
            let o = h.run(comm, set.pos(), set.charge(), set.id(), 0);
            assert!(!h.resorted(), "capacity 0 must force the fallback");
            assert_eq!(o.id, set.id(), "fallback restores the original order");
        });
    }

    #[test]
    fn solver_kind_parsing() {
        assert_eq!("fmm".parse::<SolverKind>().unwrap(), SolverKind::Fmm);
        assert_eq!("P2NFFT".parse::<SolverKind>().unwrap(), SolverKind::P2Nfft);
        assert_eq!("p3m".parse::<SolverKind>().unwrap(), SolverKind::P2Nfft);
        assert_eq!("ewald".parse::<SolverKind>().unwrap(), SolverKind::Ewald);
        assert!("barnes-hut".parse::<SolverKind>().is_err());
    }

    #[test]
    #[should_panic(expected = "fcs_tune must be called before fcs_run")]
    fn run_without_tune_panics() {
        run(1, MachineModel::ideal(), |comm| {
            let mut h = Fcs::init(SolverKind::Fmm, 1);
            h.set_common(SystemBox::cubic(4.0));
            h.run(comm, &[], &[], &[], usize::MAX);
        });
    }

    #[test]
    #[should_panic(expected = "resort functions require")]
    fn resort_without_method_b_panics() {
        run(1, MachineModel::ideal(), |comm| {
            let c = IonicCrystal::cubic(2, 1.0, 0.0, 0);
            let set = local_set(&c, InitialDistribution::SingleProcess, 0, 1, [1, 1, 1]);
            let mut h = Fcs::init(SolverKind::Fmm, 1);
            h.set_common(c.system_box());
            h.tune(comm, set.pos(), set.charge());
            let _ = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
            let _ = h.resort_floats(comm, &[0.0; 8]);
        });
    }

    #[test]
    fn a_quiet_step_resorts_without_communicating() {
        let c = IonicCrystal::cubic(6, 1.0, 0.1, 6);
        let bbox = c.system_box();
        let p = 8;
        for kind in [SolverKind::Fmm, SolverKind::P2Nfft, SolverKind::Ewald] {
            let c = c.clone();
            run(p, MachineModel::juropa_like(), move |comm| {
                let dims = CartGrid::balanced(p).dims();
                let set = local_set(&c, InitialDistribution::Grid, comm.rank(), p, dims);
                let mut h = Fcs::init(kind, p);
                h.set_common(bbox);
                h.tune(comm, set.pos(), set.charge());
                h.set_resort(true);
                let o1 = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
                // Nothing moved since: every rank keeps its particles in order.
                h.set_max_particle_move(Some(1e-6));
                let o2 = h.run(comm, &o1.pos, &o1.charge, &o1.id, usize::MAX);
                assert!(h.resorted());
                assert_eq!(o2.id, o1.id, "{kind:?}");
                let tags: Vec<f64> = o1.id.iter().map(|&i| i as f64).collect();
                let before = comm.stats().clone();
                let moved = h.resort_floats(comm, &tags);
                let after = comm.stats();
                assert_eq!(moved, tags);
                assert_eq!(after.p2p_sent_msgs, before.p2p_sent_msgs, "{kind:?}: no message");
                assert_eq!(after.coll_ops, before.coll_ops, "{kind:?}: no barrier");
            });
        }
    }

    #[test]
    fn a_p2nfft_step_that_moves_resorts_along_its_sort_routes() {
        use simcomm::{Runner, TraceKind};
        let c = IonicCrystal::cubic(6, 1.0, 0.1, 6);
        let bbox = c.system_box();
        let p = 8;
        // Without and with the movement hint: all-to-all-v steps, then
        // (after a first step that has no hint) neighbourhood steps.
        for hint in [false, true] {
            let c = c.clone();
            let runner = Runner::default().traced(true);
            let out = runner.run(p, MachineModel::juropa_like(), move |comm| {
                let dims = CartGrid::balanced(p).dims();
                let set = local_set(&c, InitialDistribution::Random, comm.rank(), p, dims);
                let mut h = Fcs::init(SolverKind::P2Nfft, p);
                h.set_common(bbox);
                h.tune(comm, set.pos(), set.charge());
                h.set_resort(true);
                let (mut pos, charge, id) = set.into_parts();
                let (mut charge, mut id, mut tags) = (charge, id.clone(), id);
                let mut starts = Vec::new();
                for step in 0..4u64 {
                    if step > 0 {
                        // Every particle moves by up to half a spacing per axis.
                        for (x, &i) in pos.iter_mut().zip(&id) {
                            let u = |axis: u64| {
                                let bits = particles::systems::splitmix64(i ^ step << 32 ^ axis);
                                (bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                            };
                            *x = bbox.wrap(*x + Vec3::new(u(1), u(2), u(3)));
                        }
                        h.set_max_particle_move(hint.then_some(0.9));
                    }
                    starts.push(comm.clock());
                    let o = h.run(comm, &pos, &charge, &id, usize::MAX);
                    assert!(h.resorted() && o.resort_indices.is_empty(), "step {step}: it moves");
                    tags = h
                        .resort_ints(comm, &tags.iter().map(|&t| t as i64).collect::<Vec<_>>())
                        .into_iter()
                        .map(|t| t as u64)
                        .collect();
                    assert_eq!(tags, o.id, "step {step}: the tags follow their particles");
                    (pos, charge, id) = (o.pos, o.charge, o.id);
                }
                starts
            });
            let collective = |k: TraceKind| {
                use TraceKind::*;
                matches!(k, Barrier | Bcast | Reduce | Gather | Alltoallv | SparseExchange)
            };
            let message = |k: TraceKind| {
                use TraceKind::*;
                matches!(k, Send | Recv | Isend | Wait)
            };
            for (r, (trace, starts)) in out.traces.iter().zip(&out.results).enumerate() {
                let phase = |name| trace.events.iter().filter(move |e| e.phase == name);
                assert!(
                    phase("resort").all(|e| !collective(e.kind) && !message(e.kind)),
                    "hint {hint} rank {r}: the resort phase exchanges nothing"
                );
                // One all-to-all-v a step, or under the hint only on step 0.
                let steps: Vec<usize> = phase("redistribute")
                    .filter(|e| collective(e.kind))
                    .map(|e| {
                        assert_eq!(e.kind, TraceKind::Alltoallv, "hint {hint} rank {r}");
                        starts.partition_point(|&t| t <= e.t_start) - 1
                    })
                    .collect();
                let want: Vec<usize> = if hint { vec![0] } else { vec![0, 1, 2, 3] };
                assert_eq!(steps, want, "hint {hint} rank {r}: redistribute collectives");
            }
        }
    }

    #[test]
    fn movement_hint_is_honoured_through_interface() {
        let c = IonicCrystal::cubic(6, 1.0, 0.1, 6);
        let bbox = c.system_box();
        let p = 8;
        run(p, MachineModel::ideal(), move |comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = local_set(&c, InitialDistribution::Grid, comm.rank(), p, dims);
            let mut h = Fcs::init(SolverKind::P2Nfft, p);
            h.set_common(bbox);
            h.tune(comm, set.pos(), set.charge());
            h.set_resort(true);
            let o1 = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
            // Re-run from the solver distribution with a tiny movement hint.
            h.set_max_particle_move(Some(1e-6));
            let o2 = h.run(comm, &o1.pos, &o1.charge, &o1.id, usize::MAX);
            assert!(h.resorted());
            // Resorting through the neighbourhood path must work.
            let tags: Vec<f64> = o1.id.iter().map(|&i| i as f64).collect();
            let moved = h.resort_floats(comm, &tags);
            for (tag, id) in moved.iter().zip(&o2.id) {
                assert_eq!(*tag, *id as f64);
            }
        });
    }
}
