//! # mdsim — the particle dynamics simulation application
//!
//! The example application of the paper (Sect. II-D): a second-order leapfrog
//! integration of the equations of motion,
//!
//! ```text
//! x_{i+1} = x_i + v_i dt + a_i dt^2 / 2        (Eq. 1)
//! v_{i+1} = v_i + (a_i + a_{i+1}) dt / 2       (Eq. 2)
//! ```
//!
//! coupled to a long-range solver through the `fcs` library interface. The
//! simulation driver follows the paper's Fig. 3 pseudocode: tune, compute the
//! initial interactions, then `T` time steps of position update → `fcs_run`
//! → acceleration update → velocity update. Including the initial
//! interactions the solver executes `T + 1` times.
//!
//! The application carries **additional per-particle data** the solver does
//! not handle — velocities, accelerations, and (for diagnostics) each
//! particle's initial position. Under Method B this data is redistributed
//! after every solver execution with `fcs_resort_vec3`, exactly as the paper
//! describes for the integration method (Sect. III-B). The driver records a
//! per-step timing breakdown (sort / restore / resort / total) matching the
//! quantities plotted in the paper's Figs. 6–9.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod io;

use fcs::{Fcs, SolverKind};
use particles::{ParticleSet, SystemBox, Vec3};
use simcomm::Comm;

/// Local array capacity as a multiple of the mean particles per process.
const CAPACITY_FACTOR: f64 = 3.0;

/// Initial thermal velocities, expressed as the typical per-step particle
/// movement as a fraction of the mean inter-particle spacing. The paper's
/// benchmark system is a *melting* crystal whose ions drift slowly; our
/// synthetic stand-in starts from lattice positions, so a small initial
/// temperature reproduces that drift (~0.4 % of the spacing per step —
/// "positions change only slightly from one time step to the next", yet
/// cumulative). Velocities are a pure function of the particle id, so
/// trajectories are identical across methods and distributions.
const THERMAL_MOVE_FRACTION: f64 = 0.004;

/// Configuration of one particle dynamics simulation. Every simulation
/// couples a short-range repulsive core, sized from the mean inter-particle
/// spacing, with the long-range solver: without it, a pure Coulomb system of
/// opposite charges eventually collapses, and the paper's silica system
/// likewise combines the Coulomb solver with "additional short range
/// interactions".
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Which long-range solver to couple.
    pub solver: SolverKind,
    /// Method B (use the changed particle order and distribution) if true,
    /// Method A (restore the original order and distribution) otherwise.
    pub resort: bool,
    /// Feed the measured maximum particle movement to the solver so it can
    /// switch to merge-based sorting / neighbourhood communication.
    pub exploit_movement: bool,
    /// Integration time step (the paper uses 0.01).
    pub dt: f64,
    /// Number of time steps `T` (the solver runs `T + 1` times).
    pub steps: usize,
    /// Target relative accuracy of the solver.
    pub tolerance: f64,
    /// Particle mass (unit charge-to-mass ratio scales the dynamics).
    pub mass: f64,
    /// Track each particle's initial position as an extra per-particle data
    /// channel, enabling the RMS-displacement diagnostic. Under Method A this
    /// is free (the order never changes); under Method B the channel must be
    /// resorted every step like the velocities, adding redistribution volume
    /// beyond what the paper's application carries — hence off by default.
    pub track_displacement: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            solver: SolverKind::Fmm,
            resort: false,
            exploit_movement: false,
            dt: 0.01,
            steps: 10,
            tolerance: 1e-2,
            mass: 1.0,
            track_displacement: false,
        }
    }
}

/// Per-step timing and diagnostics record (virtual seconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepRecord {
    /// Time step index (0 = the initial interaction computation).
    pub step: usize,
    /// Solver-internal particle sorting/redistribution time.
    pub sort: f64,
    /// Restoring the original order and distribution (Method A only).
    pub restore: f64,
    /// Creating resort indices + resorting the application's additional
    /// particle data (Method B only).
    pub resort: f64,
    /// Total time of the solver execution including application-side
    /// redistribution of additional data.
    pub total: f64,
    /// Maximum distance any particle moved in the preceding position update.
    pub max_move: f64,
    /// Total energy (kinetic + potential) after this step.
    pub energy: f64,
    /// Whether the solver returned the changed order (Method B succeeded).
    pub resorted: bool,
}

/// Result of a simulation run on one rank.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// One record per solver execution (index 0 is the initial computation).
    pub records: Vec<StepRecord>,
    /// Final local particle count.
    pub final_local: usize,
    /// Root-mean-square displacement of local particles from their initial
    /// positions (a measure of how far the system has drifted).
    pub rms_displacement: f64,
    /// Final virtual clock of this rank.
    pub final_clock: f64,
    /// Communication plans built (including rebuilds) across the run — the
    /// solver's plans plus the resort schedules (see `Fcs::plan_stats`).
    pub plan_builds: u64,
    /// Solver executions / resort calls that reused a cached plan.
    pub plan_hits: u64,
    /// Rollback-and-replay recoveries performed. Only fault-injected runs
    /// (see [`simcomm::Runner::faulted`]) can recover; plain runs report 0.
    /// Identical on every rank (the trigger is collective).
    pub recoveries: u64,
    /// Final local state (positions, velocities, ... ), usable as a
    /// checkpoint via [`io::Snapshot`] and [`simulate_from`].
    pub final_state: io::Snapshot,
}

/// Run the particle dynamics simulation of the paper's Fig. 3 on the local
/// particle set. Collective: every rank calls it with its share of the
/// system. Initial thermal velocities move a particle about 0.4 % of the
/// mean inter-particle spacing per step.
pub fn simulate(comm: &mut Comm, bbox: SystemBox, set: ParticleSet, cfg: &SimConfig) -> SimResult {
    let n_total = comm.allreduce(set.len() as u64, |a, b| a + b) as usize;
    let mean_spacing = (bbox.volume() / n_total.max(1) as f64).cbrt();
    let vt = THERMAL_MOVE_FRACTION * mean_spacing / cfg.dt;
    let vel: Vec<Vec3> = set.id().iter().map(|&i| thermal_velocity(i, vt)).collect();
    let n = set.len();
    let (pos, charge, id) = set.into_parts();
    let snapshot = io::Snapshot { bbox, step: 0, pos, charge, id, vel, accel: vec![Vec3::ZERO; n] };
    simulate_from(comm, snapshot, cfg)
}

/// Continue a particle dynamics simulation from a previously saved local
/// state (checkpoint/restart). Collective. The snapshot's velocities and
/// accelerations are used as-is; `cfg.steps` *further* steps are integrated.
pub fn simulate_from(comm: &mut Comm, snapshot: io::Snapshot, cfg: &SimConfig) -> SimResult {
    let p = comm.size();
    let bbox = snapshot.bbox;
    let start_step = snapshot.step;
    let n_total = comm.allreduce(snapshot.len() as u64, |a, b| a + b) as usize;
    let max_local = ((CAPACITY_FACTOR * n_total as f64 / p as f64) as usize).max(64);
    let mean_spacing = (bbox.volume() / n_total.max(1) as f64).cbrt();

    // Application state. Positions/charges/ids flow through the solver; all
    // *additional* per-particle channels live in one structure-of-arrays
    // `PlaneSet`, so under Method B they ride a single combined byte
    // exchange ([`Fcs::resort_planes`]) with no pack/unpack copies and no
    // steady-state allocation.
    let mut pos = snapshot.pos;
    let mut charge = snapshot.charge;
    let mut id = snapshot.id;
    let mut aux = particles::PlaneSet::new();
    let vel_id = aux.register::<Vec3>("vel");
    let accel_id = aux.register::<Vec3>("accel");
    // Optional diagnostic channel: each particle's initial position. Like
    // velocities, it must be resorted under Method B — so it is only carried
    // when requested (free under Method A, where the order never changes).
    let track = cfg.track_displacement || !cfg.resort;
    let ipos_id = track.then(|| aux.register::<Vec3>("initial_pos"));
    aux.resize(pos.len());
    aux.plane_mut::<Vec3>(vel_id).copy_from_slice(&snapshot.vel);
    aux.plane_mut::<Vec3>(accel_id).copy_from_slice(&snapshot.accel);
    if let Some(ip) = ipos_id {
        aux.plane_mut::<Vec3>(ip).copy_from_slice(&pos);
    }

    // fcs_init / fcs_set_common / fcs_tune.
    let mut handle = Fcs::init(cfg.solver, p);
    handle.set_common(bbox);
    handle.set_tolerance(cfg.tolerance);
    handle.set_resort(cfg.resort);
    handle.set_soft_core(Some(particles::SoftCore::for_spacing(mean_spacing)));
    handle.tune(comm, &pos, &charge);

    let mut records = Vec::with_capacity(cfg.steps + 1);
    let inv_mass = 1.0 / cfg.mass;

    // One solver execution + application-side data handling; returns the
    // step record (without step index/energy fields filled).
    let run_solver = |comm: &mut Comm,
                      handle: &mut Fcs,
                      pos: &mut Vec<Vec3>,
                      charge: &mut Vec<f64>,
                      id: &mut Vec<u64>,
                      aux: &mut particles::PlaneSet|
     -> (StepRecord, Vec<f64>) {
        let t0 = comm.clock();
        let out = handle.run(comm, pos, charge, id, max_local);
        let mut rec = StepRecord {
            sort: out.timings.sort,
            restore: out.timings.restore,
            resort: out.timings.resort_create,
            resorted: out.resorted,
            ..StepRecord::default()
        };
        if out.resorted {
            // Method B: adopt the solver's order; every registered plane
            // (velocities, accelerations, tracked initial positions) rides
            // one combined byte exchange round (the paper resorts velocities
            // and accelerations together), landing in the set's back slabs.
            let t_resort = comm.clock();
            handle.resort_planes(comm, aux);
            rec.resort += comm.clock() - t_resort;
        }
        *pos = out.pos;
        *charge = out.charge;
        *id = out.id;
        // Determine accelerations from the calculated field values.
        let accel = aux.plane_mut::<Vec3>(accel_id);
        for (a, (e, q)) in accel.iter_mut().zip(out.field.iter().zip(charge.iter())) {
            *a = *e * (q * inv_mass);
        }
        comm.with_phase("integrate", |c| c.compute(simcomm::Work::ParticleOp, pos.len() as f64));
        rec.total = comm.clock() - t0;
        (rec, out.potential)
    };

    // Initial interactions (line 5 of Fig. 3).
    let (mut rec, potential) =
        run_solver(comm, &mut handle, &mut pos, &mut charge, &mut id, &mut aux);
    rec.step = start_step;
    rec.energy = total_energy(comm, &potential, &charge, aux.plane::<Vec3>(vel_id), cfg.mass);
    records.push(rec);

    // --- Fault recovery (fault-injected worlds only; see `simcomm::fault`).
    // An in-memory checkpoint of the local state is kept at step boundaries;
    // when a step completes with a newly injected rank stall or wait timeout
    // anywhere in the world (detected collectively from the per-rank fault
    // counters), the loop rolls back to the checkpoint, drops every cached
    // communication plan (they carry movement accounting relative to the
    // state they were built for) and replays. Faults delay — they never
    // corrupt payloads — so the replayed trajectory is bitwise identical to
    // an unfaulted run: recovery masks the fault at the cost of redone work.
    // On clean worlds `recovery_on` is false and this entire block costs
    // nothing (no extra collectives), keeping plain runs bit-for-bit
    // identical to the pre-fault-layer behaviour.
    struct Checkpoint {
        state: io::Snapshot,
        aux: particles::PlaneSet,
        records: usize,
    }
    let recovery_on = comm.fault_active();
    const CHECKPOINT_INTERVAL: usize = 4;
    const MAX_RECOVERIES: u64 = 2;
    let mut recoveries = 0u64;
    let mut fault_mark = comm.stats().timeouts + comm.stats().stalls;
    let take_checkpoint = |completed: usize,
                           pos: &Vec<Vec3>,
                           charge: &Vec<f64>,
                           id: &Vec<u64>,
                           aux: &particles::PlaneSet,
                           records: &Vec<StepRecord>|
     -> Checkpoint {
        Checkpoint {
            state: io::Snapshot {
                bbox,
                step: start_step + completed,
                pos: pos.clone(),
                charge: charge.clone(),
                id: id.clone(),
                vel: aux.plane::<Vec3>(vel_id).to_vec(),
                accel: aux.plane::<Vec3>(accel_id).to_vec(),
            },
            aux: aux.clone(),
            records: records.len(),
        }
    };
    let mut checkpoint =
        recovery_on.then(|| take_checkpoint(0, &pos, &charge, &id, &aux, &records));

    // Simulation loop (lines 8-12 of Fig. 3).
    let mut step = 1usize;
    while step <= cfg.steps {
        // Positions x_{i+1} (Eq. 1), tracking the maximum movement.
        comm.enter_phase("integrate");
        let mut max_move2: f64 = 0.0;
        {
            let vel = aux.plane::<Vec3>(vel_id);
            let accel = aux.plane::<Vec3>(accel_id);
            for i in 0..pos.len() {
                let delta = vel[i] * cfg.dt + accel[i] * (0.5 * cfg.dt * cfg.dt);
                max_move2 = max_move2.max(delta.norm2());
                pos[i] = bbox.wrap(pos[i] + delta);
            }
        }
        comm.compute(simcomm::Work::ParticleOp, pos.len() as f64);
        let max_move = comm.allreduce(max_move2, f64::max).sqrt();
        // A fault plan may order the movement hint to lie (under-report the
        // true movement by a factor) this step — the violation the solvers'
        // movement-bound guards detect and mask. Drawn from the step number
        // only, so every rank lies identically.
        let mut hint = if cfg.exploit_movement { Some(max_move) } else { None };
        if recovery_on {
            if let (Some(m), Some(f)) =
                (hint, comm.fault_plan().hint_lie((start_step + step) as u64))
            {
                hint = Some(m * f);
            }
        }
        handle.set_max_particle_move(hint);

        // Old accelerations a_i are needed for Eq. 2; under Method B they are
        // redistributed by run_solver before being combined below, so stash a
        // copy *after* the resort by recomputing v half-step first.
        // Standard kick-drift-kick equivalent: v += a_i dt/2 before the
        // solver, v += a_{i+1} dt/2 after — algebraically identical to Eq. 2
        // and free of old-acceleration bookkeeping across redistribution.
        {
            let (vel, accel) = aux.plane_pair_mut::<Vec3, Vec3>(vel_id, accel_id);
            for (v, a) in vel.iter_mut().zip(accel) {
                *v += *a * (0.5 * cfg.dt);
            }
        }
        comm.compute(simcomm::Work::ParticleOp, pos.len() as f64);
        comm.exit_phase();

        // fcs_run + data handling (line 10).
        let (mut rec, potential) =
            run_solver(comm, &mut handle, &mut pos, &mut charge, &mut id, &mut aux);

        // Velocities v_{i+1} (Eq. 2, second half-kick).
        comm.enter_phase("integrate");
        {
            let (vel, accel) = aux.plane_pair_mut::<Vec3, Vec3>(vel_id, accel_id);
            for (v, a) in vel.iter_mut().zip(accel) {
                *v += *a * (0.5 * cfg.dt);
            }
        }
        comm.compute(simcomm::Work::ParticleOp, pos.len() as f64);

        rec.step = start_step + step;
        rec.max_move = max_move;
        rec.energy = total_energy(comm, &potential, &charge, aux.plane::<Vec3>(vel_id), cfg.mass);
        comm.exit_phase();
        records.push(rec);

        if recovery_on {
            // Collective fault check: did any rank accumulate new stalls or
            // wait timeouts during this step? The trigger is an allreduce of
            // the counter deltas, so every rank takes the same decision.
            let mark = comm.stats().timeouts + comm.stats().stalls;
            let newly = mark - fault_mark;
            fault_mark = mark;
            if comm.allreduce(newly, |a, b| a + b) > 0 && recoveries < MAX_RECOVERIES {
                recoveries += 1;
                let cp = checkpoint.as_ref().expect("checkpoint taken before the loop");
                pos = cp.state.pos.clone();
                charge = cp.state.charge.clone();
                id = cp.state.id.clone();
                aux = cp.aux.clone();
                records.truncate(cp.records);
                handle.invalidate_plans();
                step = cp.state.step - start_step + 1;
                continue;
            }
            if step.is_multiple_of(CHECKPOINT_INTERVAL) {
                checkpoint = Some(take_checkpoint(step, &pos, &charge, &id, &aux, &records));
            }
        }
        step += 1;
    }

    // Drift diagnostic: RMS displacement from the initial positions (NaN if
    // the channel was not tracked).
    let rms_displacement = if let Some(ip) = ipos_id.filter(|_| !pos.is_empty()) {
        let initial_pos = aux.plane::<Vec3>(ip);
        let local_sum: f64 =
            pos.iter().zip(initial_pos).map(|(x, x0)| bbox.min_image(*x, *x0).norm2()).sum();
        let global_sum = comm.allreduce(local_sum, |a, b| a + b);
        (global_sum / n_total as f64).sqrt()
    } else {
        let _ = comm.allreduce(0.0f64, |a, b| a + b);
        f64::NAN
    };

    let (plan_builds, plan_hits) = handle.plan_stats();
    SimResult {
        records,
        final_local: pos.len(),
        rms_displacement,
        final_clock: comm.clock(),
        plan_builds,
        plan_hits,
        recoveries,
        final_state: io::Snapshot {
            bbox,
            step: start_step + cfg.steps,
            pos,
            charge,
            id,
            vel: aux.plane::<Vec3>(vel_id).to_vec(),
            accel: aux.plane::<Vec3>(accel_id).to_vec(),
        },
    }
}

/// Deterministic approximately-Gaussian thermal velocity for particle `id`
/// with per-component standard deviation `vt` (pure function of the id, so
/// every rank computes the same velocity for the same particle).
fn thermal_velocity(id: u64, vt: f64) -> Vec3 {
    if vt == 0.0 {
        return Vec3::ZERO;
    }
    let mut h = particles::systems::splitmix64(id ^ 0x7468_6572_6d61_6c21);
    let mut gauss = || {
        // Sum of four uniforms, centred and scaled to unit variance.
        let mut acc = 0.0;
        for _ in 0..4 {
            h = particles::systems::splitmix64(h);
            acc += (h >> 11) as f64 / (1u64 << 53) as f64;
        }
        (acc - 2.0) * (3.0f64).sqrt()
    };
    Vec3::new(gauss() * vt, gauss() * vt, gauss() * vt)
}

/// A time step scaled to the system's natural oscillation time
/// `sqrt(m a^3 / q^2)` for mean inter-particle spacing `a` (unit charges):
/// `dt = 0.0023 * sqrt(m a^3)`. For the paper's benchmark density
/// (829 440 ions in a 248^3 box, mean spacing ~2.65) this reproduces the
/// paper's `dt = 0.01`; scaled-down systems with larger spacing get a
/// correspondingly larger step so the per-step particle movement (and hence
/// the redistribution behaviour) matches.
pub fn suggested_dt(mean_spacing: f64, mass: f64) -> f64 {
    0.0023 * (mass * mean_spacing.powi(3)).sqrt()
}

/// Global total energy: `0.5 sum q_i phi_i + 0.5 m sum |v_i|^2`.
fn total_energy(
    comm: &mut Comm,
    potential: &[f64],
    charge: &[f64],
    vel: &[Vec3],
    mass: f64,
) -> f64 {
    let pot: f64 = 0.5 * potential.iter().zip(charge).map(|(p, q)| p * q).sum::<f64>();
    let kin: f64 = 0.5 * mass * vel.iter().map(|v| v.norm2()).sum::<f64>();
    comm.allreduce(pot + kin, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use particles::{local_set, InitialDistribution, IonicCrystal};
    use simcomm::{run, CartGrid, FaultPlan, MachineModel, Runner, StallSpec};

    fn sim(
        solver: SolverKind,
        p: usize,
        steps: usize,
        resort: bool,
        exploit: bool,
        dist: InitialDistribution,
    ) -> Vec<SimResult> {
        let c = IonicCrystal::cubic(6, 1.0, 0.2, 42);
        let bbox = c.system_box();
        let cfg = SimConfig {
            solver,
            resort,
            exploit_movement: exploit,
            steps,
            tolerance: 1e-2,
            ..SimConfig::default()
        };
        let out = run(p, MachineModel::juropa_like(), move |comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = local_set(&c, dist, comm.rank(), p, dims);
            simulate(comm, bbox, set, &cfg)
        });
        out.results
    }

    #[test]
    fn suggested_dt_matches_paper_at_paper_density() {
        // Paper: 829440 ions in a 248^3 box (mean spacing ~2.65), dt = 0.01.
        let spacing = (248.0f64.powi(3) / 829_440.0).cbrt();
        let dt = suggested_dt(spacing, 1.0);
        assert!((dt - 0.01).abs() < 0.0015, "dt {dt} should be ~0.01");
        // Scales with a^(3/2) and sqrt(m).
        assert!((suggested_dt(4.0 * spacing, 1.0) / dt - 8.0).abs() < 1e-9);
        assert!((suggested_dt(spacing, 4.0) / dt - 2.0).abs() < 1e-9);
    }

    #[test]
    fn thermal_velocities_are_deterministic_and_centered() {
        let a = thermal_velocity(12345, 0.5);
        let b = thermal_velocity(12345, 0.5);
        assert_eq!(a, b, "pure function of the id");
        assert_eq!(thermal_velocity(7, 0.0), Vec3::ZERO);
        // Mean over many ids is near zero; variance near vt^2.
        let n = 20_000u64;
        let mut mean = Vec3::ZERO;
        let mut var = 0.0;
        for id in 0..n {
            let v = thermal_velocity(id, 1.0);
            mean += v;
            var += v.norm2();
        }
        mean = mean / n as f64;
        var /= (3 * n) as f64;
        assert!(mean.norm() < 0.02, "mean {mean:?}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn runs_t_plus_one_solver_executions() {
        let results = sim(SolverKind::Fmm, 2, 5, false, false, InitialDistribution::Random);
        for r in &results {
            assert_eq!(r.records.len(), 6, "T+1 solver executions");
            assert_eq!(r.records[0].step, 0);
            assert_eq!(r.records[5].step, 5);
        }
    }

    #[test]
    fn energy_is_approximately_conserved() {
        for solver in [SolverKind::Fmm, SolverKind::P2Nfft] {
            let results = sim(solver, 4, 20, false, false, InitialDistribution::Grid);
            let recs = &results[0].records;
            let e0 = recs[0].energy;
            let emax = recs.iter().map(|r| r.energy).fold(f64::MIN, f64::max);
            let emin = recs.iter().map(|r| r.energy).fold(f64::MAX, f64::min);
            // Leapfrog with a 1e-2-accurate solver: generous but bounded.
            assert!(
                (emax - emin).abs() < 0.05 * e0.abs(),
                "{solver:?}: energy drifted from {e0}: [{emin}, {emax}]"
            );
        }
    }

    #[test]
    fn particles_conserved_across_steps() {
        let results = sim(SolverKind::P2Nfft, 4, 8, true, false, InitialDistribution::Random);
        let total: usize = results.iter().map(|r| r.final_local).sum();
        assert_eq!(total, 216);
    }

    #[test]
    fn methods_a_and_b_produce_same_trajectories() {
        // Energies per step must match bit-for-bit-ish between methods (the
        // same forces are computed, only the data handling differs).
        for solver in [SolverKind::Fmm, SolverKind::P2Nfft] {
            let a = sim(solver, 4, 6, false, false, InitialDistribution::Grid);
            let b = sim(solver, 4, 6, true, false, InitialDistribution::Grid);
            for (ra, rb) in a[0].records.iter().zip(&b[0].records) {
                assert!(
                    (ra.energy - rb.energy).abs() < 1e-6 * ra.energy.abs().max(1.0),
                    "{solver:?} step {}: {} vs {}",
                    ra.step,
                    ra.energy,
                    rb.energy
                );
            }
        }
    }

    #[test]
    fn method_b_resorts_every_step() {
        let results = sim(SolverKind::P2Nfft, 8, 4, true, false, InitialDistribution::Random);
        for r in &results {
            for rec in &r.records {
                assert!(rec.resorted);
                assert_eq!(rec.restore, 0.0);
            }
            // Resorting costs something (virtual time).
            assert!(r.records[1].resort > 0.0);
        }
    }

    #[test]
    fn method_a_restores_every_step() {
        let results = sim(SolverKind::Fmm, 4, 4, false, false, InitialDistribution::Random);
        for r in &results {
            for rec in &r.records {
                assert!(!rec.resorted);
                assert_eq!(rec.resort, 0.0);
                assert!(rec.restore > 0.0);
            }
        }
    }

    #[test]
    fn movement_exploitation_matches_plain_method_b() {
        for solver in [SolverKind::Fmm, SolverKind::P2Nfft] {
            let plain = sim(solver, 8, 6, true, false, InitialDistribution::Grid);
            let exploit = sim(solver, 8, 6, true, true, InitialDistribution::Grid);
            for (ra, rb) in plain[0].records.iter().zip(&exploit[0].records) {
                assert!(
                    (ra.energy - rb.energy).abs() < 1e-6 * ra.energy.abs().max(1.0),
                    "{solver:?} step {}: {} vs {}",
                    ra.step,
                    ra.energy,
                    rb.energy
                );
            }
        }
    }

    #[test]
    fn ewald_coupled_simulation_conserves_energy_tightly() {
        // The exact reference solver through the same pipeline: with exact
        // forces, leapfrog conserves energy much more tightly than with the
        // 1e-2-accurate fast solvers.
        let results = sim(SolverKind::Ewald, 2, 15, true, false, InitialDistribution::Random);
        let recs = &results[0].records;
        let e0 = recs[0].energy;
        for r in recs {
            assert!(
                (r.energy - e0).abs() < 5e-3 * e0.abs(),
                "step {}: {} vs {}",
                r.step,
                r.energy,
                e0
            );
            assert!(r.resorted, "Ewald under Method B reports resorted");
            assert_eq!(r.sort, 0.0, "Ewald never sorts");
        }
    }

    #[test]
    fn max_move_is_small_and_positive() {
        let results = sim(SolverKind::Fmm, 2, 5, false, false, InitialDistribution::Grid);
        for r in &results {
            for rec in &r.records[1..] {
                assert!(rec.max_move > 0.0, "particles must move");
                assert!(rec.max_move < 0.5, "movement per step must be small");
            }
        }
    }

    #[test]
    fn inert_fault_plan_is_bitwise_identical_to_plain_run() {
        // A runner faulted with FaultPlan::none() must be bit-for-bit the
        // pre-fault behaviour: identical records (including virtual timings),
        // clocks, final states and zero recoveries.
        let c = IonicCrystal::cubic(6, 1.0, 0.2, 42);
        let bbox = c.system_box();
        let p = 4;
        let cfg = SimConfig {
            solver: SolverKind::P2Nfft,
            resort: true,
            exploit_movement: true,
            steps: 5,
            ..SimConfig::default()
        };
        let go = |faulted: bool| -> Vec<SimResult> {
            let c = c.clone();
            let cfg = cfg.clone();
            let body = move |comm: &mut simcomm::Comm| {
                let set = local_set(
                    &c,
                    InitialDistribution::Grid,
                    comm.rank(),
                    p,
                    CartGrid::balanced(p).dims(),
                );
                simulate(comm, bbox, set, &cfg)
            };
            if faulted {
                let inert = Runner::default().faulted(FaultPlan::none());
                inert.run(p, MachineModel::juropa_like(), body).results
            } else {
                run(p, MachineModel::juropa_like(), body).results
            }
        };
        let plain = go(false);
        let inert = go(true);
        for (a, b) in plain.iter().zip(&inert) {
            assert_eq!(a.records, b.records, "records must match bit-for-bit");
            assert_eq!(a.final_clock.to_bits(), b.final_clock.to_bits(), "clocks must match");
            assert_eq!(a.final_state, b.final_state);
            assert_eq!(b.recoveries, 0, "inert plans never trigger recovery");
        }
    }

    #[test]
    fn recovery_masks_injected_stall_and_timeouts_bitwise() {
        // A scheduled rank stall plus an aggressive wait timeout: the
        // recovery loop must roll back to the in-memory checkpoint and
        // replay, and the recovered trajectory must be bitwise identical to
        // the unfaulted run — energies, movement, final particle state.
        let c = IonicCrystal::cubic(6, 1.0, 0.2, 42);
        let bbox = c.system_box();
        let p = 4;
        let cfg = SimConfig {
            solver: SolverKind::Fmm,
            resort: true,
            exploit_movement: false,
            steps: 6,
            ..SimConfig::default()
        };
        let clean = {
            let c = c.clone();
            let cfg = cfg.clone();
            run(p, MachineModel::juropa_like(), move |comm| {
                let set = local_set(
                    &c,
                    InitialDistribution::Grid,
                    comm.rank(),
                    p,
                    CartGrid::balanced(p).dims(),
                );
                simulate(comm, bbox, set, &cfg)
            })
            .results
        };
        // The stall fires on rank 1's 60th communication operation, mid-run:
        // the first 20 or so precede the loop's fault check, and since a
        // quiet FMM step neither aligns cells nor resorts through an
        // exchange, the whole run has fewer than 100.
        let fault = FaultPlan {
            stall: Some(StallSpec { rank: 1, after_ops: 60, seconds: 0.25 }),
            wait_timeout_seconds: Some(1e-6),
            ..FaultPlan::none()
        };
        let faulted = {
            let c = c.clone();
            let cfg = cfg.clone();
            let runner = Runner::default().faulted(fault);
            let out = runner.run(p, MachineModel::juropa_like(), move |comm| {
                let set = local_set(
                    &c,
                    InitialDistribution::Grid,
                    comm.rank(),
                    p,
                    CartGrid::balanced(p).dims(),
                );
                simulate(comm, bbox, set, &cfg)
            });
            out.results
        };
        let rec0 = faulted[0].recoveries;
        assert!(rec0 >= 1, "the injected faults must trigger at least one recovery");
        for (a, b) in clean.iter().zip(&faulted) {
            assert_eq!(b.recoveries, rec0, "the recovery decision is collective");
            assert_eq!(a.recoveries, 0);
            assert_eq!(a.records.len(), b.records.len(), "replay must keep T+1 records");
            for (ra, rb) in a.records.iter().zip(&b.records) {
                assert_eq!(ra.step, rb.step);
                assert_eq!(
                    ra.energy.to_bits(),
                    rb.energy.to_bits(),
                    "step {}: faulted energy {} != clean {}",
                    ra.step,
                    rb.energy,
                    ra.energy
                );
                assert_eq!(ra.max_move.to_bits(), rb.max_move.to_bits());
            }
            assert_eq!(a.final_state, b.final_state, "recovered state must be bitwise clean");
        }
    }

    #[test]
    fn method_b_is_faster_per_step_after_first() {
        // The core claim of the paper, in miniature: after the first step,
        // Method B's redistribution is cheaper than Method A's. Needs enough
        // particles per rank that redistribution volume (which A pays every
        // step) outweighs Method B's fixed extra collectives (capacity check,
        // resort-index construction).
        let c = IonicCrystal::cubic(20, 1.0, 0.2, 42); // 8000 particles, 1000/rank
        let bbox = c.system_box();
        let p = 8;
        let run_method = |resort: bool| -> Vec<StepRecord> {
            let c = c.clone();
            let cfg = SimConfig {
                solver: SolverKind::P2Nfft,
                resort,
                steps: 4,
                tolerance: 1e-2,
                ..SimConfig::default()
            };
            let out = run(p, MachineModel::juropa_like(), move |comm| {
                let set = local_set(
                    &c,
                    InitialDistribution::Random,
                    comm.rank(),
                    p,
                    CartGrid::balanced(p).dims(),
                );
                simulate(comm, bbox, set, &cfg)
            });
            out.results[0].records.clone()
        };
        let a = run_method(false);
        let b = run_method(true);
        let redist_a: f64 = a[2..].iter().map(|r| r.sort + r.restore).sum();
        let redist_b: f64 = b[2..].iter().map(|r| r.sort + r.resort).sum();
        assert!(
            redist_b < redist_a,
            "method B redistribution {redist_b} must beat method A {redist_a}"
        );
    }
}
