//! # ewald — a parallel classical Ewald summation solver
//!
//! The third solver behind the coupling interface (ScaFaCoS likewise ships an
//! `ewald` solver next to `fmm` and `p2nfft`): classical Ewald summation,
//! exact for fully periodic neutral systems, with `O(n^(3/2))`-ish cost. It
//! is the *reference* solver — slow but trustworthy — and doubles as a test
//! oracle for the two fast solvers at small sizes.
//!
//! Parallelization:
//!
//! * **Real space**: a systolic ring pass. Each rank's particles visit every
//!   other rank in `P-1` point-to-point steps; erfc-screened pair
//!   contributions within the cutoff are accumulated with the minimum-image
//!   convention.
//! * **Reciprocal space**: every rank computes the structure-factor
//!   contribution of its local particles for all k-vectors; one `allreduce`
//!   combines them; each rank then evaluates potentials and fields for its
//!   local particles.
//!
//! Unlike the FMM and the particle-mesh solver, Ewald summation works on
//! *any* particle distribution and never reorders or redistributes the
//! particles. Under Method B it therefore returns the unchanged order with
//! the identity resort plan — a degenerate but valid case of the paper's
//! interface (the `resorted()` query reports `true`, and resorting
//! additional data places it locally, with no message and no collective).

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

use atasp::{ResortPlan, Route, Routed};
use particles::math::{erfc, M_2_SQRTPI};
use particles::{MovementHint, RedistMethod, SolverOutput, SolverTimings, SystemBox, Vec3};
use simcomm::{Comm, Work};

/// Static configuration of the Ewald solver.
#[derive(Clone, Debug, PartialEq)]
pub struct EwaldConfig {
    /// Splitting parameter (1/length).
    pub alpha: f64,
    /// Real-space cutoff (must satisfy the minimum-image bound).
    pub rcut: f64,
    /// Reciprocal-space cutoff: integer k-vectors with `|m|_inf <= kmax`.
    pub kmax: i32,
    /// Optional short-range repulsive core (see [`particles::SoftCore`]).
    pub soft_core: Option<particles::SoftCore>,
}

impl EwaldConfig {
    /// Parameters for a target relative accuracy in a given box, balancing
    /// real- and reciprocal-space truncation like the serial reference.
    pub fn tuned(bbox: &SystemBox, accuracy: f64) -> Self {
        let l = bbox.lengths;
        let lmin = l.x().min(l.y()).min(l.z());
        let rcut = 0.45 * lmin;
        let factor = (-accuracy.ln()).sqrt().max(1.5);
        let alpha = factor / rcut;
        let lmax = l.x().max(l.y()).max(l.z());
        let kmax = ((alpha * lmax * factor) / std::f64::consts::PI).ceil() as i32;
        EwaldConfig { alpha, rcut, kmax, soft_core: None }
    }
}

/// A particle in the real-space ring pass.
#[derive(Clone, Copy, Debug)]
struct RingParticle {
    pos: Vec3,
    charge: f64,
}

/// Report of one Ewald execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EwaldRunReport {
    /// Real-space pair interactions evaluated.
    pub near_pairs: u64,
    /// k-vectors summed.
    pub kvectors: u64,
}

/// The parallel Ewald summation solver.
pub struct EwaldSolver {
    cfg: EwaldConfig,
    bbox: SystemBox,
    /// Method B's identity resort plan, rebuilt when the particle count
    /// changes.
    resort_plan: Option<ResortPlan>,
    /// Report of the most recent run.
    pub last_report: EwaldRunReport,
}

const TAG_RING: u64 = 0x6577_616c64;

impl EwaldSolver {
    /// Create a solver for a fully periodic box.
    pub fn new(bbox: SystemBox, cfg: EwaldConfig) -> Self {
        assert!(bbox.fully_periodic(), "Ewald summation needs a fully periodic box");
        let lmin = bbox.lengths.x().min(bbox.lengths.y()).min(bbox.lengths.z());
        assert!(cfg.rcut <= 0.5 * lmin + 1e-12, "rcut violates the minimum-image bound");
        EwaldSolver { cfg, bbox, resort_plan: None, last_report: EwaldRunReport::default() }
    }

    /// The solver's configuration.
    pub fn config(&self) -> &EwaldConfig {
        &self.cfg
    }

    /// The resort plan of the last run under [`RedistMethod::UseChanged`]:
    /// the identity route over its particles ([`Route::Identity`]), which
    /// places additional data locally with no message and no collective.
    pub fn resort_plan(&self) -> Option<&ResortPlan> {
        self.resort_plan.as_ref()
    }

    /// Execute the solver. The particle order and distribution is never
    /// changed; under [`RedistMethod::UseChanged`] the resort plan
    /// ([`EwaldSolver::resort_plan`]) is the identity, rebuilt only when the
    /// particle count changed.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        id: &[u64],
        method: RedistMethod,
        _movement: MovementHint,
        _max_local: usize,
    ) -> SolverOutput {
        let n = pos.len();
        assert_eq!(charge.len(), n);
        assert_eq!(id.len(), n);
        let me = comm.rank();
        let p = comm.size();
        self.last_report = EwaldRunReport::default();
        let t_start = comm.clock();
        // No sorting/redistribution is needed: timings.sort stays 0.
        let t_sorted = comm.clock();

        let mut potential = vec![0.0; n];
        let mut field = vec![Vec3::ZERO; n];

        // ---- Real space: systolic ring pass ----
        comm.enter_phase("near");
        let alpha = self.cfg.alpha;
        let rcut2 = self.cfg.rcut * self.cfg.rcut;
        let mut pairs = 0u64;
        let kernel =
            |pi: Vec3, pj: Vec3, qj: f64, qi: f64, out_pot: &mut f64, out_field: &mut Vec3| {
                let d = self.bbox.min_image(pi, pj);
                let r2 = d.norm2();
                if r2 == 0.0 || r2 > rcut2 {
                    return false;
                }
                let r = r2.sqrt();
                let e = erfc(alpha * r) / r;
                let de = e / r2 + alpha * M_2_SQRTPI * (-alpha * alpha * r2).exp() / r2;
                *out_pot += qj * e;
                *out_field += d * (qj * de);
                if let Some(core) = &self.cfg.soft_core {
                    let u = core.energy(r);
                    let fmag = core.force(r);
                    *out_pot += u / qi;
                    *out_field += d * (fmag / (r * qi));
                }
                true
            };

        // Local pairs.
        for i in 0..n {
            for j in 0..n {
                if i != j
                    && kernel(
                        pos[i],
                        pos[j],
                        charge[j],
                        charge[i],
                        &mut potential[i],
                        &mut field[i],
                    )
                {
                    pairs += 1;
                }
            }
        }
        // Ring: receive the travelling block from the left, interact, pass on.
        if p > 1 {
            let right = (me + 1) % p;
            let left = (me + p - 1) % p;
            let mut travelling: Vec<RingParticle> =
                pos.iter().zip(charge).map(|(&x, &q)| RingParticle { pos: x, charge: q }).collect();
            for _hop in 0..p - 1 {
                travelling = comm.sendrecv(right, travelling, left, TAG_RING);
                for i in 0..n {
                    for t in &travelling {
                        if kernel(
                            pos[i],
                            t.pos,
                            t.charge,
                            charge[i],
                            &mut potential[i],
                            &mut field[i],
                        ) {
                            pairs += 1;
                        }
                    }
                }
            }
        }
        comm.compute(Work::Interaction, pairs as f64);
        self.last_report.near_pairs = pairs;
        comm.exit_phase();

        // ---- Reciprocal space: local structure factors + allreduce ----
        comm.enter_phase("far");
        let l = self.bbox.lengths;
        let volume = self.bbox.volume();
        let two_pi = 2.0 * std::f64::consts::PI;
        let kmax = self.cfg.kmax;
        // Enumerate k-vectors once (the zero vector is excluded). Use only
        // half space and double contributions (S(-k) = conj(S(k))).
        let mut kvecs: Vec<Vec3> = Vec::new();
        for mx in 0..=kmax {
            let ylo = if mx == 0 { 0 } else { -kmax };
            for my in ylo..=kmax {
                let zlo = if mx == 0 && my == 0 { 1 } else { -kmax };
                for mz in zlo..=kmax {
                    kvecs.push(Vec3::new(
                        two_pi * mx as f64 / l.x(),
                        two_pi * my as f64 / l.y(),
                        two_pi * mz as f64 / l.z(),
                    ));
                }
            }
        }
        self.last_report.kvectors = kvecs.len() as u64;
        // Local structure factors, interleaved (re, im) pairs.
        let mut local_s: Vec<f64> = vec![0.0; kvecs.len() * 2];
        for (j, &x) in pos.iter().enumerate() {
            let q = charge[j];
            for (ki, k) in kvecs.iter().enumerate() {
                let phase = k.dot(&x);
                let (s, c) = phase.sin_cos();
                local_s[2 * ki] += q * c;
                local_s[2 * ki + 1] += q * s;
            }
        }
        comm.compute(Work::MeshPoint, (n * kvecs.len()) as f64);
        let global_s = comm
            .allreduce(local_s, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect::<Vec<f64>>());
        for (ki, k) in kvecs.iter().enumerate() {
            let k2 = k.norm2();
            let ak = 2.0 * 4.0 * std::f64::consts::PI / volume
                * (-k2 / (4.0 * alpha * alpha)).exp()
                / k2; // factor 2: half-space enumeration
            let s_re = global_s[2 * ki];
            let s_im = global_s[2 * ki + 1];
            for i in 0..n {
                let phase = k.dot(&pos[i]);
                let (sin_p, cos_p) = phase.sin_cos();
                potential[i] += ak * (s_re * cos_p + s_im * sin_p);
                let im = s_im * cos_p - s_re * sin_p;
                field[i] -= *k * (ak * im);
            }
        }
        comm.compute(Work::MeshPoint, (n * kvecs.len()) as f64);
        comm.exit_phase();

        // ---- Self-energy ----
        let self_term = 2.0 * alpha / std::f64::consts::PI.sqrt();
        for (pi, &q) in charge.iter().enumerate() {
            potential[pi] -= self_term * q;
        }
        comm.compute(Work::ParticleOp, n as f64);
        let t_computed = comm.clock();

        // ---- Output: the order never changed ----
        let resorted = method == RedistMethod::UseChanged;
        if resorted && self.resort_plan.as_ref().is_none_or(|plan| plan.new_len() != n) {
            comm.enter_phase("resort");
            let plan = &mut self.resort_plan;
            Routed { route: Route::Identity(n), collective: false, plan }.rebuild(comm, &[]);
            comm.exit_phase();
        }
        SolverOutput {
            pos: pos.to_vec(),
            charge: charge.to_vec(),
            id: id.to_vec(),
            potential,
            field,
            resorted,
            timings: SolverTimings {
                sort: t_sorted - t_start,
                compute: t_computed - t_sorted,
                restore: 0.0,
                resort_create: comm.clock() - t_computed,
                total: comm.clock() - t_start,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use particles::reference::{ewald as serial_ewald, madelung_energy_per_ion, EwaldParams};
    use particles::{local_set, InitialDistribution, IonicCrystal};
    use simcomm::{run, MachineModel};

    fn gather_system(c: &IonicCrystal) -> (Vec<Vec3>, Vec<f64>) {
        let n = c.n();
        let mut pos = Vec::with_capacity(n);
        let mut charge = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let (x, q) = c.particle(i);
            pos.push(x);
            charge.push(q);
        }
        (pos, charge)
    }

    #[test]
    fn matches_serial_reference() {
        let c = IonicCrystal::cubic(4, 1.0, 0.2, 17);
        let bbox = c.system_box();
        let (pos, charge) = gather_system(&c);
        let params = EwaldParams::for_cubic_box(bbox.lengths.x());
        let want = serial_ewald(&pos, &charge, &bbox, params);
        let cfg = EwaldConfig {
            alpha: params.alpha,
            rcut: params.rcut,
            kmax: params.kmax,
            soft_core: None,
        };
        for p in [1usize, 4] {
            let c = c.clone();
            let cfg = cfg.clone();
            let out = run(p, MachineModel::ideal(), move |comm| {
                let set = local_set(&c, InitialDistribution::Random, comm.rank(), p, [1, 1, p]);
                let mut solver = EwaldSolver::new(bbox, cfg.clone());
                let o = solver.run(
                    comm,
                    set.pos(),
                    set.charge(),
                    set.id(),
                    RedistMethod::RestoreOriginal,
                    None,
                    usize::MAX,
                );
                (set.id().to_vec(), o.potential, o.field)
            });
            for (ids, pot, field) in &out.results {
                for ((id, ph), f) in ids.iter().zip(pot).zip(field) {
                    let w = want.potential[*id as usize];
                    assert!((ph - w).abs() < 1e-9 * w.abs().max(1.0), "p={p} id={id}: {ph} vs {w}");
                    let wf = want.field[*id as usize];
                    assert!((*f - wf).norm() < 1e-9, "field id={id}");
                }
            }
        }
    }

    #[test]
    fn reproduces_madelung() {
        let c = IonicCrystal::cubic(4, 1.0, 0.0, 0);
        let bbox = c.system_box();
        let cfg = EwaldConfig::tuned(&bbox, 1e-5);
        let out = run(2, MachineModel::ideal(), move |comm| {
            let set = local_set(&c, InitialDistribution::Random, comm.rank(), 2, [1, 1, 2]);
            let mut solver = EwaldSolver::new(bbox, cfg.clone());
            let o = solver.run(
                comm,
                set.pos(),
                set.charge(),
                set.id(),
                RedistMethod::RestoreOriginal,
                None,
                usize::MAX,
            );
            0.5 * o.potential.iter().zip(&o.charge).map(|(a, q)| a * q).sum::<f64>()
        });
        let energy: f64 = out.results.iter().sum();
        let want = madelung_energy_per_ion(1.0) * 64.0;
        assert!((energy - want).abs() / want.abs() < 1e-4, "energy {energy} vs {want}");
    }

    #[test]
    fn method_b_keeps_an_identity_resort_plan() {
        let c = IonicCrystal::cubic(4, 1.0, 0.1, 2);
        let bbox = c.system_box();
        let cfg = EwaldConfig::tuned(&bbox, 1e-3);
        run(3, MachineModel::ideal(), move |comm| {
            let set = local_set(&c, InitialDistribution::Random, comm.rank(), 3, [1, 1, 3]);
            let mut solver = EwaldSolver::new(bbox, cfg.clone());
            let data: Vec<f64> = set.id().iter().map(|&x| x as f64).collect();
            for r in 0..2 {
                let builds = comm.stats().plan_builds;
                let o = solver.run(
                    comm,
                    set.pos(),
                    set.charge(),
                    set.id(),
                    RedistMethod::UseChanged,
                    None,
                    usize::MAX,
                );
                assert!(o.resorted);
                assert_eq!(o.id, set.id(), "order unchanged");
                // Built once, kept while the particle count holds.
                assert_eq!(comm.stats().plan_builds - builds, u64::from(r == 0), "run {r}");
                // The plan places locally, as the identity resort indices of
                // Fig. 5 do.
                let plan = solver.resort_plan().expect("Method B keeps a plan");
                let before = comm.stats().clone();
                let moved = plan.execute(comm, &[&data]).pop().expect("one channel");
                assert_eq!(moved, data, "run {r}");
                assert_eq!(comm.stats().p2p_sent_msgs, before.p2p_sent_msgs, "no message");
                assert_eq!(comm.stats().coll_ops, before.coll_ops, "no collective");
                let me = comm.rank();
                let origins: Vec<u64> =
                    (0..data.len()).map(|i| atasp::encode_index(me, i)).collect();
                let collective = atasp::ExchangeMode::Collective;
                let indices =
                    atasp::build_resort_indices_with(comm, &origins, data.len(), &collective);
                assert_eq!(indices, origins, "identity indices");
                assert_eq!(atasp::resort(comm, &data, &indices, data.len(), &collective), moved);
            }
        });
    }

    #[test]
    fn energy_independent_of_distribution_and_world_size() {
        let c = IonicCrystal::cubic(4, 1.3, 0.25, 9);
        let bbox = c.system_box();
        let cfg = EwaldConfig::tuned(&bbox, 1e-4);
        let mut energies = Vec::new();
        for p in [1usize, 2, 5] {
            let c = c.clone();
            let cfg = cfg.clone();
            let out = run(p, MachineModel::ideal(), move |comm| {
                let set = local_set(&c, InitialDistribution::Random, comm.rank(), p, [1, 1, p]);
                let mut solver = EwaldSolver::new(bbox, cfg.clone());
                let o = solver.run(
                    comm,
                    set.pos(),
                    set.charge(),
                    set.id(),
                    RedistMethod::RestoreOriginal,
                    None,
                    usize::MAX,
                );
                0.5 * o.potential.iter().zip(&o.charge).map(|(a, q)| a * q).sum::<f64>()
            });
            energies.push(out.results.iter().sum::<f64>());
        }
        for e in &energies[1..] {
            assert!((e - energies[0]).abs() < 1e-9 * energies[0].abs());
        }
    }

    #[test]
    fn tuned_accuracy_tiers() {
        let bbox = SystemBox::cubic(10.0);
        let loose = EwaldConfig::tuned(&bbox, 1e-3);
        let tight = EwaldConfig::tuned(&bbox, 1e-6);
        assert!(tight.kmax >= loose.kmax);
        assert!(tight.alpha >= loose.alpha);
        assert!(loose.rcut <= 5.0);
    }
}
