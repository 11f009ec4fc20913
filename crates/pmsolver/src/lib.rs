//! # pmsolver — a parallel particle-mesh Ewald solver (P2NFFT stand-in)
//!
//! From-scratch member of the Ewald-splitting particle-mesh family the
//! paper's P2NFFT solver belongs to (Sect. II-C), with the same *data
//! handling*: the particle system is distributed uniformly over a Cartesian
//! process grid using a fine-grained data redistribution operation (each
//! particle carrying a 64-bit index value: source rank in the upper 32 bits,
//! source position in the lower 32) that duplicates boundary particles as
//! **ghosts**, which carry only position and charge; real-space
//! contributions use a linked-cell algorithm within the cutoff;
//! Fourier-space contributions use B-spline charge assignment and a
//! distributed FFT implemented from scratch, pencil-decomposed like the real
//! P2NFFT's — over a `[P, 1]` transform grid (slabs, four exchanges per
//! execution) while `P ≤ mesh` and a balanced 2D grid beyond, so every rank
//! transforms — with a Hockney-Eastwood optimal influence function and ik
//! differentiation, whose exchanges carry no mesh indices.
//!
//! After the computation the solver either restores the original particle
//! order and distribution (Method A) or returns the changed grid
//! distribution with resort indices (Method B); with limited particle
//! movement the redistribution switches from collective all-to-all to
//! neighbourhood point-to-point communication (Sect. III-B).

#![warn(missing_docs)]
// No result of this crate may depend on `RandomState`: nothing outside tests
// iterates a hash container.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

mod bspline;
mod farfield;
mod fft;
mod nearfield;
mod solver;

pub use bspline::{bspline, bspline_hat, stencil};
pub use farfield::{FarFieldCache, FarFieldPlan};
pub use fft::{dft_reference, fft_in_place, fft_rows, Complex, Direction};
pub use nearfield::near_field;
pub use solver::{PmConfig, PmRunReport, PmSolver};

#[cfg(test)]
mod tests {
    use super::*;
    use particles::reference::madelung_energy_per_ion;
    use particles::{local_set, InitialDistribution, IonicCrystal, RedistMethod, SystemBox, Vec3};
    use simcomm::{run, CartGrid, MachineModel};

    fn crystal_energy(p: usize, cells: usize, jitter: f64, method: RedistMethod) -> f64 {
        let c = IonicCrystal::cubic(cells, 1.0, jitter, 77);
        let bbox = c.system_box();
        let cfg = PmConfig::tuned(&bbox, 1e-4, (0.49 * bbox.lengths.x()).min(3.0));
        let out = run(p, MachineModel::ideal(), move |comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = local_set(&c, InitialDistribution::Grid, comm.rank(), p, dims);
            let mut solver = PmSolver::new(bbox, cfg.clone(), p);
            let o = solver.run(comm, set.pos(), set.charge(), set.id(), method, None, usize::MAX);
            0.5 * o.potential.iter().zip(&o.charge).map(|(a, q)| a * q).sum::<f64>()
        });
        out.results.iter().sum()
    }

    #[test]
    fn reproduces_madelung_constant_serial() {
        let energy = crystal_energy(1, 4, 0.0, RedistMethod::RestoreOriginal);
        let want = madelung_energy_per_ion(1.0) * 64.0;
        let rel = (energy - want).abs() / want.abs();
        assert!(rel < 1e-3, "energy {energy} vs {want}, rel {rel}");
    }

    #[test]
    fn reproduces_madelung_constant_parallel() {
        let energy = crystal_energy(8, 4, 0.0, RedistMethod::RestoreOriginal);
        let want = madelung_energy_per_ion(1.0) * 64.0;
        let rel = (energy - want).abs() / want.abs();
        assert!(rel < 1e-3, "energy {energy} vs {want}, rel {rel}");
    }

    #[test]
    fn method_a_and_b_compute_identical_energies() {
        let ea = crystal_energy(4, 6, 0.15, RedistMethod::RestoreOriginal);
        let eb = crystal_energy(4, 6, 0.15, RedistMethod::UseChanged);
        assert!((ea - eb).abs() < 1e-9 * ea.abs(), "{ea} vs {eb}");
    }

    /// One Method A world in which rank `r` passes in the particles
    /// `input[r]` (indices into `pos`/`charge`); returns the potentials by
    /// particle index.
    fn potentials(
        bbox: SystemBox,
        pos: &[Vec3],
        charge: &[f64],
        input: Vec<Vec<usize>>,
    ) -> Vec<f64> {
        let p = input.len();
        let cfg = PmConfig::tuned(&bbox, 1e-3, 0.3 * bbox.lengths.x());
        let out = run(p, MachineModel::ideal(), |comm| {
            let mine = &input[comm.rank()];
            let my_pos: Vec<Vec3> = mine.iter().map(|&i| pos[i]).collect();
            let my_charge: Vec<f64> = mine.iter().map(|&i| charge[i]).collect();
            let my_id: Vec<u64> = mine.iter().map(|&i| i as u64).collect();
            let mut solver = PmSolver::new(bbox, cfg.clone(), p);
            let method = RedistMethod::RestoreOriginal;
            solver.run(comm, &my_pos, &my_charge, &my_id, method, None, usize::MAX).potential
        });
        let mut by_index = vec![f64::NAN; pos.len()];
        for (mine, phi) in input.iter().zip(&out.results) {
            assert_eq!(mine.len(), phi.len());
            mine.iter().zip(phi).for_each(|(&i, &v)| by_index[i] = v);
        }
        by_index
    }

    /// The worlds the solver's layouts otherwise assume away: process counts
    /// that are not powers of two, a rank that neither holds nor owns a
    /// particle, and all input on a single rank.
    #[test]
    fn uneven_worlds_match_ewald() {
        use particles::reference::{ewald, EwaldParams, FieldSolution};
        let c = IonicCrystal::cubic(6, 1.0, 0.15, 41);
        let bbox = c.system_box();
        let (pos, charge): (Vec<Vec3>, Vec<f64>) = (0..c.n() as u64).map(|i| c.particle(i)).unzip();
        let by_owner = |pos: &[Vec3], p: usize| -> Vec<Vec<usize>> {
            let dims = CartGrid::balanced(p).dims();
            let mut input = vec![Vec::new(); p];
            for (i, &x) in pos.iter().enumerate() {
                input[particles::grid_rank_of(dims, &bbox, x)].push(i);
            }
            input
        };
        let check = |label: &str, pos: &[Vec3], charge: &[f64], input: Vec<Vec<usize>>| {
            let want = ewald(pos, charge, &bbox, EwaldParams::for_cubic_box(bbox.lengths.x()));
            let potential = potentials(bbox, pos, charge, input);
            let energy = 0.5 * potential.iter().zip(charge).map(|(a, q)| a * q).sum::<f64>();
            let got = FieldSolution { potential, field: Vec::new(), energy };
            let (rms, rel) = (got.potential_rms_error(&want), got.energy_rel_error(&want));
            assert!(rms < 5e-3 && rel < 1e-3, "{label}: potential rms {rms}, energy rel {rel}");
        };

        check("P=6", &pos, &charge, by_owner(&pos, 6));
        check("P=12", &pos, &charge, by_owner(&pos, 12));

        let mut on_rank_1 = vec![Vec::new(); 4];
        on_rank_1[1] = (0..pos.len()).collect();
        check("all particles on one rank", &pos, &charge, on_rank_1);

        // The lower-x half of the crystal (neutral: charges alternate along y
        // and z) on a 2x2x1 grid: the two upper-x ranks hold and own nothing.
        let (half_pos, half_charge): (Vec<Vec3>, Vec<f64>) =
            pos.iter().zip(&charge).filter(|(x, _)| x.x() < 0.5 * bbox.lengths.x()).unzip();
        let input = by_owner(&half_pos, 4);
        assert!(input.iter().filter(|mine| mine.is_empty()).count() == 2);
        check("zero-particle ranks", &half_pos, &half_charge, input);
    }

    #[test]
    fn method_a_restores_exact_input_order() {
        let c = IonicCrystal::cubic(6, 1.0, 0.2, 3);
        let bbox = c.system_box();
        let cfg = PmConfig::tuned(&bbox, 1e-3, 2.0);
        let p = 4;
        run(p, MachineModel::ideal(), move |comm| {
            let set = local_set(&c, InitialDistribution::Random, comm.rank(), p, [2, 2, 1]);
            let mut solver = PmSolver::new(bbox, cfg.clone(), p);
            let o = solver.run(
                comm,
                set.pos(),
                set.charge(),
                set.id(),
                RedistMethod::RestoreOriginal,
                None,
                usize::MAX,
            );
            assert!(!o.resorted);
            assert_eq!(o.pos, set.pos());
            assert_eq!(o.charge, set.charge());
            assert_eq!(o.id, set.id());
        });
    }

    #[test]
    fn method_b_resort_indices_route_additional_data() {
        let c = IonicCrystal::cubic(6, 1.0, 0.2, 5);
        let bbox = c.system_box();
        let cfg = PmConfig::tuned(&bbox, 1e-3, 2.0);
        let p = 8;
        let out = run(p, MachineModel::ideal(), move |comm| {
            let set = local_set(&c, InitialDistribution::Random, comm.rank(), p, [2, 2, 2]);
            let mut solver = PmSolver::new(bbox, cfg.clone(), p);
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
            assert_eq!(o.resort_indices.len(), set.len());
            // Resorting the original ids must match the changed order (in
            // particular, ghosts are not part of the returned particles).
            let moved_ids = atasp::resort(
                comm,
                set.id(),
                &o.resort_indices,
                o.id.len(),
                &atasp::ExchangeMode::Collective,
            );
            assert_eq!(moved_ids, o.id);
            // All returned particles must live in this rank's subdomain.
            let dims = CartGrid::balanced(p).dims();
            for &x in &o.pos {
                assert_eq!(particles::grid_rank_of(dims, &bbox, x), comm.rank());
            }
            o.id.len()
        });
        let total: usize = out.results.iter().sum();
        assert_eq!(total, 216);
    }

    #[test]
    fn neighborhood_mode_matches_collective() {
        // Start from the solver's own grid distribution, jitter positions a
        // little, and re-run with a movement hint: the neighbourhood path
        // must produce identical results to the collective path.
        let c = IonicCrystal::cubic(6, 1.0, 0.1, 11);
        let bbox = c.system_box();
        let cfg = PmConfig::tuned(&bbox, 1e-3, 1.5);
        let p = 8;
        let out = run(p, MachineModel::ideal(), move |comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = local_set(&c, InitialDistribution::Grid, comm.rank(), p, dims);
            let mut solver = PmSolver::new(bbox, cfg.clone(), p);
            let o1 = solver.run(
                comm,
                set.pos(),
                set.charge(),
                set.id(),
                RedistMethod::UseChanged,
                None,
                usize::MAX,
            );
            assert!(!solver.last_report.used_neighborhood);
            // Move every particle slightly (deterministic pseudo-jitter).
            let moved: Vec<particles::Vec3> = o1
                .pos
                .iter()
                .zip(&o1.id)
                .map(|(&x, &id)| {
                    let h = particles::systems::splitmix64(id ^ 0xfeed);
                    let d = particles::Vec3::new(
                        ((h & 0xff) as f64 / 255.0 - 0.5) * 0.05,
                        (((h >> 8) & 0xff) as f64 / 255.0 - 0.5) * 0.05,
                        (((h >> 16) & 0xff) as f64 / 255.0 - 0.5) * 0.05,
                    );
                    bbox.wrap(x + d)
                })
                .collect();
            let o_coll = solver.run(
                comm,
                &moved,
                &o1.charge,
                &o1.id,
                RedistMethod::UseChanged,
                None,
                usize::MAX,
            );
            assert!(!solver.last_report.used_neighborhood);
            let o_neigh = solver.run(
                comm,
                &moved,
                &o1.charge,
                &o1.id,
                RedistMethod::UseChanged,
                Some(0.05),
                usize::MAX,
            );
            assert!(solver.last_report.used_neighborhood);
            (o_coll, o_neigh)
        });
        for (a, b) in out.results {
            assert_eq!(a.id, b.id);
            assert_eq!(a.pos, b.pos);
            assert_eq!(a.resort_indices, b.resort_indices);
            for (x, y) in a.potential.iter().zip(&b.potential) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn movement_guard_falls_back_to_collective_on_lying_hint() {
        use simcomm::{FaultPlan, Runner};
        // A 4x2x2 grid has non-neighbouring rank pairs along x. Shift every
        // particle by half the box in x (two subdomains), but pass a tiny
        // movement hint: a lie. On a fault-injected world the guard must
        // detect the out-of-neighbourhood targets, fall back to the
        // collective exchange for that step, and produce output identical to
        // an honest collective run; an honest small-movement step afterwards
        // must still take the neighbourhood path with no fallback.
        let c = IonicCrystal::cubic(6, 1.0, 0.05, 13);
        let bbox = c.system_box();
        let cfg = PmConfig::tuned(&bbox, 1e-3, 1.5);
        let p = 16;
        // Fault-active plan with no comm-level injections: only the guard
        // engages.
        let plan = FaultPlan { seed: 3, hint_lie_prob: 1.0, ..FaultPlan::none() };
        Runner::default().faulted(plan).run(p, MachineModel::ideal(), move |comm| {
            let dims = CartGrid::balanced(p).dims();
            assert_eq!(dims, [4, 2, 2]);
            let set = local_set(&c, InitialDistribution::Grid, comm.rank(), p, dims);
            let mut solver = PmSolver::new(bbox, cfg.clone(), p);
            let o1 = solver.run(
                comm,
                set.pos(),
                set.charge(),
                set.id(),
                RedistMethod::UseChanged,
                None,
                usize::MAX,
            );
            let shift = particles::Vec3::new(0.5 * bbox.lengths.x(), 0.0, 0.0);
            let moved: Vec<particles::Vec3> =
                o1.pos.iter().map(|&x| bbox.wrap(x + shift)).collect();
            // Honest collective reference on the shifted data.
            let o_coll = solver.run(
                comm,
                &moved,
                &o1.charge,
                &o1.id,
                RedistMethod::UseChanged,
                None,
                usize::MAX,
            );
            assert!(!solver.last_report.used_neighborhood);
            assert_eq!(solver.guard_fallbacks, 0);
            // The lie: claim almost nothing moved.
            let o_guard = solver.run(
                comm,
                &moved,
                &o1.charge,
                &o1.id,
                RedistMethod::UseChanged,
                Some(1e-3),
                usize::MAX,
            );
            assert!(
                solver.last_report.movement_guard_fallback,
                "the guard must detect out-of-neighbourhood targets"
            );
            assert!(!solver.last_report.used_neighborhood);
            assert_eq!(solver.guard_fallbacks, 1);
            assert_eq!(o_guard.id, o_coll.id, "fallback must deliver the collective result");
            assert_eq!(o_guard.pos, o_coll.pos);
            assert_eq!(o_guard.resort_indices, o_coll.resort_indices);
            assert_eq!(o_guard.potential, o_coll.potential, "identical exchange, identical bits");
            // An honest small step keeps the neighbourhood path guard-free.
            let o_honest = solver.run(
                comm,
                &o_guard.pos,
                &o_guard.charge,
                &o_guard.id,
                RedistMethod::UseChanged,
                Some(1e-3),
                usize::MAX,
            );
            assert!(solver.last_report.used_neighborhood);
            assert!(!solver.last_report.movement_guard_fallback);
            assert_eq!(solver.guard_fallbacks, 1, "no new fallback on an honest step");
            o_honest.id.len()
        });
    }

    /// Ghosts travel as position and charge, two thirds of the bytes of a
    /// whole [`particles::Particle`], and the far field reports what it sends: in a
    /// world of three Method B runs with movement (one ghost-plan build, two
    /// reuses) every rank's `ghost_bytes` and `far_bytes` are what its
    /// communicator counted in those phases, and the potentials and fields
    /// keep the bits they had when ghosts were whole records (the digest was
    /// taken then; `0x862b_0957_4de5_b042` until the far field ran its
    /// inverse transform x, y, z on pencils instead of x, z, y on slabs).
    #[test]
    fn ghosts_carry_two_thirds_of_a_record_and_keep_the_bits() {
        let c = IonicCrystal::cubic(6, 1.0, 0.1, 23);
        let bbox = c.system_box();
        let cfg = PmConfig::tuned(&bbox, 1e-3, 1.5);
        let p = 8;
        let out = run(p, MachineModel::juropa_like(), move |comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = local_set(&c, InitialDistribution::Grid, comm.rank(), p, dims);
            let (mut pos, mut charge, mut id) =
                (set.pos().to_vec(), set.charge().to_vec(), set.id().to_vec());
            let mut solver = PmSolver::new(bbox, cfg.clone(), p);
            let mut bits = Vec::new();
            for _ in 0..3 {
                let (ghost_recv, far_sent) = {
                    let profile = comm.phase_profile();
                    let phase = |name| profile.get(name).cloned().unwrap_or_default();
                    (phase("ghosts").p2p_recv_bytes, phase("far").p2p_sent_bytes)
                };
                let method = RedistMethod::UseChanged;
                let o = solver.run(comm, &pos, &charge, &id, method, Some(0.01), usize::MAX);
                let r = &solver.last_report;
                assert!(r.ghosts_received > 0);
                let whole = r.ghosts_received * std::mem::size_of::<particles::Particle>() as u64;
                assert_eq!(3 * r.ghost_bytes, 2 * whole);
                let profile = comm.phase_profile();
                let phase = |name| profile.get(name).cloned().unwrap_or_default();
                assert_eq!(r.ghost_bytes, phase("ghosts").p2p_recv_bytes - ghost_recv);
                assert_eq!(r.far_bytes, phase("far").p2p_sent_bytes - far_sent);
                bits.extend(o.potential.iter().map(|x| x.to_bits()));
                bits.extend(o.field.iter().flat_map(|e| [e.x(), e.y(), e.z()].map(f64::to_bits)));
                (pos, charge, id) = (o.pos, o.charge, o.id);
            }
            bits
        });
        let digest = out
            .results
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(digest, 0xcb85_4d3a_ddc2_d22c, "potential and field bits moved: {digest:#018x}");
    }

    #[test]
    fn capacity_fallback_restores_original() {
        let c = IonicCrystal::cubic(4, 1.0, 0.1, 9);
        let bbox = c.system_box();
        let cfg = PmConfig::tuned(&bbox, 1e-3, 1.5);
        let p = 2;
        run(p, MachineModel::ideal(), move |comm| {
            let set = local_set(&c, InitialDistribution::Random, comm.rank(), p, [2, 1, 1]);
            let mut solver = PmSolver::new(bbox, cfg.clone(), p);
            let o = solver.run(
                comm,
                set.pos(),
                set.charge(),
                set.id(),
                RedistMethod::UseChanged,
                None,
                0, // force fallback
            );
            assert!(!o.resorted);
            assert_eq!(o.id, set.id());
            assert!(o.resort_indices.is_empty());
        });
    }

    #[test]
    fn tuned_config_is_consistent() {
        let bbox = SystemBox::cubic(248.0);
        let cfg = PmConfig::tuned(&bbox, 1e-3, 4.8);
        assert!((cfg.rcut - 4.8).abs() < 1e-12, "paper cutoff fits the box");
        assert!(cfg.mesh.is_power_of_two());
        assert!(cfg.alpha * cfg.rcut >= 2.0);
        // Tighter accuracy -> denser mesh and higher order.
        let tight = PmConfig::tuned(&bbox, 1e-6, 4.8);
        assert!(tight.mesh >= cfg.mesh);
        assert!(tight.assign_order >= cfg.assign_order);
    }
}
