//! Cross-crate integration tests: the full coupling pipeline (application ->
//! fcs interface -> solver -> redistribution -> application) exercised
//! end-to-end, checking the paper's semantic guarantees across solvers,
//! methods, distributions and world sizes.

use fcs::{Fcs, SolverKind};
use particles::{local_set, InitialDistribution, IonicCrystal, Vec3};
use simcomm::{run, CartGrid, MachineModel};

/// The total energy must be independent of: the solver execution method
/// (A/B), the initial distribution, and the number of processes.
#[test]
fn energy_invariant_across_methods_distributions_and_world_sizes() {
    let crystal = IonicCrystal::cubic(6, 1.0, 0.15, 13);
    let bbox = crystal.system_box();
    let mut energies: Vec<(String, f64)> = Vec::new();
    for kind in [SolverKind::Fmm, SolverKind::P2Nfft] {
        let mut kind_energies: Vec<f64> = Vec::new();
        for p in [1usize, 4, 8] {
            for dist in [
                InitialDistribution::SingleProcess,
                InitialDistribution::Random,
                InitialDistribution::Grid,
            ] {
                for resort in [false, true] {
                    let crystal = crystal.clone();
                    let out = run(p, MachineModel::ideal(), move |comm| {
                        let dims = CartGrid::balanced(p).dims();
                        let set = local_set(&crystal, dist, comm.rank(), p, dims);
                        let mut h = Fcs::init(kind, p);
                        h.set_common(bbox);
                        h.set_tolerance(1e-3);
                        h.tune(comm, set.pos(), set.charge());
                        h.set_resort(resort);
                        let o = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
                        0.5 * o.potential.iter().zip(&o.charge).map(|(a, q)| a * q).sum::<f64>()
                    });
                    let e: f64 = out.results.iter().sum();
                    energies.push((format!("{kind:?}/p{p}/{dist:?}/resort={resort}"), e));
                    kind_energies.push(e);
                }
            }
        }
        // Within one solver, all configurations must agree tightly (identical
        // physics, different data handling).
        let base = kind_energies[0];
        for (label, e) in energies.iter().filter(|(l, _)| l.starts_with(&format!("{kind:?}"))) {
            assert!((e - base).abs() < 5e-6 * base.abs(), "{label}: {e} deviates from {base}");
        }
    }
}

/// Method A must return every array bit-identically ordered to the input,
/// for both solvers, even with hostile (single-process) input distributions.
#[test]
fn method_a_is_bit_transparent() {
    let crystal = IonicCrystal::cubic(6, 1.5, 0.3, 99);
    let bbox = crystal.system_box();
    for kind in [SolverKind::Fmm, SolverKind::P2Nfft] {
        let crystal = crystal.clone();
        run(6, MachineModel::juropa_like(), move |comm| {
            let set =
                local_set(&crystal, InitialDistribution::SingleProcess, comm.rank(), 6, [3, 2, 1]);
            let mut h = Fcs::init(kind, 6);
            h.set_common(bbox);
            h.tune(comm, set.pos(), set.charge());
            let o = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
            assert_eq!(o.pos, set.pos());
            assert_eq!(o.charge, set.charge());
            assert_eq!(o.id, set.id());
            assert_eq!(o.potential.len(), set.len());
        });
    }
}

/// Method B round-trip: running B, then resorting a second data channel,
/// then routing everything back by origin, must reproduce the original data.
#[test]
fn method_b_full_roundtrip() {
    let crystal = IonicCrystal::cubic(8, 1.0, 0.2, 5);
    let bbox = crystal.system_box();
    let p = 8;
    for kind in [SolverKind::Fmm, SolverKind::P2Nfft] {
        let crystal = crystal.clone();
        run(p, MachineModel::ideal(), move |comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = local_set(&crystal, InitialDistribution::Random, comm.rank(), p, dims);
            let mut h = Fcs::init(kind, p);
            h.set_common(bbox);
            h.tune(comm, set.pos(), set.charge());
            h.set_resort(true);
            let o = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
            assert!(h.resorted());
            // Forward: a payload tagged by global id follows its particle.
            let payload: Vec<f64> = set.id().iter().map(|&i| (i as f64).sqrt()).collect();
            let moved = h.resort_floats(comm, &payload);
            for (v, id) in moved.iter().zip(&o.id) {
                assert_eq!(*v, (*id as f64).sqrt());
            }
            // The positions returned under B are the same particles (match by
            // id against the deterministic source).
            for (x, id) in o.pos.iter().zip(&o.id) {
                let (want, _) = crystal.particle(*id);
                assert_eq!(*x, want, "position of particle {id}");
            }
        });
    }
}

/// Repeated Method B runs in a simulation loop keep the particle set
/// consistent: nothing is lost or duplicated across many redistributions.
#[test]
fn repeated_method_b_conserves_particles() {
    let crystal = IonicCrystal::cubic(6, 1.0, 0.2, 21);
    let bbox = crystal.system_box();
    let p = 4;
    let out = run(p, MachineModel::ideal(), move |comm| {
        let dims = CartGrid::balanced(p).dims();
        let set = local_set(&crystal, InitialDistribution::Grid, comm.rank(), p, dims);
        let mut h = Fcs::init(SolverKind::P2Nfft, p);
        h.set_common(bbox);
        h.tune(comm, set.pos(), set.charge());
        h.set_resort(true);
        let (mut pos, mut charge, mut id) = set.into_parts();
        for step in 0..5 {
            // Drift all particles deterministically by id.
            for (x, pid) in pos.iter_mut().zip(&id) {
                let h = particles::systems::splitmix64(pid ^ (step as u64) << 32);
                *x = bbox.wrap(
                    *x + Vec3::new(
                        ((h & 0xff) as f64 - 127.5) * 0.002,
                        (((h >> 8) & 0xff) as f64 - 127.5) * 0.002,
                        (((h >> 16) & 0xff) as f64 - 127.5) * 0.002,
                    ),
                );
            }
            let o = h.run(comm, &pos, &charge, &id, usize::MAX);
            pos = o.pos;
            charge = o.charge;
            id = o.id;
        }
        let mut ids = id;
        ids.sort_unstable();
        ids
    });
    let mut all: Vec<u64> = out.results.into_iter().flatten().collect();
    all.sort_unstable();
    let expect: Vec<u64> = (0..216u64).collect();
    assert_eq!(all, expect, "all particles exactly once after 5 redistributions");
}

/// The movement-exploiting paths must be bit-identical to the plain paths in
/// their *results* (they only change the communication strategy).
#[test]
fn movement_exploitation_identical_results() {
    let crystal = IonicCrystal::cubic(6, 1.0, 0.1, 77);
    let bbox = crystal.system_box();
    let p = 8;
    for kind in [SolverKind::Fmm, SolverKind::P2Nfft] {
        let crystal = crystal.clone();
        run(p, MachineModel::juqueen_like(), move |comm| {
            let dims = CartGrid::balanced(p).dims();
            let set = local_set(&crystal, InitialDistribution::Grid, comm.rank(), p, dims);
            let mut h = Fcs::init(kind, p);
            h.set_common(bbox);
            h.tune(comm, set.pos(), set.charge());
            h.set_resort(true);
            let o1 = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
            // Re-run from the solver distribution, with and without the hint.
            let plain = h.run(comm, &o1.pos, &o1.charge, &o1.id, usize::MAX);
            h.set_max_particle_move(Some(1e-9));
            let hinted = h.run(comm, &o1.pos, &o1.charge, &o1.id, usize::MAX);
            assert_eq!(plain.id, hinted.id, "{kind:?}");
            assert_eq!(plain.pos, hinted.pos);
            for (a, b) in plain.potential.iter().zip(&hinted.potential) {
                assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{kind:?}: {a} vs {b}");
            }
        });
    }
}

/// Virtual time is deterministic: the same program produces the identical
/// makespan on every execution (a property real clusters lack, and the basis
/// of reproducible benchmarking in this repo).
#[test]
fn virtual_time_reproducible_end_to_end() {
    let run_once = || {
        let crystal = IonicCrystal::cubic(4, 1.0, 0.1, 3);
        let bbox = crystal.system_box();
        let out = run(4, MachineModel::juropa_like(), move |comm| {
            let set = local_set(
                &crystal,
                InitialDistribution::Random,
                comm.rank(),
                4,
                CartGrid::balanced(4).dims(),
            );
            let mut h = Fcs::init(SolverKind::Fmm, 4);
            h.set_common(bbox);
            h.tune(comm, set.pos(), set.charge());
            let _ = h.run(comm, set.pos(), set.charge(), set.id(), usize::MAX);
            comm.clock()
        });
        out.clocks
    };
    assert_eq!(run_once(), run_once());
}
