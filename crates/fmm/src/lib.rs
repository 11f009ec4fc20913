//! # fmm — a parallel Fast Multipole Method solver
//!
//! From-scratch FMM for the Laplace kernel with the *data handling* of the
//! paper's FMM solver (ScaFaCoS, Sect. II-B): the system box is recursively
//! subdivided, boxes are numbered by a Z-Morton ordering, and particles are
//! placed into boxes by **parallel sorting** — partition-based for unsorted
//! data, merge-based (Batcher merge-exchange, point-to-point only) for almost
//! sorted data. The resulting domain decomposition assigns each process a
//! segment of the Z-order space-filling curve.
//!
//! Differences from the original solver (documented in `DESIGN.md`): the
//! expansions are Cartesian Taylor rather than spherical harmonics (same
//! asymptotics, simpler operators), and fully periodic boxes are handled with
//! wrapped interaction lists (a cell-pair minimum-image approximation of the
//! periodic sum) rather than a renormalized lattice sum. Accuracy against
//! direct/Ewald references is pinned by this crate's tests.
//!
//! After the computation the solver either **restores** the original particle
//! order and distribution (Method A, paper Sect. III-A) or returns the
//! **changed** Z-order distribution together with a resort plan for the
//! application's additional data (Method B, Sect. III-B), through the return
//! path both particle solvers share ([`atasp::hand_back`]). On a quiet step —
//! every rank kept its input particles in their input order — the plan is
//! the identity route, which exchanges nothing
//! ([`FmmRunReport::resort_exchange_skipped`]); the merge sort closes on one
//! allgather whose
//! spans the cell alignment reuses, and the alignment exchanges nothing when
//! no leaf cell is split across ranks.

#![warn(missing_docs)]
// No result of this crate may depend on `RandomState`: outside the test
// oracles nothing iterates a hash container (ROADMAP 2(c)).
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

pub mod expansion;
mod solver;
mod stencil;
pub mod tree;

pub use expansion::{ncoeffs, ExpansionOps};
pub use solver::{FmmConfig, FmmRunReport, FmmSolver};

#[cfg(test)]
#[path = "../../simcomm/tests/common/mod.rs"]
mod widths;

#[cfg(test)]
mod tests {
    use super::*;
    use particles::reference::{direct_open, ewald, EwaldParams};
    use particles::{IonicCrystal, ParticleSource, RandomGas, RedistMethod, SystemBox, Vec3};
    use simcomm::{run, MachineModel};

    /// Gather a source system's particles, run the FMM on `p` ranks with a
    /// block distribution, and return the concatenated restored output.
    fn run_fmm_restore(
        src: &(impl ParticleSource + Sync),
        p: usize,
        cfg: FmmConfig,
        bbox: SystemBox,
    ) -> (Vec<f64>, Vec<Vec3>) {
        let n = src.n();
        let out = run(p, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            // Block distribution of ids.
            let lo = me * n / p;
            let hi = (me + 1) * n / p;
            let mut pos = Vec::new();
            let mut charge = Vec::new();
            let mut id = Vec::new();
            for i in lo..hi {
                let (x, q) = src.particle(i as u64);
                pos.push(x);
                charge.push(q);
                id.push(i as u64);
            }
            let mut solver = FmmSolver::new(bbox, cfg.clone());
            let o = solver.run(
                comm,
                &pos,
                &charge,
                &id,
                RedistMethod::RestoreOriginal,
                None,
                usize::MAX,
            );
            // Restored output must preserve the input order exactly.
            assert_eq!(o.pos, pos, "method A must restore positions in order");
            assert_eq!(o.charge, charge);
            assert_eq!(o.id, id);
            assert!(!o.resorted);
            (o.potential, o.field)
        });
        let mut potential = Vec::with_capacity(n);
        let mut field = Vec::with_capacity(n);
        for (pot, f) in out.results {
            potential.extend(pot);
            field.extend(f);
        }
        (potential, field)
    }

    #[test]
    fn open_boundary_matches_direct_sum() {
        let bbox = SystemBox::new(Vec3::ZERO, Vec3::splat(10.0), [false; 3]);
        let gas = RandomGas { n: 200, bbox, seed: 42 };
        let mut pos = Vec::new();
        let mut charge = Vec::new();
        for i in 0..200u64 {
            let (x, q) = gas.particle(i);
            pos.push(x);
            charge.push(q);
        }
        let want = direct_open(&pos, &charge);
        for p in [1usize, 4] {
            let cfg = FmmConfig { order: 6, level: 3, soft_core: None };
            let (pot, field) = run_fmm_restore(&gas, p, cfg, bbox);
            let energy: f64 = 0.5 * pot.iter().zip(&charge).map(|(a, q)| a * q).sum::<f64>();
            let rel = (energy - want.energy).abs() / want.energy.abs();
            assert!(rel < 1e-3, "p={p}: energy {energy} vs {w}, rel {rel}", w = want.energy);
            // Spot-check per-particle values against the direct sum.
            let scale: f64 = (want.potential.iter().map(|x| x * x).sum::<f64>() / 200.0).sqrt();
            for i in 0..200 {
                assert!(
                    (pot[i] - want.potential[i]).abs() < 2e-2 * scale,
                    "i={i}: {a} vs {b}",
                    a = pot[i],
                    b = want.potential[i]
                );
                assert!((field[i] - want.field[i]).norm() < 5e-2 * scale);
            }
        }
    }

    #[test]
    fn accuracy_improves_with_order_open() {
        let bbox = SystemBox::new(Vec3::ZERO, Vec3::splat(8.0), [false; 3]);
        let gas = RandomGas { n: 120, bbox, seed: 7 };
        let mut pos = Vec::new();
        let mut charge = Vec::new();
        for i in 0..120u64 {
            let (x, q) = gas.particle(i);
            pos.push(x);
            charge.push(q);
        }
        let want = direct_open(&pos, &charge);
        let mut errs = Vec::new();
        for order in [2usize, 4, 6] {
            let (pot, _) =
                run_fmm_restore(&gas, 2, FmmConfig { order, level: 2, soft_core: None }, bbox);
            let energy: f64 = 0.5 * pot.iter().zip(&charge).map(|(a, q)| a * q).sum::<f64>();
            errs.push((energy - want.energy).abs() / want.energy.abs());
        }
        assert!(errs[2] < errs[0], "error must decrease with order: {errs:?}");
        assert!(errs[2] < 1e-4, "{errs:?}");
    }

    #[test]
    fn periodic_crystal_close_to_ewald() {
        // Jittered ionic crystal; wrapped-list FMM approximates the periodic
        // sum. Tolerance is looser than the open case (documented cell-pair
        // minimum-image approximation).
        let c = IonicCrystal::cubic(8, 1.0, 0.15, 3);
        let bbox = c.system_box();
        let n = c.n();
        let mut pos = Vec::new();
        let mut charge = Vec::new();
        for i in 0..n as u64 {
            let (x, q) = c.particle(i);
            pos.push(x);
            charge.push(q);
        }
        let want = ewald(&pos, &charge, &bbox, EwaldParams::for_cubic_box(8.0));
        let (pot, _) =
            run_fmm_restore(&c, 4, FmmConfig { order: 6, level: 3, soft_core: None }, bbox);
        let energy: f64 = 0.5 * pot.iter().zip(&charge).map(|(a, q)| a * q).sum::<f64>();
        let rel = (energy - want.energy).abs() / want.energy.abs();
        assert!(rel < 2e-2, "energy {energy} vs ewald {w}, rel {rel}", w = want.energy);
    }

    #[test]
    fn method_b_returns_changed_order_with_a_valid_resort_plan() {
        let c = IonicCrystal::cubic(6, 1.0, 0.2, 9);
        let n = c.n();
        let p = 4;
        let out = run(p, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let lo = me * n / p;
            let hi = (me + 1) * n / p;
            let mut pos = Vec::new();
            let mut charge = Vec::new();
            let mut id = Vec::new();
            for i in lo..hi {
                let (x, q) = c.particle(i as u64);
                pos.push(x);
                charge.push(q);
                id.push(i as u64);
            }
            let mut solver =
                FmmSolver::new(c.system_box(), FmmConfig { order: 2, level: 2, soft_core: None });
            let o =
                solver.run(comm, &pos, &charge, &id, RedistMethod::UseChanged, None, usize::MAX);
            assert!(o.resorted);
            // Resort the original ids and compare against the changed ids.
            let plan = solver.resort_plan().expect("a step that moves builds its plan");
            assert_eq!(plan.new_len(), o.id.len(), "one place per changed particle");
            let moved_ids = plan.execute(comm, &[&id]).pop().expect("one channel");
            assert_eq!(moved_ids, o.id, "the plan must map original to changed order");
            // The resort indices of Fig. 5, built from where every changed
            // particle came from, move the ids alike.
            let origins: Vec<u64> = o
                .id
                .iter()
                .map(|&k| {
                    let r = (0..p).rfind(|&r| r * n / p <= k as usize).expect("rank 0 starts at 0");
                    atasp::encode_index(r, k as usize - r * n / p)
                })
                .collect();
            let collective = atasp::ExchangeMode::Collective;
            let indices = atasp::build_resort_indices_with(comm, &origins, id.len(), &collective);
            let by_indices = atasp::resort(comm, &id, &indices, o.id.len(), &collective);
            assert_eq!(by_indices, moved_ids, "the plan sends every id where the indices do");
            // The changed order must be globally Z-sorted.
            let keys: Vec<u64> =
                o.pos.iter().map(|&x| crate::tree::leaf_key(&c.system_box(), x, 2)).collect();
            assert!(psort::is_globally_sorted(comm, &keys));
            o.id.len()
        });
        let total: usize = out.results.iter().sum();
        assert_eq!(total, n, "no particles lost");
    }

    #[test]
    fn method_b_capacity_fallback_restores() {
        let c = IonicCrystal::cubic(4, 1.0, 0.1, 5);
        let n = c.n();
        let p = 2;
        let out = run(p, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let lo = me * n / p;
            let hi = (me + 1) * n / p;
            let mut pos = Vec::new();
            let mut charge = Vec::new();
            let mut id = Vec::new();
            for i in lo..hi {
                let (x, q) = c.particle(i as u64);
                pos.push(x);
                charge.push(q);
                id.push(i as u64);
            }
            let mut solver =
                FmmSolver::new(c.system_box(), FmmConfig { order: 2, level: 2, soft_core: None });
            // Zero capacity forces the fallback everywhere.
            let o = solver.run(comm, &pos, &charge, &id, RedistMethod::UseChanged, None, 0);
            (o.resorted, o.id == id)
        });
        for (resorted, same) in out.results {
            assert!(!resorted, "zero capacity must force the restore fallback");
            assert!(same, "fallback must restore the original order");
        }
    }

    #[test]
    fn merge_sort_path_used_with_small_movement() {
        let c = IonicCrystal::cubic(6, 1.0, 0.1, 1);
        let n = c.n();
        let p = 4;
        let out = run(p, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let lo = me * n / p;
            let hi = (me + 1) * n / p;
            let mut pos = Vec::new();
            let mut charge = Vec::new();
            let mut id = Vec::new();
            for i in lo..hi {
                let (x, q) = c.particle(i as u64);
                pos.push(x);
                charge.push(q);
                id.push(i as u64);
            }
            let mut solver =
                FmmSolver::new(c.system_box(), FmmConfig { order: 2, level: 2, soft_core: None });
            // First run establishes the Z-distribution.
            let o1 =
                solver.run(comm, &pos, &charge, &id, RedistMethod::UseChanged, None, usize::MAX);
            assert!(!solver.last_report.used_merge_sort);
            // Second run with a tiny movement hint: merge path.
            let o2 = solver.run(
                comm,
                &o1.pos,
                &o1.charge,
                &o1.id,
                RedistMethod::UseChanged,
                Some(1e-6),
                usize::MAX,
            );
            let used_merge = solver.last_report.used_merge_sort;
            let sent = solver.last_report.sort_sent;
            // Energies must agree between the two runs (same particle set).
            let e1: f64 =
                0.5 * o1.potential.iter().zip(&o1.charge).map(|(a, q)| a * q).sum::<f64>();
            let e2: f64 =
                0.5 * o2.potential.iter().zip(&o2.charge).map(|(a, q)| a * q).sum::<f64>();
            (used_merge, sent, e1, e2)
        });
        let mut e1t = 0.0;
        let mut e2t = 0.0;
        for &(used_merge, sent, e1, e2) in &out.results {
            assert!(used_merge, "small movement must select the merge-based sort");
            assert_eq!(sent, 0, "already-sorted data must not move");
            e1t += e1;
            e2t += e2;
        }
        assert!((e1t - e2t).abs() < 1e-9 * e1t.abs().max(1e-12));
    }

    #[test]
    fn movement_guard_falls_back_to_partition_sort_on_lying_hint() {
        use simcomm::{FaultPlan, Runner};
        // Rank 0 holds particles spread over the whole box; the others hold a
        // few particles near the origin. The data is badly out of Z order, so
        // a *tiny* movement hint is a lie — the honest decision would have
        // been the partition sort. The guard (active only on fault-injected
        // worlds) must cap the degenerating merge cleanup, fall back to the
        // partition sort, and produce output identical to a run that chose
        // the partition sort up front.
        let p = 4;
        let bbox = particles::SystemBox::new(Vec3::ZERO, Vec3::splat(8.0), [false; 3]);
        let local = move |me: usize| -> (Vec<Vec3>, Vec<f64>, Vec<u64>) {
            if me == 0 {
                let n = 48u64;
                let pos: Vec<Vec3> = (0..n)
                    .map(|i| {
                        let s = |k: u64| {
                            (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11) as f64
                                / (1u64 << 53) as f64
                        };
                        Vec3::new(8.0 * s(i * 3 + 1), 8.0 * s(i * 3 + 2), 8.0 * s(i * 3 + 3))
                    })
                    .collect();
                let charge: Vec<f64> =
                    (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
                let id: Vec<u64> = (0..n).collect();
                (pos, charge, id)
            } else {
                let pos: Vec<Vec3> =
                    (0..2).map(|i| Vec3::splat(0.1 + 0.05 * (me * 2 + i) as f64)).collect();
                let charge = vec![1.0, -1.0];
                let id = vec![100 + me as u64 * 2, 101 + me as u64 * 2];
                (pos, charge, id)
            }
        };
        let cfg = || FmmConfig { order: 2, level: 2, soft_core: None };
        // Reference: the same data sorted by the general partition sort
        // (no movement hint) on a clean world.
        let reference = run(p, MachineModel::ideal(), move |comm| {
            let (pos, charge, id) = local(comm.rank());
            let mut solver = FmmSolver::new(bbox, cfg());
            let o =
                solver.run(comm, &pos, &charge, &id, RedistMethod::UseChanged, None, usize::MAX);
            assert!(!solver.last_report.used_merge_sort);
            (o.id, o.potential)
        })
        .results;
        // A fault-active plan with no comm-level injections: the guard
        // engages, nothing else changes.
        let plan =
            FaultPlan { seed: 7, hint_lie_prob: 1.0, hint_lie_factor: 1e-3, ..FaultPlan::none() };
        let guarded = Runner::default().faulted(plan).run(p, MachineModel::ideal(), move |comm| {
            let (pos, charge, id) = local(comm.rank());
            let mut solver = FmmSolver::new(bbox, cfg());
            solver.set_guard_cleanup_cap(Some(0));
            let o = solver.run(
                comm,
                &pos,
                &charge,
                &id,
                RedistMethod::UseChanged,
                Some(1e-9), // the lie: real displacement is the whole box
                usize::MAX,
            );
            assert!(solver.last_report.used_merge_sort, "the lying hint selects the merge path");
            assert!(
                solver.last_report.movement_guard_fallback,
                "the guard must detect the violated bound and fall back"
            );
            assert_eq!(solver.guard_fallbacks, 1);
            (o.id, o.potential)
        });
        assert_eq!(
            guarded.results, reference,
            "fallback output must match the up-front partition sort"
        );
        // On a clean world the guard stays disengaged: the same lying hint
        // runs the merge path to completion (slowly, but correctly).
        let clean = run(p, MachineModel::ideal(), move |comm| {
            let (pos, charge, id) = local(comm.rank());
            let mut solver = FmmSolver::new(bbox, cfg());
            solver.set_guard_cleanup_cap(Some(0));
            let o = solver.run(
                comm,
                &pos,
                &charge,
                &id,
                RedistMethod::UseChanged,
                Some(1e-9),
                usize::MAX,
            );
            assert!(!solver.last_report.movement_guard_fallback);
            assert_eq!(solver.guard_fallbacks, 0);
            (o.id, o.potential)
        })
        .results;
        // Same particle set, so the total energy agrees regardless of path.
        let energy = |rows: &Vec<(Vec<u64>, Vec<f64>)>| -> f64 {
            rows.iter().flat_map(|(_, pot)| pot.iter()).sum()
        };
        assert!(
            (energy(&clean) - energy(&reference)).abs() < 1e-9 * energy(&reference).abs().max(1.0)
        );
    }

    #[test]
    fn tuned_config_matches_accuracy_tiers() {
        let c = FmmConfig::tuned(829_440, 1e-3);
        assert_eq!(c.order, 4);
        assert!(c.level >= 4);
        assert_eq!(FmmConfig::tuned(1000, 1e-2).order, 2);
        assert_eq!(FmmConfig::tuned(1000, 1e-5).order, 8);
        assert!(FmmConfig::tuned(1, 1e-2).level >= 1);
    }

    #[test]
    fn empty_ranks_are_tolerated() {
        let bbox = SystemBox::new(Vec3::ZERO, Vec3::splat(4.0), [false; 3]);
        let out = run(3, MachineModel::ideal(), |comm| {
            // Only rank 0 has particles.
            let (pos, charge, id) = if comm.rank() == 0 {
                (
                    vec![Vec3::new(1.0, 1.0, 1.0), Vec3::new(3.0, 3.0, 3.0)],
                    vec![1.0, -1.0],
                    vec![0u64, 1],
                )
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };
            let mut solver =
                FmmSolver::new(bbox, FmmConfig { order: 8, level: 2, soft_core: None });
            let o = solver.run(
                comm,
                &pos,
                &charge,
                &id,
                RedistMethod::RestoreOriginal,
                None,
                usize::MAX,
            );
            o.potential
        });
        // The two charges at distance sqrt(12) interact through a single M2L
        // at the leaf level (offset (2,2,2)); order 8 keeps the truncation
        // error of that marginally-separated pair below 1e-4.
        let r = (12.0f64).sqrt();
        let pot0 = &out.results[0];
        assert_eq!(pot0.len(), 2);
        assert!((pot0[0] - (-1.0 / r)).abs() < 1e-4, "{pot0:?}");
        assert!((pot0[1] - (1.0 / r)).abs() < 1e-4);
    }
}
