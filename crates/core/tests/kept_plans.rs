//! Kept plans are bitwise invisible to the physics. A short particle
//! dynamics loop on the 8-rank P2NFFT Method B + movement crystal runs once
//! on a handle that keeps its plans (ghost epochs, resort schedules,
//! quiet-step shortcuts) and once on a handle that drops them before every
//! run. Every potential and field bit must match — in the small-movement
//! regime, where kept epochs serve many steps; in a middle regime, where a
//! rank's particles arrive in the order its epoch recorded although some
//! changed linked cell (only the epoch's cell keys tell it is stale); and in
//! the large-movement regime, where epochs are invalidated and rebuilt under
//! way.

use fcs::{Fcs, SolverKind};
use particles::systems::splitmix64;
use particles::{local_set, InitialDistribution, IonicCrystal, SoftCore, Vec3};
use simcomm::{run, CartGrid, Comm, MachineModel};

const P: usize = 8;
const STEPS: usize = 8;
const DT: f64 = 0.01;

/// A velocity whose components are uniform with standard deviation `vt`, a
/// pure function of the particle id.
fn velocity(id: u64, vt: f64) -> Vec3 {
    let unit = |salt: u64| (splitmix64(id ^ salt) >> 11) as f64 / (1u64 << 53) as f64;
    let c = |salt: u64| vt * 3f64.sqrt() * (2.0 * unit(salt) - 1.0);
    Vec3::new(c(1), c(2), c(3))
}

/// Every potential and field bit of every run on this rank, in output
/// order, with the handle's `(builds, hits)`.
fn md(comm: &mut Comm, c: &IonicCrystal, thermal: f64, keep: bool) -> (Vec<Vec<u64>>, (u64, u64)) {
    let bbox = c.system_box();
    let set = local_set(c, InitialDistribution::Grid, comm.rank(), P, CartGrid::balanced(P).dims());
    let (mut pos, mut charge, mut id) = set.into_parts();
    let n_total = comm.allreduce(pos.len(), |a, b| a + b);
    let spacing = (bbox.volume() / n_total as f64).cbrt();
    let max_local = 3 * n_total / P;
    let mut vel: Vec<Vec3> = id.iter().map(|&i| velocity(i, thermal * spacing / DT)).collect();
    let mut handle = Fcs::init(SolverKind::P2Nfft, P);
    handle.set_common(bbox);
    handle.set_tolerance(1e-2);
    handle.set_resort(true);
    handle.set_soft_core(Some(SoftCore::for_spacing(spacing)));
    handle.tune(comm, &pos, &charge);
    let mut runs = Vec::new();
    for step in 0..=STEPS {
        if step > 0 {
            let mut max_move2: f64 = 0.0;
            for (x, v) in pos.iter_mut().zip(&vel) {
                max_move2 = max_move2.max((*v * DT).norm2());
                *x = bbox.wrap(*x + *v * DT);
            }
            handle.set_max_particle_move(Some(comm.allreduce(max_move2, f64::max).sqrt()));
        }
        if !keep {
            handle.invalidate_plans();
        }
        let out = handle.run(comm, &pos, &charge, &id, max_local);
        if out.resorted {
            vel = handle.resort_vec3(comm, &vel);
        }
        (pos, charge, id) = (out.pos, out.charge, out.id);
        for (v, (e, q)) in vel.iter_mut().zip(out.field.iter().zip(&charge)) {
            *v += *e * (q * DT);
        }
        let field = out.field.iter().flat_map(|e| [0, 1, 2].map(|d| e[d].to_bits()));
        runs.push(out.potential.iter().map(|x| x.to_bits()).chain(field).collect());
    }
    (runs, handle.plan_stats())
}

#[test]
fn kept_plans_are_bitwise_invisible_to_the_physics() {
    let c = IonicCrystal::cubic(8, 1.0, 0.15, 11);
    for thermal in [0.004, 0.05, 0.2] {
        let world = |keep: bool| {
            let c = c.clone();
            run(P, MachineModel::juropa_like(), move |comm| md(comm, &c, thermal, keep)).results
        };
        let (kept, dropped) = (world(true), world(false));
        for (r, (k, d)) in kept.iter().zip(&dropped).enumerate() {
            for (step, (a, b)) in k.0.iter().zip(&d.0).enumerate() {
                assert!(a == b, "thermal {thermal} rank {r} step {step}: results differ");
            }
            assert_eq!(d.1 .1, 0, "thermal {thermal} rank {r}: a dropped plan was reused");
        }
        let (builds, hits) = kept[0].1;
        assert!(builds > 0, "thermal {thermal}: the kept handle must build plans");
        if thermal == 0.004 {
            assert!(hits > 0, "small movement must reuse kept plans (builds {builds})");
        }
    }
}
