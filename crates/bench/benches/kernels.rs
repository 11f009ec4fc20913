//! Micro-benchmarks of the computational kernels (real wall time, as opposed
//! to the figure harnesses' virtual time): local sorting, Morton encoding,
//! FFT, B-spline stencils, FMM expansion operators, special functions, the
//! linked-cell near field and the FMM far field.
//!
//! Plain binary (`harness = false`); run with `cargo bench -p bench`.

use bench::microbench::bench_case;
use std::hint::black_box;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn bench_local_sort() {
    for n in [1_000usize, 100_000] {
        let keys: Vec<u64> = (0..n as u64).map(splitmix).collect();
        let vals: Vec<u64> = keys.clone();
        bench_case("local_sort", &format!("radix_u64/{n}"), || {
            let mut k = keys.clone();
            let mut v = vals.clone();
            psort::radix_sort_by_key(&mut k, &mut v);
            k.len()
        });
        bench_case("local_sort", &format!("std_sort_by_key/{n}"), || {
            let mut pairs: Vec<(u64, u64)> =
                keys.iter().copied().zip(vals.iter().copied()).collect();
            pairs.sort_unstable_by_key(|&(k, _)| k);
            pairs.len()
        });
        // Sorted input: the stable order is the identity, nothing moves.
        let sorted_keys: Vec<u64> = (0..n as u64).collect();
        bench_case("local_sort", &format!("radix_sorted_input/{n}"), || {
            let mut k = sorted_keys.clone();
            let mut v = vals.clone();
            psort::radix_sort_by_key(&mut k, &mut v);
            k.len()
        });
    }
}

/// The repository benchmark's `redist` record shape: 2048 records of 48 bytes
/// per rank under 40-bit keys offset by 2^41 — random (a Method A round),
/// drifted by a few record spacings out of sorted order (what a Method B
/// round's local sort meets), and sorted.
fn bench_local_sort_records() {
    let n = 2048usize;
    let random: Vec<u64> = (0..n as u64).map(|i| (1 << 41) + (splitmix(i) >> 24)).collect();
    let mut sorted = random.clone();
    sorted.sort_unstable();
    let spacing = (1u64 << 40) / n as u64;
    let drifted: Vec<u64> =
        sorted.iter().map(|&k| k - 8 * spacing + splitmix(k) % (16 * spacing)).collect();
    let vals: Vec<[u64; 6]> = (0..n as u64).map(|i| [i; 6]).collect();
    for (name, keys) in [("random", &random), ("drifted", &drifted), ("sorted", &sorted)] {
        bench_case("local_sort", &format!("radix_u64x48B/{n} {name}"), || {
            let mut k = keys.clone();
            let mut v = vals.clone();
            psort::radix_sort_by_key(&mut k, &mut v);
            k.len()
        });
    }
}

fn bench_zorder() {
    let coords: Vec<(u32, u32, u32)> = (0..4096u64)
        .map(|i| {
            let h = splitmix(i);
            ((h & 0x1fffff) as u32, ((h >> 21) & 0x1fffff) as u32, ((h >> 42) & 0x1fffff) as u32)
        })
        .collect();
    bench_case("zorder", "encode_4096", || {
        let mut acc = 0u64;
        for &(x, y, z) in &coords {
            acc ^= particles::zorder::encode(x, y, z);
        }
        acc
    });
    let keys: Vec<u64> =
        coords.iter().map(|&(x, y, z)| particles::zorder::encode(x, y, z)).collect();
    bench_case("zorder", "decode_4096", || {
        let mut acc = 0u32;
        for &k in &keys {
            let (x, y, z) = particles::zorder::decode(k);
            acc ^= x ^ y ^ z;
        }
        acc
    });
}

fn bench_fft() {
    for n in [256usize, 4096] {
        let data: Vec<pmsolver::Complex> = (0..n as u64)
            .map(|i| {
                let h = splitmix(i);
                pmsolver::Complex::new(
                    (h & 0xffff) as f64 / 65536.0,
                    ((h >> 16) & 0xffff) as f64 / 65536.0,
                )
            })
            .collect();
        bench_case("fft", &format!("complex_1d/{n}"), || {
            let mut x = data.clone();
            pmsolver::fft_in_place(&mut x, pmsolver::Direction::Forward);
            x[0].re
        });
    }
}

fn bench_bspline() {
    for order in [2usize, 3, 4] {
        bench_case("bspline", &format!("stencil/{order}"), || {
            let mut w = vec![0.0; order];
            let mut acc = 0.0;
            for i in 0..1000 {
                let u = 5.0 + i as f64 * 0.137;
                pmsolver::stencil(order, u, &mut w);
                acc += w[0];
            }
            acc
        });
    }
}

fn bench_expansion_ops() {
    // 10, 20, 35, 56, 84 and 165 coefficients. M2L accumulates five at a
    // time: order 5 is the smallest whose last chunk is partial behind full
    // ones (11 x 5 + 1), order 6 leaves four of five lanes.
    for order in [2usize, 3, 4, 5, 6, 8] {
        let ops = fmm::ExpansionOps::new(order);
        let nc = ops.len();
        let z = particles::Vec3::new(0.5, 0.5, 0.5);
        let w = particles::Vec3::new(3.5, 0.5, 0.5);
        let mut m = vec![0.0; nc];
        ops.p2m(&mut m, z, particles::Vec3::new(0.4, 0.6, 0.5), 1.0);
        let t = ops.derivative_tensor(w - z);
        // The local expansion lives outside the timed closure, as the
        // solver's slabs do: the row times the translation alone.
        let mut l = vec![0.0; nc];
        bench_case("fmm_expansion", &format!("m2l/{order}"), || {
            ops.m2l_with_tensor(&mut l, black_box(&m), black_box(&t));
            l[0]
        });
        bench_case("fmm_expansion", &format!("derivative_tensor/{order}"), || {
            ops.derivative_tensor(w - z)[0]
        });
        bench_case("fmm_expansion", &format!("p2m/{order}"), || {
            let mut mm = vec![0.0; nc];
            for i in 0..100 {
                ops.p2m(&mut mm, z, particles::Vec3::new(0.4, 0.5 + i as f64 * 1e-3, 0.5), 1.0);
            }
            mm[0]
        });
    }
}

fn bench_special_functions() {
    bench_case("special", "erfc_1000", || {
        let mut acc = 0.0;
        for i in 0..1000 {
            acc += particles::math::erfc(i as f64 * 0.003);
        }
        acc
    });
}

/// One rank's near-field call in the shape the repository benchmark's MD
/// workloads produce: `IonicCrystal::paper_like(cells, ..)` on a balanced
/// grid of `ranks`, rank 0's particles as receivers and every other particle
/// within the cutoff of its subdomain as a ghost.
fn bench_near_field_rank(cells: usize, ranks: usize) {
    let crystal = particles::IonicCrystal::paper_like(cells, 1);
    let bbox = crystal.system_box();
    let dims = simcomm::CartGrid::balanced(ranks).dims();
    // The cutoff the benchmark tunes: 2.8 spacings, capped by the
    // minimum-image bound and the subdomain width.
    let l = bbox.lengths.x();
    let rcut = (2.8 * crystal.spacing).min(0.49 * l).min(l / dims[0] as f64);
    let cfg = pmsolver::PmConfig::tuned(&bbox, 1e-2, rcut);
    let (lo, hi) = particles::grid_cell_bounds(dims, &bbox, 0);
    let (mid, half) = ((lo + hi) * 0.5, (hi - lo) * 0.5);
    let (mut pos, mut charge) = (Vec::new(), Vec::new());
    let (mut ghost_pos, mut ghost_charge) = (Vec::new(), Vec::new());
    for i in 0..crystal.n() as u64 {
        let (x, q) = crystal.particle(i);
        let m = bbox.min_image(x, mid);
        let gap2: f64 = (0..3).map(|k| (m[k].abs() - half[k]).max(0.0).powi(2)).sum();
        if particles::grid_rank_of(dims, &bbox, x) == 0 {
            pos.push(x);
            charge.push(q);
        } else if gap2 <= cfg.rcut * cfg.rcut {
            ghost_pos.push(x);
            ghost_charge.push(q);
        }
    }
    let name = format!("rank_{}_owned_{}_total", pos.len(), pos.len() + ghost_pos.len());
    bench_case("near_field", &name, || {
        let (p, _, pairs) = pmsolver::near_field(
            &bbox,
            cfg.alpha,
            cfg.rcut,
            None,
            (lo, hi),
            &pos,
            &charge,
            &ghost_pos,
            &ghost_charge,
        );
        black_box((p[0], pairs))
    });
}

fn bench_near_field() {
    let bbox = particles::SystemBox::cubic(10.0);
    let gas = particles::RandomGas { n: 2000, bbox, seed: 5 };
    let mut pos = Vec::new();
    let mut charge = Vec::new();
    for i in 0..2000u64 {
        let (x, q) = particles::distributions::ParticleSource::particle(&gas, i);
        pos.push(x);
        charge.push(q);
    }
    bench_case("near_field", "linked_cell_2000_rcut1.5", || {
        let (p, _, pairs) = pmsolver::near_field(
            &bbox,
            1.0,
            1.5,
            None,
            (particles::Vec3::ZERO, particles::Vec3::splat(10.0)),
            &pos,
            &charge,
            &[],
            &[],
        );
        black_box((p[0], pairs))
    });
    // md_p2nfft (512 owned per rank) and md_sparse64 (27 owned per rank).
    bench_near_field_rank(16, 8);
    bench_near_field_rank(12, 64);
}

/// One FMM world in the shape of a repository benchmark workload:
/// `IonicCrystal::paper_like(cells, ..)` grid-distributed over `ranks`, every
/// rank running the solver tuned to `tolerance` once (Method A). At 16 cells
/// on 8 ranks (`md_fmm`, level 3) the far field — tree, locally essential
/// multipoles, M2L — is most of the time; at 12 cells on 64 ranks
/// (`md_sparse64`, level 2) it is the per-level and per-partner fixed cost.
/// Both benchmark workloads tune to order 2 (`1e-2`); the figure sweeps run
/// order 4 (`1e-3`), where a translation is 12 times the work.
fn bench_fmm_far_field(cells: usize, ranks: usize, tolerance: f64) {
    let crystal = particles::IonicCrystal::paper_like(cells, 1);
    let bbox = crystal.system_box();
    let dims = simcomm::CartGrid::balanced(ranks).dims();
    let cfg = fmm::FmmConfig::tuned(crystal.n() as u64, tolerance);
    let name = format!("far_field/level{}_order{}_{}ranks", cfg.level, cfg.order, ranks);
    bench_case("fmm", &name, || {
        let out = simcomm::run(ranks, simcomm::MachineModel::juropa_like(), |comm| {
            let set = particles::local_set(
                &crystal,
                particles::InitialDistribution::Grid,
                comm.rank(),
                ranks,
                dims,
            );
            let mut solver = fmm::FmmSolver::new(bbox, cfg.clone());
            let method = particles::RedistMethod::RestoreOriginal;
            let o = solver.run(comm, set.pos(), set.charge(), set.id(), method, None, usize::MAX);
            (o.potential.first().copied(), solver.last_report.m2l_count)
        });
        black_box(out.results)
    });
}

fn main() {
    bench_local_sort();
    bench_local_sort_records();
    bench_zorder();
    bench_fft();
    bench_bspline();
    bench_expansion_ops();
    bench_special_functions();
    bench_near_field();
    // md_fmm (level 3 on 8 ranks) and md_sparse64 (level 2 on 64 ranks).
    bench_fmm_far_field(16, 8, 1e-2);
    bench_fmm_far_field(12, 64, 1e-2);
    // The figures' order at md_fmm's shape: what M2M / L2L / M2L cost there.
    bench_fmm_far_field(16, 8, 1e-3);
}
