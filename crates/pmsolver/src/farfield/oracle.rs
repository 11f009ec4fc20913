//! Test oracle: the far field as it stood before its exchanges became
//! index-free — every record carries the packed index of its mesh point, the
//! charge route sends only the points some particle touched, and receivers
//! place records by unpacking the index. Kept verbatim except that windows
//! and patches are the plan's ([`super::reach`]) and the message bookkeeping
//! lives in the cache's `traffic`. It makes every transpose, the ones whose
//! only partner is the rank itself included, and transforms contiguous lines
//! only. The property test below pins the index-free code to it bit for bit.

use particles::Vec3;
use simcomm::{push_segment, Comm, Work};

use super::{
    nonempty_parts, octet, part_owner, part_range, set_octet, zeroed, FarFieldCache, FarFieldPlan,
};
use crate::bspline::stencil;
use crate::fft::{fft_in_place, Complex, Direction};

/// Append one destination's records to a flat payload.
fn pack<T>(
    payload: &mut Vec<T>,
    segments: &mut Vec<(usize, usize)>,
    dst: usize,
    items: impl Iterator<Item = T>,
) {
    let before = payload.len();
    payload.extend(items);
    push_segment(segments, dst, payload.len() - before);
}

impl FarFieldPlan {
    #[inline]
    fn pack(&self, i: usize, j: usize, k: usize) -> u64 {
        ((i * self.mesh + j) * self.mesh + k) as u64
    }

    #[inline]
    fn unpack(&self, p: u64) -> [usize; 3] {
        let m = self.mesh as u64;
        [(p / (m * m)) as usize, ((p / m) % m) as usize, (p % m) as usize]
    }

    /// [`FarFieldPlan::execute_into`] through the indexed exchanges, its
    /// result copied out.
    pub(super) fn execute_oracle(
        &self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        cache: &mut FarFieldCache,
    ) -> (Vec<f64>, Vec<Vec3>) {
        self.prepare(comm, cache);
        self.execute_pencil_oracle(comm, pos, charge, cache);
        (cache.phi.clone(), cache.field.clone())
    }

    /// B-spline charge assignment and its routing: the local particles'
    /// contributions are summed per mesh point, in particle order, over the
    /// dense window; every touched point (zero sums included) then goes,
    /// as `(packed index, sum)`, to the rank `owner` names for its `(x, y)`
    /// column. Returns what this rank received.
    fn assign_and_route_charges_oracle(
        &self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        cache: &mut FarFieldCache,
        owner: impl Fn(usize, usize) -> usize,
    ) -> Vec<(u64, f64)> {
        let m = self.mesh;
        let order = self.assign_order;
        let FarFieldCache { window, weights, traffic, .. } = cache;
        let (segments, sources) = (&mut traffic.segments, &mut traffic.sources);
        let axis: [Vec<usize>; 3] = window.spans.map(|s| s.iter(m).collect());
        let [ex, ey, ez] = window.extents();
        let mut charge_routes = Vec::new();
        for (ox, &i) in axis[0].iter().enumerate() {
            let columns = axis[1].iter().enumerate();
            charge_routes.extend(columns.map(|(oy, &j)| (owner(i, j), ox as u32, oy as u32)));
        }
        charge_routes.sort_unstable();
        let mut sums = vec![0.0f64; ex * ey * ez];
        let mut seen = vec![false; sums.len()];
        let [wx, wy, wz] = weights;
        for (x, &q) in pos.iter().zip(charge) {
            let t = self.bbox.normalized(*x);
            let fx = stencil(order, t.x() * m as f64, wx);
            let fy = stencil(order, t.y() * m as f64, wy);
            let fz = stencil(order, t.z() * m as f64, wz);
            for (a, &wxa) in wx.iter().enumerate() {
                let gi = (fx + a as i64).rem_euclid(m as i64) as usize;
                for (b, &wyb) in wy.iter().enumerate() {
                    let gj = (fy + b as i64).rem_euclid(m as i64) as usize;
                    let part = q * wxa * wyb;
                    for (c, &wzc) in wz.iter().enumerate() {
                        let gk = (fz + c as i64).rem_euclid(m as i64) as usize;
                        let o = window.offset([gi, gj, gk], "assignment");
                        sums[o] += part * wzc;
                        seen[o] = true;
                    }
                }
            }
        }
        comm.compute(Work::MeshPoint, (pos.len() * order * order * order) as f64);
        let mut send = Vec::with_capacity(seen.iter().filter(|&&s| s).count());
        segments.clear();
        for &(dst, ox, oy) in charge_routes.iter() {
            let (i, j) = (axis[0][ox as usize], axis[1][oy as usize]);
            let column = (ox as usize * ey + oy as usize) * ez;
            let before = send.len();
            for (oz, &k) in axis[2].iter().enumerate() {
                if seen[column + oz] {
                    send.push((self.pack(i, j, k), sums[column + oz]));
                }
            }
            push_segment(segments, dst, send.len() - before);
        }
        drop((sums, seen));
        let mut received = Vec::new();
        comm.alltoallv_flat(send, segments, &mut received, sources);
        received
    }

    /// Distribute computed mesh values (phi, Ex, Ey, Ez per point) to the
    /// interpolation patches of the particle-grid owners, then interpolate
    /// potentials/fields at the local particles and apply the self-energy
    /// correction. This rank holds the values of the mesh box `owned`
    /// (`[lo, hi)` per dimension), which `value` reads.
    fn distribute_and_interpolate_oracle(
        &self,
        comm: &mut Comm,
        cache: &mut FarFieldCache,
        owned: [(usize, usize); 3],
        value: impl Fn(&[Vec<Complex>; 4], [usize; 3]) -> [f64; 4],
        pos: &[Vec3],
        charge: &[f64],
    ) {
        let m = self.mesh;
        let order = self.assign_order;
        let FarFieldCache { window, quad, weights, phi, field, traffic, .. } = cache;
        let (segments, sources) = (&mut traffic.segments, &mut traffic.sources);
        let patches: [Vec<Vec<usize>>; 3] = std::array::from_fn(|d| {
            let sorted = |s: &super::Span| {
                let mut patch: Vec<usize> = s.iter(m).collect();
                patch.sort_unstable();
                patch
            };
            self.patches[d].iter().map(sorted).collect()
        });
        // Per dimension and destination coordinate: the owned indices its
        // patch holds, ascending.
        let held = |d: usize, c: usize| {
            let (lo, hi) = owned[d];
            patches[d][c].iter().copied().filter(move |&i| lo <= i && i < hi)
        };
        let holders = |d: usize| (0..self.dims[d]).filter(move |&c| held(d, c).next().is_some());
        let total: usize =
            (0..3).map(|d| holders(d).map(|c| held(d, c).count()).sum::<usize>()).product();
        let mut send = Vec::with_capacity(total);
        segments.clear();
        for cx in holders(0) {
            for cy in holders(1) {
                for cz in holders(2) {
                    let points = held(0, cx).flat_map(|i| {
                        held(1, cy).flat_map(move |j| held(2, cz).map(move |k| [i, j, k]))
                    });
                    let records =
                        points.map(|at| (self.pack(at[0], at[1], at[2]), value(quad, at)));
                    pack(&mut send, segments, self.grid_rank([cx, cy, cz]), records);
                }
            }
        }
        let mut received = Vec::new();
        comm.alltoallv_flat(send, segments, &mut received, sources);

        // Dense interpolation patch over this rank's wrapped mesh window.
        let [ex, ey, ez] = window.extents();
        let mut patch = vec![[0.0f64; 4]; ex * ey * ez];
        let mut filled = vec![false; patch.len()];
        for (idx, v) in received {
            let o = window.offset(self.unpack(idx), "interpolation");
            patch[o] = v;
            filled[o] = true;
        }

        zeroed(phi, pos.len(), 0.0);
        zeroed(field, pos.len(), Vec3::ZERO);
        let [wx, wy, wz] = weights;
        for (pi, x) in pos.iter().enumerate() {
            let t = self.bbox.normalized(*x);
            let fx = stencil(order, t.x() * m as f64, wx);
            let fy = stencil(order, t.y() * m as f64, wy);
            let fz = stencil(order, t.z() * m as f64, wz);
            for (a, &wxa) in wx.iter().enumerate() {
                let gi = (fx + a as i64).rem_euclid(m as i64) as usize;
                let ox = window.maps[0][gi] as usize;
                for (b, &wyb) in wy.iter().enumerate() {
                    let gj = (fy + b as i64).rem_euclid(m as i64) as usize;
                    let oy = window.maps[1][gj] as usize;
                    let wab = wxa * wyb;
                    for (c, &wzc) in wz.iter().enumerate() {
                        let gk = (fz + c as i64).rem_euclid(m as i64) as usize;
                        let oz = window.maps[2][gk] as usize;
                        let w = wab * wzc;
                        let o = (ox * ey + oy) * ez + oz;
                        if o >= filled.len() || !filled[o] {
                            panic!("mesh point ({gi},{gj},{gk}) missing from patch");
                        }
                        let v = &patch[o];
                        phi[pi] += w * v[0];
                        field[pi] += Vec3::new(v[1], v[2], v[3]) * w;
                    }
                }
            }
        }
        comm.compute(Work::MeshPoint, (pos.len() * order * order * order) as f64);

        let self_term = 2.0 * self.alpha / std::f64::consts::PI.sqrt();
        for (pi, &q) in charge.iter().enumerate() {
            phi[pi] -= self_term * q;
        }
        comm.compute(Work::ParticleOp, pos.len() as f64);
    }

    /// Pencil-decomposed execution (2D decomposition): the `P` ranks form the
    /// plan's `p1 x p2` transform grid; the three transform stages own z-, y-
    /// and x-pencils respectively.
    fn execute_pencil_oracle(
        &self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        cache: &mut FarFieldCache,
    ) {
        let me = comm.rank();
        let m = self.mesh;
        let [p1, p2] = cache.dist.grid;
        let (a_me, b_me) = (me / p2, me % p2);
        let rank_of = |a: usize, b: usize| a * p2 + b;

        // ---- Stage A: z-pencils (x in XA[a], y in YB[b], full z) ----
        let (ax0, ax1) = part_range(a_me, m, p1);
        let (ay0, ay1) = part_range(b_me, m, p2);
        let (anx, any) = (ax1 - ax0, ay1 - ay0);
        let charges = self.assign_and_route_charges_oracle(comm, pos, charge, cache, |i, j| {
            rank_of(part_owner(i, m, p1), part_owner(j, m, p2))
        });
        let FarFieldCache { quad, traffic, .. } = cache;
        let (segments, sources) = (&mut traffic.segments, &mut traffic.sources);
        let (mut zp, mut yp, mut xp, mut spec) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // Layout: zp[((xi * any) + yj) * m + z], z contiguous.
        zeroed(&mut zp, anx * any * m, Complex::ZERO);
        for (idx, val) in charges {
            let [i, j, k] = self.unpack(idx);
            debug_assert!((ax0..ax1).contains(&i) && (ay0..ay1).contains(&j));
            zp[((i - ax0) * any + (j - ay0)) * m + k].re += val;
        }
        comm.compute(Work::MeshPoint, (anx * any * m) as f64);

        // ---- FFT along z ----
        let mut fft_ops = 0u64;
        for line in zp.chunks_exact_mut(m) {
            fft_ops += fft_in_place(line, Direction::Forward);
        }

        // ---- Transpose A -> B: y-pencils (x in XA[a] unchanged, z in ZB[b],
        // full y). Traffic stays within each p1-row. ----
        let (bz0, bz1) = part_range(b_me, m, p2);
        let bnz = bz1 - bz0;
        let mut send = Vec::with_capacity(zp.len());
        segments.clear();
        for (b, z0, z1) in nonempty_parts(m, p2) {
            let points = (0..anx)
                .flat_map(|xi| (0..any).flat_map(move |yj| (z0..z1).map(move |z| (xi, yj, z))));
            let records = points.map(|(xi, yj, z)| {
                let c = zp[(xi * any + yj) * m + z];
                (self.pack(ax0 + xi, ay0 + yj, z), [c.re, c.im])
            });
            pack(&mut send, segments, rank_of(a_me, b), records);
        }
        let mut received = Vec::new();
        comm.alltoallv_flat(send, segments, &mut received, sources);
        // Layout: yp[((xi * bnz) + zk) * m + y], y contiguous.
        zeroed(&mut yp, anx * bnz * m, Complex::ZERO);
        for &(idx, [re, im]) in received.iter() {
            let [i, j, k] = self.unpack(idx);
            debug_assert!((ax0..ax1).contains(&i) && (bz0..bz1).contains(&k));
            yp[((i - ax0) * bnz + (k - bz0)) * m + j] = Complex::new(re, im);
        }

        // ---- FFT along y ----
        for line in yp.chunks_exact_mut(m) {
            fft_ops += fft_in_place(line, Direction::Forward);
        }

        // ---- Transpose B -> C: x-pencils (y in YA[a], z in ZB[b] unchanged,
        // full x). Traffic stays within each p2-column. ----
        let (cy0, cy1) = part_range(a_me, m, p1);
        let cny = cy1 - cy0;
        let mut send = Vec::with_capacity(yp.len());
        segments.clear();
        for (a, y0, y1) in nonempty_parts(m, p1) {
            let points = (0..anx)
                .flat_map(|xi| (0..bnz).flat_map(move |zk| (y0..y1).map(move |y| (xi, zk, y))));
            let records = points.map(|(xi, zk, y)| {
                let c = yp[(xi * bnz + zk) * m + y];
                (self.pack(ax0 + xi, y, bz0 + zk), [c.re, c.im])
            });
            pack(&mut send, segments, rank_of(a, b_me), records);
        }
        comm.alltoallv_flat(send, segments, &mut received, sources);
        // Layout: xp[((yj * bnz) + zk) * m + x], x contiguous.
        zeroed(&mut xp, cny * bnz * m, Complex::ZERO);
        for (idx, [re, im]) in received {
            let [i, j, k] = self.unpack(idx);
            debug_assert!((cy0..cy1).contains(&j) && (bz0..bz1).contains(&k));
            xp[((j - cy0) * bnz + (k - bz0)) * m + i] = Complex::new(re, im);
        }

        // ---- FFT along x ----
        for line in xp.chunks_exact_mut(m) {
            fft_ops += fft_in_place(line, Direction::Forward);
        }

        // ---- Influence function in the x-pencil layout ----
        let n_local = cny * bnz * m;
        for yj in 0..cny {
            let myf = self.freq(cy0 + yj);
            for zk in 0..bnz {
                let mzf = self.freq(bz0 + zk);
                for x in 0..m {
                    let mxf = self.freq(x);
                    spec.push((self.influence(mxf, myf, mzf), self.kvec(mxf, myf, mzf)));
                }
            }
        }
        apply_influence(&spec, &xp, quad);
        comm.compute(Work::MeshPoint, n_local as f64 * 4.0);

        // ---- Inverse FFT along x for the four spectra ----
        for arr in quad.iter_mut() {
            for line in arr.chunks_exact_mut(m) {
                fft_ops += fft_in_place(line, Direction::Inverse);
            }
        }

        // ---- Transpose C -> B (four spectra packed) ----
        let mut send = Vec::with_capacity(n_local);
        segments.clear();
        for (a, x0, x1) in nonempty_parts(m, p1) {
            let points = (0..cny)
                .flat_map(|yj| (0..bnz).flat_map(move |zk| (x0..x1).map(move |x| (yj, zk, x))));
            let records = points.map(|(yj, zk, x)| {
                (self.pack(x, cy0 + yj, bz0 + zk), octet(quad, (yj * bnz + zk) * m + x))
            });
            pack(&mut send, segments, rank_of(a, b_me), records);
        }
        let mut received = Vec::new();
        comm.alltoallv_flat(send, segments, &mut received, sources);
        for arr in quad.iter_mut() {
            zeroed(arr, anx * bnz * m, Complex::ZERO);
        }
        for (idx, v) in received.iter() {
            let [i, j, k] = self.unpack(*idx);
            set_octet(quad, ((i - ax0) * bnz + (k - bz0)) * m + j, v);
        }

        // ---- Inverse FFT along y ----
        for arr in quad.iter_mut() {
            for line in arr.chunks_exact_mut(m) {
                fft_ops += fft_in_place(line, Direction::Inverse);
            }
        }

        // ---- Transpose B -> A ----
        let mut send = Vec::with_capacity(anx * bnz * m);
        segments.clear();
        for (b, y0, y1) in nonempty_parts(m, p2) {
            let points = (0..anx)
                .flat_map(|xi| (0..bnz).flat_map(move |zk| (y0..y1).map(move |y| (xi, zk, y))));
            let records = points.map(|(xi, zk, y)| {
                (self.pack(ax0 + xi, y, bz0 + zk), octet(quad, (xi * bnz + zk) * m + y))
            });
            pack(&mut send, segments, rank_of(a_me, b), records);
        }
        comm.alltoallv_flat(send, segments, &mut received, sources);
        for arr in quad.iter_mut() {
            zeroed(arr, anx * any * m, Complex::ZERO);
        }
        for (idx, v) in received {
            let [i, j, k] = self.unpack(idx);
            set_octet(quad, ((i - ax0) * any + (j - ay0)) * m + k, &v);
        }

        // ---- Inverse FFT along z ----
        for arr in quad.iter_mut() {
            for line in arr.chunks_exact_mut(m) {
                fft_ops += fft_in_place(line, Direction::Inverse);
            }
        }
        comm.compute(Work::FftPoint, fft_ops as f64);

        // ---- Patch distribution + interpolation ----
        let value = move |quad: &[Vec<Complex>; 4], [i, j, k]: [usize; 3]| {
            let o = ((i - ax0) * any + (j - ay0)) * m + k;
            [quad[0][o].re, quad[1][o].re, quad[2][o].re, quad[3][o].re]
        };
        let owned = [(ax0, ax1), (ay0, ay1), (0, m)];
        self.distribute_and_interpolate_oracle(comm, cache, owned, value, pos, charge)
    }
}

/// Multiply the transformed mesh `hat` by the influence function into the
/// four spectra: phi-hat and the ik-differentiated field-hat, from one
/// `(G_opt, k)` per point — the far field's multiplication before it scaled
/// its mesh in place, kept as the oracle's.
fn apply_influence(spec: &[(f64, Vec3)], hat: &[Complex], quad: &mut [Vec<Complex>; 4]) {
    for arr in quad.iter_mut() {
        zeroed(arr, hat.len(), Complex::ZERO);
    }
    for (o, &(g, k)) in spec.iter().enumerate() {
        if g == 0.0 {
            continue;
        }
        let ph = hat[o].scale(g);
        quad[0][o] = ph;
        // E-hat = -i k phi-hat: (-i)(a + bi) = b - ai.
        let mik_ph = Complex::new(ph.im, -ph.re);
        quad[1][o] = mik_ph.scale(k.x());
        quad[2][o] = mik_ph.scale(k.y());
        quad[3][o] = mik_ph.scale(k.z());
    }
}

#[cfg(test)]
mod tests {
    use particles::systems::splitmix64;
    use particles::{grid_rank_of, SystemBox, Vec3};
    use simcomm::{run, Comm, MachineModel};

    use super::super::tests::closed_form;
    use super::super::{FarFieldCache, FarFieldPlan, Overlap, Sent};

    /// splitmix64 stream for the property test below.
    struct Gen(u64);

    impl Gen {
        fn unit(&mut self) -> f64 {
            self.0 = splitmix64(self.0);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Edges that are powers of two, so that a position `t · L` normalizes
    /// back to exactly `t`.
    fn bbox() -> SystemBox {
        SystemBox::new(Vec3::ZERO, Vec3::new(8.0, 4.0, 16.0), [true; 3])
    }

    /// One far-field world: the plan's geometry, and particles that each
    /// rank takes where its process-grid cell holds them.
    #[derive(Clone, Debug)]
    struct World {
        mesh: usize,
        order: usize,
        dims: [usize; 3],
        particles: Vec<(Vec3, f64)>,
    }

    /// What one rank saw: the bits of every potential and field component,
    /// what it sent per exchange by its own count, and the point-to-point
    /// messages and bytes its communicator counted.
    type RankRun = ((Vec<u64>, Vec<[u64; 3]>), [Sent; 4], (u64, u64));

    fn run_world(w: &World, oracle: bool) -> Vec<RankRun> {
        let b = bbox();
        let p = w.dims.iter().product();
        let out = run(p, MachineModel::juropa_like(), |comm| {
            let me = comm.rank();
            let mine = w.particles.iter().filter(|(x, _)| grid_rank_of(w.dims, &b, *x) == me);
            let (pos, charge): (Vec<Vec3>, Vec<f64>) = mine.copied().unzip();
            let plan = FarFieldPlan::new(w.mesh, w.order, 2.0, w.dims, b);
            let mut cache = FarFieldCache::default();
            let before = comm.stats().clone();
            let (phi, field) = if oracle {
                plan.execute_oracle(comm, &pos, &charge, &mut cache)
            } else {
                // A filler that computes — more than some windows hide,
                // less than others —, and sees the windows in order, each
                // with the backgrounds of all.
                let mut seen: Vec<usize> = Vec::new();
                let mut fill = |comm: &mut Comm, overlap: Overlap<'_>| {
                    let Overlap { window, backgrounds } = overlap;
                    assert_eq!(window, seen.len(), "windows in order");
                    assert!(backgrounds.iter().all(|&b| b >= 0.0));
                    comm.advance(backgrounds[window] * [0.5, 1.5][window % 2] + 1e-6);
                    seen.push(backgrounds.len());
                };
                let (phi, field) = plan.execute_into(comm, &pos, &charge, &mut cache, &mut fill);
                assert!(seen.iter().all(|&n| n == seen.len()), "every window ran: {seen:?}");
                (phi.to_vec(), field.to_vec())
            };
            let after = comm.stats();
            let counted = (
                after.p2p_sent_msgs - before.p2p_sent_msgs,
                after.p2p_sent_bytes - before.p2p_sent_bytes,
            );
            let bits = (
                phi.iter().map(|x| x.to_bits()).collect(),
                field.iter().map(|e| [0, 1, 2].map(|d| e[d].to_bits())).collect(),
            );
            (bits, cache.traffic.sent, counted)
        });
        out.results
    }

    /// `n` particles with charges in (-1, 1), uniform over the box's lower
    /// `fill` along x (the upper ranks of a split x axis hold nothing), and
    /// along each dimension one at every process-grid boundary and one ulp
    /// either side of it.
    fn particles(g: &mut Gen, dims: [usize; 3], fill: f64, n: usize) -> Vec<(Vec3, f64)> {
        let l = bbox().lengths;
        let point = |g: &mut Gen| {
            let x = Vec3::new(g.unit() * fill * l.x(), g.unit() * l.y(), g.unit() * l.z());
            (x, 2.0 * g.unit() - 1.0)
        };
        let mut out: Vec<(Vec3, f64)> = (0..n).map(|_| point(g)).collect();
        for d in 0..3 {
            for c in 0..dims[d] {
                let t = c as f64 / dims[d] as f64;
                for t in [t.next_down(), t, t.next_up()] {
                    if t >= 0.0 && (d > 0 || t < fill) {
                        let (mut x, q) = point(g);
                        x[d] = t * l[d];
                        out.push((x, q));
                    }
                }
            }
        }
        out
    }

    /// The index-free far field returns the oracle's bits — every potential
    /// and field component on every rank — and each rank sends exactly the
    /// closed-form bytes and messages per exchange, as its communicator
    /// counts them too. Worlds: p in {1, 2, 3, 5, 6, 8, 12, 27, 64} on the
    /// balanced process grid and on a line of p parts (n = 6, 12, 27, 64
    /// along x, more parts than mesh points at 64), two cases each: meshes
    /// 8, 16 and 32 (transform grids `[p, 1]` up to the mesh, wider ones with
    /// both extents above 1 and with more parts than mesh points beyond it),
    /// orders 1 to 6, full worlds and worlds whose upper half is empty.
    #[test]
    fn index_free_far_field_matches_the_oracle_bit_for_bit() {
        let mut g = Gen(0x00f2_1e1d_0ac1_e000);
        let mut case = 0usize;
        for p in [1usize, 2, 3, 5, 6, 8, 12, 27, 64] {
            let balanced = simcomm::balanced_dims(p, 3);
            let mut grids = vec![[balanced[0], balanced[1], balanced[2]]];
            if balanced[1] > 1 {
                grids.push([p, 1, 1]);
            }
            for dims in grids {
                for _ in 0..2 {
                    // Every (mesh, order) pair within the first 18 cases.
                    let (mesh, order) = ([8, 16, 32][case % 3], 1 + case / 3 % 6);
                    let fill = if (case / 2).is_multiple_of(2) { 1.0 } else { 0.5 };
                    let particles = particles(&mut g, dims, fill, 150);
                    let w = World { mesh, order, dims, particles };
                    let what = format!("p {p} dims {dims:?} mesh {mesh} order {order}");
                    let want = run_world(&w, true);
                    let got = run_world(&w, false);
                    for (me, ((bits, sent, counted), (oracle_bits, ..))) in
                        got.iter().zip(&want).enumerate()
                    {
                        assert_eq!(bits, oracle_bits, "{what} fill {fill}: rank {me} differs");
                        let want = closed_form(mesh, order, dims, me);
                        assert_eq!(*sent, want, "{what}: rank {me} traffic");
                        let total =
                            sent.iter().fold((0, 0), |t, s| (t.0 + s.messages, t.1 + s.bytes));
                        assert_eq!(*counted, total, "{what}: rank {me} counted traffic");
                    }
                    case += 1;
                }
            }
        }
    }
}
