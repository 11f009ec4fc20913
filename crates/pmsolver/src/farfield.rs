//! The Fourier-space (far-field) part of the particle-mesh Ewald solver:
//! B-spline charge assignment onto a global mesh, a slab-decomposed
//! distributed 3D FFT (from scratch), multiplication with the influence
//! function (Ewald Green's function with double B-spline deconvolution and
//! ik differentiation for the field), and back-interpolation to particles.
//!
//! Layouts:
//! * particles live on a 3D Cartesian process grid (the solver's domain
//!   decomposition);
//! * the mesh is redistributed into **x-slabs** for the first 2D transform,
//!   transposed into **y-slabs** for the transform along x, and the inverse
//!   path mirrors this — the transpose steps are the communication pattern
//!   of parallel FFT-based solvers (cf. the paper's P2NFFT).

use particles::{SystemBox, Vec3};
use simcomm::{push_segment, Comm, Work};

use crate::bspline::{bspline_hat, stencil};
use crate::fft::{fft_in_place, Complex, Direction};

/// How the mesh is distributed for the parallel FFT.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MeshDecomp {
    /// 1D slabs along x: simplest, but at `P > mesh` only `mesh` ranks carry
    /// transform work (the compute-imbalance limitation noted in DESIGN.md).
    #[default]
    Slab,
    /// 2D pencils: the `P` ranks form a `p1 x p2` grid owning `(x, y)`,
    /// `(x, z)` and `(y, z)` rectangles in the three transform stages — the
    /// decomposition the real P2NFFT uses, keeping all ranks busy up to
    /// `P = mesh^2`.
    Pencil,
}

/// One rank's wrapped mesh window — its particle-grid range expanded by the
/// assignment order per dimension, which holds every stencil point of every
/// particle in that range.
#[derive(Default)]
struct Window {
    /// Per dimension: the global mesh indices of the window, in window order.
    axis: [Vec<usize>; 3],
    /// Per dimension: global index → in-window offset (`u32::MAX` outside).
    maps: [Vec<u32>; 3],
}

impl Window {
    fn extents(&self) -> [usize; 3] {
        [self.axis[0].len(), self.axis[1].len(), self.axis[2].len()]
    }

    /// In-window offset of mesh point `(i, j, k)`.
    fn offset(&self, [i, j, k]: [usize; 3], what: &str) -> usize {
        let (ox, oy, oz) = (self.maps[0][i], self.maps[1][j], self.maps[2][k]);
        assert!(
            ox != u32::MAX && oy != u32::MAX && oz != u32::MAX,
            "mesh point ({i},{j},{k}) outside the {what} window"
        );
        let [_, ey, ez] = self.extents();
        (ox as usize * ey + oy as usize) * ez + oz as usize
    }
}

/// What the far field keeps across timesteps, per solver and rank: tables
/// that are pure functions of the plan geometry and the rank layout, and the
/// part of an execution's staging that it holds from its first collective to
/// its last anyway — the mesh in its transform layouts (DESIGN.md,
/// "Workspaces"). The solver keeps one per [`crate::PmSolver`] and threads it
/// through [`FarFieldPlan::execute_cached`]; it is rebuilt when the geometry
/// it was built for changes, and bitwise invisible to results and virtual
/// clocks.
///
/// Staging fields carry nothing from one execution to the next: each is
/// cleared, or resized and zeroed, by the stage that fills it.
#[derive(Default)]
pub struct FarFieldCache {
    /// (decomp, rank, world size, mesh) everything below was built for.
    key: Option<(MeshDecomp, usize, usize, usize)>,
    /// `(G_opt, k)` per locally owned spectral point — the Hockney-Eastwood
    /// influence function and the (Nyquist-zeroed) wave vector, in the
    /// traversal order of the owning decomposition; filled on first use.
    spec: Vec<(f64, Vec3)>,
    window: Window,
    /// The window's `(destination, x offset, y offset)` columns grouped by
    /// the rank that transforms them, each group in window order.
    charge_routes: Vec<(usize, u32, u32)>,
    /// B-spline weights per dimension.
    weights: [Vec<f64>; 3],
    /// The mesh in its three transform layouts, then the four spectra (and,
    /// on the way back, the four fields in each layout in turn).
    grids: [Vec<Complex>; 3],
    quad: [Vec<Complex>; 4],
    /// One strided FFT line.
    line: Vec<Complex>,
    segments: Vec<(usize, usize)>,
    sources: Vec<(usize, usize)>,
    /// The result of the last execution.
    phi: Vec<f64>,
    field: Vec<Vec3>,
}

/// Geometry/layout of the distributed mesh computation, with the routing
/// tables that follow from it. Built once ([`FarFieldPlan::new`]) and
/// executed every timestep.
#[derive(Clone, Debug)]
pub struct FarFieldPlan {
    /// Mesh points per dimension (power of two).
    mesh: usize,
    /// B-spline assignment order.
    assign_order: usize,
    /// Ewald splitting parameter.
    alpha: f64,
    /// Process grid extents.
    dims: [usize; 3],
    /// The system box.
    bbox: SystemBox,
    /// Mesh distribution for the parallel FFT.
    decomp: MeshDecomp,
    /// The patch routes, per dimension: `patches[d][c]` lists, ascending, the
    /// mesh indices in the interpolation patch of grid coordinate `c` (its
    /// interior range expanded by the assignment order, wrapped). A mesh
    /// point goes to the ranks whose three patches hold its three indices.
    /// A function of mesh, assignment order and process grid only.
    patches: [Vec<Vec<usize>>; 3],
}

/// The part of `0..m` split into `parts` floor ranges that holds index `i`.
fn part_owner(i: usize, m: usize, parts: usize) -> usize {
    ((i + 1) * parts - 1) / m
}

/// Floor range `[lo, hi)` of part `c` of `0..m` split into `parts`.
fn part_range(c: usize, m: usize, parts: usize) -> (usize, usize) {
    (c * m / parts, (c + 1) * m / parts)
}

/// The non-empty parts of `0..m` split into `parts` floor ranges, as
/// `(part, lo, hi)` ascending: at most `m` of them, however many `parts`.
fn nonempty_parts(m: usize, parts: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut lo = 0;
    std::iter::from_fn(move || {
        (lo < m).then(|| {
            let c = part_owner(lo, m, parts);
            let out = (c, lo, part_range(c, m, parts).1);
            lo = out.2;
            out
        })
    })
}

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

/// `v` as `n` zeros.
fn zeroed<T: Clone>(v: &mut Vec<T>, n: usize, zero: T) {
    v.clear();
    v.resize(n, zero);
}

/// The four spectra of one mesh point as they travel.
fn octet(quad: &[Vec<Complex>; 4], o: usize) -> [f64; 8] {
    let [a, b, c, d] = [quad[0][o], quad[1][o], quad[2][o], quad[3][o]];
    [a.re, a.im, b.re, b.im, c.re, c.im, d.re, d.im]
}

/// [`octet`] back into the four arrays.
fn set_octet(quad: &mut [Vec<Complex>; 4], o: usize, v: &[f64; 8]) {
    for (c, arr) in quad.iter_mut().enumerate() {
        arr[o] = Complex::new(v[2 * c], v[2 * c + 1]);
    }
}

impl FarFieldPlan {
    /// A plan for a `mesh`³ grid with B-spline order `assign_order` and
    /// splitting parameter `alpha`, over particles decomposed on the process
    /// grid `dims` of the periodic box `bbox`.
    pub fn new(
        mesh: usize,
        assign_order: usize,
        alpha: f64,
        dims: [usize; 3],
        bbox: SystemBox,
        decomp: MeshDecomp,
    ) -> FarFieldPlan {
        let patches = std::array::from_fn(|d| {
            (0..dims[d])
                .map(|c| {
                    let (lo, hi) = part_range(c, mesh, dims[d]);
                    if lo == hi {
                        return Vec::new();
                    }
                    let reach = -(assign_order as i64)..(hi - lo) as i64 + assign_order as i64;
                    let mut patch: Vec<usize> = reach
                        .map(|off| (lo as i64 + off).rem_euclid(mesh as i64) as usize)
                        .collect();
                    patch.sort_unstable();
                    patch.dedup();
                    patch
                })
                .collect()
        });
        FarFieldPlan { mesh, assign_order, alpha, dims, bbox, decomp, patches }
    }

    /// Index range `[lo, hi)` of grid coordinate `c` along dimension `d`.
    fn dim_range(&self, d: usize, c: usize) -> (usize, usize) {
        part_range(c, self.mesh, self.dims[d])
    }

    /// Rank owning the grid cell with coordinates `c` (row-major).
    fn grid_rank(&self, c: [usize; 3]) -> usize {
        c[0] * self.dims[1] * self.dims[2] + c[1] * self.dims[2] + c[2]
    }

    #[inline]
    fn pack(&self, i: usize, j: usize, k: usize) -> u64 {
        ((i * self.mesh + j) * self.mesh + k) as u64
    }

    #[inline]
    fn unpack(&self, p: u64) -> [usize; 3] {
        let m = self.mesh as u64;
        [(p / (m * m)) as usize, ((p / m) % m) as usize, (p % m) as usize]
    }

    /// Signed integer frequency of mesh index `i`.
    #[inline]
    fn freq(&self, i: usize) -> i64 {
        if i <= self.mesh / 2 {
            i as i64
        } else {
            i as i64 - self.mesh as i64
        }
    }

    /// The Hockney-Eastwood *optimal* influence function at integer
    /// frequencies `(mx, my, mz)`:
    ///
    /// `G_opt(k) = sum_s W_hat(k_s)^2 G_true(k_s) / (sum_s W_hat(k_s)^2)^2`
    ///
    /// where `k_s` runs over the first aliasing images (`s` in `{-1,0,1}^3`)
    /// and `G_true(k) = 4 pi exp(-k^2/4 alpha^2) / (k^2 V)`. Compared to the
    /// plain double deconvolution, this suppresses the B-spline aliasing
    /// error near the Nyquist frequency by orders of magnitude. Zero at k=0.
    fn influence(&self, mx: i64, my: i64, mz: i64) -> f64 {
        if mx == 0 && my == 0 && mz == 0 {
            return 0.0;
        }
        let l = self.bbox.lengths;
        let two_pi = 2.0 * std::f64::consts::PI;
        let v = self.bbox.volume();
        let m = self.mesh as i64;
        let mut num = 0.0;
        let mut den = 0.0;
        for sx in -1..=1i64 {
            for sy in -1..=1i64 {
                for sz in -1..=1i64 {
                    let ax = mx + sx * m;
                    let ay = my + sy * m;
                    let az = mz + sz * m;
                    let w = bspline_hat(self.assign_order, ax, self.mesh)
                        * bspline_hat(self.assign_order, ay, self.mesh)
                        * bspline_hat(self.assign_order, az, self.mesh);
                    let w2 = w * w;
                    den += w2;
                    let kx = two_pi * ax as f64 / l.x();
                    let ky = two_pi * ay as f64 / l.y();
                    let kz = two_pi * az as f64 / l.z();
                    let k2 = kx * kx + ky * ky + kz * kz;
                    if k2 > 0.0 {
                        let g = 4.0
                            * std::f64::consts::PI
                            * (-k2 / (4.0 * self.alpha * self.alpha)).exp()
                            / (k2 * v);
                        num += w2 * g;
                    }
                }
            }
        }
        num / (den * den)
    }

    /// Physical wave vector of integer frequencies, with the Nyquist
    /// component zeroed for differentiation (keeps the ik-differentiated
    /// field real).
    fn kvec(&self, mx: i64, my: i64, mz: i64) -> Vec3 {
        let l = self.bbox.lengths;
        let two_pi = 2.0 * std::f64::consts::PI;
        let ny = (self.mesh / 2) as i64;
        let f = |m: i64, len: f64| if m == ny || m == -ny { 0.0 } else { two_pi * m as f64 / len };
        Vec3::new(f(mx, l.x()), f(my, l.y()), f(mz, l.z()))
    }
    /// Compute potentials and fields at the owned particle positions.
    ///
    /// Collective: all ranks must call it with their local particles.
    pub fn execute(&self, comm: &mut Comm, pos: &[Vec3], charge: &[f64]) -> (Vec<f64>, Vec<Vec3>) {
        self.execute_cached(comm, pos, charge, &mut FarFieldCache::default())
    }

    /// [`Self::execute`] with a caller-held [`FarFieldCache`]: the spectral
    /// tables and the workspace of the previous execution. The cache is
    /// validated against the plan geometry and rank layout and rebuilt on
    /// mismatch, so passing a stale cache is safe; a hit skips the per-point
    /// Hockney-Eastwood influence evaluation (27 aliasing images with three
    /// `bspline_hat` calls each), which dominates the host cost of small
    /// meshes, and allocates nothing but the result. Results are bitwise
    /// identical with or without a cache — the tables store the exact values
    /// the fresh evaluation produces, the workspace is zeroed where a fresh
    /// one would be, and the modelled (virtual) compute cost is charged
    /// identically either way.
    pub fn execute_cached(
        &self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        cache: &mut FarFieldCache,
    ) -> (Vec<f64>, Vec<Vec3>) {
        let (phi, field) = self.execute_into(comm, pos, charge, cache);
        (phi.to_vec(), field.to_vec())
    }

    /// [`Self::execute_cached`] with the result left in the cache.
    pub(crate) fn execute_into<'c>(
        &self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        cache: &'c mut FarFieldCache,
    ) -> (&'c [f64], &'c [Vec3]) {
        let key = Some((self.decomp, comm.rank(), comm.size(), self.mesh));
        if cache.key != key {
            *cache = FarFieldCache { key, ..FarFieldCache::default() };
            self.build_window(comm.rank(), &mut cache.window);
            cache.weights = std::array::from_fn(|_| vec![0.0; self.assign_order]);
            cache.line = vec![Complex::ZERO; self.mesh];
        }
        match self.decomp {
            MeshDecomp::Slab => self.execute_slab(comm, pos, charge, cache),
            MeshDecomp::Pencil => self.execute_pencil(comm, pos, charge, cache),
        }
        (&cache.phi, &cache.field)
    }

    /// Rank `me`'s [`Window`].
    fn build_window(&self, me: usize, window: &mut Window) {
        let m = self.mesh;
        let my_c = [
            me / (self.dims[1] * self.dims[2]),
            (me / self.dims[2]) % self.dims[1],
            me % self.dims[2],
        ];
        for (d, &c) in my_c.iter().enumerate() {
            let (lo, hi) = self.dim_range(d, c);
            let ext = ((hi - lo) + 2 * self.assign_order).min(m);
            let w0 = (lo as i64 - self.assign_order as i64).rem_euclid(m as i64) as usize;
            window.axis[d] = (0..ext).map(|off| (w0 + off) % m).collect();
            window.maps[d] = vec![u32::MAX; m];
            for (off, &i) in window.axis[d].iter().enumerate() {
                window.maps[d][i] = off as u32;
            }
        }
    }

    /// B-spline charge assignment and its routing: the local particles'
    /// contributions are summed per mesh point, in particle order, over the
    /// dense [`Window`]; every touched point (zero sums included) then goes,
    /// as `(packed index, sum)`, to the rank `owner` names for its `(x, y)`
    /// column. Returns what this rank received.
    fn assign_and_route_charges(
        &self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        cache: &mut FarFieldCache,
        owner: impl Fn(usize, usize) -> usize,
    ) -> Vec<(u64, f64)> {
        let m = self.mesh;
        let order = self.assign_order;
        let FarFieldCache { window, charge_routes, weights, segments, sources, .. } = cache;
        let [ex, ey, ez] = window.extents();
        if charge_routes.len() != ex * ey {
            charge_routes.clear();
            for (ox, &i) in window.axis[0].iter().enumerate() {
                let columns = window.axis[1].iter().enumerate();
                charge_routes.extend(columns.map(|(oy, &j)| (owner(i, j), ox as u32, oy as u32)));
            }
            charge_routes.sort_unstable();
        }
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
            let (i, j) = (window.axis[0][ox as usize], window.axis[1][oy as usize]);
            let column = (ox as usize * ey + oy as usize) * ez;
            let before = send.len();
            for (oz, &k) in window.axis[2].iter().enumerate() {
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
    fn distribute_and_interpolate(
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
        let FarFieldCache { window, quad, weights, phi, field, segments, sources, .. } = cache;
        // Per dimension and destination coordinate: the owned indices its
        // patch holds, ascending.
        let held = |d: usize, c: usize| {
            let (lo, hi) = owned[d];
            self.patches[d][c].iter().copied().filter(move |&i| lo <= i && i < hi)
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

    /// Multiply the transformed mesh `hat` by the influence function into the
    /// four spectra: phi-hat and the ik-differentiated field-hat.
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

    /// Slab-decomposed execution (1D decomposition along x).
    fn execute_slab(
        &self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        cache: &mut FarFieldCache,
    ) {
        let p = comm.size();
        let me = comm.rank();
        let m = self.mesh;
        // x-slab of this rank — and, after the transpose, its y-slab.
        let (s0, s1) = part_range(me, m, p);
        let sn = s1 - s0;
        // ---- Route contributions to x-slab owners and densify ----
        let charges =
            self.assign_and_route_charges(comm, pos, charge, cache, |i, _| part_owner(i, m, p));
        let FarFieldCache { spec, grids: [slab, yslab, _], quad, line, segments, sources, .. } =
            cache;
        // Slab layout: data[(x - s0) * m * m + y * m + z].
        zeroed(slab, sn * m * m, Complex::ZERO);
        for (idx, val) in charges {
            let [i, j, k] = self.unpack(idx);
            debug_assert!((s0..s1).contains(&i));
            slab[((i - s0) * m + j) * m + k].re += val;
        }
        comm.compute(Work::MeshPoint, (sn * m * m) as f64);

        // ---- Forward 2D FFT (y, z) per x-plane ----
        let mut fft_ops = 0u64;
        for plane in slab.chunks_exact_mut(m * m) {
            fft_ops += fft_2d(plane, m, Direction::Forward, line);
        }

        // ---- Transpose to y-slabs ----
        let mut send = Vec::with_capacity(sn * m * m);
        segments.clear();
        for (dst, y0, y1) in nonempty_parts(m, p) {
            let points =
                (0..sn).flat_map(|xi| (y0..y1).flat_map(move |y| (0..m).map(move |z| (xi, y, z))));
            let records = points.map(|(xi, y, z)| {
                let c = slab[(xi * m + y) * m + z];
                (self.pack(s0 + xi, y, z), [c.re, c.im])
            });
            pack(&mut send, segments, dst, records);
        }
        let mut received = Vec::new();
        comm.alltoallv_flat(send, segments, &mut received, sources);
        // y-slab layout: data[(y - s0) * m * m + x * m + z].
        zeroed(yslab, sn * m * m, Complex::ZERO);
        for (idx, [re, im]) in received {
            let [x, y, z] = self.unpack(idx);
            debug_assert!((s0..s1).contains(&y));
            yslab[((y - s0) * m + x) * m + z] = Complex::new(re, im);
        }
        // ---- FFT along x (strided within the y-slab) ----
        fft_ops += fft_axis_x(yslab, sn, m, Direction::Forward, line);

        // ---- Influence function; produce phi-hat and ik-field-hat ----
        if spec.len() != sn * m * m {
            spec.clear();
            for yi in 0..sn {
                let myf = self.freq(s0 + yi);
                for x in 0..m {
                    let mxf = self.freq(x);
                    for z in 0..m {
                        let mzf = self.freq(z);
                        spec.push((self.influence(mxf, myf, mzf), self.kvec(mxf, myf, mzf)));
                    }
                }
            }
        }
        Self::apply_influence(spec, yslab, quad);
        comm.compute(Work::MeshPoint, (sn * m * m) as f64 * 4.0);

        // ---- Inverse FFT along x for the four spectra ----
        for arr in quad.iter_mut() {
            fft_ops += fft_axis_x(arr, sn, m, Direction::Inverse, line);
        }

        // ---- Transpose back to x-slabs (four values per point) ----
        let mut send = Vec::with_capacity(sn * m * m);
        segments.clear();
        for (dst, x0, x1) in nonempty_parts(m, p) {
            let points =
                (0..sn).flat_map(|yi| (x0..x1).flat_map(move |x| (0..m).map(move |z| (yi, x, z))));
            let records = points
                .map(|(yi, x, z)| (self.pack(x, s0 + yi, z), octet(quad, (yi * m + x) * m + z)));
            pack(&mut send, segments, dst, records);
        }
        let mut received = Vec::new();
        comm.alltoallv_flat(send, segments, &mut received, sources);
        for arr in quad.iter_mut() {
            zeroed(arr, sn * m * m, Complex::ZERO);
        }
        for (idx, v) in received {
            let [x, y, z] = self.unpack(idx);
            set_octet(quad, ((x - s0) * m + y) * m + z, &v);
        }
        // ---- Inverse 2D FFT (y, z) per x-plane ----
        for arr in quad.iter_mut() {
            for plane in arr.chunks_exact_mut(m * m) {
                fft_ops += fft_2d(plane, m, Direction::Inverse, line);
            }
        }
        comm.compute(Work::FftPoint, fft_ops as f64);

        // ---- Patch distribution + interpolation ----
        let value = move |quad: &[Vec<Complex>; 4], [i, j, k]: [usize; 3]| {
            let o = ((i - s0) * m + j) * m + k;
            [quad[0][o].re, quad[1][o].re, quad[2][o].re, quad[3][o].re]
        };
        self.distribute_and_interpolate(comm, cache, [(s0, s1), (0, m), (0, m)], value, pos, charge)
    }

    /// Pencil-decomposed execution (2D decomposition): the `P` ranks form a
    /// `p1 x p2` grid; the three transform stages own z-, y- and x-pencils
    /// respectively, so every rank carries transform work up to `P = mesh^2`.
    fn execute_pencil(
        &self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        cache: &mut FarFieldCache,
    ) {
        let p = comm.size();
        let me = comm.rank();
        let m = self.mesh;
        let grid = simcomm::balanced_dims(p, 2);
        let (p1, p2) = (grid[0], grid[1]);
        let (a_me, b_me) = (me / p2, me % p2);
        let rank_of = |a: usize, b: usize| a * p2 + b;

        // ---- Stage A: z-pencils (x in XA[a], y in YB[b], full z) ----
        let (ax0, ax1) = part_range(a_me, m, p1);
        let (ay0, ay1) = part_range(b_me, m, p2);
        let (anx, any) = (ax1 - ax0, ay1 - ay0);
        let charges = self.assign_and_route_charges(comm, pos, charge, cache, |i, j| {
            rank_of(part_owner(i, m, p1), part_owner(j, m, p2))
        });
        let FarFieldCache { spec, grids: [zp, yp, xp], quad, segments, sources, .. } = cache;
        // Layout: zp[((xi * any) + yj) * m + z], z contiguous.
        zeroed(zp, anx * any * m, Complex::ZERO);
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
        zeroed(yp, anx * bnz * m, Complex::ZERO);
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
        zeroed(xp, cny * bnz * m, Complex::ZERO);
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
        if spec.len() != n_local {
            spec.clear();
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
        }
        Self::apply_influence(spec, xp, quad);
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
        self.distribute_and_interpolate(comm, cache, owned, value, pos, charge)
    }
}

/// 2D FFT of an `m x m` plane stored row-major (rows along the second index);
/// `col` is an `m`-long scratch line.
fn fft_2d(plane: &mut [Complex], m: usize, dir: Direction, col: &mut [Complex]) -> u64 {
    debug_assert_eq!(plane.len(), m * m);
    let mut ops = 0;
    // Rows (contiguous).
    for row in plane.chunks_exact_mut(m) {
        ops += fft_in_place(row, dir);
    }
    // Columns (strided): gather/scatter through the scratch line.
    for c in 0..m {
        for r in 0..m {
            col[r] = plane[r * m + c];
        }
        ops += fft_in_place(col, dir);
        for r in 0..m {
            plane[r * m + c] = col[r];
        }
    }
    ops
}

/// FFT along the x axis of a y-slab array laid out as
/// `data[(y_local * m + x) * m + z]`; `line` is an `m`-long scratch line.
fn fft_axis_x(
    data: &mut [Complex],
    sy: usize,
    m: usize,
    dir: Direction,
    line: &mut [Complex],
) -> u64 {
    let mut ops = 0;
    for yi in 0..sy {
        for z in 0..m {
            for x in 0..m {
                line[x] = data[(yi * m + x) * m + z];
            }
            ops += fft_in_place(line, dir);
            for x in 0..m {
                data[(yi * m + x) * m + z] = line[x];
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use particles::reference::{ewald, EwaldParams};
    use particles::IonicCrystal;
    use simcomm::{run, MachineModel};

    #[test]
    fn floor_ranges_partition_the_mesh() {
        // Process-grid extents, slab counts below and above the mesh, pencil
        // grid extents: every index has exactly one owner, found directly,
        // and the non-empty parts are listed in order without visiting the
        // empty ones.
        for m in [8usize, 16, 32] {
            for parts in [1usize, 2, 3, 5, 16, 40, 130] {
                let mut covered = 0;
                let mut listed = nonempty_parts(m, parts);
                for c in 0..parts {
                    let (lo, hi) = part_range(c, m, parts);
                    assert_eq!(lo, covered, "m={m} parts={parts}");
                    covered = hi;
                    for i in lo..hi {
                        assert_eq!(part_owner(i, m, parts), c, "m={m} parts={parts}");
                    }
                    if lo < hi {
                        assert_eq!(listed.next(), Some((c, lo, hi)));
                    }
                }
                assert_eq!(covered, m);
                assert_eq!(listed.next(), None);
            }
        }
    }

    #[test]
    fn patches_are_the_windows_sorted() {
        let plan =
            FarFieldPlan::new(16, 3, 1.0, [3, 2, 5], SystemBox::cubic(8.0), MeshDecomp::default());
        for me in 0..30 {
            let mut window = Window::default();
            plan.build_window(me, &mut window);
            let c = [me / 10, me / 5 % 2, me % 5];
            for (d, &coordinate) in c.iter().enumerate() {
                let mut axis = window.axis[d].clone();
                axis.sort_unstable();
                assert_eq!(axis, plan.patches[d][coordinate], "rank {me} dimension {d}");
            }
        }
    }

    #[test]
    fn influence_zero_at_origin_and_positive() {
        let plan =
            FarFieldPlan::new(32, 3, 1.2, [2, 2, 2], SystemBox::cubic(8.0), MeshDecomp::default());
        assert_eq!(plan.influence(0, 0, 0), 0.0);
        assert!(plan.influence(1, 0, 0) > 0.0);
        assert!(plan.influence(1, 2, 3) > 0.0);
        // Decays for large k.
        assert!(plan.influence(14, 14, 14) < plan.influence(1, 1, 1));
    }

    #[test]
    fn pencil_matches_slab() {
        // Identical physics from both decompositions, at several process
        // counts including P > mesh extents along one axis.
        let c = IonicCrystal::cubic(4, 1.0, 0.17, 12);
        let bbox = c.system_box();
        let n = c.n();
        let alpha = 6.0 / bbox.lengths.x();
        let mut pos_all = Vec::new();
        let mut charge_all = Vec::new();
        for i in 0..n as u64 {
            let (x, q) = c.particle(i);
            pos_all.push(x);
            charge_all.push(q);
        }
        for p in [1usize, 4, 6, 9] {
            let dims = {
                let d = simcomm::balanced_dims(p, 3);
                [d[0], d[1], d[2]]
            };
            let pos_all = pos_all.clone();
            let charge_all = charge_all.clone();
            let out = run(p, MachineModel::ideal(), move |comm| {
                let me = comm.rank();
                let mut pos = Vec::new();
                let mut charge = Vec::new();
                for (x, q) in pos_all.iter().zip(&charge_all) {
                    if particles::grid_rank_of(dims, &bbox, *x) == me {
                        pos.push(*x);
                        charge.push(*q);
                    }
                }
                let mut plan = FarFieldPlan::new(8, 3, alpha, dims, bbox, MeshDecomp::Slab);
                let (phi_s, field_s) = plan.execute(comm, &pos, &charge);
                plan.decomp = MeshDecomp::Pencil;
                let (phi_p, field_p) = plan.execute(comm, &pos, &charge);
                (phi_s, field_s, phi_p, field_p)
            });
            for (phi_s, field_s, phi_p, field_p) in &out.results {
                for (a, b) in phi_s.iter().zip(phi_p) {
                    assert!((a - b).abs() < 1e-10 * a.abs().max(1.0), "p={p}: {a} vs {b}");
                }
                for (a, b) in field_s.iter().zip(field_p) {
                    assert!((*a - *b).norm() < 1e-10, "p={p}");
                }
            }
        }
    }

    #[test]
    fn one_cache_serves_plans_of_another_mesh_and_decomposition() {
        // A cache that has served one plan is rebuilt, not reused, for a plan
        // of another geometry: every execution returns the bits a fresh cache
        // gives.
        let c = IonicCrystal::cubic(4, 1.0, 0.17, 3);
        let bbox = c.system_box();
        let dims = [2, 2, 1];
        run(4, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let owned = (0..c.n() as u64)
                .map(|i| c.particle(i))
                .filter(|(x, _)| particles::grid_rank_of(dims, &bbox, *x) == me);
            let (pos, charge): (Vec<Vec3>, Vec<f64>) = owned.unzip();
            let mut cache = FarFieldCache::default();
            for (mesh, decomp, n) in [
                (8, MeshDecomp::Slab, pos.len()),
                (16, MeshDecomp::Slab, pos.len() / 2),
                (16, MeshDecomp::Pencil, pos.len()),
                (8, MeshDecomp::Slab, 0),
                (8, MeshDecomp::Slab, pos.len()),
            ] {
                let plan = FarFieldPlan::new(mesh, 3, 6.0 / bbox.lengths.x(), dims, bbox, decomp);
                let got = plan.execute_cached(comm, &pos[..n], &charge[..n], &mut cache);
                let want = plan.execute(comm, &pos[..n], &charge[..n]);
                let bits = |(phi, field): &(Vec<f64>, Vec<Vec3>)| {
                    let phi: Vec<u64> = phi.iter().map(|x| x.to_bits()).collect();
                    (phi, format!("{field:?}"))
                };
                assert_eq!(bits(&got), bits(&want), "mesh {mesh} {decomp:?} n {n} rank {me}");
            }
        });
    }

    #[test]
    fn pencil_spreads_fft_work_beyond_mesh_ranks() {
        // With P > mesh, the slab decomposition idles most ranks during the
        // transforms while pencils keep them busy; compare per-rank modelled
        // compute spread (max/mean of compute_seconds).
        let c = IonicCrystal::cubic(4, 1.0, 0.1, 5);
        let bbox = c.system_box();
        let n = c.n();
        let p = 16; // mesh = 8 < P
        let imbalance = |decomp: MeshDecomp| -> f64 {
            let c = c.clone();
            let out = run(p, MachineModel::juqueen_like(), move |comm| {
                let dims = {
                    let d = simcomm::balanced_dims(p, 3);
                    [d[0], d[1], d[2]]
                };
                let me = comm.rank();
                let mut pos = Vec::new();
                let mut charge = Vec::new();
                for i in 0..n as u64 {
                    let (x, q) = c.particle(i);
                    if particles::grid_rank_of(dims, &bbox, x) == me {
                        pos.push(x);
                        charge.push(q);
                    }
                }
                let plan = FarFieldPlan::new(8, 3, 6.0 / bbox.lengths.x(), dims, bbox, decomp);
                let _ = plan.execute(comm, &pos, &charge);
                comm.stats().compute_seconds
            });
            let max = out.results.iter().cloned().fold(0.0, f64::max);
            let mean = out.results.iter().sum::<f64>() / p as f64;
            max / mean
        };
        let slab = imbalance(MeshDecomp::Slab);
        let pencil = imbalance(MeshDecomp::Pencil);
        assert!(
            pencil < slab,
            "pencils must balance better than slabs at P > mesh: {pencil} vs {slab}"
        );
    }

    /// Far field + analytic real-space remainder must reproduce Ewald.
    #[test]
    fn far_field_matches_ewald_k_space() {
        // Single rank: compare the mesh far field against the exact
        // reciprocal-space Ewald sum (plus self term) for a small crystal.
        let c = IonicCrystal::cubic(4, 1.0, 0.13, 21);
        let bbox = c.system_box();
        let n = c.n();
        let mut pos = Vec::new();
        let mut charge = Vec::new();
        for i in 0..n as u64 {
            let (x, q) = c.particle(i);
            pos.push(x);
            charge.push(q);
        }
        let l = bbox.lengths.x();
        let alpha = 7.0 / l;
        // Reference: Ewald with a negligible real-space part is exactly the
        // k-space + self contribution.
        let want = ewald(&pos, &charge, &bbox, EwaldParams { alpha, rcut: 1e-9, kmax: 14 });
        let plan = FarFieldPlan::new(64, 4, alpha, [1, 1, 1], bbox, MeshDecomp::default());
        let out = run(1, MachineModel::ideal(), |comm| plan.execute(comm, &pos, &charge));
        let (phi, field) = &out.results[0];
        let scale =
            (want.potential.iter().map(|x| x * x).sum::<f64>() / n as f64).sqrt().max(1e-12);
        for i in 0..n {
            assert!(
                (phi[i] - want.potential[i]).abs() < 2e-3 * scale.max(want.potential[i].abs()),
                "i={i}: {a} vs {b}",
                a = phi[i],
                b = want.potential[i]
            );
            assert!(
                (field[i] - want.field[i]).norm() < 5e-3 * scale,
                "field i={i}: {a:?} vs {b:?}",
                a = field[i],
                b = want.field[i]
            );
        }
    }

    #[test]
    fn far_field_independent_of_process_count() {
        let c = IonicCrystal::cubic(4, 1.0, 0.2, 8);
        let bbox = c.system_box();
        let n = c.n();
        let alpha = 6.0 / bbox.lengths.x();
        let mut pos_all = Vec::new();
        let mut charge_all = Vec::new();
        for i in 0..n as u64 {
            let (x, q) = c.particle(i);
            pos_all.push(x);
            charge_all.push(q);
        }
        // Serial reference.
        let plan1 = FarFieldPlan::new(32, 3, alpha, [1, 1, 1], bbox, MeshDecomp::default());
        let serial =
            run(1, MachineModel::ideal(), |comm| plan1.execute(comm, &pos_all, &charge_all));
        let (phi_ref, _) = &serial.results[0];

        // Parallel: grid distribution over 8 ranks.
        let dims = [2, 2, 2];
        let out = run(8, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let mut pos = Vec::new();
            let mut charge = Vec::new();
            let mut ids = Vec::new();
            for i in 0..n as u64 {
                let (x, q) = c.particle(i);
                if particles::grid_rank_of(dims, &bbox, x) == me {
                    pos.push(x);
                    charge.push(q);
                    ids.push(i);
                }
            }
            let plan = FarFieldPlan::new(32, 3, alpha, dims, bbox, MeshDecomp::default());
            let (phi, _) = plan.execute(comm, &pos, &charge);
            (ids, phi)
        });
        for (ids, phi) in &out.results {
            for (id, ph) in ids.iter().zip(phi) {
                let want = phi_ref[*id as usize];
                assert!((ph - want).abs() < 1e-9 * want.abs().max(1.0), "id {id}: {ph} vs {want}");
            }
        }
    }
}
