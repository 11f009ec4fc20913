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
//!
//! Every exchange is index-free: which mesh points travel from one rank to
//! another, and in which order, is a function of the plan alone, which the
//! sender walks to fill its records and the receiver walks to place them
//! (DESIGN.md, "P2NFFT far-field routes").

use std::ops::Range;

use particles::{SystemBox, Vec3};
use simcomm::{push_segment, Comm, Work};

use crate::bspline::{bspline_hat, stencil};
use crate::fft::{fft_in_place, Complex, Direction};

#[cfg(test)]
mod oracle;

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

/// A wrapped run of mesh indices along one dimension: `len` points from
/// `first` on, modulo the mesh extent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Span {
    first: usize,
    len: usize,
}

impl Span {
    /// The indices in run order, on a mesh of `m` points.
    fn iter(self, m: usize) -> impl Iterator<Item = usize> + Clone {
        (self.first..self.first + self.len).map(move |i| if i < m { i } else { i - m })
    }
}

/// The points an order-`order` stencil reaches from the particles the process
/// grid places in part `c` of `n` along a dimension of `m` mesh points (`m` a
/// power of two): `[⌊c·m/n⌋ − h, ⌈(c+1)·m/n⌉ + h]` with
/// `h = ⌊(order − 1)/2⌋`, wrapped and capped at `m` points (DESIGN.md,
/// "P2NFFT far-field routes", has the proof).
fn reach(c: usize, n: usize, m: usize, order: usize) -> Span {
    let h = (order - 1) / 2;
    let (lo, hi) = (c * m / n, ((c + 1) * m).div_ceil(n));
    let first = (lo as i64 - h as i64).rem_euclid(m as i64) as usize;
    Span { first, len: (hi - lo + 2 * h + 1).min(m) }
}

/// One rank's wrapped mesh window — its [`FarFieldPlan`] patch along each
/// dimension, which holds every stencil point of every particle in its
/// process-grid cell.
#[derive(Default)]
struct Window {
    /// Per dimension: the window's run of global mesh indices.
    spans: [Span; 3],
    /// Per dimension: global index → in-window offset (`u32::MAX` outside).
    maps: [Vec<u32>; 3],
}

impl Window {
    fn extents(&self) -> [usize; 3] {
        self.spans.map(|s| s.len)
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

/// Where one stage of the distributed transform keeps the mesh. The slab
/// path uses the first two, the pencil path the last three.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    /// x-slabs stored `(x, y, z)`: the slab path's assignment, 2D transforms
    /// and interpolation.
    XSlab,
    /// y-slabs stored `(y, x, z)`: the slab path's transform along x.
    YSlab,
    /// z-pencils (x in `XA[a]`, y in `YB[b]`) stored `(x, y, z)`: the pencil
    /// path's assignment, transform along z and interpolation.
    ZPencil,
    /// y-pencils (x in `XA[a]`, z in `ZB[b]`) stored `(x, z, y)`.
    YPencil,
    /// x-pencils (y in `YA[a]`, z in `ZB[b]`) stored `(y, z, x)`.
    XPencil,
}

impl Layout {
    /// The dimensions of a local array, outermost first; the last is
    /// contiguous.
    fn nest(self) -> [usize; 3] {
        match self {
            Layout::XSlab | Layout::ZPencil => [0, 1, 2],
            Layout::YSlab => [1, 0, 2],
            Layout::YPencil => [0, 2, 1],
            Layout::XPencil => [1, 2, 0],
        }
    }
}

/// One rank's box of the mesh in one layout, as its local array stores it:
/// origin and extents in nesting order.
#[derive(Clone, Copy, Debug)]
struct Local {
    lo: [usize; 3],
    ext: [usize; 3],
    nest: [usize; 3],
}

impl Local {
    fn len(&self) -> usize {
        self.ext.iter().product()
    }

    /// Offset of mesh point `at` in the local array.
    fn offset(&self, at: [usize; 3]) -> usize {
        let [u, v, w] = [0, 1, 2].map(|s| at[self.nest[s]] - self.lo[s]);
        debug_assert!(u < self.ext[0] && v < self.ext[1] && w < self.ext[2]);
        (u * self.ext[1] + v) * self.ext[2] + w
    }
}

/// How one execution spreads the mesh over its ranks: rank `r` sits at
/// `(a, b) = (r / grid[1], r % grid[1])` of a `grid[0] x grid[1]` grid —
/// `p x 1` for slabs. `XA[a]` and `YA[a]` are part `a` of `grid[0]`, `YB[b]`
/// and `ZB[b]` part `b` of `grid[1]`.
#[derive(Clone, Copy, Debug, Default)]
struct Distribution {
    m: usize,
    grid: [usize; 2],
}

impl Distribution {
    /// The mesh box `[lo, hi)` per dimension that `rank` holds in `layout`.
    fn held(&self, layout: Layout, rank: usize) -> [(usize, usize); 3] {
        let (m, [g0, g1]) = (self.m, self.grid);
        let (a, b) = (part_range(rank / g1, m, g0), part_range(rank % g1, m, g1));
        let full = (0, m);
        match layout {
            Layout::XSlab | Layout::ZPencil => [a, b, full],
            Layout::YSlab => [full, a, full],
            Layout::YPencil => [a, full, b],
            Layout::XPencil => [full, a, b],
        }
    }

    /// `rank`'s local array in `layout`.
    fn local(&self, layout: Layout, rank: usize) -> Local {
        let (held, nest) = (self.held(layout, rank), layout.nest());
        Local { lo: nest.map(|d| held[d].0), ext: nest.map(|d| held[d].1 - held[d].0), nest }
    }

    /// The ranks `rank` sends to when the mesh moves from `from` to `to`:
    /// those whose boxes differ from its own in the one grid coordinate the
    /// move changes, with non-empty parts along it.
    fn partners(&self, (from, to): (Layout, Layout), rank: usize) -> impl Iterator<Item = usize> {
        let [g0, g1] = self.grid;
        let (a, b) = (rank / g1, rank % g1);
        let along_b = matches!(
            (from, to),
            (Layout::ZPencil, Layout::YPencil) | (Layout::YPencil, Layout::ZPencil)
        );
        let parts = nonempty_parts(self.m, if along_b { g1 } else { g0 });
        parts.map(move |(c, _, _)| if along_b { a * g1 + c } else { c * g1 + b })
    }

    /// The mesh points `src` sends `dst` when the mesh moves from `from` to
    /// `to`, in the order they travel: the two boxes' intersection, walked in
    /// `from`'s nesting.
    fn route(
        &self,
        (from, to): (Layout, Layout),
        src: usize,
        dst: usize,
    ) -> impl Iterator<Item = [usize; 3]> {
        let (s, d) = (self.held(from, src), self.held(to, dst));
        walk(std::array::from_fn(|k| s[k].0.max(d[k].0)..s[k].1.min(d[k].1)), from.nest())
    }

    /// This rank's side of moving the mesh from one layout to the next: for
    /// every partner, the values `read` gives at the local offsets of its
    /// route. Returns what this rank received.
    fn send_moved<T: Copy + Send + 'static>(
        &self,
        comm: &mut Comm,
        traffic: &mut Traffic,
        kind: Exchange,
        moved: (Layout, Layout),
        read: impl Fn(usize) -> T,
    ) -> Vec<T> {
        let me = comm.rank();
        let mine = self.local(moved.0, me);
        let dests = self.partners(moved, me);
        let route = |dst| self.route(moved, me, dst);
        exchange(comm, traffic, kind, mine.len(), dests, route, |at| read(mine.offset(at)))
    }

    /// Place what [`Self::send_moved`] received: `write` gets each record
    /// with its offset in this rank's local array of the new layout, every
    /// point of which arrives exactly once.
    fn place_moved<T>(
        &self,
        me: usize,
        moved: (Layout, Layout),
        received: &[T],
        sources: &[(usize, usize)],
        mut write: impl FnMut(usize, &T),
    ) {
        let target = self.local(moved.1, me);
        assert_eq!(
            received.len(),
            target.len(),
            "every point of the {:?} box arrives once",
            moved.1
        );
        place(
            received,
            sources,
            |src| self.route(moved, src, me),
            |at, v| write(target.offset(at), v),
        );
    }
}

/// The points of `x × y × z`, `x` outermost.
fn product<I: Iterator<Item = usize> + Clone>(
    [x, y, z]: [I; 3],
) -> impl Iterator<Item = [usize; 3]> {
    x.flat_map(move |i| {
        let z = z.clone();
        y.clone().flat_map(move |j| z.clone().map(move |k| [i, j, k]))
    })
}

/// The points of the box `ranges`, dimension `nest[0]` outermost and
/// `nest[2]` innermost.
fn walk(ranges: [Range<usize>; 3], nest: [usize; 3]) -> impl Iterator<Item = [usize; 3]> {
    product(nest.map(|d| ranges[d].clone())).map(move |v| {
        let mut at = [0; 3];
        for (&d, x) in nest.iter().zip(v) {
            at[d] = x;
        }
        at
    })
}

/// The four exchanges of an execution, as [`FarFieldCache`] counts them.
#[derive(Clone, Copy, Debug)]
enum Exchange {
    /// Assigned charges to the ranks that transform them.
    Charges,
    /// The forward transposes (one on the slab path, two on the pencil path).
    Forward,
    /// The back transposes, four spectra per point.
    Back,
    /// Potential and field values to the interpolation patches.
    Patches,
}

/// What this rank sent in one kind of [`Exchange`] during an execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Sent {
    /// Non-empty segments, this rank's own included.
    messages: u64,
    bytes: u64,
}

/// The message bookkeeping of the exchanges: the last one's segments and
/// sources, and per [`Exchange`] what the last execution sent.
#[derive(Default)]
struct Traffic {
    segments: Vec<(usize, usize)>,
    sources: Vec<(usize, usize)>,
    sent: [Sent; 4],
}

/// One index-free exchange: for every `dst` of `dests`, the records `value`
/// gives the points of `route(dst)`, in route order, sent with
/// [`Comm::alltoallv_flat`] and counted under `kind`. Returns the records
/// received, segmented as `traffic.sources` says.
fn exchange<T: Copy + Send + 'static, I: Iterator<Item = [usize; 3]>>(
    comm: &mut Comm,
    traffic: &mut Traffic,
    kind: Exchange,
    capacity: usize,
    dests: impl Iterator<Item = usize>,
    route: impl Fn(usize) -> I,
    value: impl Fn([usize; 3]) -> T,
) -> Vec<T> {
    let Traffic { segments, sources, sent } = traffic;
    let mut send = Vec::with_capacity(capacity);
    segments.clear();
    for dst in dests {
        let before = send.len();
        send.extend(route(dst).map(&value));
        push_segment(segments, dst, send.len() - before);
    }
    let sent = &mut sent[kind as usize];
    sent.messages += segments.iter().filter(|&&(_, len)| len > 0).count() as u64;
    sent.bytes += std::mem::size_of_val(&send[..]) as u64;
    let mut received = Vec::new();
    comm.alltoallv_flat(send, segments, &mut received, sources);
    received
}

/// Pair the records an exchange delivered, source by source, with the points
/// of each source's route — `route(src)`, the sequence the sender walked to
/// fill them — and hand each to `put`.
fn place<T, I: Iterator<Item = [usize; 3]>>(
    received: &[T],
    sources: &[(usize, usize)],
    route: impl Fn(usize) -> I,
    mut put: impl FnMut([usize; 3], &T),
) {
    let mut rest = received;
    for &(src, len) in sources {
        let (segment, tail) = rest.split_at(len);
        rest = tail;
        let mut points = route(src);
        for v in segment {
            let more = || panic!("rank {src} sent {len} records, more than its route");
            put(points.next().unwrap_or_else(more), v);
        }
        assert!(points.next().is_none(), "rank {src} sent {len} records, fewer than its route");
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
    /// (decomp, rank, world size, mesh, assignment order, process grid)
    /// everything below was built for.
    key: Option<(MeshDecomp, usize, usize, usize, usize, [usize; 3])>,
    /// `(G_opt, k)` per locally owned spectral point — the Hockney-Eastwood
    /// influence function and the (Nyquist-zeroed) wave vector, in the
    /// traversal order of the owning decomposition; filled on first use.
    spec: Vec<(f64, Vec3)>,
    window: Window,
    /// The mesh's distribution over the ranks.
    dist: Distribution,
    /// B-spline weights per dimension.
    weights: [Vec<f64>; 3],
    /// The mesh in its three transform layouts, then the four spectra (and,
    /// on the way back, the four fields in each layout in turn).
    grids: [Vec<Complex>; 3],
    quad: [Vec<Complex>; 4],
    /// One strided FFT line.
    line: Vec<Complex>,
    traffic: Traffic,
    /// The result of the last execution.
    phi: Vec<f64>,
    field: Vec<Vec3>,
}

impl FarFieldCache {
    /// Bytes this rank sent in the four exchanges of the last execution.
    pub(crate) fn sent_bytes(&self) -> u64 {
        self.traffic.sent.iter().map(|s| s.bytes).sum()
    }
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
    /// Per dimension and grid coordinate: the interpolation patch, which is
    /// also the assignment window — the stencil's [`reach`] from that part of
    /// the process grid. A function of mesh, assignment order and process
    /// grid only.
    patches: [Vec<Span>; 3],
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
        // The FFT needs it, and the patches' reach rests on it.
        assert!(mesh.is_power_of_two(), "mesh must be a power of two");
        let patches = std::array::from_fn(|d| {
            (0..dims[d]).map(|c| reach(c, dims[d], mesh, assign_order)).collect()
        });
        FarFieldPlan { mesh, assign_order, alpha, dims, bbox, decomp, patches }
    }

    /// Rank owning the grid cell with coordinates `c` (row-major).
    fn grid_rank(&self, c: [usize; 3]) -> usize {
        c[0] * self.dims[1] * self.dims[2] + c[1] * self.dims[2] + c[2]
    }

    /// The window of the rank at process-grid position `rank`.
    fn spans(&self, rank: usize) -> [Span; 3] {
        let c = [
            rank / (self.dims[1] * self.dims[2]),
            (rank / self.dims[2]) % self.dims[1],
            rank % self.dims[2],
        ];
        std::array::from_fn(|d| self.patches[d][c[d]])
    }

    /// The points of the window `spans` inside the box `held`, in window
    /// order (x outermost): the charges a window's rank sends the box's rank,
    /// and the values the box's rank sends back for interpolation.
    fn window_points(
        &self,
        spans: [Span; 3],
        held: [(usize, usize); 3],
    ) -> impl Iterator<Item = [usize; 3]> {
        let m = self.mesh;
        product(std::array::from_fn(|d| {
            let (lo, hi) = held[d];
            spans[d].iter(m).filter(move |i| (lo..hi).contains(i))
        }))
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
        self.prepare(comm, cache);
        match self.decomp {
            MeshDecomp::Slab => self.execute_slab(comm, pos, charge, cache),
            MeshDecomp::Pencil => self.execute_pencil(comm, pos, charge, cache),
        }
        (&cache.phi, &cache.field)
    }

    /// Validate `cache` against this plan and `comm`'s rank layout, rebuild
    /// it on mismatch, and reset its exchange counts.
    fn prepare(&self, comm: &Comm, cache: &mut FarFieldCache) {
        let (me, p) = (comm.rank(), comm.size());
        let key = Some((self.decomp, me, p, self.mesh, self.assign_order, self.dims));
        if cache.key != key {
            *cache = FarFieldCache { key, ..FarFieldCache::default() };
            self.build_window(me, &mut cache.window);
            let grid = match self.decomp {
                MeshDecomp::Slab => [p, 1],
                MeshDecomp::Pencil => {
                    let grid = simcomm::balanced_dims(p, 2);
                    [grid[0], grid[1]]
                }
            };
            cache.dist = Distribution { m: self.mesh, grid };
            cache.weights = std::array::from_fn(|_| vec![0.0; self.assign_order]);
            cache.line = vec![Complex::ZERO; self.mesh];
        }
        cache.traffic.sent = Default::default();
    }

    /// Rank `me`'s [`Window`].
    fn build_window(&self, me: usize, window: &mut Window) {
        window.spans = self.spans(me);
        for (span, map) in window.spans.iter().zip(&mut window.maps) {
            *map = vec![u32::MAX; self.mesh];
            for (off, i) in span.iter(self.mesh).enumerate() {
                map[i] = off as u32;
            }
        }
    }

    /// B-spline charge assignment and its route: the local particles'
    /// contributions are summed per mesh point, in particle order, over the
    /// dense [`Window`]; the whole window (zero sums included) then goes to
    /// the ranks holding it in layout `first`, which add what they receive
    /// into their `grids[0]` in ascending source rank.
    fn assign_and_route_charges(
        &self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        cache: &mut FarFieldCache,
        first: Layout,
    ) {
        let m = self.mesh;
        let order = self.assign_order;
        let me = comm.rank();
        let FarFieldCache { window, dist, weights, grids, traffic, .. } = cache;
        let [ex, ey, ez] = window.extents();
        let mut sums = vec![0.0f64; ex * ey * ez];
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
                        sums[window.offset([gi, gj, gk], "assignment")] += part * wzc;
                    }
                }
            }
        }
        comm.compute(Work::MeshPoint, (pos.len() * order * order * order) as f64);
        // The ranks holding a column of the window: the first layout holds
        // the mesh in `(x, y)` columns, cut by the grid's two coordinates.
        let meets = |d: usize, (_, lo, hi): &(usize, usize, usize)| {
            (*lo..*hi).any(|i| window.maps[d][i] != u32::MAX)
        };
        let [g0, g1] = dist.grid;
        let dests = nonempty_parts(m, g0).filter(|x| meets(0, x)).flat_map(|(a, ..)| {
            nonempty_parts(m, g1).filter(|y| meets(1, y)).map(move |(b, ..)| a * g1 + b)
        });
        let route = |dst| self.window_points(window.spans, dist.held(first, dst));
        let value = |at| sums[window.offset(at, "assignment")];
        let received = exchange(comm, traffic, Exchange::Charges, sums.len(), dests, route, value);
        drop(sums);
        let target = dist.local(first, me);
        let dense = &mut grids[0];
        zeroed(dense, target.len(), Complex::ZERO);
        let mine = dist.held(first, me);
        let route = |src| self.window_points(self.spans(src), mine);
        place(&received, &traffic.sources, route, |at, &q| dense[target.offset(at)].re += q);
    }

    /// Distribute computed mesh values (phi, Ex, Ey, Ez per point) from
    /// layout `last` to the interpolation patches of the particle-grid
    /// owners, then interpolate potentials/fields at the local particles and
    /// apply the self-energy correction.
    fn distribute_and_interpolate(
        &self,
        comm: &mut Comm,
        cache: &mut FarFieldCache,
        last: Layout,
        pos: &[Vec3],
        charge: &[f64],
    ) {
        let m = self.mesh;
        let order = self.assign_order;
        let me = comm.rank();
        let FarFieldCache { window, dist, quad, weights, phi, field, traffic, .. } = cache;
        let (held, mine) = (dist.held(last, me), dist.local(last, me));
        // Per dimension: the grid coordinates whose patch meets this rank's
        // box, and how many of its points each patch holds.
        let shared = |d: usize, c: usize| {
            let (lo, hi) = held[d];
            self.patches[d][c].iter(m).filter(|i| (lo..hi).contains(i)).count()
        };
        let holders = |d: usize| (0..self.dims[d]).filter(move |&c| shared(d, c) > 0);
        let total: usize =
            (0..3).map(|d| holders(d).map(|c| shared(d, c)).sum::<usize>()).product();
        let dests = holders(0).flat_map(|cx| {
            holders(1).flat_map(move |cy| holders(2).map(move |cz| self.grid_rank([cx, cy, cz])))
        });
        let route = |dst| self.window_points(self.spans(dst), held);
        let value = |at| {
            let o = mine.offset(at);
            [quad[0][o].re, quad[1][o].re, quad[2][o].re, quad[3][o].re]
        };
        let received = exchange(comm, traffic, Exchange::Patches, total, dests, route, value);

        // Dense interpolation patch over this rank's wrapped mesh window.
        let [ex, ey, ez] = window.extents();
        let mut patch = vec![[0.0f64; 4]; ex * ey * ez];
        assert_eq!(received.len(), patch.len(), "every window point arrives once");
        let route = |src| self.window_points(window.spans, dist.held(last, src));
        place(&received, &traffic.sources, route, |at, &v| {
            patch[window.offset(at, "interpolation")] = v
        });

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
                        // An index outside the window maps to `u32::MAX`,
                        // which puts the offset past the patch.
                        let Some(v) = patch.get((ox * ey + oy) * ez + oz) else {
                            panic!("mesh point ({gi},{gj},{gk}) missing from patch")
                        };
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
        // Slab layout: data[(x - s0) * m * m + y * m + z].
        self.assign_and_route_charges(comm, pos, charge, cache, Layout::XSlab);
        let FarFieldCache { spec, dist, grids: [slab, yslab, _], quad, line, traffic, .. } = cache;
        comm.compute(Work::MeshPoint, (sn * m * m) as f64);

        // ---- Forward 2D FFT (y, z) per x-plane ----
        let mut fft_ops = 0u64;
        for plane in slab.chunks_exact_mut(m * m) {
            fft_ops += fft_2d(plane, m, Direction::Forward, line);
        }

        // ---- Transpose to y-slabs ----
        // y-slab layout: data[(y - s0) * m * m + x * m + z].
        let moved = (Layout::XSlab, Layout::YSlab);
        let received = dist.send_moved(comm, traffic, Exchange::Forward, moved, |o| slab[o]);
        zeroed(yslab, sn * m * m, Complex::ZERO);
        dist.place_moved(me, moved, &received, &traffic.sources, |o, &c| yslab[o] = c);
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
        let moved = (Layout::YSlab, Layout::XSlab);
        let received = dist.send_moved(comm, traffic, Exchange::Back, moved, |o| octet(quad, o));
        for arr in quad.iter_mut() {
            zeroed(arr, sn * m * m, Complex::ZERO);
        }
        dist.place_moved(me, moved, &received, &traffic.sources, |o, v| set_octet(quad, o, v));
        // ---- Inverse 2D FFT (y, z) per x-plane ----
        for arr in quad.iter_mut() {
            for plane in arr.chunks_exact_mut(m * m) {
                fft_ops += fft_2d(plane, m, Direction::Inverse, line);
            }
        }
        comm.compute(Work::FftPoint, fft_ops as f64);

        // ---- Patch distribution + interpolation ----
        self.distribute_and_interpolate(comm, cache, Layout::XSlab, pos, charge)
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
        let me = comm.rank();
        let m = self.mesh;
        let [p1, p2] = cache.dist.grid;
        let (a_me, b_me) = (me / p2, me % p2);

        // ---- Stage A: z-pencils (x in XA[a], y in YB[b], full z) ----
        let (ax0, ax1) = part_range(a_me, m, p1);
        let (ay0, ay1) = part_range(b_me, m, p2);
        let (anx, any) = (ax1 - ax0, ay1 - ay0);
        // Layout: zp[((xi * any) + yj) * m + z], z contiguous.
        self.assign_and_route_charges(comm, pos, charge, cache, Layout::ZPencil);
        let FarFieldCache { spec, dist, grids: [zp, yp, xp], quad, traffic, .. } = cache;
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
        // Layout: yp[((xi * bnz) + zk) * m + y], y contiguous.
        let moved = (Layout::ZPencil, Layout::YPencil);
        let received = dist.send_moved(comm, traffic, Exchange::Forward, moved, |o| zp[o]);
        zeroed(yp, anx * bnz * m, Complex::ZERO);
        dist.place_moved(me, moved, &received, &traffic.sources, |o, &c| yp[o] = c);

        // ---- FFT along y ----
        for line in yp.chunks_exact_mut(m) {
            fft_ops += fft_in_place(line, Direction::Forward);
        }

        // ---- Transpose B -> C: x-pencils (y in YA[a], z in ZB[b] unchanged,
        // full x). Traffic stays within each p2-column. ----
        let (cy0, cy1) = part_range(a_me, m, p1);
        let cny = cy1 - cy0;
        // Layout: xp[((yj * bnz) + zk) * m + x], x contiguous.
        let moved = (Layout::YPencil, Layout::XPencil);
        let received = dist.send_moved(comm, traffic, Exchange::Forward, moved, |o| yp[o]);
        zeroed(xp, cny * bnz * m, Complex::ZERO);
        dist.place_moved(me, moved, &received, &traffic.sources, |o, &c| xp[o] = c);

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
        let moved = (Layout::XPencil, Layout::YPencil);
        let received = dist.send_moved(comm, traffic, Exchange::Back, moved, |o| octet(quad, o));
        for arr in quad.iter_mut() {
            zeroed(arr, anx * bnz * m, Complex::ZERO);
        }
        dist.place_moved(me, moved, &received, &traffic.sources, |o, v| set_octet(quad, o, v));

        // ---- Inverse FFT along y ----
        for arr in quad.iter_mut() {
            for line in arr.chunks_exact_mut(m) {
                fft_ops += fft_in_place(line, Direction::Inverse);
            }
        }

        // ---- Transpose B -> A ----
        let moved = (Layout::YPencil, Layout::ZPencil);
        let received = dist.send_moved(comm, traffic, Exchange::Back, moved, |o| octet(quad, o));
        for arr in quad.iter_mut() {
            zeroed(arr, anx * any * m, Complex::ZERO);
        }
        dist.place_moved(me, moved, &received, &traffic.sources, |o, v| set_octet(quad, o, v));

        // ---- Inverse FFT along z ----
        for arr in quad.iter_mut() {
            for line in arr.chunks_exact_mut(m) {
                fft_ops += fft_in_place(line, Direction::Inverse);
            }
        }
        comm.compute(Work::FftPoint, fft_ops as f64);

        // ---- Patch distribution + interpolation ----
        self.distribute_and_interpolate(comm, cache, Layout::ZPencil, pos, charge)
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

    /// Every stencil point of every particle the process grid places in a
    /// part lies in that part's patch, probed at every part boundary and 64
    /// ulps either side, on grids that are and are not powers of two, wider
    /// and narrower than the mesh; where the boundaries fall on mesh points
    /// (power-of-two grids no wider than the mesh) both ends of the patch are
    /// reached.
    #[test]
    fn patches_hold_exactly_the_stencil_reach() {
        let bbox = SystemBox::cubic(1.0);
        for n in (1..=13).chain([16, 24, 27, 40, 64]) {
            for m in [8usize, 16, 32, 64] {
                for order in 1..=6 {
                    let plan = FarFieldPlan::new(m, order, 1.0, [n, 1, 1], bbox, MeshDecomp::Slab);
                    let mut weights = vec![0.0; order];
                    // Per part: the lowest and highest point reached, unwrapped.
                    let mut ends = vec![(i64::MAX, i64::MIN); n];
                    for b in 0..=n {
                        let (mut below, mut above) = (b as f64 / n as f64, b as f64 / n as f64);
                        for _ in 0..=64 {
                            for t in [below, above].into_iter().filter(|t| (0.0..1.0).contains(t)) {
                                let x = Vec3::new(t, 0.5, 0.5);
                                let c = particles::grid_rank_of([n, 1, 1], &bbox, x);
                                let u = bbox.normalized(x).x() * m as f64;
                                let first = stencil(order, u, &mut weights);
                                let last = first + order as i64 - 1;
                                let span = plan.patches[0][c];
                                for g in first..=last {
                                    let g = g.rem_euclid(m as i64) as usize;
                                    let what = format!("n {n} m {m} order {order} t {t:e}");
                                    assert!(
                                        span.iter(m).any(|i| i == g),
                                        "{what}: {g} not in {span:?}"
                                    );
                                }
                                ends[c] = (ends[c].0.min(first), ends[c].1.max(last));
                            }
                            (below, above) = (below.next_down(), above.next_up());
                        }
                    }
                    if n.is_power_of_two() && n <= m {
                        let h = ((order - 1) / 2) as i64;
                        for (c, &(lo, hi)) in ends.iter().enumerate() {
                            let want = ((c * m / n) as i64 - h, ((c + 1) * m / n) as i64 + h);
                            assert_eq!((lo, hi), want, "n {n} m {m} order {order} part {c}");
                        }
                    }
                }
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
