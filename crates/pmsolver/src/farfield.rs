//! The Fourier-space (far-field) part of the particle-mesh Ewald solver:
//! B-spline charge assignment onto a global mesh, a pencil-decomposed
//! distributed 3D FFT (from scratch), multiplication with the influence
//! function (Ewald Green's function with double B-spline deconvolution and
//! ik differentiation for the field), and back-interpolation to particles.
//!
//! Layouts:
//! * particles live on a 3D Cartesian process grid (the solver's domain
//!   decomposition);
//! * the mesh lives on a 2D **transform grid** of `g0 x g1` ranks — `[P, 1]`
//!   while `P ≤ mesh`, the balanced 2D grid beyond — in **z-pencils** for
//!   assignment, the transform along z and interpolation, transposed into
//!   **y-pencils** for the transform along y and into **x-pencils** for the
//!   transform along x; the inverse path mirrors this. The transposes are
//!   the communication pattern of parallel FFT-based solvers (cf. the
//!   paper's P2NFFT, whose FFT is pencil-decomposed too);
//! * a transpose along a grid extent of 1 has the rank itself as its only
//!   partner, so it is no move: the mesh stays in its layout and the next
//!   transform reads its lines strided. At `[P, 1]` the z-pencils are
//!   x-slabs, and an execution makes four exchanges;
//! * a transpose changes one grid coordinate, so it runs on the group of
//!   the ranks that share the other ([`simcomm::Group`], as PFFT runs each
//!   transpose on a row or column communicator of its process grid); the
//!   charge and patch exchanges run on the world. At `[P, 1]` the one
//!   transpose axis spans the world, and no group is made.
//!
//! Every exchange is index-free: which mesh points travel from one rank to
//! another, and in which order, is a function of the plan alone, which the
//! sender walks to fill its records and the receiver walks to place them
//! (DESIGN.md, "P2NFFT far-field routes").
//!
//! Every exchange is posted without blocking, and the caller's filler runs
//! while it is in flight ([`Overlap`]): the solver computes its near field
//! there (DESIGN.md, "Near field under the far field's exchanges").

use std::mem::size_of;
use std::ops::Range;
use std::slice::ChunksExact;

use particles::{SystemBox, Vec3};
use simcomm::{push_segment, Comm, Group, Work};

use crate::bspline::{bspline_hat, stencil};
use crate::fft::{fft_in_place, Complex, Direction};

#[cfg(test)]
mod oracle;

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

    fn len(&self) -> usize {
        self.extents().iter().product()
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

/// Where one stage of the distributed transform keeps the mesh: in pencils
/// along one dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    /// z-pencils (x in `XA[a]`, y in `YB[b]`) stored `(x, y, z)`: assignment,
    /// the transform along z and interpolation.
    Z,
    /// y-pencils (x in `XA[a]`, z in `ZB[b]`) stored `(x, z, y)`.
    Y,
    /// x-pencils (y in `YA[a]`, z in `ZB[b]`) stored `(y, z, x)`.
    X,
}

impl Layout {
    /// The dimensions of a local array, outermost first; the last is
    /// contiguous.
    fn nest(self) -> [usize; 3] {
        match self {
            Layout::Z => [0, 1, 2],
            Layout::Y => [0, 2, 1],
            Layout::X => [1, 2, 0],
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
/// `(a, b) = (r / grid[1], r % grid[1])` of the `grid[0] x grid[1]`
/// transform grid. `XA[a]` and `YA[a]` are part `a` of `grid[0]`, `YB[b]`
/// and `ZB[b]` part `b` of `grid[1]`.
#[derive(Clone, Copy, Debug, Default)]
struct Distribution {
    m: usize,
    grid: [usize; 2],
}

impl Distribution {
    /// An `m`-point mesh over `p` ranks. The transform grid is `[p, 1]` while
    /// `p ≤ m`: every rank owns planes already, so a second transpose would
    /// buy nothing. Beyond that it is the balanced 2D grid, which keeps
    /// every rank busy up to `p = m²`.
    fn new(m: usize, p: usize) -> Distribution {
        let grid = if p <= m {
            [p, 1]
        } else {
            let grid = simcomm::balanced_dims(p, 2);
            [grid[0], grid[1]]
        };
        Distribution { m, grid }
    }

    /// Where the mesh is while it is transformed along dimension `dim`. A
    /// move along a grid extent of 1 would have the rank itself as its only
    /// partner, so that stage keeps the layout of the one before it.
    fn stage(&self, dim: usize) -> Layout {
        match dim {
            2 => Layout::Z,
            1 if self.grid[1] > 1 => Layout::Y,
            1 => self.stage(2),
            _ if self.grid[0] > 1 => Layout::X,
            _ => self.stage(1),
        }
    }

    /// The mesh box `[lo, hi)` per dimension that `rank` holds in `layout`.
    fn held(&self, layout: Layout, rank: usize) -> [(usize, usize); 3] {
        let (m, [g0, g1]) = (self.m, self.grid);
        let (a, b) = (part_range(rank / g1, m, g0), part_range(rank % g1, m, g1));
        let full = (0, m);
        match layout {
            Layout::Z => [a, b, full],
            Layout::Y => [a, full, b],
            Layout::X => [full, a, b],
        }
    }

    /// `rank`'s local array in `layout`.
    fn local(&self, layout: Layout, rank: usize) -> Local {
        let (held, nest) = (self.held(layout, rank), layout.nest());
        Local { lo: nest.map(|d| held[d].0), ext: nest.map(|d| held[d].1 - held[d].0), nest }
    }

    /// The points of `rank`'s box in `layout`, in local array order.
    fn points(&self, layout: Layout, rank: usize) -> impl Iterator<Item = [usize; 3]> {
        walk(self.held(layout, rank).map(|(lo, hi)| lo..hi), layout.nest())
    }

    /// The ranks `rank` sends to when the mesh moves from `from` to `to`:
    /// those whose boxes differ from its own in the one grid coordinate the
    /// move changes — `b` between z- and y-pencils, `a` into and out of
    /// x-pencils — with non-empty parts along it.
    fn partners(&self, (from, to): (Layout, Layout), rank: usize) -> impl Iterator<Item = usize> {
        let [g0, g1] = self.grid;
        let (a, b) = (rank / g1, rank % g1);
        let along_b = along_b((from, to));
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
    /// route, on the row or column group of `groups` the move's partners
    /// form (the world when there are none). Returns what this rank received.
    fn send_moved<T: Copy + Send + 'static>(
        &self,
        (comm, overlaps): (&mut Comm, &mut Overlaps<'_>),
        (traffic, groups): (&mut Traffic, &mut Option<[Group; 2]>),
        kind: Exchange,
        moved: (Layout, Layout),
        read: impl Fn(usize) -> T,
    ) -> Vec<T> {
        let me = comm.rank();
        let (mine, target) = (self.local(moved.0, me), self.local(moved.1, me));
        let dests = self.partners(moved, me);
        let route = |dst| self.route(moved, me, dst);
        let capacity = [mine.len(), target.len()];
        let on = groups.as_mut().map(|[row, column]| if along_b(moved) { row } else { column });
        let value = |at| read(mine.offset(at));
        exchange((comm, on, overlaps), traffic, kind, capacity, dests, route, value)
    }

    /// This rank's row group (the ranks of its grid coordinate `a`, which a
    /// move along `b` meets) and column group (those of its `b`), made when
    /// both grid extents exceed 1: at `[g0, 1]` the one transpose axis spans
    /// the world. Collective.
    fn groups(&self, comm: &mut Comm) -> Option<[Group; 2]> {
        let [g0, g1] = self.grid;
        let (a, b) = ((comm.rank() / g1) as u32, (comm.rank() % g1) as u32);
        (g0 > 1 && g1 > 1).then(|| [comm.split(a, b), comm.split(b, a)])
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

/// Whether a move between two layouts changes the grid coordinate `b`
/// (between z- and y-pencils) rather than `a` (into and out of x-pencils).
fn along_b((from, to): (Layout, Layout)) -> bool {
    from != Layout::X && to != Layout::X
}

/// Transform every line along dimension `dim` of the local array `local`
/// describes, whose extent along `dim` is `line.len()`: in place where `dim`
/// is the contiguous dimension, otherwise gathered into the scratch `line`
/// and scattered back. Returns the butterflies.
fn fft_lines(
    data: &mut [Complex],
    local: &Local,
    dim: usize,
    dir: Direction,
    line: &mut [Complex],
) -> u64 {
    debug_assert_eq!(data.len(), local.len());
    if data.is_empty() {
        return 0;
    }
    let s = local.nest.iter().position(|&d| d == dim).expect("a layout nests every dimension");
    let n = local.ext[s];
    assert_eq!(n, line.len(), "a stage holds whole lines along its dimension");
    let stride: usize = local.ext[s + 1..].iter().product();
    let mut ops = 0;
    for block in data.chunks_exact_mut(n * stride) {
        if stride == 1 {
            ops += fft_in_place(block, dir);
            continue;
        }
        for i in 0..stride {
            for (r, v) in line.iter_mut().enumerate() {
                *v = block[r * stride + i];
            }
            ops += fft_in_place(line, dir);
            for (r, v) in line.iter().enumerate() {
                block[r * stride + i] = *v;
            }
        }
    }
    ops
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

/// The four kinds of exchange of an execution, as [`FarFieldCache`] counts
/// them.
#[derive(Clone, Copy, Debug)]
enum Exchange {
    /// Assigned charges to the ranks that transform them.
    Charges,
    /// The forward transposes: one per grid extent above 1.
    Forward,
    /// The back transposes, four spectra per point.
    Back,
    /// Potential and field values to the interpolation patches.
    Patches,
}

/// What this rank sent to other ranks in one kind of [`Exchange`] during an
/// execution; its own segment never leaves it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Sent {
    /// Non-empty segments.
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

/// An execution makes at most this many exchanges: the charges, two
/// transposes each way and the patches.
const MAX_EXCHANGES: usize = 6;

/// What the far field offers its caller while its exchange number `window`
/// is in flight: every exchange's background, in execution order — its
/// synchronizing stages and volume term, priced for this rank's bytes
/// ([`Comm::alltoallv_background`]). A function of the plan and the model:
/// the caller knows them all at the first window.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Overlap<'a> {
    pub(crate) window: usize,
    pub(crate) backgrounds: &'a [f64],
}

/// The caller's work between an exchange's post and its wait.
pub(crate) type Fill<'a> = &'a mut dyn FnMut(&mut Comm, Overlap<'_>);

/// An execution's exchanges as its caller's filler sees them: their
/// backgrounds, worked out from the plan before the first one, and the next
/// one to run.
struct Overlaps<'a> {
    fill: Fill<'a>,
    backgrounds: [f64; MAX_EXCHANGES],
    len: usize,
    next: usize,
}

impl Overlaps<'_> {
    /// Run the filler while the next exchange, whose background is
    /// `seconds` by its own byte counts, is in flight.
    fn run(&mut self, comm: &mut Comm, seconds: f64) {
        let window = self.next;
        assert!(window < self.len, "an exchange the plan did not count");
        debug_assert_eq!(self.backgrounds[window], seconds, "exchange {window}'s background");
        self.next += 1;
        (self.fill)(comm, Overlap { window, backgrounds: &self.backgrounds[..self.len] });
    }
}

/// One index-free exchange: for every `dst` of `dests`, the records `value`
/// gives the points of `route(dst)`, in route order, sent with
/// [`Comm::ialltoallv_flat`] — on the group `on` when there is one — and
/// counted under `kind`, except this rank's own segment, which stays home
/// (DESIGN.md, "The local block"). `fill` runs between the post and the
/// wait. Returns the records received, that segment at its rank's place
/// among them, segmented as `traffic.sources` says. `capacity` bounds what
/// is sent and is what is received, own segment included, so neither
/// buffer grows.
fn exchange<T: Copy + Send + 'static, I: Iterator<Item = [usize; 3]>>(
    (comm, mut on, overlaps): (&mut Comm, Option<&mut Group>, &mut Overlaps<'_>),
    traffic: &mut Traffic,
    kind: Exchange,
    [send_capacity, recv_capacity]: [usize; 2],
    dests: impl Iterator<Item = usize>,
    route: impl Fn(usize) -> I,
    value: impl Fn([usize; 3]) -> T,
) -> Vec<T> {
    let me = comm.rank();
    let Traffic { segments, sources, sent } = traffic;
    let mut send = Vec::with_capacity(send_capacity);
    segments.clear();
    let mut own = false;
    for dst in dests {
        if dst == me {
            own = true;
            continue;
        }
        let before = send.len();
        send.extend(route(dst).map(&value));
        push_segment(segments, dst, send.len() - before);
    }
    let sent = &mut sent[kind as usize];
    let s_bytes = std::mem::size_of_val(&send[..]) as u64;
    sent.messages += segments.iter().filter(|&&(_, len)| len > 0).count() as u64;
    sent.bytes += s_bytes;
    let home = if own { route(me).count() } else { 0 };
    let r_bytes = ((recv_capacity - home) * std::mem::size_of::<T>()) as u64;
    let (request, seconds) = match &mut on {
        Some(group) => (
            group.ialltoallv_flat(comm, send, segments),
            group.alltoallv_background(s_bytes, r_bytes),
        ),
        None => (comm.ialltoallv_flat(send, segments), comm.alltoallv_background(s_bytes, r_bytes)),
    };
    overlaps.run(comm, seconds);
    let mut received = Vec::with_capacity(recv_capacity);
    request.wait(comm, on, &mut received, sources);
    if own {
        // Appended, then rotated past the segments of the higher sources.
        let (at, at_source) = (received.len(), sources.partition_point(|&(src, _)| src < me));
        received.extend(route(me).map(&value));
        let len = received.len() - at;
        if len > 0 {
            let from: usize = sources[..at_source].iter().map(|&(_, len)| len).sum();
            received[from..].rotate_right(len);
            sources.insert(at_source, (me, len));
        }
    }
    debug_assert_eq!(received.capacity(), recv_capacity, "the receive buffer grew");
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

/// The ranks whose z-pencil meets `window`, ascending: where its charges go,
/// and where its patch values come from.
fn window_holders(window: &Window, dist: Distribution) -> impl Iterator<Item = usize> + '_ {
    let meets = move |d: usize, &(_, lo, hi): &(usize, usize, usize)| {
        (lo..hi).any(|i| window.maps[d][i] != u32::MAX)
    };
    let ([g0, g1], m) = (dist.grid, dist.m);
    nonempty_parts(m, g0).filter(move |x| meets(0, x)).flat_map(move |(a, ..)| {
        nonempty_parts(m, g1).filter(move |y| meets(1, y)).map(move |(b, ..)| a * g1 + b)
    })
}

/// What the far field keeps across timesteps, per solver and rank: tables
/// that are pure functions of the plan geometry and the rank layout, and the
/// part of an execution's staging that it holds from its first collective to
/// its last anyway — this rank's pencil of the mesh (DESIGN.md,
/// "Workspaces"). The solver keeps one per [`crate::PmSolver`] and threads it
/// through every far-field execution; it is rebuilt when the geometry
/// it was built for changes, and bitwise invisible to results and virtual
/// clocks.
///
/// Staging fields carry nothing from one execution to the next: each is
/// cleared, or resized and zeroed, by the stage that fills it.
#[derive(Default)]
pub struct FarFieldCache {
    /// (rank, world size, mesh, assignment order, process grid) everything
    /// below was built for.
    key: Option<(usize, usize, usize, usize, [usize; 3])>,
    /// `G_opt` per locally owned spectral point — the Hockney-Eastwood
    /// influence function — in the array order of the stage that transforms
    /// along x, and per dimension and mesh index (`d * mesh + i`) the
    /// (Nyquist-zeroed) wave number, the wave vector's component there;
    /// filled on first use. A
    /// wave vector per point would be three times the table, kept on every
    /// rank.
    spec: Vec<f64>,
    waves: Vec<f64>,
    window: Window,
    /// Per window point, in window order: its record's index in what the
    /// patch exchange delivers, which is `patch_sources`' segments.
    patch_index: Vec<u32>,
    patch_sources: Vec<(usize, usize)>,
    /// The mesh's distribution over the ranks.
    dist: Distribution,
    /// The row and column groups the transposes run on, when both grid
    /// extents exceed 1 ([`Distribution::groups`]).
    groups: Option<[Group; 2]>,
    /// B-spline weights per dimension.
    weights: [Vec<f64>; 3],
    /// This rank's pencil of the mesh in the layout of the current stage in
    /// the first, then the four spectra (and, on the way back, the four
    /// fields) alike: the influence function scales the transformed mesh in
    /// place into the potential's spectrum, so the four buffers are all the
    /// mesh staging a rank keeps.
    quad: [Vec<Complex>; 4],
    /// One strided FFT line.
    line: Vec<Complex>,
    traffic: Traffic,
    /// The result of the last execution.
    phi: Vec<f64>,
    field: Vec<Vec3>,
}

impl FarFieldCache {
    /// Bytes this rank sent in the exchanges of the last execution.
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
    ) -> FarFieldPlan {
        // The FFT needs it, and the patches' reach rests on it.
        assert!(mesh.is_power_of_two(), "mesh must be a power of two");
        let patches = std::array::from_fn(|d| {
            (0..dims[d]).map(|c| reach(c, dims[d], mesh, assign_order)).collect()
        });
        FarFieldPlan { mesh, assign_order, alpha, dims, bbox, patches }
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

    /// How many points of the mesh box `held` the patch of grid coordinate
    /// `c` along dimension `d` holds there.
    fn shared(&self, d: usize, c: usize, held: [(usize, usize); 3]) -> usize {
        let (lo, hi) = held[d];
        self.patches[d][c].iter(self.mesh).filter(|i| (lo..hi).contains(i)).count()
    }

    /// How many points of the mesh box `held` all the patches hold there
    /// together, counted once per patch: what its rank sends in the patch
    /// exchange, and receives in the charge exchange.
    fn patch_points(&self, held: [(usize, usize); 3]) -> usize {
        (0..3).map(|d| (0..self.dims[d]).map(|c| self.shared(d, c, held)).sum::<usize>()).product()
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
    /// field real). The indexed oracle's; the far field reads it per
    /// dimension ([`Self::wave`]).
    #[cfg(test)]
    fn kvec(&self, mx: i64, my: i64, mz: i64) -> Vec3 {
        let l = self.bbox.lengths;
        Vec3::new(self.wave(mx, l.x()), self.wave(my, l.y()), self.wave(mz, l.z()))
    }

    /// The wave number of integer frequency `m` along an edge of length
    /// `len`, zero at the Nyquist frequency.
    fn wave(&self, m: i64, len: f64) -> f64 {
        let ny = (self.mesh / 2) as i64;
        if m == ny || m == -ny {
            0.0
        } else {
            2.0 * std::f64::consts::PI * m as f64 / len
        }
    }

    /// Compute potentials and fields at the owned particle positions, left in
    /// `cache`. Collective: all ranks must call it with their local
    /// particles.
    ///
    /// The cache holds the spectral tables and the workspace of the previous
    /// execution. It is validated against the plan geometry and rank layout
    /// and rebuilt on mismatch, so passing a stale cache is safe; a hit skips
    /// the per-point Hockney-Eastwood influence evaluation (27 aliasing
    /// images with three `bspline_hat` calls each), which dominates the host
    /// cost of small meshes. Results are bitwise identical with or without a
    /// warm cache — the tables store the exact values the fresh evaluation
    /// produces, the workspace is zeroed where a fresh one would be, and the
    /// modelled (virtual) compute cost is charged identically either way.
    ///
    /// `fill` runs between the post and the wait of every exchange, with its
    /// [`Overlap`]; the last exchange's is the last chance before the far
    /// field returns.
    pub(crate) fn execute_into<'c>(
        &self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        cache: &'c mut FarFieldCache,
        fill: Fill<'_>,
    ) -> (&'c [f64], &'c [Vec3]) {
        self.prepare(comm, cache);
        let mut overlaps = self.overlaps(comm, cache, fill);
        self.assign_and_route_charges((comm, &mut overlaps), pos, charge, cache);
        self.transform((comm, &mut overlaps), cache);
        self.distribute_and_interpolate((comm, &mut overlaps), cache, pos, charge);
        assert_eq!(overlaps.next, overlaps.len, "every exchange the plan counted ran");
        (&cache.phi, &cache.field)
    }

    /// The backgrounds of this rank's exchanges in execution order, from the
    /// plan: what each sends and receives, its own segment apart, priced on
    /// the communicator it runs on.
    fn overlaps<'f>(&self, comm: &Comm, cache: &mut FarFieldCache, fill: Fill<'f>) -> Overlaps<'f> {
        let me = comm.rank();
        let FarFieldCache { window, dist, groups, .. } = cache;
        let mut overlaps = Overlaps { fill, backgrounds: [0.0; MAX_EXCHANGES], len: 0, next: 0 };
        let mut push = |on: Option<&Group>, (sent, received, home): (usize, usize, usize), elem| {
            let (s_bytes, r_bytes) =
                (((sent - home) * elem) as u64, ((received - home) * elem) as u64);
            overlaps.backgrounds[overlaps.len] = match on {
                Some(group) => group.alltoallv_background(s_bytes, r_bytes),
                None => comm.alltoallv_background(s_bytes, r_bytes),
            };
            overlaps.len += 1;
        };
        // The charges and the patches: this rank's window against the
        // z-pencils, its own share of it staying home.
        let held = dist.held(Layout::Z, me);
        let home = (0..3)
            .map(|d| {
                let (lo, hi) = held[d];
                window.spans[d].iter(self.mesh).filter(move |i| (lo..hi).contains(i)).count()
            })
            .product();
        let patches = self.patch_points(held);
        push(None, (window.len(), patches, home), std::mem::size_of::<f64>());
        // The transposes, there and back.
        let mut at = Layout::Z;
        for (dims, elem) in [([2, 1, 0], size_of::<Complex>()), ([0, 1, 2], size_of::<[f64; 8]>())]
        {
            for dim in dims {
                let stage = dist.stage(dim);
                if stage != at {
                    let moved = (at, stage);
                    let (s, d) = (dist.held(at, me), dist.held(stage, me));
                    let home =
                        (0..3).map(|k| s[k].1.min(d[k].1).saturating_sub(s[k].0.max(d[k].0)));
                    let counts = (dist.local(at, me).len(), dist.local(stage, me).len());
                    let on = groups
                        .as_ref()
                        .map(|[row, column]| if along_b(moved) { row } else { column });
                    push(on, (counts.0, counts.1, home.product()), elem);
                    at = stage;
                }
            }
        }
        push(None, (patches, window.len(), home), std::mem::size_of::<[f64; 4]>());
        overlaps
    }

    /// Validate `cache` against this plan and `comm`'s rank layout, rebuild
    /// it on mismatch — every rank at once, as the geometry is the world's —
    /// and reset its exchange counts.
    fn prepare(&self, comm: &mut Comm, cache: &mut FarFieldCache) {
        let (me, p) = (comm.rank(), comm.size());
        let key = Some((me, p, self.mesh, self.assign_order, self.dims));
        if cache.key != key {
            *cache = FarFieldCache { key, ..FarFieldCache::default() };
            self.build_window(me, &mut cache.window);
            cache.dist = Distribution::new(self.mesh, p);
            cache.groups = cache.dist.groups(comm);
            self.build_patch_index(cache);
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

    /// Where each point of the cache's window arrives in the patch exchange:
    /// the ranks whose z-pencil meets the window send, in ascending rank, the
    /// points they share with it in window order — the route
    /// [`Self::distribute_and_interpolate`] walks.
    fn build_patch_index(&self, cache: &mut FarFieldCache) {
        let FarFieldCache { window, dist, patch_index, patch_sources, .. } = cache;
        *patch_index = vec![u32::MAX; window.len()];
        let mut next = 0u32;
        for src in window_holders(window, *dist) {
            let first = next;
            for at in self.window_points(window.spans, dist.held(Layout::Z, src)) {
                patch_index[window.offset(at, "interpolation")] = next;
                next += 1;
            }
            patch_sources.push((src, (next - first) as usize));
        }
        assert_eq!(next as usize, patch_index.len(), "every window point has one holder");
    }

    /// B-spline charge assignment and its route: the local particles'
    /// contributions are summed per mesh point, in particle order, over the
    /// dense [`Window`]; the whole window (zero sums included) then goes to
    /// the ranks holding it in z-pencils, which add what they receive into
    /// their pencil in ascending source rank.
    fn assign_and_route_charges(
        &self,
        (comm, overlaps): (&mut Comm, &mut Overlaps<'_>),
        pos: &[Vec3],
        charge: &[f64],
        cache: &mut FarFieldCache,
    ) {
        let m = self.mesh;
        let order = self.assign_order;
        let me = comm.rank();
        let FarFieldCache { window, dist, weights, quad: [pencil, ..], traffic, .. } = cache;
        let mut sums = vec![0.0f64; window.len()];
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
        let dests = window_holders(window, *dist);
        let route = |dst| self.window_points(window.spans, dist.held(Layout::Z, dst));
        let value = |at| sums[window.offset(at, "assignment")];
        let mine = dist.held(Layout::Z, me);
        let capacity = [sums.len(), self.patch_points(mine)];
        let on = (&mut *comm, None, overlaps);
        let received = exchange(on, traffic, Exchange::Charges, capacity, dests, route, value);
        drop(sums);
        let target = dist.local(Layout::Z, me);
        zeroed(pencil, target.len(), Complex::ZERO);
        let route = |src| self.window_points(self.spans(src), mine);
        place(&received, &traffic.sources, route, |at, &q| pencil[target.offset(at)].re += q);
        comm.compute(Work::MeshPoint, target.len() as f64);
    }

    /// The distributed transform of the assigned charges: forward along z, y
    /// and x, times the influence function into the four spectra, and those
    /// back along x, y and z, each stage in the layout
    /// [`Distribution::stage`] names. The mesh moves only where the layout
    /// changes; it ends, like it started, in z-pencils.
    fn transform(
        &self,
        (comm, overlaps): (&mut Comm, &mut Overlaps<'_>),
        cache: &mut FarFieldCache,
    ) {
        let me = comm.rank();
        let FarFieldCache { spec, waves, dist, groups, quad, line, traffic, .. } = cache;
        let pencil = &mut quad[0];
        let mut at = Layout::Z;
        let mut fft_ops = 0u64;
        for dim in [2, 1, 0] {
            let stage = dist.stage(dim);
            if stage != at {
                let moved = (at, stage);
                let on = (&mut *traffic, &mut *groups);
                let (comm, overlaps) = (&mut *comm, &mut *overlaps);
                let received =
                    dist.send_moved((comm, overlaps), on, Exchange::Forward, moved, |o| pencil[o]);
                zeroed(pencil, received.len(), Complex::ZERO);
                dist.place_moved(me, moved, &received, &traffic.sources, |o, &c| pencil[o] = c);
                at = stage;
            }
            fft_ops += fft_lines(pencil, &dist.local(at, me), dim, Direction::Forward, line);
        }

        if spec.len() != pencil.len() || waves.is_empty() {
            // The points' walk has no size hint: reserve, or the first fill
            // grows by doubling.
            spec.clear();
            spec.reserve_exact(pencil.len());
            spec.extend(dist.points(at, me).map(|point| {
                let [mx, my, mz] = point.map(|i| self.freq(i));
                self.influence(mx, my, mz)
            }));
            let l = self.bbox.lengths;
            waves.clear();
            waves.reserve_exact(3 * self.mesh);
            waves.extend(
                (0..3)
                    .flat_map(|d| (0..self.mesh).map(move |i| (d, i)))
                    .map(|(d, i)| self.wave(self.freq(i), l[d])),
            );
        }
        let points = pencil.len();
        Self::apply_influence((spec, waves.chunks_exact(self.mesh), dist.points(at, me)), quad);
        comm.compute(Work::MeshPoint, points as f64 * 4.0);

        for dim in [0, 1, 2] {
            let stage = dist.stage(dim);
            if stage != at {
                let moved = (at, stage);
                let on = (&mut *traffic, &mut *groups);
                let (comm, overlaps) = (&mut *comm, &mut *overlaps);
                let read = |o| octet(quad, o);
                let received = dist.send_moved((comm, overlaps), on, Exchange::Back, moved, read);
                for arr in quad.iter_mut() {
                    zeroed(arr, received.len(), Complex::ZERO);
                }
                dist.place_moved(me, moved, &received, &traffic.sources, |o, v| {
                    set_octet(quad, o, v)
                });
                at = stage;
            }
            let local = dist.local(at, me);
            for arr in quad.iter_mut() {
                fft_ops += fft_lines(arr, &local, dim, Direction::Inverse, line);
            }
        }
        comm.compute(Work::FftPoint, fft_ops as f64);
    }

    /// Distribute computed mesh values (phi, Ex, Ey, Ez per point) from the
    /// z-pencils to the interpolation patches of the particle-grid owners,
    /// then interpolate potentials/fields at the local particles, reading the
    /// received records where the cache's patch index says, and apply the
    /// self-energy correction.
    fn distribute_and_interpolate(
        &self,
        (comm, overlaps): (&mut Comm, &mut Overlaps<'_>),
        cache: &mut FarFieldCache,
        pos: &[Vec3],
        charge: &[f64],
    ) {
        let m = self.mesh;
        let order = self.assign_order;
        let me = comm.rank();
        let FarFieldCache {
            window,
            patch_index,
            patch_sources,
            dist,
            quad,
            weights,
            phi,
            field,
            traffic,
            ..
        } = cache;
        let (held, mine) = (dist.held(Layout::Z, me), dist.local(Layout::Z, me));
        let holders = |d: usize| (0..self.dims[d]).filter(move |&c| self.shared(d, c, held) > 0);
        let dests = holders(0).flat_map(|cx| {
            holders(1).flat_map(move |cy| holders(2).map(move |cz| self.grid_rank([cx, cy, cz])))
        });
        let route = |dst| self.window_points(self.spans(dst), held);
        let value = |at| {
            let o = mine.offset(at);
            [quad[0][o].re, quad[1][o].re, quad[2][o].re, quad[3][o].re]
        };
        let capacity = [self.patch_points(held), window.len()];
        let on = (&mut *comm, None, overlaps);
        let received = exchange(on, traffic, Exchange::Patches, capacity, dests, route, value);
        assert!(
            traffic.sources == *patch_sources,
            "the patch exchange delivers the planned routes"
        );

        zeroed(phi, pos.len(), 0.0);
        zeroed(field, pos.len(), Vec3::ZERO);
        let [_, ey, ez] = window.extents();
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
                        // which puts the offset past the patch index.
                        let Some(&k) = patch_index.get((ox * ey + oy) * ez + oz) else {
                            panic!("mesh point ({gi},{gj},{gk}) missing from patch")
                        };
                        let v = &received[k as usize];
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

    /// Multiply the transformed mesh in `quad[0]`, whose points are
    /// `points`, by the influence function `spec` into the four spectra:
    /// phi-hat in place and the ik-differentiated field-hat beside it, with
    /// the wave vector from `waves`.
    fn apply_influence(
        (spec, mut waves, points): (&[f64], ChunksExact<'_, f64>, impl Iterator<Item = [usize; 3]>),
        quad: &mut [Vec<Complex>; 4],
    ) {
        let [hat, fields @ ..] = quad;
        for arr in fields.iter_mut() {
            zeroed(arr, hat.len(), Complex::ZERO);
        }
        let [ex, ey, ez] = fields;
        let [kx, ky, kz] = [(); 3].map(|_| waves.next().expect("a wave table per dimension"));
        for (o, (&g, [i, j, l])) in spec.iter().zip(points).enumerate() {
            if g == 0.0 {
                hat[o] = Complex::ZERO;
                continue;
            }
            let k = Vec3::new(kx[i], ky[j], kz[l]);
            let ph = hat[o].scale(g);
            hat[o] = ph;
            // E-hat = -i k phi-hat: (-i)(a + bi) = b - ai.
            let mik_ph = Complex::new(ph.im, -ph.re);
            ex[o] = mik_ph.scale(k.x());
            ey[o] = mik_ph.scale(k.y());
            ez[o] = mik_ph.scale(k.z());
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use particles::reference::{ewald, EwaldParams};
    use particles::IonicCrystal;
    use simcomm::{run, MachineModel, Runner, TraceEvent, TraceKind};

    /// One execution on a fresh cache, its result copied out.
    fn execute_fresh(
        plan: &FarFieldPlan,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
    ) -> (Vec<f64>, Vec<Vec3>) {
        let mut cache = FarFieldCache::default();
        let (phi, field) = plan.execute_into(comm, pos, charge, &mut cache, &mut |_, _| ());
        (phi.to_vec(), field.to_vec())
    }

    #[test]
    fn floor_ranges_partition_the_mesh() {
        // Process-grid extents, transform grid extents below and above the
        // mesh: every index has exactly one owner, found directly, and the
        // non-empty parts are listed in order without visiting the empty
        // ones.
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
                    let plan = FarFieldPlan::new(m, order, 1.0, [n, 1, 1], bbox);
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
        let plan = FarFieldPlan::new(32, 3, 1.2, [2, 2, 2], SystemBox::cubic(8.0));
        assert_eq!(plan.influence(0, 0, 0), 0.0);
        assert!(plan.influence(1, 0, 0) > 0.0);
        assert!(plan.influence(1, 2, 3) > 0.0);
        // Decays for large k.
        assert!(plan.influence(14, 14, 14) < plan.influence(1, 1, 1));
    }

    /// What rank `me` of a far field on the process grid `dims` sends other
    /// ranks in each exchange of one execution, from the geometry alone:
    /// charges in 8-byte records, the transposes in 16 and 64, patch values
    /// in 32. Each exchange's self segment — the points the rank would send
    /// itself — is subtracted, a message and its bytes.
    pub(super) fn closed_form(mesh: usize, order: usize, dims: [usize; 3], me: usize) -> [Sent; 4] {
        let (m, h, [d0, d1, d2]) = (mesh, (order - 1) / 2, dims);
        let p = d0 * d1 * d2;
        // The window of grid coordinate `c` along `d`: the part's mesh range
        // widened by `h` on either side, wrapped and capped at `m` points.
        let window = |d: usize, c: usize| -> Vec<usize> {
            let n = dims[d];
            let (lo, hi) = (c * m / n, ((c + 1) * m).div_ceil(n));
            (0..(hi - lo + 2 * h + 1).min(m)).map(|o| (lo + m - h + o) % m).collect()
        };
        let coords = [me / (d1 * d2), me / d2 % d1, me % d2];
        let mine: [Vec<usize>; 3] = std::array::from_fn(|d| window(d, coords[d]));
        let [g0, g1] = if p <= m {
            [p, 1]
        } else {
            let grid = simcomm::balanced_dims(p, 2);
            [grid[0], grid[1]]
        };
        let (xa, yb) = (part_range(me / g1, m, g0), part_range(me % g1, m, g1));
        let held = [xa, yb, (0, m)];
        // The window points in the rank's own z-pencil: the self segment of
        // the charge and of the patch exchange alike.
        let own = (0..3)
            .map(|d| mine[d].iter().filter(|&&i| (held[d].0..held[d].1).contains(&i)).count())
            .product::<usize>() as u64;
        let less_own = |s: Sent, bytes: u64| Sent {
            messages: s.messages - u64::from(own > 0),
            bytes: s.bytes - bytes * own,
        };
        // Charges: the whole window, to the owner of each of its columns.
        let owners = |d: usize, parts: usize| {
            let mut owners: Vec<usize> = mine[d].iter().map(|&i| part_owner(i, m, parts)).collect();
            owners.sort_unstable();
            owners.dedup();
            owners.len() as u64
        };
        let volume = mine.iter().map(Vec::len).product::<usize>() as u64;
        let charges =
            less_own(Sent { messages: owners(0, g0) * owners(1, g1), bytes: 8 * volume }, 8);
        // Transposes: one each way per grid extent above 1, each taking the
        // rank's pencil (all three boxes are equal) whole to the non-empty
        // parts of the coordinate that changes, less what stays: the pencil's
        // overlap with the rank's own box after the move, `|XA|·|YB|²` along
        // `b` and `|XA|²·|YB|` along `a`.
        let (na, nb) = ((xa.1 - xa.0) as u64, (yb.1 - yb.0) as u64);
        let points = na * nb * m as u64;
        let fanout =
            |parts: usize| if points > 0 && parts > 1 { m.min(parts) as u64 - 1 } else { 0 };
        let moved = |parts: usize, kept: u64| if parts > 1 { points - kept } else { 0 };
        let moved = moved(g0, na * na * nb) + moved(g1, na * nb * nb);
        let forward = Sent { messages: fanout(g0) + fanout(g1), bytes: 16 * moved };
        let back = Sent { messages: fanout(g0) + fanout(g1), bytes: 64 * moved };
        // Patches: to every rank whose window meets this rank's box, the
        // points they share.
        let shared: [Vec<u64>; 3] = std::array::from_fn(|d| {
            let (lo, hi) = held[d];
            let inside = |c| window(d, c).into_iter().filter(|i| (lo..hi).contains(i)).count();
            (0..dims[d]).map(|c| inside(c) as u64).collect()
        });
        let patches = less_own(
            Sent {
                messages: shared
                    .iter()
                    .map(|s| s.iter().filter(|&&n| n > 0).count() as u64)
                    .product(),
                bytes: 32 * shared.iter().map(|s| s.iter().sum::<u64>()).product::<u64>(),
            },
            32,
        );
        [charges, forward, back, patches]
    }

    /// The far field at every world size it meets — P ∈ {1, 2, 3, 5, 8, 12,
    /// 16, 27, 37, 64}, below, at and beyond each of the meshes 8, 16 and 32,
    /// primes among them:
    /// * the transform grid is `[P, 1]` while `P ≤ mesh` and the balanced 2D
    ///   grid beyond, and in each stage's layout the ranks' boxes partition
    ///   the mesh in local array order, none empty while both extents are at
    ///   most the mesh;
    /// * an execution makes two all-to-all-v plus two per grid extent above
    ///   1 — the slab's four at `1 < P ≤ mesh`, six when both extents exceed
    ///   1, two at `P = 1` — so no move along an extent of 1 is made, and the
    ///   staging holds one pencil buffer, never grown past the rank's box;
    /// * with both extents above 1 the first execution splits the world into
    ///   row and column groups, and the four transposes run on them — moves
    ///   along `b` on the row (size `g1`), along `a` on the column (size
    ///   `g0`) — while charges and patches run on the world; otherwise
    ///   nothing is split and every exchange is a world collective;
    /// * each transpose ends at its communicator's last arrival plus
    ///   [`MachineModel::alltoallv_time`] over the communicator's size of
    ///   what the rank moved;
    /// * every exchange sends its closed-form messages and bytes, its self
    ///   segment kept home;
    /// * the energy matches the k-space part of Ewald to 1e-3, the bound the
    ///   solver's total energy is held to.
    #[test]
    fn pencils_at_every_world_size() {
        let c = IonicCrystal::cubic(4, 1.0, 0.13, 21);
        let bbox = c.system_box();
        let (pos_all, charge_all): (Vec<Vec3>, Vec<f64>) =
            (0..c.n() as u64).map(|i| c.particle(i)).unzip();
        let (order, alpha) = (4, 1.0);
        let params = EwaldParams { alpha, rcut: 1e-9, kmax: 10 };
        let want = ewald(&pos_all, &charge_all, &bbox, params).energy;
        for p in [1usize, 2, 3, 5, 8, 12, 16, 27, 37, 64] {
            let balanced = simcomm::balanced_dims(p, 3);
            let dims = [balanced[0], balanced[1], balanced[2]];
            for mesh in [8usize, 16, 32] {
                let what = format!("p {p} mesh {mesh}");
                let dist = Distribution::new(mesh, p);
                let rule = if p <= mesh { vec![p, 1] } else { simcomm::balanced_dims(p, 2) };
                assert_eq!(dist.grid.to_vec(), rule, "{what}");
                let [g0, g1] = dist.grid;
                for layout in [Layout::Z, Layout::Y, Layout::X] {
                    let mut holders = vec![0u8; mesh * mesh * mesh];
                    for r in 0..p {
                        let local = dist.local(layout, r);
                        for (o, at) in dist.points(layout, r).enumerate() {
                            assert_eq!(local.offset(at), o, "{what} {layout:?} rank {r}");
                            holders[(at[0] * mesh + at[1]) * mesh + at[2]] += 1;
                        }
                        let filled = dist.points(layout, r).count();
                        assert_eq!(filled, local.len(), "{what} {layout:?} rank {r}");
                        assert!(filled > 0 || g0 > mesh, "{what} {layout:?}: rank {r} idles");
                    }
                    assert!(holders.iter().all(|&n| n == 1), "{what} {layout:?}: not a partition");
                }

                let plan = FarFieldPlan::new(mesh, order, alpha, dims, bbox);
                let model = MachineModel::juropa_like();
                let out = Runner::default().traced(true).run(p, model.clone(), |comm| {
                    let me = comm.rank();
                    let mine = pos_all.iter().zip(&charge_all);
                    let (pos, charge): (Vec<Vec3>, Vec<f64>) = mine
                        .filter(|(x, _)| particles::grid_rank_of(dims, &bbox, **x) == me)
                        .unzip();
                    let mut cache = FarFieldCache::default();
                    let before = comm.stats().coll_ops;
                    let (phi, _) =
                        plan.execute_into(comm, &pos, &charge, &mut cache, &mut |_, _| ());
                    let energy = 0.5 * phi.iter().zip(&charge).map(|(f, q)| f * q).sum::<f64>();
                    let collectives = comm.stats().coll_ops - before;
                    let kept = (cache.quad[0].capacity(), cache.dist.local(Layout::Z, me).len());
                    let groups = cache.groups.as_ref().map(|gs| gs.each_ref().map(Group::id));
                    (energy, collectives, cache.traffic.sent, kept, groups)
                });
                let split = g0 > 1 && g1 > 1;
                let alltoallv = 2 + 2 * (u64::from(g0 > 1) + u64::from(g1 > 1));
                let exchanges: Vec<Vec<&TraceEvent>> = out
                    .traces
                    .iter()
                    .map(|t| t.events.iter().filter(|e| e.kind == TraceKind::Alltoallv).collect())
                    .collect();
                // The moves of an execution, forward then back.
                let mut moves = Vec::new();
                let mut at = Layout::Z;
                for dim in [2, 1, 0, 0, 1, 2] {
                    if dist.stage(dim) != at {
                        moves.push((at, dist.stage(dim)));
                        at = dist.stage(dim);
                    }
                }
                for (me, (_, collectives, sent, (kept, boxed), groups)) in
                    out.results.iter().enumerate()
                {
                    let splits = 2 * u64::from(split);
                    assert_eq!(*collectives, splits + alltoallv, "{what}: rank {me} collectives");
                    assert_eq!(*sent, closed_form(mesh, order, dims, me), "{what}: rank {me}");
                    assert_eq!(kept, boxed, "{what}: rank {me} keeps more than its pencil");
                    assert_eq!(groups.is_some(), split, "{what}: rank {me} splits");
                    // Where each exchange ran: the world for charges and
                    // patches, the row group (size g1) for moves along b and
                    // the column group (size g0) for moves along a.
                    let on: Vec<_> = exchanges[me].iter().map(|e| (e.group, e.nranks)).collect();
                    let want = match *groups {
                        Some([row, column]) => {
                            let transposes = [(row, g1), (column, g0), (column, g0), (row, g1)];
                            [vec![(0, p)], transposes.to_vec(), vec![(0, p)]].concat()
                        }
                        None => vec![(0, p); alltoallv as usize],
                    };
                    assert_eq!(on, want, "{what}: rank {me} communicators");
                    // A transpose ends when its last member arrived plus the
                    // modelled cost of what this rank moved, over the
                    // communicator it ran on.
                    for (k, &moved) in moves.iter().enumerate() {
                        let e = exchanges[me][1 + k];
                        let peers = (0..p).filter(|&r| exchanges[r][1 + k].group == e.group);
                        let last = peers.map(|r| exchanges[r][1 + k].t_start).fold(0.0, f64::max);
                        let elem = if k < moves.len() / 2 { 16 } else { 64 };
                        let moving = |src, dst| {
                            u64::from(src != dst) * dist.route(moved, src, dst).count() as u64
                        };
                        let sends: Vec<u64> =
                            dist.partners(moved, me).map(|dst| moving(me, dst)).collect();
                        let recvs: Vec<u64> = (0..p)
                            .filter(|&src| dist.partners(moved, src).any(|dst| dst == me))
                            .map(|src| moving(src, me))
                            .collect();
                        let count = |v: &[u64]| v.iter().filter(|&&n| n > 0).count() as u64;
                        let bytes = |v: &[u64]| elem * v.iter().sum::<u64>();
                        let cost = model.alltoallv_time(
                            e.nranks,
                            count(&sends),
                            bytes(&sends),
                            count(&recvs),
                            bytes(&recvs),
                        );
                        let charged = e.t_end - last;
                        assert!(
                            (charged - cost).abs() <= 1e-9 * cost,
                            "{what}: rank {me} transpose {k} charged {charged:e}, modelled {cost:e}"
                        );
                    }
                }
                let energy: f64 = out.results.iter().map(|r| r.0).sum();
                let rel = (energy - want).abs() / want.abs();
                assert!(rel < 1e-3, "{what}: energy {energy} vs Ewald {want}, rel {rel:e}");
            }
        }
    }

    #[test]
    fn one_cache_serves_plans_of_another_mesh() {
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
            // Mesh 2 puts the world beyond the mesh, on a 2 x 2 transform grid.
            for (mesh, n) in
                [(8, pos.len()), (16, pos.len() / 2), (2, pos.len()), (8, 0), (8, pos.len())]
            {
                let plan = FarFieldPlan::new(mesh, 3, 6.0 / bbox.lengths.x(), dims, bbox);
                let (phi, field) =
                    plan.execute_into(comm, &pos[..n], &charge[..n], &mut cache, &mut |_, _| ());
                let got = (phi.to_vec(), field.to_vec());
                let want = execute_fresh(&plan, comm, &pos[..n], &charge[..n]);
                let bits = |(phi, field): &(Vec<f64>, Vec<Vec3>)| {
                    let phi: Vec<u64> = phi.iter().map(|x| x.to_bits()).collect();
                    (phi, format!("{field:?}"))
                };
                assert_eq!(bits(&got), bits(&want), "mesh {mesh} n {n} rank {me}");
            }
        });
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
        let plan = FarFieldPlan::new(64, 4, alpha, [1, 1, 1], bbox);
        let out = run(1, MachineModel::ideal(), |comm| execute_fresh(&plan, comm, &pos, &charge));
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
        let plan1 = FarFieldPlan::new(32, 3, alpha, [1, 1, 1], bbox);
        let serial = run(1, MachineModel::ideal(), |comm| {
            execute_fresh(&plan1, comm, &pos_all, &charge_all)
        });
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
            let plan = FarFieldPlan::new(32, 3, alpha, dims, bbox);
            let (phi, _) = execute_fresh(&plan, comm, &pos, &charge);
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
