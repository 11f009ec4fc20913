//! The parallel particle-mesh Ewald solver: Cartesian-grid domain
//! decomposition with fine-grained particle redistribution and ghost
//! duplication, linked-cell near field, FFT-mesh far field, and the paper's
//! two data redistribution paths.

use atasp::{
    alltoall_specific_routed, encode_index, hand_back, ExchangeMode, ResortPlan, Restore, Route,
    Routed, Routes, Solved,
};
use particles::{
    grid_cell_bounds, grid_rank_of, MovementHint, Particle, RedistMethod, SolverOutput, SystemBox,
    Vec3,
};
use simcomm::{CartGrid, Comm, Work};

use crate::farfield::{FarFieldCache, FarFieldPlan, Overlap};
use crate::nearfield::NearField;
use crate::order::stable_order;

/// Static configuration of the particle-mesh solver.
#[derive(Clone, Debug, PartialEq)]
pub struct PmConfig {
    /// Mesh points per dimension (power of two).
    pub mesh: usize,
    /// B-spline charge assignment order.
    pub assign_order: usize,
    /// Ewald splitting parameter.
    pub alpha: f64,
    /// Real-space cutoff radius.
    pub rcut: f64,
    /// Optional short-range repulsive core evaluated in the near field
    /// (see [`particles::coupling::SoftCore`]). `None` = pure Coulomb.
    pub soft_core: Option<particles::SoftCore>,
}

impl PmConfig {
    /// Choose parameters for a target relative accuracy: the cutoff is taken
    /// as `desired_rcut` (capped by the minimum-image bound), the splitting
    /// parameter from `erfc(alpha * rcut) ~ eps`, and the mesh so the
    /// reciprocal-space truncation matches.
    pub fn tuned(bbox: &SystemBox, accuracy: f64, desired_rcut: f64) -> Self {
        let l = bbox.lengths;
        let lmin = l.x().min(l.y()).min(l.z());
        let rcut = desired_rcut.min(0.49 * lmin);
        let factor = (-accuracy.ln()).sqrt().max(1.5);
        let alpha = factor / rcut;
        let lmax = l.x().max(l.y()).max(l.z());
        // Two mesh constraints: the reciprocal-space Gaussian must be
        // truncated at the same accuracy (Nyquist >= 2 alpha * factor), and
        // the mesh spacing must resolve the Gaussian for the B-spline
        // assignment (alpha * h small enough for the chosen order).
        let kspace = 2.0 * alpha * factor * lmax / std::f64::consts::PI;
        let assign_order = if accuracy >= 1e-3 { 3 } else { 4 };
        let max_alpha_h = if accuracy >= 1e-3 { 0.6 } else { 0.4 };
        let resolve = alpha * lmax / max_alpha_h;
        let mesh_min = kspace.max(resolve).ceil() as usize;
        let mesh = mesh_min.next_power_of_two().clamp(8, 512);
        PmConfig { mesh, assign_order, alpha, rcut, soft_core: None }
    }
}

/// Report of one particle-mesh solver execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PmRunReport {
    /// Whether neighbourhood point-to-point communication replaced the
    /// collective all-to-all for the particle redistribution (Method B with
    /// limited movement).
    pub used_neighborhood: bool,
    /// Ghost particles received by this rank.
    pub ghosts_received: u64,
    /// Particles this rank sent away during the owner redistribution.
    pub redist_sent: u64,
    /// Near-field pair interactions evaluated.
    pub near_pairs: u64,
    /// Whether this run re-executed the cached ghost plan (skin-margin ghost
    /// routes and linked-cell placement) instead of rebuilding it.
    pub ghost_plan_reused: bool,
    /// Whether this was a quiet Method B step: every rank held exactly its
    /// input particles in their input order, so the resort plan is the
    /// identity route. `fcs` then resorts the step's additional data
    /// locally, with no message and no barrier.
    pub resort_exchange_skipped: bool,
    /// Whether the movement-bound guard detected a particle whose new owner
    /// lies outside the 26-neighbourhood (the movement hint under-reported
    /// the real displacement) and fell back to the collective all-to-all for
    /// this step. Only ever set on fault-injected worlds; see
    /// [`PmSolver::run`].
    pub movement_guard_fallback: bool,
    /// Bytes of the ghost records (position and charge) this rank received
    /// for the near field.
    pub ghost_bytes: u64,
    /// Bytes this rank sent other ranks in the far field's four exchanges:
    /// charges to the transform owners, the forward and the back transposes,
    /// and values to the interpolation patches. The points a rank would send
    /// itself stay home and are not counted — this is what its communicator
    /// counts in the `far` phase.
    pub far_bytes: u64,
}

/// Message tag of the ghost exchange.
const TAG_GHOSTS: u64 = 0x67_686f_7374; // "ghost"

/// Rank-dependent, decomposition-static scaffolding of the ghost plan: the
/// 26-neighbourhood and everything derivable from it alone. Built once on the
/// first run (the solver learns its rank then) and kept for the lifetime of
/// the decomposition — this removes the per-step `neighbors26` recomputation
/// and the two per-step clones of the partner list the old code paid.
struct PlanStatics {
    rank: usize,
    /// Prebuilt neighbourhood exchange mode, borrowed every step; its
    /// partner list ([`PlanStatics::partners`]) is the ghost exchange's.
    neighborhood_mode: ExchangeMode,
    /// The 26-stencil offsets whose shifted rank is another rank, each with
    /// its partner slot ([`ghost_offsets`]).
    ghost_offsets: Vec<GhostOffset>,
}

impl PlanStatics {
    /// The distinct 26-neighbours, sorted: the partner slots of the ghost
    /// routes.
    fn partners(&self) -> &[usize] {
        let ExchangeMode::Neighborhood(partners) = &self.neighborhood_mode else {
            unreachable!("statics always hold a neighbourhood mode")
        };
        partners
    }
}

/// One stencil offset of the ghost routes: the faces of the subdomain it
/// crosses (bit `2 d` the lower and bit `2 d + 1` the upper face of
/// dimension `d`) and the partner slot its shifted rank occupies. Several
/// offsets share a slot on tiny grids with periodic wrap; merging the aliases
/// into one slot means a particle is emitted at most once per partner, so the
/// receiver never deduplicates.
struct GhostOffset {
    delta: [i64; 3],
    faces: u8,
    slot: usize,
}

/// The ghost offsets of rank `me` in stencil order (`x` slowest): every
/// offset of the 26-stencil whose shifted rank is not `me`, with that rank's
/// position in `partners` (the sorted, distinct 26-neighbours).
fn ghost_offsets(grid: &CartGrid, me: usize, partners: &[usize]) -> Vec<GhostOffset> {
    let mut offsets = Vec::with_capacity(26);
    for ddx in -1..=1i64 {
        for ddy in -1..=1i64 {
            for ddz in -1..=1i64 {
                let delta = [ddx, ddy, ddz];
                if delta == [0; 3] {
                    continue;
                }
                let nb = grid.shifted_rank(me, delta.map(|dd| dd as isize));
                if nb == me {
                    continue;
                }
                let slot =
                    partners.iter().position(|&q| q == nb).expect("shifted rank is a 26-neighbour");
                let faces = (0..3)
                    .filter(|&d| delta[d] != 0)
                    .fold(0u8, |f, d| f | 1 << (2 * d + usize::from(delta[d] > 0)));
                offsets.push(GhostOffset { delta, faces, slot });
            }
        }
    }
    offsets
}

/// Fresh ghost-route selection: per partner slot of `n_slots`, the owned
/// particles (ascending index) within `margin` of the region some offset of
/// that slot reaches, appended to `sends`, and how many to `counts` (both
/// cleared first). `reach` is per-particle scratch: the slots a particle goes
/// to, one bit each.
///
/// A particle's six face gaps are computed once and decide every face
/// offset; an edge or corner offset is tested only when each face it crosses
/// passed. That skips no offset the full test would accept: each face term
/// is the same `g * g` the full distance sums, and a floating-point sum of
/// non-negative terms is never below any one of them. Returns the distance
/// tests made — one per particle and face offset, plus one per edge or
/// corner offset tested — which is what the selection is charged.
#[allow(clippy::too_many_arguments)]
fn select_ghosts(
    offsets: &[GhostOffset],
    n_slots: usize,
    owned: &[Particle],
    (lo, hi): (Vec3, Vec3),
    margin: f64,
    reach: &mut Vec<u32>,
    sends: &mut Vec<u32>,
    counts: &mut Vec<usize>,
) -> u64 {
    assert!(n_slots <= 32, "at most 26 partners");
    let m2 = margin * margin;
    let faces = offsets.iter().filter(|o| o.faces.count_ones() == 1).count() as u64;
    let mut tests = faces * owned.len() as u64;
    reach.clear();
    reach.extend(owned.iter().map(|rec| {
        let gap = |d: usize, dd: i64| match dd {
            1 => hi[d] - rec.pos[d],
            -1 => rec.pos[d] - lo[d],
            _ => 0.0,
        };
        let mut near = 0u8;
        for d in 0..3 {
            for (bit, dd) in [(2 * d, -1), (2 * d + 1, 1)] {
                let g = gap(d, dd);
                near |= u8::from(g * g <= m2) << bit;
            }
        }
        let mut slots = 0u32;
        for o in offsets {
            if o.faces & !near != 0 {
                continue;
            }
            if o.faces.count_ones() > 1 {
                tests += 1;
                let mut dist2 = 0.0;
                for (d, dd) in o.delta.into_iter().enumerate() {
                    let g = gap(d, dd);
                    dist2 += g * g;
                }
                if dist2 > m2 {
                    continue;
                }
            }
            slots |= 1 << o.slot;
        }
        slots
    }));
    sends.clear();
    counts.clear();
    for slot in 0..n_slots {
        let before = sends.len();
        sends.extend(
            (0u32..).zip(reach.iter()).filter(|(_, &r)| r >> slot & 1 != 0).map(|(j, _)| j),
        );
        counts.push(sends.len() - before);
    }
    tests
}

/// The linked-cell order of particles with cell keys `keys`, into `order`
/// (`scratch` is the radix sort's scatter buffer): ascending key, ascending
/// index among equal keys — the stable sort, in 8-bit counting passes over
/// the key digits that vary. Returns that pass count; sorted keys give the
/// identity.
fn linked_cell_order(keys: &[u32], order: &mut Vec<u32>, scratch: &mut Vec<u32>) -> u32 {
    let (passes, permuted) = stable_order(keys, order, scratch);
    if !permuted {
        let n = u32::try_from(keys.len()).expect("more than u32::MAX particles");
        order.extend(0..n);
    }
    passes
}

/// What a run stages on the way to its output, kept from run to run where
/// keeping costs no memory to speak of (DESIGN.md, "Workspaces"): one record
/// or value per owned particle and one count per partner. Nothing here
/// carries meaning across runs — every field is cleared by the step that
/// fills it, before the step that reads it.
#[derive(Default)]
struct Workspace {
    /// The input as records, and the rank each goes to; once the owner
    /// redistribution has sent them, the owned particles in linked-cell
    /// order.
    records: Vec<Particle>,
    targets: Vec<usize>,
    /// The routes of the owner redistribution.
    routes: Routes,
    /// Linked-cell keys of the owned particles, in arrival order.
    keys: Vec<u32>,
    /// The linked-cell order: the `j`-th owned particle is the `order[j]`-th
    /// to arrive.
    order: Vec<u32>,
    /// One word per owned particle: the scatter buffer of the radix passes
    /// that sort it, then the partner slots a fresh ghost-route selection
    /// sends it to.
    scratch: Vec<u32>,
    /// The owned particles as columns (moved into the output under Method B).
    pos: Vec<Vec3>,
    charge: Vec<f64>,
    restore: Restore,
    /// The ghost exchange's buffers, one per partner in partner order: what
    /// this rank sends (empty between runs), and what it received — the
    /// near field's ghosts, and next step's send buffers.
    ghosts_sent: Vec<(usize, Vec<(Vec3, f64)>)>,
    ghosts_recv: Vec<(usize, Vec<(Vec3, f64)>)>,
}

/// One ghost-plan epoch: the frozen per-particle routing and placement of a
/// cached ghost plan, valid while the owned particle sequence is unchanged,
/// every particle is still in its linked cell, and the movement accumulated
/// since the epoch was built stays under the skin margin the ghost selection
/// over-approximated with. A rebuild refills the lists in place.
#[derive(Default)]
struct GhostEpoch {
    /// Owned particle ids in solver (cell-sorted) order at build time.
    ids: Vec<u64>,
    /// Linked-cell keys of those particles at build time.
    keys: Vec<u32>,
    /// The owned indices (solver order) duplicated to each partner, slot
    /// after slot, and per partner slot how many of them go there.
    sends: Vec<u32>,
    counts: Vec<usize>,
    /// Selection margin headroom beyond the cutoff; negative when the routes
    /// hold for this step only.
    skin: f64,
    /// Maximum-movement bounds accumulated since the epoch was built.
    acc_move: f64,
}

impl GhostEpoch {
    /// What the routes cost to keep: four bytes per index, eight per slot.
    fn route_bytes(&self) -> u64 {
        (4 * self.sends.len() + 8 * self.counts.len()) as u64
    }
}

/// The parallel particle-mesh Ewald solver (P2NFFT stand-in).
///
/// One instance lives on every rank; all methods taking a [`Comm`] are
/// collective.
pub struct PmSolver {
    cfg: PmConfig,
    bbox: SystemBox,
    grid: CartGrid,
    statics: Option<PlanStatics>,
    epoch: Option<GhostEpoch>,
    ws: Workspace,
    /// The far field's geometry and patch routes, fixed per solver.
    far_plan: FarFieldPlan,
    /// Cross-timestep tables and workspace of the far field; host-side only,
    /// bitwise invisible to results and virtual clocks.
    far_cache: FarFieldCache,
    /// The resort plan built from the owner redistribution's routes, kept
    /// to be rebuilt in place by every run that resorts.
    resort_plan: Option<ResortPlan>,
    /// Ghost-plan epochs built (including rebuilds) over the solver lifetime.
    pub plan_builds: u64,
    /// Runs that re-executed a cached ghost-plan epoch.
    pub plan_hits: u64,
    /// Movement-bound guard fallbacks over the solver lifetime (neighbourhood
    /// exchanges abandoned for the collective all-to-all).
    pub guard_fallbacks: u64,
    /// Report of the most recent run.
    pub last_report: PmRunReport,
}

impl PmSolver {
    /// Create a solver for `nprocs` ranks arranged in a balanced 3D grid.
    /// The box must be fully periodic. The cutoff must not exceed the
    /// smallest subdomain width (ghost exchange uses one ring of neighbours).
    pub fn new(bbox: SystemBox, cfg: PmConfig, nprocs: usize) -> Self {
        assert!(bbox.fully_periodic(), "the particle-mesh solver needs a periodic box");
        assert!(cfg.mesh.is_power_of_two(), "mesh must be a power of two");
        let grid = CartGrid::balanced(nprocs);
        let dims = grid.dims();
        let min_width =
            (0..3).map(|d| bbox.lengths[d] / dims[d] as f64).fold(f64::INFINITY, f64::min);
        assert!(
            cfg.rcut <= min_width + 1e-12,
            "cutoff {rcut} exceeds the smallest subdomain width {min_width}; \
             use fewer processes or a smaller cutoff",
            rcut = cfg.rcut
        );
        let far_plan = FarFieldPlan::new(cfg.mesh, cfg.assign_order, cfg.alpha, dims, bbox);
        PmSolver {
            cfg,
            bbox,
            grid,
            statics: None,
            epoch: None,
            ws: Workspace::default(),
            far_plan,
            far_cache: FarFieldCache::default(),
            resort_plan: None,
            plan_builds: 0,
            plan_hits: 0,
            guard_fallbacks: 0,
            last_report: PmRunReport::default(),
        }
    }

    /// The solver's configuration.
    pub fn config(&self) -> &PmConfig {
        &self.cfg
    }

    /// Drop all cached cross-timestep planning state (the ghost-plan epoch
    /// with its accumulated-movement accounting, and the resort plan of the
    /// last run). Recovery paths that rewind the simulation call this on
    /// every rank before replaying; plan state is bitwise invisible to the
    /// physics, so dropping it is always safe. The decomposition-static
    /// scaffolding (26-neighbourhood and its ghost offsets) carries no
    /// movement state and is kept.
    pub fn invalidate_plans(&mut self) {
        self.epoch = None;
        self.resort_plan = None;
    }

    /// The resort plan of the last run that resorted (a Method B run not
    /// sent home by the capacity test); `None` before the first such run and
    /// after [`PmSolver::invalidate_plans`]. It sends additional data in the
    /// input order along the routes of the owner redistribution and places
    /// it in the linked-cell order — on a quiet step, the identity (see
    /// [`atasp::hand_back`]). A run that restored leaves it stale.
    pub fn resort_plan(&self) -> Option<&ResortPlan> {
        self.resort_plan.as_ref()
    }

    /// Epoch lifetime the skin margin is sized for, in per-step maximum
    /// movements: the plan stays valid for about this many steps at the
    /// build-time drift rate. Larger values rebuild less often but duplicate
    /// a thicker (more expensive) boundary layer every step.
    const SKIN_STEPS: f64 = 8.0;

    /// The skin margin a cached ghost plan adds beyond the cutoff: sized for
    /// [`Self::SKIN_STEPS`] steps of the build-time movement bound, capped by
    /// the headroom to the smallest subdomain width and by half the cutoff
    /// (so the extra ghost volume stays bounded). Zero means the plan cannot
    /// be cached (the cutoff fills the subdomain, or nothing moves).
    fn ghost_skin(&self, movement: f64) -> f64 {
        let dims = self.grid.dims();
        let min_width =
            (0..3).map(|d| self.bbox.lengths[d] / dims[d] as f64).fold(f64::INFINITY, f64::min);
        ((min_width - self.cfg.rcut).max(0.0))
            .min(0.5 * self.cfg.rcut)
            .min(Self::SKIN_STEPS * movement)
    }

    /// Build the rank-dependent plan scaffolding (26-neighbourhood and its
    /// alias-merged ghost offsets) on the first run, charged as one plan
    /// build: a copy of the partner list.
    fn ensure_statics(&mut self, comm: &mut Comm) {
        let me = comm.rank();
        if self.statics.as_ref().is_some_and(|s| s.rank == me) {
            return;
        }
        let t0 = comm.clock();
        let neighbors = self.grid.neighbors26(me);
        let bytes = std::mem::size_of_val(&neighbors[..]) as u64;
        comm.compute(Work::ByteCopy, bytes as f64);
        comm.note_plan_build(t0, bytes);
        let ghost_offsets = ghost_offsets(&self.grid, me, &neighbors);
        self.statics = Some(PlanStatics {
            rank: me,
            neighborhood_mode: ExchangeMode::Neighborhood(neighbors),
            ghost_offsets,
        });
        self.epoch = None;
    }

    /// Execute the solver; the results go back through [`atasp::hand_back`],
    /// which has the semantics of `method` and `max_local`.
    ///
    /// With limited movement (Method B), the owner redistribution switches
    /// from the collective all-to-all to neighbourhood point-to-point
    /// communication (paper Sect. III-B): the sparse exchange of
    /// [`ExchangeMode::Neighborhood`], which sends only to the neighbours a
    /// rank has particles for. Under Method B the resort plan of the
    /// application's additional data is built from this redistribution's
    /// routes and the linked-cell order, with no resort index built or
    /// exchanged ([`PmSolver::resort_plan`]); it follows the same routes.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        comm: &mut Comm,
        pos: &[Vec3],
        charge: &[f64],
        id: &[u64],
        method: RedistMethod,
        movement: MovementHint,
        max_local: usize,
    ) -> SolverOutput {
        let n_in = pos.len();
        assert_eq!(charge.len(), n_in);
        assert_eq!(id.len(), n_in);
        let me = comm.rank();
        assert_eq!(comm.size(), self.grid.size(), "world size must match the process grid");
        self.last_report = PmRunReport::default();
        self.ensure_statics(comm);
        let skin_bound = movement.map_or(0.0, |m| self.ghost_skin(m));
        let t_start = comm.clock();
        let dims = self.grid.dims();
        let rcut = self.cfg.rcut;
        let bbox = self.bbox;

        // Movement heuristic: limited movement keeps every particle's new
        // owner within the holder's direct grid neighbourhood.
        let min_width =
            (0..3).map(|d| self.bbox.lengths[d] / dims[d] as f64).fold(f64::INFINITY, f64::min);
        let use_neighborhood =
            method == RedistMethod::UseChanged && movement.is_some_and(|m| m < min_width);
        self.last_report.used_neighborhood = use_neighborhood;
        let statics = self.statics.as_ref().expect("statics built above");
        let collective = ExchangeMode::Collective;
        // --- Redistribute particles to their subdomain owners ---
        comm.enter_phase("sort");
        let mut ws = std::mem::take(&mut self.ws);
        ws.records.clear();
        ws.records.extend((0..n_in).map(|i| Particle {
            pos: pos[i],
            charge: charge[i],
            id: id[i],
            origin: encode_index(me, i),
        }));
        ws.targets.clear();
        ws.targets.extend(pos.iter().map(|&x| grid_rank_of(dims, &bbox, x)));
        let (records, targets) = (&ws.records, &ws.targets);
        comm.compute(Work::ParticleOp, n_in as f64);
        self.last_report.redist_sent = targets.iter().filter(|&&t| t != me).count() as u64;
        // Movement-bound guard (fault-injected worlds only): a lying movement
        // hint can select the neighbourhood exchange while some particle's
        // new owner lies outside the 26-neighbourhood — the grouped exchange
        // would panic on the unreachable target. Check the claim against the
        // actual targets (one pass plus one allreduce, piggybacking the
        // existing capacity/quiet reduction pattern) and fall back to the
        // collective all-to-all for this step when any rank sees a
        // violation, dropping the cached ghost-plan epoch whose
        // accumulated-movement accounting the lie corrupted. Both exchange
        // modes deliver identical data (received particles are ordered by
        // source rank either way), so the fallback changes cost, never
        // results. Honest hints always pass: movement below the smallest
        // subdomain width cannot carry a particle past a direct neighbour.
        let mut use_neighborhood = use_neighborhood;
        if use_neighborhood && comm.fault_active() {
            let neighbors = statics.partners();
            let ok_local = targets.iter().all(|&t| t == me || neighbors.contains(&t));
            comm.compute(Work::ParticleOp, n_in as f64);
            if !comm.allreduce(ok_local, |a, b| a && b) {
                use_neighborhood = false;
                self.last_report.used_neighborhood = false;
                self.last_report.movement_guard_fallback = true;
                self.guard_fallbacks += 1;
                self.epoch = None;
            }
        }
        let mode = if use_neighborhood { &statics.neighborhood_mode } else { &collective };
        let arrived = alltoall_specific_routed(comm, records, targets, mode, &mut ws.routes);

        // --- Sort particles into linked-cell boxes (the solver-specific
        // local order; paper: "a reordering of the particles is performed on
        // each process") ---
        //
        // With a cached plan epoch, the placement permutation is part of the
        // plan: if the owned sequence is unchanged and every particle is
        // still in its linked cell (and the accumulated movement stays under
        // the epoch's skin), the data is already in solver order — the sort
        // and the ghost route selection are both skipped and the frozen
        // routes re-executed.
        let (lo, hi) = grid_cell_bounds(dims, &bbox, me);
        let cell_key = |p: Vec3| -> u32 {
            let mut key = 0u32;
            for d in 0..3 {
                let c = (((p[d] - lo[d]) / rcut).floor().max(0.0) as u32).min(255);
                key = key << 8 | c;
            }
            key
        };
        ws.keys.clear();
        ws.keys.extend(arrived.iter().map(|r| cell_key(r.pos)));
        let keys = &ws.keys;
        comm.compute(Work::ParticleOp, arrived.len() as f64);
        let epoch_hit = match (&mut self.epoch, movement) {
            (Some(ep), Some(m)) => {
                let valid = ep.acc_move + m <= ep.skin
                    && ep.ids.len() == arrived.len()
                    && ep.keys == *keys
                    && ep.ids.iter().zip(&arrived).all(|(&eid, r)| eid == r.id);
                if valid {
                    ep.acc_move += m;
                }
                valid
            }
            _ => false,
        };
        // The sort is a permutation (ascending index among equal keys: the
        // order of a stable sort) and one gather, charged as psort charges
        // its local sort: one comparison per particle and counting pass. On
        // an epoch hit the keys are the epoch's, already in order: the
        // permutation is the identity, and it is part of the plan.
        let passes = linked_cell_order(keys, &mut ws.order, &mut ws.scratch);
        if !epoch_hit {
            comm.compute(Work::SortCmp, f64::from(passes) * arrived.len() as f64);
        }
        ws.records.clear();
        ws.records.extend(ws.order.iter().map(|&j| arrived[j as usize]));
        drop(arrived);
        let owned = &ws.records;
        comm.exit_phase();

        // --- Ghost exchange: duplicate boundary particles to neighbours
        // within the cutoff plus the plan's skin margin (always
        // point-to-point with the 26 grid neighbours, one message each, empty
        // or not; a ghost is its position and charge, all the near field
        // reads).
        //
        // The skin over-approximates the selection: every particle within
        // `rcut + skin` of a boundary is duplicated, so the routes stay a
        // superset of the needed ghosts while total movement since the epoch
        // build is below the skin. Beyond-cutoff ghosts contribute nothing to
        // the near field (pairs are filtered by `rcut` exactly), and the
        // relative order of contributing ghosts is the frozen emission order
        // either way — results are bitwise identical to a fresh rebuild.
        comm.enter_phase("ghosts");
        let t_plan = comm.clock();
        if epoch_hit {
            self.last_report.ghost_plan_reused = true;
            self.plan_hits += 1;
        } else {
            // Fresh route selection over the merged alias offsets (at most
            // one emission per particle and partner — the receiver never
            // needs to deduplicate).
            let margin = rcut + skin_bound;
            let epoch = self.epoch.get_or_insert_with(GhostEpoch::default);
            let tests = select_ghosts(
                &statics.ghost_offsets,
                statics.partners().len(),
                owned,
                (lo, hi),
                margin,
                &mut ws.scratch,
                &mut epoch.sends,
                &mut epoch.counts,
            );
            comm.compute(Work::ParticleOp, tests as f64);
            epoch.ids.clear();
            epoch.keys.clear();
            epoch.acc_move = 0.0;
            epoch.skin = -1.0;
            // Snapshot the epoch when caching is possible: the sorted id
            // sequence and cell keys pin the placement, the skin bounds
            // the route validity under movement.
            if skin_bound > 0.0 {
                self.plan_builds += 1;
                // Epoch snapshot (keys recomputed in solver order).
                comm.compute(Work::ParticleOp, owned.len() as f64);
                let route_bytes = epoch.route_bytes();
                epoch.ids.extend(owned.iter().map(|r| r.id));
                epoch.keys.extend(owned.iter().map(|r| cell_key(r.pos)));
                epoch.skin = skin_bound;
                comm.note_plan_build(t_plan, route_bytes);
            }
        }
        let epoch = self.epoch.as_ref().expect("epoch set above");
        if epoch.skin >= 0.0 {
            // One route-plan execution per step in cacheable mode (hit or
            // just rebuilt), pairing the `plan_build` above — the partner
            // schedule's own execution is counted at the exchange below.
            comm.note_plan_exec(t_plan, epoch.route_bytes());
        }
        // One buffer per partner, in partner order, each refilled from the
        // one that partner sent the step before.
        let mut recv = ws.ghosts_recv.drain(..).map(|(_, buf)| buf);
        let mut sent = epoch.sends.iter();
        for (&q, &count) in statics.partners().iter().zip(&epoch.counts) {
            let mut buf = recv.next().unwrap_or_default();
            buf.clear();
            buf.extend(sent.by_ref().take(count).map(|&j| {
                let rec = &owned[j as usize];
                (rec.pos, rec.charge)
            }));
            ws.ghosts_sent.push((q, buf));
        }
        drop(recv);
        let sent_bytes = (epoch.sends.len() * std::mem::size_of::<(Vec3, f64)>()) as u64;
        comm.compute(Work::ByteCopy, sent_bytes as f64);
        let t_exchange = comm.clock();
        let partners = statics.partners().iter().copied();
        comm.routed_exchange_into(partners, &mut ws.ghosts_sent, &mut ws.ghosts_recv, TAG_GHOSTS);
        comm.note_plan_exec(t_exchange, sent_bytes);
        let received: usize = ws.ghosts_recv.iter().map(|(_, buf)| buf.len()).sum();
        self.last_report.ghosts_received = received as u64;
        self.last_report.ghost_bytes = (received * std::mem::size_of::<(Vec3, f64)>()) as u64;
        comm.exit_phase();
        let t_sorted = comm.clock();

        // --- Near field (linked cells) under the far field (mesh): the
        // near field's cells run while the far field's exchanges are in
        // flight (DESIGN.md, "Near field under the far field's exchanges").
        ws.pos.clear();
        ws.pos.extend(owned.iter().map(|r| r.pos));
        ws.charge.clear();
        ws.charge.extend(owned.iter().map(|r| r.charge));
        let sources = ws.pos.iter().copied().zip(ws.charge.iter().copied());
        let cfg = (self.cfg.alpha, self.cfg.rcut, self.cfg.soft_core);
        let ghosts = ws.ghosts_recv.iter().flat_map(|(_, buf)| buf.iter().copied());
        let sources = sources.chain(ghosts);
        let mut near = NearField::new(&self.bbox, cfg, (lo, hi), owned.len(), sources);
        let mut chunks = NearChunks::default();

        comm.enter_phase("far");
        let (far_phi, far_field) = self.far_plan.execute_into(
            comm,
            &ws.pos,
            &ws.charge,
            &mut self.far_cache,
            &mut |comm, overlap| chunks.fill(comm, &mut near, overlap),
        );
        debug_assert_eq!(chunks.next, near.cells(), "the last exchange runs every cell left");
        self.last_report.near_pairs = chunks.pairs;
        let (mut potential, mut field) = near.finish();
        for i in 0..owned.len() {
            potential[i] += far_phi[i];
            field[i] += far_field[i];
        }
        self.last_report.far_bytes = self.far_cache.sent_bytes();
        comm.exit_phase();

        let solved = Solved {
            records: owned,
            potential: &mut potential,
            field: &mut field,
            columns: Some((&mut ws.pos, &mut ws.charge)),
            input: (pos, charge, id),
            routed: Routed {
                route: Route::Recorded(&ws.routes, &ws.order),
                collective: *mode == ExchangeMode::Collective,
                plan: &mut self.resort_plan,
            },
            restore: &mut ws.restore,
        };
        let (out, skipped) = hand_back(comm, method, max_local, solved, [t_start, t_sorted]);
        self.last_report.resort_exchange_skipped = skipped;
        self.ws = ws;
        out
    }
}

/// How the near field's cells split over the far field's exchanges: in
/// cell order, in proportion to the exchanges' backgrounds. Exchange `k`
/// runs the cells that bring the candidate pairs run so far
/// ([`NearField::candidates`]) to the share of all of them that the
/// backgrounds of exchanges `0..=k` are of all backgrounds, and the last
/// runs every cell left. The split is a pure function of the far field's
/// byte counts, the machine model and the cells' occupancy — no clock
/// decides it —, and a uniform error in what a candidate costs moves no
/// cell: with less near work than background every exchange hides its
/// share, with more every background is full.
#[derive(Default)]
struct NearChunks {
    /// The first cell not run yet.
    next: usize,
    /// Candidate pairs of the cells run so far, and of all cells.
    done: u64,
    total: u64,
    /// Pair interactions evaluated so far.
    pairs: u64,
}

impl NearChunks {
    /// Run the next chunk of `near`'s cells while the exchange `overlap`
    /// names is in flight, charged as `near` time.
    fn fill(&mut self, comm: &mut Comm, near: &mut NearField, overlap: Overlap<'_>) {
        let Overlap { window, backgrounds } = overlap;
        let (first, cells) = (self.next, near.cells());
        if window == 0 {
            self.total = (0..cells).map(|c| near.candidates(c)).sum();
        }
        if window + 1 == backgrounds.len() {
            self.next = cells;
        } else {
            let all: f64 = backgrounds.iter().sum();
            let share =
                if all > 0.0 { backgrounds[..=window].iter().sum::<f64>() / all } else { 0.0 };
            let target = share * self.total as f64;
            while self.next < cells && (self.done as f64) < target {
                self.done += near.candidates(self.next);
                self.next += 1;
            }
        }
        if first < self.next {
            let pairs = near.run(first..self.next);
            comm.with_phase("near", |comm| comm.compute(Work::Interaction, pairs as f64));
            self.pairs += pairs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The route selection [`select_ghosts`] replaced, kept verbatim as its
    /// oracle: per partner slot, every owned particle tested against every
    /// stencil offset aliasing to that slot, the full distance each time.
    fn oracle(
        grid: &CartGrid,
        me: usize,
        owned: &[Particle],
        (lo, hi): (Vec3, Vec3),
        margin: f64,
    ) -> (Vec<u32>, Vec<usize>, usize) {
        let partners = grid.neighbors26(me);
        let mut ghost_routes: Vec<Vec<[i64; 3]>> = partners.iter().map(|_| Vec::new()).collect();
        let mut n_offsets = 0usize;
        for ddx in -1..=1i64 {
            for ddy in -1..=1i64 {
                for ddz in -1..=1i64 {
                    if ddx == 0 && ddy == 0 && ddz == 0 {
                        continue;
                    }
                    let nb = grid.shifted_rank(me, [ddx as isize, ddy as isize, ddz as isize]);
                    if nb == me {
                        continue;
                    }
                    let slot = partners.iter().position(|&q| q == nb).unwrap();
                    ghost_routes[slot].push([ddx, ddy, ddz]);
                    n_offsets += 1;
                }
            }
        }
        let (mut sends, mut counts) = (Vec::new(), Vec::new());
        for offsets in &ghost_routes {
            let reached = |rec: &Particle| {
                offsets.iter().any(|&[ddx, ddy, ddz]| {
                    let mut dist2 = 0.0;
                    for (d, dd) in [ddx, ddy, ddz].into_iter().enumerate() {
                        let g = match dd {
                            1 => hi[d] - rec.pos[d],
                            -1 => rec.pos[d] - lo[d],
                            _ => 0.0,
                        };
                        dist2 += g * g;
                    }
                    dist2 <= margin * margin
                })
            };
            let before = sends.len();
            sends.extend((0u32..).zip(owned).filter(|(_, r)| reached(r)).map(|(j, _)| j));
            counts.push(sends.len() - before);
        }
        (sends, counts, n_offsets)
    }

    fn particle(pos: Vec3) -> Particle {
        Particle { pos, charge: 1.0, id: 0, origin: 0 }
    }

    /// For every stencil offset, a particle whose distance to that offset's
    /// face, edge or corner is exactly `margin`, and the same particle one
    /// ulp farther out. The gaps are `m`, `(3 m / 5, 4 m / 5)` and
    /// `(m / 3, 2 m / 3, 2 m / 3)`; for `m` a multiple of `15 / 16` their
    /// squares sum to `m * m` without rounding (asserted).
    fn exact_particles((lo, hi): (Vec3, Vec3), margin: f64) -> Vec<Particle> {
        let mut out = Vec::new();
        for ddx in -1..=1i64 {
            for ddy in -1..=1i64 {
                for ddz in -1..=1i64 {
                    let delta = [ddx, ddy, ddz];
                    let gaps: &[f64] = match delta.iter().filter(|&&dd| dd != 0).count() {
                        0 => continue,
                        1 => &[margin],
                        2 => &[3.0 * margin / 5.0, 4.0 * margin / 5.0],
                        _ => &[margin / 3.0, 2.0 * margin / 3.0, 2.0 * margin / 3.0],
                    };
                    let check = gaps.iter().fold(0.0, |acc, g| acc + g * g);
                    assert_eq!(check, margin * margin, "{delta:?}: the gaps are exact");
                    for beyond in [false, true] {
                        let mut pos = (lo + hi) * 0.5;
                        let mut k = 0;
                        for d in 0..3 {
                            let g = gaps.get(k).copied().unwrap_or(0.0);
                            let g = if beyond && k == 0 { g.next_up() } else { g };
                            match delta[d] {
                                1 => pos[d] = hi[d] - g,
                                -1 => pos[d] = lo[d] + g,
                                _ => continue,
                            }
                            k += 1;
                        }
                        out.push(particle(pos));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn ghost_routes_from_face_gaps_match_the_26_offset_oracle() {
        let mut grids: Vec<[usize; 3]> = vec![[2, 2, 2]];
        for p in [1, 2, 3, 5, 8, 27, 64] {
            grids.extend([CartGrid::balanced(p).dims(), [1, 1, p], [p, 1, 1]]);
        }
        let mut seed = 45;
        let (mut reach, mut sends, mut counts) = (Vec::new(), Vec::new(), Vec::new());
        for dims in grids {
            let grid = CartGrid::new(dims);
            // Subdomains two units wide, so every bound is exact.
            let lengths =
                Vec3::new(2.0 * dims[0] as f64, 2.0 * dims[1] as f64, 2.0 * dims[2] as f64);
            let bbox = SystemBox::new(Vec3::ZERO, lengths, [true; 3]);
            for me in 0..grid.size() {
                let offsets = ghost_offsets(&grid, me, &grid.neighbors26(me));
                let bounds = grid_cell_bounds(dims, &bbox, me);
                let lo = bounds.0;
                // The cutoff alone and the cutoff plus a skin, each at a
                // margin where the exact placements are exact (15 / 8 and
                // 15 / 16) and at one where they are not.
                for (rcut, skin) in [(1.875, 0.0), (0.625, 0.3125), (0.5, 0.0), (0.7, 0.65)] {
                    let margin: f64 = rcut + skin;
                    let exact_margin = margin % 0.9375 == 0.0;
                    let mut u = || (splitmix(&mut seed) >> 11) as f64 / (1u64 << 53) as f64;
                    let mut place = |from: f64, width: f64| {
                        let mut pos = lo;
                        for d in 0..3 {
                            pos[d] += from + width * u();
                        }
                        particle(pos)
                    };
                    let random: Vec<Particle> = (0..64).map(|_| place(0.0, 2.0)).collect();
                    // Within `margin` of every face: in `[hi - margin, lo + margin]`.
                    let central: Vec<Particle> = if margin >= 1.0 {
                        (0..64).map(|_| place(2.0 - margin, 2.0 * margin - 2.0)).collect()
                    } else {
                        Vec::new()
                    };
                    let exact =
                        if exact_margin { exact_particles(bounds, margin) } else { Vec::new() };
                    for (what, owned) in [
                        ("empty", &[][..]),
                        ("random", &random),
                        ("central", &central),
                        ("exact", &exact),
                    ] {
                        let n_slots = grid.neighbors26(me).len();
                        let charge = select_ghosts(
                            &offsets,
                            n_slots,
                            owned,
                            bounds,
                            margin,
                            &mut reach,
                            &mut sends,
                            &mut counts,
                        );
                        let (want_sends, want_counts, n_offsets) =
                            oracle(&grid, me, owned, bounds, margin);
                        let case = format!("{dims:?} rank {me} margin {margin} {what}");
                        assert_eq!(sends, want_sends, "{case}: sends");
                        assert_eq!(counts, want_counts, "{case}: counts");
                        let full = (owned.len() * n_offsets) as u64;
                        assert!(charge <= full, "{case}: charged {charge} > {full}");
                        if what == "central" && margin >= 1.0 {
                            assert_eq!(charge, full, "{case}: every face is near");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn linked_cell_order_is_the_key_index_comparison_sort() {
        let mut seed = 7;
        // Linked-cell keys: three 8-bit cell coordinates.
        let mut key =
            |cells: u64| (0..3).fold(0, |k, _| (k << 8) | (splitmix(&mut seed) % cells) as u32);
        let random: Vec<u32> = (0..600).map(|_| key(256)).collect();
        let duplicates: Vec<u32> = (0..600).map(|_| key(2)).collect();
        let mut sorted = random.clone();
        sorted.sort_unstable();
        let (mut order, mut scratch) = (Vec::new(), Vec::new());
        for (what, keys) in [
            ("no particle", &[][..]),
            ("one particle", &[0x01_0203][..]),
            ("random", &random),
            ("duplicate-heavy", &duplicates),
            ("sorted", &sorted),
        ] {
            let n = keys.len() as u32;
            let mut want: Vec<u32> = (0..n).collect();
            want.sort_unstable_by_key(|&j| (keys[j as usize], j));
            let passes = linked_cell_order(keys, &mut order, &mut scratch);
            assert_eq!(order, want, "{what}");
            assert!(passes <= 3, "{what}: {passes} passes");
        }
        // Sorted keys are the identity, placed in the kept order buffer
        // without touching the scatter buffer.
        let (kept, mut scratch) = (order.as_ptr(), Vec::new());
        linked_cell_order(&sorted, &mut order, &mut scratch);
        assert_eq!(order, (0..sorted.len() as u32).collect::<Vec<_>>());
        assert_eq!((order.as_ptr(), scratch.capacity()), (kept, 0));
    }
}
