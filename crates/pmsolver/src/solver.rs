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
use simcomm::{CartGrid, Comm, CommPlan, Work};

use crate::farfield::{FarFieldCache, FarFieldPlan};
use crate::nearfield::near_field_of;

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
    /// input particles in their input order, so the resort indices are the
    /// identity, built without an exchange, and no resort plan is built from
    /// the routes. `fcs` then resorts the step's additional data locally,
    /// with no message and no barrier.
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

/// Message tag of the persistent ghost-exchange plan.
const TAG_GHOSTS: u64 = 0x67_686f_7374; // "ghost"

/// Rank-dependent, decomposition-static scaffolding of the ghost plan: the
/// 26-neighbourhood and everything derivable from it alone. Built once on the
/// first run (the solver learns its rank then) and kept for the lifetime of
/// the decomposition — this removes the per-step `neighbors26` recomputation
/// and the two per-step clones of the partner list the old code paid.
struct PlanStatics {
    rank: usize,
    /// Prebuilt neighbourhood exchange mode, borrowed every step.
    neighborhood_mode: ExchangeMode,
    /// Persistent message-layer plan for the ghost exchange (partner slots in
    /// [`CommPlan::partners`] order).
    comm_plan: CommPlan,
    /// Per partner slot: the 26-stencil offsets whose shifted rank aliases to
    /// that partner (several on tiny grids with periodic wrap). Merging the
    /// aliases *here* means a particle is emitted at most once per partner,
    /// so the receiver-side `sort`+`dedup` of the old code is gone entirely.
    ghost_routes: Vec<Vec<[i64; 3]>>,
    /// Total stencil offsets across all routes (the per-particle cost of one
    /// fresh route selection).
    n_offsets: usize,
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
    keys: Vec<u64>,
    /// The linked-cell order: the `j`-th owned particle is the `order[j]`-th
    /// to arrive.
    order: Vec<u32>,
    /// The owned particles as columns (moved into the output under Method B).
    pos: Vec<Vec3>,
    charge: Vec<f64>,
    restore: Restore,
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
    keys: Vec<u64>,
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
    /// to be rebuilt in place; `resort_plan_fresh` says the last run built
    /// it.
    resort_plan: Option<ResortPlan>,
    resort_plan_fresh: bool,
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
            resort_plan_fresh: false,
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

    /// The process grid used for the domain decomposition.
    pub fn process_grid(&self) -> &CartGrid {
        &self.grid
    }

    /// Drop all cached cross-timestep planning state (the ghost-plan epoch
    /// with its accumulated-movement accounting, and the resort plan of the
    /// last run). Recovery paths that rewind the simulation call this on
    /// every rank before replaying; plan state is bitwise invisible to the
    /// physics, so dropping it is always safe. The decomposition-static
    /// scaffolding (26-neighbourhood, persistent [`CommPlan`]) carries no
    /// movement state and is kept.
    pub fn invalidate_plans(&mut self) {
        self.epoch = None;
        self.resort_plan = None;
    }

    /// The resort plan of the last run, if it built one: after a Method B
    /// run that was neither quiet nor sent home by the capacity test. It
    /// sends additional data in the input order along the routes of the
    /// owner redistribution and places it in the linked-cell order, so the
    /// run returned no resort indices (see [`atasp::hand_back`]).
    pub fn resort_plan(&self) -> Option<&ResortPlan> {
        self.resort_plan.as_ref().filter(|_| self.resort_plan_fresh)
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

    /// Build the rank-dependent plan scaffolding (26-neighbourhood, alias
    /// routes, persistent message plan) on the first run.
    fn ensure_statics(&mut self, comm: &mut Comm) {
        let me = comm.rank();
        if self.statics.as_ref().is_some_and(|s| s.rank == me) {
            return;
        }
        let neighbors = self.grid.neighbors26(me);
        let comm_plan = comm.plan_exchange(neighbors.clone(), TAG_GHOSTS);
        let mut ghost_routes: Vec<Vec<[i64; 3]>> =
            comm_plan.partners().iter().map(|_| Vec::new()).collect();
        let mut n_offsets = 0usize;
        for ddx in -1..=1i64 {
            for ddy in -1..=1i64 {
                for ddz in -1..=1i64 {
                    if ddx == 0 && ddy == 0 && ddz == 0 {
                        continue;
                    }
                    let nb = self.grid.shifted_rank(me, [ddx as isize, ddy as isize, ddz as isize]);
                    if nb == me {
                        continue;
                    }
                    let slot = comm_plan
                        .partners()
                        .iter()
                        .position(|&q| q == nb)
                        .expect("shifted rank is a 26-neighbour");
                    ghost_routes[slot].push([ddx, ddy, ddz]);
                    n_offsets += 1;
                }
            }
        }
        self.statics = Some(PlanStatics {
            rank: me,
            neighborhood_mode: ExchangeMode::Neighborhood(neighbors),
            comm_plan,
            ghost_routes,
            n_offsets,
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
        let statics = self.statics.as_mut().expect("statics built above");
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
            let ExchangeMode::Neighborhood(neighbors) = &statics.neighborhood_mode else {
                unreachable!("statics always hold a neighbourhood mode")
            };
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
        let cell_key = |p: Vec3| -> u64 {
            let mut key = 0u64;
            for d in 0..3 {
                let c = (((p[d] - lo[d]) / rcut).floor().max(0.0) as u64).min(255);
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
        // order of a stable sort) and one gather; on an epoch hit it is the
        // identity.
        let n_owned = u32::try_from(arrived.len()).expect("more than u32::MAX particles");
        ws.order.clear();
        ws.order.extend(0..n_owned);
        if !epoch_hit {
            ws.order.sort_unstable_by_key(|&j| (keys[j as usize], j));
            comm.compute(
                Work::SortCmp,
                (arrived.len().max(2) as f64) * (arrived.len().max(2) as f64).log2(),
            );
        }
        ws.records.clear();
        ws.records.extend(ws.order.iter().map(|&j| arrived[j as usize]));
        drop(arrived);
        let owned = &ws.records;
        comm.exit_phase();

        // --- Ghost exchange: duplicate boundary particles to neighbours
        // within the cutoff plus the plan's skin margin (always
        // point-to-point with the 26 grid neighbours via the persistent
        // [`CommPlan`]; a ghost is its position and charge, all the near
        // field reads).
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
            epoch.sends.clear();
            epoch.counts.clear();
            for offsets in &statics.ghost_routes {
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
                let before = epoch.sends.len();
                epoch.sends.extend((0u32..).zip(owned).filter(|(_, r)| reached(r)).map(|(j, _)| j));
                epoch.counts.push(epoch.sends.len() - before);
            }
            comm.compute(Work::ParticleOp, (owned.len() * statics.n_offsets) as f64);
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
            // schedule's own execution is counted by `CommPlan::execute_flat`.
            comm.note_plan_exec(t_plan, epoch.route_bytes());
        }
        // One block for the copies sent, then — in place — for the ghosts
        // received; the near field is the last to read it.
        let mut ghosts: Vec<(Vec3, f64)> = Vec::with_capacity(epoch.sends.len());
        let copy = |&j: &u32| (owned[j as usize].pos, owned[j as usize].charge);
        ghosts.extend(epoch.sends.iter().map(copy));
        comm.compute(Work::ByteCopy, std::mem::size_of_val(&ghosts[..]) as f64);
        statics.comm_plan.execute_flat(comm, &mut ghosts, &epoch.counts);
        self.last_report.ghosts_received = ghosts.len() as u64;
        self.last_report.ghost_bytes = std::mem::size_of_val(&ghosts[..]) as u64;
        comm.exit_phase();
        let t_sorted = comm.clock();

        // --- Near field (linked cells) + far field (mesh) ---
        comm.enter_phase("near");
        ws.pos.clear();
        ws.pos.extend(owned.iter().map(|r| r.pos));
        ws.charge.clear();
        ws.charge.extend(owned.iter().map(|r| r.charge));
        let sources = ws.pos.iter().copied().zip(ws.charge.iter().copied());
        let (mut potential, mut field, pairs) = near_field_of(
            &self.bbox,
            self.cfg.alpha,
            self.cfg.rcut,
            self.cfg.soft_core,
            (lo, hi),
            owned.len(),
            sources.chain(ghosts.iter().copied()),
        );
        drop(ghosts);
        comm.compute(Work::Interaction, pairs as f64);
        self.last_report.near_pairs = pairs;
        comm.exit_phase();

        comm.enter_phase("far");
        let (far_phi, far_field) =
            self.far_plan.execute_into(comm, &ws.pos, &ws.charge, &mut self.far_cache);
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
        // The hand-back builds the plan exactly for the changed order of a
        // step that is not quiet.
        self.resort_plan_fresh = out.resorted && !skipped;
        self.ws = ws;
        out
    }
}
