//! The parallel FMM solver: Z-order domain decomposition by parallel sorting,
//! distributed tree construction with a locally essential set of multipoles,
//! near/far field evaluation, and the paper's two data redistribution paths
//! (restore-original vs. use-changed-with-resort-indices).

use atasp::{encode_index, hand_back, ResortPlan, Restore, Route, Routed, Solved};
use particles::{zorder, MovementHint, Particle, RedistMethod, SolverOutput, SystemBox, Vec3};
use psort::{
    merge_exchange_sort_by_key_capped, merge_exchange_sort_by_key_planned, partition_sort_by_key,
    KeySpan, SortPlan,
};
use simcomm::{push_segment, Comm, Work};

use crate::expansion::ExpansionOps;
use crate::stencil::{Stencil, TENSOR_SLOTS};
use crate::tree::{
    cell_center, cells_from_sorted_into, effective_source_center, leaf_key, neighbor_blocks,
    KeyOwners,
};

#[cfg(test)]
mod oracle;

/// A leaf cell: its key and its particles' range in the sorted array.
type Cell = (u64, std::ops::Range<usize>);

/// One octree level of a rank's tree. `keys` are the Morton keys of the
/// cells holding any of the rank's particles (the leaves, or the ancestors
/// of the leaves), ascending; the slabs hold one `nc`-strided expansion per
/// key, in the same order.
#[derive(Default)]
struct TreeLevel {
    keys: Vec<u64>,
    /// Partial multipoles (this rank's particles only).
    multipole: Vec<f64>,
    /// Local expansions.
    local: Vec<f64>,
}

/// The remote partial multipoles of one level: the keys of every
/// interaction-list source of the level's targets, ascending, the sum of the
/// other ranks' partials per key (`nc`-strided), and whether any rank
/// answered for the key.
#[derive(Default)]
struct RemoteLevel {
    keys: Vec<u64>,
    partial: Vec<f64>,
    present: Vec<bool>,
}

/// The locally essential tree plan: what the request and answer-key rounds
/// of [`FmmSolver::build_let_plan`] establish, kept so that a run whose tree
/// is the one the plan was built for — every rank's leaf keys and so every
/// rank's range unchanged — fetches its remote multipoles in one round
/// ([`FmmSolver::execute_let_plan`]) instead of three. The plan holds no
/// coefficient: those are packed and summed afresh by every run (DESIGN.md,
/// "FMM locally essential tree plan").
#[derive(Default)]
struct LetPlan {
    /// Whether the plan may serve the next run: built and not invalidated
    /// since.
    kept: bool,
    /// This rank's leaf keys and every rank's range when it was built.
    leaf_keys: Vec<u64>,
    owners: KeyOwners,
    /// The interaction-list sources of every level; `partial` is refilled
    /// by every execution.
    remote: Vec<RemoteLevel>,
    /// Holder side: `(level, slab index)` of every multipole this rank
    /// answers with, requester after requester, and `(requester, keys)` per
    /// requester in ascending rank (none answered is a zero-length entry).
    answers: Vec<(usize, usize)>,
    answer_segments: Vec<(usize, usize)>,
    /// Requester side: the `(level, remote index)` every received block is
    /// added to, in arrival order — ascending source rank, then the order the
    /// source answered in — and `(source, keys)` per answering rank.
    slots: Vec<(usize, usize)>,
    slot_sources: Vec<(usize, usize)>,
}

/// Index in the sorted `keys` of each child octant of `block` that has an
/// entry `keep` accepts.
fn child_indices(keys: &[u64], block: u64, keep: impl Fn(usize) -> bool) -> [Option<usize>; 8] {
    let first = zorder::child(block, 0);
    let mut out = [None; 8];
    let from = keys.partition_point(|&k| k < first);
    for (i, &k) in keys.iter().enumerate().skip(from).take_while(|&(_, &k)| k < first + 8) {
        if keep(i) {
            out[(k - first) as usize] = Some(i);
        }
    }
    out
}

/// What the M2L loop of one level keeps across runs.
struct FarLevel {
    stencil: Stencil,
    /// Derivative tensor per relative cell offset, indexed by the stencil's
    /// slots; empty until the first translation across that offset.
    tensors: Vec<Vec<f64>>,
}

/// A neighbour cell's particle as the near field reads it: position and
/// charge, 32 bytes of the 48 of a [`Particle`]. Ghosts are never owned, so
/// they carry neither id nor origin.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Ghost {
    pos: Vec3,
    charge: f64,
}

impl From<Particle> for Ghost {
    fn from(r: Particle) -> Self {
        Ghost { pos: r.pos, charge: r.charge }
    }
}

/// What a run stages on the way to its output, kept from run to run where
/// keeping costs no memory to speak of (DESIGN.md, "Workspaces"): what is
/// sized by cells, levels and partners, what a run holds on to until its end
/// anyway, and one value per particle. Nothing here carries meaning across
/// runs — every field is cleared, or resized and zeroed, by the step that
/// fills it, before the step that reads it.
#[derive(Default)]
struct Workspace {
    /// The sort's input, and from the previous run its output (recycled).
    keys: Vec<u64>,
    recs: Vec<Particle>,
    /// Method B's input keys: where each input ends is the owner of its key.
    input_keys: Vec<u64>,
    owners: KeyOwners,
    leaf_cells: Vec<Cell>,
    /// The boundary runs `align_cells` receives.
    boundary: Vec<Particle>,
    /// `(destination, leaf cell)` of every ghost copy.
    ghost_routes: Vec<(usize, usize)>,
    /// The ghosts received, with their keys and cell runs.
    ghosts: Vec<Ghost>,
    ghost_keys: Vec<u64>,
    ghost_cells: Vec<Cell>,
    segments: Vec<(usize, usize)>,
    sources: Vec<(usize, usize)>,
    tree: Vec<TreeLevel>,
    /// `(destination, level, key)` of every multipole request.
    request_routes: Vec<(usize, u32, u64)>,
    /// The requests received and the keys of the answers received.
    requests: Vec<(u32, u64)>,
    meta: Vec<(u32, u64)>,
    /// Results in sorted order (moved into the output under Method B).
    potential: Vec<f64>,
    field: Vec<Vec3>,
    restore: Restore,
}

/// Static configuration of the FMM solver.
#[derive(Clone, Debug, PartialEq)]
pub struct FmmConfig {
    /// Expansion order (total degree of the Cartesian Taylor expansions).
    pub order: usize,
    /// Octree depth: `8^level` leaf cells.
    pub level: u32,
    /// Optional short-range repulsive core evaluated in the near field
    /// (see [`particles::coupling::SoftCore`]). `None` = pure Coulomb.
    pub soft_core: Option<particles::SoftCore>,
}

impl FmmConfig {
    /// Choose level and order for a given system size and target relative
    /// potential accuracy — the solver's tuning step (`fcs_tune`). The level
    /// aims at a mean leaf occupancy of ~16 particles (balancing the P2P and
    /// M2L work); the order is calibrated against direct summation in this
    /// crate's tests.
    pub fn tuned(n_total: u64, accuracy: f64) -> Self {
        let target_cells = (n_total as f64 / 16.0).max(1.0);
        let level = ((target_cells.ln() / 8.0f64.ln()).round() as u32).clamp(1, 20);
        let order = if accuracy >= 1e-2 {
            2
        } else if accuracy >= 1e-3 {
            4
        } else if accuracy >= 1e-4 {
            6
        } else {
            8
        };
        FmmConfig { order, level, soft_core: None }
    }
}

/// Report of one FMM execution (in addition to the generic [`SolverOutput`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FmmRunReport {
    /// Whether the merge-based parallel sort was used (Method B + movement).
    pub used_merge_sort: bool,
    /// Near-field pair interactions evaluated.
    pub p2p_pairs: u64,
    /// M2L translations evaluated.
    pub m2l_count: u64,
    /// Particles exchanged by the parallel sort (sent from this rank).
    pub sort_sent: u64,
    /// Merge-network rounds skipped outright via the cached [`SortPlan`].
    pub sort_rounds_plan_skipped: u64,
    /// Whether the movement-bound guard abandoned a capped merge sort (the
    /// hint under-reported the real displacement) and fell back to the
    /// general partition sort this run. Only ever set on fault-injected
    /// worlds; see [`FmmSolver::run`].
    pub movement_guard_fallback: bool,
    /// Whether the far field reused the kept locally essential tree plan —
    /// one multipole round instead of three — because no rank's leaf cells
    /// changed since it was built.
    pub far_plan_hit: bool,
    /// Bytes of the ghost records (position and charge) this rank received
    /// for the near field.
    pub ghost_bytes: u64,
    /// Whether the step was quiet — every rank kept its input particles in
    /// their input order — so that the resort plan is the identity route:
    /// `fcs` resorts the step's additional data locally, with no message and
    /// no barrier.
    pub resort_exchange_skipped: bool,
}

/// The parallel Fast Multipole Method solver.
///
/// One instance lives on every rank; all methods that take a [`Comm`] are
/// collective (every rank of the world must call them in the same order).
pub struct FmmSolver {
    cfg: FmmConfig,
    bbox: SystemBox,
    periodic: bool,
    ops: ExpansionOps,
    /// Interaction stencil and derivative tensors of every level.
    far: Vec<FarLevel>,
    /// When set, `compute_fields` hands over to the oracle's version.
    #[cfg(test)]
    oracle: Option<oracle::Oracle>,
    /// Probe schedule recorded by the previous merge-based sort, if clean.
    sort_plan: Option<SortPlan>,
    /// Routes of the remote multipoles, kept while the tree repeats.
    let_plan: LetPlan,
    /// Method B's resort plan, rebuilt in place by every run that resorts.
    resort_plan: Option<ResortPlan>,
    ws: Workspace,
    /// Plans recorded over the solver lifetime: merge-sort probe schedules
    /// and locally essential tree plans.
    pub plan_builds: u64,
    /// Runs that consumed a previously recorded sort plan, plus runs whose
    /// far field reused the kept locally essential tree plan.
    pub plan_hits: u64,
    /// Movement-bound guard fallbacks over the solver lifetime (capped merge
    /// sorts abandoned for the general partition sort).
    pub guard_fallbacks: u64,
    /// Report of the most recent run.
    pub last_report: FmmRunReport,
}

impl FmmSolver {
    /// Create a solver for the given box and configuration. The box must be
    /// either fully periodic or fully open.
    pub fn new(bbox: SystemBox, cfg: FmmConfig) -> Self {
        let periodic = bbox.fully_periodic();
        assert!(
            periodic || bbox.periodic.iter().all(|&p| !p),
            "mixed periodicity is not supported"
        );
        let ops = ExpansionOps::new(cfg.order);
        let far = (0..=cfg.level)
            .map(|l| FarLevel {
                stencil: Stencil::new(l, periodic),
                // Levels 0 and 1 have no well-separated cells.
                tensors: vec![Vec::new(); if l < 2 { 0 } else { TENSOR_SLOTS }],
            })
            .collect();
        FmmSolver {
            cfg,
            bbox,
            periodic,
            ops,
            far,
            #[cfg(test)]
            oracle: None,
            sort_plan: None,
            let_plan: LetPlan::default(),
            resort_plan: None,
            ws: Workspace::default(),
            plan_builds: 0,
            plan_hits: 0,
            guard_fallbacks: 0,
            last_report: FmmRunReport::default(),
        }
    }

    /// The solver's configuration.
    pub fn config(&self) -> &FmmConfig {
        &self.cfg
    }

    /// Drop all cached cross-timestep planning state (the recorded merge-sort
    /// probe schedule, the locally essential tree plan and the resort plan
    /// of the last run). Recovery paths that rewind the simulation call this
    /// on every rank before replaying: a schedule recorded past the rollback
    /// point describes executions that are about to be repeated, and plan
    /// state is bitwise invisible to the physics, so dropping it is always
    /// safe.
    pub fn invalidate_plans(&mut self) {
        self.sort_plan = None;
        self.let_plan.kept = false;
        self.resort_plan = None;
    }

    /// The resort plan of the last run that resorted (a Method B run not
    /// sent home by the capacity test); `None` before the first such run and
    /// after [`FmmSolver::invalidate_plans`]. It sends additional data in the
    /// input order to the rank that owns each input's leaf key and places it
    /// in the solver's order — on a quiet step, the identity (see
    /// [`atasp::hand_back`]). A run that restored leaves it stale.
    pub fn resort_plan(&self) -> Option<&ResortPlan> {
        self.resort_plan.as_ref()
    }

    /// Execute the solver: compute potentials and field values for the given
    /// local particles, redistributing particle data according to `method`.
    ///
    /// * `method` = [`RedistMethod::RestoreOriginal`]: output arrays are in
    ///   the exact order and distribution of the input (Method A).
    /// * `method` = [`RedistMethod::UseChanged`]: output arrays are in the
    ///   solver's Z-order distribution (Method B), and the application's
    ///   additional data follows [`FmmSolver::resort_plan`]. Falls back to
    ///   restoring if any rank would exceed `max_local` particles.
    ///
    /// `movement` enables the merge-based parallel sort when the maximum
    /// particle movement is below the per-process cube side (paper heuristic,
    /// Sect. III-B); it is only honoured for [`RedistMethod::UseChanged`].
    ///
    /// The results go back through [`atasp::hand_back`]. Under Method B,
    /// after the cell alignment every leaf cell belongs wholly to the
    /// lowest rank whose sorted span holds its key, and every rank holds that
    /// map: each origin knows where every input went, with no message. The
    /// resort plan follows those routes — point to point after a merge sort,
    /// in an all-to-all-v after a partition sort — with no resort index
    /// built or exchanged. A step on which every rank keeps its input
    /// particles in their input order is quiet: its resort plan is the
    /// identity route, and [`FmmRunReport::resort_exchange_skipped`] is set.
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
        let p = comm.size();
        self.last_report = FmmRunReport::default();
        let t_start = comm.clock();
        comm.enter_phase("sort");

        // --- Keys and records ---
        let mut ws = std::mem::take(&mut self.ws);
        let (mut keys, mut recs) = (std::mem::take(&mut ws.keys), std::mem::take(&mut ws.recs));
        keys.clear();
        recs.clear();
        keys.extend(pos.iter().map(|&x| leaf_key(&self.bbox, x, self.cfg.level)));
        ws.input_keys.clear();
        if method == RedistMethod::UseChanged {
            ws.input_keys.extend_from_slice(&keys);
        }
        recs.extend((0..n_in).map(|i| Particle {
            pos: pos[i],
            charge: charge[i],
            id: id[i],
            origin: encode_index(me, i),
        }));
        comm.compute(Work::ParticleOp, n_in as f64);

        // --- Parallel sort (paper heuristic: merge-based iff the maximum
        // movement is below the per-process cube side) ---
        let use_merge = method == RedistMethod::UseChanged
            && movement.is_some_and(|m| m < self.bbox.per_process_cube_side(p));
        self.last_report.used_merge_sort = use_merge;
        let (mut keys, mut recs, spans, merged) = if use_merge {
            // Consume the probe schedule the previous merge sort recorded;
            // record this sort's schedule for the next step.
            // `use_merge` and the plan's presence are globally consistent, so
            // all ranks pass a plan from the same previous execution.
            let prior = self.sort_plan.take();
            let had_prior = prior.is_some();
            // Movement-bound guard (fault-injected worlds only): if the hint
            // under-reported the real displacement, merge-exchange cleanup can
            // degenerate into a full O(p)-round transposition. Cap it at
            // `2 + ceil(log2 p)` rounds and keep a pristine copy of the input
            // so a capped-out sort falls back to the general partition sort
            // below. `fault_active` and `p` are global, so the guard engages
            // collectively; inert fault plans take the uncapped path with no
            // backup — bit-for-bit the unguarded behaviour.
            let guarded = comm.fault_active();
            let backup = guarded.then(|| (keys.clone(), recs.clone()));
            let (k, r, rep, next) = if guarded {
                let cap = 2 + (p as f64).log2().ceil() as u64;
                merge_exchange_sort_by_key_capped(comm, keys, recs, prior.as_ref(), cap)
            } else {
                merge_exchange_sort_by_key_planned(comm, keys, recs, prior.as_ref())
            };
            if rep.cleanup_cap_hit {
                // The movement bound was violated: the data was not almost
                // sorted and the merge network capped out before reaching
                // global order. Abandon its result, invalidate the cached
                // schedule, and run the general sort on the pristine input
                // (identical input → identical output to a run that chose
                // the partition sort up front).
                let (bk, br) = backup.expect("cap can only be hit on guarded runs");
                self.last_report.movement_guard_fallback = true;
                self.guard_fallbacks += 1;
                self.sort_plan = None;
                let (k, r, rep2) = partition_sort_by_key(comm, bk, br);
                self.last_report.sort_sent = rep.sent_elems + rep2.sent_elems;
                (k, r, None, false)
            } else {
                self.last_report.sort_sent = rep.sent_elems;
                self.last_report.sort_rounds_plan_skipped = rep.rounds_plan_skipped;
                if had_prior {
                    self.plan_hits += 1;
                } else if next.is_some() {
                    self.plan_builds += 1;
                }
                self.sort_plan = next;
                (k, r, rep.spans, true)
            }
        } else {
            // A partition sort rebalances the whole distribution; any recorded
            // probe schedule is stale afterwards (dropped on every rank —
            // `use_merge` is a collective decision).
            self.sort_plan = None;
            let (k, r, rep) = partition_sort_by_key(comm, keys, recs);
            self.last_report.sort_sent = rep.sent_elems;
            (k, r, None, false)
        };

        // --- Align cells to rank boundaries (each leaf cell wholly owned by
        // the lowest rank holding any of its particles) ---
        self.align_cells(comm, &mut ws, &mut keys, &mut recs, spans);
        comm.exit_phase();
        let t_sorted = comm.clock();

        // --- Compute near + far field on the sorted particles ---
        self.compute_fields(comm, &mut ws, &keys, &recs);

        // Where input `i` went: the owner of its key — the lowest rank whose
        // gathered span holds it, which after the alignment holds the whole
        // leaf cell.
        let owners = &ws.owners;
        let input_keys = &ws.input_keys;
        let owner = |i: usize| {
            if p == 1 {
                return 0;
            }
            owners.owner_of(input_keys[i]).expect("every input's key is held")
        };
        let solved = Solved {
            records: &recs,
            potential: &mut ws.potential,
            field: &mut ws.field,
            columns: None,
            input: (pos, charge, id),
            routed: Routed {
                route: Route::Owners(n_in, &owner),
                collective: !merged,
                plan: &mut self.resort_plan,
            },
            restore: &mut ws.restore,
        };
        let (out, skipped) = hand_back(comm, method, max_local, solved, [t_start, t_sorted]);
        self.last_report.resort_exchange_skipped = skipped;
        (ws.keys, ws.recs) = (keys, recs);
        self.ws = ws;
        out
    }

    /// Move leading particles of shared boundary cells to the lowest rank
    /// holding the cell, so every leaf cell is wholly owned afterwards.
    ///
    /// Every rank's key range comes from `spans` — the merge sort's closing
    /// gather of the very keys sorted here — or, after a partition sort, from
    /// an allgather of its own. When no cell is split across a rank boundary
    /// nothing moves and the exchange is skipped: every rank builds the same
    /// owners from the same gathered ranges, so every rank decides alike
    /// without another collective.
    fn align_cells(
        &self,
        comm: &mut Comm,
        ws: &mut Workspace,
        keys: &mut Vec<u64>,
        recs: &mut Vec<Particle>,
        spans: Option<Vec<KeySpan>>,
    ) {
        if comm.size() == 1 {
            return;
        }
        if let Some(spans) = spans {
            ws.owners.rebuild(spans.into_iter().map(|(_, span)| span));
        } else {
            let ranges = comm.allgather((keys.first().copied(), keys.last().copied()));
            ws.owners.rebuild(ranges.into_iter().map(|(first, last)| first.zip(last)));
        }
        if !ws.owners.splits_a_cell() {
            return;
        }
        let mut send = Vec::new();
        ws.segments.clear();
        if let Some(&first) = keys.first() {
            let own = ws.owners.owner_of(first).expect("a held key has an owner");
            if own != comm.rank() {
                // My whole leading run of `first` (possibly the entire array)
                // belongs to `own`.
                let cut = keys.iter().take_while(|&&k| k == first).count();
                send.extend(recs.drain(..cut));
                ws.segments.push((own, cut));
                keys.drain(..cut);
            }
        }
        comm.alltoallv_flat(send, &ws.segments, &mut ws.boundary, &mut ws.sources);
        // Received particles all carry my last key (they continue my run);
        // append in source-rank order.
        for &r in &ws.boundary {
            let k = leaf_key(&self.bbox, r.pos, self.cfg.level);
            debug_assert!(keys.last().is_none_or(|&l| l <= k));
            keys.push(k);
            recs.push(r);
        }
    }

    /// Full near + far field evaluation on the (sorted, aligned) particles,
    /// into `ws.potential` and `ws.field`.
    ///
    /// The tree is a `Vec` of [`TreeLevel`]s, every per-cell lookup an index
    /// or a binary search on sorted keys, and every loop runs in ascending
    /// key (and source-rank) order: the summation order is part of the
    /// solver's contract (DESIGN.md, "FMM tree layout and summation-order
    /// contract").
    fn compute_fields(
        &mut self,
        comm: &mut Comm,
        ws: &mut Workspace,
        keys: &[u64],
        recs: &[Particle],
    ) {
        #[cfg(test)]
        if self.oracle.is_some() {
            (ws.potential, ws.field) = self.compute_fields_oracle(comm, keys, recs);
            return;
        }
        cells_from_sorted_into(keys, &mut ws.leaf_cells);
        // Rank ranges at leaf level for ownership lookups, and beside each
        // whether the rank's leaves are those its kept plan was built for
        // (32 bytes per rank, as the `(first, last)` pair of `align_cells`).
        let plan = &self.let_plan;
        let same_leaves =
            plan.kept && plan.leaf_keys.iter().eq(ws.leaf_cells.iter().map(|(k, _)| k));
        let span = keys.first().copied().zip(keys.last().copied());
        let views = comm.allgather((span, same_leaves));
        ws.owners.rebuild(views.iter().map(|&(span, _)| span));
        let reuse = views.iter().all(|&(_, same)| same) && plan.owners == ws.owners;

        comm.enter_phase("near");
        self.exchange_ghosts(comm, ws, recs);
        comm.exit_phase();

        comm.enter_phase("tree");
        self.upward_pass(comm, ws, recs);
        comm.exit_phase();

        comm.enter_phase("far");
        let mut plan = std::mem::take(&mut self.let_plan);
        if reuse {
            self.plan_hits += 1;
            self.last_report.far_plan_hit = true;
        } else {
            self.build_let_plan(comm, ws, &mut plan);
        }
        self.execute_let_plan(comm, ws, &mut plan);
        self.downward_pass(comm, &mut ws.tree, &plan.remote);
        self.let_plan = plan;
        comm.exit_phase();

        self.evaluate(comm, ws, recs);
    }

    /// Ghost exchange for the near field: every rank owning a (wrapped)
    /// neighbour of a local cell receives a [`Ghost`] copy of the cell's
    /// particles. Leaves the received ghosts — in source-rank order, which is
    /// ascending key order — in `ws.ghosts` and their cell runs in
    /// `ws.ghost_cells`.
    fn exchange_ghosts(&mut self, comm: &mut Comm, ws: &mut Workspace, recs: &[Particle]) {
        let me = comm.rank();
        ws.ghost_routes.clear();
        let mut blocks = [(0u64, 0u8); 27];
        for (ci, (k, _)) in ws.leaf_cells.iter().enumerate() {
            // A cell goes to a rank once, however many of its neighbours that
            // rank owns.
            let first_route = ws.ghost_routes.len();
            let nb = neighbor_blocks(*k, self.cfg.level, self.periodic, &mut blocks);
            for &(nk, _) in &blocks[..nb] {
                if let Some(o) = ws.owners.owner_of(nk) {
                    if o != me && !ws.ghost_routes[first_route..].contains(&(o, ci)) {
                        ws.ghost_routes.push((o, ci));
                    }
                }
            }
        }
        // By destination, each destination's cells in ascending order.
        ws.ghost_routes.sort_unstable();
        let cell = |ci: usize| &recs[ws.leaf_cells[ci].1.clone()];
        let mut send =
            Vec::with_capacity(ws.ghost_routes.iter().map(|&(_, ci)| cell(ci).len()).sum());
        ws.segments.clear();
        for &(dst, ci) in &ws.ghost_routes {
            send.extend(cell(ci).iter().copied().map(Ghost::from));
            push_segment(&mut ws.segments, dst, cell(ci).len());
        }
        comm.alltoallv_flat(send, &ws.segments, &mut ws.ghosts, &mut ws.sources);
        ws.ghost_keys.clear();
        ws.ghost_keys.extend(ws.ghosts.iter().map(|g| leaf_key(&self.bbox, g.pos, self.cfg.level)));
        // Ranks hold ascending, disjoint key ranges and send whole cells in
        // ascending order, so the concatenation by source rank is sorted.
        assert!(ws.ghost_keys.is_sorted(), "ghost cells must arrive in key order");
        let bytes = std::mem::size_of_val(&ws.ghosts[..]);
        comm.compute(Work::ByteCopy, bytes as f64);
        self.last_report.ghost_bytes = bytes as u64;
        cells_from_sorted_into(&ws.ghost_keys, &mut ws.ghost_cells);
    }

    /// Upward pass: the tree's cells per level (`ws.tree`), P2M at the
    /// leaves and M2M up to the root (partial multipoles: only this rank's
    /// particles).
    fn upward_pass(&self, comm: &mut Comm, ws: &mut Workspace, recs: &[Particle]) {
        let nc = self.ops.len();
        let leaf_level = self.cfg.level as usize;
        let tree = &mut ws.tree;
        tree.resize_with(leaf_level + 1, TreeLevel::default);
        // The leaves, then each level's distinct parents: `parent` keeps
        // sorted keys sorted, so no level needs sorting.
        tree[leaf_level].keys.clear();
        tree[leaf_level].keys.extend(ws.leaf_cells.iter().map(|(k, _)| *k));
        for l in (1..=leaf_level).rev() {
            let (coarse, fine) = tree.split_at_mut(l);
            let up = &mut coarse[l - 1].keys;
            up.clear();
            up.extend(fine[0].keys.iter().map(|&k| zorder::parent(k)));
            up.dedup();
        }
        for level in tree.iter_mut() {
            for slab in [&mut level.multipole, &mut level.local] {
                slab.clear();
                slab.resize(level.keys.len() * nc, 0.0);
            }
        }

        let leaf_multipoles = tree[leaf_level].multipole.chunks_exact_mut(nc);
        for ((k, range), m) in ws.leaf_cells.iter().zip(leaf_multipoles) {
            let z = cell_center(&self.bbox, *k, self.cfg.level);
            for r in &recs[range.clone()] {
                self.ops.p2m(m, z, r.pos, r.charge);
            }
            comm.compute(Work::ExpansionTerm, (range.len() * nc) as f64);
        }
        for l in (1..=leaf_level).rev() {
            let (coarse, fine) = tree.split_at_mut(l);
            let (coarse, fine) = (&mut coarse[l - 1], &fine[0]);
            // Children in ascending key order; `coarse.keys` are their
            // distinct parents, so the parent index advances by at most one.
            let mut pj = 0;
            for (&k, m) in fine.keys.iter().zip(fine.multipole.chunks_exact(nc)) {
                let parent = zorder::parent(k);
                if coarse.keys[pj] != parent {
                    pj += 1;
                }
                debug_assert_eq!(coarse.keys[pj], parent);
                let zp = cell_center(&self.bbox, parent, l as u32 - 1);
                let zc = cell_center(&self.bbox, k, l as u32);
                self.ops.m2m(&mut coarse.multipole[pj * nc..(pj + 1) * nc], m, zc, zp);
            }
            comm.compute(Work::ExpansionTerm, (fine.keys.len() * nc * nc / 4) as f64);
        }
    }

    /// Build the locally essential tree plan: the interaction-list sources
    /// of every level, then two rounds — every rank requests each source
    /// from the ranks whose range may hold a partial of it, and each holder
    /// answers with the keys it holds — whose outcome the plan keeps: what
    /// this rank answers with, and which remote slot each answer received
    /// is added to.
    fn build_let_plan(&mut self, comm: &mut Comm, ws: &mut Workspace, plan: &mut LetPlan) {
        let t0 = comm.clock();
        let nc = self.ops.len();
        let leaf_level = self.cfg.level as usize;
        let me = comm.rank();
        let tree = &ws.tree;

        // The sources of each level: per parent, the children of its
        // neighbour blocks that the stencil of any present child names.
        plan.remote.resize_with(leaf_level + 1, RemoteLevel::default);
        let mut blocks = [(0u64, 0u8); 27];
        for l in 1..=leaf_level {
            let stencil = &self.far[l].stencil;
            let targets = &tree[l].keys;
            let RemoteLevel { keys: needed, partial, present } = &mut plan.remote[l];
            needed.clear();
            let mut ti = 0;
            for &pk in &tree[l - 1].keys {
                let first = ti;
                while ti < targets.len() && zorder::parent(targets[ti]) == pk {
                    ti += 1;
                }
                let nb = neighbor_blocks(pk, l as u32 - 1, self.periodic, &mut blocks);
                for &(block, dir) in &blocks[..nb] {
                    let mut children = 0u8;
                    for &t in &targets[first..ti] {
                        for e in stencil.entries(t, dir) {
                            children |= 1 << e.child;
                        }
                    }
                    for c in (0..8u8).filter(|c| children >> c & 1 == 1) {
                        needed.push(zorder::child(block, c));
                    }
                }
            }
            needed.sort_unstable();
            needed.dedup();
            partial.clear();
            partial.resize(needed.len() * nc, 0.0);
            present.clear();
            present.resize(needed.len(), false);
        }

        // A cell (l, k) spans leaf keys [k << s, (k+1) << s) with s = 3*(L-l);
        // every rank whose range intersects that interval may hold a partial.
        ws.request_routes.clear();
        for (l, level) in plan.remote.iter().enumerate().skip(1) {
            let shift = 3 * (leaf_level - l);
            for &k in &level.keys {
                let (lo, hi) = (k << shift, ((k + 1) << shift) - 1);
                let holders = ws.owners.overlapping(lo, hi).filter(|&r| r != me);
                ws.request_routes.extend(holders.map(|r| (r, l as u32, k)));
            }
        }
        // By destination, each destination's requests by level and key.
        ws.request_routes.sort_unstable();
        let mut asking = Vec::with_capacity(ws.request_routes.len());
        ws.segments.clear();
        for &(dst, l, k) in &ws.request_routes {
            asking.push((l, k));
            push_segment(&mut ws.segments, dst, 1);
        }
        comm.alltoallv_flat(asking, &ws.segments, &mut ws.requests, &mut ws.sources);
        // Answer with the keys held; the coefficients follow in the plan's
        // execution.
        let mut meta = Vec::with_capacity(ws.requests.len());
        plan.answers.clear();
        plan.answers.reserve(ws.requests.len());
        plan.answer_segments.clear();
        plan.answer_segments.reserve(ws.sources.len());
        let mut asked = &ws.requests[..];
        for &(src, len) in &ws.sources {
            let (reqs, rest) = asked.split_at(len);
            asked = rest;
            let answered = meta.len();
            for &(l, k) in reqs {
                if let Ok(i) = tree[l as usize].keys.binary_search(&k) {
                    meta.push((l, k));
                    plan.answers.push((l as usize, i));
                }
            }
            plan.answer_segments.push((src, meta.len() - answered));
        }
        comm.alltoallv_flat(meta, &plan.answer_segments, &mut ws.meta, &mut plan.slot_sources);
        plan.slots.clear();
        plan.slots.reserve(ws.meta.len());
        for &(l, k) in &ws.meta {
            let level = &mut plan.remote[l as usize];
            let i = level.keys.binary_search(&k).expect("an answer to a key never requested");
            level.present[i] = true;
            plan.slots.push((l as usize, i));
        }

        plan.leaf_keys.clear();
        plan.leaf_keys.extend(ws.leaf_cells.iter().map(|(k, _)| *k));
        plan.owners.clone_from(&ws.owners);
        plan.kept = true;
        self.plan_builds += 1;
        let routes =
            (plan.answers.len() + plan.slots.len()) * std::mem::size_of::<(usize, usize)>();
        comm.note_plan_build(t0, routes as u64);
    }

    /// Execute the locally essential tree plan — the one code path of a
    /// fresh build and a reuse: every holder packs its current partial
    /// multipoles along its answer lists, one round carries them, and each
    /// requester sums what arrives into the plan's remote slots in arrival
    /// order (ascending source rank), the order of the summation contract.
    fn execute_let_plan(&self, comm: &mut Comm, ws: &mut Workspace, plan: &mut LetPlan) {
        let t0 = comm.clock();
        let nc = self.ops.len();
        let mut coef = Vec::with_capacity(plan.answers.len() * nc);
        ws.segments.clear();
        let mut answers = &plan.answers[..];
        for &(dst, n) in &plan.answer_segments {
            let (now, rest) = answers.split_at(n);
            answers = rest;
            for &(l, i) in now {
                coef.extend_from_slice(&ws.tree[l].multipole[i * nc..(i + 1) * nc]);
            }
            comm.compute(Work::ByteCopy, (n * nc * 8) as f64);
            ws.segments.push((dst, n * nc));
        }
        let sent = std::mem::size_of_val(&coef[..]) as u64;
        // The coefficients (`nc` per key) are the one answer sized by the
        // expansion order: not kept between runs.
        let mut coef_recv = Vec::new();
        comm.alltoallv_flat(coef, &ws.segments, &mut coef_recv, &mut ws.sources);
        assert!(
            ws.sources
                .iter()
                .map(|&(src, len)| (src, len / nc))
                .eq(plan.slot_sources.iter().copied()),
            "every answer the plan expects arrives, and nothing else"
        );
        for level in &mut plan.remote {
            level.partial.fill(0.0);
        }
        for (&(l, i), block) in plan.slots.iter().zip(coef_recv.chunks_exact(nc)) {
            for (e, &c) in plan.remote[l].partial[i * nc..(i + 1) * nc].iter_mut().zip(block) {
                *e += c;
            }
        }
        comm.note_plan_exec(t0, sent);
    }

    /// Downward pass: per target, L2L from its parent, then M2L from its
    /// interaction list in ascending source key order (the local partial
    /// before the remote one), accumulated in place in the level's slab.
    fn downward_pass(&mut self, comm: &mut Comm, tree: &mut [TreeLevel], remote: &[RemoteLevel]) {
        let nc = self.ops.len();
        let ops = &self.ops;
        let mut m2l_count = 0u64;
        let mut blocks = [(0u64, 0u8); 27];
        // Slab index of every child of every block of the current parent.
        let mut local_src = [[None; 8]; 27];
        let mut remote_src = [[None; 8]; 27];
        for l in 1..=self.cfg.level {
            let (coarse, fine) = tree.split_at_mut(l as usize);
            let parents = &coarse[l as usize - 1];
            let TreeLevel { keys: targets, multipole, local } = &mut fine[0];
            let partials = &remote[l as usize];
            let FarLevel { stencil, tensors } = &mut self.far[l as usize];
            let mut ti = 0;
            for (pj, &pk) in parents.keys.iter().enumerate() {
                let nb = neighbor_blocks(pk, l - 1, self.periodic, &mut blocks);
                for (b, &(block, _)) in blocks[..nb].iter().enumerate() {
                    local_src[b] = child_indices(targets, block, |_| true);
                    remote_src[b] = child_indices(&partials.keys, block, |i| partials.present[i]);
                }
                let wp = cell_center(&self.bbox, pk, l - 1);
                while ti < targets.len() && zorder::parent(targets[ti]) == pk {
                    let t = targets[ti];
                    let w = cell_center(&self.bbox, t, l);
                    let acc = &mut local[ti * nc..(ti + 1) * nc];
                    if l >= 2 {
                        ops.l2l(acc, &parents.local[pj * nc..(pj + 1) * nc], wp, w);
                    }
                    for (b, &(block, dir)) in blocks[..nb].iter().enumerate() {
                        for e in stencil.entries(t, dir) {
                            let li = local_src[b][e.child as usize];
                            let ri = remote_src[b][e.child as usize];
                            if li.is_none() && ri.is_none() {
                                continue; // empty cell
                            }
                            // Filled on first use, from the pair that first
                            // needs it (its rounding of `w - zs` stays).
                            let tensor = &mut tensors[e.tensor as usize];
                            if tensor.is_empty() {
                                let s = zorder::child(block, e.child);
                                let zs =
                                    effective_source_center(&self.bbox, t, s, l, self.periodic);
                                *tensor = ops.derivative_tensor(w - zs);
                            }
                            if let Some(i) = li {
                                ops.m2l_with_tensor(acc, &multipole[i * nc..(i + 1) * nc], tensor);
                                m2l_count += 1;
                            }
                            if let Some(i) = ri {
                                let m = &partials.partial[i * nc..(i + 1) * nc];
                                ops.m2l_with_tensor(acc, m, tensor);
                                m2l_count += 1;
                            }
                        }
                    }
                    ti += 1;
                }
            }
            comm.compute(Work::ExpansionTerm, (targets.len().max(1) * nc * nc / 8) as f64);
        }
        comm.compute(Work::ExpansionTerm, (m2l_count as usize * nc * nc) as f64);
        self.last_report.m2l_count = m2l_count;
    }

    /// Evaluation (into `ws.potential` and `ws.field`): L2P from the leaf
    /// local expansions, then near-field P2P within each cell and with its
    /// neighbour cells (local or ghost) in ascending key order.
    fn evaluate(&mut self, comm: &mut Comm, ws: &mut Workspace, recs: &[Particle]) {
        let n = recs.len();
        let nc = self.ops.len();
        let leaf_level = self.cfg.level;
        let particles_of = |cells: &[Cell], key: u64| -> Option<std::ops::Range<usize>> {
            let i = cells.binary_search_by_key(&key, |(k, _)| *k).ok()?;
            Some(cells[i].1.clone())
        };
        let Workspace { leaf_cells, ghost_cells, ghosts, tree, potential, field, .. } = ws;
        let leaf_locals = &tree[leaf_level as usize].local;
        potential.clear();
        potential.resize(n, 0.0);
        field.clear();
        field.resize(n, Vec3::ZERO);
        let mut p2p_pairs = 0u64;
        let mut blocks = [(0u64, 0u8); 27];
        for (ci, (k, range)) in leaf_cells.iter().enumerate() {
            // Level 0 has no far field.
            if leaf_level >= 1 {
                let w = cell_center(&self.bbox, *k, leaf_level);
                let loc = &leaf_locals[ci * nc..(ci + 1) * nc];
                for i in range.clone() {
                    let (phi, e) = self.ops.l2p(loc, w, recs[i].pos);
                    potential[i] += phi;
                    field[i] += e;
                }
            }
            // P2P within the cell.
            for i in range.clone() {
                for j in (i + 1)..range.end {
                    let d = recs[i].pos - recs[j].pos;
                    let r2 = d.norm2();
                    if r2 == 0.0 {
                        continue;
                    }
                    let inv_r = 1.0 / r2.sqrt();
                    let inv_r3 = inv_r / r2;
                    potential[i] += recs[j].charge * inv_r;
                    potential[j] += recs[i].charge * inv_r;
                    field[i] += d * (recs[j].charge * inv_r3);
                    field[j] -= d * (recs[i].charge * inv_r3);
                    if let Some(core) = &self.cfg.soft_core {
                        // Pair repulsion folded into the potential/field
                        // channels (divide by the receiving charge so that
                        // 0.5*q*phi and q*E reproduce pair energy and force).
                        let r = r2.sqrt();
                        let u = core.energy(r);
                        let fmag = core.force(r);
                        potential[i] += u / recs[i].charge;
                        potential[j] += u / recs[j].charge;
                        field[i] += d * (fmag / (r * recs[i].charge));
                        field[j] -= d * (fmag / (r * recs[j].charge));
                    }
                    p2p_pairs += 1;
                }
            }
            // P2P with the distinct neighbour cells (local or ghost).
            let nb = neighbor_blocks(*k, leaf_level, self.periodic, &mut blocks);
            let mut prev = *k;
            for &(nk, _) in &blocks[..nb] {
                if nk == *k || nk == prev {
                    continue;
                }
                prev = nk;
                let r = range.clone();
                let targets = (&recs[r.clone()], &mut potential[r.clone()], &mut field[r]);
                p2p_pairs += if let Some(r) = particles_of(leaf_cells, nk) {
                    self.p2p_neighbour(targets, &recs[r])
                } else if let Some(r) = particles_of(ghost_cells, nk) {
                    self.p2p_neighbour(targets, &ghosts[r])
                } else {
                    0
                };
            }
        }
        comm.with_phase("near", |c| c.compute(Work::Interaction, p2p_pairs as f64));
        comm.with_phase("far", |c| c.compute(Work::ExpansionTerm, (n * nc * 4) as f64));
        self.last_report.p2p_pairs = p2p_pairs;
    }

    /// P2P of one cell's particles (`targets`: the particles and their
    /// potential and field accumulators) with the particles of one distinct
    /// neighbour cell, local or ghost, in the neighbour's order; returns the
    /// pairs evaluated.
    fn p2p_neighbour<S: Copy + Into<Ghost>>(
        &self,
        (recs, potential, field): (&[Particle], &mut [f64], &mut [Vec3]),
        neigh: &[S],
    ) -> u64 {
        let mut pairs = 0;
        for ((me, phi), e) in recs.iter().zip(potential).zip(field) {
            let (mut acc_phi, mut acc_e) = (*phi, *e);
            for &s in neigh {
                let g: Ghost = s.into();
                let d =
                    if self.periodic { self.bbox.min_image(me.pos, g.pos) } else { me.pos - g.pos };
                let r2 = d.norm2();
                if r2 == 0.0 {
                    continue;
                }
                let inv_r = 1.0 / r2.sqrt();
                let inv_r3 = inv_r / r2;
                acc_phi += g.charge * inv_r;
                acc_e += d * (g.charge * inv_r3);
                if let Some(core) = &self.cfg.soft_core {
                    let r = r2.sqrt();
                    let u = core.energy(r);
                    let fmag = core.force(r);
                    acc_phi += u / me.charge;
                    acc_e += d * (fmag / (r * me.charge));
                }
                pairs += 1;
            }
            *phi = acc_phi;
            *e = acc_e;
        }
        pairs
    }
}
