//! Test oracle: `compute_fields` as it stood before the tree moved to sorted
//! per-level slabs — hash-map tree, per-target `interaction_list`, cloned
//! tensors, three multipole rounds every run — kept verbatim except that M2M
//! visits children in ascending key order, ghosts travel as the 32-byte
//! [`Ghost`] records the slab code ships, and each holder's coefficient copy
//! is charged after the answer-key round, where the slab code packs them.
//! The property tests below pin the slab code to it bit for bit: potentials,
//! fields and counts always, clocks and message statistics when the plans
//! are dropped before every run (a kept locally essential tree plan makes one
//! round of three).

use std::collections::{HashMap, HashSet};

use particles::Vec3;
use simcomm::{Comm, Work};

use super::{FmmSolver, Ghost, Particle};
use crate::tree::{
    cell_center, cell_offset, cells_from_sorted, effective_source_center, interaction_list,
    leaf_key, neighbor_keys,
};

/// State of the oracle path that outlives one run.
#[derive(Default)]
pub(super) struct Oracle {
    /// Cache of M2L derivative tensors keyed by (level, relative cell offset).
    tensor_cache: HashMap<(u32, [i64; 3]), Vec<f64>>,
}

impl FmmSolver {
    /// Full near + far field evaluation on the (sorted, aligned) particles.
    pub(super) fn compute_fields_oracle(
        &mut self,
        comm: &mut Comm,
        keys: &[u64],
        recs: &[Particle],
    ) -> (Vec<f64>, Vec<Vec3>) {
        let n = keys.len();
        let nc = self.ops.len();
        let leaf_level = self.cfg.level;
        let periodic = self.periodic;
        let me = comm.rank();
        let mut oracle = self.oracle.take().expect("the oracle is enabled");

        let leaf_cells = cells_from_sorted(keys);
        let cell_index: HashMap<u64, usize> =
            leaf_cells.iter().enumerate().map(|(i, (k, _))| (*k, i)).collect();

        // Rank ranges at leaf level for ownership lookups.
        let ranges = comm.allgather((keys.first().copied(), keys.last().copied()));
        let owner_of = |k: u64| -> Option<usize> {
            ranges
                .iter()
                .position(|&(f, l)| matches!((f, l), (Some(f), Some(l)) if f <= k && k <= l))
        };

        // ---- Ghost exchange for the near field ----
        // For each local cell, ranks owning (wrapped) neighbour keys receive a
        // copy of the cell's particles.
        comm.enter_phase("near");
        let mut ghost_sends: HashMap<usize, Vec<Ghost>> = HashMap::new();
        for (k, range) in &leaf_cells {
            let mut dests: HashSet<usize> = HashSet::new();
            for nk in neighbor_keys(*k, leaf_level, periodic) {
                if let Some(o) = owner_of(nk) {
                    if o != me {
                        dests.insert(o);
                    }
                }
            }
            for d in dests {
                ghost_sends
                    .entry(d)
                    .or_default()
                    .extend(recs[range.clone()].iter().map(|&r| Ghost::from(r)));
            }
        }
        let sends: Vec<(usize, Vec<Ghost>)> = ghost_sends.into_iter().collect();
        let received_ghosts = comm.alltoallv(sends);
        let mut ghost_cells: HashMap<u64, Vec<Ghost>> = HashMap::new();
        let mut ghost_count = 0u64;
        for (_src, buf) in received_ghosts {
            ghost_count += buf.len() as u64;
            for g in buf {
                let k = leaf_key(&self.bbox, g.pos, leaf_level);
                ghost_cells.entry(k).or_default().push(g);
            }
        }
        comm.compute(Work::ByteCopy, (ghost_count as usize * std::mem::size_of::<Ghost>()) as f64);
        comm.exit_phase();

        // ---- Upward pass: P2M + M2M (partial multipoles per level) ----
        comm.enter_phase("tree");
        // levels: index l in 0..=leaf_level; multipoles[l]: key -> coeffs.
        let mut multipoles: Vec<HashMap<u64, Vec<f64>>> =
            (0..=leaf_level).map(|_| HashMap::new()).collect();
        for (k, range) in &leaf_cells {
            let z = cell_center(&self.bbox, *k, leaf_level);
            let m = multipoles[leaf_level as usize].entry(*k).or_insert_with(|| vec![0.0; nc]);
            for r in &recs[range.clone()] {
                self.ops.p2m(m, z, r.pos, r.charge);
            }
            comm.compute(Work::ExpansionTerm, (range.len() * nc) as f64);
        }
        for l in (1..=leaf_level).rev() {
            let (coarse, fine) = {
                let (a, b) = multipoles.split_at_mut(l as usize);
                (&mut a[l as usize - 1], &b[0])
            };
            let mut ops_count = 0usize;
            // The one order the parent left to `RandomState`, fixed here as
            // in the slab code: children in ascending Morton key.
            let mut fine: Vec<(&u64, &Vec<f64>)> = fine.iter().collect();
            fine.sort_unstable_by_key(|(k, _)| **k);
            for (k, m) in fine {
                let parent = particles::zorder::parent(*k);
                let zp = cell_center(&self.bbox, parent, l - 1);
                let zc = cell_center(&self.bbox, *k, l);
                let pm = coarse.entry(parent).or_insert_with(|| vec![0.0; nc]);
                self.ops.m2m(pm, m, zc, zp);
                ops_count += 1;
            }
            comm.compute(Work::ExpansionTerm, (ops_count * nc * nc / 4) as f64);
        }

        // ---- Target cells: ancestors of local leaves, per level ----
        let mut targets: Vec<Vec<u64>> = (0..=leaf_level).map(|_| Vec::new()).collect();
        targets[leaf_level as usize] = leaf_cells.iter().map(|(k, _)| *k).collect();
        for l in (1..=leaf_level).rev() {
            let mut up: Vec<u64> =
                targets[l as usize].iter().map(|&k| particles::zorder::parent(k)).collect();
            up.sort_unstable();
            up.dedup();
            targets[l as usize - 1] = up;
        }

        comm.exit_phase();

        // ---- Locally essential multipoles: request remote (partial)
        comm.enter_phase("far");
        // multipoles for all interaction-list source cells ----
        // A cell (l, k) spans leaf keys [k << s, (k+1) << s) with s = 3*(L-l);
        // every rank whose range intersects that interval may hold a partial.
        let mut needed: HashSet<(u32, u64)> = HashSet::new();
        for l in 1..=leaf_level {
            for &t in &targets[l as usize] {
                for s in interaction_list(t, l, periodic) {
                    needed.insert((l, s));
                }
            }
        }
        let mut requests: HashMap<usize, Vec<(u32, u64)>> = HashMap::new();
        for &(l, k) in &needed {
            let shift = 3 * (leaf_level - l);
            let lo = k << shift;
            let hi = ((k + 1) << shift) - 1;
            for (r, &(f, last)) in ranges.iter().enumerate() {
                if r == me {
                    continue;
                }
                if let (Some(f), Some(last)) = (f, last) {
                    if f <= hi && lo <= last {
                        requests.entry(r).or_default().push((l, k));
                    }
                }
            }
        }
        let req_sends: Vec<(usize, Vec<(u32, u64)>)> = requests.into_iter().collect();
        let req_recv = comm.alltoallv(req_sends);
        // Respond with (meta, coeffs) pairs; coeffs flattened with stride nc.
        let mut resp_meta: Vec<(usize, Vec<(u32, u64)>)> = Vec::new();
        let mut resp_coef: Vec<(usize, Vec<f64>)> = Vec::new();
        for (src, reqs) in req_recv {
            let mut meta = Vec::new();
            let mut coef = Vec::new();
            for (l, k) in reqs {
                if let Some(m) = multipoles[l as usize].get(&k) {
                    meta.push((l, k));
                    coef.extend_from_slice(m);
                }
            }
            resp_meta.push((src, meta));
            resp_coef.push((src, coef));
        }
        let meta_recv = comm.alltoallv(resp_meta);
        for (_, coef) in &resp_coef {
            comm.compute(Work::ByteCopy, (coef.len() * 8) as f64);
        }
        let coef_recv = comm.alltoallv(resp_coef);
        let coef_by_src: HashMap<usize, Vec<f64>> = coef_recv.into_iter().collect();
        let mut remote_m: HashMap<(u32, u64), Vec<f64>> = HashMap::new();
        for (src, meta) in meta_recv {
            let coefs = &coef_by_src[&src];
            for (i, (l, k)) in meta.into_iter().enumerate() {
                let slice = &coefs[i * nc..(i + 1) * nc];
                let entry = remote_m.entry((l, k)).or_insert_with(|| vec![0.0; nc]);
                for (e, &c) in entry.iter_mut().zip(slice) {
                    *e += c;
                }
            }
        }

        // ---- Downward pass: M2L + L2L ----
        let mut locals: Vec<HashMap<u64, Vec<f64>>> =
            (0..=leaf_level).map(|_| HashMap::new()).collect();
        let mut m2l_count = 0u64;
        for l in 1..=leaf_level {
            let target_keys: Vec<u64> = targets[l as usize].clone();
            for &t in &target_keys {
                let mut acc = vec![0.0; nc];
                // L2L from the parent's local expansion.
                if l >= 1 {
                    let parent = particles::zorder::parent(t);
                    if let Some(pl) = locals[l as usize - 1].get(&parent) {
                        let wp = cell_center(&self.bbox, parent, l - 1);
                        let wc = cell_center(&self.bbox, t, l);
                        self.ops.l2l(&mut acc, pl, wp, wc);
                    }
                }
                // M2L from the interaction list.
                let w = cell_center(&self.bbox, t, l);
                for s in interaction_list(t, l, periodic) {
                    // Combine local partial and fetched remote partials.
                    let local_part = multipoles[l as usize].get(&s);
                    let remote_part = remote_m.get(&(l, s));
                    if local_part.is_none() && remote_part.is_none() {
                        continue; // empty cell
                    }
                    let off = cell_offset(t, s, l, periodic);
                    let zs = effective_source_center(&self.bbox, t, s, l, periodic);
                    let cache_key = (l, [off[0], off[1], off[2]]);
                    let tensor = match oracle.tensor_cache.get(&cache_key) {
                        Some(t) => t.clone(),
                        None => {
                            let t = self.ops.derivative_tensor(w - zs);
                            oracle.tensor_cache.insert(cache_key, t.clone());
                            t
                        }
                    };
                    if let Some(m) = local_part {
                        self.ops.m2l_with_tensor(&mut acc, m, &tensor);
                        m2l_count += 1;
                    }
                    if let Some(m) = remote_part {
                        self.ops.m2l_with_tensor(&mut acc, m, &tensor);
                        m2l_count += 1;
                    }
                }
                locals[l as usize].insert(t, acc);
            }
            comm.compute(Work::ExpansionTerm, (target_keys.len().max(1) * nc * nc / 8) as f64);
        }
        comm.compute(Work::ExpansionTerm, (m2l_count as usize * nc * nc) as f64);
        comm.exit_phase();
        self.last_report.m2l_count = m2l_count;

        // ---- Evaluation: L2P + near-field P2P ----
        let mut potential = vec![0.0; n];
        let mut field = vec![Vec3::ZERO; n];
        let mut p2p_pairs = 0u64;
        for (k, range) in &leaf_cells {
            let w = cell_center(&self.bbox, *k, leaf_level);
            if let Some(loc) = locals[leaf_level as usize].get(k) {
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
            // P2P with neighbour cells (local or ghost).
            for nk in neighbor_keys(*k, leaf_level, periodic) {
                let neigh: Option<Vec<Ghost>> = if let Some(&ci) = cell_index.get(&nk) {
                    Some(recs[leaf_cells[ci].1.clone()].iter().map(|&r| Ghost::from(r)).collect())
                } else {
                    ghost_cells.get(&nk).cloned()
                };
                let Some(neigh) = neigh else { continue };
                for i in range.clone() {
                    for g in &neigh {
                        let d = if periodic {
                            self.bbox.min_image(recs[i].pos, g.pos)
                        } else {
                            recs[i].pos - g.pos
                        };
                        let r2 = d.norm2();
                        if r2 == 0.0 {
                            continue;
                        }
                        let inv_r = 1.0 / r2.sqrt();
                        let inv_r3 = inv_r / r2;
                        potential[i] += g.charge * inv_r;
                        field[i] += d * (g.charge * inv_r3);
                        if let Some(core) = &self.cfg.soft_core {
                            let r = r2.sqrt();
                            let u = core.energy(r);
                            let fmag = core.force(r);
                            potential[i] += u / recs[i].charge;
                            field[i] += d * (fmag / (r * recs[i].charge));
                        }
                        p2p_pairs += 1;
                    }
                }
            }
        }
        comm.with_phase("near", |c| c.compute(Work::Interaction, p2p_pairs as f64));
        comm.with_phase("far", |c| c.compute(Work::ExpansionTerm, (n * nc * 4) as f64));
        self.last_report.p2p_pairs = p2p_pairs;
        self.oracle = Some(oracle);

        (potential, field)
    }
}

#[cfg(test)]
mod tests {
    use particles::systems::splitmix64;
    use particles::{RedistMethod, SoftCore, SystemBox, Vec3};
    use simcomm::{run, Comm, MachineModel, RankStats};

    use super::Oracle;
    use crate::{widths, FmmConfig, FmmSolver};

    /// splitmix64 stream for the property tests below.
    struct Gen(u64);

    impl Gen {
        fn unit(&mut self) -> f64 {
            self.0 = splitmix64(self.0);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        /// `n` particles uniform in `lo..lo + extent` with charges in
        /// (0.5, 1.5): every cell and every level is non-neutral.
        fn particles(&mut self, lo: Vec3, extent: Vec3, n: usize) -> Vec<(Vec3, f64)> {
            (0..n)
                .map(|_| {
                    let mut p = Vec3::ZERO;
                    for d in 0..3 {
                        p[d] = lo[d] + self.unit() * extent[d];
                    }
                    (p, 0.5 + self.unit())
                })
                .collect()
        }
    }

    /// How a world's particles are dealt to its ranks before the first run.
    #[derive(Clone, Copy, Debug)]
    enum Deal {
        /// Contiguous blocks of the (unsorted) particle list.
        Blocks,
        /// Everything on the last rank.
        OneRank,
        /// Blocks over the even ranks only; odd ranks hold nothing.
        EvenRanks,
    }

    #[derive(Clone, Debug)]
    struct World {
        bbox: SystemBox,
        cfg: FmmConfig,
        p: usize,
        deal: Deal,
        particles: Vec<(Vec3, f64)>,
    }

    /// What one rank saw of one run: the bits of every potential and field
    /// component, and the run's counts.
    #[derive(Debug, PartialEq)]
    struct RunBits {
        potential: Vec<u64>,
        field: Vec<[u64; 3]>,
        p2p_pairs: u64,
        m2l_count: u64,
    }

    /// Which far field a world runs: the oracle, or the slab code with its
    /// plans kept or dropped before every run. The oracle drops its plans
    /// too, so that its sorts match the unplanned slab world's.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Path {
        Oracle,
        Planned,
        Unplanned,
    }

    /// Three consecutive runs on one solver per rank: a Method A run, then —
    /// every coordinate moved by up to 0.2 — a Method B run with the movement
    /// hint (the merge-sort path where the hint allows it), then the same
    /// Method B run again on the positions it returned (a quiet step: the
    /// slab code with the plan reuses its locally essential tree plan).
    fn program(w: &World, path: Path) -> impl Fn(&mut Comm) -> Vec<RunBits> + Sync + '_ {
        let n = w.particles.len();
        move |comm| {
            let (me, p) = (comm.rank(), w.p);
            let mine = match w.deal {
                Deal::Blocks => me * n / p..(me + 1) * n / p,
                Deal::OneRank if me == p - 1 => 0..n,
                Deal::OneRank => 0..0,
                Deal::EvenRanks if me % 2 == 0 => {
                    let (slot, slots) = (me / 2, p.div_ceil(2));
                    slot * n / slots..(slot + 1) * n / slots
                }
                Deal::EvenRanks => 0..0,
            };
            let mut pos: Vec<Vec3> = w.particles[mine.clone()].iter().map(|x| x.0).collect();
            let mut charge: Vec<f64> = w.particles[mine.clone()].iter().map(|x| x.1).collect();
            let mut id: Vec<u64> = mine.map(|i| i as u64).collect();
            let mut solver = FmmSolver::new(w.bbox, w.cfg.clone());
            if path == Path::Oracle {
                solver.oracle = Some(Oracle::default());
            }
            let mut runs = Vec::new();
            let hint = Some(0.2 * 3f64.sqrt());
            for (method, movement, moved) in [
                (RedistMethod::RestoreOriginal, None, true),
                (RedistMethod::UseChanged, hint, false),
                (RedistMethod::UseChanged, hint, false),
            ] {
                if path != Path::Planned {
                    solver.invalidate_plans();
                }
                let o = solver.run(comm, &pos, &charge, &id, method, movement, usize::MAX);
                runs.push(RunBits {
                    potential: o.potential.iter().map(|x| x.to_bits()).collect(),
                    field: o.field.iter().map(|e| [0, 1, 2].map(|d| e[d].to_bits())).collect(),
                    p2p_pairs: solver.last_report.p2p_pairs,
                    m2l_count: solver.last_report.m2l_count,
                });
                // Move every particle by a displacement derived from its id.
                (pos, charge, id) = (o.pos, o.charge, o.id);
                for (x, &i) in pos.iter_mut().zip(&id).filter(|_| moved) {
                    let mut g = Gen(i);
                    for d in 0..3 {
                        x[d] += 0.4 * (g.unit() - 0.5);
                    }
                }
            }
            runs
        }
    }

    /// [`program`]'s world: every rank's runs, final clock bits and
    /// statistics.
    fn run_world(w: &World, path: Path) -> (Vec<Vec<RunBits>>, Vec<u64>, Vec<RankStats>) {
        let out = run(w.p, MachineModel::juropa_like(), program(w, path));
        (out.results, out.clocks.iter().map(|c| c.to_bits()).collect(), out.stats)
    }

    /// The slab code reproduces the oracle bit for bit: potentials, fields,
    /// pair and translation counts with its plans kept or dropped; with them
    /// dropped also every rank's clock and every rank's point-to-point and
    /// collective message and byte counts. The unplanned slab world builds
    /// and executes one locally essential tree plan per run, which the
    /// oracle's far field does not record.
    fn assert_matches_oracle(w: &World) {
        let (want, want_clocks, mut want_stats) = run_world(w, Path::Oracle);
        let (got, got_clocks, got_stats) = run_world(w, Path::Unplanned);
        let (planned, _, _) = run_world(w, Path::Planned);
        let what = format!(
            "{:?} periodic {} p {} deal {:?} n {}",
            w.cfg,
            w.bbox.fully_periodic(),
            w.p,
            w.deal,
            w.particles.len()
        );
        assert_eq!(got, want, "{what}: outputs or counts differ");
        assert_eq!(planned, want, "{what}: outputs or counts differ under the kept plan");
        assert_eq!(got_clocks, want_clocks, "{what}: clocks differ");
        for (s, runs) in want_stats.iter_mut().zip(&want) {
            s.plan_builds += runs.len() as u64;
            s.plan_execs += runs.len() as u64;
        }
        assert_eq!(got_stats, want_stats, "{what}: statistics differ");
        if w.cfg.level >= 2 && !matches!(w.deal, Deal::OneRank) {
            assert!(want.iter().any(|runs| runs[0].m2l_count > 0), "{what}: no M2L exercised");
        }
    }

    fn bbox(periodic: bool) -> SystemBox {
        SystemBox::new(Vec3::new(-1.0, 0.5, 0.0), Vec3::new(8.0, 6.0, 10.0), [periodic; 3])
    }

    #[test]
    fn slab_far_field_matches_the_oracle_bit_for_bit() {
        let mut g = Gen(0x0f3d_15ea_5e00_0001);
        let procs = [1usize, 3, 8, 12];
        let deals = [Deal::Blocks, Deal::EvenRanks, Deal::Blocks, Deal::OneRank];
        let mut case = 0usize;
        for periodic in [false, true] {
            for level in 1..=4u32 {
                for order in [2usize, 4] {
                    let b = bbox(periodic);
                    let n = [60, 150, 400, 500][level as usize - 1];
                    // Rotate ranks, deals and the soft core through the
                    // (boundary, level, order) grid so every value meets
                    // every level.
                    let p = procs[(case + level as usize) % 4];
                    let deal = deals[(case / 2 + level as usize) % 4];
                    let soft_core = (case % 3 == 1).then(|| SoftCore::for_spacing(0.5));
                    let particles = g.particles(b.offset, b.lengths, n);
                    let cfg = FmmConfig { order, level, soft_core };
                    assert_matches_oracle(&World { bbox: b, cfg, p, deal, particles });
                    case += 1;
                }
            }
        }
    }

    /// A blob in one corner of the box: most cells are empty at every level,
    /// most ranks' interaction lists name cells nobody holds.
    #[test]
    fn clustered_blob_matches_the_oracle() {
        let mut g = Gen(0xb10b);
        for periodic in [false, true] {
            let b = bbox(periodic);
            let mut particles = g.particles(b.offset + b.lengths * 0.6, b.lengths * 0.3, 300);
            particles.extend(g.particles(b.offset, b.lengths, 20));
            for (level, p) in [(3u32, 8usize), (4, 3)] {
                let cfg = FmmConfig { order: 2, level, soft_core: None };
                let particles = particles.clone();
                assert_matches_oracle(&World { bbox: b, cfg, p, deal: Deal::Blocks, particles });
            }
        }
    }

    /// Run-to-run reproducibility: identical worlds must give identical
    /// bits, at any host width. With M2M children visited in `HashMap` order
    /// (the code before the slabs) 13–28 % of these potentials differed
    /// between two runs in one process.
    #[test]
    fn two_runs_of_one_world_give_identical_bits() {
        let mut g = Gen(4096);
        for periodic in [false, true] {
            let b = bbox(periodic);
            let particles = g.particles(b.offset, b.lengths, 4096);
            let cfg = FmmConfig { order: 4, level: 3, soft_core: None };
            let w = World { bbox: b, cfg, p: 8, deal: Deal::Blocks, particles };
            // One run at each of widths 1, 2 and 8, every one against the first.
            widths::run(w.p, MachineModel::juropa_like(), program(&w, Path::Planned));
        }
    }
}
