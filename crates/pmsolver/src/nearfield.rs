//! Real-space (near-field) part of the particle-mesh Ewald solver: the
//! erfc-screened Coulomb interactions of all pairs within the cutoff radius,
//! evaluated with a linked-cell algorithm over the local subdomain plus ghost
//! particles (paper Sect. II-C: "computations are performed with a linked
//! cell algorithm that sorts all particles into boxes of size of the cutoff
//! radius").

use particles::math::{erfc, M_2_SQRTPI};
use particles::{SystemBox, Vec3};

/// Compute near-field potentials and fields for `owned` particles; `ghosts`
/// contribute as sources only. Returns per-owned-particle `(potential,
/// field)` plus the number of pair interactions evaluated (for work
/// accounting).
///
/// Positions may be periodic images; all displacements go through the
/// minimum-image convention, which is exact as long as `rcut` is at most half
/// the shortest box edge.
///
/// Summation order is part of the contract (the committed virtual-time
/// reports and determinism digests depend on the bits): every receiver adds
/// its sources cell by cell in ascending cell index over the distinct
/// neighbouring cells, and within a cell in *descending* particle index
/// (owned particles numbered before ghosts).
#[allow(clippy::too_many_arguments)]
pub fn near_field(
    bbox: &SystemBox,
    alpha: f64,
    rcut: f64,
    soft_core: Option<particles::SoftCore>,
    region: (Vec3, Vec3),
    owned_pos: &[Vec3],
    owned_charge: &[f64],
    ghost_pos: &[Vec3],
    ghost_charge: &[f64],
) -> (Vec<f64>, Vec<Vec3>, u64) {
    let owned = owned_pos.iter().copied().zip(owned_charge.iter().copied());
    let ghosts = ghost_pos.iter().copied().zip(ghost_charge.iter().copied());
    let sources = owned.chain(ghosts);
    let n_owned = owned_pos.len();
    let mut near = NearField::new(bbox, (alpha, rcut, soft_core), region, n_owned, sources);
    let pairs = near.run(0..near.cells());
    let (potential, field) = near.finish();
    (potential, field, pairs)
}

/// The near field of [`near_field`], prepared: the sources — the receivers
/// first, then the ghosts, however the caller stores them — sorted into
/// linked cells, ready to be evaluated one range of target cells at a time
/// ([`NearField::run`]). Every receiver's sum lives in its own accumulators
/// and is computed whole when its cell runs, so any split of the cells into
/// ranges, run in any order, gives the bits one [`near_field`] call gives.
/// Its staging (the cell of every particle, the CSR cell starts and the
/// structure-of-arrays copies the pair loop reads) is two blocks, whatever
/// the particle and cell counts.
pub(crate) struct NearField {
    bbox: SystemBox,
    alpha: f64,
    rcut: f64,
    soft_core: Option<particles::SoftCore>,
    ncell: [usize; 3],
    wraps: [bool; 3],
    n_owned: usize,
    /// `x`, `y`, `z` and `q` of every source, cell by cell.
    columns: Vec<f64>,
    /// The cell of every source, its index by slot, and the CSR cell
    /// starts. 32 bits, as the solver's cell keys: a near field is kept
    /// through the far field on every rank.
    indices: Vec<u32>,
    potential: Vec<f64>,
    field: Vec<Vec3>,
}

impl NearField {
    /// Sort `sources` (the `n_owned` receivers first, then the ghosts) into
    /// the linked cells of `region`, for `(alpha, rcut, soft_core)`.
    pub(crate) fn new(
        bbox: &SystemBox,
        (alpha, rcut, soft_core): (f64, f64, Option<particles::SoftCore>),
        region: (Vec3, Vec3),
        n_owned: usize,
        sources: impl Iterator<Item = (Vec3, f64)> + Clone,
    ) -> NearField {
        let l = bbox.lengths;
        assert!(
            rcut <= 0.5 * l.x().min(l.y()).min(l.z()) + 1e-12,
            "near-field cutoff must satisfy the minimum-image condition"
        );
        let (lo, hi) = region;
        let center = (lo + hi) * 0.5;

        // Linked cells. Along dimensions where the region covers the whole
        // (periodic) box there are no ghosts, so the cell grid itself wraps;
        // otherwise the region is expanded by rcut to hold the ghosts.
        let mut ncell = [0usize; 3];
        let mut cell_w = [0.0f64; 3];
        let mut origin = Vec3::ZERO;
        let mut wraps = [false; 3];
        for d in 0..3 {
            wraps[d] = bbox.periodic[d] && (hi[d] - lo[d]) >= l[d] - 1e-9;
            let span = if wraps[d] { hi[d] - lo[d] } else { (hi[d] - lo[d]) + 2.0 * rcut };
            ncell[d] = ((span / rcut).floor() as usize).max(1);
            cell_w[d] = span / ncell[d] as f64;
            origin[d] = if wraps[d] { lo[d] } else { lo[d] - rcut };
        }
        let cell_of = |p: Vec3| -> usize {
            // Localize the (possibly wrapped) position relative to the region.
            let rel = center + bbox.min_image(p, center);
            let mut c = [0usize; 3];
            for d in 0..3 {
                let x = ((rel[d] - origin[d]) / cell_w[d]).floor();
                c[d] = (x.max(0.0) as usize).min(ncell[d] - 1);
            }
            (c[0] * ncell[1] + c[1]) * ncell[2] + c[2]
        };

        // Counting sort into a CSR layout: cell `c` holds the slots
        // `cell_start[c]..cell_start[c + 1]` of the structure-of-arrays
        // copies. Each cell is filled back to front in ascending particle
        // index, which leaves it in descending index — the contract's
        // in-cell order.
        let total_cells = ncell[0] * ncell[1] * ncell[2];
        let n_all = sources.clone().count();
        let mut columns = vec![0.0; 4 * n_all];
        let (x, rest) = columns.split_at_mut(n_all);
        let (y, rest) = rest.split_at_mut(n_all);
        let (z, q) = rest.split_at_mut(n_all);
        assert!(n_all < u32::MAX as usize, "a near field of {n_all} sources");
        let mut indices = vec![0u32; 2 * n_all + total_cells + 1];
        let (cells, rest) = indices.split_at_mut(n_all);
        let (id, cell_start) = rest.split_at_mut(n_all);
        for (cell, (p, _)) in cells.iter_mut().zip(sources.clone()) {
            *cell = cell_of(p) as u32;
        }
        for &c in cells.iter() {
            cell_start[c as usize] += 1;
        }
        let mut end = 0;
        for s in cell_start.iter_mut() {
            end += *s;
            *s = end;
        }
        for (i, ((p, qi), &c)) in sources.zip(cells.iter()).enumerate() {
            cell_start[c as usize] -= 1;
            let s = cell_start[c as usize] as usize;
            (x[s], y[s], z[s], q[s], id[s]) = (p.x(), p.y(), p.z(), qi, i as u32);
        }
        NearField {
            bbox: *bbox,
            alpha,
            rcut,
            soft_core,
            ncell,
            wraps,
            n_owned,
            columns,
            indices,
            potential: vec![0.0; n_owned],
            field: vec![Vec3::ZERO; n_owned],
        }
    }

    /// The number of linked cells: [`NearField::run`] takes ranges of
    /// `0..cells()`.
    pub(crate) fn cells(&self) -> usize {
        self.ncell.iter().product()
    }

    /// The CSR cell starts.
    fn cell_start(&self) -> &[u32] {
        let n_all = self.columns.len() / 4;
        &self.indices[2 * n_all..]
    }

    /// The pairs cell `ci`'s receivers would test: its owned particles times
    /// the sources of the cells it meets — a function of the cells'
    /// occupancy alone.
    pub(crate) fn candidates(&self, ci: usize) -> u64 {
        let n_all = self.columns.len() / 4;
        let (id, cell_start) = (&self.indices[n_all..2 * n_all], self.cell_start());
        let receivers = id[cell_start[ci] as usize..cell_start[ci + 1] as usize].iter();
        let owned = receivers.filter(|&&i| (i as usize) < self.n_owned).count() as u64;
        if owned == 0 {
            return 0;
        }
        let mut visits = [0usize; 27];
        let distinct = cell_visits(self.ncell, self.wraps, ci, &mut visits);
        let sources: usize =
            visits[..distinct].iter().map(|&c| (cell_start[c + 1] - cell_start[c]) as usize).sum();
        owned * sources as u64
    }

    /// Evaluate the receivers of the target cells `cells`; returns the pair
    /// interactions evaluated.
    ///
    /// Summation order is [`near_field`]'s: every receiver adds its sources
    /// cell by cell in ascending cell index over the distinct neighbouring
    /// cells, and within a cell in *descending* particle index.
    pub(crate) fn run(&mut self, cells: std::ops::Range<usize>) -> u64 {
        let n_all = self.columns.len() / 4;
        let (x, rest) = self.columns.split_at(n_all);
        let (y, rest) = rest.split_at(n_all);
        let (z, q) = rest.split_at(n_all);
        let (id, cell_start) = self.indices[n_all..].split_at(n_all);
        let (bbox, alpha, n_owned) = (&self.bbox, self.alpha, self.n_owned);
        let (ncell, wraps) = (self.ncell, self.wraps);
        let (potential, field) = (&mut self.potential, &mut self.field);
        let rcut2 = self.rcut * self.rcut;
        let mut pairs = 0u64;
        let mut visits = [0usize; 27];
        for ci in cells {
            let receivers = cell_start[ci] as usize..cell_start[ci + 1] as usize;
            if receivers.is_empty() {
                continue;
            }
            let distinct = cell_visits(ncell, wraps, ci, &mut visits);
            for s in receivers {
                let i = id[s] as usize;
                if i >= n_owned {
                    continue;
                }
                let pi = Vec3::new(x[s], y[s], z[s]);
                // One reciprocal per receiver instead of two divides per pair
                // in the soft-core branch below.
                let inv_qi = self.soft_core.as_ref().map(|core| (core.epsilon / q[s], core.sigma));
                let (mut pot, mut fld) = (0.0, Vec3::ZERO);
                for &cell in &visits[..distinct] {
                    let span = cell_start[cell] as usize..cell_start[cell + 1] as usize;
                    let (xs, ys, zs) = (&x[span.clone()], &y[span.clone()], &z[span.clone()]);
                    for (((&xt, &yt), &zt), &qj) in xs.iter().zip(ys).zip(zs).zip(&q[span]) {
                        // The receiver meets itself at r2 == 0, like any
                        // coincident source: no index comparison needed.
                        let d = bbox.min_image(pi, Vec3::new(xt, yt, zt));
                        let r2 = d.norm2();
                        if r2 <= rcut2 && r2 > 0.0 {
                            let r = r2.sqrt();
                            let inv_r = 1.0 / r;
                            let inv_r2 = inv_r * inv_r;
                            let e = erfc(alpha * r) * inv_r;
                            let de =
                                (e + alpha * M_2_SQRTPI * (-alpha * alpha * r2).exp()) * inv_r2;
                            pot += qj * e;
                            fld += d * (qj * de);
                            if let Some((eps_qi, sigma)) = inv_qi {
                                // Pair repulsion folded into the potential/field
                                // channels (divided by the receiving charge so
                                // 0.5*q*phi and q*E give pair energy and force).
                                let s2 = (sigma * inv_r) * (sigma * inv_r);
                                let s6 = s2 * s2 * s2;
                                let u = eps_qi * s6 * s6;
                                pot += u;
                                fld += d * (12.0 * u * inv_r2);
                            }
                            pairs += 1;
                        }
                    }
                }
                potential[i] = pot;
                field[i] = fld;
            }
        }
        pairs
    }

    /// The per-owned-particle `(potential, field)` the runs so far computed
    /// (zero for the receivers of cells not run).
    pub(crate) fn finish(self) -> (Vec<f64>, Vec<Vec3>) {
        (self.potential, self.field)
    }
}

/// The distinct cells cell `ci` of an `ncell` grid meets (itself included),
/// ascending, into `visits`; returns how many. Every particle of a cell
/// visits the same ones (wrapped dimensions may alias several offsets onto
/// one cell on tiny grids).
fn cell_visits(ncell: [usize; 3], wraps: [bool; 3], ci: usize, visits: &mut [usize; 27]) -> usize {
    let cc = [ci / (ncell[1] * ncell[2]), ci / ncell[2] % ncell[1], ci % ncell[2]];
    let mut n_visits = 0;
    for dx in -1..=1i64 {
        for dy in -1..=1i64 {
            'offset: for dz in -1..=1i64 {
                let mut c = [0usize; 3];
                for (d, dd) in [dx, dy, dz].into_iter().enumerate() {
                    let raw = cc[d] as i64 + dd;
                    if wraps[d] {
                        c[d] = raw.rem_euclid(ncell[d] as i64) as usize;
                    } else if raw < 0 || raw >= ncell[d] as i64 {
                        continue 'offset;
                    } else {
                        c[d] = raw as usize;
                    }
                }
                visits[n_visits] = (c[0] * ncell[1] + c[1]) * ncell[2] + c[2];
                n_visits += 1;
            }
        }
    }
    visits[..n_visits].sort_unstable();
    let mut distinct = 0;
    for v in 0..n_visits {
        if v == 0 || visits[v] != visits[distinct - 1] {
            visits[distinct] = visits[v];
            distinct += 1;
        }
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The head/next linked-list implementation this module shipped before the
    /// CSR layout, kept verbatim as the bit-for-bit oracle of the summation
    /// order contract.
    #[allow(clippy::too_many_arguments)]
    fn near_field_linked_list(
        bbox: &SystemBox,
        alpha: f64,
        rcut: f64,
        soft_core: Option<particles::SoftCore>,
        region: (Vec3, Vec3),
        owned_pos: &[Vec3],
        owned_charge: &[f64],
        ghost_pos: &[Vec3],
        ghost_charge: &[f64],
    ) -> (Vec<f64>, Vec<Vec3>, u64) {
        let l = bbox.lengths;
        let n_owned = owned_pos.len();
        let n_all = n_owned + ghost_pos.len();
        let (lo, hi) = region;
        let center = (lo + hi) * 0.5;

        // Linked cells. Along dimensions where the region covers the whole
        // (periodic) box there are no ghosts, so the cell grid itself wraps;
        // otherwise the region is expanded by rcut to hold the ghosts.
        let mut ncell = [0usize; 3];
        let mut cell_w = [0.0f64; 3];
        let mut origin = Vec3::ZERO;
        let mut wraps = [false; 3];
        for d in 0..3 {
            wraps[d] = bbox.periodic[d] && (hi[d] - lo[d]) >= l[d] - 1e-9;
            let span = if wraps[d] { hi[d] - lo[d] } else { (hi[d] - lo[d]) + 2.0 * rcut };
            ncell[d] = ((span / rcut).floor() as usize).max(1);
            cell_w[d] = span / ncell[d] as f64;
            origin[d] = if wraps[d] { lo[d] } else { lo[d] - rcut };
        }
        let cell_coords = |p: Vec3| -> [usize; 3] {
            // Localize the (possibly wrapped) position relative to the region.
            let rel = center + bbox.min_image(p, center);
            let mut c = [0usize; 3];
            for d in 0..3 {
                let x = ((rel[d] - origin[d]) / cell_w[d]).floor();
                c[d] = (x.max(0.0) as usize).min(ncell[d] - 1);
            }
            c
        };
        let cell_of = |p: Vec3| -> usize {
            let c = cell_coords(p);
            (c[0] * ncell[1] + c[1]) * ncell[2] + c[2]
        };

        // Head/next linked lists over the combined particle set. Positions and
        // charges are concatenated up front so the hot pair loop indexes flat
        // slices instead of branching between the owned and ghost halves.
        let total_cells = ncell[0] * ncell[1] * ncell[2];
        let mut head = vec![usize::MAX; total_cells];
        let mut next = vec![usize::MAX; n_all];
        let mut all_pos = Vec::with_capacity(n_all);
        all_pos.extend_from_slice(owned_pos);
        all_pos.extend_from_slice(ghost_pos);
        let mut all_charge = Vec::with_capacity(n_all);
        all_charge.extend_from_slice(owned_charge);
        all_charge.extend_from_slice(ghost_charge);
        // Cell of every owned particle, remembered from the list build so the
        // interaction loop does not recompute `cell_coords` (a min-image call).
        let mut owned_cell = vec![0usize; n_owned];
        for (i, nx) in next.iter_mut().enumerate() {
            let c = cell_of(all_pos[i]);
            if i < n_owned {
                owned_cell[i] = c;
            }
            *nx = head[c];
            head[c] = i;
        }

        // Neighbour stencil per *cell*, not per particle: every particle in a
        // cell visits the same distinct neighbouring cells (wrapped dimensions
        // may alias several offsets onto the same cell on tiny grids), so the
        // sorted, deduplicated visit lists are built once for each cell. Flat
        // arena + offsets; `visits[c]` is `arena[offs[c]..offs[c + 1]]`.
        let mut visit_arena: Vec<usize> = Vec::with_capacity(total_cells * 27);
        let mut visit_offs: Vec<usize> = Vec::with_capacity(total_cells + 1);
        visit_offs.push(0);
        for c0 in 0..ncell[0] {
            for c1 in 0..ncell[1] {
                for c2 in 0..ncell[2] {
                    let ci = [c0, c1, c2];
                    let start = visit_arena.len();
                    for dx in -1..=1i64 {
                        for dy in -1..=1i64 {
                            for dz in -1..=1i64 {
                                let mut c = [0usize; 3];
                                let mut ok = true;
                                for (d, dd) in [dx, dy, dz].into_iter().enumerate() {
                                    let raw = ci[d] as i64 + dd;
                                    if wraps[d] {
                                        c[d] = raw.rem_euclid(ncell[d] as i64) as usize;
                                    } else if raw < 0 || raw >= ncell[d] as i64 {
                                        ok = false;
                                        break;
                                    } else {
                                        c[d] = raw as usize;
                                    }
                                }
                                if ok {
                                    visit_arena.push((c[0] * ncell[1] + c[1]) * ncell[2] + c[2]);
                                }
                            }
                        }
                    }
                    visit_arena[start..].sort_unstable();
                    let mut w = start;
                    for r in start..visit_arena.len() {
                        if r == start || visit_arena[r] != visit_arena[w - 1] {
                            visit_arena[w] = visit_arena[r];
                            w += 1;
                        }
                    }
                    visit_arena.truncate(w);
                    visit_offs.push(w);
                }
            }
        }

        let rcut2 = rcut * rcut;
        let mut potential = vec![0.0; n_owned];
        let mut field = vec![Vec3::ZERO; n_owned];
        let mut pairs = 0u64;
        for i in 0..n_owned {
            let pi = owned_pos[i];
            let ci = owned_cell[i];
            // One reciprocal per receiver instead of two divides per pair in the
            // soft-core branch below.
            let inv_qi =
                soft_core.as_ref().map(|core| (core.epsilon / owned_charge[i], core.sigma));
            for &cell in &visit_arena[visit_offs[ci]..visit_offs[ci + 1]] {
                let mut j = head[cell];
                while j != usize::MAX {
                    if j != i {
                        let d = bbox.min_image(pi, all_pos[j]);
                        let r2 = d.norm2();
                        if r2 <= rcut2 && r2 > 0.0 {
                            let r = r2.sqrt();
                            let inv_r = 1.0 / r;
                            let inv_r2 = inv_r * inv_r;
                            let qj = all_charge[j];
                            let e = erfc(alpha * r) * inv_r;
                            let de =
                                (e + alpha * M_2_SQRTPI * (-alpha * alpha * r2).exp()) * inv_r2;
                            potential[i] += qj * e;
                            field[i] += d * (qj * de);
                            if let Some((eps_qi, sigma)) = inv_qi {
                                // Pair repulsion folded into the potential/field
                                // channels (divided by the receiving charge so
                                // 0.5*q*phi and q*E give pair energy and force).
                                let s2 = (sigma * inv_r) * (sigma * inv_r);
                                let s6 = s2 * s2 * s2;
                                let u = eps_qi * s6 * s6;
                                potential[i] += u;
                                field[i] += d * (12.0 * u * inv_r2);
                            }
                            pairs += 1;
                        }
                    }
                    j = next[j];
                }
            }
        }
        (potential, field, pairs)
    }

    fn brute_force(
        bbox: &SystemBox,
        alpha: f64,
        rcut: f64,
        owned: &[(Vec3, f64)],
        all: &[(Vec3, f64)],
    ) -> (Vec<f64>, Vec<Vec3>) {
        let mut pot = vec![0.0; owned.len()];
        let mut field = vec![Vec3::ZERO; owned.len()];
        for (i, &(pi, _)) in owned.iter().enumerate() {
            for &(pj, qj) in all {
                let d = bbox.min_image(pi, pj);
                let r2 = d.norm2();
                if r2 == 0.0 || r2 > rcut * rcut {
                    continue;
                }
                let r = r2.sqrt();
                let e = erfc(alpha * r) / r;
                let de = e / r2 + alpha * M_2_SQRTPI * (-alpha * alpha * r2).exp() / r2;
                pot[i] += qj * e;
                field[i] += d * (qj * de);
            }
        }
        (pot, field)
    }

    fn hash_pos(i: u64, l: f64) -> Vec3 {
        let h = |x: u64| -> f64 {
            let mut v = x.wrapping_mul(0x9e3779b97f4a7c15);
            v ^= v >> 29;
            v = v.wrapping_mul(0xbf58476d1ce4e5b9);
            (v >> 11) as f64 / (1u64 << 53) as f64 * l
        };
        Vec3::new(h(i * 3 + 1), h(i * 3 + 2), h(i * 3 + 3))
    }

    #[test]
    fn linked_cells_match_brute_force() {
        let bbox = SystemBox::cubic(10.0);
        let alpha = 0.8;
        let rcut = 2.5;
        // Owned region: half the box; ghosts everywhere else (as sources).
        let region = (Vec3::ZERO, Vec3::new(5.0, 10.0, 10.0));
        let mut owned = Vec::new();
        let mut ghosts = Vec::new();
        for i in 0..300u64 {
            let p = hash_pos(i, 10.0);
            let q = if i % 2 == 0 { 1.0 } else { -1.0 };
            if p.x() < 5.0 {
                owned.push((p, q));
            } else {
                ghosts.push((p, q));
            }
        }
        let (op, oq): (Vec<Vec3>, Vec<f64>) = owned.iter().cloned().unzip();
        let (gp, gq): (Vec<Vec3>, Vec<f64>) = ghosts.iter().cloned().unzip();
        let (pot, field, pairs) = near_field(&bbox, alpha, rcut, None, region, &op, &oq, &gp, &gq);
        let all: Vec<(Vec3, f64)> = owned.iter().chain(&ghosts).cloned().collect();
        let (wpot, wfield) = brute_force(&bbox, alpha, rcut, &owned, &all);
        assert!(pairs > 0);
        for i in 0..owned.len() {
            assert!(
                (pot[i] - wpot[i]).abs() < 1e-12 * wpot[i].abs().max(1.0),
                "i={i}: {a} vs {b}",
                a = pot[i],
                b = wpot[i]
            );
            assert!((field[i] - wfield[i]).norm() < 1e-12);
        }
    }

    #[test]
    fn wrapped_pairs_are_found() {
        // Two particles across the periodic boundary, within rcut.
        let bbox = SystemBox::cubic(10.0);
        let region = (Vec3::ZERO, Vec3::splat(10.0));
        let pos = vec![Vec3::new(0.2, 5.0, 5.0), Vec3::new(9.9, 5.0, 5.0)];
        let charge = vec![1.0, 1.0];
        let (pot, _, pairs) = near_field(&bbox, 0.5, 2.0, None, region, &pos, &charge, &[], &[]);
        assert_eq!(pairs, 2);
        let r = 0.3;
        let want = erfc(0.5 * r) / r;
        assert!((pot[0] - want).abs() < 1e-12);
        assert!((pot[1] - want).abs() < 1e-12);
    }

    #[test]
    fn pairs_beyond_cutoff_ignored() {
        let bbox = SystemBox::cubic(20.0);
        let region = (Vec3::ZERO, Vec3::splat(20.0));
        let pos = vec![Vec3::new(1.0, 1.0, 1.0), Vec3::new(9.0, 9.0, 9.0)];
        let charge = vec![1.0, -1.0];
        let (pot, field, pairs) =
            near_field(&bbox, 0.5, 3.0, None, region, &pos, &charge, &[], &[]);
        assert_eq!(pairs, 0);
        assert!(pot.iter().all(|&p| p == 0.0));
        assert!(field.iter().all(|f| f.norm() == 0.0));
    }

    #[test]
    fn ghost_only_sources_do_not_receive() {
        let bbox = SystemBox::cubic(10.0);
        let region = (Vec3::ZERO, Vec3::splat(5.0));
        let op = vec![Vec3::new(2.0, 2.0, 2.0)];
        let oq = vec![1.0];
        let gp = vec![Vec3::new(2.5, 2.0, 2.0)];
        let gq = vec![-1.0];
        let (pot, _, pairs) = near_field(&bbox, 1.0, 2.0, None, region, &op, &oq, &gp, &gq);
        assert_eq!(pot.len(), 1, "ghosts must not receive results");
        assert_eq!(pairs, 1);
        assert!(pot[0] < 0.0);
    }

    /// splitmix64 stream for the property test below.
    struct Gen(u64);

    impl Gen {
        fn unit(&mut self) -> f64 {
            self.0 = particles::systems::splitmix64(self.0);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.unit() * n as f64) as usize
        }

        /// `n` charged particles uniform in `lo..lo + extent`, each coordinate
        /// then displaced by up to `periods` whole box periods either way.
        fn particles(
            &mut self,
            bbox: &SystemBox,
            (lo, extent): (Vec3, Vec3),
            n: usize,
            periods: i64,
        ) -> Vec<(Vec3, f64)> {
            (0..n)
                .map(|_| {
                    let mut p = Vec3::ZERO;
                    for d in 0..3 {
                        let shift = self.below(2 * periods as usize + 1) as i64 - periods;
                        p[d] = lo[d] + self.unit() * extent[d] + shift as f64 * bbox.lengths[d];
                    }
                    (p, if self.unit() < 0.5 { 1.0 } else { -0.75 })
                })
                .collect()
        }
    }

    /// One near-field input: box, cutoff, soft core, region, owned particles
    /// and ghosts.
    type Shape<'a> = (
        &'a SystemBox,
        f64,
        Option<particles::SoftCore>,
        (Vec3, Vec3),
        &'a [(Vec3, f64)],
        &'a [(Vec3, f64)],
    );

    /// Require the bits of `want` (potentials, fields, pair count) from
    /// `got`.
    fn assert_bits(
        got: &(Vec<f64>, Vec<Vec3>, u64),
        want: &(Vec<f64>, Vec<Vec3>, u64),
        what: &str,
    ) {
        assert_eq!(got.2, want.2, "{what}: pair count");
        assert_eq!(got.0.len(), want.0.len(), "{what}");
        for i in 0..want.0.len() {
            assert_eq!(got.0[i].to_bits(), want.0[i].to_bits(), "{what}: potential[{i}]");
            for d in 0..3 {
                assert_eq!(
                    got.1[i][d].to_bits(),
                    want.1[i][d].to_bits(),
                    "{what}: field[{i}][{d}]"
                );
            }
        }
    }

    /// Run the CSR kernel and the linked-list oracle on the same input and
    /// require identical bits; returns the pair count.
    fn assert_same_bits(
        bbox: &SystemBox,
        rcut: f64,
        soft_core: Option<particles::SoftCore>,
        region: (Vec3, Vec3),
        owned: &[(Vec3, f64)],
        ghosts: &[(Vec3, f64)],
    ) -> u64 {
        let (op, oq): (Vec<Vec3>, Vec<f64>) = owned.iter().cloned().unzip();
        let (gp, gq): (Vec<Vec3>, Vec<f64>) = ghosts.iter().cloned().unzip();
        let alpha = 2.5 / rcut;
        let got = near_field(bbox, alpha, rcut, soft_core, region, &op, &oq, &gp, &gq);
        let want = near_field_linked_list(bbox, alpha, rcut, soft_core, region, &op, &oq, &gp, &gq);
        assert_eq!(got.0.len(), owned.len());
        assert_bits(&got, &want, "CSR kernel");
        got.2
    }

    /// Run [`near_field`] and the prepared [`NearField`] over ranges of its
    /// cells — one range, one cell per range, empty ranges between, random
    /// cuts, and those ranges run last to first — and require the one
    /// call's bits from every split; returns the pair count.
    fn assert_chunks_same_bits(
        (bbox, rcut, soft_core, region, owned, ghosts): Shape<'_>,
        cuts: &mut Gen,
    ) -> u64 {
        let (op, oq): (Vec<Vec3>, Vec<f64>) = owned.iter().cloned().unzip();
        let (gp, gq): (Vec<Vec3>, Vec<f64>) = ghosts.iter().cloned().unzip();
        let alpha = 2.5 / rcut;
        let want = near_field(bbox, alpha, rcut, soft_core, region, &op, &oq, &gp, &gq);
        let prepared = || {
            let sources = owned.iter().chain(ghosts).copied();
            NearField::new(bbox, (alpha, rcut, soft_core), region, owned.len(), sources)
        };
        let cells = prepared().cells();
        let mut random = vec![0, cells];
        random.extend((0..cuts.below(6)).map(|_| cuts.below(cells + 1)));
        random.sort_unstable();
        let splits: [(&str, Vec<usize>); 4] = [
            ("one range", vec![0, cells]),
            ("one cell per range", (0..=cells).collect()),
            ("empty ranges between", (0..=cells).flat_map(|c| [c, c]).collect()),
            ("random cuts", random),
        ];
        for (what, bounds) in &splits {
            let ranges: Vec<_> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
            for reversed in [false, true] {
                let mut near = prepared();
                let mut pairs = 0;
                let order: Vec<_> =
                    if reversed { ranges.iter().rev().collect() } else { ranges.iter().collect() };
                for range in order {
                    pairs += near.run(range.clone());
                }
                let (potential, field) = near.finish();
                let what = format!("{what}, reversed {reversed}");
                assert_bits(&(potential, field, pairs), &want, &what);
            }
        }
        want.2
    }

    #[test]
    fn csr_kernel_is_bit_equal_to_linked_list() {
        near_field_shapes(|shape| {
            let (bbox, rcut, soft_core, region, owned, ghosts) = shape;
            assert_same_bits(bbox, rcut, soft_core, region, owned, ghosts)
        });
    }

    #[test]
    fn chunked_near_field_is_bit_equal_to_near_field() {
        let mut cuts = Gen(0xc0ffee);
        near_field_shapes(|shape| assert_chunks_same_bits(shape, &mut cuts));
    }

    /// The near-field shapes both kernels' tests sweep: periodic, mixed and
    /// open boxes, subdomains with ghosts, no receivers, one crowded cell,
    /// and wrapped grids so small that stencil offsets alias. `check` runs
    /// one and returns its pair count.
    fn near_field_shapes(mut check: impl FnMut(Shape<'_>) -> u64) {
        let mut g = Gen(0xc5a);
        let mut total_pairs = 0u64;
        for round in 0..60 {
            let lengths =
                Vec3::new(8.0 + 6.0 * g.unit(), 8.0 + 6.0 * g.unit(), 8.0 + 6.0 * g.unit());
            let offset = Vec3::splat(-3.0 * g.unit());
            let periodic = [[true; 3], [true, true, false], [false; 3]][round % 3];
            let bbox = SystemBox::new(offset, lengths, periodic);
            let lmin = lengths.x().min(lengths.y()).min(lengths.z());
            let rcut = (0.12 + 0.38 * g.unit()) * lmin;
            let soft_core =
                (round % 2 == 0).then_some(particles::SoftCore { epsilon: 0.8, sigma: 0.3 * rcut });
            let whole = (offset, offset + lengths);
            let periods = (round % 4 == 1) as i64 * 2;
            let n = g.below(350);
            let all = g.particles(&bbox, (offset, lengths), n, periods);

            // Fully wrapped (or, on non-periodic axes, ghost-expanded) region
            // over the whole box: the benchmark probe's shape.
            total_pairs += check((&bbox, rcut, soft_core, whole, &all, &[]));

            // A subdomain with ghosts: owned are the particles whose wrapped
            // position lies in the region, everything else within reach (and
            // a margin beyond it, like the solver's skin) is a ghost.
            let mut lo = offset;
            let mut hi = offset + lengths;
            for d in 0..3 {
                if g.unit() < 0.7 {
                    let cut = offset[d] + (0.3 + 0.4 * g.unit()) * lengths[d];
                    if g.unit() < 0.5 {
                        lo[d] = cut;
                    } else {
                        hi[d] = cut;
                    }
                }
            }
            let inside = |p: Vec3| {
                let w = bbox.wrap(p);
                (0..3).all(|d| w[d] >= lo[d] && w[d] < hi[d])
            };
            let mid = (lo + hi) * 0.5;
            let reach = (hi - lo) * 0.5 + Vec3::splat(1.3 * rcut);
            let near = |p: Vec3| {
                let m = bbox.min_image(p, mid);
                (0..3).all(|d| m[d].abs() <= reach[d])
            };
            let owned: Vec<_> = all.iter().cloned().filter(|&(p, _)| inside(p)).collect();
            let ghosts: Vec<_> =
                all.iter().cloned().filter(|&(p, _)| !inside(p) && near(p)).collect();
            total_pairs += check((&bbox, rcut, soft_core, (lo, hi), &owned, &ghosts));

            // No receivers at all.
            assert_eq!(check((&bbox, rcut, soft_core, (lo, hi), &[], &ghosts)), 0);

            // Everything in one cell, duplicates included (r = 0 is skipped).
            let n_blob = 20 + g.below(40);
            let corner = (offset + lengths * 0.4, Vec3::splat(0.2 * rcut));
            let mut blob = g.particles(&bbox, corner, n_blob, periods);
            blob.push(blob[0]);
            total_pairs += check((&bbox, rcut, soft_core, whole, &blob, &[]));
        }

        // Wrapped grids so small that stencil offsets alias: rcut = L/2 gives
        // 2x2x2 cells (-1 and +1 name the same neighbour), and a cutoff inside
        // the assertion's 1e-12 slack above L/2 gives a single cell that is
        // its own 27 neighbours.
        for (k, rcut) in [5.0, 5.0 + 5e-13, 5.0, 5.0 + 5e-13].into_iter().enumerate() {
            let bbox = SystemBox::cubic(10.0);
            let soft_core = (k < 2).then_some(particles::SoftCore { epsilon: 0.8, sigma: 1.1 });
            let all = g.particles(&bbox, (Vec3::ZERO, bbox.lengths), 120, k as i64 % 2);
            let whole = (Vec3::ZERO, bbox.lengths);
            total_pairs += check((&bbox, rcut, soft_core, whole, &all, &[]));
        }
        assert!(total_pairs > 100_000, "the sweep must exercise the hit path: {total_pairs}");
    }
}
