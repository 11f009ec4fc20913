//! Octree cells over Z-Morton keys: key/center geometry, grouping of sorted
//! particles into leaf cells, and the standard FMM interaction lists (with
//! optional periodic wraparound).

use particles::zorder;
use particles::{SystemBox, Vec3};

/// Z-Morton leaf key of a position on a `2^level` grid over the box.
#[inline]
pub fn leaf_key(bbox: &SystemBox, pos: Vec3, level: u32) -> u64 {
    let t = bbox.normalized(pos);
    zorder::key_of_normalized([t.x(), t.y(), t.z()], level)
}

/// Geometric center of the cell with Morton `key` at `level`.
pub fn cell_center(bbox: &SystemBox, key: u64, level: u32) -> Vec3 {
    let (x, y, z) = zorder::decode(key);
    let cells = (1u64 << level) as f64;
    Vec3::new(
        bbox.offset.x() + (x as f64 + 0.5) * bbox.lengths.x() / cells,
        bbox.offset.y() + (y as f64 + 0.5) * bbox.lengths.y() / cells,
        bbox.offset.z() + (z as f64 + 0.5) * bbox.lengths.z() / cells,
    )
}

/// Group a sorted key array into `(key, start..end)` cell runs.
pub fn cells_from_sorted(keys: &[u64]) -> Vec<(u64, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    cells_from_sorted_into(keys, &mut out);
    out
}

/// [`cells_from_sorted`] into a kept list (cleared first).
pub fn cells_from_sorted_into(keys: &[u64], out: &mut Vec<(u64, std::ops::Range<usize>)>) {
    out.clear();
    let mut i = 0;
    while i < keys.len() {
        let k = keys[i];
        let mut j = i + 1;
        while j < keys.len() && keys[j] == k {
            j += 1;
        }
        debug_assert!(j == keys.len() || keys[j] > k, "keys must be sorted");
        out.push((k, i..j));
        i = j;
    }
}

/// The leaf-key ranges of the ranks that hold particles, as the step's
/// `allgather` of every rank's first and last key reports them: a compacted
/// list of `(first, last, rank)` in ascending rank — and so, the ranks being
/// segments of one sorted sequence, in ascending key — searched by bisection
/// instead of scanned rank by rank. Ranges may share a boundary key before
/// the cells are aligned to rank boundaries; the lowest rank wins.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyOwners(Vec<(u64, u64, usize)>);

impl KeyOwners {
    /// Rebuild from the gathered `(first key, last key)` of every rank, in
    /// rank order (`None` for a rank without particles).
    pub fn rebuild(&mut self, spans: impl IntoIterator<Item = Option<(u64, u64)>>) {
        self.0.clear();
        let held = spans.into_iter().enumerate().filter_map(|(r, s)| s.map(|(f, l)| (f, l, r)));
        self.0.extend(held);
        debug_assert!(self.0.windows(2).all(|w| w[0].1 <= w[1].0), "ranks hold sorted segments");
    }

    /// The lowest rank whose range contains `key`.
    pub fn owner_of(&self, key: u64) -> Option<usize> {
        let at = self.0.partition_point(|&(_, last, _)| last < key);
        self.0.get(at).filter(|&&(first, _, _)| first <= key).map(|&(_, _, rank)| rank)
    }

    /// Whether some rank's first key is owned by another rank: a leaf cell
    /// split across a rank boundary, its particles held by two ranks or more.
    pub(crate) fn splits_a_cell(&self) -> bool {
        self.0.windows(2).any(|w| w[0].1 == w[1].0)
    }

    /// The ranks whose range intersects `lo..=hi`, ascending.
    pub fn overlapping(&self, lo: u64, hi: u64) -> impl Iterator<Item = usize> + '_ {
        let from = self.0.partition_point(|&(_, last, _)| last < lo);
        self.0[from..].iter().take_while(move |&&(first, _, _)| first <= hi).map(|&(_, _, r)| r)
    }
}

/// The cell displacement `d` along one dimension of a grid of `2^level`
/// cells, folded to the shortest wrapped one when `periodic`. A displacement
/// of exactly half the grid keeps its sign.
pub fn wrap_offset(d: i64, level: u32, periodic: bool) -> i64 {
    if !periodic {
        return d;
    }
    let n = 1i64 << level;
    let mut d = d % n;
    if d > n / 2 {
        d -= n;
    } else if d < -(n / 2) {
        d += n;
    }
    d
}

/// Signed relative cell offset between two cells at the same level, using the
/// shortest (wrapped) displacement when `periodic`.
pub fn cell_offset(a: u64, b: u64, level: u32, periodic: bool) -> [i64; 3] {
    let (ax, ay, az) = zorder::decode(a);
    let (bx, by, bz) = zorder::decode(b);
    [bx as i64 - ax as i64, by as i64 - ay as i64, bz as i64 - az as i64]
        .map(|d| wrap_offset(d, level, periodic))
}

/// Neighbour keys (Chebyshev distance 1) of `key` at `level`. With
/// `periodic`, wraps around; otherwise out-of-domain neighbours are skipped.
/// Excludes `key` itself; deduplicated (relevant for tiny periodic grids).
pub fn neighbor_keys(key: u64, level: u32, periodic: bool) -> Vec<u64> {
    if periodic {
        return zorder::neighbor_keys_periodic(key, level);
    }
    let n = 1i64 << level;
    let (x, y, z) = zorder::decode(key);
    let mut out = Vec::with_capacity(26);
    for dx in -1..=1i64 {
        for dy in -1..=1i64 {
            for dz in -1..=1i64 {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                let nx = x as i64 + dx;
                let ny = y as i64 + dy;
                let nz = z as i64 + dz;
                if nx < 0 || ny < 0 || nz < 0 || nx >= n || ny >= n || nz >= n {
                    continue;
                }
                out.push(zorder::encode(nx as u32, ny as u32, nz as u32));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The displacement `(dx, dy, dz)`, each in `-1..=1`, that the direction
/// `(dx + 1) * 9 + (dy + 1) * 3 + (dz + 1)` of [`neighbor_blocks`] encodes.
pub fn direction_offset(direction: u8) -> [i64; 3] {
    let d = direction as i64;
    [d / 9 - 1, d / 3 % 3 - 1, d % 3 - 1]
}

/// The cells within Chebyshev distance 1 of `key` at `level`, `key` itself
/// included, written to `out` as `(cell key, direction)` pairs in ascending
/// order; returns how many ([`direction_offset`] decodes the direction of the
/// displacement from `key`). Open boundaries leave out-of-domain cells out;
/// with `periodic` they wrap, so on grids narrower than three cells several
/// directions name the same cell (adjacent in the output). The distinct keys
/// other than `key` are [`neighbor_keys`]; this form allocates nothing and
/// keeps the direction for the M2L stencil.
pub fn neighbor_blocks(key: u64, level: u32, periodic: bool, out: &mut [(u64, u8); 27]) -> usize {
    let n = 1i64 << level;
    let (x, y, z) = zorder::decode(key);
    let mut len = 0;
    for dir in 0..27u8 {
        let d = direction_offset(dir);
        let mut c = [x as i64 + d[0], y as i64 + d[1], z as i64 + d[2]];
        if periodic {
            c = c.map(|v| v.rem_euclid(n));
        } else if c.iter().any(|&v| v < 0 || v >= n) {
            continue;
        }
        out[len] = (zorder::encode(c[0] as u32, c[1] as u32, c[2] as u32), dir);
        len += 1;
    }
    out[..len].sort_unstable();
    len
}

/// The M2L interaction list of a target cell: children of the (wrapped)
/// neighbours of the target's parent that are not themselves (wrapped)
/// neighbours of the target (and not the target). At levels too coarse for
/// well-separation (fewer than 4 cells per dimension with wraparound) the
/// list is empty and everything is deferred to finer levels.
pub fn interaction_list(key: u64, level: u32, periodic: bool) -> Vec<u64> {
    if level == 0 {
        return Vec::new();
    }
    if periodic && level < 2 {
        // With wraparound and < 4 cells per dimension, every cell is adjacent
        // to every other; nothing is well separated.
        return Vec::new();
    }
    let parent = zorder::parent(key);
    let mut candidates: Vec<u64> = Vec::with_capacity(216);
    for pn in neighbor_keys(parent, level - 1, periodic) {
        for c in 0..8u8 {
            candidates.push(zorder::child(pn, c));
        }
    }
    // Own parent's other children are adjacent or the target itself at this
    // level only if within distance 1; include them as candidates too.
    for c in 0..8u8 {
        candidates.push(zorder::child(parent, c));
    }
    candidates.sort_unstable();
    candidates.dedup();
    let excluded: std::collections::HashSet<u64> =
        neighbor_keys(key, level, periodic).into_iter().collect();
    candidates
        .into_iter()
        .filter(|&c| c != key && !excluded.contains(&c))
        .filter(|&c| {
            // With periodic wrap on small grids, a candidate may alias to an
            // adjacent cell; the exclusion set already handles that. For the
            // open case, out-of-domain children cannot arise because parents
            // are in-domain and children of in-domain parents are in-domain.
            let off = cell_offset(key, c, level, periodic);
            off.iter().any(|&d| d.abs() >= 2)
        })
        .collect()
}

/// Effective source-cell center for an M2L translation from source cell `src`
/// to target cell `tgt` at `level`: the source center shifted to its nearest
/// periodic image relative to the target (identity for open boundaries).
pub fn effective_source_center(
    bbox: &SystemBox,
    tgt: u64,
    src: u64,
    level: u32,
    periodic: bool,
) -> Vec3 {
    let tc = cell_center(bbox, tgt, level);
    if !periodic {
        return cell_center(bbox, src, level);
    }
    let off = cell_offset(tgt, src, level, true);
    let cells = (1u64 << level) as f64;
    tc + Vec3::new(
        off[0] as f64 * bbox.lengths.x() / cells,
        off[1] as f64 * bbox.lengths.y() / cells,
        off[2] as f64 * bbox.lengths.z() / cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn bbox() -> SystemBox {
        SystemBox::cubic(8.0)
    }

    #[test]
    fn key_owners_agree_with_the_linear_scans() {
        // The scans `KeyOwners` replaced, over every rank's range.
        let owner_scan = |ranges: &[(Option<u64>, Option<u64>)], k: u64| {
            ranges
                .iter()
                .position(|&(f, l)| matches!((f, l), (Some(f), Some(l)) if f <= k && k <= l))
        };
        let overlap_scan = |ranges: &[(Option<u64>, Option<u64>)], lo: u64, hi: u64| {
            let hit = |&(_, &(f, l)): &(usize, &(Option<u64>, Option<u64>))| matches!((f, l), (Some(f), Some(l)) if f <= hi && lo <= l);
            ranges.iter().enumerate().filter(hit).map(|(r, _)| r).collect::<Vec<_>>()
        };
        let mut state = 0x0b5e55ed;
        let mut draw = |n: u64| {
            state = particles::systems::splitmix64(state);
            state % n
        };
        let mut owners = KeyOwners::default();
        for p in 1..=130usize {
            // Ascending ranges with gaps; a third of the ranks empty, a third
            // holding a single cell. `shared` lets a range start on the key
            // its predecessor ends on, as before the cells are aligned.
            for shared in [false, true] {
                let mut next = draw(4);
                let ranges: Vec<(Option<u64>, Option<u64>)> = (0..p)
                    .map(|_| match draw(3) {
                        0 => (None, None),
                        kind => {
                            let first = next + if shared { 0 } else { 1 } + draw(3);
                            let last = first + if kind == 1 { 0 } else { draw(6) };
                            next = last;
                            (Some(first), Some(last))
                        }
                    })
                    .collect();
                owners.rebuild(ranges.iter().map(|&(f, l)| f.zip(l)));
                for k in 0..next + 4 {
                    assert_eq!(owners.owner_of(k), owner_scan(&ranges, k), "p={p} key {k}");
                }
                for _ in 0..40 {
                    let lo = draw(next + 4);
                    let hi = lo + draw(9);
                    let got: Vec<usize> = owners.overlapping(lo, hi).collect();
                    assert_eq!(got, overlap_scan(&ranges, lo, hi), "p={p} {lo}..={hi}");
                }
                let split = ranges.iter().enumerate().any(|(r, &(first, _))| {
                    first.is_some_and(|f| owner_scan(&ranges, f) != Some(r))
                });
                assert_eq!(owners.splits_a_cell(), split, "p={p} shared {shared}");
            }
        }
    }

    #[test]
    fn leaf_key_and_center_roundtrip() {
        let b = bbox();
        let level = 3; // 8x8x8 cells of width 1
        for &(x, y, z) in &[(0.5, 0.5, 0.5), (7.3, 0.1, 4.9), (3.99, 4.01, 6.5)] {
            let p = Vec3::new(x, y, z);
            let k = leaf_key(&b, p, level);
            let c = cell_center(&b, k, level);
            // The position must be inside the cell of its key.
            assert!((p - c).max_abs() <= 0.5 + 1e-12, "{p:?} vs center {c:?}");
        }
    }

    #[test]
    fn cells_from_sorted_groups_runs() {
        let keys = [1u64, 1, 1, 4, 7, 7];
        let cells = cells_from_sorted(&keys);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0], (1, 0..3));
        assert_eq!(cells[1], (4, 3..4));
        assert_eq!(cells[2], (7, 4..6));
        assert!(cells_from_sorted(&[]).is_empty());
    }

    #[test]
    fn neighbor_keys_open_at_corner() {
        let level = 3;
        let corner = particles::zorder::encode(0, 0, 0);
        assert_eq!(neighbor_keys(corner, level, false).len(), 7);
        assert_eq!(neighbor_keys(corner, level, true).len(), 26);
        let middle = particles::zorder::encode(4, 4, 4);
        assert_eq!(neighbor_keys(middle, level, false).len(), 26);
    }

    #[test]
    fn neighbor_blocks_are_neighbor_keys_plus_self_with_directions() {
        for level in 0..=3u32 {
            for periodic in [false, true] {
                for key in 0..1u64 << (3 * level) {
                    let mut blocks = [(0u64, 0u8); 27];
                    let nb = neighbor_blocks(key, level, periodic, &mut blocks);
                    let blocks = &blocks[..nb];
                    assert!(blocks.is_sorted());
                    let mut distinct: Vec<u64> = blocks.iter().map(|b| b.0).collect();
                    distinct.dedup();
                    let mut want = neighbor_keys(key, level, periodic);
                    want.push(key);
                    want.sort_unstable();
                    assert_eq!(distinct, want, "level {level} periodic {periodic} key {key}");
                    for &(k, dir) in blocks {
                        let d = direction_offset(dir);
                        let off = cell_offset(key, k, level, false);
                        for c in 0..3 {
                            assert_eq!((off[c] - d[c]).rem_euclid(1 << level), 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interaction_list_well_separated() {
        let level = 3;
        for &periodic in &[false, true] {
            let t = particles::zorder::encode(3, 4, 2);
            let list = interaction_list(t, level, periodic);
            assert!(!list.is_empty());
            for &s in &list {
                let off = cell_offset(t, s, level, periodic);
                assert!(off.iter().any(|&d| d.abs() >= 2), "not separated: {off:?}");
                assert!(off.iter().all(|&d| d.abs() <= 3), "too far: {off:?}");
            }
        }
    }

    #[test]
    fn interaction_list_empty_at_coarse_periodic_levels() {
        assert!(interaction_list(0, 0, true).is_empty());
        assert!(interaction_list(3, 1, true).is_empty());
        // Open boundaries at level 1: 2x2x2 cells, all adjacent -> empty too.
        assert!(interaction_list(3, 1, false).is_empty());
    }

    /// The fundamental FMM coverage invariant: for any target leaf, every
    /// source leaf is accounted for exactly once — either as an adjacent
    /// (near-field) cell, or in the interaction list of exactly one ancestor
    /// level, with ancestors' adjacency deferring coverage downward.
    fn check_coverage(levels: u32, periodic: bool) {
        let n = 1u32 << levels;
        let all_leaves: Vec<u64> = (0..n)
            .flat_map(|x| {
                (0..n).flat_map(move |y| (0..n).map(move |z| particles::zorder::encode(x, y, z)))
            })
            .collect();
        for &t in &all_leaves {
            let mut covered: HashSet<u64> = HashSet::new();
            // Near field: t itself and adjacent leaves.
            covered.insert(t);
            for nk in neighbor_keys(t, levels, periodic) {
                assert!(covered.insert(nk), "duplicate near neighbour");
            }
            // Far field: interaction lists of t and its ancestors; a source
            // cell at level l covers all its leaf descendants.
            let mut anc = t;
            for l in (1..=levels).rev() {
                for s in interaction_list(anc, l, periodic) {
                    // All leaf descendants of s.
                    let shift = 3 * (levels - l);
                    for leaf_suffix in 0..(1u64 << shift) {
                        let leaf = (s << shift) | leaf_suffix;
                        assert!(
                            covered.insert(leaf),
                            "leaf {leaf:#x} covered twice (target {t:#x}, level {l})"
                        );
                    }
                }
                anc = particles::zorder::parent(anc);
            }
            assert_eq!(
                covered.len(),
                all_leaves.len(),
                "target {t:#x}: covered {} of {} leaves",
                covered.len(),
                all_leaves.len()
            );
        }
    }

    #[test]
    fn coverage_exact_open_boundaries() {
        check_coverage(2, false);
        check_coverage(3, false);
    }

    #[test]
    fn coverage_exact_periodic() {
        check_coverage(2, true);
        check_coverage(3, true);
    }

    #[test]
    fn effective_source_center_wraps() {
        let b = bbox();
        let level = 3;
        let t = particles::zorder::encode(0, 0, 0);
        let s = particles::zorder::encode(7, 0, 0); // wrapped: offset -1... excluded from lists, but geometry must wrap
        let c = effective_source_center(&b, t, s, level, true);
        // Nearest image of cell (7,0,0) relative to (0,0,0) is at x = -0.5.
        assert!((c.x() - -0.5).abs() < 1e-12, "{c:?}");
        // Open: the plain center.
        let c_open = effective_source_center(&b, t, s, level, false);
        assert!((c_open.x() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn cell_offset_wraps_shortest_way() {
        let level = 3; // 8 cells per dim
        let a = particles::zorder::encode(1, 1, 1);
        let b = particles::zorder::encode(7, 1, 1);
        assert_eq!(cell_offset(a, b, level, true), [-2, 0, 0]);
        assert_eq!(cell_offset(a, b, level, false), [6, 0, 0]);
    }
}
