//! The shared M2L interaction stencil of one octree level.
//!
//! [`crate::tree::interaction_list`] is the definition: the children of the
//! target's parent's neighbours that are not adjacent to the target, in
//! ascending Morton order. Relative to the target those sources depend only
//! on the target's octant within its parent, so the solver stores them once
//! per octant *class* instead of once per target: per class and per
//! neighbour direction of the parent (see [`neighbor_blocks`]), the child
//! octants that are sources and the slot of each one's derivative tensor in
//! the level's offset-indexed table. Walking a parent's blocks in ascending
//! key order and each block's entries in ascending child order visits the
//! sources in exactly the order of `interaction_list`.
//!
//! Periodic grids narrower than the stencil's reach (fewer than 8 cells per
//! dimension) wrap offsets differently for every target position, and several
//! directions name the same block; there every cell is its own class, and of
//! the directions that alias only the first carries entries.
//!
//! [`neighbor_blocks`]: crate::tree::neighbor_blocks

use particles::zorder;

use crate::tree::{direction_offset, wrap_offset};

/// Slots of a level's tensor table: one per relative cell offset in
/// `[-3, 3]^3`.
pub(crate) const TENSOR_SLOTS: usize = 343;

/// Table slot of the derivative tensor for the relative cell offset `off`.
fn tensor_slot(off: [i64; 3]) -> u16 {
    debug_assert!(off.iter().all(|d| d.abs() <= 3));
    (((off[0] + 3) * 7 + off[1] + 3) * 7 + off[2] + 3) as u16
}

/// One source of a stencil block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct StencilEntry {
    /// Octant of the source cell within its parent block.
    pub child: u8,
    /// Slot of the source's derivative tensor in the level's table.
    pub tensor: u16,
}

/// The interaction stencil of one level (module docs).
pub(crate) struct Stencil {
    /// `key & class_mask` is a target's class.
    class_mask: u64,
    /// `spans[class * 27 + direction]`: that block's range in `entries`.
    spans: Vec<(u32, u32)>,
    entries: Vec<StencilEntry>,
}

impl Stencil {
    /// Build the stencil of `level` (`level` 0 has no interaction lists).
    pub(crate) fn new(level: u32, periodic: bool) -> Self {
        let mut st = Stencil { class_mask: 7, spans: Vec::new(), entries: Vec::new() };
        if level == 0 {
            return st;
        }
        let n = 1i64 << level;
        if periodic && n < 8 {
            st.class_mask = (1 << (3 * level)) - 1;
        }
        for class in 0..=st.class_mask {
            // The class's representative target: the cell itself where every
            // cell is a class, else the octant in the parent at the origin.
            let t = zorder::decode(class);
            let t = [t.0 as i64, t.1 as i64, t.2 as i64];
            let mut seen: Vec<[i64; 3]> = Vec::new();
            for dir in 0..27u8 {
                let start = st.entries.len() as u32;
                let d = direction_offset(dir);
                let mut block = [t[0] / 2 + d[0], t[1] / 2 + d[1], t[2] / 2 + d[2]];
                if periodic {
                    block = block.map(|v| v.rem_euclid(n / 2));
                }
                if !seen.contains(&block) {
                    seen.push(block);
                    for child in 0..8u8 {
                        let s = [
                            2 * block[0] + (child & 1) as i64,
                            2 * block[1] + (child >> 1 & 1) as i64,
                            2 * block[2] + (child >> 2 & 1) as i64,
                        ];
                        let off = [s[0] - t[0], s[1] - t[1], s[2] - t[2]]
                            .map(|d| wrap_offset(d, level, periodic));
                        if off.iter().any(|d| d.abs() >= 2) {
                            st.entries.push(StencilEntry { child, tensor: tensor_slot(off) });
                        }
                    }
                }
                st.spans.push((start, st.entries.len() as u32));
            }
        }
        st
    }

    /// The sources of `target` in the block at `direction` from its parent,
    /// in ascending child order.
    #[inline]
    pub(crate) fn entries(&self, target: u64, direction: u8) -> &[StencilEntry] {
        let (start, end) =
            self.spans[(target & self.class_mask) as usize * 27 + direction as usize];
        &self.entries[start as usize..end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{cell_offset, interaction_list, neighbor_blocks};

    /// The stencil expands to exactly `tree::interaction_list` — same
    /// sources, same order, each with the slot of its `cell_offset` — for
    /// every cell of levels 1–4 in both boundary modes.
    #[test]
    fn stencil_expands_to_the_interaction_list() {
        for level in 1..=4u32 {
            for periodic in [false, true] {
                let st = Stencil::new(level, periodic);
                for t in 0..1u64 << (3 * level) {
                    let mut blocks = [(0u64, 0u8); 27];
                    let nb = neighbor_blocks(zorder::parent(t), level - 1, periodic, &mut blocks);
                    let mut got = Vec::new();
                    for &(block, dir) in &blocks[..nb] {
                        for e in st.entries(t, dir) {
                            let s = zorder::child(block, e.child);
                            assert_eq!(e.tensor, tensor_slot(cell_offset(t, s, level, periodic)));
                            got.push(s);
                        }
                    }
                    assert_eq!(
                        got,
                        interaction_list(t, level, periodic),
                        "level {level} periodic {periodic} target {t:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn octant_classes_suffice_from_eight_cells_per_dimension() {
        assert_eq!(Stencil::new(2, true).class_mask, 63);
        assert_eq!(Stencil::new(2, false).class_mask, 7);
        assert_eq!(Stencil::new(3, true).class_mask, 7);
        // Every octant sees 6^3 - 3^3 sources, the well-known 189.
        let st = Stencil::new(5, true);
        for class in 0..8u64 {
            let total: usize = (0..27).map(|dir| st.entries(class, dir).len()).sum();
            assert_eq!(total, 189);
        }
    }
}
