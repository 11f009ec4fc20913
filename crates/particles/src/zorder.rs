//! Z-Morton ordering for three dimensions.
//!
//! The FMM solver numbers the boxes of its recursive subdivision according to
//! a Z-Morton ordering (paper, Sect. II-B) and sorts particles by box number;
//! the resulting per-process particle sets correspond to segments of a Z-order
//! space-filling curve. Up to 21 bits per dimension are supported, so a full
//! 63-bit key fits in a `u64`.

/// Maximum supported bits per dimension.
pub const MAX_BITS: u32 = 21;

/// Spread the low 21 bits of `v` so that bit `i` moves to bit `3*i`.
#[inline]
fn spread(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`spread`]: gather bits `0, 3, 6, ...` into the low 21 bits.
#[inline]
fn compact(v: u64) -> u64 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x
}

/// Interleave three 21-bit cell indices into a 63-bit Morton key.
/// Bit layout: key bit `3*i` comes from `x` bit `i`, `3*i + 1` from `y`,
/// `3*i + 2` from `z`, so `z` is the most significant dimension.
#[inline]
pub fn encode(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x < (1 << MAX_BITS) && y < (1 << MAX_BITS) && z < (1 << MAX_BITS));
    spread(x as u64) | (spread(y as u64) << 1) | (spread(z as u64) << 2)
}

/// Inverse of [`encode`].
#[inline]
pub fn decode(key: u64) -> (u32, u32, u32) {
    (compact(key) as u32, compact(key >> 1) as u32, compact(key >> 2) as u32)
}

/// Morton key of a normalized position `t` in `[0,1)^3` on a grid of
/// `2^level` cells per dimension.
#[inline]
pub fn key_of_normalized(t: [f64; 3], level: u32) -> u64 {
    debug_assert!(level <= MAX_BITS);
    let cells = (1u64 << level) as f64;
    let clamp = |v: f64| -> u32 {
        let c = (v * cells).floor();
        (c.max(0.0) as u64).min((1u64 << level) - 1) as u32
    };
    encode(clamp(t[0]), clamp(t[1]), clamp(t[2]))
}

/// The key of the parent cell, one level coarser.
#[inline]
pub fn parent(key: u64) -> u64 {
    key >> 3
}

/// The key of child `c` (0..8) of `key`, one level finer.
#[inline]
pub fn child(key: u64, c: u8) -> u64 {
    debug_assert!(c < 8);
    (key << 3) | c as u64
}

/// Keys of cells adjacent (Chebyshev distance 1, including diagonals) to the
/// cell of `key` at the given `level`, with periodic wraparound; excludes the
/// cell itself. Cells that alias due to tiny grids are deduplicated.
pub fn neighbor_keys_periodic(key: u64, level: u32) -> Vec<u64> {
    let n = 1i64 << level;
    let (x, y, z) = decode(key);
    let mut out = Vec::with_capacity(26);
    for dx in -1..=1i64 {
        for dy in -1..=1i64 {
            for dz in -1..=1i64 {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                let nx = (x as i64 + dx).rem_euclid(n) as u32;
                let ny = (y as i64 + dy).rem_euclid(n) as u32;
                let nz = (z as i64 + dz).rem_euclid(n) as u32;
                let k = encode(nx, ny, nz);
                if k != key {
                    out.push(k);
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_exhaustive_small() {
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    let k = encode(x, y, z);
                    assert_eq!(decode(k), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_large_values() {
        let max = (1u32 << MAX_BITS) - 1;
        for &(x, y, z) in
            &[(max, 0, 0), (0, max, 0), (0, 0, max), (max, max, max), (123456, 654321, 999999)]
        {
            assert_eq!(decode(encode(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn z_curve_locality_order() {
        // The first 8 cells of a 2x2x2 grid follow the Z pattern:
        // (0,0,0), (1,0,0), (0,1,0), (1,1,0), (0,0,1), ...
        let expected = [
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
            (1, 1, 1),
        ];
        for (k, &(x, y, z)) in expected.iter().enumerate() {
            assert_eq!(encode(x, y, z), k as u64);
        }
    }

    #[test]
    fn keys_preserve_containment_hierarchy() {
        let k = encode(5, 3, 7);
        for c in 0..8 {
            assert_eq!(parent(child(k, c)), k);
        }
    }

    #[test]
    fn key_of_normalized_maps_unit_cube() {
        assert_eq!(key_of_normalized([0.0, 0.0, 0.0], 3), 0);
        let last = key_of_normalized([0.999, 0.999, 0.999], 3);
        assert_eq!(decode(last), (7, 7, 7));
        // Values at or above 1.0 clamp to the last cell instead of overflowing.
        let clamped = key_of_normalized([1.0, 2.0, 1.5], 3);
        assert_eq!(decode(clamped), (7, 7, 7));
    }

    #[test]
    fn key_monotone_in_each_dimension_at_fixed_others() {
        // Along any single axis with other coords 0, keys strictly increase.
        let mut prev = encode(0, 0, 0);
        for x in 1..64 {
            let k = encode(x, 0, 0);
            assert!(k > prev);
            prev = k;
        }
    }

    #[test]
    fn neighbors_periodic_count_and_symmetry() {
        let level = 3;
        let k = encode(0, 0, 0);
        let ns = neighbor_keys_periodic(k, level);
        assert_eq!(ns.len(), 26);
        for &n in &ns {
            assert!(neighbor_keys_periodic(n, level).contains(&k));
        }
    }

    #[test]
    fn neighbors_on_tiny_grid_dedup() {
        let ns = neighbor_keys_periodic(encode(0, 0, 0), 1);
        assert_eq!(ns.len(), 7); // 2x2x2 grid: everyone else is a neighbour
    }
}
