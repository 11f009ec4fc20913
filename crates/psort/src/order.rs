//! The ordering kernel of every local sort: the stable sorting permutation
//! of an integer key slice by an LSD radix sort that moves 4-byte indices,
//! not records.
//!
//! This file depends on nothing but `std`. The particle-mesh solver compiles
//! it in as well (a `#[path]` module) for its linked-cell order: a crate
//! dependency would rewrite the lock file of the separately locked benchmark
//! package, which is frozen together with the benchmark.

/// The stable sorting permutation of `keys` (of any unsigned integer type up
/// to 64 bits) and the number of 8-bit counting passes an LSD radix sort of
/// them needs — the digits that are not constant over the slice, which is
/// what the callers charge as sort work.
///
/// The permutation goes to `order`: for every output position, the index of
/// the key that belongs there; equal keys keep their input order. `next` is
/// the scatter buffer of the passes. Both are cleared first and only grow,
/// so a caller that keeps them allocates nothing once they are large enough.
/// The flag says whether `order` was filled: it is `false` exactly when the
/// keys are already non-decreasing (the stable sort of sorted input is the
/// identity), and then neither buffer is touched beyond the clear.
pub fn stable_order<K: Copy + Into<u64>>(
    keys: &[K],
    order: &mut Vec<u32>,
    next: &mut Vec<u32>,
) -> (u32, bool) {
    order.clear();
    next.clear();
    let n = u32::try_from(keys.len()).expect("more than u32::MAX records on one rank");
    if n <= 1 {
        return (0, false);
    }
    let (mut or, mut and, mut sorted) = (0u64, u64::MAX, true);
    let mut prev: u64 = keys[0].into();
    for k in keys.iter().map(|&k| k.into()) {
        or |= k;
        and &= k;
        sorted &= prev <= k;
        prev = k;
    }
    // A digit takes a counting pass iff some bit of it differs between keys.
    let varying = or ^ and;
    let active = |shift: &u32| (varying >> shift) & 0xff != 0;
    let passes = (0..64).step_by(8).filter(active).count() as u32;
    if sorted {
        return (passes, false);
    }

    // One counting pass per varying digit, least significant first, each
    // scattering the order so far into `next`.
    order.extend(0..n);
    next.resize(keys.len(), 0);
    for shift in (0..64).step_by(8).filter(active) {
        let digit = |k: u64| ((k >> shift) & 0xff) as usize;
        let mut offsets = [0u32; 256];
        for &k in keys {
            offsets[digit(k.into())] += 1;
        }
        let mut acc = 0;
        for slot in &mut offsets {
            acc += std::mem::replace(slot, acc);
        }
        for &i in order.iter() {
            let slot = &mut offsets[digit(keys[i as usize].into())];
            next[*slot as usize] = i;
            *slot += 1;
        }
        std::mem::swap(order, next);
    }
    (passes, true)
}
