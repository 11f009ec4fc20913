//! Local (per-rank) sorting kernels. All of them are built on one ordering
//! kernel, [`stable_order`]: an LSD radix sort that moves 4-byte indices, not
//! records, and returns the stable sorting permutation of a `u64` key slice.
//! The local sort gathers along it once ([`radix_sort_by_key`]); the
//! partition sort merges the sorted runs it received by ordering their
//! concatenated keys ([`merge_runs`]); the merge sort's compare-split merges
//! in place only the part of a rank's run that changes ([`keep_half`]).

use crate::order::stable_order;

/// Sort `keys` ascending and apply the same permutation to `values`: the
/// stable order of the keys is computed on 4-byte indices, then each column
/// is gathered once. Already sorted input is left untouched.
///
/// Returns the number of 8-bit counting passes an LSD radix sort of these
/// keys performs — digits that are constant over all keys are skipped, so
/// small-range keys cost few passes — for work accounting.
pub fn radix_sort_by_key<T: Copy>(keys: &mut Vec<u64>, values: &mut Vec<T>) -> u32 {
    assert_eq!(keys.len(), values.len());
    let (mut order, mut next) = (Vec::new(), Vec::new());
    let (passes, permuted) = stable_order(keys, &mut order, &mut next);
    if permuted {
        *keys = order.iter().map(|&i| keys[i as usize]).collect();
        *values = order.iter().map(|&i| values[i as usize]).collect();
    }
    passes
}

/// Merge the individually sorted runs a partition exchange delivered into
/// one sorted pair of columns. `records` walks the runs one after another in
/// ascending source rank — the rank's own bucket among them, read where the
/// local sort left it — `total` records in all. Stable across runs: on equal
/// keys the earlier run comes first, then the position within the run —
/// which is the stable order of the runs' keys concatenated, so the records
/// are read where they are and each is moved once.
pub(crate) fn merge_runs<'a, T: Copy + 'a>(
    total: usize,
    records: impl Iterator<Item = (u64, &'a T)>,
) -> (Vec<u64>, Vec<T>) {
    let mut keys: Vec<u64> = Vec::with_capacity(total);
    let mut values: Vec<&T> = Vec::with_capacity(total);
    for (k, v) in records {
        keys.push(k);
        values.push(v);
    }
    debug_assert_eq!(keys.len(), total, "the runs hold `total` records");
    let (mut order, mut next) = (Vec::new(), Vec::new());
    if stable_order(&keys, &mut order, &mut next).1 {
        (
            order.iter().map(|&i| keys[i as usize]).collect(),
            order.iter().map(|&i| *values[i as usize]).collect(),
        )
    } else {
        (keys, values.into_iter().copied().collect())
    }
}

/// One side of a compare-split. `keys` / `values` is this rank's sorted run,
/// `theirs` the partner's; in the stable merge of the two — the lower rank's
/// record first on equal keys — the lower rank (`i_am_low`) keeps the first
/// `keys.len()` records and the higher rank the last `keys.len()`.
///
/// Both keep most of what they hold, so the run is merged in place: the
/// records this rank gives up are counted off the far end of each run, then
/// the kept ones are merged from that end inward, and the merge stops as soon
/// as the partner's contribution is placed — what lies beyond is already
/// where it belongs. Nothing is allocated and no record outside the
/// interleaved region moves.
pub(crate) fn keep_half<T: Copy>(
    keys: &mut [u64],
    values: &mut [T],
    theirs: &[(u64, T)],
    i_am_low: bool,
) {
    let (n, m) = (keys.len(), theirs.len());
    // The records that change sides: the low run's `c` largest and the high
    // run's `c` smallest, as long as the former are strictly greater.
    let mut c = 0;
    if i_am_low {
        while c < n.min(m) && theirs[c].0 < keys[n - 1 - c] {
            c += 1;
        }
        // Backward from the top: on equal keys the partner's record is the
        // later one in the union.
        let (mut x, mut y) = (n - c, c);
        while y > 0 {
            if x > 0 && keys[x - 1] > theirs[y - 1].0 {
                x -= 1;
                (keys[x + y], values[x + y]) = (keys[x], values[x]);
            } else {
                y -= 1;
                (keys[x + y], values[x + y]) = theirs[y];
            }
        }
    } else {
        while c < n.min(m) && theirs[m - 1 - c].0 > keys[c] {
            c += 1;
        }
        // Forward from the bottom: on equal keys the partner's record is the
        // earlier one in the union.
        let (mut x, mut y) = (c, m - c);
        while y < m {
            let j = x + y - m;
            if x < n && keys[x] < theirs[y].0 {
                (keys[j], values[j]) = (keys[x], values[x]);
                x += 1;
            } else {
                (keys[j], values[j]) = theirs[y];
                y += 1;
            }
        }
    }
}

/// Is the slice sorted ascending?
pub fn is_sorted(keys: &[u64]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}

/// Split a sorted `keys` slice at `splitters` (ascending): returns the start
/// index of each of the `splitters.len() + 1` buckets, where bucket `i`
/// contains keys in `[splitters[i-1], splitters[i])`.
pub fn bucket_bounds(keys: &[u64], splitters: &[u64]) -> Vec<usize> {
    debug_assert!(is_sorted(keys));
    let mut bounds = Vec::with_capacity(splitters.len() + 1);
    bounds.push(0);
    for &s in splitters {
        bounds.push(keys.partition_point(|&k| k < s));
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The payload-moving LSD radix sort [`radix_sort_by_key`] replaced, kept
    /// verbatim as the oracle for keys, payload order and pass count.
    fn radix_sort_by_key_oracle<T: Copy>(keys: &mut Vec<u64>, values: &mut Vec<T>) -> u32 {
        assert_eq!(keys.len(), values.len());
        let n = keys.len();
        if n <= 1 {
            return 0;
        }
        let mut passes = 0;
        let mut k_src = std::mem::take(keys);
        let mut v_src = std::mem::take(values);
        let mut k_dst = vec![0u64; n];
        let mut v_dst = v_src.clone();
        for shift in (0..64).step_by(8) {
            let mut counts = [0usize; 256];
            for &k in &k_src {
                counts[((k >> shift) & 0xff) as usize] += 1;
            }
            // Skip passes where all keys share the digit.
            if counts.contains(&n) {
                continue;
            }
            passes += 1;
            let mut offsets = [0usize; 256];
            let mut acc = 0;
            for d in 0..256 {
                offsets[d] = acc;
                acc += counts[d];
            }
            for (i, &k) in k_src.iter().enumerate() {
                let d = ((k >> shift) & 0xff) as usize;
                k_dst[offsets[d]] = k;
                v_dst[offsets[d]] = v_src[i];
                offsets[d] += 1;
            }
            std::mem::swap(&mut k_src, &mut k_dst);
            std::mem::swap(&mut v_src, &mut v_dst);
        }
        *keys = k_src;
        *values = v_src;
        passes
    }

    /// The heap-based k-way merge [`merge_runs`] replaced, kept verbatim as
    /// its oracle. Stable across runs: ties preserve run order.
    fn kway_merge<T: Copy>(runs: Vec<(Vec<u64>, Vec<T>)>) -> (Vec<u64>, Vec<T>) {
        let total: usize = runs.iter().map(|(k, _)| k.len()).sum();
        let mut out_k = Vec::with_capacity(total);
        let mut out_v = Vec::with_capacity(total);
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut cursors = vec![0usize; runs.len()];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (r, (k, _)) in runs.iter().enumerate() {
            if !k.is_empty() {
                heap.push(Reverse((k[0], r)));
            }
        }
        while let Some(Reverse((key, r))) = heap.pop() {
            let c = cursors[r];
            out_k.push(key);
            out_v.push(runs[r].1[c]);
            cursors[r] += 1;
            if cursors[r] < runs[r].0.len() {
                heap.push(Reverse((runs[r].0[cursors[r]], r)));
            }
        }
        (out_k, out_v)
    }

    /// The full-union compare-split merge [`keep_half`] replaced, kept
    /// verbatim as its oracle: unzip the partner's run, merge all `n + m`
    /// records with the low rank's first on ties, keep the entry count.
    fn keep_half_oracle<T: Copy>(
        keys: &mut Vec<u64>,
        values: &mut Vec<T>,
        incoming: Vec<(u64, T)>,
        i_am_low: bool,
    ) {
        let n_mine = keys.len();
        let (a_keys, a_vals, b_keys, b_vals): (&[u64], &[T], Vec<u64>, Vec<T>) = {
            let (ik, iv): (Vec<u64>, Vec<T>) = incoming.into_iter().unzip();
            (keys, values, ik, iv)
        };
        let total = a_keys.len() + b_keys.len();
        let mut merged_k = Vec::with_capacity(total);
        let mut merged_v = Vec::with_capacity(total);
        {
            // "low" rank's data must precede on ties.
            let (lo_k, lo_v, hi_k, hi_v): (&[u64], &[T], &[u64], &[T]) = if i_am_low {
                (a_keys, a_vals, &b_keys, &b_vals)
            } else {
                (&b_keys, &b_vals, a_keys, a_vals)
            };
            let (mut x, mut y) = (0, 0);
            while x < lo_k.len() && y < hi_k.len() {
                if lo_k[x] <= hi_k[y] {
                    merged_k.push(lo_k[x]);
                    merged_v.push(lo_v[x]);
                    x += 1;
                } else {
                    merged_k.push(hi_k[y]);
                    merged_v.push(hi_v[y]);
                    y += 1;
                }
            }
            merged_k.extend_from_slice(&lo_k[x..]);
            merged_v.extend_from_slice(&lo_v[x..]);
            merged_k.extend_from_slice(&hi_k[y..]);
            merged_v.extend_from_slice(&hi_v[y..]);
        }
        // Keep entry count: low side the first n_mine, high side the last n_mine.
        if i_am_low {
            merged_k.truncate(n_mine);
            merged_v.truncate(n_mine);
            *keys = merged_k;
            *values = merged_v;
        } else {
            *keys = merged_k.split_off(total - n_mine);
            *values = merged_v.split_off(total - n_mine);
        }
    }

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Key sets the sorts meet, `n` keys each from the stream of `seed`.
    const SHAPES: [&str; 8] = [
        "random 64-bit",
        "redist (40 bits + 2^41)",
        "Morton-like 9 bits",
        "all equal",
        "sorted",
        "reversed",
        "heavy duplicates",
        "almost sorted",
    ];

    fn shaped_keys(shape: usize, n: usize, seed: u64) -> Vec<u64> {
        let h = |i: usize| splitmix(seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
        (0..n)
            .map(|i| match shape {
                0 => h(i),
                1 => (1u64 << 41) + (h(i) >> 24),
                2 => h(i) % 512,
                3 => seed,
                4 => (i as u64) << 7,
                5 => ((n - i) as u64) << 7,
                6 => h(i) % 5,
                _ => ((i as u64) << 20).wrapping_add_signed((h(i) % (1 << 23)) as i64 - (1 << 22)),
            })
            .collect()
    }

    #[test]
    fn radix_sort_matches_the_payload_moving_oracle() {
        for (shape, name) in SHAPES.iter().enumerate() {
            for n in [0usize, 1, 2, 3, 27, 256, 257, 2048] {
                for seed in 0..3u64 {
                    let keys = shaped_keys(shape, n, seed);
                    // Position as payload: equal keys stay distinguishable.
                    let values: Vec<u32> = (0..n as u32).collect();
                    let (mut k, mut v) = (keys.clone(), values.clone());
                    let (mut ok, mut ov) = (keys, values);
                    let passes = radix_sort_by_key(&mut k, &mut v);
                    let want = radix_sort_by_key_oracle(&mut ok, &mut ov);
                    assert_eq!(passes, want, "{name}, n {n}, seed {seed}: pass count");
                    assert_eq!(k, ok, "{name}, n {n}, seed {seed}: keys");
                    assert_eq!(v, ov, "{name}, n {n}, seed {seed}: payload order (stability)");
                }
            }
        }
    }

    #[test]
    fn stable_order_is_empty_exactly_for_sorted_keys() {
        let order = |keys: &[u64]| {
            let (mut order, mut next) = (Vec::new(), Vec::new());
            let (passes, permuted) = stable_order(keys, &mut order, &mut next);
            assert_eq!(permuted, !order.is_empty());
            (passes, permuted)
        };
        for (shape, name) in SHAPES.iter().enumerate() {
            let keys = shaped_keys(shape, 300, 9);
            assert_eq!(order(&keys).1, !is_sorted(&keys), "{name}");
        }
        // No key, no varying digit: OR / AND over nothing must not say 8.
        assert_eq!(order(&[]), (0, false));
        assert_eq!(order(&[u64::MAX]), (0, false));
        // Sorted keys still report the passes a radix sort would take.
        assert_eq!(order(&[1, 2, 0x1_0000]), (2, false));
    }

    #[test]
    fn radix_handles_trivial_inputs() {
        let mut k: Vec<u64> = vec![];
        let mut v: Vec<u8> = vec![];
        assert_eq!(radix_sort_by_key(&mut k, &mut v), 0);
        let mut k = vec![7u64];
        let mut v = vec![1u8];
        assert_eq!(radix_sort_by_key(&mut k, &mut v), 0);
        assert_eq!(k, vec![7]);
    }

    #[test]
    fn radix_skips_constant_digits() {
        // Keys within one byte: only one pass needed.
        let mut k: Vec<u64> = (0..256u64).rev().collect();
        let mut v: Vec<u64> = k.clone();
        let passes = radix_sort_by_key(&mut k, &mut v);
        assert_eq!(passes, 1);
        assert!(is_sorted(&k));
        assert_eq!(k, v, "payload must follow keys");
    }

    #[test]
    fn radix_is_stable_like_for_payloads() {
        // Equal keys: payload order preserved (LSD radix is stable).
        let mut k = vec![5u64, 3, 5, 3, 5];
        let mut v = vec![0u32, 1, 2, 3, 4];
        radix_sort_by_key(&mut k, &mut v);
        assert_eq!(k, vec![3, 3, 5, 5, 5]);
        assert_eq!(v, vec![1, 3, 0, 2, 4]);
    }

    /// Received runs, each with its source rank.
    type Runs = Vec<(usize, Vec<(u64, (usize, usize))>)>;

    /// Sorted runs of the given lengths; the payload names (run, position),
    /// so ties across and within runs stay distinguishable.
    fn sorted_runs(lens: &[usize], shape: usize, seed: u64) -> Runs {
        lens.iter()
            .enumerate()
            .map(|(r, &len)| {
                let mut keys = shaped_keys(shape, len, seed ^ (r as u64) << 32);
                keys.sort_unstable();
                (r, keys.into_iter().enumerate().map(|(i, k)| (k, (r, i))).collect())
            })
            .collect()
    }

    fn assert_merge_matches_heap(runs: &Runs, what: &str) {
        let total = runs.iter().map(|(_, run)| run.len()).sum();
        let got =
            merge_runs(total, runs.iter().flat_map(|(_, run)| run.iter().map(|(k, v)| (*k, v))));
        let want = kway_merge(runs.iter().map(|(_, run)| run.iter().copied().unzip()).collect());
        assert_eq!(got, want, "{what}");
    }

    #[test]
    fn merge_runs_matches_the_heap_oracle() {
        assert_merge_matches_heap(&Vec::new(), "no run");
        assert_merge_matches_heap(&sorted_runs(&[0, 0, 0], 0, 1), "only empty runs");
        assert_merge_matches_heap(&sorted_runs(&[100], 0, 2), "a single run");
        assert_merge_matches_heap(&sorted_runs(&[0, 5, 0, 0, 1, 0], 6, 3), "empty runs between");
        for (shape, name) in SHAPES.iter().enumerate() {
            // 64 runs of skewed lengths; shapes 2, 3 and 6 tie across runs.
            let lens: Vec<usize> = (0..64).map(|r| (splitmix(r) % 48) as usize).collect();
            assert_merge_matches_heap(&sorted_runs(&lens, shape, 4), name);
        }
        // Runs already in global order: the merge is the concatenation.
        let mut ordered = sorted_runs(&[30, 0, 20, 10], 4, 5);
        for (r, run) in &mut ordered {
            run.iter_mut().for_each(|rec| rec.0 += (*r as u64) << 40);
        }
        assert_merge_matches_heap(&ordered, "globally ordered runs");
    }

    fn assert_keep_half_matches_union(low: &[u64], high: &[u64], what: &str) {
        // Payload names (side, position).
        let pack = |keys: &[u64], side: u8| -> Vec<(u64, (u8, usize))> {
            keys.iter().enumerate().map(|(i, &k)| (k, (side, i))).collect()
        };
        for i_am_low in [true, false] {
            let (mine, theirs) = if i_am_low { (low, high) } else { (high, low) };
            let theirs = pack(theirs, u8::from(i_am_low));
            let (mut k, mut v): (Vec<u64>, Vec<_>) =
                pack(mine, u8::from(!i_am_low)).into_iter().unzip();
            let (mut ok, mut ov) = (k.clone(), v.clone());
            keep_half(&mut k, &mut v, &theirs, i_am_low);
            keep_half_oracle(&mut ok, &mut ov, theirs, i_am_low);
            assert_eq!((k, v), (ok, ov), "{what}, low side: {i_am_low}");
        }
    }

    #[test]
    fn keep_half_matches_the_full_union_oracle() {
        assert_keep_half_matches_union(&[1, 4, 9], &[2, 3, 11], "interleaved");
        assert_keep_half_matches_union(&[5, 5, 5, 5], &[5, 5, 5], "an all-ties boundary");
        assert_keep_half_matches_union(&[3, 5, 5], &[5, 5, 8, 9], "ties at the boundary");
        assert_keep_half_matches_union(&[7], &[3], "one-element runs, swapped");
        assert_keep_half_matches_union(&[3], &[3], "one-element runs, tied");
        assert_keep_half_matches_union(&[10, 11, 12], &[1, 2], "partner entirely below / above");
        assert_keep_half_matches_union(&[1, 2], &[10, 11, 12], "already ordered");
        assert_keep_half_matches_union(&[9], &[1, 2, 3, 4, 5], "one record against a long run");
        assert_keep_half_matches_union(&[], &[1, 2], "an empty side");
        for (shape, name) in SHAPES.iter().enumerate() {
            for (n_low, n_high) in [(64, 64), (100, 37), (5, 200), (1, 1), (2, 1)] {
                for seed in 0..4u64 {
                    let mut low = shaped_keys(shape, n_low, seed);
                    let mut high = shaped_keys(shape, n_high, seed ^ 0xffff);
                    low.sort_unstable();
                    high.sort_unstable();
                    assert_keep_half_matches_union(
                        &low,
                        &high,
                        &format!("{name}, {n_low} / {n_high}, seed {seed}"),
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_bounds_partition_correctly() {
        let keys = [1u64, 3, 5, 5, 8, 13];
        let bounds = bucket_bounds(&keys, &[5, 9]);
        assert_eq!(bounds, vec![0, 2, 5]);
        // bucket 0: [1,3), keys < 5 -> indices 0..2
        // bucket 1: 5 <= k < 9 -> indices 2..5
        // bucket 2: k >= 9 -> indices 5..6
    }

    #[test]
    fn bucket_bounds_empty_and_extreme_splitters() {
        let keys = [10u64, 20, 30];
        assert_eq!(bucket_bounds(&keys, &[]), vec![0]);
        assert_eq!(bucket_bounds(&keys, &[0, 100]), vec![0, 0, 3]);
        let empty: [u64; 0] = [];
        assert_eq!(bucket_bounds(&empty, &[5]), vec![0, 0]);
    }
}
