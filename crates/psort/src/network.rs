//! Batcher's merge-exchange sorting network (Knuth, TAOCP Vol. 3,
//! Algorithm 5.2.2M), grouped into rounds of disjoint comparators.
//!
//! The merge-based parallel sort runs this network over *ranks*: each
//! comparator `(i, j)` becomes a pairwise compare-split step between ranks
//! `i` and `j` (paper, Sect. III-B: "all processes perform pair-wise merging
//! steps according to Batcher's Merge-Exchange sorting network").

/// Visit all comparators of Batcher's merge-exchange network for `n`
/// elements, in execution order.
fn for_each_comparator(n: usize, mut visit: impl FnMut(usize, usize)) {
    if n < 2 {
        return;
    }
    let t = usize::BITS - (n - 1).leading_zeros(); // ceil(log2 n)
    let mut p = 1usize << (t - 1);
    while p > 0 {
        let mut q = 1usize << (t - 1);
        let mut r = 0usize;
        let mut d = p;
        loop {
            for i in 0..n.saturating_sub(d) {
                if i & p == r {
                    visit(i, i + d);
                }
            }
            if q != p {
                d = q - p;
                q /= 2;
                r = p;
            } else {
                break;
            }
        }
        p /= 2;
    }
}

/// All comparators of Batcher's merge-exchange network for `n` elements, in
/// execution order.
pub fn merge_exchange_comparators(n: usize) -> Vec<(usize, usize)> {
    let mut comparators = Vec::new();
    for_each_comparator(n, |a, b| comparators.push((a, b)));
    comparators
}

/// The comparators of [`merge_exchange_comparators`] greedily grouped into
/// rounds such that no element appears twice within a round (so every rank
/// participates in at most one compare-split per round, and rounds can be
/// executed as parallel pairwise exchanges).
pub fn merge_exchange_rounds(n: usize) -> Vec<Vec<(usize, usize)>> {
    let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut busy_round = vec![0usize; n]; // element i is busy through round busy_round[i]-1
    for_each_comparator(n, |a, b| {
        // The comparator must run after every earlier comparator touching a or
        // b, to preserve network order.
        let round = busy_round[a].max(busy_round[b]);
        if round == rounds.len() {
            rounds.push(Vec::new());
        }
        rounds[round].push((a, b));
        busy_round[a] = round + 1;
        busy_round[b] = round + 1;
    });
    rounds
}

/// "No comparator this round" in a [`partner_schedule`].
pub(crate) const NO_PARTNER: u32 = u32::MAX;

/// Element `me`'s own row of [`merge_exchange_rounds`]: per round the element
/// it is compared with, or [`NO_PARTNER`]. The same greedy grouping, but
/// only the round counters and this one row are kept — one walk over the
/// network, two flat vectors, no comparator list to search.
pub(crate) fn partner_schedule(n: usize, me: usize) -> Vec<u32> {
    assert!(n < NO_PARTNER as usize, "merge-exchange network over more than u32::MAX - 1 ranks");
    let mut busy_round = vec![0u32; n];
    let mut partners: Vec<u32> = Vec::new();
    for_each_comparator(n, |a, b| {
        let round = busy_round[a].max(busy_round[b]);
        busy_round[a] = round + 1;
        busy_round[b] = round + 1;
        if a == me || b == me {
            partners.resize(round as usize, NO_PARTNER);
            partners.push((a + b - me) as u32);
        }
    });
    let rounds = busy_round.iter().copied().max().unwrap_or(0);
    partners.resize(rounds as usize, NO_PARTNER);
    partners
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Execute the network on a scalar array (comparator = compare-exchange).
    fn apply_network(n: usize, data: &mut [u64]) {
        for (a, b) in merge_exchange_comparators(n) {
            if data[a] > data[b] {
                data.swap(a, b);
            }
        }
    }

    #[test]
    fn zero_one_principle_small_n() {
        // A comparator network sorts all inputs iff it sorts all 0-1 inputs.
        for n in 1..=10usize {
            for bits in 0..(1u32 << n) {
                let mut data: Vec<u64> = (0..n).map(|i| ((bits >> i) & 1) as u64).collect();
                apply_network(n, &mut data);
                assert!(data.windows(2).all(|w| w[0] <= w[1]), "n={n} bits={bits:b} -> {data:?}");
            }
        }
    }

    #[test]
    fn sorts_random_permutations() {
        for n in [1usize, 2, 3, 5, 8, 13, 16, 31, 64] {
            let mut data: Vec<u64> = (0..n as u64).map(|i| (i * 48271) % (n as u64)).collect();
            apply_network(n, &mut data);
            assert!(data.windows(2).all(|w| w[0] <= w[1]), "n={n}: {data:?}");
        }
    }

    #[test]
    fn rounds_have_disjoint_elements() {
        for n in [2usize, 7, 16, 33, 256] {
            for round in merge_exchange_rounds(n) {
                let mut seen = vec![false; n];
                for (a, b) in round {
                    assert!(!seen[a] && !seen[b], "element reused within a round");
                    seen[a] = true;
                    seen[b] = true;
                }
            }
        }
    }

    #[test]
    fn rounds_preserve_network_order() {
        // Executing round-by-round must equal executing the raw comparator
        // sequence (both sort, and per-pair order relations are respected by
        // construction; verify end-to-end on permutations).
        for n in [4usize, 9, 16, 27] {
            let base: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 1000).collect();
            let mut a = base.clone();
            apply_network(n, &mut a);
            let mut b = base;
            for round in merge_exchange_rounds(n) {
                for (x, y) in round {
                    if b[x] > b[y] {
                        b.swap(x, y);
                    }
                }
            }
            assert_eq!(a, b);
        }
    }

    #[test]
    fn partner_schedule_is_the_ranks_row_of_the_rounds() {
        // The oracle: materialise every round and search it. Every world
        // size up to 130 and every rank, plus a splitmix64 draw of larger
        // (size, rank) pairs.
        fn splitmix64(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let check = |n: usize, rounds: &[Vec<(usize, usize)>], me: usize| {
            let want: Vec<u32> = rounds
                .iter()
                .map(|round| {
                    let mine = round.iter().find(|&&(a, b)| a == me || b == me);
                    mine.map_or(NO_PARTNER, |&(a, b)| (a + b - me) as u32)
                })
                .collect();
            assert_eq!(partner_schedule(n, me), want, "n={n} me={me}");
        };
        for n in 1..=130usize {
            let rounds = merge_exchange_rounds(n);
            (0..n).for_each(|me| check(n, &rounds, me));
        }
        for draw in 0..24u64 {
            let n = 131 + (splitmix64(draw) % 1900) as usize;
            let rounds = merge_exchange_rounds(n);
            for k in 0..8u64 {
                check(n, &rounds, (splitmix64(draw << 8 | k) % n as u64) as usize);
            }
        }
    }

    #[test]
    fn round_count_is_polylog() {
        // Merge-exchange has ~ t(t+1)/2 rounds with t = ceil(log2 n).
        let rounds = merge_exchange_rounds(256).len();
        assert!(rounds <= 8 * 9 / 2 + 1, "rounds = {rounds}");
        assert!(merge_exchange_rounds(1).is_empty());
        assert_eq!(merge_exchange_rounds(2).len(), 1);
    }
}
