//! `psort::stable_order` through the public API: the stable sorting
//! permutation of `u64` keys, the counting passes it charges, and the kept
//! buffers it fills without allocating once they are large enough.

use psort::stable_order;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `(key, index)` comparison sort: the stable order by definition.
fn comparison_order(keys: &[u64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_unstable_by_key(|&j| (keys[j as usize], j));
    order
}

/// The 8-bit digits in which some two keys differ.
fn varying_digits(keys: &[u64]) -> u32 {
    (0..64)
        .step_by(8)
        .filter(|&shift| keys.iter().any(|&k| (k ^ keys[0]) >> shift & 0xff != 0))
        .count() as u32
}

#[test]
fn stable_order_is_the_comparison_sort_and_keeps_its_buffers() {
    let mut seed = 3;
    let random: Vec<u64> = (0..1000).map(|_| splitmix(&mut seed)).collect();
    let narrow: Vec<u64> = (0..1000).map(|_| splitmix(&mut seed) & 0x00ff_0f00).collect();
    let duplicates: Vec<u64> = (0..1000).map(|_| (splitmix(&mut seed) % 3) << 40).collect();
    let mut sorted = random.clone();
    sorted.sort_unstable();
    let (mut order, mut next) = (Vec::new(), Vec::new());
    for (what, keys) in [
        ("random", &random),
        ("narrow", &narrow),
        ("duplicate-heavy", &duplicates),
        ("sorted", &sorted),
        ("empty", &Vec::new()),
        ("one key", &vec![u64::MAX]),
    ] {
        let (passes, permuted) = stable_order(keys, &mut order, &mut next);
        assert_eq!(passes, varying_digits(keys), "{what}: passes");
        let want = comparison_order(keys);
        let sorted_input = want.iter().enumerate().all(|(i, &j)| i == j as usize);
        assert_eq!(permuted, !sorted_input, "{what}: permuted");
        if permuted {
            assert_eq!(order, want, "{what}: order");
        } else {
            assert!(order.is_empty(), "{what}: the identity is not written out");
        }
    }

    // Narrower key types sort as their `u64` values do.
    let narrow32: Vec<u32> = narrow.iter().map(|&k| k as u32).collect();
    assert_eq!(stable_order(&narrow32, &mut order, &mut next), (2, true));
    assert_eq!(order, comparison_order(&narrow));

    // Sorted input allocates nothing.
    let (mut fresh, mut fresh_next) = (Vec::new(), Vec::new());
    assert!(!stable_order(&sorted, &mut fresh, &mut fresh_next).1);
    assert_eq!((fresh.capacity(), fresh_next.capacity()), (0, 0));

    // Kept buffers large enough are refilled in place.
    stable_order(&random, &mut order, &mut next);
    let kept = [order.as_ptr(), next.as_ptr()];
    for keys in [&duplicates, &narrow, &random] {
        stable_order(keys, &mut order, &mut next);
        // The passes swap the two buffers; together they stay the same two.
        let mut now = [order.as_ptr(), next.as_ptr()];
        now.sort_unstable();
        let mut want = kept;
        want.sort_unstable();
        assert_eq!(now, want);
        assert_eq!(order, comparison_order(keys));
    }
}
