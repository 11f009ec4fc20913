//! Partition-based parallel sorting (the method of Hofmann/Rünger, HPCC'11,
//! used by the FMM solver for unsorted particle data — paper Sect. III-A).
//!
//! Structure: local sort, global selection of `P-1` splitter keys that divide
//! the data into (nearly) equal parts, an **all-to-all** exchange routing each
//! bucket to its target rank, and a local merge of the received sorted runs.
//! The local sort only *orders* the records (a permutation of indices); they
//! are moved once, from the caller's columns into the packed buckets the
//! exchange ships, and once more out of the received buffers into the merged
//! output columns. The rank's own bucket never travels: the merge reads it
//! from the caller's columns (DESIGN.md, "The local block"). The splitter
//! selection starts from sampled estimates and refines them with a few
//! rounds of global histogramming — the original partitioning algorithm
//! likewise converges in a small number of collective rounds.

use simcomm::{Comm, Work};

use crate::local::{bucket_bounds, merge_runs};
use crate::order::stable_order;

/// Maximum bisection rounds for splitter refinement: enough to exhaust a
/// full 64-bit key range. Sampling provides the first probes, the bracket is
/// the global key min/max, and the loop exits as soon as every splitter has
/// converged — for the clustered Morton keys of an FMM tree this takes about
/// `3 * level` rounds.
const MAX_REFINE_ROUNDS: usize = 64;

/// Per-rank oversampling factor for the initial splitter estimates.
const OVERSAMPLE: usize = 16;

/// Report of one partition-based parallel sort execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionSortReport {
    /// Global histogram refinement rounds performed.
    pub refine_rounds: u64,
    /// Elements this rank sent to other ranks (excluding kept ones).
    pub sent_elems: u64,
    /// Elements this rank received from other ranks.
    pub recv_elems: u64,
}

/// Sort `(keys, values)` globally: after the call, each rank holds a locally
/// sorted run and the concatenation over ranks (in rank order) is globally
/// sorted. Bucket sizes are balanced to the global mean as far as duplicate
/// keys allow.
///
/// This is a synchronizing collective operation: all ranks must call it.
pub fn partition_sort_by_key<T>(
    comm: &mut Comm,
    keys: Vec<u64>,
    values: Vec<T>,
) -> (Vec<u64>, Vec<T>, PartitionSortReport)
where
    T: Copy + Send + 'static,
{
    assert_eq!(keys.len(), values.len());
    let p = comm.size();
    let mut keys = keys;
    let mut values = values;
    let mut report = PartitionSortReport::default();

    // --- Local sort ---
    // Only the key column is put in order here: `order[j]` says which input
    // record belongs at sorted position `j` (`None`: already in place), and
    // the records stay where they are until the buckets are packed.
    comm.enter_phase("sort:local");
    let (mut order, mut next) = (Vec::new(), Vec::new());
    let (passes, permuted) = stable_order(&keys, &mut order, &mut next);
    drop(next);
    let order = permuted.then_some(order);
    if let Some(order) = &order {
        keys = order.iter().map(|&i| keys[i as usize]).collect();
    }
    comm.compute(Work::SortCmp, (passes as f64) * keys.len() as f64);
    comm.exit_phase();

    if p == 1 {
        if let Some(order) = &order {
            values = order.iter().map(|&i| values[i as usize]).collect();
        }
        return (keys, values, report);
    }

    // --- Global targets (and key range, in one reduction) ---
    comm.enter_phase("sort:splitters");
    let n_local = keys.len() as u64;
    let local_min = keys.first().copied().unwrap_or(u64::MAX);
    let local_max = keys.last().copied().unwrap_or(0);
    let (n_total, global_min, global_max) = comm
        .allreduce((n_local, local_min, local_max), |a, b| (a.0 + b.0, a.1.min(b.1), a.2.max(b.2)));
    if n_total == 0 {
        comm.exit_phase();
        return (keys, values, report);
    }
    // Target prefix counts: splitter k separates the first (k+1)*n/p elements.
    let targets: Vec<u64> = (1..p as u64).map(|k| k * n_total / p as u64).collect();
    // Accepted deviation from the exact target: the original partitioning
    // algorithm supports such an imbalance tolerance to terminate in few
    // rounds; 5 % of the mean bucket size is plenty for load balance and
    // lets well-sampled estimates pass on the first refinement round.
    let tolerance = (n_total / (20 * p as u64)).max(1);

    // --- Initial splitter estimates from regular sampling ---
    let mut samples: Vec<u64> = Vec::with_capacity(OVERSAMPLE);
    if !keys.is_empty() {
        for s in 0..OVERSAMPLE {
            let idx = (s * keys.len()) / OVERSAMPLE + keys.len() / (2 * OVERSAMPLE);
            samples.push(keys[idx.min(keys.len() - 1)]);
        }
    }
    let mut all_samples = comm.allgatherv(samples);
    all_samples.sort_unstable();
    comm.compute(
        Work::SortCmp,
        (all_samples.len().max(1) as f64) * (all_samples.len().max(2) as f64).log2(),
    );

    // Bracket the splitters by the global key range; refine by global
    // histogramming (binary search in key space for the smallest key whose
    // global count of strictly-smaller keys reaches the target).
    let nsplit = p - 1;
    let mut lo = vec![global_min; nsplit];
    let mut hi = vec![global_max.saturating_add(1); nsplit];
    // First probe: the sample estimates themselves (fast path when sampling
    // is already exact); afterwards plain bisection of [lo, hi].
    let mut probe: Vec<u64> = (0..nsplit)
        .map(|k| {
            if all_samples.is_empty() {
                u64::MAX / 2
            } else {
                let est_idx = ((k + 1) * all_samples.len()) / p;
                all_samples[est_idx.min(all_samples.len() - 1)]
            }
        })
        .collect();

    for _round in 0..MAX_REFINE_ROUNDS {
        // Count keys strictly below each probe, globally.
        let local_counts: Vec<u64> =
            probe.iter().map(|&s| keys.partition_point(|&k| k < s) as u64).collect();
        comm.compute(Work::SortCmp, (nsplit as f64) * (keys.len().max(2) as f64).log2());
        let global_counts = comm.allreduce(local_counts, |mut a, b| {
            a.iter_mut().zip(&b).for_each(|(x, y)| *x += y);
            a
        });
        report.refine_rounds += 1;

        let mut all_done = true;
        for k in 0..nsplit {
            if lo[k] >= hi[k] {
                continue;
            }
            if global_counts[k].abs_diff(targets[k]) <= tolerance {
                // Close enough: accept this splitter as-is.
                lo[k] = probe[k];
                hi[k] = probe[k];
                continue;
            }
            if global_counts[k] < targets[k] {
                lo[k] = probe[k].saturating_add(1);
            } else {
                hi[k] = probe[k];
            }
            if lo[k] < hi[k] {
                all_done = false;
                probe[k] = lo[k] + (hi[k] - lo[k]) / 2;
            } else {
                probe[k] = lo[k];
            }
        }
        if all_done {
            break;
        }
    }
    let mut splitters: Vec<u64> = (0..nsplit).map(|k| probe[k].max(lo[k]).min(hi[k])).collect();
    // Splitters must be non-decreasing (duplicate-heavy data can leave
    // unresolved brackets crossing); enforce monotonicity.
    for k in 1..nsplit {
        if splitters[k] < splitters[k - 1] {
            splitters[k] = splitters[k - 1];
        }
    }
    comm.exit_phase();

    // --- All-to-all bucket exchange ---
    // The rank's own bucket stays home, unpacked: the merge reads it where
    // the local sort left it, at its rank's place among the received runs.
    comm.enter_phase("sort:exchange");
    let me = comm.rank();
    let bounds = bucket_bounds(&keys, &splitters);
    let bucket = |dst: usize| bounds[dst]..bounds.get(dst + 1).copied().unwrap_or(keys.len());
    // The value of the record at sorted position `j`.
    let value = |j: usize| &values[order.as_ref().map_or(j, |order| order[j] as usize)];
    let mut sends: Vec<(usize, Vec<(u64, T)>)> = Vec::new();
    for dst in 0..p {
        let run = bucket(dst);
        if run.is_empty() {
            continue;
        }
        comm.compute(Work::ByteCopy, (run.len() * std::mem::size_of::<(u64, T)>()) as f64);
        if dst != me {
            report.sent_elems += run.len() as u64;
            sends.push((dst, run.map(|j| (keys[j], *value(j))).collect()));
        }
    }
    let received = comm.alltoallv(sends);
    comm.exit_phase();

    // --- Local merge of the received runs (each run is sorted) ---
    comm.enter_phase("sort:merge");
    report.recv_elems = received.iter().map(|(_, buf)| buf.len() as u64).sum();
    let own = bucket(me);
    let total = report.recv_elems as usize + own.len();
    let nruns = (received.len() + usize::from(!own.is_empty())).max(2) as f64;
    let (below, above) = received.split_at(received.partition_point(|&(src, _)| src < me));
    let records = below.iter().flat_map(|(_, run)| run.iter().map(|(k, v)| (*k, v)));
    let records = records.chain(own.map(|j| (keys[j], value(j))));
    let records = records.chain(above.iter().flat_map(|(_, run)| run.iter().map(|(k, v)| (*k, v))));
    let (out_keys, out_values) = merge_runs(total, records);
    comm.compute(Work::SortCmp, (total as f64) * nruns.log2());
    comm.exit_phase();

    (out_keys, out_values, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::widths::run;
    use simcomm::MachineModel;

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Run a world, sort per-rank data, and verify the global result.
    fn check_global_sort(p: usize, local_data: impl Fn(usize) -> Vec<u64> + Send + Sync) {
        let out = run(p, MachineModel::ideal(), |comm| {
            let keys = local_data(comm.rank());
            let values: Vec<u64> = keys.iter().map(|k| k ^ 0xabcd).collect();
            let n_in = keys.len();
            let (k, v, _rep) = partition_sort_by_key(comm, keys, values);
            (n_in, k, v)
        });
        // Globally sorted and a permutation of the input.
        let mut all_in: Vec<u64> = (0..p).flat_map(&local_data).collect();
        let mut all_out: Vec<u64> = Vec::new();
        let mut prev_last: Option<u64> = None;
        let total_in: usize = all_in.len();
        let mut total_out = 0;
        for (_, k, v) in &out.results {
            assert!(k.windows(2).all(|w| w[0] <= w[1]), "locally sorted");
            for (key, val) in k.iter().zip(v) {
                assert_eq!(*val, *key ^ 0xabcd, "payload must follow its key");
            }
            if let (Some(pl), Some(&first)) = (prev_last, k.first()) {
                assert!(pl <= first, "rank boundaries must be ordered");
            }
            if let Some(&l) = k.last() {
                prev_last = Some(l);
            }
            total_out += k.len();
            all_out.extend_from_slice(k);
        }
        assert_eq!(total_in, total_out);
        all_in.sort_unstable();
        let mut sorted_out = all_out;
        sorted_out.sort_unstable();
        assert_eq!(all_in, sorted_out, "output must be a permutation of input");
    }

    #[test]
    fn sorts_random_data() {
        check_global_sort(8, |r| (0..200).map(|i| splitmix((r * 1000 + i) as u64)).collect());
    }

    #[test]
    fn sorts_already_sorted_data() {
        check_global_sort(4, |r| ((r * 100) as u64..(r * 100 + 100) as u64).collect());
    }

    #[test]
    fn sorts_reverse_distributed_data() {
        // Rank r holds the keys that belong on rank p-1-r.
        check_global_sort(6, |r| {
            let base = ((5 - r) * 50) as u64;
            (base..base + 50).collect()
        });
    }

    #[test]
    fn sorts_skewed_sizes() {
        check_global_sort(5, |r| (0..r * 80).map(|i| splitmix((r + i * 7) as u64)).collect());
    }

    #[test]
    fn sorts_with_empty_ranks() {
        check_global_sort(4, |r| {
            if r % 2 == 0 {
                Vec::new()
            } else {
                (0..150).map(|i| splitmix((r * 31 + i) as u64)).collect()
            }
        });
    }

    #[test]
    fn sorts_skewed_and_empty_ranks_at_awkward_world_sizes() {
        for p in [2usize, 3, 5, 6, 7, 64] {
            // Every third rank empty, the rest skewed in size; 12-bit keys,
            // so buckets tie across ranks and some arrive empty.
            check_global_sort(p, |r| {
                let n = if r % 3 == 1 { 0 } else { (r % 5) * 40 + 7 };
                (0..n).map(|i| splitmix((r * 1009 + i) as u64) % 4096).collect()
            });
            // Everything on the last rank.
            check_global_sort(p, |r| {
                let n = if r + 1 == p { 500 } else { 0 };
                (0..n).map(|i| splitmix(i as u64)).collect()
            });
        }
    }

    #[test]
    fn sorts_all_empty() {
        check_global_sort(3, |_| Vec::new());
    }

    #[test]
    fn sorts_heavy_duplicates() {
        check_global_sort(4, |r| (0..300).map(|i| ((r + i) % 5) as u64).collect());
    }

    #[test]
    fn single_rank_is_local_sort() {
        check_global_sort(1, |_| vec![5, 3, 9, 1, 1, 0]);
    }

    #[test]
    fn balances_bucket_sizes() {
        let p = 8;
        let per = 512;
        let out = run(p, MachineModel::ideal(), move |comm| {
            let keys: Vec<u64> =
                (0..per).map(|i| splitmix((comm.rank() * per + i) as u64)).collect();
            let values = keys.clone();
            let (k, _, rep) = partition_sort_by_key(comm, keys, values);
            (k.len(), rep.refine_rounds)
        });
        let avg = per;
        for &(n, rounds) in &out.results {
            assert!(
                n as f64 > 0.5 * avg as f64 && (n as f64) < 1.5 * avg as f64,
                "bucket size {n} too far from mean {avg}"
            );
            assert!(rounds <= MAX_REFINE_ROUNDS as u64);
        }
    }

    #[test]
    fn balances_clustered_small_range_keys() {
        // Morton keys of a shallow FMM tree span only a few hundred distinct
        // values; the splitter search must still balance (regression test:
        // a fixed-round bisection over the full u64 range cannot converge
        // for such clustered keys).
        let p = 16;
        let per = 500;
        let out = run(p, MachineModel::ideal(), move |comm| {
            // Keys in 0..512 only, scattered across ranks.
            let keys: Vec<u64> =
                (0..per).map(|i| splitmix((comm.rank() * per + i) as u64) % 512).collect();
            let values = keys.clone();
            let (k, _, rep) = partition_sort_by_key(comm, keys, values);
            (k.len(), rep.refine_rounds)
        });
        let avg = per;
        for &(n, rounds) in &out.results {
            assert!(
                n > avg / 2 && n < 2 * avg,
                "clustered keys must still balance: got {n}, mean {avg}"
            );
            assert!(rounds <= 12, "small key range must converge quickly: {rounds}");
        }
    }

    #[test]
    fn almost_sorted_input_stays_mostly_local() {
        // Grid-like keys already in rank order: almost nothing should move.
        let p = 8;
        let per = 256;
        let out = run(p, MachineModel::ideal(), move |comm| {
            let base = (comm.rank() * per) as u64;
            let keys: Vec<u64> = (0..per as u64).map(|i| base + i).collect();
            let values = keys.clone();
            let (_, _, rep) = partition_sort_by_key(comm, keys, values);
            rep
        });
        for rep in &out.results {
            // The splitter tolerance (5 % of the mean bucket) may shift a few
            // boundary elements, but the bulk must stay local.
            assert!(
                rep.sent_elems <= per as u64 / 25,
                "perfectly placed data must barely move: {rep:?}"
            );
        }
    }
}
