//! Merge-based parallel sorting (Dachsel/Hofmann/Rünger, Euro-Par'07), used by
//! the FMM solver for *almost sorted* particle data — paper Sect. III-B.
//!
//! Structure: local sort, then pairwise **compare-split** steps between ranks
//! following Batcher's merge-exchange network, using only point-to-point
//! communication. Each compare-split first probes the pair's boundary keys
//! (16 bytes each way); if the two runs are already ordered — the common case
//! for almost-sorted data — the full exchange is skipped. This is what makes
//! the method cheap when particles moved only slightly since the last sort.
//!
//! Block compare-split is only guaranteed to sort by the 0-1 principle when
//! all blocks have equal size; with the (slightly) unequal counts a particle
//! simulation produces, a few odd-even transposition cleanup rounds run until
//! a global sortedness check passes. For almost-sorted data, zero cleanup
//! rounds are needed in practice, and the sort closes with one allgather: the
//! sortedness check, whose gathered [`KeySpan`]s also tell which ranks are
//! empty and are handed to the caller ([`MergeSortReport::spans`]).

use simcomm::{Comm, Work};

use std::sync::Arc;

use crate::local::{is_sorted, keep_half, radix_sort_by_key};
use crate::network::{partner_schedule, NO_PARTNER};

#[cfg(test)]
mod oracle;

/// Report of one merge-based parallel sort execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MergeSortReport {
    /// Compare-split steps this rank participated in.
    pub comparators: u64,
    /// Steps skipped after the boundary probe (runs already ordered).
    pub probes_skipped: u64,
    /// Full data exchanges performed.
    pub exchanges: u64,
    /// Elements shipped to the partner across all exchanges.
    pub sent_elems: u64,
    /// Odd-even transposition cleanup rounds after the network.
    pub cleanup_rounds: u64,
    /// Network rounds skipped outright (not even probed) because a cached
    /// [`SortPlan`] proved them quiet on the previous execution.
    pub rounds_plan_skipped: u64,
    /// `true` if the sort gave up before reaching global sortedness because
    /// the caller's cleanup-round cap was hit (see
    /// [`merge_exchange_sort_by_key_capped`]). The per-rank data is still
    /// locally sorted with counts preserved, but the *global* order is not
    /// guaranteed — the caller must fall back to a general sort.
    pub cleanup_cap_hit: bool,
    /// Every rank's [`KeySpan`] of the sorted data, in rank order: the
    /// gather of the sortedness check that passed, handed on (not copied)
    /// so the caller need not gather the rank boundaries again. `None` on a
    /// one-rank world and when the cleanup cap was hit.
    pub spans: Option<Vec<KeySpan>>,
}

/// One rank's entry in a sortedness gather: whether its keys are locally
/// sorted, and its first and last key (`None` on an empty rank).
pub type KeySpan = (bool, Option<(u64, u64)>);

/// A cached probe schedule for the merge-exchange network: which of this
/// rank's comparator rounds ended without a data exchange on the previous
/// sort. Re-executing with a plan skips those rounds outright — not even the
/// 16-byte boundary probe is sent — which removes most of the per-round
/// latency for almost-sorted data.
///
/// Safety of the skip rests on two facts. First, both partners of a
/// comparator compute the *same* probe outcome (ordered iff `low.max <=
/// high.min` over the identical probe pair), so the recorded quiet set is
/// symmetric and skipping never leaves a partner waiting. Second, the sort's
/// cleanup phase re-checks global sortedness collectively, so a stale skip
/// costs extra cleanup rounds, never correctness — and a sort that *needed*
/// cleanup returns no plan, forcing the next execution to probe afresh.
///
/// All ranks must agree on whether a plan is passed (the caller gates on
/// globally consistent state, e.g. the movement heuristic); a plan is only
/// valid for the world size it was recorded on.
#[derive(Clone, Debug)]
pub struct SortPlan {
    /// World size the plan was recorded for.
    p: usize,
    /// This rank's compare-split partner per network round
    /// ([`partner_schedule`]): a function of `(p, rank)` only, so every plan
    /// that descends from this one shares it.
    partners: Arc<[u32]>,
    /// Per network round: `true` if this rank had no comparator or its
    /// compare-split ended without an exchange.
    quiet_rounds: Vec<bool>,
}

impl SortPlan {
    /// Network rounds this plan would skip on re-execution.
    pub fn quiet_round_count(&self) -> usize {
        self.quiet_rounds.iter().filter(|&&q| q).count()
    }
}

/// Planning mode of one merge-sort execution (internal).
enum Planning<'a> {
    /// No plan recording or consumption (the plain entry point).
    Off,
    /// Record a plan; consume the given one first if present and valid.
    On(Option<&'a SortPlan>),
}

/// Message tags (distinct from any user tags in the same phase).
const TAG_PROBE: u64 = 0x6d65_7267_6531; // "merge1"
const TAG_DATA: u64 = 0x6d65_7267_6532;

/// Compare-split between this rank and `partner`: the lower-numbered rank of
/// the pair keeps the smallest `n_low` elements of the union, the higher one
/// the largest `n_high`, where `n_low`/`n_high` are the entry counts.
/// `keys` must be locally sorted. Returns `true` if a full exchange happened.
fn compare_split<T: Copy + Send + 'static>(
    comm: &mut Comm,
    partner: usize,
    keys: &mut [u64],
    values: &mut [T],
    report: &mut MergeSortReport,
) -> bool {
    debug_assert!(is_sorted(keys));
    let i_am_low = comm.rank() < partner;
    report.comparators += 1;

    // Boundary probe: low side sends its max, high side its min, plus an
    // emptiness flag. If either run is empty the compare-split is a no-op
    // (counts are preserved, so the empty side keeps zero elements and the
    // other side keeps everything, whatever the order); otherwise the pair is
    // already ordered iff low.max <= high.min.
    let my_probe: u64 = if i_am_low {
        keys.last().copied().unwrap_or(u64::MAX)
    } else {
        keys.first().copied().unwrap_or(0)
    };
    let (p_key, p_empty) = {
        // Post the receive first, then the send; both directions of the probe
        // are in flight at once and complete in arrival order.
        let rx = comm.irecv::<(u64, bool)>(partner, TAG_PROBE);
        let tx = comm.isend(partner, TAG_PROBE, vec![(my_probe, keys.is_empty())]);
        let mut got = comm.waitall(vec![rx, tx]);
        let probe = got.swap_remove(0).expect("probe receive yields data");
        debug_assert_eq!(probe.len(), 1);
        probe[0]
    };
    let ordered = if i_am_low { my_probe <= p_key } else { p_key <= my_probe };
    if keys.is_empty() || p_empty || ordered {
        report.probes_skipped += 1;
        return false;
    }

    // Full exchange: ship our run, receive the partner's, merge, keep our
    // part. The receive is posted before we pack so the partner's transfer is
    // in flight during the pack; the merge below then overlaps with our own
    // payload draining on the NIC (the send request is waited on last).
    let n_mine = keys.len();
    let rx = comm.irecv::<(u64, T)>(partner, TAG_DATA);
    report.exchanges += 1;
    report.sent_elems += n_mine as u64;
    comm.compute(Work::ByteCopy, (n_mine * std::mem::size_of::<(u64, T)>()) as f64);
    let outgoing: Vec<(u64, T)> = keys.iter().copied().zip(values.iter().copied()).collect();
    let tx = comm.isend(partner, TAG_DATA, outgoing);
    let incoming = comm.wait_recv(rx);

    // Deterministic stable merge: on equal keys the lower rank's elements come
    // first, so both sides compute the identical union order. Each side
    // builds only the half it keeps — the low side the first `n_mine` of the
    // union, the high side the last `n_mine` — in place, reading `incoming`
    // where it was received.
    let total = n_mine + incoming.len();
    keep_half(keys, values, &incoming, i_am_low);
    comm.compute(Work::SortCmp, total as f64);
    // The local merge above ran while our payload drained; by now the send
    // has normally departed and this completes without stalling.
    let _ = comm.wait(tx);
    true
}

/// Is the distributed array (locally sorted `keys` per rank, concatenated in
/// rank order) globally sorted? Collective.
pub fn is_globally_sorted(comm: &mut Comm, keys: &[u64]) -> bool {
    spans_sorted(&gather_spans(comm, keys))
}

/// Every rank's [`KeySpan`] of `keys`, in rank order. Collective.
fn gather_spans(comm: &mut Comm, keys: &[u64]) -> Vec<KeySpan> {
    let span = keys.first().copied().zip(keys.last().copied());
    comm.allgather((is_sorted(keys), span))
}

/// Whether gathered spans describe a globally sorted array: every rank
/// locally sorted, and every non-empty rank's first key no smaller than the
/// last key of the non-empty rank before it.
fn spans_sorted(spans: &[KeySpan]) -> bool {
    let mut prev_last: Option<u64> = None;
    for &(ok, span) in spans {
        if !ok {
            return false;
        }
        if let Some((first, last)) = span {
            if prev_last.is_some_and(|pl| pl > first) {
                return false;
            }
            prev_last = Some(last);
        }
    }
    true
}

/// Odd-even transposition cleanup after the merge-exchange network: rounds
/// of compare-split between neighbouring non-empty ranks until the
/// sortedness check passes, at most `max_cleanup_rounds` of them. Returns
/// the spans of the check that passed; `None`, with
/// [`MergeSortReport::cleanup_cap_hit`] set, when the cap stopped it.
///
/// One allgather per check and nothing else when no round is needed: the
/// first check's spans also say which ranks are empty, and compare-split
/// preserves every rank's count, so they say it for every later round too.
fn cleanup<T: Copy + Send + 'static>(
    comm: &mut Comm,
    keys: &mut [u64],
    values: &mut [T],
    report: &mut MergeSortReport,
    max_cleanup_rounds: u64,
) -> Option<Vec<KeySpan>> {
    let me = comm.rank();
    // An *empty* rank is a wall the count-preserving transposition cannot
    // move data through, so it runs over the compacted sequence of non-empty
    // ranks (empty ranks only take part in the checks and barriers).
    let mut slots: Option<(Vec<usize>, Option<usize>)> = None;
    loop {
        let spans = gather_spans(comm, keys);
        if spans_sorted(&spans) {
            return Some(spans);
        }
        if report.cleanup_rounds >= max_cleanup_rounds {
            // Collective by construction: every rank counts the same rounds.
            report.cleanup_cap_hit = true;
            return None;
        }
        report.cleanup_rounds += 1;
        let (nonempty, my_slot) = slots.get_or_insert_with(|| {
            let nonempty: Vec<usize> = (0..spans.len()).filter(|&r| spans[r].1.is_some()).collect();
            let my_slot = nonempty.iter().position(|&r| r == me);
            (nonempty, my_slot)
        });
        // One even phase (slot pairs (0,1),(2,3),...) and one odd phase
        // (pairs (1,2),(3,4),...) per cleanup round, over non-empty slots.
        for phase in 0..2usize {
            if let Some(slot) = *my_slot {
                let partner_slot = if slot % 2 == phase {
                    Some(slot + 1).filter(|&q| q < nonempty.len())
                } else {
                    slot.checked_sub(1)
                };
                if let Some(ps) = partner_slot {
                    compare_split(comm, nonempty[ps], keys, values, report);
                }
            }
            comm.barrier();
        }
    }
}

/// Merge-based parallel sort: local sort plus Batcher merge-exchange rounds of
/// pairwise compare-split, followed by odd-even transposition cleanup rounds
/// until a global sortedness check passes (needed because per-rank counts may
/// be unequal). Per-rank element counts are preserved exactly.
///
/// This is a synchronizing collective operation: all ranks must call it.
pub fn merge_exchange_sort_by_key<T>(
    comm: &mut Comm,
    keys: Vec<u64>,
    values: Vec<T>,
) -> (Vec<u64>, Vec<T>, MergeSortReport)
where
    T: Copy + Send + 'static,
{
    let (k, v, report, _) = merge_sort_impl(comm, keys, values, Planning::Off, u64::MAX);
    (k, v, report)
}

/// Plan-aware variant of [`merge_exchange_sort_by_key`]: consumes an optional
/// [`SortPlan`] recorded by a previous execution (skipping the network rounds
/// it proved quiet) and returns the plan for the *next* execution — or `None`
/// when this sort needed cleanup rounds, which invalidates the recorded
/// schedule.
///
/// All ranks must pass a plan from the same previous execution (or all pass
/// `None`); like the sort itself this is a synchronizing collective.
pub fn merge_exchange_sort_by_key_planned<T>(
    comm: &mut Comm,
    keys: Vec<u64>,
    values: Vec<T>,
    plan: Option<&SortPlan>,
) -> (Vec<u64>, Vec<T>, MergeSortReport, Option<SortPlan>)
where
    T: Copy + Send + 'static,
{
    merge_sort_impl(comm, keys, values, Planning::On(plan), u64::MAX)
}

/// Movement-bound-guarded variant of [`merge_exchange_sort_by_key_planned`]:
/// identical, except the odd-even transposition cleanup phase runs at most
/// `max_cleanup_rounds` rounds. The merge-exchange network is only cheap when
/// the data is *almost* sorted; if a movement hint under-reported the real
/// displacement, cleanup can degenerate into a full O(p)-round transposition
/// sort. Capping it bounds the damage: when the cap is hit the sort stops with
/// [`MergeSortReport::cleanup_cap_hit`] set (and no [`SortPlan`]), leaving
/// each rank's data locally sorted with counts preserved — *not* globally
/// sorted — so the caller can fall back to a general partition sort.
///
/// The cap decision is collective: `cleanup_rounds` advances identically on
/// every rank (the sortedness check is an allgather), so either all ranks hit
/// the cap or none do. Passing `u64::MAX` makes this function bit-for-bit
/// identical to [`merge_exchange_sort_by_key_planned`].
pub fn merge_exchange_sort_by_key_capped<T>(
    comm: &mut Comm,
    keys: Vec<u64>,
    values: Vec<T>,
    plan: Option<&SortPlan>,
    max_cleanup_rounds: u64,
) -> (Vec<u64>, Vec<T>, MergeSortReport, Option<SortPlan>)
where
    T: Copy + Send + 'static,
{
    merge_sort_impl(comm, keys, values, Planning::On(plan), max_cleanup_rounds)
}

fn merge_sort_impl<T>(
    comm: &mut Comm,
    keys: Vec<u64>,
    values: Vec<T>,
    planning: Planning<'_>,
    max_cleanup_rounds: u64,
) -> (Vec<u64>, Vec<T>, MergeSortReport, Option<SortPlan>)
where
    T: Copy + Send + 'static,
{
    assert_eq!(keys.len(), values.len());
    let p = comm.size();
    let mut keys = keys;
    let mut values = values;
    let mut report = MergeSortReport::default();

    comm.enter_phase("sort:local");
    let passes = radix_sort_by_key(&mut keys, &mut values);
    comm.compute(Work::SortCmp, (passes as f64) * keys.len() as f64);
    comm.exit_phase();

    if p == 1 {
        return (keys, values, report, None);
    }

    // --- Batcher merge-exchange network over ranks ---
    comm.enter_phase("sort:merge-rounds");
    let me = comm.rank();
    let (record, prior) = match planning {
        Planning::Off => (false, None),
        // A plan for a different world size cannot be consumed (the round
        // structure differs); `p` is global, so all ranks reject it together.
        Planning::On(pl) => (true, pl.filter(|pl| pl.p == p)),
    };
    // Only this rank's own partner per round is needed, and a consumed plan
    // already carries it.
    let partners: Arc<[u32]> =
        prior.map_or_else(|| partner_schedule(p, me).into(), |pl| Arc::clone(&pl.partners));
    let t_rounds = comm.clock();
    let mut quiet_rounds = vec![true; partners.len()];
    for (ri, &partner) in partners.iter().enumerate() {
        if prior.is_some_and(|pl| pl.quiet_rounds[ri]) {
            // The previous execution proved this round quiet on both sides of
            // every comparator touching this rank; skip even the probe.
            report.rounds_plan_skipped += 1;
            continue;
        }
        // At most one comparator involves this rank per round. Ranks without
        // one simply proceed; point-to-point messages are matched by tag, so
        // no global synchronization is needed.
        if partner != NO_PARTNER
            && compare_split(comm, partner as usize, &mut keys, &mut values, &mut report)
        {
            quiet_rounds[ri] = false;
        }
    }
    if prior.is_some() {
        // Probe bytes the plan saved: 16 bytes each way per skipped round.
        comm.note_plan_exec(t_rounds, report.rounds_plan_skipped * 32);
    }
    comm.exit_phase();

    // --- Cleanup: odd-even transposition until globally sorted ---
    comm.enter_phase("sort:cleanup");
    report.spans = cleanup(comm, &mut keys, &mut values, &mut report, max_cleanup_rounds);
    comm.exit_phase();

    // A sort that needed cleanup ran comparators outside the recorded network
    // outcomes — its quiet set is unreliable, so no plan is returned and the
    // next execution probes every round afresh.
    let next_plan = if record && report.cleanup_rounds == 0 && !report.cleanup_cap_hit {
        if prior.is_none() {
            comm.note_plan_build(comm.clock(), quiet_rounds.len() as u64);
        }
        Some(SortPlan { p, partners, quiet_rounds })
    } else {
        None
    };

    (keys, values, report, next_plan)
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

    fn check_global_sort(p: usize, local_data: impl Fn(usize) -> Vec<u64> + Send + Sync) {
        let counts: Vec<usize> = (0..p).map(|r| local_data(r).len()).collect();
        let out = run(p, MachineModel::ideal(), |comm| {
            let keys = local_data(comm.rank());
            let values: Vec<u64> = keys.iter().map(|k| k ^ 0x5555).collect();
            let (k, v, rep) = merge_exchange_sort_by_key(comm, keys, values);
            (k, v, rep)
        });
        let mut all_in: Vec<u64> = (0..p).flat_map(&local_data).collect();
        let mut prev_last: Option<u64> = None;
        let mut all_out = Vec::new();
        for (r, (k, v, _)) in out.results.iter().enumerate() {
            assert_eq!(k.len(), counts[r], "counts must be preserved");
            assert!(k.windows(2).all(|w| w[0] <= w[1]));
            for (key, val) in k.iter().zip(v) {
                assert_eq!(*val, *key ^ 0x5555);
            }
            if let (Some(pl), Some(&f)) = (prev_last, k.first()) {
                assert!(pl <= f, "rank boundary out of order");
            }
            if let Some(&l) = k.last() {
                prev_last = Some(l);
            }
            all_out.extend_from_slice(k);
        }
        all_in.sort_unstable();
        let mut sorted_out = all_out;
        sorted_out.sort_unstable();
        assert_eq!(all_in, sorted_out);
    }

    #[test]
    fn sorts_random_equal_blocks() {
        check_global_sort(8, |r| (0..128).map(|i| splitmix((r * 128 + i) as u64)).collect());
    }

    #[test]
    fn sorts_random_unequal_blocks() {
        check_global_sort(5, |r| {
            (0..64 + r * 17).map(|i| splitmix((r * 997 + i) as u64)).collect()
        });
    }

    #[test]
    fn empty_rank_between_unsorted_neighbours_terminates() {
        // Regression: an empty rank is a wall for count-preserving
        // compare-split; the cleanup transposition must skip over it instead
        // of livelocking. Keys chosen so the Batcher network leaves the two
        // outer ranks out of order relative to each other.
        check_global_sort(3, |r| match r {
            0 => vec![9, 10, 11],
            1 => Vec::new(),
            _ => vec![1, 2, 3],
        });
        // Several empties and duplicates.
        check_global_sort(5, |r| match r {
            0 => vec![7, 7, 8],
            2 => vec![7],
            4 => vec![0, 7],
            _ => Vec::new(),
        });
    }

    #[test]
    fn sorts_with_empty_ranks() {
        check_global_sort(6, |r| {
            if r == 2 || r == 3 {
                Vec::new()
            } else {
                (0..100).map(|i| splitmix((r * 7919 + i) as u64)).collect()
            }
        });
    }

    #[test]
    fn sorts_non_power_of_two_worlds() {
        for p in [3usize, 5, 7, 12] {
            check_global_sort(p, |r| (0..50).map(|i| splitmix((r * 131 + i) as u64)).collect());
        }
    }

    #[test]
    fn sorts_skewed_and_empty_ranks_at_awkward_world_sizes() {
        for p in [2usize, 3, 5, 6, 7, 64] {
            // Every third rank empty, the rest skewed in size; 12-bit keys,
            // so compare-splits meet ties at their boundaries.
            check_global_sort(p, |r| {
                let n = if r % 3 == 1 { 0 } else { (r % 5) * 40 + 7 };
                (0..n).map(|i| splitmix((r * 1009 + i) as u64) % 4096).collect()
            });
            // One long run against one-element runs.
            check_global_sort(p, |r| {
                let n = if r == 0 { 300 } else { 1 };
                (0..n).map(|i| splitmix((r * 31 + i) as u64) % 512).collect()
            });
        }
    }

    #[test]
    fn sorts_duplicates() {
        check_global_sort(4, |r| (0..100).map(|i| ((r * 100 + i) % 7) as u64).collect());
    }

    #[test]
    fn almost_sorted_data_skips_most_exchanges() {
        let p = 16;
        let per = 64u64;
        let out = run(p, MachineModel::ideal(), move |comm| {
            // Each rank holds its own contiguous key range except one element
            // swapped with the neighbouring rank (simulating slight movement).
            let base = comm.rank() as u64 * per;
            let mut keys: Vec<u64> = (base..base + per).collect();
            if comm.rank() + 1 < p {
                keys[per as usize - 1] = base + per; // belongs to the right neighbour
            }
            let values = keys.clone();
            let (k, _, rep) = merge_exchange_sort_by_key(comm, keys, values);
            (k, rep)
        });
        let mut total_exchanges = 0;
        let mut total_comparators = 0;
        let mut prev_last: Option<u64> = None;
        for (k, rep) in &out.results {
            assert!(k.windows(2).all(|w| w[0] <= w[1]));
            if let (Some(pl), Some(&f)) = (prev_last, k.first()) {
                assert!(pl <= f);
            }
            prev_last = k.last().copied();
            total_exchanges += rep.exchanges;
            total_comparators += rep.comparators;
        }
        assert!(
            total_exchanges * 3 < total_comparators,
            "almost-sorted data should skip most exchanges: {total_exchanges}/{total_comparators}"
        );
    }

    #[test]
    fn perfectly_sorted_data_exchanges_nothing() {
        let p = 8;
        let out = run(p, MachineModel::ideal(), move |comm| {
            let base = comm.rank() as u64 * 100;
            let keys: Vec<u64> = (base..base + 100).collect();
            let values = keys.clone();
            let (_, _, rep) = merge_exchange_sort_by_key(comm, keys, values);
            rep
        });
        for rep in &out.results {
            assert_eq!(rep.exchanges, 0);
            assert_eq!(rep.cleanup_rounds, 0);
        }
    }

    #[test]
    fn planned_rerun_skips_quiet_rounds_and_matches_fresh_sort() {
        let p = 16;
        let per = 64u64;
        let data = move |me: usize| -> (Vec<u64>, Vec<u64>) {
            // Almost sorted: one element swapped with the right neighbour.
            let base = me as u64 * per;
            let mut keys: Vec<u64> = (base..base + per).collect();
            if me + 1 < p {
                keys[per as usize - 1] = base + per;
            }
            let values = keys.clone();
            (keys, values)
        };
        let out = run(p, MachineModel::juqueen_like(), move |comm| {
            let me = comm.rank();
            let (keys, values) = data(me);
            let (k1, v1, rep1, plan) = merge_exchange_sort_by_key_planned(comm, keys, values, None);
            let plan = plan.expect("clean sort must return a plan");
            assert_eq!(rep1.rounds_plan_skipped, 0);
            let t_fresh = comm.clock();

            // Same input again, with the plan: the quiet rounds are skipped
            // outright and the result is identical to the fresh sort.
            let (keys, values) = data(me);
            let (k2, v2, rep2, plan2) =
                merge_exchange_sort_by_key_planned(comm, keys, values, Some(&plan));
            let t_planned = comm.clock() - t_fresh;
            assert_eq!(k1, k2);
            assert_eq!(v1, v2);
            assert!(plan2.is_some());
            assert_eq!(
                rep2.rounds_plan_skipped as usize,
                plan.quiet_round_count(),
                "every quiet round must be skipped"
            );
            assert_eq!(rep2.cleanup_rounds, 0);
            (rep1, rep2, t_fresh, t_planned, comm.stats().plan_builds, comm.stats().plan_execs)
        });
        for (rep1, rep2, _, _, builds, execs) in &out.results {
            // Almost-sorted data leaves most comparators quiet, so the plan
            // must remove most of the probing the fresh sort paid.
            assert!(rep2.rounds_plan_skipped > 0);
            assert!(rep2.comparators < rep1.comparators);
            assert_eq!((*builds, *execs), (1, 1), "one plan build, one planned exec");
        }
        // The planned re-execution must not be slower in virtual time.
        let fresh: f64 = out.results.iter().map(|r| r.2).fold(0.0, f64::max);
        let planned: f64 = out.results.iter().map(|r| r.3).fold(0.0, f64::max);
        assert!(planned <= fresh, "planned rerun slower than fresh sort: {planned} vs {fresh}");
    }

    #[test]
    fn sort_needing_cleanup_returns_no_plan() {
        // Unequal block sizes with adversarial keys force cleanup rounds; the
        // execution must refuse to record a plan.
        let out = run(5, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let n = 40 + me * 23;
            let keys: Vec<u64> = (0..n).map(|i| splitmix((me * 7919 + i) as u64)).collect();
            let values = keys.clone();
            let (k, _, rep, plan) = merge_exchange_sort_by_key_planned(comm, keys, values, None);
            assert!(is_sorted(&k));
            (rep.cleanup_rounds, plan.is_some())
        });
        let cleanup = out.results[0].0;
        for &(rounds, has_plan) in &out.results {
            assert_eq!(rounds, cleanup, "cleanup rounds are collective");
            assert_eq!(has_plan, rounds == 0, "plan returned iff no cleanup was needed");
        }
    }

    #[test]
    fn plan_for_wrong_world_size_is_ignored() {
        let partners: Arc<[u32]> = partner_schedule(4, 0).into();
        let stale = SortPlan { p: 4, quiet_rounds: vec![true; partners.len()], partners };
        let out = run(8, MachineModel::ideal(), move |comm| {
            let me = comm.rank();
            let keys: Vec<u64> = (0..64).map(|i| splitmix((me * 131 + i) as u64)).collect();
            let values = keys.clone();
            let (k, _, rep, _) =
                merge_exchange_sort_by_key_planned(comm, keys, values, Some(&stale));
            assert!(is_sorted(&k));
            rep.rounds_plan_skipped
        });
        for &skipped in &out.results {
            assert_eq!(skipped, 0, "a plan for another world size must not skip anything");
        }
    }

    #[test]
    fn capped_sort_with_max_cap_matches_planned_exactly() {
        let out = run(6, MachineModel::juropa_like(), |comm| {
            let me = comm.rank();
            let mk = || {
                let keys: Vec<u64> =
                    (0..50 + me * 13).map(|i| splitmix((me * 131 + i) as u64)).collect();
                let values = keys.clone();
                (keys, values)
            };
            let (keys, values) = mk();
            let (k1, v1, rep1, _) = merge_exchange_sort_by_key_planned(comm, keys, values, None);
            let t1 = comm.clock();
            let (keys, values) = mk();
            let (k2, v2, rep2, _) =
                merge_exchange_sort_by_key_capped(comm, keys, values, None, u64::MAX);
            let t2 = comm.clock() - t1;
            assert_eq!((k1, v1, rep1), (k2, v2, rep2.clone()));
            assert!(!rep2.cleanup_cap_hit);
            (t1, t2)
        });
        for &(t1, t2) in &out.results {
            assert!((t1 - t2).abs() < 1e-12, "uncapped cap must not change timing");
        }
    }

    #[test]
    fn capped_sort_gives_up_collectively_and_preserves_counts() {
        // Adversarial: one rank holds almost everything, in reverse of the
        // global order, while the others hold single small keys. The Batcher
        // network's count-preserving compare-splits cannot fix this in one
        // transposition round (this input needs two), so a cap of 1 must stop
        // the sort on every rank in the same round, flag it, preserve local
        // sortedness and counts, and refuse to record a plan.
        let p = 6;
        let counts: Vec<usize> = (0..p).map(|r| if r == 0 { 300 } else { 1 }).collect();
        let out = run(p, MachineModel::ideal(), move |comm| {
            let me = comm.rank();
            let keys: Vec<u64> =
                if me == 0 { (0..300u64).map(|i| u64::MAX - i).collect() } else { vec![me as u64] };
            let values = keys.clone();
            let (k, _, rep, plan) = merge_exchange_sort_by_key_capped(comm, keys, values, None, 1);
            (k, rep, plan.is_some())
        });
        for (r, (k, rep, has_plan)) in out.results.iter().enumerate() {
            assert!(rep.cleanup_cap_hit, "rank {r}: cap must be hit");
            assert_eq!(rep.cleanup_rounds, 1, "rank {r}: exactly the capped rounds ran");
            assert!(!has_plan, "rank {r}: a capped-out sort must not record a plan");
            assert_eq!(k.len(), counts[r], "rank {r}: counts preserved");
            assert!(is_sorted(k), "rank {r}: local order preserved");
        }
    }

    /// Rank `me`'s keys in world case `case`: equal and unequal counts,
    /// empty ranks, ties, one long run against single keys, almost-sorted
    /// runs, and one rank holding a descending run that the network leaves
    /// for several cleanup rounds.
    fn case_keys(case: u64, p: usize, me: usize) -> Vec<u64> {
        let draw = |n: usize, modulus: u64| -> Vec<u64> {
            let seed = case << 40 ^ (me as u64) << 20;
            (0..n as u64).map(|i| splitmix(seed ^ i) % modulus).collect()
        };
        match case {
            0 => draw(50, u64::MAX),
            1 => draw(20 + me * 37 % 61, u64::MAX),
            2 if me % 3 == 1 => Vec::new(),
            2 => draw(me % 5 * 40 + 7, 4096),
            3 => draw(if me == 0 { 300 } else { 1 }, 512),
            4 if me % 4 == 2 => Vec::new(),
            4 => {
                let base = me as u64 * 1000;
                (0..60).map(|i| base + i * 16 + splitmix(me as u64 ^ i) % 200).collect()
            }
            5 if me == p - 1 => draw(200, 1 << 20),
            5 => Vec::new(),
            _ if me == 0 => (0..300u64).map(|i| u64::MAX - i).collect(),
            _ => vec![me as u64],
        }
    }

    /// The fused cleanup against the two-gather loop it replaced: the same
    /// keys, values and report counters, capped or not, with one collective
    /// fewer — and the spans it hands on are what a fresh gather of the
    /// sorted data says, or nothing when the cap stopped it.
    #[test]
    fn fused_cleanup_matches_the_two_gather_loop() {
        let (mut cleaned, mut capped, mut with_empty) = (0, 0, 0);
        for p in [2usize, 3, 5, 7, 64] {
            for case in 0..7 {
                for cap in [u64::MAX, 1, 0] {
                    let out = run(p, MachineModel::juropa_like(), move |comm| {
                        let me = comm.rank();
                        let keys = case_keys(case, p, me);
                        // Unique values, so that ties show their order.
                        let values: Vec<u64> =
                            (0..keys.len() as u64).map(|i| i << 8 | me as u64).collect();
                        let ops = comm.stats().coll_ops;
                        let (k, v, rep, _) = merge_exchange_sort_by_key_capped(
                            comm,
                            keys.clone(),
                            values.clone(),
                            None,
                            cap,
                        );
                        let fused_ops = comm.stats().coll_ops - ops;
                        let fresh = comm.allgather(k.first().copied().zip(k.last().copied()));
                        let ops = comm.stats().coll_ops;
                        let (ok, ov, orep) = oracle::sort(comm, keys, values, cap);
                        let oracle_ops = comm.stats().coll_ops - ops;
                        let what = format!("p {p} case {case} cap {cap} rank {me}");
                        assert_eq!((&k, &v), (&ok, &ov), "{what}: keys or values differ");
                        assert_eq!(MergeSortReport { spans: None, ..rep.clone() }, orep, "{what}");
                        assert_eq!(fused_ops + 1, oracle_ops, "{what}: one collective fewer");
                        match &rep.spans {
                            None => assert!(rep.cleanup_cap_hit, "{what}: spans withheld"),
                            Some(spans) => {
                                assert!(
                                    !rep.cleanup_cap_hit,
                                    "{what}: a capped sort hands on spans"
                                );
                                assert!(spans.iter().all(|&(sorted, _)| sorted), "{what}");
                                assert!(spans.iter().map(|&(_, s)| s).eq(fresh.iter().copied()));
                            }
                        }
                        (rep, fresh.contains(&None))
                    });
                    let (rep, empty) = &out.results[0];
                    cleaned += u64::from(rep.cleanup_rounds > 0 && !rep.cleanup_cap_hit);
                    capped += u64::from(rep.cleanup_cap_hit);
                    with_empty += u64::from(*empty);
                }
            }
        }
        assert!(cleaned > 0, "no world needed a cleanup round");
        assert!(capped > 0, "no world hit the cap");
        assert!(with_empty > 0, "no world had an empty rank");
    }

    #[test]
    fn globally_sorted_check() {
        let out = run(4, MachineModel::ideal(), |comm| {
            let sorted_keys: Vec<u64> = vec![comm.rank() as u64 * 10, comm.rank() as u64 * 10 + 5];
            let a = is_globally_sorted(comm, &sorted_keys);
            // Reverse rank order -> not globally sorted.
            let bad: Vec<u64> = vec![(3 - comm.rank()) as u64 * 10];
            let b = is_globally_sorted(comm, &bad);
            (a, b)
        });
        for (a, b) in out.results {
            assert!(a);
            assert!(!b);
        }
    }

    #[test]
    fn empty_world_edge_cases() {
        check_global_sort(1, |_| vec![3, 1, 2]);
        check_global_sort(4, |_| Vec::new());
    }
}
