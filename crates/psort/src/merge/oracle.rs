//! The merge sort as it closed before its cleanup folded the count gather
//! into the first sortedness check: local sort, the merge-exchange network
//! with every round probed, then one allgather of the counts and one
//! allgather per sortedness check. Kept as the oracle of the fused cleanup,
//! which must leave the same keys, values and report counters.

use simcomm::Comm;

use super::{compare_split, MergeSortReport};
use crate::local::{is_sorted, radix_sort_by_key};
use crate::network::{partner_schedule, NO_PARTNER};

/// The sortedness check with its own gather of `(sorted, first, last)`.
fn is_globally_sorted(comm: &mut Comm, keys: &[u64]) -> bool {
    let local_ok = is_sorted(keys);
    let boundary = (local_ok, keys.first().copied(), keys.last().copied());
    let all = comm.allgather(boundary);
    let mut prev_last: Option<u64> = None;
    for (ok, first, last) in all {
        if !ok {
            return false;
        }
        if let (Some(pl), Some(f)) = (prev_last, first) {
            if pl > f {
                return false;
            }
        }
        if last.is_some() {
            prev_last = last;
        }
    }
    true
}

/// [`super::merge_exchange_sort_by_key_capped`] without a plan, closed by
/// the two-gather cleanup loop. Collective.
pub(super) fn sort<T: Copy + Send + 'static>(
    comm: &mut Comm,
    mut keys: Vec<u64>,
    mut values: Vec<T>,
    max_cleanup_rounds: u64,
) -> (Vec<u64>, Vec<T>, MergeSortReport) {
    let (p, me) = (comm.size(), comm.rank());
    let mut report = MergeSortReport::default();
    radix_sort_by_key(&mut keys, &mut values);
    if p == 1 {
        return (keys, values, report);
    }
    for partner in partner_schedule(p, me) {
        if partner != NO_PARTNER {
            compare_split(comm, partner as usize, &mut keys, &mut values, &mut report);
        }
    }

    let counts = comm.allgather(keys.len());
    let nonempty: Vec<usize> = (0..p).filter(|&r| counts[r] > 0).collect();
    let my_slot = nonempty.iter().position(|&r| r == me);
    loop {
        if is_globally_sorted(comm, &keys) {
            break;
        }
        if report.cleanup_rounds >= max_cleanup_rounds {
            report.cleanup_cap_hit = true;
            break;
        }
        report.cleanup_rounds += 1;
        for phase in 0..2usize {
            if let Some(slot) = my_slot {
                let partner_slot = if slot % 2 == phase {
                    Some(slot + 1).filter(|&q| q < nonempty.len())
                } else {
                    slot.checked_sub(1)
                };
                if let Some(ps) = partner_slot {
                    compare_split(comm, nonempty[ps], &mut keys, &mut values, &mut report);
                }
            }
            comm.barrier();
        }
    }
    (keys, values, report)
}
