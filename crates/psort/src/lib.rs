//! # psort — parallel sorting for particle redistribution
//!
//! The two parallel sorting algorithms the paper's FMM solver switches
//! between (Sect. III):
//!
//! * [`partition_sort_by_key`] — **partition-based** (Hofmann/Rünger,
//!   HPCC'11): splitter selection by global histogramming followed by a
//!   collective all-to-all exchange and a local merge of the received runs.
//!   Used for *unsorted* data; produces balanced per-rank counts.
//! * [`merge_exchange_sort_by_key`] — **merge-based** (Dachsel/Hofmann/
//!   Rünger, Euro-Par'07): local sort plus pairwise compare-split steps along
//!   Batcher's merge-exchange network, using only point-to-point
//!   communication with an early-exit boundary probe. Used for *almost
//!   sorted* data (particles that moved only slightly since the last time
//!   step); preserves per-rank counts.
//!
//! The FMM solver picks between them with the paper's maximum-movement
//! heuristic (see the `fcs` and `fmm` crates): merge-based iff the maximum
//! particle movement is below the side length of a per-process cube of the
//! system volume.
//!
//! Both sorts operate on `u64` keys with an arbitrary `Copy` payload; for the
//! FMM the key is the Z-Morton box number and the payload a particle record.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

mod local;
mod merge;
mod network;
mod order;
mod partition;

#[cfg(test)]
#[path = "../../simcomm/tests/common/mod.rs"]
mod widths;

pub use local::{bucket_bounds, is_sorted, radix_sort_by_key};
pub use merge::{
    is_globally_sorted, merge_exchange_sort_by_key, merge_exchange_sort_by_key_capped,
    merge_exchange_sort_by_key_planned, KeySpan, MergeSortReport, SortPlan,
};
pub use network::{merge_exchange_comparators, merge_exchange_rounds};
pub use order::stable_order;
pub use partition::{partition_sort_by_key, PartitionSortReport};
