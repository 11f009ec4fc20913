//! Arena-reused message buffers: the allocation-free half of the byte-plane
//! data path.
//!
//! Every simulated message carries its payload as an owned allocation that
//! physically moves from the sender to the receiver. Without reuse, a
//! steady-state exchange therefore allocates one buffer per partner per
//! timestep on the send side and frees the arrived buffers on the receive
//! side — exactly the per-step churn the byte-plane refactor removes. The
//! [`BufferPool`] closes the loop: received buffers are *released* back into
//! the local rank's pool keyed by the partner they arrived from, and the next
//! step's send buffers are *acquired* from the same pool. In a symmetric
//! neighbourhood exchange the population is self-sustaining after one warm-up
//! step: every buffer a rank ships out is replaced by one shipped in.
//!
//! The pool holds plain `Vec<u8>`s. The box a byte message travels in is
//! recycled where every typed message's is, on the rank's spare-envelope
//! list, so a steady-state byte exchange performs **zero heap allocations**
//! end to end.
//!
//! Retention follows a per-partner high-water mark with decay: each slot
//! remembers the largest recent request and shrinks buffers whose capacity
//! has grown far beyond it, so a transient burst (e.g. one decorrelated
//! redistribution step) does not pin its peak footprint forever. Reuse and
//! growth are observable per rank as [`crate::RankStats::bytes_reused`] /
//! [`crate::RankStats::bytes_grown`].
//!
//! Pooling is a pure memory-management concern: it never changes message
//! sizes, cost charges, clocks or traces — only the two reuse counters (and
//! the process's allocator traffic) depend on it. The frozen digest of the
//! pooled byte path in `tests/determinism.rs` holds it to that.

use std::collections::BTreeMap;

/// One partner's retained buffers plus its decayed high-water mark.
#[derive(Debug, Default)]
struct Slot {
    bufs: Vec<Vec<u8>>,
    /// Decayed high-water mark of requested sizes (bytes): raised to every
    /// request, decayed by 1/8 per acquisition otherwise. The shrink
    /// threshold below tracks this, so retained capacity follows demand down.
    hwm: usize,
}

/// Capacity beyond `SHRINK_FACTOR * hwm` (and above `SHRINK_MIN` bytes) is
/// returned to the allocator on release.
const SHRINK_FACTOR: usize = 4;
const SHRINK_MIN: usize = 4096;

/// A per-rank arena of reusable message buffers, keyed by partner rank.
/// See the module docs for the lifecycle; accessed through
/// [`crate::Comm::buf_acquire`] / [`crate::Comm::buf_release`].
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    slots: BTreeMap<usize, Slot>,
}

impl BufferPool {
    /// Take a buffer for `partner` with capacity for `bytes`, cleared to
    /// length 0. Returns the buffer plus the `(bytes_reused, bytes_grown)`
    /// delta this acquisition contributes to the rank's stats.
    pub(crate) fn acquire(&mut self, partner: usize, bytes: usize) -> (Vec<u8>, u64, u64) {
        let slot = self.slots.entry(partner).or_default();
        slot.hwm = bytes.max(slot.hwm - slot.hwm / 8);
        match slot.bufs.pop() {
            Some(mut buf) => {
                buf.clear();
                let cap = buf.capacity();
                if cap >= bytes {
                    (buf, bytes as u64, 0)
                } else {
                    buf.reserve(bytes);
                    (buf, cap as u64, (bytes - cap) as u64)
                }
            }
            None => (Vec::with_capacity(bytes), 0, bytes as u64),
        }
    }

    /// Return a buffer to `partner`'s slot, shrinking it first if its
    /// capacity has grown far beyond the slot's decayed high-water mark.
    pub(crate) fn release(&mut self, partner: usize, mut buf: Vec<u8>) {
        let slot = self.slots.entry(partner).or_default();
        if buf.capacity() > SHRINK_MIN && buf.capacity() > SHRINK_FACTOR * slot.hwm {
            buf.clear();
            buf.shrink_to(slot.hwm.max(SHRINK_MIN));
        }
        slot.bufs.push(buf);
    }

    /// Total retained capacity for `partner`, in bytes.
    #[cfg(test)]
    fn retained_bytes(&self, partner: usize) -> usize {
        self.slots.get(&partner).map_or(0, |s| s.bufs.iter().map(|b| b.capacity()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_reuses_capacity_and_counts() {
        let mut pool = BufferPool::default();
        let (mut buf, reused, grown) = pool.acquire(3, 100);
        assert_eq!((reused, grown), (0, 100));
        buf.extend_from_slice(&[7u8; 100]);
        let cap = buf.capacity();
        pool.release(3, buf);
        assert_eq!(pool.retained_bytes(3), cap);
        let (buf2, reused2, grown2) = pool.acquire(3, 80);
        assert_eq!((reused2, grown2), (80, 0), "second acquisition is served from the pool");
        assert!(buf2.is_empty(), "acquired buffers come back cleared");
        assert!(buf2.capacity() >= 80);
    }

    #[test]
    fn growth_is_counted_when_capacity_is_short() {
        let mut pool = BufferPool::default();
        let (buf, _, _) = pool.acquire(0, 10);
        pool.release(0, buf);
        let (buf2, reused, grown) = pool.acquire(0, 50);
        assert!(buf2.capacity() >= 50);
        assert_eq!(reused + grown, 50, "every requested byte is either reused or grown");
        assert!(grown > 0, "growing past the retained capacity must be counted");
    }

    #[test]
    fn high_water_mark_shrinks_after_demand_drops() {
        let mut pool = BufferPool::default();
        // Burst: one very large exchange pins a large capacity.
        let (mut big, _, _) = pool.acquire(5, 1 << 20);
        big.resize(1 << 20, 0);
        pool.release(5, big);
        assert!(pool.retained_bytes(5) >= 1 << 20);
        // Steady small demand: the decayed high-water mark falls and the
        // retained capacity follows it down within a bounded number of steps.
        for _ in 0..200 {
            let (buf, _, _) = pool.acquire(5, 1024);
            pool.release(5, buf);
        }
        assert!(
            pool.retained_bytes(5) <= SHRINK_FACTOR * SHRINK_MIN,
            "retained capacity {} must shrink toward the small steady-state demand",
            pool.retained_bytes(5)
        );
    }
}
