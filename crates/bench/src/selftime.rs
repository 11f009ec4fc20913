//! Harness self-timing: real wall-clock and heap-allocation accounting for
//! the benchmark process itself.
//!
//! Everything else this crate reports is **virtual** time of the simulated
//! machine. The numbers here are the opposite: how long the harness *really*
//! took to execute each of its phases, and how many heap allocations the
//! process performed while doing so. They are what the `perf-smoke` CI job
//! thresholds — a regression in per-step allocation count on the
//! steady-state redistribution path shows up here long before it shows up
//! as wall-clock noise.
//!
//! The allocation counters come from [`CountingAlloc`], a forwarding
//! [`GlobalAlloc`] installed as the global allocator of every binary in this
//! crate (see `lib.rs`). Counters are process-global atomics: on a
//! multi-threaded phase (a world runs a host-core-count batch of rank threads)
//! they attribute *all* threads' allocations to the current lap, which is
//! exactly what a zero-allocation claim needs — nothing escapes. A budget for
//! *one rank's* share of a multi-rank exchange reads the per-thread pair
//! instead ([`thread_alloc_counters`]): every rank is its own host thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::report::SelftimeRow;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(allocations, bytes)` of the current thread. Const-initialised and
    /// without a destructor, so touching it inside the allocator neither
    /// allocates nor outlives the thread's TLS.
    static THREAD_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// Forwarding allocator that counts every allocation and allocated byte
/// (deallocations are not tracked — the interesting signal for a
/// zero-per-step-allocation claim is *new* heap traffic, not peak usage).
pub struct CountingAlloc;

// SAFETY: pure forwarding to `System`; the counter updates have no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is fresh heap traffic; count it like an allocation of the
        // new size. Shrinks stay free.
        if new_size > layout.size() {
            count(new_size - layout.size());
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Process-wide allocation counters since program start:
/// `(allocations, allocated bytes)`.
pub fn alloc_counters() -> (u64, u64) {
    (ALLOC_COUNT.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// The calling thread's allocation counters since it started:
/// `(allocations, allocated bytes)`. Inside a world this is one rank's share.
pub fn thread_alloc_counters() -> (u64, u64) {
    THREAD_ALLOCS.with(Cell::get)
}

/// Lap timer recording [`SelftimeRow`]s: real elapsed wall-clock and
/// allocation deltas between consecutive [`Selftime::lap`] calls.
///
/// ```
/// let mut st = bench::Selftime::start();
/// let v: Vec<u64> = (0..1000).collect();
/// st.lap("build");
/// drop(v);
/// st.lap("teardown");
/// let rows = st.rows();
/// assert_eq!(rows.len(), 2);
/// assert!(rows[0].allocs >= 1);
/// ```
pub struct Selftime {
    rows: Vec<SelftimeRow>,
    mark_time: Instant,
    mark_allocs: u64,
    mark_bytes: u64,
}

impl Selftime {
    /// Start timing; the first `lap` measures from here.
    pub fn start() -> Selftime {
        let (allocs, bytes) = alloc_counters();
        Selftime {
            rows: Vec::new(),
            mark_time: Instant::now(),
            mark_allocs: allocs,
            mark_bytes: bytes,
        }
    }

    /// Close the current lap under `name` and start the next one.
    pub fn lap(&mut self, name: &str) {
        self.lap_steps(name, 0);
    }

    /// Like [`Selftime::lap`] for a phase covering `steps` repetitions of a
    /// steady-state operation: `commstats --check --alloc-budget name=N`
    /// divides the lap's allocation count by `steps` before comparing.
    pub fn lap_steps(&mut self, name: &str, steps: u64) {
        let (allocs, bytes) = alloc_counters();
        self.rows.push(SelftimeRow {
            name: name.to_string(),
            wall_seconds: self.mark_time.elapsed().as_secs_f64(),
            allocs: allocs - self.mark_allocs,
            alloc_bytes: bytes - self.mark_bytes,
            steps,
        });
        self.mark_time = Instant::now();
        self.mark_allocs = allocs;
        self.mark_bytes = bytes;
    }

    /// The recorded rows, ready for [`crate::RunReport::selftime`].
    pub fn rows(self) -> Vec<SelftimeRow> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_increase_on_allocation() {
        let (a0, b0) = alloc_counters();
        let v = vec![0u8; 4096];
        let (a1, b1) = alloc_counters();
        assert!(a1 > a0, "allocation not counted");
        assert!(b1 - b0 >= 4096, "allocated bytes not counted");
        drop(v);
    }

    #[test]
    fn thread_counters_see_only_their_own_thread() {
        let (_, b0) = thread_alloc_counters();
        let (_, theirs) = std::thread::spawn(|| {
            let v = vec![0u8; 1 << 16];
            let counters = thread_alloc_counters();
            drop(v);
            counters
        })
        .join()
        .expect("helper thread");
        let (_, b1) = thread_alloc_counters();
        assert!(theirs >= 1 << 16, "the helper's buffer shows in the helper's counters");
        assert!(b1 - b0 < 1 << 16, "and is not billed to the thread that spawned it");
    }

    #[test]
    fn laps_record_deltas() {
        let mut st = Selftime::start();
        let v: Vec<u64> = (0..100).collect();
        st.lap("alloc");
        st.lap_steps("idle", 10);
        drop(v);
        let rows = st.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "alloc");
        assert!(rows[0].allocs >= 1);
        assert!(rows[0].wall_seconds >= 0.0);
        assert_eq!(rows[1].steps, 10);
    }
}
