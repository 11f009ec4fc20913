//! Allocation guard for the FMM: a warmed-up `FmmSolver::run` allocates a
//! fixed number of blocks — what it returns, what the sort and the
//! collectives hand back, one block per payload that travels (on a repeating
//! tree the one multipole round of the kept plan) — never per
//! level, per partner rank, per cell, per particle or per M2L translation
//! (DESIGN.md, "Workspaces"); and building the translation tables costs no
//! more than it did when M2L was a pair list.
//!
//! This file holds exactly one test: the counters are process-wide, and the
//! rank closures of a world run on threads of their own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fmm::{ExpansionOps, FmmConfig, FmmSolver};
use particles::systems::splitmix64;
use particles::{RedistMethod, SystemBox, Vec3};
use simcomm::{run, MachineModel};

static BLOCKS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts every block handed out and
/// every byte requested.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counters are statistics (`Relaxed`, they publish no other data).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const RANKS: usize = 8;

/// Blocks allocated by a whole world of `runs` identical solver runs per
/// rank at octree `level`, and the M2L translations of one run.
fn world(particles: &[(Vec3, f64)], bbox: SystemBox, level: u32, runs: usize) -> (u64, u64) {
    let n = particles.len();
    let before = BLOCKS.load(Ordering::Relaxed);
    let out = run(RANKS, MachineModel::juropa_like(), |comm| {
        let mine = comm.rank() * n / RANKS..(comm.rank() + 1) * n / RANKS;
        let pos: Vec<Vec3> = particles[mine.clone()].iter().map(|x| x.0).collect();
        let charge: Vec<f64> = particles[mine.clone()].iter().map(|x| x.1).collect();
        let id: Vec<u64> = mine.map(|i| i as u64).collect();
        let mut solver = FmmSolver::new(bbox, FmmConfig { order: 2, level, soft_core: None });
        for _ in 0..runs {
            solver.run(comm, &pos, &charge, &id, RedistMethod::RestoreOriginal, None, usize::MAX);
        }
        solver.last_report.m2l_count
    });
    (BLOCKS.load(Ordering::Relaxed) - before, out.results.iter().sum())
}

/// `ExpansionOps::new` runs once per solver, so once per rank per world: the
/// chunk-major M2L table must fit the budget of the `nc^2 x 24 B` pair list
/// and the `HashMap` it replaced — (blocks, bytes) counted with this
/// allocator at commit `b3c7f3b`, the last one with the pair list.
fn expansion_tables_cost_no_more_than_the_pair_lists_did() {
    for (order, blocks, bytes) in [(2, 19, 9_083), (4, 29, 120_884), (6, 35, 478_949)] {
        let before = (BLOCKS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        std::hint::black_box(ExpansionOps::new(order));
        let got_blocks = BLOCKS.load(Ordering::Relaxed) - before.0;
        let got_bytes = BYTES.load(Ordering::Relaxed) - before.1;
        assert!(
            got_blocks <= blocks && got_bytes <= bytes,
            "order {order}: {got_blocks} blocks / {got_bytes} B, budget {blocks} / {bytes} B"
        );
    }
}

#[test]
fn a_warm_run_allocates_per_level_and_partner_not_per_translation() {
    expansion_tables_cost_no_more_than_the_pair_lists_did();

    let bbox = SystemBox::cubic(8.0);
    let mut state = 0xa110c;
    let mut unit = || {
        state = splitmix64(state);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let particles: Vec<(Vec3, f64)> = (0..4096)
        .map(|_| (Vec3::new(8.0 * unit(), 8.0 * unit(), 8.0 * unit()), 0.5 + unit()))
        .collect();

    // The third run of a world: what three runs allocate beyond two (solver
    // construction, first-use tensors, world set-up, the locally essential
    // tree plan's build and the collective envelopes its first reuse
    // meets cancel) — a warm run on a repeating tree.
    let warm_run = |level: u32| -> (u64, u64) {
        let (two, m2l) = world(&particles, bbox, level, 2);
        let (three, _) = world(&particles, bbox, level, 3);
        (three - two, m2l)
    };
    let (coarse_blocks, coarse_m2l) = warm_run(2);
    let (fine_blocks, fine_m2l) = warm_run(3);
    assert!(
        fine_m2l > 8 * coarse_m2l,
        "level 3 must multiply the M2L work: {fine_m2l} vs {coarse_m2l}"
    );

    // One more level — eight times the cells, the ghost and multipole
    // traffic and the M2L work — costs no block: the level's key lists and
    // slabs, the cell lists, the routes and the plan are kept, and every
    // payload travels as one block. Where this guard was written the second
    // run read 632 blocks at both levels; at commit `f59653f` the third read
    // 568, 71 per rank (the partition sort's and the restore's own staging
    // most of them), and the kept plan's one multipole round in place of
    // three took two more per rank: 551–553.
    assert!(
        fine_blocks <= coarse_blocks + 2 * RANKS as u64,
        "blocks grew with the tree: level 2 {coarse_blocks} blocks / {coarse_m2l} M2L, \
         level 3 {fine_blocks} blocks / {fine_m2l} M2L"
    );
    assert!(
        coarse_blocks <= 70 * RANKS as u64,
        "a warm run allocated {coarse_blocks} blocks on {RANKS} ranks"
    );
}
