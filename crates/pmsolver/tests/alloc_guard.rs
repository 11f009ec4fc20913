//! Allocation guard for the particle-mesh solver: a warmed-up
//! `PmSolver::run` allocates a fixed number of blocks — what it returns,
//! what the collectives hand back and one block per staging array that is
//! sized by the window or the ghost shell — whatever the particle, cell,
//! mesh-point and partner counts (DESIGN.md, "Workspaces").
//!
//! This file holds exactly one test: the counters are process-wide, and the
//! rank closures of a world run on threads of their own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use particles::{local_set, InitialDistribution, IonicCrystal, RedistMethod};
use pmsolver::{PmConfig, PmSolver};
use simcomm::{run, CartGrid, MachineModel};

static BLOCKS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts every block handed out.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a statistic (`Relaxed`, it publishes no other data).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One problem shape: crystal cells per edge, mesh points per edge, ranks.
#[derive(Clone, Copy, Debug)]
struct Shape {
    cells: usize,
    mesh: usize,
    ranks: usize,
}

/// Blocks allocated by a whole world of `runs` solver runs per rank on the
/// grid-distributed crystal (nothing migrates: every step is a warm one).
fn world(shape: Shape, method: RedistMethod, runs: usize) -> u64 {
    let crystal = IonicCrystal::cubic(shape.cells, 1.0, 0.1, 5);
    let bbox = crystal.system_box();
    let dims = CartGrid::balanced(shape.ranks).dims();
    let rcut = (bbox.lengths.x() / dims[0] as f64).min(0.49 * bbox.lengths.x());
    let cfg = PmConfig {
        mesh: shape.mesh,
        assign_order: 3,
        alpha: 2.5 / rcut,
        rcut,
        soft_core: None,
        pencil: false,
    };
    let movement = (method == RedistMethod::UseChanged).then_some(1e-3);
    let before = BLOCKS.load(Ordering::Relaxed);
    run(shape.ranks, MachineModel::juropa_like(), |comm| {
        let set = local_set(&crystal, InitialDistribution::Grid, comm.rank(), shape.ranks, dims);
        let mut solver = PmSolver::new(bbox, cfg.clone(), shape.ranks);
        for _ in 0..runs {
            solver.run(comm, set.pos(), set.charge(), set.id(), method, movement, usize::MAX);
        }
    });
    BLOCKS.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_run_allocates_a_fixed_number_of_blocks() {
    let shapes = [
        Shape { cells: 6, mesh: 8, ranks: 8 },
        // More particles and linked cells.
        Shape { cells: 12, mesh: 8, ranks: 8 },
        // More mesh points.
        Shape { cells: 6, mesh: 16, ranks: 8 },
        // More partners (26 instead of 7) and fewer particles per rank.
        Shape { cells: 6, mesh: 8, ranks: 27 },
    ];
    for method in [RedistMethod::RestoreOriginal, RedistMethod::UseChanged] {
        for shape in shapes {
            // What a third run allocates beyond two (solver construction, the
            // first run's plans and buffer growth and world set-up cancel),
            // per rank. Ranks differ by a few blocks — one without a slab of
            // the mesh skips the transposes — but no count grows with the
            // problem: where this guard was written every shape read 24 to
            // 37, and the per-destination send lists, per-step windows and
            // slabs before it 160 to 266, growing with every one of them.
            let warm = world(shape, method, 3) - world(shape, method, 2);
            assert!(
                warm <= 40 * shape.ranks as u64,
                "{method:?} {shape:?}: a warm run allocated {warm} blocks on {} ranks",
                shape.ranks
            );
        }
    }
}
