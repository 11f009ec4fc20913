//! Initial particle distributions among parallel processes.
//!
//! The paper's simulation application "reads the particle system from an input
//! file and creates an initial distribution of the particles among the
//! parallel processes" and compares three such distributions (Sect. IV-B):
//! all particles on one single process, a uniformly random distribution, and a
//! domain decomposition that distributes particles uniformly among a Cartesian
//! process grid.
//!
//! Because every particle of a [`ParticleSource`] is a pure function of its
//! id, each rank generates its own share without any communication.

use crate::boxgeom::SystemBox;
use crate::set::ParticleSet;
use crate::systems::{splitmix64, IonicCrystal, RandomGas};
use crate::vec3::Vec3;

/// A particle system whose members are pure functions of their id.
pub trait ParticleSource {
    /// Total number of particles.
    fn n(&self) -> usize;
    /// The system box.
    fn system_box(&self) -> SystemBox;
    /// Position and charge of particle `id`.
    fn particle(&self, id: u64) -> (Vec3, f64);

    /// Optionally enumerate a superset of the ids whose particles can lie in
    /// the axis-aligned region `[lo, hi)` (with periodic wraparound). Sources
    /// with spatial structure override this to make grid distribution
    /// generation O(n/p) per rank instead of O(n).
    fn candidates_in_region(&self, _lo: Vec3, _hi: Vec3) -> Option<Vec<u64>> {
        None
    }
}

impl ParticleSource for IonicCrystal {
    fn n(&self) -> usize {
        IonicCrystal::n(self)
    }

    fn system_box(&self) -> SystemBox {
        IonicCrystal::system_box(self)
    }

    fn particle(&self, id: u64) -> (Vec3, f64) {
        IonicCrystal::particle(self, id)
    }

    fn candidates_in_region(&self, lo: Vec3, hi: Vec3) -> Option<Vec<u64>> {
        // Site (s+0.5)*spacing jittered by at most `jitter` per coordinate can
        // reach the region iff its cell index lies within the region's cell
        // range expanded by a margin (periodic wraparound handled modulo).
        let margin = (self.jitter / self.spacing).ceil() as i64 + 1;
        let mut ranges: Vec<Vec<usize>> = Vec::with_capacity(3);
        for d in 0..3 {
            let cells = self.cells[d] as i64;
            let c_lo = (lo[d] / self.spacing).floor() as i64 - margin;
            let c_hi = (hi[d] / self.spacing).ceil() as i64 + margin;
            let mut set: Vec<usize> = if c_hi - c_lo >= cells {
                (0..cells as usize).collect()
            } else {
                (c_lo..=c_hi).map(|c| c.rem_euclid(cells) as usize).collect()
            };
            set.sort_unstable();
            set.dedup();
            ranges.push(set);
        }
        let [_, cy, cz] = self.cells;
        let mut ids = Vec::with_capacity(ranges[0].len() * ranges[1].len() * ranges[2].len());
        for &sx in &ranges[0] {
            for &sy in &ranges[1] {
                for &sz in &ranges[2] {
                    ids.push((sx * cy * cz + sy * cz + sz) as u64);
                }
            }
        }
        Some(ids)
    }
}

impl ParticleSource for RandomGas {
    fn n(&self) -> usize {
        self.n
    }

    fn system_box(&self) -> SystemBox {
        self.bbox
    }

    fn particle(&self, id: u64) -> (Vec3, f64) {
        RandomGas::particle(self, id)
    }
}

/// The three initial distributions compared in the paper (Sect. IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialDistribution {
    /// All particles on process 0.
    SingleProcess,
    /// Uniformly random assignment of particles to processes.
    Random,
    /// Particles distributed by position over a Cartesian process grid.
    Grid,
}

impl InitialDistribution {
    /// Short name used in reports ("single process" / "random" / "process grid").
    pub fn label(&self) -> &'static str {
        match self {
            InitialDistribution::SingleProcess => "single process",
            InitialDistribution::Random => "random",
            InitialDistribution::Grid => "process grid",
        }
    }
}

/// Rank owning position `p` under a uniform Cartesian grid decomposition of
/// the box into `dims` subdomains (row-major rank order, like
/// `simcomm::CartGrid` coordinates).
pub fn grid_rank_of(dims: [usize; 3], bbox: &SystemBox, p: Vec3) -> usize {
    let t = bbox.normalized(p);
    let mut c = [0usize; 3];
    for d in 0..3 {
        c[d] = ((t[d] * dims[d] as f64) as usize).min(dims[d] - 1);
    }
    c[0] * dims[1] * dims[2] + c[1] * dims[2] + c[2]
}

/// Spatial bounds `[lo, hi)` of grid cell `rank` under the decomposition.
pub fn grid_cell_bounds(dims: [usize; 3], bbox: &SystemBox, rank: usize) -> (Vec3, Vec3) {
    let [_, d1, d2] = dims;
    let c = [rank / (d1 * d2), (rank / d2) % d1, rank % d2];
    let mut lo = Vec3::ZERO;
    let mut hi = Vec3::ZERO;
    for d in 0..3 {
        let w = bbox.lengths[d] / dims[d] as f64;
        lo[d] = bbox.offset[d] + c[d] as f64 * w;
        hi[d] = bbox.offset[d] + (c[d] + 1) as f64 * w;
    }
    (lo, hi)
}

/// Salt mixed into the id hash for the random distribution so it is
/// uncorrelated with any other per-id hashing.
const RANDOM_DIST_SALT: u64 = 0x5bd1e9955bd1e995;

/// Generate the local particles of `rank` (out of `nprocs`) for the given
/// initial distribution. `grid_dims` is only used by
/// [`InitialDistribution::Grid`] and must multiply to `nprocs`.
pub fn local_set<S: ParticleSource + ?Sized>(
    src: &S,
    dist: InitialDistribution,
    rank: usize,
    nprocs: usize,
    grid_dims: [usize; 3],
) -> ParticleSet {
    assert!(rank < nprocs);
    let n = src.n() as u64;
    match dist {
        InitialDistribution::SingleProcess => {
            let mut out = ParticleSet::with_capacity(if rank == 0 { n as usize } else { 0 });
            if rank == 0 {
                for id in 0..n {
                    let (p, q) = src.particle(id);
                    out.push(p, q, id);
                }
            }
            out
        }
        InitialDistribution::Random => {
            let mut out = ParticleSet::with_capacity((n as usize / nprocs) * 2 + 16);
            for id in 0..n {
                if splitmix64(id ^ RANDOM_DIST_SALT) as usize % nprocs == rank {
                    let (p, q) = src.particle(id);
                    out.push(p, q, id);
                }
            }
            out
        }
        InitialDistribution::Grid => {
            assert_eq!(
                grid_dims.iter().product::<usize>(),
                nprocs,
                "grid dims must cover the world"
            );
            let bbox = src.system_box();
            let (lo, hi) = grid_cell_bounds(grid_dims, &bbox, rank);
            let mut out = ParticleSet::with_capacity((n as usize / nprocs) * 2 + 16);
            let mut take = |id: u64| {
                let (p, q) = src.particle(id);
                if grid_rank_of(grid_dims, &bbox, p) == rank {
                    out.push(p, q, id);
                }
            };
            match src.candidates_in_region(lo, hi) {
                Some(ids) => ids.into_iter().for_each(&mut take),
                None => (0..n).for_each(&mut take),
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crystal() -> IonicCrystal {
        IonicCrystal::cubic(8, 1.0, 0.2, 11)
    }

    /// Distributions must partition the system: every id exactly once.
    fn check_partition<S: ParticleSource>(
        src: &S,
        dist: InitialDistribution,
        nprocs: usize,
        dims: [usize; 3],
    ) {
        let mut seen = vec![false; src.n()];
        for rank in 0..nprocs {
            let s = local_set(src, dist, rank, nprocs, dims);
            for &id in s.id() {
                assert!(!seen[id as usize], "id {id} assigned twice ({dist:?})");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "some id unassigned ({dist:?})");
    }

    #[test]
    fn single_process_puts_everything_on_rank0() {
        let c = crystal();
        check_partition(&c, InitialDistribution::SingleProcess, 4, [2, 2, 1]);
        let s0 = local_set(&c, InitialDistribution::SingleProcess, 0, 4, [2, 2, 1]);
        assert_eq!(s0.len(), c.n());
        let s1 = local_set(&c, InitialDistribution::SingleProcess, 1, 4, [2, 2, 1]);
        assert!(s1.is_empty());
    }

    #[test]
    fn random_partitions_and_balances() {
        let c = crystal();
        let nprocs = 8;
        check_partition(&c, InitialDistribution::Random, nprocs, [2, 2, 2]);
        let avg = c.n() / nprocs;
        for rank in 0..nprocs {
            let s = local_set(&c, InitialDistribution::Random, rank, nprocs, [2, 2, 2]);
            assert!(
                s.len() > avg / 2 && s.len() < avg * 2,
                "rank {rank} got {} (avg {avg})",
                s.len()
            );
        }
    }

    #[test]
    fn grid_partitions_and_respects_geometry() {
        let c = crystal();
        let dims = [2, 2, 2];
        check_partition(&c, InitialDistribution::Grid, 8, dims);
        let bbox = c.system_box();
        for rank in 0..8 {
            let s = local_set(&c, InitialDistribution::Grid, rank, 8, dims);
            assert!(!s.is_empty());
            for &p in s.pos() {
                assert_eq!(grid_rank_of(dims, &bbox, p), rank);
            }
        }
    }

    #[test]
    fn grid_fast_path_matches_slow_path() {
        let c = crystal();
        let dims = [2, 4, 1];
        let bbox = c.system_box();
        for rank in 0..8 {
            let mut fast = local_set(&c, InitialDistribution::Grid, rank, 8, dims);
            // Slow path: scan all ids.
            let mut slow = ParticleSet::default();
            for id in 0..c.n() as u64 {
                let (p, q) = c.particle(id);
                if grid_rank_of(dims, &bbox, p) == rank {
                    slow.push(p, q, id);
                }
            }
            // Compare as sets ordered by id.
            let order_f = {
                let mut idx: Vec<usize> = (0..fast.len()).collect();
                idx.sort_by_key(|&i| fast.id()[i]);
                idx
            };
            fast.gather_permute(&order_f);
            let order_s = {
                let mut idx: Vec<usize> = (0..slow.len()).collect();
                idx.sort_by_key(|&i| slow.id()[i]);
                idx
            };
            slow.gather_permute(&order_s);
            assert_eq!(fast, slow, "rank {rank}");
        }
    }

    #[test]
    fn grid_rank_of_covers_all_ranks() {
        let bbox = SystemBox::cubic(16.0);
        let dims = [4, 2, 2];
        let mut seen = [false; 16];
        for x in 0..16 {
            for y in 0..8 {
                for z in 0..8 {
                    let p = Vec3::new(x as f64 + 0.5, y as f64 * 2.0 + 0.5, z as f64 * 2.0 + 0.5);
                    seen[grid_rank_of(dims, &bbox, p)] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn grid_cell_bounds_tile_the_box() {
        let bbox = SystemBox::cubic(12.0);
        let dims = [3, 2, 2];
        let mut vol = 0.0;
        for rank in 0..12 {
            let (lo, hi) = grid_cell_bounds(dims, &bbox, rank);
            vol += (hi.x() - lo.x()) * (hi.y() - lo.y()) * (hi.z() - lo.z());
            // Center of the cell maps back to the rank.
            let c = (lo + hi) * 0.5;
            assert_eq!(grid_rank_of(dims, &bbox, c), rank);
        }
        assert!((vol - bbox.volume()).abs() < 1e-9);
    }

    #[test]
    fn random_gas_grid_distribution_slow_path() {
        let g = RandomGas { n: 500, bbox: SystemBox::cubic(10.0), seed: 9 };
        check_partition(&g, InitialDistribution::Grid, 4, [2, 2, 1]);
        check_partition(&g, InitialDistribution::Random, 4, [2, 2, 1]);
    }
}
