//! Types shared between the long-range solvers and the coupling library
//! interface: redistribution method selection, movement hints, per-execution
//! timing breakdowns and solver results.

use crate::vec3::Vec3;

/// Which particle data redistribution method a solver execution uses
/// (the two methods of the paper, Sect. III).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedistMethod {
    /// Method A: hide all reordering/redistribution inside the library and
    /// restore the original particle order and distribution (Sect. III-A).
    RestoreOriginal,
    /// Method B: return the changed (solver-specific) particle order and
    /// distribution, and resort the application's additional data into it
    /// (Sect. III-B).
    UseChanged,
}

/// Hint about the maximum distance any particle moved since the previous
/// solver execution. `None` means unknown/unbounded; solvers then use their
/// general (collective / partition-based) redistribution paths.
pub type MovementHint = Option<f64>;

/// A short-range repulsive soft core `u(r) = epsilon * (sigma / r)^12`,
/// evaluated inside the solvers' near fields alongside the Coulomb kernel.
///
/// Pure Coulomb systems of opposite charges are unstable (ions collapse into
/// each other); physical ionic systems — like the paper's melting silica —
/// carry a short-range repulsion ("additional short range interactions" in
/// the paper's wording). The range of the core must stay below the solvers'
/// near-field reach (one cell / the cutoff radius), which holds for any
/// `sigma` below the mean inter-particle spacing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoftCore {
    /// Energy scale of the repulsion.
    pub epsilon: f64,
    /// Length scale: `u(sigma) = epsilon`.
    pub sigma: f64,
}

impl SoftCore {
    /// A core sized for an ionic system with mean inter-particle spacing `a`
    /// and unit charges: strong repulsion well inside the spacing, negligible
    /// at and beyond it.
    pub fn for_spacing(a: f64) -> Self {
        SoftCore { epsilon: 1.0, sigma: 0.7 * a }
    }

    /// Pair energy at distance `r`.
    #[inline]
    pub fn energy(&self, r: f64) -> f64 {
        let s = self.sigma / r;
        let s2 = s * s;
        let s6 = s2 * s2 * s2;
        self.epsilon * s6 * s6
    }

    /// Magnitude of the (always repulsive) pair force at distance `r`.
    #[inline]
    pub fn force(&self, r: f64) -> f64 {
        12.0 * self.energy(r) / r
    }
}

/// One particle as the solvers carry it between ranks: position, charge, the
/// application's global id, and the origin code (`origin rank << 32 | origin
/// position`) by which its results go home (Method A) and a resort plan
/// rebuilt from owners orders its arrivals (Method B).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Particle {
    /// Particle position.
    pub pos: Vec3,
    /// Particle charge.
    pub charge: f64,
    /// Application-level global particle id.
    pub id: u64,
    /// Origin code: `encode_index(origin_rank, origin_pos)` of `atasp`.
    pub origin: u64,
}

/// Virtual-time breakdown of one solver execution, mirroring the quantities
/// the paper's figures report (sort / restore / resort / total).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolverTimings {
    /// Redistributing/sorting particles into the solver's decomposition.
    pub sort: f64,
    /// The actual near/far field computation.
    pub compute: f64,
    /// Restoring the original order and distribution (Method A only).
    pub restore: f64,
    /// Method B only: the hand-back's resort step — building the resort
    /// plan from the particles' routes with no exchange, or from the
    /// identity route on a quiet step.
    pub resort_create: f64,
    /// Total time of the solver execution.
    pub total: f64,
}

impl SolverTimings {
    /// The redistribution share of this execution: sort + restore +
    /// resort creation.
    pub fn redistribution(&self) -> f64 {
        self.sort + self.restore + self.resort_create
    }
}

/// Result of one solver execution through the coupling interface.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolverOutput {
    /// Particle positions (original order for Method A, changed order for
    /// Method B).
    pub pos: Vec<Vec3>,
    /// Particle charges, same order as `pos`.
    pub charge: Vec<f64>,
    /// Global particle ids, same order as `pos`.
    pub id: Vec<u64>,
    /// Calculated potentials, same order as `pos`.
    pub potential: Vec<f64>,
    /// Calculated field values, same order as `pos`.
    pub field: Vec<Vec3>,
    /// `true` iff the particles were returned in the changed (solver) order
    /// and distribution (Method B succeeded); `false` means the original
    /// order and distribution was restored. A run that resorted leaves its
    /// solver a resort plan for the application's additional data
    /// (`FmmSolver::resort_plan`, `PmSolver::resort_plan`,
    /// `EwaldSolver::resort_plan`), which `fcs` executes; no resort index is
    /// returned.
    pub resorted: bool,
    /// Timing breakdown of this execution.
    pub timings: SolverTimings,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redistribution_sums_parts() {
        let t = SolverTimings {
            sort: 1.0,
            compute: 10.0,
            restore: 2.0,
            resort_create: 0.5,
            total: 13.5,
        };
        assert!((t.redistribution() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn default_output_is_empty() {
        let o = SolverOutput::default();
        assert!(o.pos.is_empty());
        assert!(!o.resorted);
    }
}
