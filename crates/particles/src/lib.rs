//! # particles — particle data, geometry and synthetic systems
//!
//! Shared substrate for the coupled-particle-code reproduction: a minimal 3D
//! vector type, periodic box geometry, Z-Morton ordering (the FMM solver's
//! domain decomposition key), structure-of-arrays particle containers, the
//! synthetic ionic-crystal workload standing in for the paper's "melting
//! silica" trace, the three initial distributions of Sect. IV-B, and slow
//! reference solvers (direct summation, Ewald) used to validate the fast ones.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

mod boxgeom;
pub mod coupling;
pub mod distributions;
pub mod math;
pub mod planes;
pub mod reference;
mod set;
pub mod systems;
mod vec3;
pub mod zorder;

pub use boxgeom::SystemBox;
pub use coupling::{MovementHint, Particle, RedistMethod, SoftCore, SolverOutput, SolverTimings};
pub use distributions::{
    grid_cell_bounds, grid_rank_of, local_set, InitialDistribution, ParticleSource,
};
pub use planes::{PlaneElem, PlaneId, PlaneMut, PlaneSet, Planes};
pub use set::{gather, invert_permutation, scatter, ParticleSet};
pub use systems::{IonicCrystal, RandomGas, MADELUNG_NACL};
pub use vec3::Vec3;
