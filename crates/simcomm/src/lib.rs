//! # simcomm — a simulated distributed-memory message-passing runtime
//!
//! This crate stands in for MPI on the production clusters the original paper
//! evaluated on (JuRoPA and the Blue Gene/Q system Juqueen). A *world* of `P`
//! simulated processes ("ranks") runs on the local machine, cooperatively
//! under a discrete-event scheduler that reaches paper-scale rank counts (see
//! [`Runner`]). Ranks exchange **real data** through shared memory using an
//! MPI-like API (blocking point-to-point, collectives, Cartesian grids),
//! while **time** is *virtual*: every operation advances the calling rank's
//! clock according to a pluggable [`MachineModel`]. Clocks, statistics and
//! traces are bitwise reproducible on any host for every committed workload.
//!
//! The combination means an algorithm's communication *volume and structure*
//! are exactly those of the real program, while the *cost* of that
//! communication reflects a chosen machine: a switched-fabric cluster
//! ([`MachineModel::juropa_like`]) or a torus supercomputer
//! ([`MachineModel::juqueen_like`]). This is precisely the substrate the
//! paper's experiments need — e.g. the Fig. 9 effect that neighbourhood
//! point-to-point exchange beats collective all-to-all on a large torus but
//! not on a switched network falls directly out of the topology model.
//!
//! ## Example
//!
//! ```
//! use simcomm::{run, MachineModel};
//!
//! let out = run(8, MachineModel::juropa_like(), |comm| {
//!     // Exchange a value with the next rank around a ring.
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     let got = comm.sendrecv(right, vec![comm.rank() as u64], left, 0);
//!     assert_eq!(got, vec![left as u64]);
//!     comm.clock() // virtual seconds spent
//! });
//! assert!(out.makespan() > 0.0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

mod cart;
mod engine;
mod error;
mod fault;
mod model;
mod phase;
mod plan;
mod pool;
mod trace;
mod world;

pub use cart::CartGrid;
pub use engine::{Engine, HostCounters};
pub use error::WorldError;
pub use fault::{FaultPlan, StallSpec};
pub use model::{
    balanced_dims, torus_coords, torus_hops, ComputeRates, MachineModel, Topology, Work,
};
pub use phase::{aggregate_phases, PhaseAgg, PhaseProfile, PhaseStats, UNTAGGED};
pub use plan::CommPlan;
pub use trace::{write_trace_csv, ClockSpan, SpanCat, Trace, TraceEvent, TraceKind};
pub use world::{push_segment, run, Comm, Group, RankStats, Request, RunOutput, Runner};
