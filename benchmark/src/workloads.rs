//! The five workloads: sizes, one iteration of each, and its verification.
//!
//! Every workload is a closed loop with one client: the next iteration starts
//! when the previous one has returned. Iteration counts and sizes are
//! constants, so `ops` is the same on every commit; inputs come from `--seed`
//! and are generated in set-up, outside the timed region.

use crate::adapter::{
    self, Ctx, ExchangeInputs, ExchangeWorld, MdInputs, MdWorld, Method, RedistCounts,
    RedistInputs, RedistWorld, Solver, WorldStats, TOLERANCE,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MdFmm,
    MdP2nfft,
    MdSparse64,
    Redist,
    ScaleExchange,
}

pub const ALL: [Workload; 5] = [
    Workload::MdFmm,
    Workload::MdP2nfft,
    Workload::MdSparse64,
    Workload::Redist,
    Workload::ScaleExchange,
];

// Sizes. `md_fmm` / `md_p2nfft`: 512 particles per rank, so solver kernels
// dominate. `md_sparse64`: 27 particles per rank, the regime of the committed
// figures, so per-rank-step fixed cost dominates. `redist`: the paper's
// particles-per-process scale with no solver arithmetic. `scale_exchange`:
// 256 ranks, because at 512+ the in-flight payloads leave the cache and
// run-to-run spread grows past any useful bound.
const MD_CELLS: usize = 16;
const MD_RANKS: usize = 8;
const MD_STEPS: usize = 3;
const SPARSE_CELLS: usize = 12;
const SPARSE_RANKS: usize = 64;
const SPARSE_STEPS: usize = 6;
const REDIST_RANKS: usize = 64;
const REDIST_PER_RANK: usize = 2048;
const REDIST_ROUNDS: usize = 8;
const EXCHANGE_RANKS: usize = 256;
const EXCHANGE_STEPS: usize = 64;
const EXCHANGE_MEAN_BYTES: usize = 256;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::MdFmm => "md_fmm",
            Workload::MdP2nfft => "md_p2nfft",
            Workload::MdSparse64 => "md_sparse64",
            Workload::Redist => "redist",
            Workload::ScaleExchange => "scale_exchange",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one op is, for the output.
    pub fn op(self) -> &'static str {
        match self {
            Workload::MdFmm | Workload::MdP2nfft | Workload::MdSparse64 => "particle-step",
            Workload::Redist => "particle-round",
            Workload::ScaleExchange => "rank-step",
        }
    }

    /// Host seconds one iteration takes on the host the sizes were frozen on;
    /// `--seconds` divided by this is the iteration count.
    pub fn nominal_iteration_s(self) -> f64 {
        match self {
            Workload::MdFmm => 0.6,
            Workload::MdP2nfft => 0.75,
            Workload::MdSparse64 => 0.6,
            Workload::Redist => 0.55,
            Workload::ScaleExchange => 0.5,
        }
    }

    /// Generate this workload's inputs from the seed.
    pub fn inputs(self, cx: &Ctx, seed: u64) -> Inputs {
        match self {
            Workload::MdFmm | Workload::MdP2nfft => {
                Inputs::Md(adapter::md_inputs(cx, MD_CELLS, seed, MD_RANKS))
            }
            Workload::MdSparse64 => {
                Inputs::Md(adapter::md_inputs(cx, SPARSE_CELLS, seed, SPARSE_RANKS))
            }
            Workload::Redist => Inputs::Redist(adapter::redist_inputs(
                seed,
                REDIST_RANKS,
                REDIST_PER_RANK,
                REDIST_ROUNDS,
            )),
            Workload::ScaleExchange => Inputs::Exchange(adapter::exchange_inputs(
                seed,
                EXCHANGE_RANKS,
                EXCHANGE_MEAN_BYTES,
                EXCHANGE_STEPS,
            )),
        }
    }

    /// Ops in one iteration.
    pub fn ops(self, inputs: &Inputs) -> u64 {
        match (self, inputs) {
            (Workload::MdSparse64, Inputs::Md(md)) => (md.particles() * SPARSE_STEPS * 2) as u64,
            (_, Inputs::Md(md)) => (md.particles() * MD_STEPS * 2) as u64,
            (_, Inputs::Redist(r)) => (r.ranks() * r.per_rank() * r.rounds() * 2) as u64,
            (_, Inputs::Exchange(e)) => (e.ranks() * e.steps()) as u64,
        }
    }

    /// Run one iteration: the calls into the program and nothing else, so
    /// that the caller's clock and allocation counter see only the program.
    /// `Err` is a world that returned a `WorldError`.
    pub fn iterate(self, cx: &Ctx, inputs: &Inputs) -> Result<Raw, String> {
        let md = |first: (&'static str, Solver, Method), second: (&'static str, Solver, Method)| {
            let Inputs::Md(md) = inputs else { unreachable!("MD workloads generate MD inputs") };
            let steps = if self == Workload::MdSparse64 { SPARSE_STEPS } else { MD_STEPS };
            let first = adapter::md_world(cx, first.0, md, first.1, first.2, steps)?;
            let second = adapter::md_world(cx, second.0, md, second.1, second.2, steps)?;
            Ok(Raw::MdPair { first, second })
        };
        match (self, inputs) {
            (Workload::MdFmm, _) => md(
                ("md/method_a", Solver::Fmm, Method::A),
                ("md/method_b_movement", Solver::Fmm, Method::BMovement),
            ),
            (Workload::MdP2nfft, _) => md(
                ("md/method_a", Solver::P2nfft, Method::A),
                ("md/method_b_movement", Solver::P2nfft, Method::BMovement),
            ),
            (Workload::MdSparse64, _) => md(
                ("md/fmm", Solver::Fmm, Method::BMovement),
                ("md/p2nfft", Solver::P2nfft, Method::BMovement),
            ),
            (Workload::Redist, Inputs::Redist(r)) => adapter::redist_world(cx, r).map(Raw::Redist),
            (Workload::ScaleExchange, Inputs::Exchange(e)) => {
                adapter::exchange_world(cx, "scale_exchange", e).map(Raw::Exchange)
            }
            _ => unreachable!("inputs are generated by the workload that consumes them"),
        }
    }

    /// Check an iteration's outputs and condense them. `Err` is a check that
    /// did not hold.
    pub fn verify(self, inputs: &Inputs, raw: Raw) -> Result<Outcome, String> {
        match (raw, inputs) {
            (Raw::MdPair { first, second }, Inputs::Md(md)) => {
                check_md_ids(&first, md.particles())?;
                check_md_ids(&second, md.particles())?;
                let redist = first.virt_redist_s + second.virt_redist_s;
                let b_over_a = second.virt_redist_s / first.virt_redist_s;
                if self == Workload::MdSparse64 {
                    // Two solvers, each within the tolerance of the true energy.
                    check_energies_agree(&first, &second, 2.0 * TOLERANCE)?;
                    Ok(outcome(vec![first.stats, second.stats], redist))
                } else {
                    // Methods A and B integrate the same trajectory; only the
                    // summation order inside the solver differs.
                    check_energies_agree(&first, &second, TOLERANCE)?;
                    Ok(Outcome {
                        virt_b_over_a: b_over_a,
                        ..outcome(vec![first.stats, second.stats], redist)
                    })
                }
            }
            (Raw::Redist(w), _) => {
                check(w.restored_equal, || {
                    "redist: a Method A round did not restore the original".into()
                })?;
                check(w.resorted_equal, || {
                    "redist: a Method B round resorted ids out of order".into()
                })?;
                Ok(Outcome {
                    virt_b_over_a: w.virt_method_b_s / w.virt_method_a_s,
                    redist_counts: w.counts,
                    ..outcome(vec![w.stats], w.virt_method_a_s + w.virt_method_b_s)
                })
            }
            (Raw::Exchange(w), Inputs::Exchange(e)) => {
                let per_step = e.bytes_per_step();
                let sent = per_step * e.steps() as u64;
                let received: u64 = w.received.iter().sum();
                check(received == sent, || {
                    format!("scale_exchange: received {received} B, sent {sent} B")
                })?;
                check(w.last_step_total.iter().all(|&t| t == per_step), || {
                    format!("scale_exchange: the allreduce is not {per_step} B on every rank")
                })?;
                let max_comm_wait_s = w.stats.max_comm_wait_s;
                Ok(outcome(vec![w.stats], max_comm_wait_s))
            }
            _ => unreachable!("inputs are generated by the workload that consumes them"),
        }
    }
}

pub enum Inputs {
    Md(MdInputs),
    Redist(RedistInputs),
    Exchange(ExchangeInputs),
}

/// The finished worlds of one iteration, not yet verified. `md_fmm` and
/// `md_p2nfft` run a Method A world then a Method B + movement world;
/// `md_sparse64` runs FMM then P2NFFT, both Method B + movement.
// One value per iteration; boxing the large variant would put an allocation of
// the benchmark's own into the measured region.
#[allow(clippy::large_enum_variant)]
pub enum Raw {
    MdPair { first: MdWorld, second: MdWorld },
    Redist(RedistWorld),
    Exchange(ExchangeWorld),
}

/// What one verified iteration produced. Virtual seconds are those of the
/// machine model, which is unvalidated against hardware.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub virt_makespan_s: f64,
    pub virt_redist_s: f64,
    pub worlds: Vec<WorldStats>,
    /// Method B + movement redistribution ÷ Method A redistribution, where
    /// the iteration runs both (0 otherwise).
    pub virt_b_over_a: f64,
    pub redist_counts: RedistCounts,
}

impl Outcome {
    /// The part of an outcome that must be bit-equal across the iterations of
    /// one run: virtual times and the `simcomm` traffic counts.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut f = vec![self.virt_makespan_s.to_bits(), self.virt_redist_s.to_bits()];
        for w in &self.worlds {
            f.extend([w.makespan_s.to_bits(), w.p2p_msgs, w.p2p_bytes, w.coll_ops, w.coll_bytes]);
        }
        f
    }
}

fn outcome(worlds: Vec<WorldStats>, virt_redist_s: f64) -> Outcome {
    Outcome {
        virt_makespan_s: worlds.iter().map(|w| w.makespan_s).sum(),
        virt_redist_s,
        worlds,
        virt_b_over_a: 0.0,
        redist_counts: RedistCounts::default(),
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Particle count conserved and the ids a permutation of `0..n`.
fn check_md_ids(world: &MdWorld, n: usize) -> Result<(), String> {
    let label = world.stats.label;
    check(world.final_ids.len() == n, || {
        format!("{label}: {} particles after the run, {n} before", world.final_ids.len())
    })?;
    let mut seen = vec![false; n];
    for &id in &world.final_ids {
        check((id as usize) < n && !seen[id as usize], || {
            format!("{label}: id {id} is out of range or appears twice")
        })?;
        seen[id as usize] = true;
    }
    Ok(())
}

fn check_energies_agree(a: &MdWorld, b: &MdWorld, tolerance: f64) -> Result<(), String> {
    let rel = (a.final_energy - b.final_energy).abs() / a.final_energy.abs();
    check(rel <= tolerance, || {
        format!(
            "final energies differ by {rel:.3e} (> {tolerance:e}): {} = {}, {} = {}",
            a.stats.label, a.final_energy, b.stats.label, b.final_energy
        )
    })
}
