//! Deterministic fault injection for the simulated runtime.
//!
//! A [`FaultPlan`] describes a reproducible set of adverse conditions —
//! latency spikes, transient send losses, straggler ranks, a scheduled rank
//! stall, and wait timeouts — that the world injects while executing rank
//! code. Every draw is a pure function of the plan's seed and *virtual*
//! quantities (rank ids, per-rank message/operation counters), never of
//! wall-clock time or OS scheduling, so a faulted run is exactly as
//! reproducible as a clean one.
//!
//! Faults perturb **time and accounting only**: payloads are never dropped or
//! corrupted at the API level. A "lost" send is retransmitted internally
//! after a bounded exponential backoff (charged to the cost model as
//! [`crate::TraceKind::Retry`]), a stall or spike only delays clocks, and a
//! timeout charges re-probe overhead ([`crate::TraceKind::Timeout`]). This is
//! what lets the higher layers (solver guards, the `mdsim` recovery loop)
//! promise bitwise-identical trajectories under faults.
//!
//! [`FaultPlan::none`] is the inert plan: with it, every injection hook is a
//! single-branch no-op and the world behaves — clocks, statistics, traces —
//! exactly as if the fault layer did not exist.

/// SplitMix64 — the same generator the particle systems use for deterministic
/// pseudo-randomness (kept local: `simcomm` is the base crate).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A scheduled one-shot stall of a single rank: after `after_ops`
/// communication operations (sends, receive completions, collective entries)
/// on that rank, its clock jumps forward by `seconds` of rendezvous wait.
/// The stall fires at most once per world run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StallSpec {
    /// The rank that stalls.
    pub rank: usize,
    /// Number of communication operations after which the stall fires.
    pub after_ops: u64,
    /// Virtual seconds the rank is stalled for.
    pub seconds: f64,
}

/// A seeded, deterministic fault-injection plan for a simulated world.
///
/// Construct with [`FaultPlan::none`] (inert) and override fields, or use
/// [`FaultPlan::chaos`] for a ready-made mix. Passed to
/// [`crate::Runner::faulted`]; a runner without one (and the plain
/// [`crate::run`]) uses the inert plan, so such callers are bit-for-bit
/// unaffected.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every deterministic draw.
    pub seed: u64,
    /// Per-message probability that a send suffers an added latency spike.
    pub latency_spike_prob: f64,
    /// Extra wire latency (seconds) a spiked message suffers.
    pub latency_spike_seconds: f64,
    /// Per-attempt probability that a posted send is transiently lost and
    /// must be retransmitted.
    pub send_loss_prob: f64,
    /// Upper bound on retransmissions per message (the final attempt always
    /// succeeds: faults delay, they never drop data).
    pub max_retries: u32,
    /// Base backoff before the first retransmission; doubles per retry.
    pub retry_backoff_seconds: f64,
    /// Ranks whose modelled computation runs slower by `straggler_factor`.
    pub straggler_ranks: Vec<usize>,
    /// Compute-time multiplier for straggler ranks (>= 1).
    pub straggler_factor: f64,
    /// Optional scheduled one-shot rank stall.
    pub stall: Option<StallSpec>,
    /// Wait threshold (seconds): any single rendezvous wait longer than this
    /// counts timeout cycles and charges bounded re-probe overhead.
    pub wait_timeout_seconds: Option<f64>,
    /// Per-timestep probability that the movement hint handed to the solvers
    /// is a lie (consumed by `mdsim`, drawn per step — identical on every
    /// rank). A lying hint under-reports movement, which is exactly the
    /// violation the movement-bound guards must detect and mask.
    pub hint_lie_prob: f64,
    /// Factor the lying hint shrinks the true movement by (in `(0, 1)`).
    pub hint_lie_factor: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The inert plan: injects nothing, costs nothing. Worlds run with it are
    /// bitwise identical — results, clocks, statistics, traces — to worlds
    /// run without a fault layer at all.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            latency_spike_prob: 0.0,
            latency_spike_seconds: 0.0,
            send_loss_prob: 0.0,
            max_retries: 3,
            retry_backoff_seconds: 0.0,
            straggler_ranks: Vec::new(),
            straggler_factor: 1.0,
            stall: None,
            wait_timeout_seconds: None,
            hint_lie_prob: 0.0,
            hint_lie_factor: 1.0,
        }
    }

    /// A ready-made adverse mix at a given `intensity` in `[0, 1]`: scaled
    /// loss and spike probabilities, one straggler, and hint lies. Intended
    /// for sweeps (the `chaos` bench); tests that need precise conditions
    /// should construct the plan explicitly.
    pub fn chaos(seed: u64, intensity: f64) -> Self {
        let intensity = intensity.clamp(0.0, 1.0);
        FaultPlan {
            seed,
            latency_spike_prob: 0.05 * intensity,
            latency_spike_seconds: 20e-6,
            send_loss_prob: 0.05 * intensity,
            max_retries: 3,
            retry_backoff_seconds: 5e-6,
            straggler_ranks: if intensity > 0.0 { vec![0] } else { Vec::new() },
            straggler_factor: 1.0 + 0.5 * intensity,
            stall: None,
            wait_timeout_seconds: Some(1e-3),
            hint_lie_prob: 0.25 * intensity,
            hint_lie_factor: 1e-3,
        }
    }

    /// Whether this plan can inject anything at all. Inert plans make every
    /// hook in the runtime a single-branch no-op.
    pub fn is_active(&self) -> bool {
        self.latency_spike_prob > 0.0
            || self.send_loss_prob > 0.0
            || (!self.straggler_ranks.is_empty() && self.straggler_factor != 1.0)
            || self.stall.is_some()
            || self.wait_timeout_seconds.is_some()
            || self.hint_lie_prob > 0.0
    }

    /// Uniform draw in `[0, 1)` from the seed and a three-part stream id.
    fn uniform(&self, a: u64, b: u64, c: u64) -> f64 {
        let x = splitmix64(self.seed ^ splitmix64(a ^ splitmix64(b ^ splitmix64(c))));
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Number of transiently lost attempts for send number `seq` from `rank`
    /// to `dst` (0 = delivered first try). Bounded by `max_retries`; the
    /// attempt after the last allowed retry always succeeds.
    pub fn send_losses(&self, rank: usize, dst: usize, seq: u64) -> u32 {
        if self.send_loss_prob <= 0.0 {
            return 0;
        }
        let mut lost = 0u32;
        while lost < self.max_retries
            && self.uniform(rank as u64, (dst as u64) << 20 | lost as u64, seq)
                < self.send_loss_prob
        {
            lost += 1;
        }
        lost
    }

    /// Added latency for send number `seq` from `rank` to `dst` (0 if the
    /// message is not spiked).
    pub fn latency_spike(&self, rank: usize, dst: usize, seq: u64) -> f64 {
        if self.latency_spike_prob <= 0.0 {
            return 0.0;
        }
        if self.uniform(rank as u64 | 1 << 40, dst as u64, seq) < self.latency_spike_prob {
            self.latency_spike_seconds
        } else {
            0.0
        }
    }

    /// Whether `rank` is a straggler under this plan.
    pub fn straggles(&self, rank: usize) -> bool {
        self.straggler_factor != 1.0 && self.straggler_ranks.contains(&rank)
    }

    /// The movement-hint lie for timestep `step`: `Some(factor)` if the hint
    /// must be shrunk by `factor` this step, `None` for an honest hint. Drawn
    /// from the seed and the step number only, so every rank agrees.
    pub fn hint_lie(&self, step: u64) -> Option<f64> {
        if self.hint_lie_prob > 0.0 && self.uniform(2 << 40, 0, step) < self.hint_lie_prob {
            Some(self.hint_lie_factor)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(p.send_losses(0, 1, 0), 0);
        assert_eq!(p.latency_spike(0, 1, 0), 0.0);
        assert!(!p.straggles(0));
        assert!(p.hint_lie(0).is_none());
        assert_eq!(p, FaultPlan::default());
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan { seed: 1, send_loss_prob: 0.5, ..FaultPlan::none() };
        let b = FaultPlan { seed: 2, send_loss_prob: 0.5, ..FaultPlan::none() };
        let seq_a: Vec<u32> = (0..64).map(|s| a.send_losses(3, 7, s)).collect();
        let seq_a2: Vec<u32> = (0..64).map(|s| a.send_losses(3, 7, s)).collect();
        let seq_b: Vec<u32> = (0..64).map(|s| b.send_losses(3, 7, s)).collect();
        assert_eq!(seq_a, seq_a2, "same plan, same draws");
        assert_ne!(seq_a, seq_b, "different seeds must diverge");
        assert!(seq_a.iter().any(|&l| l > 0), "p=0.5 must lose something");
    }

    #[test]
    fn losses_are_bounded_by_max_retries() {
        let p = FaultPlan { seed: 9, send_loss_prob: 1.0, max_retries: 2, ..FaultPlan::none() };
        for s in 0..32 {
            assert_eq!(p.send_losses(0, 1, s), 2, "certain loss still caps at max_retries");
        }
    }

    #[test]
    fn hint_lie_rate_tracks_probability() {
        let p =
            FaultPlan { seed: 5, hint_lie_prob: 0.25, hint_lie_factor: 0.5, ..FaultPlan::none() };
        let lies = (0..1000).filter(|&s| p.hint_lie(s).is_some()).count();
        assert!((150..350).contains(&lies), "~25% of steps should lie, got {lies}");
        assert_eq!(p.hint_lie(3), p.hint_lie(3));
    }

    #[test]
    fn chaos_scales_with_intensity() {
        let hi = FaultPlan::chaos(1, 1.0);
        assert!(hi.is_active());
        assert!(hi.send_loss_prob > FaultPlan::chaos(1, 0.2).send_loss_prob);
    }
}
