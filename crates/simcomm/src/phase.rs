//! Phase-scoped metrics: named spans over rank code (`comm.enter_phase("sort")
//! .. comm.exit_phase()`) with per-rank, per-phase accounting of virtual time
//! and traffic, and cross-rank aggregation into a critical-path table.
//!
//! Phases form a **stack** per rank: entering a phase while another is open
//! nests it, and all time and traffic are attributed to the *innermost* open
//! phase. The attribution intervals of the phases on one rank therefore never
//! overlap, and the per-phase times sum exactly to the rank's total clock
//! (together with the `(untagged)` remainder accumulated while no phase was
//! open). Virtual time is further decomposed into three exhaustive buckets:
//!
//! * **compute** — modelled computation ([`crate::Comm::advance`] /
//!   [`crate::Comm::compute`]),
//! * **comm** — modelled transfer cost (p2p overhead + injection, collective
//!   algorithm cost),
//! * **wait** — rendezvous idle time (blocking on a message that has not
//!   arrived yet, or on the last participant of a collective).
//!
//! All times are **virtual seconds** of the world's
//! [`MachineModel`](crate::MachineModel); all sizes are bytes.

use crate::world::RankStats;

/// Per-rank aggregate of everything that happened while the named phase was
/// the innermost open span.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Phase name (`""` only in the [`Default`] value).
    pub name: &'static str,
    /// Number of times the phase was entered on this rank.
    pub spans: u64,
    /// Virtual seconds of modelled communication transfer cost.
    pub comm_seconds: f64,
    /// Virtual seconds idle in rendezvous (blocked receive / collective entry).
    pub wait_seconds: f64,
    /// Virtual seconds of modelled computation.
    pub compute_seconds: f64,
    /// Point-to-point messages sent (alltoallv counts per destination).
    pub p2p_sent_msgs: u64,
    /// Point-to-point bytes sent.
    pub p2p_sent_bytes: u64,
    /// Point-to-point messages received.
    pub p2p_recv_msgs: u64,
    /// Point-to-point bytes received.
    pub p2p_recv_bytes: u64,
    /// Collective operations entered.
    pub coll_ops: u64,
    /// Bytes contributed to collective operations.
    pub coll_bytes: u64,
}

impl PhaseStats {
    /// Total virtual seconds attributed to the phase on this rank
    /// (comm + wait + compute — the decomposition is exhaustive).
    pub fn seconds(&self) -> f64 {
        self.comm_seconds + self.wait_seconds + self.compute_seconds
    }

    /// Element-wise sum (keeps `self.name`).
    fn add(&mut self, o: &PhaseStats) {
        self.spans += o.spans;
        self.comm_seconds += o.comm_seconds;
        self.wait_seconds += o.wait_seconds;
        self.compute_seconds += o.compute_seconds;
        self.p2p_sent_msgs += o.p2p_sent_msgs;
        self.p2p_sent_bytes += o.p2p_sent_bytes;
        self.p2p_recv_msgs += o.p2p_recv_msgs;
        self.p2p_recv_bytes += o.p2p_recv_bytes;
        self.coll_ops += o.coll_ops;
        self.coll_bytes += o.coll_bytes;
    }
}

/// The phase record of one rank. Its timeline — when each phase was the
/// innermost open span — is [`crate::Trace::spans`] of a traced world.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfile {
    /// Per-phase aggregates, in order of first entry on this rank.
    pub phases: Vec<PhaseStats>,
}

/// Name under which time and traffic outside any phase span are reported.
pub const UNTAGGED: &str = "(untagged)";

impl PhaseProfile {
    /// The aggregate of a named phase, if it was entered on this rank.
    pub fn get(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Sum over all tagged phases (the `name` of the result is empty).
    pub fn tagged_total(&self) -> PhaseStats {
        let mut t = PhaseStats::default();
        for p in &self.phases {
            t.add(p);
        }
        t
    }

    /// The `(untagged)` remainder: the rank's totals minus everything
    /// attributed to a phase. Floating-point fields are clamped at zero
    /// against rounding.
    pub fn untagged(&self, totals: &RankStats) -> PhaseStats {
        let t = self.tagged_total();
        PhaseStats {
            name: UNTAGGED,
            spans: 0,
            comm_seconds: (totals.comm_seconds - t.comm_seconds).max(0.0),
            wait_seconds: (totals.wait_seconds - t.wait_seconds).max(0.0),
            compute_seconds: (totals.compute_seconds - t.compute_seconds).max(0.0),
            p2p_sent_msgs: totals.p2p_sent_msgs.saturating_sub(t.p2p_sent_msgs),
            p2p_sent_bytes: totals.p2p_sent_bytes.saturating_sub(t.p2p_sent_bytes),
            p2p_recv_msgs: totals.p2p_recv_msgs.saturating_sub(t.p2p_recv_msgs),
            p2p_recv_bytes: totals.p2p_recv_bytes.saturating_sub(t.p2p_recv_bytes),
            coll_ops: totals.coll_ops.saturating_sub(t.coll_ops),
            coll_bytes: totals.coll_bytes.saturating_sub(t.coll_bytes),
        }
    }
}

/// Cross-rank aggregate of one phase: critical path, mean, imbalance and
/// summed traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseAgg {
    /// Phase name (`"(untagged)"` for the remainder row).
    pub name: &'static str,
    /// Spans entered, summed over ranks.
    pub spans: u64,
    /// Critical path: the maximum over ranks of the attributed seconds.
    pub max_seconds: f64,
    /// Mean over ranks of the attributed seconds.
    pub mean_seconds: f64,
    /// Imbalance ratio `max/mean` (1.0 when the mean is zero).
    pub imbalance: f64,
    /// Mean over ranks of the communication seconds.
    pub mean_comm_seconds: f64,
    /// Mean over ranks of the rendezvous-wait seconds.
    pub mean_wait_seconds: f64,
    /// Mean over ranks of the modelled-compute seconds.
    pub mean_compute_seconds: f64,
    /// Point-to-point messages sent, summed over ranks.
    pub p2p_msgs: u64,
    /// Point-to-point bytes sent, summed over ranks.
    pub p2p_bytes: u64,
    /// Collective operations entered, summed over ranks.
    pub coll_ops: u64,
    /// Collective bytes contributed, summed over ranks.
    pub coll_bytes: u64,
}

/// Aggregate per-rank phase profiles into one table row per phase, in order
/// of first appearance (rank-major), with an `"(untagged)"` row last covering
/// everything outside phase spans. `totals` must be the matching per-rank
/// [`RankStats`].
pub fn aggregate_phases(profiles: &[PhaseProfile], totals: &[RankStats]) -> Vec<PhaseAgg> {
    assert_eq!(profiles.len(), totals.len());
    let nranks = profiles.len().max(1) as f64;

    // Stable phase order: first appearance scanning ranks in order.
    let mut order: Vec<&'static str> = Vec::new();
    for prof in profiles {
        for p in &prof.phases {
            if !order.contains(&p.name) {
                order.push(p.name);
            }
        }
    }

    let mut rows = Vec::with_capacity(order.len() + 1);
    let mut make_row = |name: &'static str, per_rank: Vec<PhaseStats>| {
        let spans = per_rank.iter().map(|p| p.spans).sum();
        let max_seconds = per_rank.iter().map(|p| p.seconds()).fold(0.0, f64::max);
        let sum_seconds: f64 = per_rank.iter().map(|p| p.seconds()).sum();
        let mean_seconds = sum_seconds / nranks;
        rows.push(PhaseAgg {
            name,
            spans,
            max_seconds,
            mean_seconds,
            imbalance: if mean_seconds > 0.0 { max_seconds / mean_seconds } else { 1.0 },
            mean_comm_seconds: per_rank.iter().map(|p| p.comm_seconds).sum::<f64>() / nranks,
            mean_wait_seconds: per_rank.iter().map(|p| p.wait_seconds).sum::<f64>() / nranks,
            mean_compute_seconds: per_rank.iter().map(|p| p.compute_seconds).sum::<f64>() / nranks,
            p2p_msgs: per_rank.iter().map(|p| p.p2p_sent_msgs).sum(),
            p2p_bytes: per_rank.iter().map(|p| p.p2p_sent_bytes).sum(),
            coll_ops: per_rank.iter().map(|p| p.coll_ops).sum(),
            coll_bytes: per_rank.iter().map(|p| p.coll_bytes).sum(),
        });
    };

    for name in order {
        let per_rank: Vec<PhaseStats> =
            profiles.iter().map(|prof| prof.get(name).copied().unwrap_or_default()).collect();
        make_row(name, per_rank);
    }
    let untagged: Vec<PhaseStats> =
        profiles.iter().zip(totals).map(|(prof, tot)| prof.untagged(tot)).collect();
    make_row(UNTAGGED, untagged);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(name: &'static str, comm: f64, wait: f64, compute: f64, bytes: u64) -> PhaseStats {
        PhaseStats {
            name,
            spans: 1,
            comm_seconds: comm,
            wait_seconds: wait,
            compute_seconds: compute,
            p2p_sent_bytes: bytes,
            ..Default::default()
        }
    }

    #[test]
    fn untagged_is_total_minus_tagged() {
        let prof = PhaseProfile {
            phases: vec![stats("a", 1.0, 0.5, 2.0, 100), stats("b", 0.5, 0.0, 1.0, 50)],
        };
        let totals = RankStats {
            comm_seconds: 2.0,
            wait_seconds: 0.75,
            compute_seconds: 4.0,
            p2p_sent_bytes: 200,
            ..Default::default()
        };
        let u = prof.untagged(&totals);
        assert!((u.comm_seconds - 0.5).abs() < 1e-12);
        assert!((u.wait_seconds - 0.25).abs() < 1e-12);
        assert!((u.compute_seconds - 1.0).abs() < 1e-12);
        assert_eq!(u.p2p_sent_bytes, 50);
    }

    #[test]
    fn aggregate_computes_critical_path_and_imbalance() {
        let p0 = PhaseProfile { phases: vec![stats("sort", 1.0, 0.0, 1.0, 10)] };
        let p1 = PhaseProfile { phases: vec![stats("sort", 3.0, 1.0, 2.0, 30)] };
        let totals = vec![RankStats::default(), RankStats::default()];
        let rows = aggregate_phases(&[p0, p1], &totals);
        assert_eq!(rows.len(), 2); // sort + (untagged)
        let sort = &rows[0];
        assert_eq!(sort.name, "sort");
        assert_eq!(sort.spans, 2);
        assert!((sort.max_seconds - 6.0).abs() < 1e-12);
        assert!((sort.mean_seconds - 4.0).abs() < 1e-12);
        assert!((sort.imbalance - 1.5).abs() < 1e-12);
        assert_eq!(sort.p2p_bytes, 40);
        assert_eq!(rows[1].name, UNTAGGED);
    }
}
