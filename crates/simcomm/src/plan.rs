//! Persistent communication plans: the plan/execute split at the message
//! layer. A [`CommPlan`] freezes the *structure* of a recurring neighbourhood
//! exchange — the partner ranks, the message tag, and the per-partner receive
//! envelopes — once, so that every subsequent timestep only moves payload
//! through the frozen schedule ([`CommPlan::execute_flat`]). This is the
//! simulated analogue of MPI persistent requests (`MPI_Send_init` /
//! `MPI_Start`): partner resolution, argument validation and slot
//! bookkeeping are paid at plan build, not per step.
//!
//! Higher redistribution layers (`atasp` resort plans, the particle-mesh
//! ghost plan, the merge-sort probe plan) build on the same discipline and
//! report through the same counters ([`Comm::note_plan_build`] /
//! [`Comm::note_plan_exec`]), so `commstats` can compute a single plan-reuse
//! rate across all layers.

use std::any::Any;

use crate::world::Comm;
use crate::Work;

/// A frozen persistent schedule for a recurring point-to-point neighbourhood
/// exchange.
///
/// Built once per decomposition epoch with [`Comm::plan_exchange`]; executed
/// every timestep with [`CommPlan::execute_flat`]. The plan owns the sorted
/// partner list (receive buffers come back in partner order with no per-step
/// sort), the tag, and the *size envelopes* of the last execution — the
/// per-partner receive counts, which callers use to pre-size the buffers the
/// received payload is unpacked into.
///
/// Both sides of every partner edge must hold a plan naming each other (the
/// partner relation is symmetric), exactly like
/// [`Comm::neighbor_exchange`].
#[derive(Debug)]
pub struct CommPlan {
    /// Partner ranks, sorted ascending, deduplicated, never the local rank.
    partners: Vec<usize>,
    /// Message tag all executions of this plan use.
    tag: u64,
    /// Elements received from each partner (same order as `partners`) during
    /// the most recent execution; all zeros before the first.
    last_recv_counts: Vec<usize>,
    /// Per partner slot: the envelope the last [`CommPlan::execute_flat`]
    /// received from that partner, with its buffer — the next one refills it
    /// for the way back. In a symmetric exchange what a partner sends is
    /// about what it is sent, so the buffers stop growing after a few steps.
    envelopes: Vec<Box<dyn Any + Send>>,
    /// Byte sizes of the messages of the execution in progress.
    sizes: Vec<u64>,
}

impl Comm {
    /// Build a persistent neighbourhood-exchange plan over `partners`.
    ///
    /// Resolves and freezes the partner list (sorted, deduplicated, the local
    /// rank removed) and charges the one-time schedule-construction cost.
    /// Purely local — no messages are exchanged at build time.
    pub fn plan_exchange(&mut self, mut partners: Vec<usize>, tag: u64) -> CommPlan {
        let t0 = self.clock();
        partners.sort_unstable();
        partners.dedup();
        partners.retain(|&q| q != self.rank());
        for &q in &partners {
            assert!(q < self.size(), "plan_exchange: partner rank {q} out of range");
        }
        let bytes = (partners.len() * std::mem::size_of::<usize>()) as u64;
        self.compute(Work::ByteCopy, bytes as f64);
        self.note_plan_build(t0, bytes);
        let n = partners.len();
        CommPlan {
            partners,
            tag,
            last_recv_counts: vec![0; n],
            // A boxed unit is not an allocation.
            envelopes: (0..n).map(|_| Box::new(()) as Box<dyn Any + Send>).collect(),
            sizes: vec![0; n],
        }
    }
}

impl CommPlan {
    /// The frozen partner ranks, sorted ascending.
    pub fn partners(&self) -> &[usize] {
        &self.partners
    }

    /// The message tag every execution uses.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Size envelope of the most recent execution: elements received from
    /// each partner, in [`CommPlan::partners`] order (all zeros before the
    /// first execution). Callers use the sum to pre-size unpack buffers.
    pub fn last_recv_counts(&self) -> &[usize] {
        &self.last_recv_counts
    }

    /// Execute the plan with this step's payload, with no allocation once the
    /// buffers involved have reached their size. `payload` holds what this
    /// rank sends, partner after partner: `counts[i]` elements go to
    /// `partners()[i]` — one message per partner, empty ones included. On
    /// return `payload` holds what the partners sent, in partner order, and
    /// [`CommPlan::last_recv_counts`] how much came from each.
    ///
    /// All receives are posted nonblocking up front in partner order, then
    /// the sends — to the partners above this rank first, wrapping around to
    /// the rest — and the receives are drained in arrival order: the
    /// messages, costs, statistics and trace events of
    /// [`Comm::neighbor_exchange`], plus one `plan_exec` record — but the
    /// partner resolution, validation and output ordering were paid once at
    /// plan build.
    ///
    /// # Panics
    ///
    /// Panics if `counts` does not hold one count per partner or the counts
    /// do not add up to `payload.len()`.
    pub fn execute_flat<T: Copy + Send + 'static>(
        &mut self,
        comm: &mut Comm,
        payload: &mut Vec<T>,
        counts: &[usize],
    ) {
        assert_eq!(
            counts.len(),
            self.partners.len(),
            "CommPlan::execute_flat: {} counts for {} planned partners",
            counts.len(),
            self.partners.len()
        );
        assert_eq!(
            counts.iter().sum::<usize>(),
            payload.len(),
            "CommPlan::execute_flat: the counts must cover the payload"
        );
        let t0 = comm.clock();
        let mut rest = &payload[..];
        for ((envelope, size), &len) in self.envelopes.iter_mut().zip(&mut self.sizes).zip(counts) {
            let (segment, tail) = rest.split_at(len);
            rest = tail;
            match envelope.downcast_mut::<Vec<T>>() {
                Some(buf) => {
                    buf.clear();
                    buf.extend_from_slice(segment);
                }
                None => *envelope = Box::new(segment.to_vec()),
            }
            *size = std::mem::size_of_val(segment) as u64;
        }
        comm.exchange_envelopes(&self.partners, self.tag, &mut self.envelopes, &self.sizes);
        payload.clear();
        for (slot, envelope) in self.envelopes.iter().enumerate() {
            let got = envelope.downcast_ref::<Vec<T>>().unwrap_or_else(|| {
                panic!("recv type mismatch (src {}, tag {})", self.partners[slot], self.tag)
            });
            payload.extend_from_slice(got);
            self.last_recv_counts[slot] = got.len();
        }
        comm.note_plan_exec(t0, self.sizes.iter().sum());
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, MachineModel, Runner, TraceKind, WorldError};

    /// Ring neighbourhood of one rank on each side.
    fn ring(me: usize, p: usize) -> Vec<usize> {
        let mut v = vec![(me + 1) % p, (me + p - 1) % p];
        v.retain(|&q| q != me);
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn plan_execute_matches_neighbor_exchange() {
        let out = run(6, MachineModel::juropa_like(), |comm| {
            let (me, p) = (comm.rank(), comm.size());
            let partners = ring(me, p);
            let payload = |q: usize| -> Vec<u64> { vec![(me * 100 + q) as u64; 3] };
            let adhoc: Vec<(usize, Vec<u64>)> = comm.neighbor_exchange(
                &partners,
                partners.iter().map(|&q| (q, payload(q))).collect(),
                7,
            );
            let mut plan = comm.plan_exchange(partners.clone(), 7);
            let counts = vec![3; partners.len()];
            let mut planned = Vec::new();
            for _ in 0..2 {
                let mut flat: Vec<u64> = partners.iter().flat_map(|&q| payload(q)).collect();
                plan.execute_flat(comm, &mut flat, &counts);
                planned.push(flat);
            }
            let got: Vec<usize> = adhoc.iter().map(|(_, b)| b.len()).collect();
            assert_eq!(plan.last_recv_counts(), &got[..]);
            (adhoc, planned)
        });
        for (adhoc, planned) in out.results {
            let expect: Vec<u64> = adhoc.into_iter().flat_map(|(_, b)| b).collect();
            assert_eq!(planned[0], expect, "planned exchange must match ad-hoc exchange");
            assert_eq!(planned[1], expect, "re-execution must be repeatable");
        }
    }

    #[test]
    fn plan_counters_and_trace_kinds() {
        let out = Runner::default().traced(true).run(4, MachineModel::ideal(), |comm| {
            let (me, p) = (comm.rank(), comm.size());
            let mut plan = comm.plan_exchange(ring(me, p), 1);
            for _ in 0..5 {
                let mut payload: Vec<u32> = plan.partners().iter().map(|&q| q as u32).collect();
                let counts = vec![1; payload.len()];
                plan.execute_flat(comm, &mut payload, &counts);
            }
            (comm.stats().plan_builds, comm.stats().plan_execs)
        });
        for (r, &(builds, execs)) in out.results.iter().enumerate() {
            assert_eq!((builds, execs), (1, 5), "rank {r} counters");
            let t = &out.traces[r];
            assert_eq!(t.events.iter().filter(|e| e.kind == TraceKind::PlanBuild).count(), 1);
            assert_eq!(t.events.iter().filter(|e| e.kind == TraceKind::PlanExec).count(), 5);
            assert_eq!(out.stats[r].plan_builds, 1);
            assert_eq!(out.stats[r].plan_execs, 5);
        }
    }

    #[test]
    fn plan_normalizes_partner_list() {
        let out = run(2, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let other = 1 - me;
            // Unsorted, duplicated, self-including list is normalized at build.
            let plan = comm.plan_exchange(vec![other, me, other], 3);
            plan.partners().to_vec()
        });
        assert_eq!(out.results[0], vec![1]);
        assert_eq!(out.results[1], vec![0]);
    }

    #[test]
    fn plan_rejects_a_partner_outside_the_world() {
        // Rank 0 plans a partner past the end of the world while rank 1
        // waits for a message from it: the plan's range check fails rank 0
        // (not an index panic deeper in), and the poison wakes rank 1 (not a
        // deadlock).
        let err = Runner::default()
            .try_run(2, MachineModel::ideal(), |comm| {
                let partner = if comm.rank() == 0 { 3 } else { 0 };
                let mut plan = comm.plan_exchange(vec![partner], 0);
                let mut payload = vec![comm.rank() as u64];
                plan.execute_flat(comm, &mut payload, &[1]);
            })
            .err()
            .expect("a partner outside the world must fail the world");
        match err {
            WorldError::RankPanic { rank: 0, ref message } => assert!(
                message.contains("plan_exchange: partner rank 3 out of range"),
                "unexpected message: {err}"
            ),
            other => panic!("expected rank 0's plan panic, got {other}"),
        }
    }
}
