//! Where a rank's virtual time and traffic are booked: the totals
//! ([`RankStats`]), the innermost phase and the trace, with the fault plan's
//! charges and the buffer pool's counters.

use crate::model::Work;
use crate::phase::PhaseStats;
use crate::trace::{SpanCat, TraceKind};

use super::Comm;

/// Per-rank accumulated statistics (virtual-time and traffic accounting).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankStats {
    /// Point-to-point messages sent.
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
    /// Virtual seconds spent in modelled computation.
    pub compute_seconds: f64,
    /// Virtual seconds spent in communication transfer cost (p2p overhead and
    /// injection, modelled collective algorithm cost).
    pub comm_seconds: f64,
    /// Virtual seconds spent idle in rendezvous: blocked on a message that had
    /// not arrived yet, or waiting for the last participant of a collective.
    pub wait_seconds: f64,
    /// Persistent communication plans built (or rebuilt) on this rank
    /// (see [`Comm::note_plan_build`]).
    pub plan_builds: u64,
    /// Executions of payload through previously built plans
    /// (see [`Comm::note_plan_exec`]).
    pub plan_execs: u64,
    /// Faults injected on this rank (lost sends, latency spikes, the
    /// straggler slowdown, a scheduled stall) — see [`crate::FaultPlan`].
    pub faults_injected: u64,
    /// Retransmissions of transiently lost sends.
    pub retries: u64,
    /// Wait-timeout cycles (waits exceeding the plan's timeout threshold).
    pub timeouts: u64,
    /// Scheduled stalls that fired on this rank (0 or 1 per run).
    pub stalls: u64,
    /// Bytes of message-buffer capacity served from this rank's buffer
    /// arena instead of the allocator (see [`Comm::buf_acquire`]).
    /// Pure memory accounting — never affects virtual time.
    pub bytes_reused: u64,
    /// Bytes of message-buffer capacity newly allocated (or grown) because
    /// the pool could not cover an acquisition. Steady-state exchanges drive
    /// this to zero after warm-up.
    pub bytes_grown: u64,
}

impl RankStats {
    /// Total virtual seconds accounted for
    /// (compute + comm + wait — the decomposition of the clock is exhaustive).
    pub fn total_seconds(&self) -> f64 {
        self.compute_seconds + self.comm_seconds + self.wait_seconds
    }
}

impl Comm {
    /// Advance this rank's clock by `seconds` of (externally measured or
    /// modelled) computation. On a straggler rank (see
    /// [`FaultPlan::straggler_ranks`](crate::FaultPlan::straggler_ranks)) the
    /// time is inflated by the plan's factor.
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot advance time backwards");
        let seconds = if self.fault_straggler {
            let t0 = self.clock;
            let inflated = seconds * self.shared.fault.straggler_factor;
            if !self.fault_straggler_noted && inflated > seconds {
                self.fault_straggler_noted = true;
                self.stats.faults_injected += 1;
                self.trace_event(TraceKind::Fault, t0, 0, None);
            }
            inflated
        } else {
            seconds
        };
        self.charge(SpanCat::Compute, seconds);
    }

    /// Advance this rank's clock by the modelled time of `units` operations of
    /// the given [`Work`] kind.
    pub fn compute(&mut self, kind: Work, units: f64) {
        let dt = self.shared.model.work_time(kind, units);
        self.advance(dt);
    }

    // --------------------------------------------------------------- phases

    /// Open a named phase span. Phases nest as a stack; until the matching
    /// [`Comm::exit_phase`], all time and traffic are attributed to this phase
    /// (the innermost open span), and trace events are tagged with its name.
    ///
    /// Phase names should be `'static` string literals; the same name may be
    /// entered any number of times and accumulates into one per-rank bucket.
    pub fn enter_phase(&mut self, name: &'static str) {
        self.phase_stack.push(name);
        self.bucket(name).spans += 1;
    }

    /// Close the innermost open phase span.
    ///
    /// # Panics
    ///
    /// Panics if no phase is open.
    pub fn exit_phase(&mut self) {
        assert!(!self.phase_stack.is_empty(), "exit_phase without matching enter_phase");
        self.phase_stack.pop();
    }
    /// Run `f` inside a phase span (enter/exit pair).
    pub fn with_phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter_phase(name);
        let r = f(self);
        self.exit_phase();
        r
    }

    /// Find-or-insert the per-rank bucket of a phase.
    fn bucket(&mut self, name: &'static str) -> &mut PhaseStats {
        let phases = &mut self.profile.phases;
        if let Some(i) = phases.iter().position(|p| p.name == name) {
            &mut phases[i]
        } else {
            phases.push(PhaseStats { name, ..Default::default() });
            phases.last_mut().expect("just pushed")
        }
    }

    /// The bucket of the innermost open phase, if any.
    fn top_bucket(&mut self) -> Option<&mut PhaseStats> {
        let name = *self.phase_stack.last()?;
        Some(self.bucket(name))
    }

    // ----------------------------------------------------------- accounting

    /// Record a trace event if tracing is enabled, tagged with the current
    /// phase and the communicator size.
    pub(super) fn trace_event(
        &mut self,
        kind: TraceKind,
        t_start: f64,
        bytes: u64,
        peer: Option<usize>,
    ) {
        self.trace_event_corr(kind, t_start, bytes, peer, 0);
    }

    /// [`Comm::trace_event`] with a message correlation id (see
    /// [`crate::TraceEvent::corr`]); `0` means not message-bound.
    pub(super) fn trace_event_corr(
        &mut self,
        kind: TraceKind,
        t_start: f64,
        bytes: u64,
        peer: Option<usize>,
        corr: u64,
    ) {
        self.trace_record(kind, t_start, bytes, peer, (self.shared.n, 0), corr);
    }

    /// Record a trace event of the communicator `(size, group id)`.
    pub(super) fn trace_record(
        &mut self,
        kind: TraceKind,
        t_start: f64,
        bytes: u64,
        peer: Option<usize>,
        communicator: (usize, u32),
        corr: u64,
    ) {
        let t_end = self.clock;
        let phase = self.phase_stack.last().copied().unwrap_or("");
        if let Some(tr) = self.trace.as_mut() {
            tr.record(self.rank, kind, t_start, t_end, bytes, peer, communicator, phase, corr);
        }
    }

    /// Advance the clock by `seconds` of `cat` time, booked to the rank's
    /// totals, to the innermost open phase and, in a traced world, as the
    /// clock span it covers. Every clock advance goes through here, so the
    /// spans tile `[0, clock]` — the exhaustive decomposition, as a timeline
    /// (see [`crate::ClockSpan`]).
    pub(super) fn charge(&mut self, cat: SpanCat, seconds: f64) {
        debug_assert!(seconds >= 0.0, "cannot advance time backwards");
        let t0 = self.clock;
        self.clock += seconds;
        match cat {
            SpanCat::Compute => self.stats.compute_seconds += seconds,
            SpanCat::Comm => self.stats.comm_seconds += seconds,
            SpanCat::Wait => self.stats.wait_seconds += seconds,
        }
        if let Some(b) = self.top_bucket() {
            match cat {
                SpanCat::Compute => b.compute_seconds += seconds,
                SpanCat::Comm => b.comm_seconds += seconds,
                SpanCat::Wait => b.wait_seconds += seconds,
            }
        }
        if self.clock > t0 {
            if let Some(tr) = self.trace.as_mut() {
                let phase = self.phase_stack.last().copied().unwrap_or("");
                tr.push_span(cat, t0, self.clock, phase);
            }
        }
    }

    pub(super) fn count_p2p_sent(&mut self, msgs: u64, bytes: u64) {
        self.stats.p2p_sent_msgs += msgs;
        self.stats.p2p_sent_bytes += bytes;
        if let Some(b) = self.top_bucket() {
            b.p2p_sent_msgs += msgs;
            b.p2p_sent_bytes += bytes;
        }
    }

    pub(super) fn count_p2p_recv(&mut self, msgs: u64, bytes: u64) {
        self.stats.p2p_recv_msgs += msgs;
        self.stats.p2p_recv_bytes += bytes;
        if let Some(b) = self.top_bucket() {
            b.p2p_recv_msgs += msgs;
            b.p2p_recv_bytes += bytes;
        }
    }

    /// Account the construction (or rebuild) of a persistent communication
    /// plan: bumps the plan-build counter and records a `plan_build` trace
    /// span from `t_start` to the current clock. `bytes` is the size of the
    /// frozen schedule (route tables, permutations), as a volume hint for
    /// offline analysis. Plan layers above `simcomm` (resort plans, ghost
    /// plans, sort plans) call this too, so plan-reuse rates aggregate across
    /// all redistribution layers.
    pub fn note_plan_build(&mut self, t_start: f64, bytes: u64) {
        self.stats.plan_builds += 1;
        self.trace_event(TraceKind::PlanBuild, t_start, bytes, None);
    }

    /// Account one execution of payload through a previously built plan:
    /// bumps the plan-exec counter and records a `plan_exec` trace span from
    /// `t_start` to the current clock covering the whole planned exchange
    /// (`bytes` = payload routed through the plan).
    pub fn note_plan_exec(&mut self, t_start: f64, bytes: u64) {
        self.stats.plan_execs += 1;
        self.trace_event(TraceKind::PlanExec, t_start, bytes, None);
    }

    pub(super) fn count_coll(&mut self, ops: u64, bytes: u64) {
        self.stats.coll_ops += ops;
        self.stats.coll_bytes += bytes;
        if let Some(b) = self.top_bucket() {
            b.coll_ops += ops;
            b.coll_bytes += bytes;
        }
    }

    // -------------------------------------------------------------- faults

    /// One tick of the communication-operation clock that drives the
    /// scheduled stall: called on every send post, receive completion and
    /// collective entry. Fires the plan's one-shot stall when its trigger
    /// count is reached, charging the stall as rendezvous wait.
    pub(super) fn fault_op_tick(&mut self) {
        if !self.shared.fault_active {
            return;
        }
        self.fault_ops += 1;
        if self.fault_stall_fired {
            return;
        }
        let Some(stall) = self.shared.fault.stall else { return };
        if stall.rank == self.rank && self.fault_ops >= stall.after_ops {
            self.fault_stall_fired = true;
            let t0 = self.clock;
            self.charge(SpanCat::Wait, stall.seconds.max(0.0));
            self.stats.faults_injected += 1;
            self.stats.stalls += 1;
            self.trace_event(TraceKind::Fault, t0, 0, None);
        }
    }

    /// Timeout semantics of a completed wait: a rendezvous wait of
    /// `wait_secs` that exceeds the plan's threshold charges one re-probe
    /// overhead per elapsed timeout cycle (bounded by `max_retries`) and
    /// counts the cycles.
    pub(super) fn fault_timeout_check(&mut self, wait_secs: f64, peer: Option<usize>) {
        if !self.shared.fault_active {
            return;
        }
        let Some(threshold) = self.shared.fault.wait_timeout_seconds else { return };
        if threshold <= 0.0 || wait_secs <= threshold {
            return;
        }
        let cycles =
            ((wait_secs / threshold) as u64).min(self.shared.fault.max_retries.max(1) as u64);
        let t0 = self.clock;
        self.charge(SpanCat::Comm, cycles as f64 * self.shared.model.p2p_overhead);
        self.stats.timeouts += cycles;
        self.trace_event(TraceKind::Timeout, t0, 0, peer);
    }

    // ---------------------------------------------------------- buffer pool

    /// Acquire a reusable send/receive byte buffer for `partner` with
    /// capacity for `bytes` (length 0). Capacity served from the pool is
    /// counted in [`RankStats::bytes_reused`]; capacity the allocator had to
    /// provide in [`RankStats::bytes_grown`]. Pooling is memory management
    /// only: it never affects virtual time.
    pub fn buf_acquire(&mut self, partner: usize, bytes: usize) -> Vec<u8> {
        let (buf, reused, grown) = self.pool.acquire(partner, bytes);
        self.stats.bytes_reused += reused;
        self.stats.bytes_grown += grown;
        buf
    }

    /// Return a buffer to `partner`'s pool slot — typically a buffer that
    /// just arrived *from* `partner`, which closes the reuse loop of a
    /// symmetric exchange: every buffer shipped out is replaced by one
    /// shipped in.
    pub fn buf_release(&mut self, partner: usize, buf: Vec<u8>) {
        self.pool.release(partner, buf);
    }

    /// Borrow the rank's two reusable `(partner, buffer)` scratch vectors,
    /// cleared. Higher layers (e.g. `atasp`'s byte-plane resort) stage their
    /// per-partner send and receive buffers in these so a steady-state
    /// exchange performs no heap allocation. Return them with
    /// [`Comm::put_byte_pairs`] when the exchange is done (contents are
    /// dropped, so release any buffers to the pool first).
    #[allow(clippy::type_complexity)]
    pub fn take_byte_pairs(&mut self) -> (Vec<(usize, Vec<u8>)>, Vec<(usize, Vec<u8>)>) {
        let mut a = std::mem::take(&mut self.byte_pairs_a);
        let mut b = std::mem::take(&mut self.byte_pairs_b);
        a.clear();
        b.clear();
        (a, b)
    }

    /// Return the pair scratch vectors taken with [`Comm::take_byte_pairs`].
    pub fn put_byte_pairs(&mut self, a: Vec<(usize, Vec<u8>)>, b: Vec<(usize, Vec<u8>)>) {
        self.byte_pairs_a = a;
        self.byte_pairs_b = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, StallSpec};
    use crate::{run, MachineModel, Runner};

    #[test]
    fn tracing_records_events_in_order() {
        let out = Runner::default().traced(true).run(2, MachineModel::juropa_like(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 64]);
            } else {
                let _ = comm.recv::<u8>(0, 0);
            }
            comm.barrier();
            let _ = comm.allreduce(1u32, |a, b| a + b);
            let _ = comm.alltoallv(vec![((comm.rank() + 1) % 2, vec![1u8, 2])]);
        });
        assert_eq!(out.traces.len(), 2);
        let kinds0: Vec<crate::trace::TraceKind> =
            out.traces[0].events.iter().map(|e| e.kind).collect();
        use crate::trace::TraceKind::*;
        assert_eq!(kinds0, vec![Send, Barrier, Reduce, Alltoallv]);
        let kinds1: Vec<crate::trace::TraceKind> =
            out.traces[1].events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds1, vec![Recv, Barrier, Reduce, Alltoallv]);
        for t in &out.traces {
            for e in &t.events {
                assert!(e.t_end >= e.t_start, "{e:?}");
            }
            // Events are time-ordered per rank.
            for w in t.events.windows(2) {
                assert!(w[1].t_start >= w[0].t_start - 1e-12);
            }
        }
        // The send carried 64 bytes to rank 1.
        let send = &out.traces[0].events[0];
        assert_eq!(send.bytes, 64);
        assert_eq!(send.peer, Some(1));
        // Untraced runs produce empty traces.
        let out2 = run(2, MachineModel::ideal(), |comm| comm.barrier());
        assert!(out2.traces.iter().all(|t| t.events.is_empty()));
    }

    #[test]
    fn stats_account_traffic() {
        let out = run(2, MachineModel::juropa_like(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 100]);
            } else {
                let _ = comm.recv::<u8>(0, 0);
            }
            comm.barrier();
            comm.stats().clone()
        });
        assert_eq!(out.results[0].p2p_sent_bytes, 100);
        assert_eq!(out.results[1].p2p_recv_bytes, 100);
        assert_eq!(out.results[0].coll_ops, 1);
    }

    #[test]
    fn clock_decomposition_is_exhaustive() {
        // compute + comm + wait must account for every advanced second, on
        // every rank, across p2p, barriers, gathers and alltoallv.
        let out = run(4, MachineModel::juropa_like(), |comm| {
            comm.compute(Work::ParticleOp, 500.0 * (comm.rank() + 1) as f64);
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 256]);
            }
            if comm.rank() == 1 {
                let _ = comm.recv::<u8>(0, 0);
            }
            comm.barrier();
            let _ = comm.allgatherv(vec![0u8; comm.rank() * 8]);
            let _ = comm.alltoallv(vec![((comm.rank() + 1) % 4, vec![1u32, 2])]);
            comm.stats().clone()
        });
        for (r, st) in out.results.iter().enumerate() {
            assert!(
                (st.total_seconds() - out.clocks[r]).abs() <= 1e-9 * out.clocks[r].max(1.0),
                "rank {r}: {} vs clock {}",
                st.total_seconds(),
                out.clocks[r]
            );
        }
        // The fastest rank before the barrier must have waited for the others.
        assert!(out.results[0].wait_seconds > 0.0);
    }

    #[test]
    fn phase_aggregates_sum_to_untagged_totals() {
        let out = run(4, MachineModel::juropa_like(), |comm| {
            comm.enter_phase("sort");
            comm.compute(Work::SortCmp, 1000.0);
            let _ = comm.allreduce(comm.rank() as u64, u64::max);
            comm.exit_phase();
            // Untagged section.
            comm.compute(Work::ParticleOp, 100.0);
            comm.barrier();
            comm.with_phase("exchange", |c| {
                let _ = c.alltoallv(vec![((c.rank() + 1) % 4, vec![0u8; 64])]);
            });
        });
        for r in 0..4 {
            let prof = &out.phases[r];
            let tot = &out.stats[r];
            let tagged = prof.tagged_total();
            let un = prof.untagged(tot);
            // Seconds: tagged + untagged == total clock.
            assert!((tagged.seconds() + un.seconds() - out.clocks[r]).abs() <= 1e-9, "rank {r}");
            // Bytes and counters partition the totals.
            assert_eq!(tagged.p2p_sent_bytes + un.p2p_sent_bytes, tot.p2p_sent_bytes);
            assert_eq!(tagged.coll_ops + un.coll_ops, tot.coll_ops);
            assert_eq!(tagged.coll_bytes + un.coll_bytes, tot.coll_bytes);
            // The alltoallv traffic landed in the "exchange" phase.
            assert_eq!(prof.get("exchange").unwrap().p2p_sent_bytes, 64);
            assert!(prof.get("sort").unwrap().compute_seconds > 0.0);
        }
        let table = out.phase_table();
        let names: Vec<&str> = table.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["sort", "exchange", crate::phase::UNTAGGED]);
        // Aggregated mean phase seconds sum to the mean clock.
        let mean_clock: f64 = out.clocks.iter().sum::<f64>() / 4.0;
        let sum_means: f64 = table.iter().map(|r| r.mean_seconds).sum();
        assert!((sum_means - mean_clock).abs() <= 1e-9);
    }

    #[test]
    fn nested_phases_attribute_to_innermost() {
        let out = run(2, MachineModel::ideal(), |comm| {
            comm.enter_phase("outer");
            comm.advance(1.0);
            comm.enter_phase("inner");
            comm.advance(2.0);
            comm.exit_phase();
            comm.advance(0.5);
            comm.exit_phase();
            comm.phase_profile().clone()
        });
        for prof in &out.results {
            assert!((prof.get("outer").unwrap().compute_seconds - 1.5).abs() < 1e-12);
            assert!((prof.get("inner").unwrap().compute_seconds - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phase_spans_are_ordered_and_tile_the_clock() {
        let out = Runner::default().traced(true).run(3, MachineModel::juropa_like(), |comm| {
            for step in 0..5 {
                comm.enter_phase("a");
                comm.compute(Work::ParticleOp, (50 * (step + comm.rank() + 1)) as f64);
                comm.enter_phase("b");
                comm.barrier();
                comm.exit_phase();
                comm.exit_phase();
                let _ = comm.allgather(comm.rank());
            }
        });
        for (r, trace) in out.traces.iter().enumerate() {
            let spans = &trace.spans;
            for phase in ["a", "b", ""] {
                assert!(spans.iter().any(|s| s.phase == phase), "rank {r}: no {phase:?} span");
            }
            for s in spans {
                assert!(s.t_end > s.t_start, "rank {r}: {s:?}");
            }
            // Each span starts where the last one ended, from 0 to the clock.
            assert_eq!(spans[0].t_start, 0.0, "rank {r}");
            for w in spans.windows(2) {
                assert_eq!(w[1].t_start, w[0].t_end, "rank {r}: {w:?}");
            }
            assert_eq!(spans[spans.len() - 1].t_end, out.clocks[r], "rank {r}");
        }
    }

    #[test]
    fn open_phases_are_closed_at_rank_exit() {
        let out = run(2, MachineModel::ideal(), |comm| {
            comm.enter_phase("left-open");
            comm.advance(1.0);
        });
        for prof in &out.phases {
            assert!((prof.get("left-open").unwrap().compute_seconds - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn trace_events_carry_phase_and_nranks() {
        let out = Runner::default().traced(true).run(2, MachineModel::juropa_like(), |comm| {
            comm.with_phase("p", |c| {
                if c.rank() == 0 {
                    c.send(1, 0, vec![0u8; 8]);
                } else {
                    let _ = c.recv::<u8>(0, 0);
                }
                c.barrier();
            });
            let _ = comm.allreduce(1u32, |a, b| a + b);
        });
        for tr in &out.traces {
            for e in &tr.events {
                assert_eq!(e.nranks, 2);
            }
            let phases: Vec<&str> = tr.events.iter().map(|e| e.phase).collect();
            assert_eq!(phases, vec!["p", "p", ""]);
        }
    }

    /// A p2p + collective workload used by the fault-injection tests.
    fn fault_workload(comm: &mut Comm) -> (Vec<u64>, RankStats) {
        let r = comm.rank();
        let n = comm.size();
        comm.compute(Work::ParticleOp, 200.0 * (r + 1) as f64);
        let partners: Vec<usize> = vec![(r + 1) % n, (r + n - 1) % n];
        let mut partners = partners;
        partners.sort_unstable();
        partners.dedup();
        partners.retain(|&q| q != r);
        let data: Vec<(usize, Vec<u64>)> =
            partners.iter().map(|&q| (q, vec![(r * 100 + q) as u64; 8])).collect();
        let got = comm.neighbor_exchange(&partners, data, 3);
        let mut flat: Vec<u64> = got.into_iter().flat_map(|(_, b)| b).collect();
        flat.push(comm.allreduce(r as u64, |a, b| a + b));
        comm.barrier();
        (flat, comm.stats().clone())
    }

    #[test]
    fn faulted_run_is_deterministic_and_fully_accounted() {
        let plan = || FaultPlan {
            seed: 42,
            send_loss_prob: 0.4,
            max_retries: 3,
            retry_backoff_seconds: 2e-6,
            latency_spike_prob: 0.3,
            latency_spike_seconds: 30e-6,
            straggler_ranks: vec![1],
            straggler_factor: 2.0,
            wait_timeout_seconds: Some(1e-6),
            ..FaultPlan::none()
        };
        let run_once = || {
            Runner::default().faulted(plan()).run(6, MachineModel::juropa_like(), fault_workload)
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a.clocks, b.clocks, "faulted clocks must be reproducible");
        for r in 0..6 {
            assert_eq!(a.results[r].0, b.results[r].0, "rank {r} data");
            assert_eq!(a.results[r].1, b.results[r].1, "rank {r} stats");
            // The clock decomposition stays exhaustive under injection: every
            // fault charge goes through comm or wait accounting.
            let st = &a.stats[r];
            assert!(
                (st.total_seconds() - a.clocks[r]).abs() <= 1e-9 * a.clocks[r].max(1.0),
                "rank {r}: {} vs clock {}",
                st.total_seconds(),
                a.clocks[r]
            );
        }
        let faults: u64 = a.stats.iter().map(|s| s.faults_injected).sum();
        let retries: u64 = a.stats.iter().map(|s| s.retries).sum();
        assert!(faults > 0, "p=0.4 loss and p=0.3 spike must inject something");
        assert!(retries > 0, "lost sends must be retransmitted");
    }

    #[test]
    fn faults_never_change_data() {
        let clean = run(6, MachineModel::juqueen_like(), fault_workload);
        let plan = FaultPlan {
            seed: 7,
            send_loss_prob: 0.5,
            retry_backoff_seconds: 1e-6,
            latency_spike_prob: 0.5,
            latency_spike_seconds: 50e-6,
            straggler_ranks: vec![0, 3],
            straggler_factor: 3.0,
            stall: Some(StallSpec { rank: 2, after_ops: 3, seconds: 1e-3 }),
            wait_timeout_seconds: Some(1e-6),
            ..FaultPlan::none()
        };
        let faulted =
            Runner::default().faulted(plan).run(6, MachineModel::juqueen_like(), fault_workload);
        for r in 0..6 {
            assert_eq!(clean.results[r].0, faulted.results[r].0, "rank {r} payloads must match");
        }
        assert!(faulted.makespan() > clean.makespan(), "faults must cost time");
    }

    #[test]
    fn inert_fault_plan_matches_run_exactly() {
        let clean = run(4, MachineModel::juropa_like(), fault_workload);
        let inert = Runner::default().faulted(FaultPlan::none()).run(
            4,
            MachineModel::juropa_like(),
            fault_workload,
        );
        assert_eq!(clean.clocks, inert.clocks);
        for r in 0..4 {
            assert_eq!(clean.results[r].0, inert.results[r].0);
            assert_eq!(clean.results[r].1, inert.results[r].1);
            assert_eq!(clean.stats[r], inert.stats[r]);
        }
    }

    #[test]
    fn stall_fires_once_and_is_charged_as_wait() {
        let plan = FaultPlan {
            seed: 1,
            stall: Some(StallSpec { rank: 1, after_ops: 2, seconds: 0.5 }),
            ..FaultPlan::none()
        };
        let out =
            Runner::default().traced(true).faulted(plan).run(3, MachineModel::ideal(), |comm| {
                for _ in 0..4 {
                    comm.barrier();
                }
                comm.stats().clone()
            });
        assert_eq!(out.results[1].stalls, 1, "the stall is one-shot");
        assert_eq!(out.results[0].stalls + out.results[2].stalls, 0);
        assert!(out.results[1].wait_seconds >= 0.5, "stall charged as wait");
        let fault_events =
            out.traces[1].events.iter().filter(|e| e.kind == TraceKind::Fault).count();
        assert_eq!(fault_events, 1);
        // Everyone syncs behind the stalled rank at the next barrier.
        assert!(out.clocks.iter().all(|&c| c >= 0.5));
    }

    #[test]
    fn timeouts_are_counted_and_traced() {
        // Rank 0 delays its send by a long compute; rank 1's wait then blows
        // through the 1 µs timeout threshold.
        let plan = FaultPlan { seed: 3, wait_timeout_seconds: Some(1e-6), ..FaultPlan::none() };
        let out = Runner::default().traced(true).faulted(plan).run(
            2,
            MachineModel::juropa_like(),
            |comm| {
                if comm.rank() == 0 {
                    comm.advance(1.0);
                    comm.send(1, 0, vec![9u8]);
                } else {
                    let _ = comm.recv::<u8>(0, 0);
                }
                comm.stats().clone()
            },
        );
        assert!(out.results[1].timeouts > 0, "the long wait must count timeout cycles");
        assert!(out.traces[1].events.iter().any(|e| e.kind == TraceKind::Timeout));
        let st = &out.results[1];
        assert!((st.total_seconds() - out.clocks[1]).abs() <= 1e-9 * out.clocks[1].max(1.0));
    }
}
