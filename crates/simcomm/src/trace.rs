//! Communication event tracing: an optional per-rank timeline of every
//! point-to-point and collective operation in virtual time, exportable as
//! CSV for offline analysis (who communicated with whom, when, how much).

use std::io::Write;

/// The kind of a traced communication operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Point-to-point send.
    Send,
    /// Point-to-point receive.
    Recv,
    /// Nonblocking send post (`isend`): covers the CPU-side post overhead;
    /// the payload drains on the NIC afterwards.
    Isend,
    /// Completion of a nonblocking *send* request inside `wait`/`waitall`:
    /// the time spent draining the request (receive completions are
    /// recorded as [`TraceKind::Recv`] instead).
    Wait,
    /// Barrier.
    Barrier,
    /// Broadcast.
    Bcast,
    /// All-reduce / exclusive scan.
    Reduce,
    /// Allgather(v).
    Gather,
    /// All-to-all-v.
    Alltoallv,
    /// The post of a nonblocking all-to-all-v
    /// ([`crate::Comm::ialltoallv_flat`]) whose rank charged something
    /// before its wait: a collective record — the k-th collective record of
    /// each member is one instance, and this one's start is the rank's
    /// arrival. A post waited at once is recorded as
    /// [`TraceKind::Alltoallv`] instead, as the blocking call is.
    Ialltoallv,
    /// The completion of a posted [`TraceKind::Ialltoallv`] in its wait: the
    /// rendezvous wait and the cost left once the rank got there. It
    /// completes the last post on its communicator before it.
    CollWait,
    /// The nonblocking barrier of a sparse data exchange
    /// ([`crate::Comm::sparse_exchange`]): spans from the rank's barrier
    /// entry (all its synchronous sends matched) to the end of its receive
    /// drain. A collective: every rank records one per exchange, so the
    /// latest entry is the rendezvous's last arrival. The messages it carries
    /// are traced separately (`isend`, `wait`, `recv`).
    SparseExchange,
    /// Construction of a persistent communication plan (partner resolution,
    /// route/bin layout, placement permutations). Point-to-point-like: no
    /// collective fan-out.
    PlanBuild,
    /// Execution of payload through a previously built plan. Spans the whole
    /// planned exchange; the individual `isend`/`recv`/`wait` events it is
    /// composed of are traced separately.
    PlanExec,
    /// An injected fault (transient send loss, latency spike, straggler
    /// slowdown or scheduled stall) from the world's
    /// [`crate::FaultPlan`]. The span covers any virtual time the fault
    /// itself consumed (e.g. a stall); losses and spikes are recorded at the
    /// moment of injection with a zero-length span.
    Fault,
    /// A retransmission of a transiently lost send: the span covers the
    /// bounded exponential backoff plus the repeated CPU-side post overhead.
    Retry,
    /// A wait that exceeded the fault plan's timeout threshold: the span
    /// covers the extra re-probe overhead charged for the timeout cycles.
    Timeout,
}

impl TraceKind {
    /// Short stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::Send => "send",
            TraceKind::Recv => "recv",
            TraceKind::Isend => "isend",
            TraceKind::Wait => "wait",
            TraceKind::Barrier => "barrier",
            TraceKind::Bcast => "bcast",
            TraceKind::Reduce => "reduce",
            TraceKind::Gather => "gather",
            TraceKind::Alltoallv => "alltoallv",
            TraceKind::Ialltoallv => "ialltoallv",
            TraceKind::CollWait => "coll_wait",
            TraceKind::SparseExchange => "sparse_exchange",
            TraceKind::PlanBuild => "plan_build",
            TraceKind::PlanExec => "plan_exec",
            TraceKind::Fault => "fault",
            TraceKind::Retry => "retry",
            TraceKind::Timeout => "timeout",
        }
    }
}

/// One traced communication event on one rank.
#[derive(Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// The rank the event occurred on.
    pub rank: usize,
    /// Operation kind.
    pub kind: TraceKind,
    /// Virtual time the operation started.
    pub t_start: f64,
    /// Virtual time the operation completed.
    pub t_end: f64,
    /// Payload bytes (this rank's contribution).
    pub bytes: u64,
    /// Peer rank for point-to-point operations.
    pub peer: Option<usize>,
    /// Size of the communicator the operation ran on: the group's member
    /// count for a group collective, the world size otherwise (lets offline
    /// analysis compute collective fan-out).
    pub nranks: usize,
    /// The group a group collective ran on ([`crate::Group::id`]); `0` for
    /// every other event. Only a group's members record its collectives, so
    /// the k-th record of group `g` on each member belongs to one instance.
    /// In memory only: the CSV form has no column for it.
    pub group: u32,
    /// Name of the innermost open phase when the event was recorded
    /// (see [`crate::Comm::enter_phase`]); empty if none.
    pub phase: &'static str,
    /// Message correlation id: every posted message gets a world-unique
    /// nonzero id, stamped on the sender's `send`/`isend` record, the
    /// receiver's `recv` record, and the sender's `wait` completion record,
    /// so offline analysis can reconstruct the happens-before edges
    /// (send → recv, isend → wait) without guessing by tag. `0` means the
    /// event is not tied to a single message (collectives, plans, faults).
    pub corr: u64,
}

/// The derived rendering, except that `group` shows only on a group
/// collective's record: every other renders as it did before groups
/// existed, so the frozen digests of worlds without groups still hold.
impl std::fmt::Debug for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("TraceEvent");
        d.field("rank", &self.rank)
            .field("kind", &self.kind)
            .field("t_start", &self.t_start)
            .field("t_end", &self.t_end)
            .field("bytes", &self.bytes)
            .field("peer", &self.peer)
            .field("nranks", &self.nranks);
        if self.group != 0 {
            d.field("group", &self.group);
        }
        d.field("phase", &self.phase).field("corr", &self.corr).finish()
    }
}

/// Clock-advance category of a [`ClockSpan`]: which of the three exhaustive
/// accounting buckets (see `docs/OBSERVABILITY.md`) the span was charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanCat {
    /// Modelled computation ([`crate::Comm::advance`]).
    Compute,
    /// Communication cost: overheads, injection, algorithm time.
    Comm,
    /// Rendezvous/idle time waiting on a partner, the NIC, or a fault.
    Wait,
}

impl SpanCat {
    /// Short stable label (`compute`/`comm`/`wait`).
    pub fn label(&self) -> &'static str {
        match self {
            SpanCat::Compute => "compute",
            SpanCat::Comm => "comm",
            SpanCat::Wait => "wait",
        }
    }
}

/// One contiguous stretch of a rank's virtual clock, categorized by the
/// accounting bucket it was charged to. In a traced world every clock advance
/// appends (or extends) a span, so a rank's spans **tile `[0, clock]`
/// exactly** — the span stream is the clock decomposition made explicit,
/// which is what lets the critical-path walk in `simtrace` attribute every
/// instant of the makespan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClockSpan {
    /// Accounting bucket the time was charged to.
    pub cat: SpanCat,
    /// Virtual time the span started.
    pub t_start: f64,
    /// Virtual time the span ended.
    pub t_end: f64,
    /// Innermost open phase while the time accrued; empty if none.
    pub phase: &'static str,
}

/// A per-rank collection of trace events.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in the order they occurred on this rank.
    pub events: Vec<TraceEvent>,
    /// Clock decomposition spans in time order; adjacent same-category
    /// same-phase spans are merged on record. They tile `[0, clock]`.
    pub spans: Vec<ClockSpan>,
}

impl Trace {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        rank: usize,
        kind: TraceKind,
        t_start: f64,
        t_end: f64,
        bytes: u64,
        peer: Option<usize>,
        (nranks, group): (usize, u32),
        phase: &'static str,
        corr: u64,
    ) {
        self.events.push(TraceEvent {
            rank,
            kind,
            t_start,
            t_end,
            bytes,
            peer,
            nranks,
            group,
            phase,
            corr,
        });
    }

    /// Append a clock span, merging it into the previous span when category
    /// and phase match and the spans are contiguous (they always are within
    /// one uninterrupted accounting stretch).
    pub(crate) fn push_span(
        &mut self,
        cat: SpanCat,
        t_start: f64,
        t_end: f64,
        phase: &'static str,
    ) {
        if let Some(last) = self.spans.last_mut() {
            if last.cat == cat && last.phase == phase && last.t_end == t_start {
                last.t_end = t_end;
                return;
            }
        }
        self.spans.push(ClockSpan { cat, t_start, t_end, phase });
    }

    /// Total virtual time covered by events of a kind.
    pub fn time_in(&self, kind: TraceKind) -> f64 {
        self.events.iter().filter(|e| e.kind == kind).map(|e| e.t_end - e.t_start).sum()
    }
}

/// Write traces of all ranks as CSV.
///
/// Columns: `rank,kind,t_start,t_end,bytes,peer,nranks,phase,corr`. The first
/// six are the original schema; `nranks` (communicator size, for collective
/// fan-out), `phase` (innermost phase span name, possibly empty) and `corr`
/// (message correlation id, `0` when not message-bound) were appended later —
/// readers of the old schema keep working, new readers must tolerate their
/// absence in old files. See `docs/OBSERVABILITY.md` for the full grammar.
pub fn write_trace_csv<W: Write>(mut w: W, traces: &[Trace]) -> std::io::Result<()> {
    writeln!(w, "rank,kind,t_start,t_end,bytes,peer,nranks,phase,corr")?;
    for t in traces {
        for e in &t.events {
            writeln!(
                w,
                "{},{},{},{},{},{},{},{},{}",
                e.rank,
                e.kind.label(),
                e.t_start,
                e.t_end,
                e.bytes,
                e.peer.map(|p| p.to_string()).unwrap_or_default(),
                e.nranks,
                e.phase,
                e.corr
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_in_sums_by_kind() {
        let mut t = Trace::default();
        t.record(0, TraceKind::Send, 0.0, 1.0, 8, Some(1), (2, 0), "", 1);
        t.record(0, TraceKind::Recv, 1.0, 3.0, 8, Some(1), (2, 0), "", 2);
        t.record(0, TraceKind::Send, 3.0, 3.5, 8, Some(2), (2, 0), "", 3);
        assert!((t.time_in(TraceKind::Send) - 1.5).abs() < 1e-12);
        assert!((t.time_in(TraceKind::Recv) - 2.0).abs() < 1e-12);
        assert_eq!(t.time_in(TraceKind::Barrier), 0.0);
    }

    #[test]
    fn csv_format() {
        let mut t = Trace::default();
        t.record(3, TraceKind::Alltoallv, 0.5, 0.75, 1024, None, (8, 0), "sort:exchange", 0);
        t.record(3, TraceKind::Send, 0.8, 0.9, 16, Some(1), (8, 0), "", 77);
        let mut buf = Vec::new();
        write_trace_csv(&mut buf, &[t]).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let mut lines = s.lines();
        assert_eq!(lines.next(), Some("rank,kind,t_start,t_end,bytes,peer,nranks,phase,corr"));
        assert_eq!(lines.next(), Some("3,alltoallv,0.5,0.75,1024,,8,sort:exchange,0"));
        assert_eq!(lines.next(), Some("3,send,0.8,0.9,16,1,8,,77"));
    }

    #[test]
    fn spans_merge_when_contiguous_same_category() {
        let mut t = Trace::default();
        t.push_span(SpanCat::Compute, 0.0, 1.0, "a");
        t.push_span(SpanCat::Compute, 1.0, 2.0, "a"); // merges
        t.push_span(SpanCat::Comm, 2.0, 2.5, "a"); // new category
        t.push_span(SpanCat::Comm, 2.5, 3.0, "b"); // new phase
        t.push_span(SpanCat::Comm, 4.0, 4.5, "b"); // gap: no merge
        assert_eq!(
            t.spans,
            vec![
                ClockSpan { cat: SpanCat::Compute, t_start: 0.0, t_end: 2.0, phase: "a" },
                ClockSpan { cat: SpanCat::Comm, t_start: 2.0, t_end: 2.5, phase: "a" },
                ClockSpan { cat: SpanCat::Comm, t_start: 2.5, t_end: 3.0, phase: "b" },
                ClockSpan { cat: SpanCat::Comm, t_start: 4.0, t_end: 4.5, phase: "b" },
            ]
        );
    }
}
