//! Happens-before analysis over `simcomm` traces.
//!
//! A traced run (see [`simcomm::Runner::traced`]) yields, per rank, a stream
//! of [`TraceEvent`]s (operations) and [`ClockSpan`]s (the exhaustive
//! comm/wait/compute clock decomposition as a timeline). This crate
//! reconstructs the causal structure between them and answers the question
//! the aggregate statistics cannot: *which rank, and which message, holds the
//! makespan hostage?*
//!
//! The happens-before edges come from three sources:
//!
//! * **send → recv**: every posted message carries a world-unique correlation
//!   id ([`TraceEvent::corr`]), stamped on the sender's `send`/`isend` record
//!   and the receiver's `recv` record;
//! * **isend → wait**: a send request's completion (`wait` record) carries
//!   the same correlation id as its post;
//! * **collective barrier edges**: all ranks enter collectives in the same
//!   order (SPMD), so the k-th collective record of every rank belongs to the
//!   same instance, and the instance's rendezvous is pinned on its
//!   last-arriving rank. A group's collectives ([`TraceEvent::group`]) are
//!   counted apart: the k-th record of group `g` on each of its members —
//!   the ranks that record any — is one instance, pinned on its
//!   last-arriving member. A sparse data exchange is one of them: its
//!   `sparse_exchange` record starts where the rank entered the exchange's
//!   barrier, its messages are ordinary `isend` / `wait` / `recv` records.
//!   So is a nonblocking all-to-all-v whose rank computed between post and
//!   wait: its `ialltoallv` post record is the instance's arrival, and its
//!   `coll_wait` completion record — the last post on the same
//!   communicator before it — is where the rank waits, blamed on the last
//!   member to post.
//!
//! [`analyze`] walks the clock-span timeline **backward from the makespan**,
//! following these edges whenever it lands in a wait span, and produces:
//!
//! * the **critical path**: a chain of segments tiling `[0, makespan]`
//!   exactly, each attributed to one rank and one of comm/wait/compute —
//!   extending the per-rank accounting invariant (comm + wait + compute ==
//!   clock) to the cross-rank makespan;
//! * **wait-blame attribution**: every wait span on every rank is charged to
//!   the partner whose lateness caused it (the late sender, the
//!   last-arriving collective participant, or the rank itself for NIC drain
//!   and injected faults), aggregated into a per-rank-pair blame matrix and
//!   a per-phase wait heatmap.
//!
//! Because traces are a pure function of the program (see simcomm's
//! determinism contract), so is every number this crate computes. [`perfetto`] exports the same traces as
//! Chrome/Perfetto JSON for ui.perfetto.dev.

// No result of this crate may depend on `RandomState`: nothing outside tests
// iterates a hash container.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

use std::collections::{BTreeMap, HashMap};

use simcomm::{ClockSpan, SpanCat, Trace, TraceEvent, TraceKind};

pub mod perfetto;

pub use perfetto::write_perfetto;

/// Category of a critical-path segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegCat {
    /// Communication cost on the owning rank (overheads, injection,
    /// collective algorithm time) or a message in flight on the wire.
    Comm,
    /// Rendezvous idle time, blamed on a partner (or the rank itself).
    Wait,
    /// Modelled computation.
    Compute,
}

impl SegCat {
    /// Short stable label (`comm`/`wait`/`compute`).
    pub fn label(&self) -> &'static str {
        match self {
            SegCat::Comm => "comm",
            SegCat::Wait => "wait",
            SegCat::Compute => "compute",
        }
    }
}

/// One segment of the critical path. Consecutive segments abut in time
/// (`segments[i].t_start == segments[i+1].t_end` in the walk's reverse-time
/// order); together they tile `[0, makespan]`.
#[derive(Clone, Copy, Debug)]
pub struct CritSegment {
    /// Rank whose timeline this stretch of the critical path runs on.
    pub rank: usize,
    /// What the rank was doing (or what the wire was carrying).
    pub cat: SegCat,
    /// Segment start in virtual seconds.
    pub t_start: f64,
    /// Segment end in virtual seconds.
    pub t_end: f64,
    /// For wait segments: the rank blamed for the wait (`== rank` for
    /// self-inflicted waits — NIC drain, injected faults).
    pub blamed: Option<usize>,
}

/// Why a wait span happened — the cause classes of blame attribution.
#[derive(Clone, Copy, Debug, PartialEq)]
enum WaitCause {
    /// Waiting for a message from `src` that had not arrived yet.
    LateSend { src: usize, corr: u64 },
    /// Collective rendezvous: idling until rank `last` arrived at `entry`.
    Collective { last: usize, entry: f64 },
    /// Own NIC still draining a posted send (send-request completion).
    NicDrain,
    /// Injected fault handling: retry backoff, scheduled stall, timeout.
    Fault,
    /// No covering trace event (defensive; does not occur on simcomm
    /// traces, where every wait is charged inside a traced operation).
    Unattributed,
}

/// One cell of the sparse per-rank-pair blame matrix: `waiter` spent
/// `seconds` of wait time caused by `blamed` (`waiter == blamed` for
/// self-inflicted waits). Summing `seconds` over all cells recovers the
/// run's total wait time.
#[derive(Clone, Debug, PartialEq)]
pub struct BlameCell {
    /// The rank that waited.
    pub waiter: usize,
    /// The rank whose lateness caused the wait.
    pub blamed: usize,
    /// Wait seconds attributed to this pair.
    pub seconds: f64,
}

/// One cell of the per-phase wait heatmap: rank `rank` spent `seconds`
/// waiting inside phase `phase` (empty string = outside any phase).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseWaitCell {
    /// Phase name (`""` outside phase spans).
    pub phase: String,
    /// The waiting rank.
    pub rank: usize,
    /// Wait seconds in this phase on this rank.
    pub seconds: f64,
}

/// Result of [`analyze`]: the critical path and wait-blame attribution of
/// one traced run.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The run's makespan (maximum final rank clock), in virtual seconds.
    pub makespan: f64,
    /// Critical-path seconds spent in communication.
    pub critpath_comm: f64,
    /// Critical-path seconds spent waiting.
    pub critpath_wait: f64,
    /// Critical-path seconds spent computing, stored as the **exact
    /// remainder** `makespan - (critpath_comm + critpath_wait)` so the three
    /// components always sum to the makespan bit-for-bit (verifiable from
    /// the serialized report alone; `commstats --check` does).
    pub critpath_compute: f64,
    /// The critical-path segments in reverse time order (walk order: from
    /// the makespan back to zero).
    pub segments: Vec<CritSegment>,
    /// Sparse blame matrix, sorted by seconds descending (ties by rank
    /// pair). Totals the run's wait time across all ranks.
    pub blame: Vec<BlameCell>,
    /// Per-phase per-rank wait heatmap, sorted by phase then rank.
    pub phase_wait: Vec<PhaseWaitCell>,
}

impl Analysis {
    /// Total wait seconds in the blame matrix (equals the sum of every
    /// rank's `wait_seconds` up to floating-point summation order).
    pub fn blame_total(&self) -> f64 {
        self.blame.iter().map(|c| c.seconds).sum()
    }
}

/// Trace kinds that can *cause* a wait span on the rank that recorded them:
/// the kinds [`classify_wait`] searches for as the innermost covering event.
fn is_cause_kind(kind: TraceKind) -> bool {
    matches!(
        kind,
        TraceKind::Recv
            | TraceKind::Wait
            | TraceKind::Barrier
            | TraceKind::Bcast
            | TraceKind::Reduce
            | TraceKind::Gather
            | TraceKind::Alltoallv
            | TraceKind::Ialltoallv
            | TraceKind::CollWait
            | TraceKind::SparseExchange
            | TraceKind::Fault
            | TraceKind::Retry
            | TraceKind::Timeout
    )
}

fn is_collective_kind(kind: TraceKind) -> bool {
    matches!(
        kind,
        TraceKind::Barrier
            | TraceKind::Bcast
            | TraceKind::Reduce
            | TraceKind::Gather
            | TraceKind::Alltoallv
            | TraceKind::Ialltoallv
            | TraceKind::SparseExchange
    )
}

/// Event indexes over a run's traces: per-rank events sorted by start time,
/// the correlation-id registry of send posts, and per communicator its
/// members' collective event sequences (position k on every member =
/// instance k, by SPMD order).
struct EventIndex<'a> {
    traces: &'a [Trace],
    /// Per rank: event indices sorted by `(t_start, index)` — the index
    /// tie-break keeps nested events (recorded later) after their parents.
    sorted: Vec<Vec<u32>>,
    /// corr → (rank, event index) of the send-side post (`send`/`isend`).
    send_by_corr: HashMap<u64, (usize, u32)>,
    /// Per communicator (`0` the world, else a group id): its members in
    /// ascending rank — every rank for the world, the ranks that record one
    /// of its collectives for a group — each with the indices of its
    /// collective-kind events on it in record order.
    colls: BTreeMap<u32, Vec<(usize, Vec<u32>)>>,
    /// Per collective instance `(communicator, k)`: (last-arriving member,
    /// its entry time), resolved lazily.
    coll_last: HashMap<(u32, usize), (usize, f64)>,
}

impl<'a> EventIndex<'a> {
    fn new(traces: &'a [Trace]) -> Self {
        let mut sorted = Vec::with_capacity(traces.len());
        let world = (0..traces.len()).map(|rank| (rank, Vec::new())).collect();
        let mut colls: BTreeMap<u32, Vec<(usize, Vec<u32>)>> = BTreeMap::from([(0, world)]);
        let mut send_by_corr = HashMap::new();
        for (rank, t) in traces.iter().enumerate() {
            let mut idx: Vec<u32> = (0..t.events.len() as u32).collect();
            idx.sort_by(|&a, &b| {
                let (ea, eb) = (&t.events[a as usize], &t.events[b as usize]);
                ea.t_start.partial_cmp(&eb.t_start).expect("finite trace times").then(a.cmp(&b))
            });
            sorted.push(idx);
            for (i, e) in t.events.iter().enumerate() {
                if is_collective_kind(e.kind) {
                    let members = colls.entry(e.group).or_default();
                    match members.binary_search_by_key(&rank, |m| m.0) {
                        Ok(at) => members[at].1.push(i as u32),
                        Err(at) => members.insert(at, (rank, vec![i as u32])),
                    }
                }
                if e.corr != 0 && matches!(e.kind, TraceKind::Send | TraceKind::Isend) {
                    send_by_corr.insert(e.corr, (rank, i as u32));
                }
            }
        }
        EventIndex { traces, sorted, send_by_corr, colls, coll_last: HashMap::new() }
    }

    fn event(&self, rank: usize, idx: u32) -> &TraceEvent {
        &self.traces[rank].events[idx as usize]
    }

    /// The innermost cause-kind event on `rank` covering the instant just
    /// below `t` (largest `t_start` among events with `t_start < t <=
    /// t_end`; record order breaks ties, nested events win).
    fn covering_cause(&self, rank: usize, t: f64) -> Option<u32> {
        let events = &self.traces[rank].events;
        let order = &self.sorted[rank];
        // First position whose t_start >= t; everything before starts below t.
        let cut = order.partition_point(|&i| events[i as usize].t_start < t);
        order[..cut]
            .iter()
            .rev()
            .filter(|&&i| {
                let e = &events[i as usize];
                is_cause_kind(e.kind) && e.t_end >= t
            })
            .max_by(|&&a, &&b| {
                let (ea, eb) = (&events[a as usize], &events[b as usize]);
                ea.t_start.partial_cmp(&eb.t_start).expect("finite trace times").then(a.cmp(&b))
            })
            .copied()
    }

    /// The instance a collective event on `rank` belongs to: its
    /// communicator and its ordinal there.
    fn coll_instance(&self, rank: usize, idx: u32) -> Option<(u32, usize)> {
        let group = self.event(rank, idx).group;
        let members = self.colls.get(&group)?;
        let at = members.binary_search_by_key(&rank, |m| m.0).ok()?;
        Some((group, members[at].1.binary_search(&idx).ok()?))
    }

    /// The post a `coll_wait` record at `idx` on `rank` completes: the last
    /// `ialltoallv` record on its communicator before it (a communicator
    /// has at most one collective outstanding).
    fn post_of(&self, rank: usize, idx: u32) -> Option<u32> {
        let group = self.event(rank, idx).group;
        let events = &self.traces[rank].events[..idx as usize];
        let post = events.iter().rposition(|e| e.kind == TraceKind::Ialltoallv && e.group == group);
        post.map(|at| at as u32)
    }

    /// Last-arriving member and entry time of collective instance `k` of
    /// `group` (smallest rank among ties, for determinism).
    fn coll_last_arrival(&mut self, (group, k): (u32, usize)) -> Option<(usize, f64)> {
        if let Some(&hit) = self.coll_last.get(&(group, k)) {
            return Some(hit);
        }
        let mut best: Option<(usize, f64)> = None;
        for (rank, colls) in &self.colls[&group] {
            let &idx = colls.get(k)?;
            let entry = self.traces[*rank].events[idx as usize].t_start;
            best = match best {
                Some((_, t)) if entry > t => Some((*rank, entry)),
                None => Some((*rank, entry)),
                keep => keep,
            };
        }
        if let Some(hit) = best {
            self.coll_last.insert((group, k), hit);
        }
        best
    }

    /// Classify the wait at the instant just below `t` on `rank`.
    fn classify_wait(&mut self, rank: usize, t: f64) -> (WaitCause, f64) {
        let Some(idx) = self.covering_cause(rank, t) else {
            return (WaitCause::Unattributed, 0.0);
        };
        let e = *self.event(rank, idx);
        let cause = match e.kind {
            TraceKind::Recv if e.corr != 0 => {
                WaitCause::LateSend { src: e.peer.unwrap_or(rank), corr: e.corr }
            }
            TraceKind::Recv => WaitCause::Unattributed,
            TraceKind::Wait => WaitCause::NicDrain,
            TraceKind::Fault | TraceKind::Retry | TraceKind::Timeout => WaitCause::Fault,
            _ => {
                let post = match e.kind {
                    TraceKind::CollWait => {
                        self.post_of(rank, idx).expect("a completion has a post")
                    }
                    _ => idx,
                };
                let k = self.coll_instance(rank, post).expect("collective event is in coll index");
                match self.coll_last_arrival(k) {
                    Some((last, entry)) => WaitCause::Collective { last, entry },
                    None => WaitCause::Unattributed,
                }
            }
        };
        (cause, e.t_start)
    }
}

/// The clock span on `rank` covering the instant just below `t`, if any.
fn covering_span(trace: &Trace, t: f64) -> Option<&ClockSpan> {
    let cut = trace.spans.partition_point(|s| s.t_start < t);
    cut.checked_sub(1).map(|i| &trace.spans[i])
}

/// Analyze a traced run: reconstruct the happens-before structure and
/// compute the critical path and wait-blame attribution. The traces must
/// come from a traced world ([`simcomm::Runner::traced`]), whose clock spans
/// tile each rank's `[0, clock]`.
pub fn analyze(traces: &[Trace]) -> Analysis {
    let mut index = EventIndex::new(traces);
    let clock_of = |r: usize| traces[r].spans.last().map_or(0.0, |s| s.t_end);
    let (start_rank, makespan) = (0..traces.len())
        .map(|r| (r, clock_of(r)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite clocks").then(b.0.cmp(&a.0)))
        .unwrap_or((0, 0.0));

    let mut segments: Vec<CritSegment> = Vec::new();
    let mut rank = start_rank;
    let mut t = makespan;
    // Consecutive cross-rank jumps that did not move `t`: a bounded burst is
    // normal (rendezvous chains resolve at one instant), an unbounded one
    // would mean a cycle — force local attribution past the threshold.
    let mut zero_jumps = 0usize;
    let max_zero_jumps = 4 * traces.len().max(1);

    while t > 0.0 {
        let Some(span) = covering_span(&traces[rank], t).copied() else {
            // Before this rank's first span (or an empty trace): the time is
            // unattributable locally; close out as compute.
            segments.push(CritSegment {
                rank,
                cat: SegCat::Compute,
                t_start: 0.0,
                t_end: t,
                blamed: None,
            });
            break;
        };
        if span.t_end < t {
            // Defensive: a gap in the span tiling (cannot happen when every
            // clock advance records a span). Attribute the gap as compute.
            segments.push(CritSegment {
                rank,
                cat: SegCat::Compute,
                t_start: span.t_end,
                t_end: t,
                blamed: None,
            });
            t = span.t_end;
            continue;
        }
        match span.cat {
            SpanCat::Compute => {
                segments.push(CritSegment {
                    rank,
                    cat: SegCat::Compute,
                    t_start: span.t_start,
                    t_end: t,
                    blamed: None,
                });
                t = span.t_start;
                zero_jumps = 0;
            }
            SpanCat::Comm => {
                segments.push(CritSegment {
                    rank,
                    cat: SegCat::Comm,
                    t_start: span.t_start,
                    t_end: t,
                    blamed: None,
                });
                t = span.t_start;
                zero_jumps = 0;
            }
            SpanCat::Wait => {
                let (cause, _) = index.classify_wait(rank, t);
                let force_local = zero_jumps >= max_zero_jumps;
                match cause {
                    WaitCause::LateSend { src, corr } if !force_local => {
                        match index.send_by_corr.get(&corr).copied() {
                            Some((send_rank, send_idx)) => {
                                // Follow the message to its sender: the time
                                // past the send post is the wire/NIC carrying
                                // the payload — communication, on the
                                // receiver's row of the timeline.
                                let post_end = index.event(send_rank, send_idx).t_end;
                                let j = post_end.min(t);
                                if j < t {
                                    segments.push(CritSegment {
                                        rank,
                                        cat: SegCat::Comm,
                                        t_start: j,
                                        t_end: t,
                                        blamed: None,
                                    });
                                    zero_jumps = 0;
                                } else {
                                    zero_jumps += 1;
                                }
                                rank = send_rank;
                                t = j;
                            }
                            None => {
                                // Sender's post was not traced (cannot happen
                                // when all ranks trace): blame locally.
                                segments.push(CritSegment {
                                    rank,
                                    cat: SegCat::Wait,
                                    t_start: span.t_start,
                                    t_end: t,
                                    blamed: Some(src),
                                });
                                t = span.t_start;
                                zero_jumps = 0;
                            }
                        }
                    }
                    WaitCause::Collective { last, entry } if !force_local && last != rank => {
                        // Jump to the last-arriving participant at its entry.
                        let j = entry.min(t);
                        if j < t {
                            segments.push(CritSegment {
                                rank,
                                cat: SegCat::Wait,
                                t_start: j,
                                t_end: t,
                                blamed: Some(last),
                            });
                            zero_jumps = 0;
                        } else {
                            zero_jumps += 1;
                        }
                        rank = last;
                        t = j;
                    }
                    _ => {
                        // Self-inflicted (NIC drain, fault handling, own last
                        // arrival) or forced local: charge the wait here.
                        let blamed = match cause {
                            WaitCause::LateSend { src, .. } => Some(src),
                            WaitCause::Collective { last, .. } => Some(last),
                            _ => Some(rank),
                        };
                        segments.push(CritSegment {
                            rank,
                            cat: SegCat::Wait,
                            t_start: span.t_start,
                            t_end: t,
                            blamed,
                        });
                        t = span.t_start;
                        zero_jumps = 0;
                    }
                }
            }
        }
    }

    let critpath_comm: f64 =
        segments.iter().filter(|s| s.cat == SegCat::Comm).map(|s| s.t_end - s.t_start).sum();
    let critpath_wait: f64 =
        segments.iter().filter(|s| s.cat == SegCat::Wait).map(|s| s.t_end - s.t_start).sum();
    // Stored as the exact remainder so comm + wait + compute reproduces the
    // makespan bit-for-bit from the serialized values alone.
    let critpath_compute = makespan - (critpath_comm + critpath_wait);

    // Blame matrix + phase heatmap: attribute every wait span of every rank,
    // splitting merged spans at cause-event boundaries.
    let mut blame: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut phase_wait: BTreeMap<(&str, usize), f64> = BTreeMap::new();
    for (r, trace) in traces.iter().enumerate() {
        for span in trace.spans.iter().filter(|s| s.cat == SpanCat::Wait) {
            let mut hi = span.t_end;
            while hi > span.t_start {
                let (cause, ev_start) = index.classify_wait(r, hi);
                let lo = match cause {
                    WaitCause::Unattributed => span.t_start,
                    _ => ev_start.max(span.t_start),
                };
                // A cause event strictly covers the instant below `hi`, so
                // lo < hi and the split loop always terminates.
                let lo = if lo < hi { lo } else { span.t_start };
                let blamed = match cause {
                    WaitCause::LateSend { src, .. } => src,
                    WaitCause::Collective { last, .. } => last,
                    _ => r,
                };
                *blame.entry((r, blamed)).or_insert(0.0) += hi - lo;
                *phase_wait.entry((span.phase, r)).or_insert(0.0) += hi - lo;
                hi = lo;
            }
        }
    }
    let mut blame: Vec<BlameCell> = blame
        .into_iter()
        .map(|((waiter, blamed), seconds)| BlameCell { waiter, blamed, seconds })
        .collect();
    blame.sort_by(|a, b| {
        b.seconds
            .partial_cmp(&a.seconds)
            .expect("finite blame")
            .then(a.waiter.cmp(&b.waiter))
            .then(a.blamed.cmp(&b.blamed))
    });
    let phase_wait: Vec<PhaseWaitCell> = phase_wait
        .into_iter()
        .map(|((phase, rank), seconds)| PhaseWaitCell { phase: phase.to_string(), rank, seconds })
        .collect();

    Analysis {
        makespan,
        critpath_comm,
        critpath_wait,
        critpath_compute,
        segments,
        blame,
        phase_wait,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcomm::{MachineModel, Runner};

    fn md_like_program(comm: &mut simcomm::Comm) -> u64 {
        let rank = comm.rank();
        let n = comm.size();
        let peer = (rank + 1) % n;
        let prev = (rank + n - 1) % n;
        let mut acc = 0u64;
        for step in 0..4u64 {
            comm.with_phase("compute", |c| c.advance(1e-4 * (rank as f64 + 1.0)));
            comm.with_phase("exchange", |c| {
                let r = c.irecv::<u64>(prev, step);
                let s = c.isend(peer, step, vec![rank as u64; 64]);
                let got = c.waitall(vec![r, s]);
                acc += got[0].as_ref().map_or(0, |v| v[0]);
            });
            acc += comm.with_phase("reduce", |c| c.allreduce(acc, |a, b| a.wrapping_add(b)));
        }
        acc
    }

    fn run_traced() -> simcomm::RunOutput<u64> {
        Runner::default().traced(true).run(6, MachineModel::juropa_like(), md_like_program)
    }

    #[test]
    fn spans_tile_each_rank_clock() {
        let out = run_traced();
        for (r, trace) in out.traces.iter().enumerate() {
            let mut prev = 0.0;
            for s in &trace.spans {
                assert_eq!(s.t_start, prev, "rank {r}: span gap");
                assert!(s.t_end >= s.t_start);
                prev = s.t_end;
            }
            assert_eq!(prev, out.clocks[r], "rank {r}: spans must end at the clock");
        }
    }

    #[test]
    fn critical_path_tiles_the_makespan() {
        let out = run_traced();
        let analysis = analyze(&out.traces);
        assert_eq!(analysis.makespan, out.makespan());
        // Segments abut in reverse time order and tile [0, makespan].
        let mut t = analysis.makespan;
        for seg in &analysis.segments {
            assert_eq!(seg.t_end, t, "segments must abut");
            assert!(seg.t_start < seg.t_end);
            t = seg.t_start;
        }
        assert_eq!(t, 0.0, "walk must reach time zero");
        // The remainder convention makes the three components sum exactly.
        let total = analysis.critpath_comm + analysis.critpath_wait + analysis.critpath_compute;
        assert_eq!(
            analysis.critpath_compute,
            analysis.makespan - (analysis.critpath_comm + analysis.critpath_wait)
        );
        assert!((total - analysis.makespan).abs() <= 1e-12 * analysis.makespan.max(1.0));
        // And the walked compute segments agree with the remainder closely.
        let walked: f64 = analysis
            .segments
            .iter()
            .filter(|s| s.cat == SegCat::Compute)
            .map(|s| s.t_end - s.t_start)
            .sum();
        assert!((walked - analysis.critpath_compute).abs() <= 1e-9 * analysis.makespan.max(1.0));
    }

    #[test]
    fn blame_totals_equal_wait_totals() {
        let out = run_traced();
        let analysis = analyze(&out.traces);
        let wait_total: f64 = out.stats.iter().map(|s| s.wait_seconds).sum();
        assert!(
            (analysis.blame_total() - wait_total).abs() <= 1e-9 * wait_total.max(1e-12),
            "blame {} != wait {}",
            analysis.blame_total(),
            wait_total
        );
        let heat_total: f64 = analysis.phase_wait.iter().map(|c| c.seconds).sum();
        assert!((heat_total - wait_total).abs() <= 1e-9 * wait_total.max(1e-12));
        // Phase tags survive into the heatmap.
        assert!(analysis.phase_wait.iter().any(|c| c.phase == "exchange" || c.phase == "reduce"));
    }

    #[test]
    fn analysis_matches_frozen_digest() {
        // 64-bit FNV-1a of the analysis' `Debug` rendering (floats print in
        // shortest round-trip form). The constant was captured at commit
        // `cf18bdf` from a trace recorded under the thread-per-rank engine:
        // the analysis is a pure function of the trace, and the trace of
        // the program.
        let got = format!("{:?}", analyze(&run_traced().traces))
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(
            got, 0x37f1_e3f4_7ac6_223e,
            "analysis digest {got:#018x} differs from the frozen one"
        );
    }

    #[test]
    fn late_sender_gets_the_blame() {
        // Rank 0 computes for a long time before sending; rank 1 waits on the
        // message. The blame matrix must charge rank 1's wait to rank 0, and
        // the critical path must route through rank 0's compute span.
        let out = Runner::default().traced(true).run(2, MachineModel::juropa_like(), |comm| {
            if comm.rank() == 0 {
                comm.advance(0.5);
                comm.send(1, 0, vec![1u8; 1024]);
            } else {
                let data = comm.recv::<u8>(0, 0);
                assert_eq!(data.len(), 1024);
            }
        });
        let analysis = analyze(&out.traces);
        let blamed: f64 = analysis
            .blame
            .iter()
            .filter(|c| c.waiter == 1 && c.blamed == 0)
            .map(|c| c.seconds)
            .sum();
        assert!(blamed > 0.4, "rank 1's wait must be blamed on rank 0 (got {blamed})");
        // Most of the makespan is rank 0's half-second of compute.
        assert!(analysis.critpath_compute >= 0.5);
        assert!(analysis.critpath_wait < 0.1, "the walk follows the edge instead of waiting");
        assert!(analysis.segments.iter().any(|s| s.rank == 0 && s.cat == SegCat::Compute));
    }

    /// Rounds of sparse data exchanges on a ring, rank 2 computing longest
    /// before each: only even ranks send, to their right neighbour.
    fn sparse_rounds(comm: &mut simcomm::Comm) {
        let (me, p) = (comm.rank(), comm.size());
        let right = (me + 1) % p;
        for round in 0..3 {
            comm.with_phase("compute", |c| c.advance(if me == 2 { 2e-4 } else { 1e-5 }));
            let sends = if me % 2 == 0 { vec![(right, vec![round as u64; 64])] } else { vec![] };
            comm.with_phase("exchange", |c| c.sparse_exchange(&[right], sends));
        }
    }

    #[test]
    fn critical_path_tiles_the_makespan_across_sparse_exchanges() {
        let out =
            Runner::default().traced(true).run(5, MachineModel::juqueen_like(), sparse_rounds);
        let analysis = analyze(&out.traces);
        assert_eq!(analysis.makespan, out.makespan());
        let mut t = analysis.makespan;
        for seg in &analysis.segments {
            assert_eq!(seg.t_end, t, "segments must abut");
            t = seg.t_start;
        }
        assert_eq!(t, 0.0, "walk must reach time zero");
        assert_eq!(
            analysis.critpath_compute,
            analysis.makespan - (analysis.critpath_comm + analysis.critpath_wait)
        );
        // The barrier waits are the straggler's: everyone else's wait inside
        // an exchange is blamed on rank 2, whose compute is on the path.
        for waiter in [0usize, 1, 3, 4] {
            let blamed: f64 = analysis
                .blame
                .iter()
                .filter(|c| c.waiter == waiter && c.blamed == 2)
                .map(|c| c.seconds)
                .sum();
            assert!(blamed > 4e-4, "rank {waiter}'s barrier wait must be blamed on rank 2");
        }
        assert!(analysis.segments.iter().any(|s| s.rank == 2 && s.cat == SegCat::Compute));
        let wait_total: f64 = out.stats.iter().map(|s| s.wait_seconds).sum();
        assert!((analysis.blame_total() - wait_total).abs() <= 1e-9 * wait_total);
    }

    #[test]
    fn collective_straggler_gets_the_blame() {
        // Rank 2 arrives last at the barrier; everyone else's rendezvous wait
        // is blamed on rank 2.
        let out = Runner::default().traced(true).run(4, MachineModel::juropa_like(), |comm| {
            if comm.rank() == 2 {
                comm.advance(0.25);
            }
            comm.barrier();
        });
        let analysis = analyze(&out.traces);
        for waiter in [0usize, 1, 3] {
            let blamed: f64 = analysis
                .blame
                .iter()
                .filter(|c| c.waiter == waiter && c.blamed == 2)
                .map(|c| c.seconds)
                .sum();
            assert!(blamed > 0.2, "rank {waiter}'s barrier wait must be blamed on rank 2");
        }
        assert!(analysis.segments.iter().any(|s| s.rank == 2 && s.cat == SegCat::Compute));
    }

    #[test]
    fn a_group_collective_blames_its_own_last_member() {
        // Two concurrent groups, {0, 2, 4} and {1, 3, 5}, each with its own
        // straggler: rank 4 in the first and rank 1 in the second. A member's
        // wait is blamed on its own group's straggler, never on the other
        // group's, and the critical path still tiles the makespan.
        let out = Runner::default().traced(true).run(6, MachineModel::juqueen_like(), |comm| {
            let me = comm.rank();
            let mut group = comm.split(me as u32 % 2, me as u32);
            for round in 0..2 {
                comm.advance(if me == 4 {
                    0.5
                } else if me == 1 {
                    0.25
                } else {
                    0.01
                });
                let dst = group.members()[(round + 1) % 3];
                let (mut recv, mut sources) = (Vec::new(), Vec::new());
                group.alltoallv_flat(comm, vec![me as u64], &[(dst, 1)], &mut recv, &mut sources);
            }
            comm.barrier();
        });
        let analysis = analyze(&out.traces);
        let mut t = analysis.makespan;
        for seg in &analysis.segments {
            assert_eq!(seg.t_end, t, "segments must abut");
            t = seg.t_start;
        }
        assert_eq!(t, 0.0, "walk must reach time zero");
        let blamed = |waiter: usize, on: usize| -> f64 {
            let cells = analysis.blame.iter().filter(|c| c.waiter == waiter && c.blamed == on);
            cells.map(|c| c.seconds).sum()
        };
        for (waiters, straggler) in [([0, 2], 4), ([3, 5], 1)] {
            for waiter in waiters {
                assert!(blamed(waiter, straggler) > 0.4, "rank {waiter} waits on rank {straggler}");
            }
        }
        assert_eq!(blamed(0, 1) + blamed(2, 1), 0.0, "rank 1 is in the other group");
        assert!(analysis.segments.iter().any(|s| s.rank == 4 && s.cat == SegCat::Compute));
    }

    #[test]
    fn a_nonblocking_completion_blames_the_last_member_to_post() {
        // Every rank posts an all-to-all-v and computes before its wait;
        // rank 2 posts last, on the world and then on its group {0, 2}. The
        // others' waits in the completions are blamed on rank 2, the path
        // runs through rank 2's compute before its post, and it still tiles
        // the makespan.
        let out = Runner::default().traced(true).run(4, MachineModel::juropa_like(), |comm| {
            let (me, p) = (comm.rank(), comm.size());
            let mut group = comm.split(me as u32 % 2, me as u32);
            let (mut recv, mut sources) = (Vec::new(), Vec::new());
            comm.advance(if me == 2 { 0.25 } else { 0.01 });
            let request = comm.ialltoallv_flat(vec![me as u64; 8], &[((me + 1) % p, 8)]);
            comm.advance(1e-3);
            request.wait(comm, None, &mut recv, &mut sources);
            comm.advance(if me == 2 { 0.25 } else { 0.01 });
            let dst = group.members()[1 - group.members().iter().position(|&r| r == me).unwrap()];
            let request = group.ialltoallv_flat(comm, vec![me as u64; 8], &[(dst, 8)]);
            comm.advance(1e-3);
            request.wait(comm, Some(&mut group), &mut recv, &mut sources);
        });
        let kinds = |rank: usize| -> Vec<TraceKind> {
            out.traces[rank].events.iter().map(|e| e.kind).collect()
        };
        use TraceKind::{CollWait, Gather, Ialltoallv};
        assert_eq!(kinds(0), [Gather, Ialltoallv, CollWait, Ialltoallv, CollWait]);
        let analysis = analyze(&out.traces);
        let mut t = analysis.makespan;
        for seg in &analysis.segments {
            assert_eq!(seg.t_end, t, "segments must abut");
            t = seg.t_start;
        }
        assert_eq!(t, 0.0, "walk must reach time zero");
        let blamed = |waiter: usize, on: usize| -> f64 {
            let cells = analysis.blame.iter().filter(|c| c.waiter == waiter && c.blamed == on);
            cells.map(|c| c.seconds).sum()
        };
        for waiter in [0usize, 1, 3] {
            assert!(blamed(waiter, 2) > 0.2, "rank {waiter} waits on rank 2's post");
        }
        assert!(blamed(0, 2) > 0.45, "rank 0 waits on rank 2 twice, the second time in the group");
        assert_eq!(blamed(1, 3) + blamed(3, 1), 0.0, "ranks 1 and 3 posted together");
        assert!(analysis.segments.iter().any(|s| s.rank == 2 && s.cat == SegCat::Compute));
        let wait_total: f64 = out.stats.iter().map(|s| s.wait_seconds).sum();
        assert!((analysis.blame_total() - wait_total).abs() <= 1e-9 * wait_total);
    }
}
