//! Dynamic sparse data exchange: the NBX protocol of Hoefler, Siebert and
//! Lumsdaine ("Scalable communication protocols for dynamic sparse data
//! exchange", PPoPP 2010) on the simulated machine.
//!
//! A rank sends a synchronous message to each partner it has data for and
//! to nobody else, enters a nonblocking barrier once every one of its sends
//! has been matched, and receives whatever was addressed to it. Nobody
//! announces an empty message, so a round costs messages in proportion to
//! the partners that have data, plus one barrier — where the dense
//! [`Comm::neighbor_exchange`] pays one message per listed partner, empty or
//! not.
//!
//! # Cost model
//!
//! With `o` the CPU overhead per message, `L(h)` the wire latency over `h`
//! hops and the NIC timeline of [`MachineModel::nic_occupancy`]:
//!
//! * every non-empty send is posted like an [`Comm::isend`] (`o` of
//!   communication; it departs at `d_k` on the NIC timeline);
//! * it is matched when it has arrived and the acknowledgement is back:
//!   `m_k = (d_k + L(h_k)) + L(h_k)`;
//! * the rank enters the barrier at `e_r = max(c_r, max_k m_k)`, `c_r` its
//!   clock after the posts (the gap is wait, one `wait` record per send);
//! * the barrier completes at `B = max_r e_r + barrier()` (wait up to the
//!   latest entry, then the barrier's communication cost);
//! * each received message then costs `o`; it arrived before `B`, since its
//!   sender entered the barrier only after the match.
//!
//! A round in which no rank sends anything therefore costs exactly
//! `barrier()` plus the wait for the slowest rank to enter.
//!
//! # Determinism
//!
//! The one yield point is the barrier's rendezvous. Every sender posts before
//! it enters the barrier, so when the rendezvous completes every message of
//! the round is in the addressee's mailbox, and draining it never blocks.
//! The messages are taken by the round's tag and completed in `(arrival,
//! source, post order)` order — never in mailbox order, which depends on how
//! the host interleaved the senders — and returned sorted by source, those of
//! one source in the order it listed them.

use std::any::Any;

use super::transport::{posting_order, Message};
use super::Comm;
use crate::trace::TraceKind;

/// Tags with the top bit set are the sparse exchange's own: a round's
/// messages carry `SPARSE_TAG | k`, where `k` is the number of collectives
/// entered before it — the same on every rank — so a round never takes a
/// message of the next one from a rank that has already moved on.
const SPARSE_TAG: u64 = 1 << 63;

/// Reusable scratch of the sparse exchange, held on the [`Comm`]: cleared by
/// each round, never shrunk, so a warm exchange allocates nothing here.
#[derive(Default)]
pub(super) struct SparseScratch {
    /// `(match time, destination, correlation id)` of the round's
    /// synchronous sends.
    sends: Vec<(f64, usize, u64)>,
    /// The round's messages to this rank with their arrival times; after the
    /// drain, sorted by source and post order.
    msgs: Vec<(f64, Message)>,
}

impl Comm {
    /// Dynamic sparse data exchange (NBX): send each non-empty `(dst,
    /// buffer)` pair, and receive every non-empty buffer any rank addressed
    /// to this one, as `(src, buffer)` pairs sorted by source (buffers of one
    /// source in the order it listed them). Collective: every rank of the
    /// world calls it, in the same order as its other collectives.
    ///
    /// `partners` bounds where this rank may send; nothing else about it is
    /// exchanged. The relation need not be symmetric: a rank receives from
    /// whoever sent to it. A destination may appear more than once. An empty
    /// buffer is not a message.
    ///
    /// The sends are posted to the destinations above this rank first, then
    /// to the rest, each group in list order — the posting rule of
    /// [`Comm::neighbor_exchange`] — so on a periodic grid no rank's messages
    /// all leave last. Buffers to one destination keep their list order.
    ///
    /// This is the neighbourhood exchange for rounds where most partners have
    /// nothing to say: messages cost what they cost, an empty partner costs
    /// nothing, and the round ends with one barrier (the cost model is in the
    /// module documentation). Rounds where every partner has data are
    /// cheaper over [`Comm::neighbor_exchange`], which has no barrier.
    ///
    /// ```
    /// use simcomm::{run, MachineModel};
    /// let out = run(4, MachineModel::juropa_like(), |comm| {
    ///     let (me, p) = (comm.rank(), comm.size());
    ///     let ring = [(me + 1) % p, (me + p - 1) % p];
    ///     // Only rank 0 has something to say, to its right neighbour.
    ///     let sends = if me == 0 { vec![(1, vec![7u64; 3])] } else { Vec::new() };
    ///     comm.sparse_exchange(&ring, sends)
    /// });
    /// assert_eq!(out.results[1], vec![(0, vec![7, 7, 7])]);
    /// assert!(out.results[2].is_empty());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics, before anything is posted, if a buffer targets a rank that is
    /// not in `partners`.
    pub fn sparse_exchange<T: Send + 'static>(
        &mut self,
        partners: &[usize],
        mut sends: Vec<(usize, Vec<T>)>,
    ) -> Vec<(usize, Vec<T>)> {
        let mut out = Vec::new();
        self.sparse_exchange_into(partners, &mut sends, &mut out);
        out
    }

    /// [`Comm::sparse_exchange`] into vectors the caller keeps across steps:
    /// the same messages, costs and trace records. `sends` is drained and
    /// `out` cleared and refilled with what arrived, sorted by source. An
    /// empty buffer is not a message: it is dropped here, so a caller that
    /// recycles buffers (into the pool, say) takes its empty ones out first.
    /// The round's scratch is kept on the `Comm` and the payloads travel in
    /// recycled envelopes, so a warm exchange performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics, before anything is posted, if a buffer targets a rank that is
    /// not in `partners`.
    pub fn sparse_exchange_into<T: Send + 'static>(
        &mut self,
        partners: &[usize],
        sends: &mut Vec<(usize, Vec<T>)>,
        out: &mut Vec<(usize, Vec<T>)>,
    ) {
        check_sparse_targets(partners, sends.iter().map(|&(dst, _)| dst));
        let tag = SPARSE_TAG | self.coll_seq;
        let mut sent = 0;
        // The posting rule of the dense exchanges: buffers to one
        // destination keep their order.
        posting_order(self.rank, sends, |dst, data| {
            if data.is_empty() {
                return;
            }
            let data = std::mem::take(data);
            let bytes = std::mem::size_of_val(&data[..]) as u64;
            let payload = self.box_payload(data);
            self.sparse_post(dst, tag, payload, bytes);
            sent += bytes;
        });
        sends.clear();
        self.sparse_settle(tag, sent);
        out.clear();
        let mut msgs = std::mem::take(&mut self.sparse.msgs);
        out.reserve_exact(msgs.len());
        for (_, msg) in msgs.drain(..) {
            out.push((msg.src, self.unbox_payload(msg)));
        }
        self.sparse.msgs = msgs;
    }

    /// Post one synchronous send of the round: an `isend` whose completion is
    /// the receiver's match, acknowledged over the same wire.
    fn sparse_post(&mut self, dst: usize, tag: u64, payload: Box<dyn Any + Send>, bytes: u64) {
        let t0 = self.clock;
        let (depart, corr) = self.post_send_payload(dst, tag, payload, bytes);
        self.trace_event_corr(TraceKind::Isend, t0, bytes, Some(dst), corr);
        let latency = self.shared.model.wire_latency(self.hops_to(dst));
        let arrival = depart + latency;
        self.sparse.sends.push((arrival + latency, dst, corr));
    }

    /// Complete a round whose sends are posted: wait for their matches, pass
    /// the barrier, and leave the round's messages to this rank in
    /// `self.sparse.msgs`, accounted and sorted by source and post order.
    fn sparse_settle(&mut self, tag: u64, sent: u64) {
        self.shared.check_poison();
        let mut sends = std::mem::take(&mut self.sparse.sends);
        sends.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("virtual times are finite").then(a.2.cmp(&b.2))
        });
        for &(matched, dst, corr) in &sends {
            self.complete_send(dst, matched, corr);
        }
        sends.clear();
        self.sparse.sends = sends;

        let entry = self.clock;
        self.barrier_untraced();

        // Every sender posted before it entered the barrier: the round's
        // messages are all in the mailbox now.
        let mut msgs = std::mem::take(&mut self.sparse.msgs);
        self.take_tagged(tag, &mut msgs);
        msgs.sort_unstable_by(|(a, ma), (b, mb)| {
            a.partial_cmp(b).expect("virtual times are finite").then(ma.corr.cmp(&mb.corr))
        });
        for (arrival, msg) in &msgs {
            self.account_recv(msg, *arrival);
        }
        // A correlation id is the sender's rank above its post counter.
        msgs.sort_unstable_by_key(|(_, msg)| msg.corr);
        self.sparse.msgs = msgs;
        self.trace_event(TraceKind::SparseExchange, entry, sent, None);
    }
}

/// Every destination of a sparse exchange must be a listed partner; checked
/// before anything is posted, so a bad target fails the world cleanly.
fn check_sparse_targets(partners: &[usize], mut dsts: impl Iterator<Item = usize>) {
    if let Some(dst) = dsts.find(|dst| !partners.contains(dst)) {
        panic!("sparse_exchange: a buffer targets rank {dst}, which is not in the partner list");
    }
}
