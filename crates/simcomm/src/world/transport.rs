//! How a message travels: deposited in the addressee's mailbox at post,
//! matched per `(source, tag)` stream, completed in ascending ready time,
//! posted in [`posting_order`]. Only this module touches a mailbox.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

use super::{lock, Comm, WorldShared};
use crate::engine::WaitSite;
use crate::trace::{SpanCat, TraceKind};
use matcher::{Matcher, Pattern};

mod matcher;

/// A type-erased in-flight message.
pub(super) struct Message {
    pub(super) src: usize,
    tag: u64,
    /// Virtual time at which the message left the sender.
    depart: f64,
    /// Payload size in bytes (for costing).
    bytes: u64,
    /// World-unique correlation id stamped at post time (see
    /// [`crate::TraceEvent::corr`]).
    pub(super) corr: u64,
    payload: Box<dyn Any + Send>,
}

/// Mailbox of one destination rank (each behind its own mutex in
/// [`Mailboxes`]).
#[derive(Default)]
struct Mailbox {
    queue: VecDeque<Message>,
    /// The owner is (or was, until it next relocks) parked on this mailbox.
    /// Set and read under the mailbox guard: a sender that finds it clear
    /// skips the global scheduler lock — the owner is running and will see
    /// the deposit under this guard before it can decide to wait.
    waiting: bool,
}

/// The world's mailboxes, one per rank.
pub(super) struct Mailboxes(Vec<Mutex<Mailbox>>);

impl Mailboxes {
    pub(super) fn new(n: usize) -> Mailboxes {
        Mailboxes((0..n).map(|_| Mutex::default()).collect())
    }
}

/// A handle for an outstanding nonblocking point-to-point operation, created
/// by [`Comm::isend`] / [`Comm::irecv`] and consumed by [`Comm::wait`] or
/// [`Comm::waitall`].
///
/// The type parameter is the element type of the buffer being transferred;
/// waiting on a receive request yields the matched `Vec<T>`.
///
/// # Completion contract
///
/// Every request, once waited on, **completes with data iff it is a receive**
/// ([`Request::is_recv`]): waits return `Some(buffer)` for receive requests
/// and `None` for send requests, deterministically — there is no cancelled or
/// lost state observable through this API. This holds under an active
/// [`FaultPlan`](crate::FaultPlan) too: a transiently lost send is retransmitted internally
/// (after a bounded backoff charged to the cost model), a delayed message
/// still arrives, and a timed-out wait only accrues extra cost. Callers that
/// know a request's kind statically should use [`Comm::wait_recv`] for
/// receives instead of unwrapping the `Option`.
///
/// # Yield semantics
///
/// Posting a request never blocks: `isend` deposits its payload in the
/// destination mailbox immediately and `irecv` merely records the match
/// pattern. The **wait** is the yield point: when a rank waits on a receive
/// whose message has not arrived yet, the scheduler suspends the rank's task
/// and dispatches the runnable rank with the smallest virtual clock — the
/// wait is where the scheduler changes hands. Which rank runs *while*
/// another waits cannot be observed through this API: completion order and
/// every charged cost are functions of virtual departure/arrival times only,
/// so clocks, statistics and traces are bit-for-bit identical on any host
/// (see [`Runner`](crate::Runner)). If every live rank ends up suspended at a wait, the
/// world fails with a virtual deadlock instead of hanging.
#[must_use = "a request does nothing until waited on"]
pub struct Request<T> {
    kind: ReqKind,
    _payload: std::marker::PhantomData<fn() -> T>,
}

#[derive(Clone, Copy)]
enum ReqKind {
    /// The payload was already deposited at post time; the request completes
    /// when the NIC has drained it (virtual time `depart`). `corr` is the
    /// posted message's correlation id, re-stamped on the completion's
    /// `wait` trace record.
    Send { dst: usize, depart: f64, corr: u64 },
    /// Completes when a matching message has been pulled from the mailbox.
    Recv { src: usize, tag: u64 },
}

/// Reusable scratch for the `waitall` family, held per rank on the [`Comm`]:
/// cleared before each use, never shrunk, so steady-state exchanges perform
/// no heap allocation here after warm-up.
#[derive(Default)]
pub(super) struct WaitScratch {
    /// Request kinds of the batch currently being waited on.
    kinds: Vec<ReqKind>,
    /// The batch's receive requests and their mailbox picks.
    matcher: Matcher,
    /// Matched messages by request slot (`None` at send slots); after
    /// [`Comm::waitall_core`] these are accounted and await unboxing.
    msgs: Vec<Option<Message>>,
    /// `(ready time, slot)` completion schedule; a receive's ready time is
    /// its message's arrival, evaluated once.
    order: Vec<(f64, usize)>,
}

impl<T> Request<T> {
    fn new(kind: ReqKind) -> Self {
        Request { kind, _payload: std::marker::PhantomData }
    }

    /// Whether this is a receive request (completing it yields data).
    pub fn is_recv(&self) -> bool {
        matches!(self.kind, ReqKind::Recv { .. })
    }
}

/// Bound on [`Comm::spare_envelopes`]: room for both directions of a
/// 26-neighbour exchange; beyond it the oldest envelope is freed, so a rank
/// that changes element type ages the old type's envelopes out.
const MAX_SPARE_ENVELOPES: usize = 64;

impl WorldShared {
    /// [`WorldShared::wait_on`] for `rank`'s own mailbox, raising its
    /// `waiting` flag for the time the rank may be parked.
    fn wait_mailbox<'a>(
        &'a self,
        rank: usize,
        clock: f64,
        mut mb: MutexGuard<'a, Mailbox>,
    ) -> MutexGuard<'a, Mailbox> {
        mb.waiting = true;
        let mut mb = self.wait_on(rank, WaitSite::Mailbox, clock, &self.mailboxes.0[rank], mb);
        mb.waiting = false;
        mb
    }
}

impl Comm {
    // ----------------------------------------------------------------- p2p

    /// Send a typed buffer to `dst` with a user `tag`. Buffered/eager: the
    /// sender only pays its CPU-side overhead; wire time is charged on the
    /// receiving side (the receive cannot complete before the message, sent at
    /// the sender's current clock, has traversed the network).
    pub fn send<T: Send + 'static>(&mut self, dst: usize, tag: u64, data: Vec<T>) {
        let t0 = self.clock;
        // A blocking send is an isend whose NIC drain is charged to the CPU:
        // overhead, then stall until the message has left (LogGP `o` + `g` +
        // `G*bytes`, serialized behind any still-draining earlier posts).
        let (depart, bytes, corr) = self.post_send(dst, tag, data);
        self.charge(SpanCat::Comm, (depart - self.clock).max(0.0));
        self.trace_event_corr(TraceKind::Send, t0, bytes, Some(dst), corr);
    }

    /// Deposit a message for `dst` and return its NIC departure time, size
    /// and correlation id. Charges the CPU-side post overhead as
    /// communication; the payload drains on the NIC timeline
    /// ([`Comm::nic_free`]) afterwards. The payload travels in a recycled
    /// envelope when a spare one of the same element type is at hand.
    fn post_send<T: Send + 'static>(
        &mut self,
        dst: usize,
        tag: u64,
        data: Vec<T>,
    ) -> (f64, u64, u64) {
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        let payload = self.box_payload(data);
        let (depart, corr) = self.post_send_payload(dst, tag, payload, bytes);
        (depart, bytes, corr)
    }

    /// `data` in a recycled envelope when a spare one of its element type is
    /// at hand ([`Comm::spare_envelopes`]), in a new box otherwise.
    pub(super) fn box_payload<T: Send + 'static>(&mut self, data: Vec<T>) -> Box<dyn Any + Send> {
        let spare = self.spare_envelopes.iter().rposition(|e| e.is::<Vec<T>>());
        match spare.and_then(|i| self.spare_envelopes.swap_remove_back(i)) {
            Some(mut envelope) => {
                *envelope.downcast_mut::<Vec<T>>().expect("type checked above") = data;
                envelope
            }
            None => Box::new(data),
        }
    }

    /// [`Comm::post_send`] over an already-boxed payload: the sparse
    /// exchange hands its envelopes straight through here.
    pub(super) fn post_send_payload(
        &mut self,
        dst: usize,
        tag: u64,
        payload: Box<dyn Any + Send>,
        bytes: u64,
    ) -> (f64, u64) {
        assert!(dst < self.shared.n, "send to invalid rank {dst}");
        self.shared.check_poison();
        // World-unique nonzero correlation id: rank in the high bits, the
        // program-order send counter in the low 40. Pure metadata — it never
        // feeds a clock or a fault draw.
        self.send_seq += 1;
        let corr = ((self.rank as u64 + 1) << 40) | self.send_seq;
        self.charge(SpanCat::Comm, self.shared.model.p2p_overhead);
        let mut spike = 0.0;
        if self.shared.fault_active {
            self.fault_op_tick();
            self.fault_send_seq += 1;
            let seq = self.fault_send_seq;
            // Transient losses: each lost attempt is re-posted after a
            // bounded exponential backoff. Faults delay, they never drop —
            // the attempt after the last allowed retry always delivers.
            let losses = self.shared.fault.send_losses(self.rank, dst, seq);
            for attempt in 0..losses {
                let t0 = self.clock;
                self.stats.faults_injected += 1;
                self.trace_event(TraceKind::Fault, t0, bytes, Some(dst));
                let backoff =
                    self.shared.fault.retry_backoff_seconds * (1u64 << attempt.min(16)) as f64;
                self.charge(SpanCat::Wait, backoff.max(0.0));
                self.charge(SpanCat::Comm, self.shared.model.p2p_overhead);
                self.stats.retries += 1;
                self.trace_event(TraceKind::Retry, t0, bytes, Some(dst));
            }
            // Latency spike: the delivered copy takes a slow path through
            // the network; receivers see a late arrival.
            spike = self.shared.fault.latency_spike(self.rank, dst, seq);
            if spike > 0.0 {
                let t0 = self.clock;
                self.stats.faults_injected += 1;
                self.trace_event(TraceKind::Fault, t0, bytes, Some(dst));
            }
        }
        let depart = self.nic_free.max(self.clock) + self.shared.model.nic_occupancy(bytes) + spike;
        self.nic_free = depart;
        self.count_p2p_sent(1, bytes);
        let msg = Message { src: self.rank, tag, depart, bytes, corr, payload };
        let addressee_parked = {
            let mut mb = lock(&self.shared.mailboxes.0[dst]);
            mb.queue.push_back(msg);
            mb.waiting
        };
        if addressee_parked {
            if let Some(next) = self.shared.sched.wake_mailbox(dst) {
                self.shared.sched.resume(next);
            }
        }
        (depart, corr)
    }

    /// Blocking receive of a typed buffer from `src` with matching `tag`.
    ///
    /// # Panics
    ///
    /// Panics if the matched message's payload type is not `Vec<T>`.
    pub fn recv<T: Send + 'static>(&mut self, src: usize, tag: u64) -> Vec<T> {
        let mut mb = lock(&self.shared.mailboxes.0[self.rank]);
        // Messages below `scanned` did not match and never will: only this
        // rank removes from its mailbox and deposits go to the back.
        let mut scanned = 0;
        let wanted = |m: &Message| m.tag == tag && m.src == src;
        loop {
            self.shared.check_poison();
            if let Some(pos) = mb.queue.range(scanned..).position(wanted) {
                let msg = mb.queue.remove(scanned + pos).expect("position just found");
                drop(mb);
                let arrival = self.arrival_of(&msg);
                self.account_recv(&msg, arrival);
                return self.unbox_payload(msg);
            }
            scanned = mb.queue.len();
            mb = self.shared.wait_mailbox(self.rank, self.clock, mb);
        }
    }

    /// Combined send to `dst` and receive from `src` (deadlock-free pairwise
    /// exchange, like `MPI_Sendrecv`).
    pub fn sendrecv<T: Send + 'static>(
        &mut self,
        dst: usize,
        send: Vec<T>,
        src: usize,
        tag: u64,
    ) -> Vec<T> {
        self.send(dst, tag, send);
        self.recv(src, tag)
    }

    // ------------------------------------------------- nonblocking requests

    /// Virtual arrival time of a message at this rank: payload time was paid
    /// at injection, the wire adds latency.
    fn arrival_of(&self, msg: &Message) -> f64 {
        let hops = self.shared.hop_table.hops(msg.src, self.rank);
        msg.depart + self.shared.model.wire_latency(hops)
    }

    /// Charge the completion of one matched message that arrives at virtual
    /// time `arrival` ([`Comm::arrival_of`], evaluated once by the caller):
    /// receive overhead as communication, the gap to the arrival as
    /// rendezvous wait. Pure accounting — the payload stays boxed for the
    /// caller to unwrap.
    pub(super) fn account_recv(&mut self, msg: &Message, arrival: f64) {
        self.fault_op_tick();
        let t0 = self.clock;
        let (comm, wait) = self.shared.model.completion_cost(self.clock, arrival);
        self.charge(SpanCat::Comm, comm);
        self.charge(SpanCat::Wait, wait);
        self.count_p2p_recv(1, msg.bytes);
        self.trace_event_corr(TraceKind::Recv, t0, msg.bytes, Some(msg.src), msg.corr);
        self.fault_timeout_check(wait, Some(msg.src));
    }

    /// Take a received payload out of its envelope as `Vec<T>`, with the
    /// uniform mismatch panic, and keep the emptied envelope for the next
    /// typed send ([`Comm::spare_envelopes`]).
    pub(super) fn unbox_payload<T: Send + 'static>(&mut self, msg: Message) -> Vec<T> {
        let Message { src, tag, payload: mut envelope, .. } = msg;
        let data = match envelope.downcast_mut::<Vec<T>>() {
            Some(v) => std::mem::take(v),
            None => panic!("recv type mismatch (src {src}, tag {tag})"),
        };
        if self.spare_envelopes.len() == MAX_SPARE_ENVELOPES {
            self.spare_envelopes.pop_front();
        }
        self.spare_envelopes.push_back(envelope);
        data
    }

    /// The payload of the message [`Comm::waitall_core`] matched to request
    /// `slot`.
    fn take_matched<T: Send + 'static>(&mut self, slot: usize) -> Vec<T> {
        let msg = self.wait_scratch.msgs[slot].take().expect("matched in waitall_core");
        self.unbox_payload(msg)
    }

    /// Charge the completion of a send request that becomes ready at `ready`:
    /// the CPU idles until then (no further overhead — it was paid at post).
    /// A nonblocking send is ready once the NIC has drained it, a synchronous
    /// one once the receiver's match has been acknowledged.
    pub(super) fn complete_send(&mut self, dst: usize, ready: f64, corr: u64) {
        let t0 = self.clock;
        let waited = (ready - self.clock).max(0.0);
        self.charge(SpanCat::Wait, waited);
        self.trace_event_corr(TraceKind::Wait, t0, 0, Some(dst), corr);
        self.fault_timeout_check(waited, Some(dst));
    }

    /// Nonblocking send: deposit the message, pay only the CPU-side post
    /// overhead, and return a [`Request`] that completes once the NIC has
    /// drained the payload. Consecutive posts queue on the NIC timeline, so
    /// their payloads still serialize — but the CPU is free to post more
    /// work or receive other messages meanwhile.
    ///
    /// ```
    /// use simcomm::{run, MachineModel};
    /// let out = run(2, MachineModel::juropa_like(), |comm| {
    ///     let peer = 1 - comm.rank();
    ///     let recv = comm.irecv::<u64>(peer, 0);
    ///     let send = comm.isend(peer, 0, vec![comm.rank() as u64]);
    ///     let got = comm.waitall(vec![recv, send]);
    ///     got[0].clone().expect("receive request yields data")
    /// });
    /// assert_eq!(out.results, vec![vec![1], vec![0]]);
    /// ```
    pub fn isend<T: Send + 'static>(&mut self, dst: usize, tag: u64, data: Vec<T>) -> Request<T> {
        let t0 = self.clock;
        let (depart, bytes, corr) = self.post_send(dst, tag, data);
        self.trace_event_corr(TraceKind::Isend, t0, bytes, Some(dst), corr);
        Request::new(ReqKind::Send { dst, depart, corr })
    }

    /// Nonblocking receive: returns a [`Request`] that completes when a
    /// message from `src` with matching `tag` has arrived. Posting costs
    /// nothing; matching and all time accounting happen at the wait.
    pub fn irecv<T: Send + 'static>(&mut self, src: usize, tag: u64) -> Request<T> {
        assert!(src < self.shared.n, "irecv from invalid rank {src}");
        Request::new(ReqKind::Recv { src, tag })
    }

    /// Wait for a single request. Returns `Some(buffer)` for a receive
    /// request and `None` for a send request — by kind, never by outcome
    /// (see the completion contract on [`Request`]).
    pub fn wait<T: Send + 'static>(&mut self, request: Request<T>) -> Option<Vec<T>> {
        // A batch of one completes exactly like the blocking call it stands
        // for: no matching scratch, no result vector.
        match request.kind {
            ReqKind::Recv { src, tag } => Some(self.recv(src, tag)),
            ReqKind::Send { dst, depart, corr } => {
                self.shared.check_poison();
                self.complete_send(dst, depart, corr);
                None
            }
        }
    }

    /// Wait for a receive request and return its buffer directly — the
    /// uniform way to complete a request that is statically known to be a
    /// receive, instead of unwrapping [`Comm::wait`]'s `Option` ad hoc.
    ///
    /// # Panics
    ///
    /// Panics if `request` is a send request ([`Request::is_recv`] is
    /// `false`); send requests complete without data by contract.
    #[track_caller]
    pub fn wait_recv<T: Send + 'static>(&mut self, request: Request<T>) -> Vec<T> {
        assert!(request.is_recv(), "wait_recv called on a send request");
        self.wait(request).expect("receive request yields data")
    }

    /// Wait for all requests, completing them in **arrival order** rather
    /// than post order: the batch's rendezvous wait covers the latest
    /// outstanding transfer once, not every transfer's latency in sequence
    /// (see [`crate::MachineModel::overlap_completion`]). Returns one entry
    /// per request, in *request order*: `Some(buffer)` for receives, `None`
    /// for sends — by kind, never by outcome (see the completion contract on
    /// [`Request`]).
    ///
    /// Completion order — and therefore every clock and statistic — is a
    /// deterministic function of virtual departure/arrival times, independent
    /// of OS thread scheduling.
    ///
    /// ```
    /// use simcomm::{run, MachineModel};
    /// let out = run(2, MachineModel::juqueen_like(), |comm| {
    ///     let peer = 1 - comm.rank();
    ///     let mut requests = vec![comm.irecv::<u8>(peer, 9)];
    ///     requests.push(comm.isend(peer, 9, vec![comm.rank() as u8; 3]));
    ///     let mut results = comm.waitall(requests);
    ///     (results.remove(0).unwrap(), results.remove(0))
    /// });
    /// assert_eq!(out.results[0], (vec![1, 1, 1], None));
    /// ```
    pub fn waitall<T: Send + 'static>(&mut self, requests: Vec<Request<T>>) -> Vec<Option<Vec<T>>> {
        let mut kinds = std::mem::take(&mut self.wait_scratch.kinds);
        kinds.clear();
        kinds.extend(requests.iter().map(|r| r.kind));
        self.waitall_core(&kinds);
        self.wait_scratch.kinds = kinds;
        requests
            .iter()
            .enumerate()
            .map(|(slot, r)| r.is_recv().then(|| self.take_matched(slot)))
            .collect()
    }

    /// Shared engine of the `waitall` family: match
    /// every receive, then complete all requests in ascending ready-time
    /// order, charging costs exactly as `waitall` always has. Matched
    /// messages are left — accounted, still boxed — in `wait_scratch.msgs`
    /// for the caller to unbox; every scratch vector lives on the `Comm`, so
    /// steady-state waits allocate nothing.
    fn waitall_core(&mut self, kinds: &[ReqKind]) {
        self.shared.check_poison();
        let mut sc = std::mem::take(&mut self.wait_scratch);
        sc.matcher.start(kinds.iter().enumerate().filter_map(|(slot, kind)| match *kind {
            ReqKind::Recv { src, tag } => Some((src, tag, slot)),
            ReqKind::Send { .. } => None,
        }));
        // Block (in real time) until every receive has a matching message,
        // then pull them all out of the mailbox in one critical section. The
        // sends were deposited at post time, so symmetric exchanges cannot
        // deadlock here.
        sc.msgs.clear();
        sc.msgs.resize_with(kinds.len(), || None);
        if !sc.matcher.patterns.is_empty() {
            let mut mb = lock(&self.shared.mailboxes.0[self.rank]);
            loop {
                self.shared.check_poison();
                if sc.matcher.advance(&mb.queue) {
                    break;
                }
                mb = self.shared.wait_mailbox(self.rank, self.clock, mb);
            }
            // Picks are in ascending queue position: remove back to front so
            // earlier positions stay valid.
            for &(slot, qpos) in sc.matcher.picks.iter().rev() {
                sc.msgs[slot] = mb.queue.remove(qpos);
            }
        }
        // Complete in ascending ready-time order (ties broken by request
        // order): this is what makes concurrent transfers cost the max, not
        // the sum, of their remaining latencies.
        sc.order.clear();
        for (slot, kind) in kinds.iter().enumerate() {
            let ready = match *kind {
                ReqKind::Send { depart, .. } => depart,
                ReqKind::Recv { .. } => {
                    self.arrival_of(sc.msgs[slot].as_ref().expect("matched above"))
                }
            };
            sc.order.push((ready, slot));
        }
        sc.order.sort_unstable_by(|a, b| a.partial_cmp(b).expect("virtual times are finite"));
        for &(ready, slot) in &sc.order {
            match kinds[slot] {
                ReqKind::Send { dst, depart, corr } => self.complete_send(dst, depart, corr),
                ReqKind::Recv { .. } => {
                    self.account_recv(sc.msgs[slot].as_ref().expect("matched above"), ready);
                }
            }
        }
        self.wait_scratch = sc;
    }

    /// Move every message of `tag` out of this rank's mailbox into `msgs`,
    /// each beside its arrival time. Never blocks: for a caller that knows
    /// every such message has been deposited.
    pub(super) fn take_tagged(&self, tag: u64, msgs: &mut Vec<(f64, Message)>) {
        let mut mb = lock(&self.shared.mailboxes.0[self.rank]);
        let mut at = 0;
        while at < mb.queue.len() {
            if mb.queue[at].tag == tag {
                let msg = mb.queue.remove(at).expect("position in range");
                msgs.push((self.arrival_of(&msg), msg));
            } else {
                at += 1;
            }
        }
    }

    /// Point-to-point neighbourhood exchange with a known partner set: send
    /// `data[i]` to `partners[i]` and receive one buffer from each partner
    /// (possibly empty), returned in `(src, buffer)` pairs sorted by source.
    ///
    /// Unlike [`Comm::alltoallv`] this is **not** globally synchronizing and is
    /// costed as individual point-to-point messages — this is the operation
    /// Method B uses when the maximum particle movement restricts
    /// redistribution to direct neighbours (Sect. III-B of the paper).
    ///
    /// Both sides must agree on the partner relation (if `a` lists `b`, then
    /// `b` must list `a`). Every partner gets a message, empty or not; where
    /// most partners have nothing to say, [`Comm::sparse_exchange`] pays only
    /// for those that do.
    ///
    /// Implementation: every receive is posted nonblocking up front in
    /// partner order, then every send: to the partners above this rank first,
    /// then wrapping around to the rest, each group in list order. For a
    /// sorted list that is ascending `(q - rank) mod P`, MPI's pairwise
    /// schedule, so on a periodic grid no rank is the last destination of all
    /// its neighbours. The receives are drained in **arrival order**
    /// ([`Comm::waitall`]),
    /// so one slow partner delays the exchange by its own latency only,
    /// instead of stalling on each partner in list order.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not name exactly the ranks in `partners`, in
    /// order — a mismatched partner list would deadlock the exchange.
    pub fn neighbor_exchange<T: Send + 'static>(
        &mut self,
        partners: &[usize],
        mut data: Vec<(usize, Vec<T>)>,
        tag: u64,
    ) -> Vec<(usize, Vec<T>)> {
        check_partner_list(partners, &data);
        let mut out = Vec::with_capacity(partners.len());
        self.routed_exchange_into(partners.iter().copied(), &mut data, &mut out, tag);
        out
    }

    /// Point-to-point exchange whose receivers know their sources: send
    /// every `(dst, buffer)` of `sends`, receive one buffer from each rank
    /// `sources` names, and refill `out` with them as `(src, buffer)` pairs
    /// sorted by source. Nothing synchronizes beyond the messages: no
    /// barrier, no collective, and a rank whose two lists are empty does
    /// nothing at all.
    ///
    /// The lists must agree across ranks: `r` names `s` among its sources
    /// exactly as often as `s` sends to `r`, or the exchange deadlocks.
    /// Every buffer is a message, empty or not. Posting, completion and
    /// every charged cost are those of [`Comm::neighbor_exchange`], which is
    /// this exchange with the partner set as both lists: the receives first,
    /// then the sends by the posting rule (to the ranks above this one
    /// first), drained in arrival order. `sends` comes back empty; once
    /// `out`, the rank's wait scratch and its spare envelopes are warm,
    /// nothing is allocated.
    pub fn routed_exchange_into<T: Send + 'static>(
        &mut self,
        sources: impl IntoIterator<Item = usize>,
        sends: &mut Vec<(usize, Vec<T>)>,
        out: &mut Vec<(usize, Vec<T>)>,
        tag: u64,
    ) {
        // One pass: the request kinds go straight into the wait scratch and
        // the result comes straight out of the matched messages.
        let mut kinds = std::mem::take(&mut self.wait_scratch.kinds);
        kinds.clear();
        for src in sources {
            kinds.push(self.irecv::<T>(src, tag).kind);
        }
        let n_recv = kinds.len();
        posting_order(self.rank, sends, |dst, buf| {
            kinds.push(self.isend(dst, tag, std::mem::take(buf)).kind);
        });
        sends.clear();
        self.waitall_core(&kinds);
        self.wait_scratch.kinds = kinds;
        // Every receive has the same tag, so the matcher's patterns — sorted
        // by (src, tag, slot) — already list the receive slots by source,
        // equal sources in request order.
        out.clear();
        out.reserve(n_recv);
        for i in 0..n_recv {
            let Pattern { src, slot, .. } = self.wait_scratch.matcher.patterns[i];
            out.push((src, self.take_matched(slot)));
        }
    }
}

/// Visit the sends of a point-to-point exchange in the order rank `me` posts
/// them: the destinations above `me` first, then the rest, each group in
/// list order — ascending `(q - me) mod P` for a sorted list, the schedule of
/// MPI's pairwise exchange. In plain ascending order the highest rank of a
/// periodic neighbourhood is every neighbour's last destination, at the back
/// of all their NIC queues; shifted, each slot of the schedule is a
/// permutation. Only when a message leaves changes, never what arrives or the
/// order buffers to one destination keep.
///
/// Always inlined, so each exchange compiles to the plain two-pass loop: an
/// iterator form of this rule cost a 26-neighbour `neighbor_exchange` about
/// a tenth of its host time.
#[inline(always)]
pub(super) fn posting_order<B>(
    me: usize,
    sends: &mut [(usize, B)],
    mut post: impl FnMut(usize, &mut B),
) {
    for upper in [true, false] {
        for (dst, buf) in sends.iter_mut().filter(|(dst, _)| (*dst > me) == upper) {
            post(*dst, buf);
        }
    }
}

/// Validate a neighbour-exchange partner list against the send buffers: a
/// mismatch silently deadlocks the exchange, so this is a hard error in
/// release builds too.
fn check_partner_list<B>(partners: &[usize], data: &[(usize, B)]) {
    assert_eq!(
        partners.len(),
        data.len(),
        "neighbor_exchange: {} send buffers for {} partners",
        data.len(),
        partners.len()
    );
    for (i, ((dst, _), &partner)) in data.iter().zip(partners).enumerate() {
        assert_eq!(
            *dst, partner,
            "neighbor_exchange: send buffer {i} targets rank {dst} but the \
             partner list names rank {partner}; a mismatched partner list \
             deadlocks the exchange"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, MachineModel, Runner, Work, WorldError};

    #[test]
    fn p2p_roundtrip() {
        let out = run(2, MachineModel::juropa_like(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1u64, 2, 3]);
                comm.recv::<u64>(1, 8)
            } else {
                let v = comm.recv::<u64>(0, 7);
                let doubled: Vec<u64> = v.iter().map(|x| x * 2).collect();
                comm.send(0, 8, doubled.clone());
                doubled
            }
        });
        assert_eq!(out.results[0], vec![2, 4, 6]);
        assert_eq!(out.results[1], vec![2, 4, 6]);
        // The receive could not have completed before the send departed.
        assert!(out.clocks[0] > 0.0 && out.clocks[1] > 0.0);
    }

    #[test]
    fn p2p_tag_matching_out_of_order() {
        let out = run(2, MachineModel::ideal(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![10u8]);
                comm.send(1, 2, vec![20u8]);
                0
            } else {
                // Receive in reverse tag order.
                let b = comm.recv::<u8>(0, 2);
                let a = comm.recv::<u8>(0, 1);
                assert_eq!((a, b), (vec![10], vec![20]));
                1
            }
        });
        assert_eq!(out.results, vec![0, 1]);
    }

    #[test]
    fn neighbor_exchange_pairwise() {
        let out = run(4, MachineModel::juqueen_like(), |comm| {
            let r = comm.rank();
            let left = (r + 3) % 4;
            let right = (r + 1) % 4;
            let partners = [left, right];
            let data = vec![(left, vec![r as u32]), (right, vec![r as u32])];
            comm.neighbor_exchange(&partners, data, 0)
        });
        for (r, res) in out.results.iter().enumerate() {
            let left = (r + 3) % 4;
            let right = (r + 1) % 4;
            let mut expect = vec![(left, vec![left as u32]), (right, vec![right as u32])];
            expect.sort_by_key(|&(s, _)| s);
            assert_eq!(res, &expect);
        }
    }

    #[test]
    fn interleaved_isends_match_tags_fifo() {
        let out = run(2, MachineModel::juqueen_like(), |comm| {
            if comm.rank() == 0 {
                let reqs = vec![
                    comm.isend(1, 1, vec![1u64]),
                    comm.isend(1, 2, vec![10u64]),
                    comm.isend(1, 1, vec![2u64]),
                    comm.isend(1, 2, vec![20u64]),
                ];
                let done = comm.waitall(reqs);
                assert!(done.iter().all(Option::is_none), "sends yield no data");
                Vec::new()
            } else {
                // Receive with the tags in a different order than they were
                // sent; FIFO within each tag stream must hold regardless.
                let reqs = vec![
                    comm.irecv::<u64>(0, 2),
                    comm.irecv::<u64>(0, 2),
                    comm.irecv::<u64>(0, 1),
                    comm.irecv::<u64>(0, 1),
                ];
                comm.waitall(reqs)
                    .into_iter()
                    .map(|b| b.expect("receive request yields data")[0])
                    .collect::<Vec<u64>>()
            }
        });
        assert_eq!(out.results[1], vec![10, 20, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "partner list")]
    fn mismatched_partner_list_is_rejected() {
        run(2, MachineModel::ideal(), |comm| {
            let peer = 1 - comm.rank();
            // The send buffer names this rank itself instead of the partner:
            // without the check this would deadlock silently.
            let _ = comm.neighbor_exchange(&[peer], vec![(comm.rank(), vec![1u8])], 0);
        });
    }

    #[test]
    fn a_source_outside_the_world_fails_cleanly() {
        // Rank 0 names a source past the end of the world while rank 1 waits
        // for a message from it: the receive's range check fails rank 0
        // before it posts anything, and the poison wakes rank 1 (not a
        // deadlock).
        let err = Runner::default()
            .try_run(2, MachineModel::ideal(), |comm| {
                let (src, dst) = if comm.rank() == 0 { (3, 1) } else { (0, 0) };
                let mut sends = vec![(dst, vec![comm.rank() as u64])];
                let mut got = Vec::new();
                comm.routed_exchange_into([src], &mut sends, &mut got, 0);
            })
            .err()
            .expect("a source outside the world must fail the world");
        match err {
            WorldError::RankPanic { rank: 0, ref message } => {
                assert!(message.contains("irecv from invalid rank 3"), "unexpected message: {err}")
            }
            other => panic!("expected rank 0's receive panic, got {other}"),
        }
    }

    #[test]
    fn wait_recv_returns_buffer_directly() {
        let out = run(2, MachineModel::ideal(), |comm| {
            let peer = 1 - comm.rank();
            let rx = comm.irecv::<u32>(peer, 0);
            let tx = comm.isend(peer, 0, vec![comm.rank() as u32 + 10]);
            let got = comm.wait_recv(rx);
            let _ = comm.wait(tx);
            got
        });
        assert_eq!(out.results, vec![vec![11], vec![10]]);
    }

    #[test]
    #[should_panic(expected = "wait_recv called on a send request")]
    fn wait_recv_rejects_send_requests() {
        run(2, MachineModel::ideal(), |comm| {
            let peer = 1 - comm.rank();
            let rx = comm.irecv::<u32>(peer, 0);
            let tx = comm.isend(peer, 0, vec![1u32]);
            let _ = comm.wait_recv(tx); // wrong kind: must panic
            let _ = comm.wait(rx);
        });
    }

    #[test]
    fn envelopes_are_reused_across_element_types() {
        // One rank pair walks through three element types and every receive
        // flavour. After the first round trip of a type, the receiver's
        // emptied envelope carries its next send of that type.
        let out = run(2, MachineModel::juqueen_like(), |comm| {
            let peer = 1 - comm.rank();
            let me = comm.rank() as u8;
            let mut spare_counts = Vec::new();
            // u8 through send / recv.
            comm.send(peer, 1, vec![me; 3]);
            let a: Vec<u8> = comm.recv(peer, 1);
            spare_counts.push(comm.spare_envelopes.len());
            // f64 through sendrecv: the u8 envelope cannot carry it.
            let b = comm.sendrecv(peer, vec![me as f64 + 0.5], peer, 2);
            spare_counts.push(comm.spare_envelopes.len());
            // (u32, u32) through isend / irecv / waitall.
            let reqs = vec![comm.irecv(peer, 3), comm.isend(peer, 3, vec![(me as u32, 7u32)])];
            let c = comm.waitall(reqs).remove(0).expect("receive yields data");
            spare_counts.push(comm.spare_envelopes.len());
            // u8 again through isend / irecv / wait: reuses the first envelope.
            let tx = comm.isend(peer, 4, vec![me + 10]);
            spare_counts.push(comm.spare_envelopes.len());
            let rx = comm.irecv::<u8>(peer, 4);
            let d = comm.wait(rx);
            assert_eq!(comm.wait(tx), None);
            // f64 again through send / recv.
            comm.send(peer, 5, vec![me as f64 - 0.5]);
            spare_counts.push(comm.spare_envelopes.len());
            let e: Vec<f64> = comm.recv(peer, 5);
            spare_counts.push(comm.spare_envelopes.len());
            (a, b, c, d.expect("receive yields data"), e, spare_counts)
        });
        for (rank, (a, b, c, d, e, spare_counts)) in out.results.into_iter().enumerate() {
            let peer = 1 - rank as u8;
            assert_eq!(a, vec![peer; 3]);
            assert_eq!(b, vec![peer as f64 + 0.5]);
            assert_eq!(c, vec![(peer as u32, 7)]);
            assert_eq!(d, vec![peer + 10]);
            assert_eq!(e, vec![peer as f64 - 0.5]);
            // One envelope per type accumulates; a send of a held type takes
            // one out and the matching receive puts one back.
            assert_eq!(spare_counts, vec![1, 2, 3, 2, 2, 3], "rank {rank}");
        }
    }

    #[test]
    fn spare_envelopes_stay_bounded() {
        let out = run(2, MachineModel::ideal(), |comm| {
            if comm.rank() == 0 {
                for k in 0..3 * MAX_SPARE_ENVELOPES {
                    comm.send(1, 0, vec![k as u32]);
                }
                0
            } else {
                // Receives only: nothing ever takes an envelope back out.
                for _ in 0..3 * MAX_SPARE_ENVELOPES {
                    let _: Vec<u32> = comm.recv(0, 0);
                }
                comm.spare_envelopes.len()
            }
        });
        assert_eq!(out.results[1], MAX_SPARE_ENVELOPES);
    }

    #[test]
    #[should_panic(expected = "recv type mismatch (src 0, tag 3)")]
    fn typed_receive_of_the_wrong_type_panics_after_envelope_reuse() {
        run(2, MachineModel::ideal(), |comm| {
            let peer = 1 - comm.rank();
            // Warm the envelope lists first, so the mismatching message
            // travels in a recycled envelope.
            let _ = comm.sendrecv(peer, vec![1u64], peer, 1);
            let _ = comm.sendrecv(peer, vec![2u64], peer, 2);
            if comm.rank() == 0 {
                comm.send(1, 3, vec![3u64]);
            } else {
                let _: Vec<f32> = comm.recv(0, 3);
            }
        });
    }

    #[test]
    fn single_request_wait_costs_what_waitall_of_one_costs() {
        let program = |batch: bool| {
            Runner::default().traced(true).run(2, MachineModel::juqueen_like(), move |comm| {
                let peer = 1 - comm.rank();
                comm.compute(Work::ParticleOp, 300.0 * comm.rank() as f64);
                let rx = comm.irecv::<u64>(peer, 0);
                let tx = comm.isend(peer, 0, vec![comm.rank() as u64; 40]);
                if batch {
                    let got = comm.waitall(vec![rx]).remove(0);
                    let none = comm.waitall(vec![tx]).remove(0);
                    (got, none)
                } else {
                    (comm.wait(rx), comm.wait(tx))
                }
            })
        };
        let (one, batch) = (program(false), program(true));
        assert_eq!(one.results, batch.results);
        assert_eq!(one.stats, batch.stats);
        for (a, b) in one.clocks.iter().zip(&batch.clocks) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in one.traces.iter().zip(&batch.traces) {
            assert_eq!(a.events, b.events);
        }
    }
}
