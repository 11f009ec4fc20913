//! The simulated world: rank execution, mailboxes, collectives, and per-rank
//! virtual clocks.
//!
//! [`run`] hands each of `n` simulated ranks a [`Comm`] and executes them
//! under a cooperative discrete-event scheduler (see [`Runner`] and
//! `engine.rs`). Rank code is written exactly like an MPI program:
//! blocking point-to-point `send`/`recv`, collective operations that all
//! ranks of the world enter in the same order, and a Cartesian-topology
//! helper (see [`crate::cart`]).
//!
//! Data exchange is real (typed buffers move between threads through shared
//! memory); *time* is virtual: every operation advances the calling rank's
//! clock according to the world's [`MachineModel`], and synchronizing
//! operations propagate clock values the way the real operation would
//! (a receive cannot complete before the matching send departed; a collective
//! cannot complete before its last participant arrived).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::engine::{Deadlock, Engine, HostCounters, Scheduler, WaitSite};
use crate::error::WorldError;
use crate::fault::FaultPlan;
use crate::model::{CollTerms, HopTable, MachineModel, Work};
use crate::phase::{aggregate_phases, PhaseAgg, PhaseProfile, PhaseSegment, PhaseStats};
use crate::pool::BufferPool;
use crate::trace::{SpanCat, Trace, TraceKind};

mod sparse;

/// Lock a mutex, ignoring std poisoning: cross-rank failure propagation is
/// handled by the world's own poison flag (see [`WorldShared::poison`]).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One receive request of a wait. Ordered by `(src, tag, slot)`, which puts
/// the requests of one `(src, tag)` stream side by side in request order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Pattern {
    src: usize,
    tag: u64,
    /// Index of the request in the caller's batch.
    slot: usize,
}

/// Matches the receive requests of one wait against the rank's mailbox: the
/// k-th queued message of a `(src, tag)` stream goes to the k-th request for
/// it. Lives in [`WaitScratch`], so matching allocates nothing after
/// warm-up.
///
/// One scan: the patterns are sorted once per wait and each queued message
/// is looked up by a single binary search that lands on the first unmatched
/// request of its stream. The scan is incremental across wakeups: only the
/// owner removes from its mailbox and deposits go to the back, so positions
/// examined by an earlier [`Matcher::advance`] are stable, and a message
/// that found no unmatched request then can find none later.
#[derive(Default)]
struct Matcher {
    patterns: Vec<Pattern>,
    /// Per-pattern "a queued message has been picked for it" flags. Matching
    /// is FIFO, so within one stream the taken patterns are a prefix.
    taken: Vec<bool>,
    /// `(slot, queue position)` picks so far, in ascending queue position.
    picks: Vec<(usize, usize)>,
    /// Queue positions below this have been examined.
    scanned: usize,
}

impl Matcher {
    /// Begin a wait over the given `(src, tag, slot)` receive requests.
    fn start(&mut self, recvs: impl Iterator<Item = (usize, u64, usize)>) {
        self.patterns.clear();
        self.patterns.extend(recvs.map(|(src, tag, slot)| Pattern { src, tag, slot }));
        self.patterns.sort_unstable();
        self.taken.clear();
        self.taken.resize(self.patterns.len(), false);
        self.picks.clear();
        self.scanned = 0;
    }

    /// Index of the first unmatched pattern of the `(src, tag)` stream: one
    /// binary search, because "sorts before the stream, or belongs to it and
    /// is taken" holds for a prefix of the sorted patterns.
    fn first_free(&self, src: usize, tag: u64) -> Option<usize> {
        let key = (src, tag);
        let (mut lo, mut hi) = (0, self.patterns.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let p = &self.patterns[mid];
            if (p.src, p.tag) < key || ((p.src, p.tag) == key && self.taken[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.patterns.get(lo).is_some_and(|p| (p.src, p.tag) == key).then_some(lo)
    }

    /// Examine the messages queued since the last call. Returns `true` once
    /// every pattern has a pick, `false` if the queue cannot satisfy them all
    /// yet (call again after the next wakeup).
    fn advance(&mut self, q: &VecDeque<Message>) -> bool {
        while self.picks.len() < self.patterns.len() {
            let Some(m) = q.get(self.scanned) else { return false };
            if let Some(i) = self.first_free(m.src, m.tag) {
                self.taken[i] = true;
                self.picks.push((self.patterns[i].slot, self.scanned));
            }
            self.scanned += 1;
        }
        true
    }
}

/// The O(queue × patterns) greedy matcher [`Matcher`] replaced, kept as its
/// oracle: match every `(slot, src, tag)` pattern against the whole queue in
/// FIFO order, restarting from the head on every call.
#[cfg(test)]
fn match_requests_greedy(
    q: &VecDeque<Message>,
    patterns: &[(usize, usize, u64)],
    picks: &mut Vec<(usize, usize)>,
) -> bool {
    let mut taken = vec![false; patterns.len()];
    picks.clear();
    if patterns.is_empty() {
        return true;
    }
    for (qpos, m) in q.iter().enumerate() {
        if let Some(i) = patterns
            .iter()
            .enumerate()
            .position(|(i, &(_, src, tag))| !taken[i] && m.src == src && m.tag == tag)
        {
            taken[i] = true;
            picks.push((patterns[i].0, qpos));
            if picks.len() == patterns.len() {
                return true;
            }
        }
    }
    false
}

/// A type-erased in-flight message.
struct Message {
    src: usize,
    tag: u64,
    /// Virtual time at which the message left the sender.
    depart: f64,
    /// Payload size in bytes (for costing).
    bytes: u64,
    /// World-unique correlation id stamped at post time (see
    /// [`crate::TraceEvent::corr`]).
    corr: u64,
    payload: Box<dyn Any + Send>,
}

/// Mailbox of one destination rank (each behind its own mutex in
/// [`WorldShared::mailboxes`]).
#[derive(Default)]
struct Mailbox {
    queue: VecDeque<Message>,
    /// The owner is (or was, until it next relocks) parked on this mailbox.
    /// Set and read under the mailbox guard: a sender that finds it clear
    /// skips the global scheduler lock — the owner is running and will see
    /// the deposit under this guard before it can decide to wait.
    waiting: bool,
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
/// [`FaultPlan`] too: a transiently lost send is retransmitted internally
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
/// (see [`Runner`]). If every live rank ends up suspended at a wait, the
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
struct WaitScratch {
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

/// One entry in a rank's all-to-all-v bin: where the receiver finds a message
/// addressed to it. The payload itself stays in the sender's deposit cell
/// until the receiver takes or copies it, so a sender ships one envelope per
/// call however many destinations it has.
#[derive(Clone, Copy)]
struct BinEntry {
    src: usize,
    /// Where the message sits in the sender's deposit: its position in a
    /// send list, or the offset of its first element in a flat payload.
    index: usize,
    /// Elements in the message.
    len: usize,
}

/// Envelopes set aside per rank and slot (and per slot's result) at most. A
/// program's collectives cycle through a handful of types per step; one that
/// cycles through more re-boxes the longest unused.
const MAX_ENVELOPES_ASIDE: usize = 16;

/// The envelope in `current` as an `A`: kept as it is when it already is one
/// (the caller overwrites or refills it in place); otherwise it is set aside
/// for when its type comes round again, and the `A` set aside earlier — or a
/// new `A::default()` — takes its place. A step whose collectives alternate
/// types therefore boxes nothing once every type has been seen.
fn envelope_as<'a, A: Default + Send + 'static>(
    current: &'a mut Box<dyn Any + Send>,
    aside: &mut Vec<Box<dyn Any + Send>>,
) -> &'a mut A {
    if !current.is::<A>() {
        let wanted: Box<dyn Any + Send> = match aside.iter().position(|e| e.is::<A>()) {
            Some(at) => aside.remove(at),
            None => Box::new(A::default()),
        };
        let displaced = std::mem::replace(current, wanted);
        // The unit a cell starts with is not worth keeping.
        if !displaced.is::<()>() {
            if aside.len() == MAX_ENVELOPES_ASIDE {
                aside.remove(0);
            }
            aside.push(displaced);
        }
    }
    current.downcast_mut::<A>().expect("type checked above")
}

/// The payload of a flat all-to-all-v ([`Comm::alltoallv_flat`]) in its
/// sender's cell.
struct FlatDeposit<T> {
    /// What the receivers copy their messages out of.
    payload: Vec<T>,
    /// Messages not yet copied out; whoever copies the last one frees the
    /// payload, so it lives exactly as long as a moved buffer would.
    unread: usize,
}

impl<T> Default for FlatDeposit<T> {
    fn default() -> Self {
        FlatDeposit { payload: Vec::new(), unread: 0 }
    }
}

/// One of the world's two collective slots. Every rank counts the
/// collectives it has entered ([`Comm::coll_seq`]; all ranks enter them in
/// the same order), and collective number `k` uses slot `k % 2`. Two slots
/// suffice: a rank enters collective `k + 2` only after `k + 1` completed,
/// `k + 1` completes only when every rank has deposited into it, and a rank
/// deposits into `k + 1` only after it has read the result of `k` — so when
/// the first deposit of `k + 2` lands in this slot, every rank has finished
/// reading `k` out of it. A collective therefore has exactly one rendezvous
/// wait, for its own last depositor; nobody waits for readers.
struct CollSlot {
    /// Collectives completed in this slot; a depositor that is not the last
    /// waits until it moves on.
    generation: u64,
    arrived: usize,
    max_clock: f64,
    /// Per-rank deposit envelopes. An envelope stays in its cell, and the
    /// rank's next deposit of the same type into this slot refills it in
    /// place; one of another type takes its place while it waits on the
    /// rank's own side ([`Comm::coll_aside`], [`envelope_as`]).
    cells: Vec<Box<dyn Any + Send>>,
    /// The last depositor's result, kept and refilled under the same rule,
    /// with the results of other types set aside.
    result: Box<dyn Any + Send>,
    results_aside: Vec<Box<dyn Any + Send>>,
    /// Per-destination all-to-all-v bins of the collective in progress;
    /// each rank drains its own when it reads.
    bins: Vec<Vec<BinEntry>>,
}

impl CollSlot {
    fn new(n: usize) -> CollSlot {
        // A boxed unit is not an allocation.
        let empty = || Box::new(()) as Box<dyn Any + Send>;
        CollSlot {
            generation: 0,
            arrived: 0,
            max_clock: 0.0,
            cells: (0..n).map(|_| empty()).collect(),
            result: empty(),
            results_aside: Vec::new(),
            bins: vec![Vec::new(); n],
        }
    }

    /// Deposit `value` as `rank`'s contribution (`aside`: the envelopes the
    /// rank has set aside for this slot).
    fn put<T: Send + 'static>(
        &mut self,
        rank: usize,
        aside: &mut Vec<Box<dyn Any + Send>>,
        value: T,
    ) {
        *envelope_as::<Option<T>>(&mut self.cells[rank], aside) = Some(value);
    }

    /// For the last depositor: the contributions of the collective that just
    /// filled the slot, taken out of their cells **in ascending rank order**
    /// (the order every fold runs in — part of the bitwise contract), beside
    /// the result envelope as an `A`.
    fn deposits_and_result<T, A>(&mut self) -> (impl Iterator<Item = T> + '_, &mut A)
    where
        T: 'static,
        A: Default + Send + 'static,
    {
        let deposits = self.cells.iter_mut().map(|cell| {
            cell.downcast_mut::<Option<T>>()
                .expect("collective type mismatch")
                .take()
                .expect("missing deposit")
        });
        (deposits, envelope_as::<A>(&mut self.result, &mut self.results_aside))
    }

    /// [`CollSlot::deposits_and_result`] for the collectives whose result is
    /// the contributions themselves, in rank order.
    fn gather<T: Send + 'static>(&mut self) {
        let (deposits, all) = self.deposits_and_result::<T, Vec<T>>();
        all.clear();
        all.extend(deposits);
    }

    /// The result the last depositor published.
    fn result<A: 'static>(&self) -> &A {
        self.result.downcast_ref::<A>().expect("collective aggregate type mismatch")
    }

    /// For an all-to-all-v receiver: `rank`'s bin entries, sorted by source
    /// (entries of one source in the order it listed them), beside the
    /// deposit cells they point into. Leaves the bin empty for the next
    /// collective in this slot.
    fn drain_bin(
        &mut self,
        rank: usize,
    ) -> (std::vec::Drain<'_, BinEntry>, &mut [Box<dyn Any + Send>]) {
        let bin = &mut self.bins[rank];
        bin.sort_unstable_by_key(|e| (e.src, e.index));
        (bin.drain(..), &mut self.cells)
    }
}

/// The current deposit of `src` among `cells` ([`CollSlot::drain_bin`]) as a
/// `D`, for an all-to-all-v receiver.
fn deposit_of<D: 'static>(cells: &mut [Box<dyn Any + Send>], src: usize) -> &mut D {
    cells[src]
        .downcast_mut::<D>()
        .unwrap_or_else(|| panic!("alltoallv type mismatch from rank {src}"))
}

pub(crate) struct WorldShared {
    pub n: usize,
    pub model: MachineModel,
    /// Hop distances and collective cost terms of this world size, computed
    /// once: no per-message or per-collective path factorises `n`.
    hop_table: HopTable,
    coll_terms: CollTerms,
    mailboxes: Vec<Mutex<Mailbox>>,
    coll: [Mutex<CollSlot>; 2],
    poisoned: AtomicBool,
    /// First recorded failure cause: the typed error [`Runner::try_run`]
    /// returns. Writers use [`WorldShared::fail`] (first-wins), so secondary
    /// poison-induced panics never overwrite the original cause.
    failure: Mutex<Option<WorldError>>,
    /// The world's fault-injection plan (inert unless [`Runner::faulted`] set one).
    fault: FaultPlan,
    /// Cached `fault.is_active()`: the single branch every hot-path fault
    /// hook takes in clean worlds.
    fault_active: bool,
    sched: Scheduler,
}

impl WorldShared {
    fn new(n: usize, model: MachineModel, fault: FaultPlan, width: usize) -> Self {
        let fault_active = fault.is_active();
        WorldShared {
            n,
            hop_table: model.hop_table(n),
            coll_terms: model.coll_terms(n),
            model,
            fault,
            fault_active,
            mailboxes: (0..n).map(|_| Mutex::default()).collect(),
            coll: [Mutex::new(CollSlot::new(n)), Mutex::new(CollSlot::new(n))],
            poisoned: AtomicBool::new(false),
            failure: Mutex::new(None),
            sched: Scheduler::new(n, width),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.sched.wake_all();
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("simcomm world poisoned: another rank failed");
        }
    }

    /// Record the world's failure cause, first writer wins. Every poison site
    /// records its cause *before* poisoning, so the secondary panics of the
    /// woken ranks can never claim to be the origin.
    fn fail(&self, err: WorldError) {
        let mut f = lock(&self.failure);
        if f.is_none() {
            *f = Some(err);
        }
    }

    /// A blocking site detected a virtual deadlock: record the typed cause,
    /// poison the world so every blocked rank unwinds, and unwind this rank
    /// with the display form (callers of the panicking `run*` entry points
    /// see it verbatim).
    fn report_deadlock(&self, d: Deadlock) -> ! {
        let err = WorldError::VirtualDeadlock {
            live: d.live,
            rank: d.rank,
            site: format!("{:?}", d.site),
            clock: d.clock,
        };
        let msg = err.to_string();
        self.fail(err);
        self.poison();
        panic!("{msg}");
    }

    /// The one blocking protocol, shared by the mailbox and the collective
    /// slot: `rank` found its predicate false under `guard` (the lock of
    /// `m`), so it registers as blocked with the scheduler **while still
    /// holding the guard**, releases it, hands the baton to the successor the
    /// scheduler picked, parks until re-dispatched, and relocks. A signaller
    /// changes the guarded state before it wakes, so it finds the waiter
    /// either not yet decided or already registered — no wakeup can fall in
    /// between. The baton is handed on with no lock held (guard → scheduler
    /// state nest; baton cells stand alone): the successor may run the
    /// instant it is woken and must not find either lock taken. Returns with
    /// the guard held and the predicate possibly still false (deposit, phase
    /// change or poison) — every caller loops.
    fn wait_on<'a, T>(
        &self,
        rank: usize,
        site: WaitSite,
        clock: f64,
        m: &'a Mutex<T>,
        guard: MutexGuard<'a, T>,
    ) -> MutexGuard<'a, T> {
        let registered = self.sched.block(rank, site, clock);
        drop(guard);
        match registered {
            Ok(next) => {
                if let Some(next) = next {
                    self.sched.resume(next);
                }
                self.sched.wait_for_turn(rank);
            }
            Err(d) => self.report_deadlock(d),
        }
        lock(m)
    }

    /// [`WorldShared::wait_on`] for `rank`'s own mailbox, raising its
    /// `waiting` flag for the time the rank may be parked.
    fn wait_mailbox<'a>(
        &'a self,
        rank: usize,
        clock: f64,
        mut mb: MutexGuard<'a, Mailbox>,
    ) -> MutexGuard<'a, Mailbox> {
        mb.waiting = true;
        let mut mb = self.wait_on(rank, WaitSite::Mailbox, clock, &self.mailboxes[rank], mb);
        mb.waiting = false;
        mb
    }

    /// Rank-thread epilogue: retire the task and hand the baton on. If this
    /// rank exited while every remaining rank is blocked, no virtual event
    /// can ever wake them — record the deadlock and poison the world (which
    /// restarts dispatch) so the survivors fail fast instead of hanging.
    fn retire_rank(&self, rank: usize, clock: f64) {
        match self.sched.retire(rank) {
            Ok(Some(next)) => self.sched.resume(next),
            Ok(None) => {}
            Err(live) => {
                self.fail(WorldError::VirtualDeadlock {
                    live,
                    rank,
                    site: "rank-exit".to_string(),
                    clock,
                });
                self.poison();
            }
        }
    }
}

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

/// The per-rank communicator handle: the interface rank code programs against.
///
/// All collective operations must be entered by **every** rank of the world in
/// the same order (SPMD), exactly like MPI collectives on `MPI_COMM_WORLD`.
pub struct Comm {
    shared: Arc<WorldShared>,
    rank: usize,
    clock: f64,
    /// Virtual time until which this rank's (shared) NIC is busy injecting
    /// previously posted messages; the next message departs no earlier.
    nic_free: f64,
    stats: RankStats,
    trace: Option<Trace>,
    /// Open phase spans, innermost last; all accounting goes to the top entry.
    phase_stack: Vec<&'static str>,
    /// Virtual time the current attribution segment started.
    seg_start: f64,
    profile: PhaseProfile,
    /// Monotonic send counter in program order: the source of per-message
    /// correlation ids. Identical under both engines (message posting is a
    /// pure function of the rank program), so correlation ids — like every
    /// other traced quantity — are bitwise engine-independent.
    send_seq: u64,
    /// Monotonic send counter: the per-message fault-draw stream id.
    fault_send_seq: u64,
    /// Monotonic communication-operation counter (the stall trigger clock).
    fault_ops: u64,
    /// The scheduled stall fired on this rank already (stalls are one-shot).
    fault_stall_fired: bool,
    /// This rank is a straggler under the world's fault plan.
    fault_straggler: bool,
    /// The straggler slowdown has been counted/traced once already.
    fault_straggler_noted: bool,
    /// Per-partner arena of reusable message buffers (see [`crate::pool`]).
    pool: BufferPool,
    /// Reusable scratch for the `waitall` family.
    wait_scratch: WaitScratch,
    /// Emptied payload envelopes of received messages (each a
    /// `Box<Vec<T>>` for some `T`, bytes included), most recent last; the
    /// next send of a matching element type refills one instead of boxing.
    /// In a symmetric exchange every envelope shipped out is replaced by one
    /// shipped in.
    spare_envelopes: VecDeque<Box<dyn Any + Send>>,
    /// Collectives this rank has entered; its parity selects the slot the
    /// next one uses (see [`CollSlot`]).
    coll_seq: u64,
    /// Per slot: the deposit envelopes of other types than the one in this
    /// rank's cell, waiting for their type to come round again
    /// ([`envelope_as`]).
    coll_aside: [Vec<Box<dyn Any + Send>>; 2],
    /// Tasks a completed collective made this rank responsible for resuming
    /// once it has released the slot's guard.
    woken: Vec<usize>,
    /// Reusable `(partner, buffer)` pair scratch, loaned to higher layers
    /// (e.g. `atasp::resort_planes`) so their exchanges stay allocation-free.
    byte_pairs_a: Vec<(usize, Vec<u8>)>,
    byte_pairs_b: Vec<(usize, Vec<u8>)>,
    /// Reusable scratch of [`Comm::sparse_exchange`].
    sparse: sparse::SparseScratch,
}

/// Result of running a world: per-rank return values, final clocks and stats.
pub struct RunOutput<R> {
    /// Rank closures' return values, indexed by rank.
    pub results: Vec<R>,
    /// Final virtual clock of each rank (seconds).
    pub clocks: Vec<f64>,
    /// Per-rank traffic/time statistics.
    pub stats: Vec<RankStats>,
    /// Per-rank communication traces (empty unless [`Runner::traced`] was set).
    pub traces: Vec<Trace>,
    /// Per-rank phase profiles (see [`Comm::enter_phase`]). Aggregates are
    /// always collected; attribution segments only in traced worlds.
    pub phases: Vec<PhaseProfile>,
    /// How the scheduler executed the run on this host. Unlike every other
    /// field this is *not* a function of the program and the machine model:
    /// it is excluded from the bitwise contract and from every digest.
    pub host: HostCounters,
}

impl<R> RunOutput<R> {
    /// The maximum final virtual clock — the world's makespan in seconds.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().cloned().fold(0.0, f64::max)
    }

    /// Cross-rank per-phase aggregate table (critical path, mean, imbalance,
    /// traffic), with an `"(untagged)"` row covering everything outside phase
    /// spans. See [`aggregate_phases`].
    pub fn phase_table(&self) -> Vec<PhaseAgg> {
        aggregate_phases(&self.phases, &self.stats)
    }
}

/// Bound on [`Comm::spare_envelopes`]: room for both directions of a
/// 26-neighbour exchange; beyond it the oldest envelope is freed, so a rank
/// that changes element type ages the old type's envelopes out.
const MAX_SPARE_ENVELOPES: usize = 64;

/// Stack size for simulated rank threads. Rank code keeps its bulk data on the
/// heap, so a small stack lets worlds of many thousands of ranks fit easily.
const RANK_STACK_BYTES: usize = 1 << 20;

/// Configures and runs simulated worlds: the builder-style entry point that
/// composes optional tracing, an optional [`FaultPlan`], an optional
/// wall-clock deadline and the host batch width. The free function
/// [`run`] is `Runner::default().run`.
///
/// Output is a pure function of the program and the machine model — same
/// results, same clocks, same statistics, traces and fault draws, bit for
/// bit, however many host cores the scheduler batches ranks onto:
///
/// ```
/// use simcomm::{MachineModel, Runner};
///
/// let program = |comm: &mut simcomm::Comm| {
///     let peer = comm.size() - 1 - comm.rank();
///     let got = comm.sendrecv(peer, vec![comm.rank() as u64], peer, 7);
///     comm.allreduce(got[0], |a, b| a + b)
/// };
/// let out = Runner::default().run(8, MachineModel::juqueen_like(), program);
/// assert_eq!(out.results, [28; 8]);
/// // Bitwise, not approximately: the value the retired thread-per-rank
/// // engine produced for this program.
/// assert_eq!(out.makespan().to_bits(), 0x3eea_9d7d_078d_d5cb);
/// ```
#[derive(Clone, Debug)]
pub struct Runner {
    traced: bool,
    fault: FaultPlan,
    deadline: Option<Duration>,
    host_parallelism: Option<usize>,
}

impl Default for Runner {
    /// Tracing off, the inert fault plan, no deadline, as many ranks at a
    /// time as the host has cores.
    fn default() -> Runner {
        Runner { traced: false, fault: FaultPlan::none(), deadline: None, host_parallelism: None }
    }
}

impl Runner {
    /// [`Runner::default`], spelled the way the frozen
    /// `benchmark/src/adapter.rs` does; see the one-variant [`Engine`] shim.
    pub fn new(_engine: Engine) -> Runner {
        Runner::default()
    }

    /// Enable or disable per-rank communication tracing (see
    /// [`RunOutput::traces`]).
    pub fn traced(mut self, traced: bool) -> Runner {
        self.traced = traced;
        self
    }

    /// Inject the deterministic faults described by `fault` (see
    /// [`FaultPlan`]); [`FaultPlan::none`] restores the clean world.
    pub fn faulted(mut self, fault: FaultPlan) -> Runner {
        self.fault = fault;
        self
    }

    /// Set a wall-clock deadline for the whole run (`None` disables it, the
    /// default). When the deadline elapses before the world completes, a
    /// watchdog poisons the world: every rank blocked in a communication
    /// operation wakes and unwinds, and the run fails with
    /// [`WorldError::DeadlineExceeded`]. This is how supervisors retire runs
    /// that stall in real time — rank code stuck in a host-side wait or
    /// simply slower than budgeted. (A world waiting on a message that is
    /// never sent does not need it: that is a
    /// [`WorldError::VirtualDeadlock`], reported without waiting.)
    ///
    /// The watchdog can only interrupt ranks at communication operations
    /// (every blocking site rechecks the poison flag); a rank spinning in
    /// pure host compute is not preemptible in-process.
    pub fn deadline(mut self, deadline: Option<Duration>) -> Runner {
        self.deadline = deadline;
        self
    }

    /// Run at most `width` ranks at a time instead of one per core the
    /// process may use (`std::thread::available_parallelism`, the default).
    /// Output is bitwise identical at any width — which is what this knob is
    /// for: the determinism suites run every frozen digest at widths 1, 2, 8
    /// and `P`, also above the host's core count, where the OS interleaves
    /// the batch. Only [`RunOutput::host`] differs.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    pub fn host_parallelism(mut self, width: usize) -> Runner {
        assert!(width >= 1, "host_parallelism needs a width of at least one");
        self.host_parallelism = Some(width);
        self
    }

    /// Run a simulated world of `n` ranks under the given machine model,
    /// invoking the closure once per rank with that rank's [`Comm`].
    ///
    /// # Panics
    ///
    /// If the world fails ([`Runner::try_run`] returns an error), `run`
    /// panics with `"simcomm world failed: {error}"`. Supervisors that need
    /// to distinguish failure causes use [`Runner::try_run`] instead.
    pub fn run<R, F>(&self, n: usize, model: MachineModel, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        self.try_run(n, model, f).unwrap_or_else(|e| panic!("simcomm world failed: {e}"))
    }

    /// Like [`Runner::run`], but returning the typed failure cause instead of
    /// panicking when the world fails: the first rank panic
    /// ([`WorldError::RankPanic`]), a virtual deadlock
    /// ([`WorldError::VirtualDeadlock`]), a refused
    /// thread spawn ([`WorldError::SpawnFailed`]), or an elapsed wall-clock
    /// deadline ([`WorldError::DeadlineExceeded`]).
    ///
    /// This is the supervision entry point: expected operational failures
    /// come back as values, while the panic path remains only for invariant
    /// violations inside the harness itself.
    ///
    /// ```
    /// use simcomm::{MachineModel, Runner, WorldError};
    ///
    /// let err = Runner::default()
    ///     .try_run(2, MachineModel::ideal(), |comm| {
    ///         if comm.rank() == 1 {
    ///             let _: Vec<u8> = comm.recv(0, 99); // never sent
    ///         }
    ///     })
    ///     .err()
    ///     .expect("a receive with no matching send must deadlock");
    /// assert_eq!(err.kind(), "deadlock");
    /// assert!(matches!(err, WorldError::VirtualDeadlock { live: 1, .. }));
    /// ```
    pub fn try_run<R, F>(
        &self,
        n: usize,
        model: MachineModel,
        f: F,
    ) -> Result<RunOutput<R>, WorldError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        try_run_with(self, n, model, f)
    }
}

/// Run a simulated world of `n` ranks under the given machine model:
/// [`Runner::default`]'s `run`.
///
/// The closure is invoked once per rank with that rank's [`Comm`]. Returns
/// per-rank results, final virtual clocks and statistics. Use a [`Runner`]
/// for tracing, fault injection or a typed error.
///
/// # Panics
///
/// If any rank's closure panics, the world is poisoned (all blocked ranks are
/// woken and panic too) and `run` itself panics with the original message.
///
/// ```
/// use simcomm::{run, MachineModel};
/// let out = run(4, MachineModel::ideal(), |comm| {
///     let sum: u64 = comm.allreduce(comm.rank() as u64, |a, b| a + b);
///     sum
/// });
/// assert!(out.results.iter().all(|&s| s == 0 + 1 + 2 + 3));
/// ```
pub fn run<R, F>(n: usize, model: MachineModel, f: F) -> RunOutput<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    Runner::default().run(n, model, f)
}

fn try_run_with<R, F>(
    cfg: &Runner,
    n: usize,
    model: MachineModel,
    f: F,
) -> Result<RunOutput<R>, WorldError>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    assert!(n >= 1, "world must have at least one rank");
    let Runner { traced, deadline, host_parallelism, ref fault } = *cfg;
    let width = host_parallelism
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    let shared = Arc::new(WorldShared::new(n, model, fault.clone(), width));
    type Slot<R> = Mutex<Option<(R, f64, RankStats, Trace, PhaseProfile)>>;
    let slots: Vec<Slot<R>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Completion signal for the deadline watchdog (scoped, so it can borrow).
    let watchdog_done: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());
    let mut escaped = None;

    std::thread::scope(|scope| {
        if let Some(limit) = deadline {
            let shared = Arc::clone(&shared);
            let watchdog_done = &watchdog_done;
            scope.spawn(move || {
                let (m, cv) = watchdog_done;
                let expiry = Instant::now() + limit;
                let mut done = lock(m);
                while !*done {
                    let now = Instant::now();
                    if now >= expiry {
                        drop(done);
                        // Configured limit, not measured time: the error is a
                        // pure function of the run configuration.
                        shared.fail(WorldError::DeadlineExceeded { seconds: limit.as_secs_f64() });
                        shared.poison();
                        return;
                    }
                    done = cv
                        .wait_timeout(done, expiry - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0;
                }
            });
        }
        let mut handles = Vec::with_capacity(n);
        for rank in 0..n {
            let f = &f;
            let slots = &slots;
            let task = {
                let shared = Arc::clone(&shared);
                move || {
                    // Park until the scheduler hands this rank the baton for
                    // the first time.
                    shared.sched.wait_for_turn(rank);
                    let straggler = shared.fault_active && shared.fault.straggles(rank);
                    let mut comm = Comm {
                        shared: Arc::clone(&shared),
                        rank,
                        clock: 0.0,
                        nic_free: 0.0,
                        stats: RankStats::default(),
                        trace: traced.then(Trace::default),
                        phase_stack: Vec::new(),
                        seg_start: 0.0,
                        profile: PhaseProfile::default(),
                        send_seq: 0,
                        fault_send_seq: 0,
                        fault_ops: 0,
                        fault_stall_fired: false,
                        fault_straggler: straggler,
                        fault_straggler_noted: false,
                        pool: BufferPool::default(),
                        wait_scratch: WaitScratch::default(),
                        spare_envelopes: VecDeque::new(),
                        coll_aside: [Vec::new(), Vec::new()],
                        coll_seq: 0,
                        woken: Vec::new(),
                        byte_pairs_a: Vec::new(),
                        byte_pairs_b: Vec::new(),
                        sparse: sparse::SparseScratch::default(),
                    };
                    let result = catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
                    match result {
                        Ok(r) => {
                            // Close any phases the rank code left open so the
                            // profile is complete.
                            while !comm.phase_stack.is_empty() {
                                comm.exit_phase();
                            }
                            let clock = comm.clock;
                            *lock(&slots[rank]) = Some((
                                r,
                                clock,
                                comm.stats,
                                comm.trace.take().unwrap_or_default(),
                                std::mem::take(&mut comm.profile),
                            ));
                        }
                        Err(e) => {
                            let msg = e
                                .downcast_ref::<String>()
                                .cloned()
                                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                                .unwrap_or_else(|| "rank panicked".to_string());
                            // First failure wins: the secondary panics of
                            // poison-woken ranks (and the unwind of a rank
                            // that itself reported a deadlock) never
                            // overwrite the recorded cause.
                            shared.fail(WorldError::RankPanic { rank, message: msg });
                            shared.poison();
                        }
                    }
                    shared.retire_rank(rank, comm.clock);
                }
            };
            let spawned = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(RANK_STACK_BYTES)
                .spawn_scoped(scope, task);
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // The host refused another thread (e.g. `vm.max_map_count`
                    // or a pid limit caps OS threads below the rank count).
                    // Unwinding here would deadlock: the scope join would wait
                    // on already-spawned ranks that are parked waiting for the
                    // engine start or for peers that will never exist. Fail
                    // the world instead: abandon the unspawnable tasks so the
                    // scheduler never dispatches them, poison the spawned
                    // ranks, and let the normal failure path report it.
                    shared.fail(WorldError::SpawnFailed {
                        rank,
                        nranks: n,
                        message: e.to_string(),
                    });
                    for r in rank..n {
                        shared.sched.abandon(r);
                    }
                    shared.poison();
                    break;
                }
            }
        }
        shared.sched.start();
        for h in handles {
            // Rank bodies run under `catch_unwind`, so a rank *thread* only
            // panics on a scheduler invariant; keep the first such payload.
            if let Err(e) = h.join() {
                escaped.get_or_insert(e);
            }
        }
        // All ranks are done (or the world failed): release the watchdog.
        let (m, cv) = &watchdog_done;
        *lock(m) = true;
        cv.notify_all();
    });

    if let Some(payload) = escaped {
        std::panic::resume_unwind(payload);
    }
    if let Some(err) = lock(&shared.failure).take() {
        return Err(err);
    }

    let mut results = Vec::with_capacity(n);
    let mut clocks = Vec::with_capacity(n);
    let mut stats = Vec::with_capacity(n);
    let mut traces = Vec::with_capacity(n);
    let mut phases = Vec::with_capacity(n);
    for slot in slots {
        let (r, c, s, t, p) = slot
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .expect("rank produced no result");
        results.push(r);
        clocks.push(c);
        stats.push(s);
        traces.push(t);
        phases.push(p);
    }
    Ok(RunOutput { results, clocks, stats, traces, phases, host: shared.sched.counters() })
}

impl Comm {
    /// This rank's id in `0..size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// The machine model this world runs under.
    #[inline]
    pub fn model(&self) -> &MachineModel {
        &self.shared.model
    }

    /// Current virtual time of this rank, in seconds.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Accumulated statistics of this rank.
    #[inline]
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }

    /// Advance this rank's clock by `seconds` of (externally measured or
    /// modelled) computation. On a straggler rank (see
    /// [`FaultPlan::straggler_ranks`]) the time is inflated by the plan's
    /// factor.
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
        let t0 = self.clock;
        self.clock += seconds;
        self.stats.compute_seconds += seconds;
        if let Some(b) = self.top_bucket() {
            b.compute_seconds += seconds;
        }
        self.note_span(SpanCat::Compute, t0);
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
        self.close_segment();
        self.phase_stack.push(name);
        self.bucket(name).spans += 1;
        self.seg_start = self.clock;
    }

    /// Close the innermost open phase span.
    ///
    /// # Panics
    ///
    /// Panics if no phase is open.
    pub fn exit_phase(&mut self) {
        assert!(!self.phase_stack.is_empty(), "exit_phase without matching enter_phase");
        self.close_segment();
        self.phase_stack.pop();
        self.seg_start = self.clock;
    }

    /// Run `f` inside a phase span (enter/exit pair).
    pub fn with_phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.enter_phase(name);
        let r = f(self);
        self.exit_phase();
        r
    }

    /// The innermost open phase, if any.
    pub fn current_phase(&self) -> Option<&'static str> {
        self.phase_stack.last().copied()
    }

    /// This rank's phase profile accumulated so far.
    pub fn phase_profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Record the attribution segment of the current innermost phase (traced
    /// worlds only; zero-length segments are skipped).
    fn close_segment(&mut self) {
        if let Some(&top) = self.phase_stack.last() {
            if self.trace.is_some() && self.clock > self.seg_start {
                self.profile.segments.push(PhaseSegment {
                    name: top,
                    t_start: self.seg_start,
                    t_end: self.clock,
                });
            }
        }
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
    fn trace_event(&mut self, kind: TraceKind, t_start: f64, bytes: u64, peer: Option<usize>) {
        self.trace_event_corr(kind, t_start, bytes, peer, 0);
    }

    /// [`Comm::trace_event`] with a message correlation id (see
    /// [`crate::TraceEvent::corr`]); `0` means not message-bound.
    fn trace_event_corr(
        &mut self,
        kind: TraceKind,
        t_start: f64,
        bytes: u64,
        peer: Option<usize>,
        corr: u64,
    ) {
        let t_end = self.clock;
        let phase = self.phase_stack.last().copied().unwrap_or("");
        let nranks = self.shared.n;
        if let Some(tr) = self.trace.as_mut() {
            tr.record(self.rank, kind, t_start, t_end, bytes, peer, nranks, phase, corr);
        }
    }

    /// Record the clock span `[t_start, clock]` under `cat` in a traced
    /// world. Called by exactly the three clock-advancing primitives, so the
    /// recorded spans tile `[0, clock]` — the exhaustive decomposition, as a
    /// timeline (see [`crate::ClockSpan`]).
    fn note_span(&mut self, cat: SpanCat, t_start: f64) {
        if self.clock > t_start {
            if let Some(tr) = self.trace.as_mut() {
                let phase = self.phase_stack.last().copied().unwrap_or("");
                tr.push_span(cat, t_start, self.clock, phase);
            }
        }
    }

    fn advance_comm(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        let t0 = self.clock;
        self.clock += seconds;
        self.stats.comm_seconds += seconds;
        if let Some(b) = self.top_bucket() {
            b.comm_seconds += seconds;
        }
        self.note_span(SpanCat::Comm, t0);
    }

    fn advance_wait(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        let t0 = self.clock;
        self.clock += seconds;
        self.stats.wait_seconds += seconds;
        if let Some(b) = self.top_bucket() {
            b.wait_seconds += seconds;
        }
        self.note_span(SpanCat::Wait, t0);
    }

    /// Complete a collective that rendezvoused at `max_clock` and costs
    /// `cost` modelled seconds: the gap to the last participant is rendezvous
    /// wait, the algorithm cost is communication.
    fn finish_collective(&mut self, max_clock: f64, cost: f64) {
        self.advance_wait((max_clock - self.clock).max(0.0));
        self.advance_comm(cost.max(0.0));
    }

    fn count_p2p_sent(&mut self, msgs: u64, bytes: u64) {
        self.stats.p2p_sent_msgs += msgs;
        self.stats.p2p_sent_bytes += bytes;
        if let Some(b) = self.top_bucket() {
            b.p2p_sent_msgs += msgs;
            b.p2p_sent_bytes += bytes;
        }
    }

    fn count_p2p_recv(&mut self, msgs: u64, bytes: u64) {
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

    fn count_coll(&mut self, ops: u64, bytes: u64) {
        self.stats.coll_ops += ops;
        self.stats.coll_bytes += bytes;
        if let Some(b) = self.top_bucket() {
            b.coll_ops += ops;
            b.coll_bytes += bytes;
        }
    }

    /// Hop distance from this rank to `other` on the modelled topology.
    pub fn hops_to(&self, other: usize) -> usize {
        self.shared.hop_table.hops(self.rank, other)
    }

    // -------------------------------------------------------------- faults

    /// Whether this world runs under an active [`FaultPlan`]. Layers above
    /// `simcomm` gate their defensive machinery (guard collectives, recovery
    /// snapshots) on this so clean worlds stay bitwise identical to a build
    /// without those layers.
    #[inline]
    pub fn fault_active(&self) -> bool {
        self.shared.fault_active
    }

    /// The world's fault plan (inert unless the world was started with
    /// [`Runner::faulted`]).
    #[inline]
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.shared.fault
    }

    /// One tick of the communication-operation clock that drives the
    /// scheduled stall: called on every send post, receive completion and
    /// collective entry. Fires the plan's one-shot stall when its trigger
    /// count is reached, charging the stall as rendezvous wait.
    fn fault_op_tick(&mut self) {
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
            self.advance_wait(stall.seconds.max(0.0));
            self.stats.faults_injected += 1;
            self.stats.stalls += 1;
            self.trace_event(TraceKind::Fault, t0, 0, None);
        }
    }

    /// Timeout semantics of a completed wait: a rendezvous wait of
    /// `wait_secs` that exceeds the plan's threshold charges one re-probe
    /// overhead per elapsed timeout cycle (bounded by `max_retries`) and
    /// counts the cycles.
    fn fault_timeout_check(&mut self, wait_secs: f64, peer: Option<usize>) {
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
        self.advance_comm(cycles as f64 * self.shared.model.p2p_overhead);
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
        self.advance_comm((depart - self.clock).max(0.0));
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
    fn box_payload<T: Send + 'static>(&mut self, data: Vec<T>) -> Box<dyn Any + Send> {
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
    /// exchange and [`crate::CommPlan::execute_flat`] hand their envelopes
    /// straight through here.
    fn post_send_payload(
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
        self.advance_comm(self.shared.model.p2p_overhead);
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
                self.advance_wait(backoff.max(0.0));
                self.advance_comm(self.shared.model.p2p_overhead);
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
            let mut mb = lock(&self.shared.mailboxes[dst]);
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
        let mut mb = lock(&self.shared.mailboxes[self.rank]);
        // Messages below `scanned` did not match and never will: only this
        // rank removes from its mailbox and deposits go to the back.
        let mut scanned = 0;
        let wanted = |m: &Message| m.tag == tag && m.src == src;
        loop {
            self.shared.check_poison();
            if let Some(pos) = mb.queue.range(scanned..).position(wanted) {
                let msg = mb.queue.remove(scanned + pos).expect("position just found");
                drop(mb);
                return self.complete_recv(msg);
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
    fn account_recv(&mut self, msg: &Message, arrival: f64) {
        self.fault_op_tick();
        let t0 = self.clock;
        let (comm, wait) = self.shared.model.completion_cost(self.clock, arrival);
        self.advance_comm(comm);
        self.advance_wait(wait);
        self.count_p2p_recv(1, msg.bytes);
        self.trace_event_corr(TraceKind::Recv, t0, msg.bytes, Some(msg.src), msg.corr);
        self.fault_timeout_check(wait, Some(msg.src));
    }

    /// Take a received payload out of its envelope as `Vec<T>`, with the
    /// uniform mismatch panic, and keep the emptied envelope for the next
    /// typed send ([`Comm::spare_envelopes`]).
    fn unbox_payload<T: Send + 'static>(&mut self, msg: Message) -> Vec<T> {
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

    /// Charge the completion of one matched message ([`Comm::account_recv`])
    /// and unbox the payload.
    fn complete_recv<T: Send + 'static>(&mut self, msg: Message) -> Vec<T> {
        let arrival = self.arrival_of(&msg);
        self.account_recv(&msg, arrival);
        self.unbox_payload(msg)
    }

    /// Charge the completion of a send request that becomes ready at `ready`:
    /// the CPU idles until then (no further overhead — it was paid at post).
    /// A nonblocking send is ready once the NIC has drained it, a synchronous
    /// one once the receiver's match has been acknowledged.
    fn complete_send(&mut self, dst: usize, ready: f64, corr: u64) {
        let t0 = self.clock;
        let waited = (ready - self.clock).max(0.0);
        self.advance_wait(waited);
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

    /// Nonblocking send of an already boxed payload of `bytes` bytes.
    fn isend_payload(
        &mut self,
        dst: usize,
        tag: u64,
        payload: Box<dyn Any + Send>,
        bytes: u64,
    ) -> ReqKind {
        let t0 = self.clock;
        let (depart, corr) = self.post_send_payload(dst, tag, payload, bytes);
        self.trace_event_corr(TraceKind::Isend, t0, bytes, Some(dst), corr);
        ReqKind::Send { dst, depart, corr }
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
    /// (see [`MachineModel::overlap_completion`]). Returns one entry per
    /// request, in *request order*: `Some(buffer)` for receives, `None` for
    /// sends — by kind, never by outcome (see the completion contract on
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
            let mut mb = lock(&self.shared.mailboxes[self.rank]);
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

    // ---------------------------------------------------------- collectives

    /// Core collective rendezvous, with exactly one wait: every rank runs
    /// `deposit` on the slot this collective uses (see [`CollSlot`] for why
    /// two alternating slots suffice); the last depositor runs `publish` over
    /// the full slot and wakes the others; every rank then runs `read`. All
    /// three run under the slot's guard; `deposit` also gets the envelopes
    /// this rank has set aside for the slot ([`envelope_as`]). Returns what
    /// `read` returned and the maximum entry clock.
    fn coll_exchange<R>(
        &mut self,
        deposit: impl FnOnce(&mut CollSlot, &mut Vec<Box<dyn Any + Send>>),
        publish: impl FnOnce(&mut CollSlot),
        read: impl FnOnce(&mut CollSlot) -> R,
    ) -> (R, f64) {
        self.fault_op_tick();
        self.count_coll(1, 0);
        let parity = (self.coll_seq % 2) as usize;
        let m = &self.shared.coll[parity];
        self.coll_seq += 1;
        let mut slot = lock(m);
        let generation = slot.generation;
        if slot.arrived == 0 {
            slot.max_clock = 0.0;
        }
        deposit(&mut slot, &mut self.coll_aside[parity]);
        slot.max_clock = slot.max_clock.max(self.clock);
        slot.arrived += 1;
        if slot.arrived == self.shared.n {
            // Last depositor: publish the result and release the others.
            publish(&mut slot);
            slot.arrived = 0;
            slot.generation += 1;
            self.shared.sched.wake_collective(&mut self.woken);
        } else {
            while slot.generation == generation {
                self.shared.check_poison();
                slot = self.shared.wait_on(self.rank, WaitSite::Collective, self.clock, m, slot);
            }
        }
        let out = read(&mut slot);
        let max_clock = slot.max_clock;
        drop(slot);
        // Batons change hands only now that the collective guard is free.
        for next in self.woken.drain(..) {
            self.shared.sched.resume(next);
        }
        (out, max_clock)
    }

    /// Synchronize all ranks; clocks advance to the barrier completion time.
    pub fn barrier(&mut self) {
        let t0 = self.clock;
        let ((), max_clock) = self.coll_exchange(|_, _| (), |_| (), |_| ());
        self.finish_collective(max_clock, self.shared.coll_terms.barrier());
        self.trace_event(TraceKind::Barrier, t0, 0, None);
    }

    /// Broadcast `root`'s value to all ranks.
    pub fn bcast<T: Clone + Send + Sync + 'static>(&mut self, root: usize, value: T) -> T {
        assert!(root < self.shared.n);
        let bytes = std::mem::size_of::<T>() as u64;
        self.count_coll(0, bytes);
        let t0 = self.clock;
        let rank = self.rank;
        let (out, max_clock) = self.coll_exchange(
            |slot, aside| slot.put(rank, aside, (rank == root).then_some(value)),
            |slot| {
                let (deposits, result) = slot.deposits_and_result::<Option<T>, Option<T>>();
                *result = deposits.flatten().next();
            },
            |slot| slot.result::<Option<T>>().clone().expect("bcast root contributed no value"),
        );
        self.finish_collective(max_clock, self.shared.coll_terms.tree_coll(bytes));
        self.trace_event(TraceKind::Bcast, t0, bytes, None);
        out
    }

    /// All-reduce with a user-provided associative, commutative operator.
    pub fn allreduce<T, Op>(&mut self, value: T, op: Op) -> T
    where
        T: Clone + Send + Sync + 'static,
        Op: Fn(T, T) -> T,
    {
        let bytes = std::mem::size_of::<T>() as u64;
        self.count_coll(0, bytes);
        let t0 = self.clock;
        let rank = self.rank;
        let (out, max_clock) = self.coll_exchange(
            |slot, aside| slot.put(rank, aside, value),
            |slot| {
                let (deposits, result) = slot.deposits_and_result::<T, Option<T>>();
                *result = deposits.reduce(&op);
            },
            |slot| slot.result::<Option<T>>().clone().expect("allreduce over empty world"),
        );
        self.finish_collective(max_clock, self.shared.coll_terms.tree_coll(bytes));
        self.trace_event(TraceKind::Reduce, t0, bytes, None);
        out
    }

    /// Exclusive prefix scan: rank `r` receives `op` folded over the values of
    /// ranks `0..r`; rank 0 receives `identity`.
    pub fn exscan<T, Op>(&mut self, value: T, identity: T, op: Op) -> T
    where
        T: Clone + Send + Sync + 'static,
        Op: Fn(T, T) -> T,
    {
        let bytes = std::mem::size_of::<T>() as u64;
        self.count_coll(0, bytes);
        let t0 = self.clock;
        let rank = self.rank;
        let (out, max_clock) = self.coll_exchange(
            |slot, aside| slot.put(rank, aside, value),
            CollSlot::gather::<T>,
            |slot| {
                let below = slot.result::<Vec<T>>().iter().take(rank);
                below.fold(identity, |acc, v| op(acc, v.clone()))
            },
        );
        self.finish_collective(max_clock, self.shared.coll_terms.tree_coll(bytes));
        self.trace_event(TraceKind::Reduce, t0, bytes, None);
        out
    }

    /// Gather one value from every rank onto all ranks, ordered by rank.
    pub fn allgather<T: Clone + Send + Sync + 'static>(&mut self, value: T) -> Vec<T> {
        let per = std::mem::size_of::<T>() as u64;
        let total = per * self.shared.n as u64;
        self.count_coll(0, per);
        let t0 = self.clock;
        let rank = self.rank;
        let (out, max_clock) = self.coll_exchange(
            |slot, aside| slot.put(rank, aside, value),
            CollSlot::gather::<T>,
            |slot| slot.result::<Vec<T>>().clone(),
        );
        self.finish_collective(max_clock, self.shared.coll_terms.allgather(total));
        self.trace_event(TraceKind::Gather, t0, per, None);
        out
    }

    /// Gather variable-length buffers from every rank onto all ranks,
    /// concatenated in rank order.
    pub fn allgatherv<T: Clone + Send + Sync + 'static>(&mut self, data: Vec<T>) -> Vec<T> {
        let per = std::mem::size_of_val(&data[..]) as u64;
        self.count_coll(0, per);
        let t0 = self.clock;
        let rank = self.rank;
        let (flat, max_clock) = self.coll_exchange(
            |slot, aside| slot.put(rank, aside, data),
            |slot| {
                let (deposits, flat) = slot.deposits_and_result::<Vec<T>, Vec<T>>();
                flat.clear();
                deposits.for_each(|part| flat.extend(part));
            },
            |slot| slot.result::<Vec<T>>().clone(),
        );
        let total = std::mem::size_of_val(&flat[..]) as u64;
        self.finish_collective(max_clock, self.shared.coll_terms.allgather(total));
        self.trace_event(TraceKind::Gather, t0, per, None);
        flat
    }

    /// What every all-to-all-v form is: `sent` messages and bytes leave this
    /// rank; `deposit` puts the payload into the rank's cell and one
    /// [`BinEntry`] per message into the destinations' bins; after the
    /// rendezvous `read` walks this rank's own entries — sorted by source,
    /// those of one source in the order it listed them — with the senders'
    /// cells at hand ([`deposit_of`]). `elem` is the element size the
    /// entries' lengths count in. Statistics, the modelled cost and the trace
    /// event are the same for every form.
    fn alltoallv_core<I>(
        &mut self,
        (s_msgs, s_bytes): (u64, u64),
        elem: usize,
        deposit: impl FnOnce(
            &mut Box<dyn Any + Send>,
            &mut Vec<Box<dyn Any + Send>>,
            &mut [Vec<BinEntry>],
        ),
        read: impl FnOnce(std::vec::Drain<'_, BinEntry>, &mut [Box<dyn Any + Send>]) -> I,
    ) -> I {
        self.shared.check_poison();
        let t0 = self.clock;
        self.count_coll(0, s_bytes);
        self.count_p2p_sent(s_msgs, s_bytes);
        let rank = self.rank;
        let ((out, r_msgs, r_elems), max_clock) = self.coll_exchange(
            |slot, aside| deposit(&mut slot.cells[rank], aside, &mut slot.bins),
            |_| (),
            |slot| {
                let (entries, cells) = slot.drain_bin(rank);
                let r_msgs = entries.len() as u64;
                let r_elems: usize = entries.as_slice().iter().map(|e| e.len).sum();
                (read(entries, cells), r_msgs, r_elems as u64)
            },
        );
        let r_bytes = r_elems * elem as u64;
        self.count_p2p_recv(r_msgs, r_bytes);
        let cost = self.shared.coll_terms.alltoallv(s_msgs, s_bytes, r_msgs, r_bytes);
        self.finish_collective(max_clock, cost);
        self.trace_event(TraceKind::Alltoallv, t0, s_bytes, None);
        out
    }

    /// Sparse all-to-all-v: send each `(dst, buffer)` pair; receive the list of
    /// `(src, buffer)` pairs addressed to this rank, sorted by source rank
    /// (buffers of one source in the order it listed them).
    ///
    /// Models an `MPI_Alltoallv` (a synchronizing vector collective whose cost
    /// scans all `P` count entries), *not* a point-to-point exchange — use
    /// [`Comm::neighbor_exchange`] for that.
    pub fn alltoallv<T: Send + 'static>(
        &mut self,
        mut sends: Vec<(usize, Vec<T>)>,
    ) -> Vec<(usize, Vec<T>)> {
        let mut received = Vec::new();
        self.alltoallv_into(&mut sends, &mut received);
        received
    }

    /// [`Comm::alltoallv`] into vectors the caller keeps across steps: the
    /// same collective semantics, costs, statistics and trace events, and
    /// the buffers are moved, not copied. `sends` comes back empty and
    /// `received` cleared and refilled. An empty buffer is not a message: it
    /// is dropped here, so a caller that recycles buffers (into the pool,
    /// say) takes its empty ones out first.
    pub fn alltoallv_into<T: Send + 'static>(
        &mut self,
        sends: &mut Vec<(usize, Vec<T>)>,
        received: &mut Vec<(usize, Vec<T>)>,
    ) {
        let mut sent = (0u64, 0u64);
        for (dst, data) in sends.iter() {
            assert!(*dst < self.shared.n, "alltoallv to invalid rank {dst}");
            // Sparse fast path: an empty buffer is not a message — no bin
            // entry, no per-message cost, no send/receive statistics.
            if !data.is_empty() {
                sent.0 += 1;
                sent.1 += std::mem::size_of_val(&data[..]) as u64;
            }
        }
        // The send list itself is this rank's deposit: it trades places with
        // the list the cell kept from this slot's last exchange of `T`, which
        // goes back to the caller empty. The bins only say where in it each
        // receiver finds its buffers, and the receivers take them out.
        received.clear();
        let src = self.rank;
        self.alltoallv_core(
            sent,
            std::mem::size_of::<T>(),
            |cell, aside, bins| {
                let outgoing = envelope_as::<Vec<(usize, Vec<T>)>>(cell, aside);
                outgoing.clear();
                std::mem::swap(outgoing, sends);
                for (index, (dst, data)) in outgoing.iter().enumerate() {
                    if !data.is_empty() {
                        bins[*dst].push(BinEntry { src, index, len: data.len() });
                    }
                }
            },
            |entries, cells| {
                received.reserve_exact(entries.len());
                for e in entries {
                    let from = deposit_of::<Vec<(usize, Vec<T>)>>(cells, e.src);
                    received.push((e.src, std::mem::take(&mut from[e.index].1)));
                }
            },
        );
    }

    /// Flat [`Comm::alltoallv`] for payload that travels every step: the same
    /// collective — messages, modelled cost, statistics, trace event — in two
    /// buffers however many ranks are addressed.
    ///
    /// `send` holds what this rank sends, destination after destination:
    /// `segments` lists `(dst, len)` in buffer order, only for the
    /// destinations actually addressed (a destination may appear more than
    /// once; a zero-length segment is not a message). `recv` is cleared and
    /// filled with what this rank receives, and `sources` with one
    /// `(src, len)` per message, in the order [`Comm::alltoallv`] returns
    /// them: ascending source, messages of one source in the order it listed
    /// them. A caller that keeps `recv` and `sources` across steps allocates
    /// nothing here once they have reached their size.
    ///
    /// Ownership: `send` moves into this rank's deposit cell, the receivers
    /// copy their messages out of it, and the one that copies the last frees
    /// it — the payload lives as long as [`Comm::alltoallv`]'s moved buffers
    /// do, and is one allocation of the caller's instead of one per
    /// destination.
    pub fn alltoallv_flat<T: Copy + Send + 'static>(
        &mut self,
        send: Vec<T>,
        segments: &[(usize, usize)],
        recv: &mut Vec<T>,
        sources: &mut Vec<(usize, usize)>,
    ) {
        let elem = std::mem::size_of::<T>();
        let mut sent = (0u64, 0u64);
        let mut total = 0;
        for &(dst, len) in segments {
            assert!(dst < self.shared.n, "alltoallv to invalid rank {dst}");
            total += len;
            sent.0 += u64::from(len > 0);
        }
        assert_eq!(total, send.len(), "alltoallv_flat: the segments must cover the payload");
        sent.1 = (total * elem) as u64;
        let src = self.rank;
        self.alltoallv_core(
            sent,
            elem,
            |cell, aside, bins| {
                let mut index = 0;
                for &(dst, len) in segments {
                    if len > 0 {
                        bins[dst].push(BinEntry { src, index, len });
                    }
                    index += len;
                }
                // Without a message nobody would free the buffer.
                let payload = if sent.0 == 0 { Vec::new() } else { send };
                *envelope_as(cell, aside) = FlatDeposit { payload, unread: sent.0 as usize };
            },
            |entries, cells| {
                recv.clear();
                recv.reserve_exact(entries.as_slice().iter().map(|e| e.len).sum());
                sources.clear();
                for e in entries {
                    let from = deposit_of::<FlatDeposit<T>>(cells, e.src);
                    recv.extend_from_slice(&from.payload[e.index..e.index + e.len]);
                    sources.push((e.src, e.len));
                    from.unread -= 1;
                    if from.unread == 0 {
                        from.payload = Vec::new();
                    }
                }
            },
        );
    }

    /// Dense all-to-all of exactly one element per rank pair: rank `r` ends
    /// up with `data[r]` of every rank, ordered by source. Costed like
    /// [`Comm::alltoallv`] with one single-element message per rank pair, but
    /// each rank's row travels as one deposit — no per-element boxing.
    pub fn alltoall<T: Clone + Send + Sync + 'static>(&mut self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.shared.n, "alltoall needs one element per rank");
        self.shared.check_poison();
        let t0 = self.clock;
        let n = self.shared.n as u64;
        let bytes = std::mem::size_of_val(data) as u64;
        self.count_coll(0, bytes);
        self.count_p2p_sent(n, bytes);
        let rank = self.rank;
        let (out, max_clock) = self.coll_exchange(
            |slot, aside| {
                let row = envelope_as::<Vec<T>>(&mut slot.cells[rank], aside);
                row.clear();
                row.extend_from_slice(data);
            },
            |_| (),
            |slot| -> Vec<T> {
                // Every row stays in its sender's cell; each receiver copies
                // its own column out.
                let column = slot.cells.iter().map(|cell| {
                    cell.downcast_ref::<Vec<T>>().expect("collective type mismatch")[rank].clone()
                });
                column.collect()
            },
        );
        self.count_p2p_recv(n, bytes);
        let cost = self.shared.coll_terms.alltoallv(n, bytes, n, bytes);
        self.finish_collective(max_clock, cost);
        self.trace_event(TraceKind::Alltoallv, t0, bytes, None);
        out
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
        // One pass: the request kinds go straight into the wait scratch and
        // the result comes straight out of the matched messages.
        let mut kinds = std::mem::take(&mut self.wait_scratch.kinds);
        kinds.clear();
        for &src in partners {
            kinds.push(self.irecv::<T>(src, tag).kind);
        }
        for i in posting_order(self.rank, partners) {
            let (dst, buf) = &mut data[i];
            kinds.push(self.isend(*dst, tag, std::mem::take(buf)).kind);
        }
        self.waitall_core(&kinds);
        self.wait_scratch.kinds = kinds;
        // Every receive has the same tag, so the matcher's patterns — sorted
        // by (src, tag, slot) — already list the receive slots by source,
        // equal sources in request order.
        let mut out = Vec::with_capacity(partners.len());
        for i in 0..partners.len() {
            let Pattern { src, slot, .. } = self.wait_scratch.matcher.patterns[i];
            out.push((src, self.take_matched(slot)));
        }
        out
    }

    /// The exchange under [`crate::CommPlan::execute_flat`], on boxed
    /// payloads: `envelopes[i]` (of `bytes[i]` bytes) goes to `partners[i]`
    /// and the envelope received from `partners[i]` takes its place. Posting
    /// order, completion order and every charged cost are those of
    /// [`Comm::neighbor_exchange`] — all receives in partner order, then the
    /// sends in [`posting_order`], drained in arrival order — and nothing is
    /// boxed or unboxed here, so the caller decides what an envelope's buffer
    /// is reused for. The partners are those of a plan, which
    /// [`Comm::plan_exchange`] has checked against the world.
    pub(crate) fn exchange_envelopes(
        &mut self,
        partners: &[usize],
        tag: u64,
        envelopes: &mut [Box<dyn Any + Send>],
        bytes: &[u64],
    ) {
        let mut kinds = std::mem::take(&mut self.wait_scratch.kinds);
        kinds.clear();
        kinds.extend(partners.iter().map(|&src| ReqKind::Recv { src, tag }));
        for i in posting_order(self.rank, partners) {
            // A boxed unit is not an allocation.
            let payload = std::mem::replace(&mut envelopes[i], Box::new(()));
            kinds.push(self.isend_payload(partners[i], tag, payload, bytes[i]));
        }
        self.waitall_core(&kinds);
        self.wait_scratch.kinds = kinds;
        for (slot, envelope) in envelopes.iter_mut().enumerate() {
            let msg = self.wait_scratch.msgs[slot].take().expect("matched in waitall_core");
            *envelope = msg.payload;
        }
    }
}

/// Lengthen the segment list of a flat payload ([`Comm::alltoallv_flat`]) by
/// `len` elements for `dst`: they join the last segment when that one goes to
/// `dst` too, and start a new one otherwise — so a payload filled
/// destination by destination gets one message per destination.
pub fn push_segment(segments: &mut Vec<(usize, usize)>, dst: usize, len: usize) {
    match segments.last_mut() {
        Some((last, total)) if *last == dst => *total += len,
        _ => segments.push((dst, len)),
    }
}

/// The order rank `me` posts the sends of a point-to-point exchange in, as
/// positions into its destination list: the destinations above `me` first,
/// then the rest, each group in list order — ascending `(q - me) mod P` for a
/// sorted list, the schedule of MPI's pairwise exchange. In plain ascending
/// order the highest rank of a periodic neighbourhood is every neighbour's
/// last destination, at the back of all their NIC queues; shifted, each slot
/// of the schedule is a permutation. Only when a message leaves changes,
/// never what arrives or the order buffers to one destination keep.
pub(crate) fn posting_order(me: usize, dsts: &[usize]) -> impl Iterator<Item = usize> + '_ {
    let upper = (0..dsts.len()).filter(move |&i| dsts[i] > me);
    upper.chain((0..dsts.len()).filter(move |&i| dsts[i] <= me))
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
    use crate::fault::StallSpec;
    use crate::model::MachineModel;

    #[test]
    fn single_rank_world() {
        let out = run(1, MachineModel::ideal(), |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier();
            comm.allreduce(5u32, |a, b| a + b)
        });
        assert_eq!(out.results, vec![5]);
    }

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
    fn allreduce_sum_and_max() {
        for n in [1, 2, 3, 5, 8, 17] {
            let out = run(n, MachineModel::ideal(), move |comm| {
                let s = comm.allreduce(comm.rank() as u64 + 1, |a, b| a + b);
                let m = comm.allreduce(comm.rank() as u64, u64::max);
                (s, m)
            });
            let expect_sum = (n as u64) * (n as u64 + 1) / 2;
            for (s, m) in out.results {
                assert_eq!(s, expect_sum);
                assert_eq!(m, n as u64 - 1);
            }
        }
    }

    #[test]
    fn bcast_from_each_root() {
        let out = run(5, MachineModel::ideal(), |comm| {
            let mut got = Vec::new();
            for root in 0..5 {
                let v = comm.bcast(root, if comm.rank() == root { root * 100 } else { 0 });
                got.push(v);
            }
            got
        });
        for r in out.results {
            assert_eq!(r, vec![0, 100, 200, 300, 400]);
        }
    }

    #[test]
    fn exscan_prefix_sums() {
        let out = run(6, MachineModel::ideal(), |comm| {
            comm.exscan(comm.rank() as u64 + 1, 0u64, |a, b| a + b)
        });
        assert_eq!(out.results, vec![0, 1, 3, 6, 10, 15]);
    }

    #[test]
    fn allgather_ordered() {
        let out = run(4, MachineModel::ideal(), |comm| comm.allgather(comm.rank() as u32 * 10));
        for r in out.results {
            assert_eq!(r, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let out = run(4, MachineModel::ideal(), |comm| {
            let mine: Vec<u32> = (0..comm.rank() as u32).collect();
            comm.allgatherv(mine)
        });
        for r in out.results {
            assert_eq!(r, vec![0, 0, 1, 0, 1, 2]);
        }
    }

    #[test]
    fn alltoallv_sparse_exchange() {
        let out = run(4, MachineModel::ideal(), |comm| {
            // Each rank sends rank*10+dst to dst for dst != rank, skipping rank 3 -> 0.
            let sends: Vec<(usize, Vec<u32>)> = (0..4)
                .filter(|&d| d != comm.rank() && !(comm.rank() == 3 && d == 0))
                .map(|d| (d, vec![(comm.rank() * 10 + d) as u32]))
                .collect();
            comm.alltoallv(sends)
        });
        // Rank 0 receives from 1 and 2 only.
        assert_eq!(out.results[0], vec![(1, vec![10]), (2, vec![20])]);
        assert_eq!(out.results[2], vec![(0, vec![2]), (1, vec![12]), (3, vec![32])]);
    }

    #[test]
    fn alltoall_dense() {
        let out = run(3, MachineModel::ideal(), |comm| {
            let data: Vec<u64> = (0..3).map(|d| (comm.rank() * 3 + d) as u64).collect();
            comm.alltoall(&data)
        });
        // out[r][s] = s*3 + r
        assert_eq!(out.results[0], vec![0, 3, 6]);
        assert_eq!(out.results[1], vec![1, 4, 7]);
        assert_eq!(out.results[2], vec![2, 5, 8]);
    }

    #[test]
    fn alltoallv_to_self_only() {
        let out = run(3, MachineModel::juropa_like(), |comm| {
            let me = comm.rank();
            let got = comm.alltoallv(vec![(me, vec![me as u32 * 7])]);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0], (me, vec![me as u32 * 7]));
            comm.clock()
        });
        assert!(out.makespan() > 0.0, "even self-traffic pays the collective cost");
    }

    #[test]
    fn consecutive_alltoallv_rounds_do_not_mix() {
        let out = run(3, MachineModel::ideal(), |comm| {
            let r = comm.rank();
            let first = comm.alltoallv(vec![((r + 1) % 3, vec![1u8])]);
            let second = comm.alltoallv(vec![((r + 1) % 3, vec![2u8])]);
            (first, second)
        });
        for (first, second) in out.results {
            assert_eq!(first.len(), 1);
            assert_eq!(first[0].1, vec![1]);
            assert_eq!(second[0].1, vec![2]);
        }
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
    fn clocks_synchronize_at_barrier() {
        let out = run(4, MachineModel::juropa_like(), |comm| {
            // Rank 2 is slow before the barrier.
            if comm.rank() == 2 {
                comm.advance(1.0);
            }
            comm.barrier();
            comm.clock()
        });
        let min = out.results.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min >= 1.0, "all ranks must wait for the slow one: {out:?}", out = out.results);
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let run_once = || {
            run(8, MachineModel::juqueen_like(), |comm| {
                let v = comm.allgather(comm.rank());
                comm.compute(Work::ParticleOp, 1000.0);
                let _ = comm.alltoallv(vec![((comm.rank() + 1) % 8, v)]);
                comm.clock()
            })
            .clocks
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "simcomm world failed")]
    fn rank_panic_poisons_world() {
        run(3, MachineModel::ideal(), |comm| {
            if comm.rank() == 1 {
                panic!("deliberate");
            }
            // Other ranks block in a collective; poisoning must wake them.
            comm.barrier();
        });
    }

    #[test]
    fn try_run_reports_first_rank_panic_typed() {
        let err = Runner::default()
            .try_run(4, MachineModel::ideal(), |comm| {
                if comm.rank() == 2 {
                    panic!("injected fault in rank body");
                }
                comm.barrier();
            })
            .err()
            .expect("a panicking rank must fail the world");
        assert_eq!(err.kind(), "panic");
        match err {
            WorldError::RankPanic { rank, message } => {
                assert_eq!(rank, 2);
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected RankPanic, got {other:?}"),
        }
    }

    #[test]
    fn try_run_deadline_retires_stalled_world() {
        // A host-time stall: every rank sleeps and synchronizes for ever, so
        // virtual time advances (no deadlock to detect) and only the deadline
        // watchdog can retire the world — at a rank's next poison check.
        let err = Runner::default()
            .deadline(Some(Duration::from_millis(50)))
            .try_run(2, MachineModel::ideal(), |comm| loop {
                std::thread::sleep(Duration::from_millis(2));
                comm.barrier();
            })
            .err()
            .expect("the watchdog must retire the stalled world");
        assert_eq!(err.kind(), "deadline");
        // The error carries the *configured* limit, not a measured duration,
        // so it is deterministic across runs.
        assert_eq!(err, WorldError::DeadlineExceeded { seconds: 0.05 });
    }

    #[test]
    fn try_run_deadline_does_not_fire_on_healthy_world() {
        let out = Runner::default()
            .deadline(Some(Duration::from_secs(60)))
            .try_run(4, MachineModel::ideal(), |comm| {
                comm.allreduce(comm.rank() as u64, |a, b| a + b)
            })
            .expect("healthy world must complete under a generous deadline");
        assert!(out.results.iter().all(|&s| s == 6));
    }

    #[test]
    fn try_run_succeeds_bitwise_identical_to_run() {
        let body = |comm: &mut Comm| {
            let v: Vec<u64> = vec![comm.rank() as u64; 32];
            let _ = comm.alltoallv(vec![((comm.rank() + 1) % 4, v)]);
            comm.clock()
        };
        let a =
            Runner::default().try_run(4, MachineModel::juropa_like(), body).expect("clean world");
        let b = run(4, MachineModel::juropa_like(), body);
        assert_eq!(a.clocks, b.clocks);
        assert_eq!(a.results, b.results);
    }

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
    fn phase_segments_are_ordered_and_disjoint() {
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
        for (r, prof) in out.phases.iter().enumerate() {
            assert!(!prof.segments.is_empty());
            for seg in &prof.segments {
                assert!(seg.t_end > seg.t_start, "rank {r}: {seg:?}");
                assert!(seg.t_start >= 0.0 && seg.t_end <= out.clocks[r] + 1e-12);
            }
            for w in prof.segments.windows(2) {
                assert!(w[1].t_start >= w[0].t_end - 1e-12, "rank {r}: overlapping segments {w:?}");
            }
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

    /// A queued message as the matcher sees it (it never looks inside).
    fn queued(src: usize, tag: u64) -> Message {
        Message { src, tag, depart: 0.0, bytes: 0, corr: 0, payload: Box::new(()) }
    }

    #[test]
    fn matcher_agrees_with_the_greedy_oracle() {
        use crate::fault::splitmix64;
        // Few sources and tags, so the streams are heavily duplicated and
        // interleaved; extra queue traffic nobody asked for ("strangers")
        // lands ahead of, between and behind the matches.
        for seed in 0..400u64 {
            let draw = |salt: u64, bound: u64| splitmix64(seed << 20 ^ salt) % bound;
            let n_patterns = draw(1, 13) as usize;
            let patterns: Vec<(usize, usize, u64)> = (0..n_patterns)
                .map(|slot| (slot, draw(100 + slot as u64, 3) as usize, draw(200 + slot as u64, 3)))
                .collect();
            let n_queue = draw(2, 30) as usize;
            let queue: Vec<(usize, u64)> = (0..n_queue as u64)
                .map(|k| (draw(300 + k, 4) as usize, draw(400 + k, 4)))
                .collect();
            // The queue grows between two incremental calls, as it does
            // across a wakeup; the oracle sees each prefix from scratch.
            let split = draw(3, n_queue as u64 + 1) as usize;
            let mut matcher = Matcher::default();
            matcher.start(patterns.iter().map(|&(slot, src, tag)| (src, tag, slot)));
            let mut oracle_picks = Vec::new();
            let mut q = VecDeque::new();
            for upto in [split, n_queue] {
                while q.len() < upto {
                    let (src, tag) = queue[q.len()];
                    q.push_back(queued(src, tag));
                }
                let done = matcher.advance(&q);
                let oracle_done = match_requests_greedy(&q, &patterns, &mut oracle_picks);
                assert_eq!(done, oracle_done, "seed {seed}, queue prefix {upto}");
                // Also while incomplete: the picks so far are a prefix of
                // the final answer, in queue order.
                assert_eq!(matcher.picks, oracle_picks, "seed {seed}, queue prefix {upto}");
            }
        }
    }

    #[test]
    fn matcher_keeps_fifo_order_within_duplicate_streams() {
        // Two requests for (0, 7) around one for (0, 9); strangers first.
        let mut matcher = Matcher::default();
        matcher.start([(0, 7, 0), (0, 9, 1), (0, 7, 2)].into_iter());
        let mut q: VecDeque<Message> =
            [(5, 7), (0, 8), (0, 7), (0, 9)].into_iter().map(|(s, t)| queued(s, t)).collect();
        assert!(!matcher.advance(&q), "the second (0, 7) message is still missing");
        assert_eq!(matcher.picks, vec![(0, 2), (1, 3)]);
        let slot_for = |src, tag| matcher.first_free(src, tag).map(|i| matcher.patterns[i].slot);
        assert_eq!(slot_for(0, 7), Some(2), "the next (0, 7) message completes slot 2");
        assert_eq!(slot_for(0, 9), None);
        q.push_back(queued(0, 7));
        q.push_back(queued(0, 7));
        assert!(matcher.advance(&q));
        assert_eq!(matcher.picks, vec![(0, 2), (1, 3), (2, 4)]);
        assert_eq!(matcher.scanned, 5, "the scan stops at the last pick");
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
    fn collective_envelopes_of_other_types_wait_aside() {
        // Three deposit types with an odd period over the two slots: once a
        // slot has seen all three, one sits in the rank's cell and two wait
        // aside — nothing is boxed again.
        let out = run(3, MachineModel::ideal(), |comm| {
            let mut aside = Vec::new();
            for round in 0..12u64 {
                match round % 3 {
                    0 => drop(comm.allreduce(round, |a, b| a + b)),
                    1 => drop(comm.allreduce((true, false), |a, b| (a.0 && b.0, a.1 || b.1))),
                    _ => drop(comm.allgather(round as f64)),
                }
                aside.push((comm.coll_aside[0].len(), comm.coll_aside[1].len()));
            }
            // More types than are kept: the longest unused are dropped.
            macro_rules! allreduce_arrays {
                ($($n:literal)*) => { $( comm.allreduce([0u8; $n], |a, _| a); )* };
            }
            allreduce_arrays!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24);
            allreduce_arrays!(25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45);
            (aside, comm.coll_aside[0].len().max(comm.coll_aside[1].len()))
        });
        for (aside, most) in out.results {
            assert!(aside[5..].iter().all(|&lens| lens == (2, 2)), "{aside:?}");
            assert_eq!(most, MAX_ENVELOPES_ASIDE);
        }
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

    #[test]
    fn large_world_smoke() {
        // Many ranks on one machine must work (the Fig. 9 sweep needs 16384;
        // keep the unit test at 2048 for speed).
        let out = run(2048, MachineModel::juqueen_like(), |comm| {
            let s = comm.allreduce(1u64, |a, b| a + b);
            assert_eq!(s, 2048);
            comm.barrier();
            comm.rank()
        });
        assert_eq!(out.results.len(), 2048);
        assert!(out.makespan() > 0.0);
    }
}
