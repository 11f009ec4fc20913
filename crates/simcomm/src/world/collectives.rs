//! How ranks meet: two alternating slots per communicator ([`CollSlot`]) —
//! the world's, and each group's ([`Group`], made by [`Comm::split`]) —,
//! folds in ascending rank order, every collective a post and one wait
//! (at most one posted and not completed per communicator), and one body
//! that counts, costs and traces every all-to-all-v form, blocking or
//! posted ([`Comm::alltoallv_core`], [`AlltoallvRequest`]). Only this module
//! locks a slot.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use super::{lock, Comm, WorldShared};
use crate::engine::WaitSite;
use crate::model::CollTerms;
use crate::trace::{SpanCat, TraceKind};

/// One entry in a rank's all-to-all-v bin: where the receiver finds a message
/// addressed to it. The payload itself stays in the sender's deposit cell
/// until the receiver takes or copies it, so a sender ships one envelope per
/// call however many destinations it has.
#[derive(Clone, Copy)]
struct BinEntry {
    /// The sender's world rank (ranks fit 32 bits, see `HopTable`, which
    /// keeps the entry at three words).
    src: u32,
    /// The sender's cell: its place in the communicator (its world rank in
    /// the world).
    cell: u32,
    /// Where the message sits in the sender's deposit: its position in a
    /// send list, or the offset of its first element in a flat payload.
    index: usize,
    /// Elements in the message.
    len: usize,
}

impl BinEntry {
    fn src(&self) -> usize {
        self.src as usize
    }
}

/// A sender's view of the destination bins of one all-to-all-v: it names
/// destinations by world rank, and a group collective finds each one's bin
/// at its place among the members.
struct Bins<'a> {
    bins: &'a mut [Vec<BinEntry>],
    src: u32,
    cell: u32,
    group: Option<&'a GroupShared>,
}

impl Bins<'_> {
    /// File a message of `len` elements at `index` of the deposit for `dst`.
    fn push(&mut self, dst: usize, index: usize, len: usize) {
        let at = self.group.map_or(dst, |g| g.place(dst));
        self.bins[at].push(BinEntry { src: self.src, cell: self.cell, index, len });
    }
}

/// Envelopes set aside per rank (and per slot's result) at most. A program's
/// collectives cycle through a handful of types per step; one that cycles
/// through more re-boxes the longest unused.
const MAX_ENVELOPES_ASIDE: usize = 16;

/// The envelope in `current` as an `A`: kept as it is when it already is one
/// (the caller overwrites or refills it in place); otherwise it is set aside
/// for when its type comes round again, and the `A` set aside earlier — or a
/// new `A::default()` — takes its place. A step whose collectives alternate
/// types therefore boxes nothing once every type has been seen. A rank's
/// deposit envelopes wait in one list for both slots of a communicator, so
/// a type that comes round in the other slot takes the envelope the first
/// one displaced: a new type boxes one cell envelope per rank, and a second
/// only while the first still sits in the other slot's cell.
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

/// One of a communicator's two collective slots ([`Slots`]), with one cell
/// and one bin per member. Every rank counts the collectives it has entered
/// on the communicator ([`Comm::coll_seq`], [`Seat::seq`]; all members enter
/// them in the same order), and collective number `k` uses slot `k % 2`. Two slots
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
    /// rank's own side, for either slot ([`Comm::coll_aside`],
    /// [`envelope_as`]).
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

    /// The result envelope as an `A`, kept or set aside under the rule of
    /// [`envelope_as`].
    fn result_as<A: Default + Send + 'static>(&mut self) -> &mut A {
        envelope_as::<A>(&mut self.result, &mut self.results_aside)
    }

    /// The result the last depositor published.
    fn result<A: 'static>(&self) -> &A {
        self.result.downcast_ref::<A>().expect("collective aggregate type mismatch")
    }

    /// For an all-to-all-v receiver: the bin entries of the member in `cell`,
    /// sorted by source world rank (entries of one source in the order it
    /// listed them), beside the deposit cells they point into. Leaves the bin
    /// empty for the next collective in this slot.
    fn drain_bin(
        &mut self,
        cell: usize,
    ) -> (std::vec::Drain<'_, BinEntry>, &mut [Box<dyn Any + Send>]) {
        let bin = &mut self.bins[cell];
        bin.sort_unstable_by_key(|e| (e.src, e.index));
        (bin.drain(..), &mut self.cells)
    }
}

/// The current deposit of the sender of `e` among `cells`
/// ([`CollSlot::drain_bin`]) as a `D`, for an all-to-all-v receiver.
fn deposit_of<D: 'static>(cells: &mut [Box<dyn Any + Send>], e: BinEntry) -> &mut D {
    cells[e.cell as usize]
        .downcast_mut::<D>()
        .unwrap_or_else(|| panic!("alltoallv type mismatch from rank {}", e.src()))
}

/// A communicator's two collective slots.
pub(super) struct Slots([Mutex<CollSlot>; 2]);

impl Slots {
    pub(super) fn new(n: usize) -> Slots {
        Slots([Mutex::new(CollSlot::new(n)), Mutex::new(CollSlot::new(n))])
    }
}

/// What the members of one group share, made once by the last depositor of
/// the [`Comm::split`] that created it: who they are, what a collective
/// among them costs, and their own slot pair.
struct GroupShared {
    /// World-unique, from 1 in split order (see [`Group::id`]).
    id: u32,
    /// World ranks in member order: by key, then by world rank.
    members: Vec<usize>,
    /// `(world rank, member index)` ascending by world rank: where a
    /// destination's bin is.
    places: Vec<(usize, usize)>,
    terms: CollTerms,
    slots: Slots,
}

impl GroupShared {
    fn new(id: u32, members: Vec<usize>, world: &WorldShared) -> GroupShared {
        let mut places: Vec<(usize, usize)> =
            members.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        places.sort_unstable();
        let terms = world.model.group_coll_terms(&world.hop_table, &members);
        let slots = Slots::new(members.len());
        GroupShared { id, members, places, terms, slots }
    }

    /// The member index of world rank `rank`.
    fn place(&self, rank: usize) -> usize {
        match self.places.binary_search_by_key(&rank, |&(r, _)| r) {
            Ok(at) => self.places[at].1,
            Err(_) => panic!("rank {rank} is not a member of group {}", self.id),
        }
    }
}

/// One rank's own state on a communicator, beside what its members share:
/// its cell, its collective count, whether a collective is posted there and
/// not completed, and its envelopes set aside (the world's are
/// [`Comm::coll_seq`], [`Comm::coll_open`] and [`Comm::coll_aside`]).
struct Seat {
    /// This rank's member index.
    cell: usize,
    seq: u64,
    open: bool,
    aside: Vec<Box<dyn Any + Send>>,
}

/// A rank's handle on a group of world ranks, made by [`Comm::split`]: an
/// `MPI_Comm_split` sub-communicator that [`Group::alltoallv_flat`] runs
/// on. The rank that made it keeps it for as long as it exchanges on it;
/// dropping it on every member frees the group.
///
/// A group collective meets only the members: its clock is the members'
/// latest arrival, and its cost is the world's formula over the member
/// count and the members' torus coordinates (DESIGN.md, "Groups").
/// Destinations and sources stay world ranks.
pub struct Group {
    shared: Arc<GroupShared>,
    seat: Seat,
}

impl Group {
    /// The group's world-unique id, `1` for the first group a world makes;
    /// its collectives' trace records carry it ([`crate::TraceEvent::group`]).
    pub fn id(&self) -> u32 {
        self.shared.id
    }

    /// The members' world ranks, ordered by their split key (ties by world
    /// rank).
    pub fn members(&self) -> &[usize] {
        &self.shared.members
    }

    /// [`Comm::alltoallv_flat`] among the members: every member calls it,
    /// with `comm` its own world handle; `segments` name members by world
    /// rank, and `sources` come back in ascending world rank. Counted,
    /// booked and traced like the world's, at the group's cost.
    pub fn alltoallv_flat<T: Copy + Send + 'static>(
        &mut self,
        comm: &mut Comm,
        send: Vec<T>,
        segments: &[(usize, usize)],
        recv: &mut Vec<T>,
        sources: &mut Vec<(usize, usize)>,
    ) {
        let on = self.on(comm);
        comm.alltoallv_flat_on(on, send, segments, recv, sources);
    }

    /// [`Comm::ialltoallv_flat`] among the members: posted like
    /// [`Group::alltoallv_flat`], completed by
    /// [`AlltoallvRequest::wait`] with this group.
    pub fn ialltoallv_flat<T: Copy + Send + 'static>(
        &mut self,
        comm: &mut Comm,
        send: Vec<T>,
        segments: &[(usize, usize)],
    ) -> AlltoallvRequest<T> {
        let on = self.on(comm);
        comm.ialltoallv_flat_on(on, send, segments)
    }

    /// [`Comm::alltoallv_background`] on this group's cost terms.
    pub fn alltoallv_background(&self, s_bytes: u64, r_bytes: u64) -> f64 {
        self.shared.terms.alltoallv_background(s_bytes, r_bytes)
    }

    /// This group with `comm`'s seat in it, for a collective.
    fn on(&mut self, comm: &Comm) -> On<'_> {
        let Group { shared, seat } = self;
        assert_eq!(comm.rank, shared.members[seat.cell], "a group is used by its own rank");
        Some((shared, seat))
    }
}

/// Where a collective meets: the world (`None`), or a group with this rank's
/// seat in it.
type On<'a> = Option<(&'a GroupShared, &'a mut Seat)>;

/// `on` again, for a second call.
fn reborrow<'b>(on: &'b mut On<'_>) -> On<'b> {
    on.as_mut().map(|(g, seat)| (&**g, &mut **seat))
}

/// A collective this rank has posted and not yet completed: the slot that
/// holds it, the generation that slot completes it with, and what its
/// completion books and traces.
#[derive(Clone, Copy, Debug)]
struct Posted {
    parity: usize,
    generation: u64,
    /// The rank's clock after the post.
    t_post: f64,
    /// Where the post's trace record sits among the rank's events.
    record: Option<usize>,
}

/// A posted all-to-all-v ([`Comm::ialltoallv_flat`],
/// [`Group::ialltoallv_flat`]): its payload is deposited, and
/// [`AlltoallvRequest::wait`] completes it. Until then no other collective
/// may be entered on its communicator.
#[must_use = "a posted all-to-all-v completes only in `wait`"]
pub struct AlltoallvRequest<T> {
    posted: Posted,
    /// The communicator: `0` the world, else the group's id.
    group: u32,
    /// Messages and bytes this rank sent.
    sent: (u64, u64),
    elem: PhantomData<fn() -> T>,
}

impl<T: Copy + Send + 'static> AlltoallvRequest<T> {
    /// Complete the all-to-all-v: `recv` and `sources` are filled as
    /// [`Comm::alltoallv_flat`] fills them. `group` is the group it was
    /// posted on, `None` for the world. A yield point: the rank blocks here
    /// until the last member has posted.
    ///
    /// Clock: the collective completes at `max_post + cost`, with `max_post`
    /// the members' latest post and `cost` the blocking call's. The rank
    /// leaves at `max(max_post + cost, clock + cpu)`, where `clock` is its
    /// clock now and `cpu` the part of the cost its CPU spends (the count
    /// scan and the per-message handling, [`Comm::alltoallv_background`]
    /// being the rest). Waited with nothing charged since the post, it is
    /// the blocking call: the same clock, statistics and trace record.
    pub fn wait(
        self,
        comm: &mut Comm,
        group: Option<&mut Group>,
        recv: &mut Vec<T>,
        sources: &mut Vec<(usize, usize)>,
    ) {
        let on = match group {
            None => None,
            Some(group) => group.on(comm),
        };
        assert_eq!(
            on.as_ref().map_or(0, |(g, _)| g.id),
            self.group,
            "an all-to-all-v completes on the communicator it was posted on"
        );
        self.complete(comm, on, recv, sources);
    }

    fn complete(
        self,
        comm: &mut Comm,
        on: On<'_>,
        recv: &mut Vec<T>,
        sources: &mut Vec<(usize, usize)>,
    ) {
        comm.alltoallv_wait(
            on,
            self.posted,
            self.sent,
            std::mem::size_of::<T>(),
            |entries, cells| {
                recv.clear();
                recv.reserve_exact(entries.as_slice().iter().map(|e| e.len).sum());
                sources.clear();
                for e in entries {
                    let from = deposit_of::<FlatDeposit<T>>(cells, e);
                    recv.extend_from_slice(&from.payload[e.index..e.index + e.len]);
                    sources.push((e.src(), e.len));
                    from.unread -= 1;
                    if from.unread == 0 {
                        from.payload = Vec::new();
                    }
                }
            },
        );
    }
}

/// What a [`Comm::split`] leaves in its slot's result envelope: each rank's
/// `(color, key)`, written there at deposit — every rank has read the
/// slot's previous result by then (see [`CollSlot`]), and no cell boxes a
/// pair —, then the groups its last depositor made, and per world rank its
/// group and member index.
#[derive(Default)]
struct Split {
    /// Per world rank: `(color, key)`, then `(group, member index)`.
    seats: Vec<(u32, u32)>,
    groups: Vec<Arc<GroupShared>>,
    /// Ranks that have not taken their handle yet; the last one drops the
    /// groups, so the members' handles are all that keep them.
    unread: usize,
}

impl Split {
    /// Group the world's `(color, key)` pairs: one group per color, in
    /// ascending color, its members by key and world rank.
    fn build(&mut self, world: &WorldShared) {
        let mut order: Vec<(u32, u32, usize)> =
            self.seats.iter().enumerate().map(|(rank, &(color, key))| (color, key, rank)).collect();
        order.sort_unstable();
        self.groups.clear();
        for same in order.chunk_by(|a, b| a.0 == b.0) {
            let members: Vec<usize> = same.iter().map(|&(_, _, rank)| rank).collect();
            for (cell, &rank) in members.iter().enumerate() {
                self.seats[rank] = (self.groups.len() as u32, cell as u32);
            }
            let id = world.groups_made.fetch_add(1, Ordering::Relaxed) + 1;
            self.groups.push(Arc::new(GroupShared::new(id, members, world)));
        }
        self.unread = order.len();
    }

    /// World rank `rank`'s handle on its group.
    fn take(&mut self, rank: usize) -> Group {
        let (group, cell) = (self.seats[rank].0 as usize, self.seats[rank].1 as usize);
        let seat = Seat { cell, seq: 0, open: false, aside: Vec::new() };
        let group = Group { shared: Arc::clone(&self.groups[group]), seat };
        self.unread -= 1;
        if self.unread == 0 {
            self.groups.clear();
        }
        group
    }
}

impl Comm {
    /// Every blocking collective: [`Comm::coll_post`], then at once
    /// [`Comm::coll_wait`]. Its whole `cost` is the rank's: nothing runs
    /// between post and wait to hide any of it.
    fn coll_exchange<R>(
        &mut self,
        mut on: On<'_>,
        (kind, bytes): (Option<TraceKind>, u64),
        deposit: impl FnOnce(&mut CollSlot, &mut Vec<Box<dyn Any + Send>>),
        publish: impl FnOnce(&mut CollSlot),
        read: impl FnOnce(&mut CollSlot) -> R,
        cost: impl FnOnce(&R, &CollTerms) -> f64,
    ) -> R {
        let posted = self.coll_post(reborrow(&mut on), (kind, bytes), deposit, publish);
        let cost = |out: &R, terms: &CollTerms| {
            let c = cost(out, terms);
            (c, c)
        };
        self.coll_wait(on, posted, kind, read, cost)
    }

    /// Enter a collective without waiting for it, on the communicator `on`
    /// (see [`CollSlot`] for why two alternating slots suffice): run
    /// `deposit` on the slot this collective uses, with the envelopes this
    /// rank has set aside ([`envelope_as`]); the last depositor also runs
    /// `publish` over the full slot and wakes the members parked on it. Both
    /// run under the slot's guard, and the rank does not block: a post is not
    /// a yield point. Books one operation of `bytes` contributed and, if
    /// `kind` is traced, opens its record.
    ///
    /// # Panics
    ///
    /// If a collective posted on `on` has not completed yet: a communicator
    /// has at most one collective outstanding, which keeps the two-slot
    /// argument of [`CollSlot`] — a rank reads collective `k` before it
    /// deposits into `k + 1`.
    fn coll_post(
        &mut self,
        on: On<'_>,
        (kind, bytes): (Option<TraceKind>, u64),
        deposit: impl FnOnce(&mut CollSlot, &mut Vec<Box<dyn Any + Send>>),
        publish: impl FnOnce(&mut CollSlot),
    ) -> Posted {
        let t_entry = self.clock;
        self.count_coll(1, bytes);
        self.fault_op_tick();
        // Sized at this rank's first collective, not when it first completes
        // one: a warm collective never grows it, at width 1 it stays empty.
        if self.woken.capacity() == 0 {
            self.woken.reserve_exact(self.shared.sched.collective_wake_limit());
        }
        let world = &*self.shared;
        let (slots, seq, open, aside, members, id) = match on {
            None => {
                let (seq, open) = (&mut self.coll_seq, &mut self.coll_open);
                (&world.coll, seq, open, &mut self.coll_aside, None, 0)
            }
            Some((g, seat)) => {
                let members = Some(&g.members[..]);
                (&g.slots, &mut seat.seq, &mut seat.open, &mut seat.aside, members, g.id)
            }
        };
        assert!(
            !*open,
            "a collective entered on communicator {id} before its posted one completed"
        );
        *open = true;
        let size = members.map_or(world.n, <[usize]>::len);
        let parity = (*seq % 2) as usize;
        let m = &slots.0[parity];
        *seq += 1;
        let mut slot = lock(m);
        let generation = slot.generation;
        if slot.arrived == 0 {
            slot.max_clock = 0.0;
        }
        deposit(&mut slot, aside);
        slot.max_clock = slot.max_clock.max(self.clock);
        slot.arrived += 1;
        if slot.arrived == size {
            // Last depositor: publish the result and release the others.
            publish(&mut slot);
            slot.arrived = 0;
            slot.generation += 1;
            match members {
                None => world.sched.wake_collective(0..size, &mut self.woken),
                Some(members) => {
                    world.sched.wake_collective(members.iter().copied(), &mut self.woken)
                }
            }
        }
        drop(slot);
        // Batons change hands only now that the collective guard is free.
        for next in self.woken.drain(..) {
            world.sched.resume(next);
        }
        let record = match (kind, &self.trace) {
            (Some(_), Some(trace)) => Some(trace.events.len()),
            _ => None,
        };
        if record.is_some() {
            self.trace_record(TraceKind::Ialltoallv, t_entry, bytes, None, (size, id), 0);
        }
        Posted { parity, generation, t_post: self.clock, record }
    }

    /// Complete the collective `posted` on `on`: wait — the one rendezvous
    /// wait, a yield point — until its last depositor has published, then
    /// run `read` under the slot's guard. `cost` gives what the collective
    /// costs with the communicator's terms, and the part of that the rank's
    /// CPU spends. Waited with nothing charged since the post, the rank
    /// books the gap to the last depositor as rendezvous wait and the cost
    /// as communication, and its record becomes the blocking one of `kind`;
    /// a rank that has computed past the last post instead books what is
    /// left of the collective, at least its CPU part, as communication, and
    /// records the completion apart.
    fn coll_wait<R>(
        &mut self,
        on: On<'_>,
        posted: Posted,
        kind: Option<TraceKind>,
        read: impl FnOnce(&mut CollSlot) -> R,
        cost: impl FnOnce(&R, &CollTerms) -> (f64, f64),
    ) -> R {
        let world = &*self.shared;
        let (slots, open, terms, size, id) = match on {
            None => (&world.coll, &mut self.coll_open, world.coll_terms, world.n, 0),
            Some((g, seat)) => (&g.slots, &mut seat.open, g.terms, g.members.len(), g.id),
        };
        let m = &slots.0[posted.parity];
        let mut slot = lock(m);
        while slot.generation == posted.generation {
            world.check_poison();
            slot = world.wait_on(self.rank, WaitSite::Collective, self.clock, m, slot);
        }
        let out = read(&mut slot);
        let max_clock = slot.max_clock;
        drop(slot);
        *open = false;
        let (cost, cpu) = cost(&out, &terms);
        let t_wait = self.clock;
        if t_wait <= max_clock {
            self.charge(SpanCat::Wait, max_clock - t_wait);
            self.charge(SpanCat::Comm, cost.max(0.0));
        } else {
            self.charge(SpanCat::Comm, (max_clock + cost - t_wait).max(cpu));
        }
        if let (Some(kind), Some(at)) = (kind, posted.record) {
            let events = &mut self.trace.as_mut().expect("a record was opened").events;
            if t_wait == posted.t_post && events.len() == at + 1 {
                let e = &mut events[at];
                (e.kind, e.t_end) = (kind, self.clock);
            } else {
                self.trace_record(TraceKind::CollWait, t_wait, 0, None, (size, id), 0);
            }
        }
        out
    }

    /// Synchronize all ranks; clocks advance to the barrier completion time.
    pub fn barrier(&mut self) {
        let kind = Some(TraceKind::Barrier);
        self.coll_exchange(None, (kind, 0), |_, _| (), |_| (), |_| (), |_, terms| terms.barrier());
    }

    /// [`Comm::barrier`] without its trace record, for
    /// [`Comm::sparse_exchange`], whose round ends in one and records itself.
    pub(super) fn barrier_untraced(&mut self) {
        self.coll_exchange(None, (None, 0), |_, _| (), |_| (), |_| (), |_, terms| terms.barrier());
    }

    /// Broadcast `root`'s value to all ranks.
    pub fn bcast<T: Clone + Send + Sync + 'static>(&mut self, root: usize, value: T) -> T {
        assert!(root < self.shared.n);
        let bytes = std::mem::size_of::<T>() as u64;
        let rank = self.rank;
        self.coll_exchange(
            None,
            (Some(TraceKind::Bcast), bytes),
            |slot, aside| slot.put(rank, aside, (rank == root).then_some(value)),
            |slot| {
                let (deposits, result) = slot.deposits_and_result::<Option<T>, Option<T>>();
                *result = deposits.flatten().next();
            },
            |slot| slot.result::<Option<T>>().clone().expect("bcast root contributed no value"),
            |_, terms| terms.tree_coll(bytes),
        )
    }

    /// All-reduce with a user-provided associative, commutative operator.
    pub fn allreduce<T, Op>(&mut self, value: T, op: Op) -> T
    where
        T: Clone + Send + Sync + 'static,
        Op: Fn(T, T) -> T,
    {
        let bytes = std::mem::size_of::<T>() as u64;
        let rank = self.rank;
        self.coll_exchange(
            None,
            (Some(TraceKind::Reduce), bytes),
            |slot, aside| slot.put(rank, aside, value),
            |slot| {
                let (deposits, result) = slot.deposits_and_result::<T, Option<T>>();
                *result = deposits.reduce(&op);
            },
            |slot| slot.result::<Option<T>>().clone().expect("allreduce over empty world"),
            |_, terms| terms.tree_coll(bytes),
        )
    }

    /// Exclusive prefix scan: rank `r` receives `op` folded over the values of
    /// ranks `0..r`; rank 0 receives `identity`.
    pub fn exscan<T, Op>(&mut self, value: T, identity: T, op: Op) -> T
    where
        T: Clone + Send + Sync + 'static,
        Op: Fn(T, T) -> T,
    {
        let bytes = std::mem::size_of::<T>() as u64;
        let rank = self.rank;
        self.coll_exchange(
            None,
            (Some(TraceKind::Reduce), bytes),
            |slot, aside| slot.put(rank, aside, value),
            CollSlot::gather::<T>,
            |slot| {
                let below = slot.result::<Vec<T>>().iter().take(rank);
                below.fold(identity, |acc, v| op(acc, v.clone()))
            },
            |_, terms| terms.tree_coll(bytes),
        )
    }

    /// Gather one value from every rank onto all ranks, ordered by rank.
    pub fn allgather<T: Clone + Send + Sync + 'static>(&mut self, value: T) -> Vec<T> {
        let per = std::mem::size_of::<T>() as u64;
        let total = per * self.shared.n as u64;
        let rank = self.rank;
        self.coll_exchange(
            None,
            (Some(TraceKind::Gather), per),
            |slot, aside| slot.put(rank, aside, value),
            CollSlot::gather::<T>,
            |slot| slot.result::<Vec<T>>().clone(),
            |_, terms| terms.allgather(total),
        )
    }

    /// Gather variable-length buffers from every rank onto all ranks,
    /// concatenated in rank order.
    pub fn allgatherv<T: Clone + Send + Sync + 'static>(&mut self, data: Vec<T>) -> Vec<T> {
        let per = std::mem::size_of_val(&data[..]) as u64;
        let rank = self.rank;
        self.coll_exchange(
            None,
            (Some(TraceKind::Gather), per),
            |slot, aside| slot.put(rank, aside, data),
            |slot| {
                let (deposits, flat) = slot.deposits_and_result::<Vec<T>, Vec<T>>();
                flat.clear();
                deposits.for_each(|part| flat.extend(part));
            },
            |slot| slot.result::<Vec<T>>().clone(),
            |flat, terms| terms.allgather(std::mem::size_of_val(&flat[..]) as u64),
        )
    }

    /// Split the world into groups ([`Group`]), like `MPI_Comm_split`: every
    /// rank calls it, the ranks of one `color` form one group, ordered by
    /// `key` (ties by world rank), and each rank gets its own handle. A
    /// world collective, charged as the allgather of the `(color, key)`
    /// pairs it is — 32-bit each, as `MPI_Comm_split`'s `int`s are, so 8
    /// bytes per rank. A Cartesian sub-grid is a split whose color is the
    /// fixed coordinate.
    pub fn split(&mut self, color: u32, key: u32) -> Group {
        let (n, rank) = (self.shared.n, self.rank);
        let per = std::mem::size_of::<(u32, u32)>() as u64;
        let world = Arc::clone(&self.shared);
        self.coll_exchange(
            None,
            (Some(TraceKind::Gather), per),
            |slot, _| {
                let seats = &mut slot.result_as::<Split>().seats;
                seats.resize(n, (0, 0));
                seats[rank] = (color, key);
            },
            |slot| slot.result_as::<Split>().build(&world),
            |slot| slot.result_as::<Split>().take(rank),
            |_, terms| terms.allgather(per * n as u64),
        )
    }

    /// What every all-to-all-v form is, on the communicator `on`: `sent`
    /// messages and bytes leave this rank; `deposit` puts the payload into
    /// the rank's cell and one [`BinEntry`] per message into the
    /// destinations' bins; after the rendezvous `read` walks this rank's own
    /// entries — sorted by source, those of one source in the order it
    /// listed them — with the senders' cells at hand ([`deposit_of`]).
    /// `elem` is the element size the entries' lengths count in. Statistics,
    /// the modelled cost and the trace event are the same for every form and
    /// every communicator: [`Comm::alltoallv_post`], then at once
    /// [`Comm::alltoallv_wait`].
    fn alltoallv_core<I>(
        &mut self,
        mut on: On<'_>,
        sent: (u64, u64),
        elem: usize,
        deposit: impl FnOnce(&mut Box<dyn Any + Send>, &mut Vec<Box<dyn Any + Send>>, Bins<'_>),
        read: impl FnOnce(std::vec::Drain<'_, BinEntry>, &mut [Box<dyn Any + Send>]) -> I,
    ) -> I {
        let posted = self.alltoallv_post(reborrow(&mut on), sent, deposit);
        self.alltoallv_wait(on, posted, sent, elem, read)
    }

    /// The post of [`Comm::alltoallv_core`]: books what leaves this rank and
    /// deposits it.
    fn alltoallv_post(
        &mut self,
        on: On<'_>,
        (s_msgs, s_bytes): (u64, u64),
        deposit: impl FnOnce(&mut Box<dyn Any + Send>, &mut Vec<Box<dyn Any + Send>>, Bins<'_>),
    ) -> Posted {
        self.shared.check_poison();
        self.count_p2p_sent(s_msgs, s_bytes);
        let src = self.rank;
        let (group, cell) = match &on {
            None => (None, src),
            Some((g, seat)) => (Some(*g), seat.cell),
        };
        self.coll_post(
            on,
            (Some(TraceKind::Alltoallv), s_bytes),
            |slot, aside| {
                let (src, at) = (src as u32, cell as u32);
                let bins = Bins { bins: &mut slot.bins, src, cell: at, group };
                deposit(&mut slot.cells[cell], aside, bins)
            },
            |_| (),
        )
    }

    /// The wait of [`Comm::alltoallv_core`]: reads this rank's bin, books
    /// what arrived, and charges the collective's cost over both.
    fn alltoallv_wait<I>(
        &mut self,
        on: On<'_>,
        posted: Posted,
        (s_msgs, s_bytes): (u64, u64),
        elem: usize,
        read: impl FnOnce(std::vec::Drain<'_, BinEntry>, &mut [Box<dyn Any + Send>]) -> I,
    ) -> I {
        let cell = on.as_ref().map_or(self.rank, |(_, seat)| seat.cell);
        let (out, r_msgs, r_bytes) = self.coll_wait(
            on,
            posted,
            Some(TraceKind::Alltoallv),
            |slot| {
                let (entries, cells) = slot.drain_bin(cell);
                let r_msgs = entries.len() as u64;
                let r_elems: usize = entries.as_slice().iter().map(|e| e.len).sum();
                (read(entries, cells), r_msgs, r_elems as u64 * elem as u64)
            },
            |&(_, r_msgs, r_bytes), terms| {
                let cost = terms.alltoallv(s_msgs, s_bytes, r_msgs, r_bytes);
                (cost, terms.alltoallv_cpu(s_msgs, r_msgs))
            },
        );
        self.count_p2p_recv(r_msgs, r_bytes);
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
        self.alltoallv_core(
            None,
            sent,
            std::mem::size_of::<T>(),
            |cell, aside, mut bins| {
                let outgoing = envelope_as::<Vec<(usize, Vec<T>)>>(cell, aside);
                outgoing.clear();
                std::mem::swap(outgoing, sends);
                for (index, (dst, data)) in outgoing.iter().enumerate() {
                    if !data.is_empty() {
                        bins.push(*dst, index, data.len());
                    }
                }
            },
            |entries, cells| {
                received.reserve_exact(entries.len());
                for e in entries {
                    let from = deposit_of::<Vec<(usize, Vec<T>)>>(cells, e);
                    received.push((e.src(), std::mem::take(&mut from[e.index].1)));
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
        self.alltoallv_flat_on(None, send, segments, recv, sources);
    }

    /// [`Comm::alltoallv_flat`] on the communicator `on`.
    fn alltoallv_flat_on<T: Copy + Send + 'static>(
        &mut self,
        mut on: On<'_>,
        send: Vec<T>,
        segments: &[(usize, usize)],
        recv: &mut Vec<T>,
        sources: &mut Vec<(usize, usize)>,
    ) {
        let request = self.ialltoallv_flat_on(reborrow(&mut on), send, segments);
        request.complete(self, on, recv, sources);
    }

    /// [`Comm::alltoallv_flat`] without waiting: posts this rank's payload
    /// and returns at once — a post is not a yield point —, and the
    /// request's [`AlltoallvRequest::wait`] completes it into `recv` and
    /// `sources`. What the rank computes in between hides the collective's
    /// synchronizing stages and its volume term (the request documents the
    /// clock rule). Until the wait, no other collective may be entered on
    /// the world: one that is panics.
    pub fn ialltoallv_flat<T: Copy + Send + 'static>(
        &mut self,
        send: Vec<T>,
        segments: &[(usize, usize)],
    ) -> AlltoallvRequest<T> {
        self.ialltoallv_flat_on(None, send, segments)
    }

    /// The part of an all-to-all-v on the world that runs in the background
    /// of a nonblocking post ([`Comm::ialltoallv_flat`]), for a rank that
    /// sends `s_bytes` and receives `r_bytes`: the synchronizing stages and
    /// the volume term — the computation that fits between post and wait
    /// without delaying the completion.
    pub fn alltoallv_background(&self, s_bytes: u64, r_bytes: u64) -> f64 {
        self.shared.coll_terms.alltoallv_background(s_bytes, r_bytes)
    }

    /// [`Comm::ialltoallv_flat`] on the communicator `on`.
    fn ialltoallv_flat_on<T: Copy + Send + 'static>(
        &mut self,
        on: On<'_>,
        send: Vec<T>,
        segments: &[(usize, usize)],
    ) -> AlltoallvRequest<T> {
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
        let group = on.as_ref().map_or(0, |(g, _)| g.id);
        let posted = self.alltoallv_post(on, sent, |cell, aside, mut bins| {
            let mut index = 0;
            for &(dst, len) in segments {
                if len > 0 {
                    bins.push(dst, index, len);
                }
                index += len;
            }
            // Without a message nobody would free the buffer.
            let payload = if sent.0 == 0 { Vec::new() } else { send };
            *envelope_as(cell, aside) = FlatDeposit { payload, unread: sent.0 as usize };
        });
        AlltoallvRequest { posted, group, sent, elem: PhantomData }
    }

    /// Dense all-to-all of exactly one element per rank pair: rank `r` ends
    /// up with `data[r]` of every rank, ordered by source. The all-to-all-v
    /// with one single-element message per rank pair, but each rank's row
    /// travels as one deposit — no per-element boxing.
    pub fn alltoall<T: Clone + Send + Sync + 'static>(&mut self, data: &[T]) -> Vec<T> {
        let n = self.shared.n;
        assert_eq!(data.len(), n, "alltoall needs one element per rank");
        self.alltoallv_core(
            None,
            (n as u64, std::mem::size_of_val(data) as u64),
            std::mem::size_of::<T>(),
            |cell, aside, mut bins| {
                let row = envelope_as::<Vec<T>>(cell, aside);
                row.clear();
                row.extend_from_slice(data);
                for dst in 0..n {
                    bins.push(dst, dst, 1);
                }
            },
            // Every row stays in its sender's cell; each receiver copies its
            // own column out.
            |entries, cells| {
                entries.map(|e| deposit_of::<Vec<T>>(cells, e)[e.index].clone()).collect()
            },
        )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, MachineModel};

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
    fn collective_envelopes_of_other_types_wait_aside() {
        // Three deposit types with an odd period over the two slots: once
        // all three have been seen, one sits in each slot's cell and the
        // third waits aside, for whichever slot its type comes round in
        // next — each type boxed once per rank, nothing boxed again.
        let out = run(3, MachineModel::ideal(), |comm| {
            let mut aside = Vec::new();
            for round in 0..12u64 {
                match round % 3 {
                    0 => drop(comm.allreduce(round, |a, b| a + b)),
                    1 => drop(comm.allreduce((true, false), |a, b| (a.0 && b.0, a.1 || b.1))),
                    _ => drop(comm.allgather(round as f64)),
                }
                aside.push(comm.coll_aside.len());
            }
            // More types than are kept: the longest unused are dropped.
            macro_rules! allreduce_arrays {
                ($($n:literal)*) => { $( comm.allreduce([0u8; $n], |a, _| a); )* };
            }
            allreduce_arrays!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24);
            allreduce_arrays!(25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45);
            (aside, comm.coll_aside.len())
        });
        for (aside, most) in out.results {
            assert_eq!(aside[..2], [0, 0], "{aside:?}");
            assert!(aside[2..].iter().all(|&len| len == 1), "{aside:?}");
            assert_eq!(most, MAX_ENVELOPES_ASIDE);
        }
    }

    #[test]
    fn a_collective_entered_while_one_is_posted_panics() {
        let out = crate::Runner::default().try_run(2, MachineModel::ideal(), |comm| {
            let request = comm.ialltoallv_flat(vec![1u8], &[((comm.rank() + 1) % 2, 1)]);
            comm.barrier();
            let (mut recv, mut sources) = (Vec::new(), Vec::new());
            request.wait(comm, None, &mut recv, &mut sources);
        });
        assert!(out.is_err(), "a barrier on a communicator with a posted all-to-all-v");
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
