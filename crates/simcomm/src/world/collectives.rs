//! How ranks meet: two alternating slots ([`CollSlot`]), folds in ascending
//! rank order, one wait per collective, and one body that counts, costs and
//! traces every all-to-all-v form ([`Comm::alltoallv_core`]). Only this
//! module locks a slot.

use std::any::Any;
use std::sync::Mutex;

use super::{lock, Comm};
use crate::engine::WaitSite;
use crate::model::CollTerms;
use crate::trace::{SpanCat, TraceKind};

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

/// One of the world's two collective slots ([`Slots`]). Every rank counts the
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

/// The world's two collective slots.
pub(super) struct Slots([Mutex<CollSlot>; 2]);

impl Slots {
    pub(super) fn new(n: usize) -> Slots {
        Slots([Mutex::new(CollSlot::new(n)), Mutex::new(CollSlot::new(n))])
    }
}

impl Comm {
    /// Every collective, with exactly one wait: every rank runs `deposit` on
    /// the slot this collective uses (see [`CollSlot`] for why two
    /// alternating slots suffice); the last depositor runs `publish` over the
    /// full slot and wakes the others; every rank then runs `read`. All three
    /// run under the slot's guard; `deposit` also gets the envelopes this
    /// rank has set aside for the slot ([`envelope_as`]). The collective is
    /// booked here too: one operation of `bytes` contributed, the gap to the
    /// last depositor as rendezvous wait, `cost` of what `read` returned as
    /// communication, and a trace record of `kind` if there is one.
    fn coll_exchange<R>(
        &mut self,
        (kind, bytes): (Option<TraceKind>, u64),
        deposit: impl FnOnce(&mut CollSlot, &mut Vec<Box<dyn Any + Send>>),
        publish: impl FnOnce(&mut CollSlot),
        read: impl FnOnce(&mut CollSlot) -> R,
        cost: impl FnOnce(&R, &CollTerms) -> f64,
    ) -> R {
        let t0 = self.clock;
        self.count_coll(1, bytes);
        self.fault_op_tick();
        // Sized at this rank's first collective, not when it first completes
        // one: a warm collective never grows it, at width 1 it stays empty.
        if self.woken.capacity() == 0 {
            self.woken.reserve_exact(self.shared.sched.collective_wake_limit());
        }
        let parity = (self.coll_seq % 2) as usize;
        let m = &self.shared.coll.0[parity];
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
        let cost = cost(&out, &self.shared.coll_terms);
        self.charge(SpanCat::Wait, (max_clock - self.clock).max(0.0));
        self.charge(SpanCat::Comm, cost.max(0.0));
        if let Some(kind) = kind {
            self.trace_event(kind, t0, bytes, None);
        }
        out
    }

    /// Synchronize all ranks; clocks advance to the barrier completion time.
    pub fn barrier(&mut self) {
        let kind = Some(TraceKind::Barrier);
        self.coll_exchange((kind, 0), |_, _| (), |_| (), |_| (), |_, terms| terms.barrier());
    }

    /// [`Comm::barrier`] without its trace record, for
    /// [`Comm::sparse_exchange`], whose round ends in one and records itself.
    pub(super) fn barrier_untraced(&mut self) {
        self.coll_exchange((None, 0), |_, _| (), |_| (), |_| (), |_, terms| terms.barrier());
    }

    /// Broadcast `root`'s value to all ranks.
    pub fn bcast<T: Clone + Send + Sync + 'static>(&mut self, root: usize, value: T) -> T {
        assert!(root < self.shared.n);
        let bytes = std::mem::size_of::<T>() as u64;
        let rank = self.rank;
        self.coll_exchange(
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
        self.count_p2p_sent(s_msgs, s_bytes);
        let rank = self.rank;
        let (out, r_msgs, r_bytes) = self.coll_exchange(
            (Some(TraceKind::Alltoallv), s_bytes),
            |slot, aside| deposit(&mut slot.cells[rank], aside, &mut slot.bins),
            |_| (),
            |slot| {
                let (entries, cells) = slot.drain_bin(rank);
                let r_msgs = entries.len() as u64;
                let r_elems: usize = entries.as_slice().iter().map(|e| e.len).sum();
                (read(entries, cells), r_msgs, r_elems as u64 * elem as u64)
            },
            |&(_, r_msgs, r_bytes), terms| terms.alltoallv(s_msgs, s_bytes, r_msgs, r_bytes),
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
    /// up with `data[r]` of every rank, ordered by source. The all-to-all-v
    /// with one single-element message per rank pair, but each rank's row
    /// travels as one deposit — no per-element boxing.
    pub fn alltoall<T: Clone + Send + Sync + 'static>(&mut self, data: &[T]) -> Vec<T> {
        let n = self.shared.n;
        assert_eq!(data.len(), n, "alltoall needs one element per rank");
        let src = self.rank;
        self.alltoallv_core(
            (n as u64, std::mem::size_of_val(data) as u64),
            std::mem::size_of::<T>(),
            |cell, aside, bins| {
                let row = envelope_as::<Vec<T>>(cell, aside);
                row.clear();
                row.extend_from_slice(data);
                for (dst, bin) in bins.iter_mut().enumerate() {
                    bin.push(BinEntry { src, index: dst, len: 1 });
                }
            },
            // Every row stays in its sender's cell; each receiver copies its
            // own column out.
            |entries, cells| {
                entries.map(|e| deposit_of::<Vec<T>>(cells, e.src)[e.index].clone()).collect()
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
