//! # atasp — fine-grained data redistribution (all-to-all specific)
//!
//! Stand-in for the ZMPI-ATASP library the paper's P2NFFT solver and library
//! interface build on (paper refs. 13 and 14): data redistribution operations where
//! **every element names its own target process**, and the **resort**
//! operation used by `fcs_resort_floats` / `fcs_resort_ints` — redistribute
//! according to 64-bit resort indices, then place elements at their target
//! positions. (The P2NFFT's ghost duplicates travel through its own ghost
//! plan, not through a duplicating redistribution here.)
//!
//! Resort indices are 64-bit integers storing a target process rank in the
//! upper 32 bits and a target position in the lower 32 bits, exactly like the
//! index values the paper describes (Sect. III-A, P2NFFT solver).
//!
//! [`hand_back`] is the return path both particle solvers share: the
//! computed particles go home to their origin rank and position (Method A),
//! or stay in the solver's order (Method B). Each end ships only what the
//! other lacks. Method A's restore is a resort plan over the particles'
//! origin codes that carries potentials and fields alone. Under Method B
//! the application's additional data follows a resort plan built from the
//! routes the particles took — recorded by the redistribution that brought
//! them ([`alltoall_specific_routed`]), rebuilt from a map of where every
//! input ended that every rank holds ([`Routes::rebuild_from_owners`]), or,
//! where nothing moved, the identity route ([`Route::Identity`]) — with no
//! index built or exchanged. The resort indices of Fig. 5
//! ([`build_resort_indices`]) remain for callers without routes, and as the
//! query `fcs` answers from a plan.
//!
//! All operations can run over the synchronizing collective exchange
//! ([`simcomm::Comm::alltoallv`]) or — when the caller knows the
//! communication is restricted to a neighbourhood — over point-to-point
//! messages, which is the switch the paper's Method B performs when the
//! maximum particle movement is small (Sect. III-B). The neighbourhood runs
//! the sparse data exchange ([`simcomm::Comm::sparse_exchange`]): a message
//! only to each partner that has data, then one barrier, so a step in which
//! little moves pays for little. A plan built from routes knows its sources
//! as well as its targets, and exchanges point to point with no barrier
//! ([`simcomm::Comm::routed_exchange_into`]).
//!
//! ## The local block
//!
//! Under either mode the elements a rank addresses to itself never travel:
//! they are held aside while the rest are exchanged, and take the local
//! rank's place in the ascending source order the receiver reads — where a
//! self-send would have put them. Results are the same bits; only the
//! self-message's cost and its bytes are gone from the clocks and counters
//! (DESIGN.md, "The local block").
//!
//! ## The byte-plane resort path
//!
//! The resort operations move their payload **type-erased**: all registered
//! planes of a [`particles::PlaneSet`] travel together in one byte exchange
//! ([`resort_planes`] / [`ResortPlan::execute_planes`]),
//! regardless of how many fields of how many element types ride along. The
//! per-`T` entry points ([`resort`], [`ResortPlan::execute`]) are thin
//! wrappers that stage their channels as planes and delegate. Combined with the message-buffer pool
//! ([`simcomm::Comm::buf_acquire`]) the steady-state neighbourhood resort
//! performs zero per-step heap allocation.

#![warn(missing_docs)]
// No result of this crate may depend on `RandomState`: nothing outside tests
// iterates a hash container.
#![cfg_attr(not(test), deny(clippy::iter_over_hash_type))]

use particles::record::fold_words;
use particles::{Particle, PlaneElem, PlaneSet, RedistMethod, SolverOutput, SolverTimings, Vec3};
use simcomm::{Comm, Work};

/// Encode a (process rank, position) pair into a 64-bit index value:
/// rank in the upper 32 bits, position in the lower 32 bits.
#[inline]
pub fn encode_index(rank: usize, pos: usize) -> u64 {
    debug_assert!(rank <= u32::MAX as usize && pos <= u32::MAX as usize);
    ((rank as u64) << 32) | pos as u64
}

/// Decode a 64-bit index value into its (process rank, position) pair.
#[inline]
pub fn decode_index(index: u64) -> (usize, usize) {
    ((index >> 32) as usize, (index & 0xffff_ffff) as usize)
}

/// How a redistribution exchanges its messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Collective all-to-all-v (synchronizing; cost scans all `P` ranks).
    /// Locally-addressed elements stay out of it, as under
    /// [`ExchangeMode::Neighborhood`].
    Collective,
    /// Point-to-point exchange within the given partner set: every element
    /// target other than the local rank must be in the set; the local rank's
    /// own elements never travel. The set bounds where this rank sends and
    /// nothing more — the relation need not be symmetric, since a rank
    /// receives from whoever sent to it.
    ///
    /// An empty set says that no element leaves any rank: the call places
    /// locally, with no message and no barrier. Every rank of the world must
    /// then pass an empty set — [`hand_back`]'s restore does so when its
    /// allreduce has shown every record home on every rank.
    Neighborhood(Vec<usize>),
}

/// Group `(target, element)` pairs by target rank, stable within each target,
/// into one buffer per destination that receives anything: every rank under
/// [`ExchangeMode::Collective`], the partners and the local rank — in that
/// order — under [`ExchangeMode::Neighborhood`]. Counts first, so each buffer
/// is allocated once at its final size.
///
/// # Panics
///
/// Panics if a target is not a rank of the world, or — in neighbourhood mode —
/// neither the local rank nor a partner.
fn group_by_target<T: Copy>(
    comm: &Comm,
    routed: impl Iterator<Item = (usize, T)> + Clone,
    mode: &ExchangeMode,
) -> Vec<(usize, Vec<T>)> {
    let (me, p) = (comm.rank(), comm.size());
    let slot = |t: usize| -> usize {
        assert!(t < p, "target rank {t} out of range");
        match mode {
            ExchangeMode::Collective => t,
            ExchangeMode::Neighborhood(partners) if t == me => partners.len(),
            ExchangeMode::Neighborhood(partners) => partners
                .iter()
                .position(|&q| q == t)
                .unwrap_or_else(|| panic!("target {t} outside the neighbourhood")),
        }
    };
    let mut groups: Vec<(usize, Vec<T>)> = match mode {
        ExchangeMode::Collective => (0..p).map(|t| (t, Vec::new())).collect(),
        ExchangeMode::Neighborhood(partners) => {
            partners.iter().chain([&me]).map(|&t| (t, Vec::new())).collect()
        }
    };
    let mut counts = vec![0usize; groups.len()];
    for (t, _) in routed.clone() {
        counts[slot(t)] += 1;
    }
    for ((_, buf), count) in groups.iter_mut().zip(counts) {
        buf.reserve_exact(count);
    }
    for (t, e) in routed {
        groups[slot(t)].1.push(e);
    }
    groups.retain(|(_, buf)| !buf.is_empty());
    groups
}

impl ExchangeMode {
    /// Exchange `sends` — buffers for other ranks only; the local block never
    /// travels — and refill `received` with what arrived, sorted by source.
    /// Collective under both modes; an empty neighbourhood exchanges nothing.
    ///
    /// # Panics
    ///
    /// Panics if, in neighbourhood mode, a buffer targets a rank outside the
    /// partner set.
    fn exchange_into<T: Send + 'static>(
        &self,
        comm: &mut Comm,
        sends: &mut Vec<(usize, Vec<T>)>,
        received: &mut Vec<(usize, Vec<T>)>,
    ) {
        debug_assert!(sends.iter().all(|&(dst, _)| dst != comm.rank()), "a self-addressed send");
        match self {
            ExchangeMode::Collective => comm.alltoallv_into(sends, received),
            ExchangeMode::Neighborhood(partners) if partners.is_empty() => {
                if let Some((t, _)) = sends.first() {
                    panic!("target {t} outside the neighbourhood");
                }
                received.clear();
            }
            ExchangeMode::Neighborhood(partners) => {
                comm.sparse_exchange_into(partners, sends, received)
            }
        }
    }
}

/// What an exchange of target-grouped buffers delivered: the buffers of the
/// other ranks, ascending source, and the local rank's own block, which never
/// travelled and belongs between the buffers of lower and higher sources.
struct Delivered<T> {
    me: usize,
    remote: Vec<(usize, Vec<T>)>,
    local: Option<Vec<T>>,
}

impl<T> Delivered<T> {
    /// Every delivered buffer in ascending source order, the local block at
    /// its own rank's position.
    fn buffers(&self) -> impl Iterator<Item = &[T]> {
        self.sources().map(|(_, b)| b)
    }

    /// [`Delivered::buffers`] with the rank each came from.
    fn sources(&self) -> impl Iterator<Item = (usize, &[T])> {
        in_source_order(self.me, &self.remote, self.local.as_deref())
    }

    /// The delivered buffers end to end: the local block itself when
    /// nothing arrived from another rank.
    fn concat(self) -> Vec<T>
    where
        T: Copy,
    {
        if self.remote.is_empty() {
            return self.local.unwrap_or_default();
        }
        let mut out = Vec::with_capacity(self.buffers().map(<[T]>::len).sum());
        for buf in self.buffers() {
            out.extend_from_slice(buf);
        }
        out
    }
}

/// Buffers received from other ranks (ascending source) and the local
/// rank's own block, in ascending source order with the local block at
/// rank `me`'s place: the order the records of an exchange arrive in.
fn in_source_order<'a, T>(
    me: usize,
    remote: &'a [(usize, Vec<T>)],
    local: Option<&'a [T]>,
) -> impl Iterator<Item = (usize, &'a [T])> {
    let at = remote.partition_point(|&(src, _)| src < me);
    let (below, above) = remote.split_at(at);
    let remote = |(src, b): &'a (usize, Vec<T>)| (*src, b.as_slice());
    below.iter().map(remote).chain(local.map(|b| (me, b))).chain(above.iter().map(remote))
}

/// Exchange target-grouped buffers ([`group_by_target`]): the local rank's
/// group stays home, the rest travel.
fn exchange_grouped<T: Send + 'static>(
    comm: &mut Comm,
    mut groups: Vec<(usize, Vec<T>)>,
    mode: &ExchangeMode,
) -> Delivered<T> {
    let me = comm.rank();
    let local = groups.iter().position(|&(dst, _)| dst == me).map(|i| groups.remove(i).1);
    let mut remote = Vec::new();
    mode.exchange_into(comm, &mut groups, &mut remote);
    Delivered { me, remote, local }
}

/// Fine-grained data redistribution: element `i` is sent to rank
/// `targets[i]`. Returns the received elements, ordered by source rank with
/// per-source order preserved.
///
/// Collective (all ranks must call it), regardless of `mode`.
pub fn alltoall_specific<T: Send + Copy + 'static>(
    comm: &mut Comm,
    elements: &[T],
    targets: &[usize],
    mode: &ExchangeMode,
) -> Vec<T> {
    deliver(comm, elements, targets, mode).concat()
}

/// [`alltoall_specific`] that keeps its routes: `routes` is refilled with
/// where every element went and how many arrived from where, so that later
/// data can follow the same routes (a resort plan built by [`hand_back`]
/// from a [`Routed`] solver). The same messages, costs and result.
pub fn alltoall_specific_routed<T: Send + Copy + 'static>(
    comm: &mut Comm,
    elements: &[T],
    targets: &[usize],
    mode: &ExchangeMode,
    routes: &mut Routes,
) -> Vec<T> {
    routes.record_sends(targets.len(), |i| targets[i]);
    let delivered = deliver(comm, elements, targets, mode);
    routes.from.clear();
    routes.from.extend(delivered.sources().map(|(src, b)| (src, b.len())));
    delivered.concat()
}

/// The exchange under [`alltoall_specific`]: group, charge the copy, send.
fn deliver<T: Send + Copy + 'static>(
    comm: &mut Comm,
    elements: &[T],
    targets: &[usize],
    mode: &ExchangeMode,
) -> Delivered<T> {
    assert_eq!(elements.len(), targets.len());
    let groups = group_by_target(comm, targets.iter().copied().zip(elements.iter().copied()), mode);
    comm.compute(Work::ByteCopy, std::mem::size_of_val(elements) as f64);
    exchange_grouped(comm, groups, mode)
}

/// The routes of one fine-grained redistribution as its two ends saw them:
/// the sender's input indices per target, in the order they were sent, and
/// the receiver's count per source, in the order the records arrived.
/// Recorded by [`alltoall_specific_routed`], or rebuilt from what both ends
/// know without a message ([`Routes::rebuild_from_owners`]); refilled in
/// place, so a caller that keeps one allocates nothing for it once it is
/// warm.
#[derive(Clone, Debug, Default)]
pub struct Routes {
    /// `(target rank, records)`, ascending target; the local rank's own
    /// block included.
    to: Vec<(usize, usize)>,
    /// The input indices, target after target, each target's ascending.
    sent: Vec<u32>,
    /// `(source rank, records)`, ascending source; the local block at its
    /// own rank's place.
    from: Vec<(usize, usize)>,
}

impl Routes {
    /// Refill the send half: input `i` of `n` goes to rank `target(i)`.
    fn record_sends(&mut self, n: usize, target: impl Fn(usize) -> usize) {
        let n = u32::try_from(n).expect("more than u32::MAX records on one rank");
        self.sent.clear();
        self.sent.extend(0..n);
        // Ascending index within a target: the stable grouping of the send.
        self.sent.sort_unstable_by_key(|&i| (target(i as usize), i));
        self.to.clear();
        for &i in &self.sent {
            let t = target(i as usize);
            match self.to.last_mut() {
                Some((last, count)) if *last == t => *count += 1,
                _ => self.to.push((t, 1)),
            }
        }
    }

    /// Refill both halves for records that one or more redistributions
    /// brought without recording their routes, from what each end knows
    /// without a message:
    ///
    /// - the origin knows where each of its `n_in` inputs ended: on rank
    ///   `owner(i)` (a map every rank holds, such as the FMM's key owners);
    /// - the holder knows the `records` it holds and their origin codes
    ///   `encode_index(source, input index)`. Sorted by them, the records are
    ///   in the order a redistribution along these routes delivers them:
    ///   ascending source, then ascending input index.
    ///
    /// `arrival` is refilled with that order: `records[arrival[a]]` is the
    /// `a`-th record to arrive — the inverse of [`Route::Recorded`]'s order.
    /// Charges one `ParticleOp` per input for the lookups, and the origin
    /// codes' sort as an LSD radix sort of them takes it: one `SortCmp` per
    /// record and 8-bit digit the codes differ in.
    pub fn rebuild_from_owners(
        &mut self,
        comm: &mut Comm,
        n_in: usize,
        owner: impl Fn(usize) -> usize,
        records: &[Particle],
        arrival: &mut Vec<u32>,
    ) {
        self.record_sends(n_in, owner);
        comm.compute(Work::ParticleOp, n_in as f64);
        let held = u32::try_from(records.len()).expect("more than u32::MAX records on one rank");
        arrival.clear();
        arrival.extend(0..held);
        arrival.sort_unstable_by_key(|&j| records[j as usize].origin);
        let passes = radix_passes(records.iter().map(|r| r.origin));
        comm.compute(Work::SortCmp, f64::from(passes) * records.len() as f64);
        self.from.clear();
        for &j in arrival.iter() {
            let (src, _) = decode_index(records[j as usize].origin);
            match self.from.last_mut() {
                Some((last, count)) if *last == src => *count += 1,
                _ => self.from.push((src, 1)),
            }
        }
    }

    /// Records that arrived.
    fn arrived(&self) -> usize {
        self.from.iter().map(|&(_, n)| n).sum()
    }

    /// Each target's input indices, ascending target.
    fn per_target(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        self.to.iter().scan(0, |start, &(t, n)| {
            *start += n;
            Some((t, *start - n..*start))
        })
    }
}

/// The 8-bit digits on which `keys` differ: the counting passes an LSD radix
/// sort of them takes, which is how psort charges its local sorts.
fn radix_passes(keys: impl Iterator<Item = u64>) -> u32 {
    let (or, and) = keys.fold((0, u64::MAX), |(or, and), k| (or | k, and & k));
    (0..64).step_by(8).filter(|&shift| ((or ^ and) >> shift) & 0xff != 0).count() as u32
}

/// Redistribute `data` according to `resort_indices` and place every element
/// at its target position: element `i` of `data` ends up at position
/// `pos(resort_indices[i])` on rank `rank(resort_indices[i])`.
///
/// `new_len` is the number of elements this rank will own afterwards (the
/// caller knows it from the solver's changed particle distribution). Every
/// target position in `0..new_len` must be hit exactly once globally.
///
/// This implements `fcs_resort_floats` / `fcs_resort_ints` (paper,
/// Sect. III-B): "The implementation uses the fine-grained data
/// redistribution operation […] followed by a permutation according to the
/// target positions contained in the resort indices." Collective.
pub fn resort<T: PlaneElem>(
    comm: &mut Comm,
    data: &[T],
    resort_indices: &[u64],
    new_len: usize,
    mode: &ExchangeMode,
) -> Vec<T> {
    ResortPlan::build(comm, resort_indices, new_len, mode)
        .execute(comm, &[data])
        .pop()
        .expect("one channel in, one channel out")
}

/// Redistribute **every registered plane** of `set` according to
/// `resort_indices` in one byte exchange round, reusing `plan`
/// across timesteps.
///
/// This is the primary resort entry point since the byte-plane rework: each
/// element's record — its `u32` target position followed by its bytes from
/// every plane in registration order — travels to its target rank through
/// pool-backed byte buffers, and all planes flip to the received data
/// atomically via [`PlaneSet::commit`]. Semantics (placement by target
/// position, collectivity) are exactly those of [`resort`]; results are
/// bitwise identical to per-field resorts of the same data.
///
/// `plan` is the caller's plan cache: when it already matches
/// (`ResortPlan::matches`) the indices/`new_len`/`mode` triple, the frozen
/// routes are reused and no decode work is paid; otherwise the plan is
/// (re)built in place. On return `set` has `new_len` elements. In
/// neighbourhood mode the steady-state call performs zero heap allocation
/// once the plan, the set's slabs and the rank's buffer pool are warm.
/// Collective — and every rank must register the same planes in the same
/// order.
pub fn resort_planes(
    comm: &mut Comm,
    set: &mut PlaneSet,
    resort_indices: &[u64],
    new_len: usize,
    mode: &ExchangeMode,
    plan: &mut Option<ResortPlan>,
) {
    let cached = plan.as_ref().is_some_and(|p| p.matches(resort_indices, new_len, mode));
    if !cached {
        *plan = Some(ResortPlan::build(comm, resort_indices, new_len, mode));
    }
    plan.as_ref().expect("plan just ensured").execute_planes(comm, set);
}

/// Seed of a plan's index fingerprint (the fractional digits of pi).
const PLAN_SEED: u64 = 0x243f_6a88_85a3_08d3;

/// Message tag of a resort plan's point-to-point exchange ("resort").
const TAG_RESORT: u64 = 0x7265_736f_7274;

/// A frozen redistribution schedule: the plan half of the plan/execute
/// split for [`resort`] / [`resort_planes`] and the `fcs_resort_*` calls.
///
/// A plan has one of two sources:
///
/// - **Resort indices** ([`ResortPlan::build`]). The indices are decoded
///   **once** — which target rank each input element goes to and at which
///   position — and frozen as per-target routes. The receiver learns the
///   positions only from the records, so each carries its target position.
///   The plan serves its indices for as long as they are unchanged
///   ([`ResortPlan::matches`]), which is the quiet timestep of the paper's
///   Method B: particles move, but the *routing* of the redistribution does
///   not.
/// - **A solver's routes** ([`Routed::rebuild`], which [`hand_back`]
///   calls). The data follows the routes of the solver's one
///   redistribution, and the receiver places the `a`-th record to arrive
///   where the solver's local order put the `a`-th particle. Both ends
///   already know all of it, so no index is built or exchanged and no
///   record carries a position. The identity route ([`Route::Identity`])
///   keeps every record in its place: the plan of a quiet step and of a
///   solver that never reorders, with no message and no collective.
///
/// [`ResortPlan::execute`] / [`ResortPlan::execute_planes`] then only pack
/// payload along the frozen routes, exchange it and place it. Executing a
/// plan on every rank is a collective operation with the same requirements
/// as [`resort`] — except a route plan in neighbourhood mode, which sends
/// to exactly its targets and receives from exactly its sources, with no
/// barrier. Ranks may rebuild index plans in different steps (the exchange
/// contents are identical either way).
#[derive(Clone, Debug)]
pub struct ResortPlan {
    new_len: usize,
    /// Where the elements go; for a route plan also where the records come
    /// from. `routes.sent` lists every element the plan reads.
    routes: Routes,
    placement: Placement,
}

/// How a plan's receiver finds each record's place.
#[derive(Clone, Debug)]
enum Placement {
    /// From resort indices: `positions[k]` is where `routes.sent[k]` lands,
    /// and travels with it as a 4-byte header; the exchange runs over
    /// `mode`, and the plan serves the indices its fingerprint folds.
    Carried { mode: ExchangeMode, fingerprint: u64, positions: Vec<u32> },
    /// From routes: the `a`-th record to arrive (ascending source, the local
    /// block in its place) lands at `at[a]`. The records travel in an
    /// all-to-all-v if `collective`, point to point along the routes if not.
    Derived { collective: bool, at: Vec<u32> },
}

impl Placement {
    /// The placement of an empty plan (no allocation).
    const EMPTY: Placement = Placement::Derived { collective: true, at: Vec::new() };
}

impl ResortPlan {
    /// Decode `resort_indices` into a frozen redistribution schedule (see
    /// the type-level docs). Purely local; charges the one-time decode and
    /// grouping cost and records a `plan_build` trace span.
    pub fn build(
        comm: &mut Comm,
        resort_indices: &[u64],
        new_len: usize,
        mode: &ExchangeMode,
    ) -> ResortPlan {
        let t0 = comm.clock();
        let mut plan = ResortPlan::empty();
        let indices = resort_indices.iter().copied();
        let route_bytes = plan.refill(comm, indices, new_len, mode, &mut Vec::new());
        comm.note_plan_build(t0, route_bytes);
        plan
    }

    /// Refill this plan, in place, from resort indices (see
    /// [`ResortPlan::build`]): a counting sort by target rank, its counts in
    /// `next`. Charges the decode and returns the bytes it read.
    fn refill(
        &mut self,
        comm: &mut Comm,
        resort_indices: impl ExactSizeIterator<Item = u64> + Clone,
        new_len: usize,
        mode: &ExchangeMode,
        next: &mut Vec<usize>,
    ) -> u64 {
        let p = comm.size();
        // Routes store input indices as `u32`, like the target positions.
        let n_input =
            u32::try_from(resort_indices.len()).expect("more than u32::MAX records on one rank");
        // A counting sort by target: counts, then each target's first slot.
        next.clear();
        next.resize(p, 0);
        for ix in resort_indices.clone() {
            let (t, _) = decode_index(ix);
            assert!(t < p, "target rank {t} out of range");
            next[t] += 1;
        }
        let routes = &mut self.routes;
        routes.to.clear();
        routes.to.extend(next.iter().enumerate().filter(|&(_, &n)| n > 0).map(|(t, &n)| (t, n)));
        routes.from.clear();
        let mut start = 0;
        for slot in next.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        routes.sent.clear();
        routes.sent.resize(start, 0);
        // The positions of an earlier index plan are refilled.
        let mut positions = match std::mem::replace(&mut self.placement, Placement::EMPTY) {
            Placement::Carried { positions, .. } => positions,
            Placement::Derived { .. } => Vec::new(),
        };
        positions.clear();
        positions.resize(start, 0);
        for (i, ix) in (0..n_input).zip(resort_indices.clone()) {
            let (t, pos) = decode_index(ix);
            (routes.sent[next[t]], positions[next[t]]) = (i, pos as u32);
            next[t] += 1;
        }
        let route_bytes = 8 * u64::from(n_input);
        comm.compute(Work::ByteCopy, route_bytes as f64);
        let fingerprint = fold_words(PLAN_SEED, resort_indices);
        self.new_len = new_len;
        self.placement = Placement::Carried { mode: mode.clone(), fingerprint, positions };
        route_bytes
    }

    /// Rebuild this plan, in place, to send data along the `route` that
    /// brought `records` and place it in their order. The exchange is an
    /// all-to-all-v if `collective`, point to point along the routes if not;
    /// the identity route has no exchange. Purely local; charges the copy of
    /// the routes and of the placement, and records a `plan_build` trace
    /// span.
    fn rebuild_from_routes(
        &mut self,
        comm: &mut Comm,
        route: Route<'_>,
        records: &[Particle],
        collective: bool,
    ) {
        let t0 = comm.clock();
        let collective = collective && !matches!(route, Route::Identity(_));
        // The placement vector of an earlier route plan is refilled.
        let mut at = match std::mem::replace(&mut self.placement, Placement::EMPTY) {
            Placement::Derived { at, .. } => at,
            Placement::Carried { .. } => Vec::new(),
        };
        match route {
            Route::Recorded(routes, order) => {
                assert_eq!(order.len(), routes.arrived(), "the order must place every arrival");
                self.routes.to.clone_from(&routes.to);
                self.routes.sent.clone_from(&routes.sent);
                self.routes.from.clone_from(&routes.from);
                at.clear();
                at.resize(order.len(), 0);
                for (j, &a) in (0u32..).zip(order) {
                    at[a as usize] = j;
                }
            }
            // Straight into the plan: the arrival order is the placement.
            Route::Owners(n_in, owner) => {
                self.routes.rebuild_from_owners(comm, n_in, owner, records, &mut at)
            }
            Route::Identity(n) => {
                let me = comm.rank();
                self.routes.record_sends(n, |_| me);
                self.routes.from.clone_from(&self.routes.to);
                at.clone_from(&self.routes.sent);
            }
        }
        self.new_len = at.len();
        let route_bytes = (4 * (self.routes.sent.len() + self.new_len)) as u64;
        self.placement = Placement::Derived { collective, at };
        comm.compute(Work::ByteCopy, route_bytes as f64);
        comm.note_plan_build(t0, route_bytes);
    }

    /// An empty plan, to be rebuilt in place.
    fn empty() -> ResortPlan {
        ResortPlan { new_len: 0, routes: Routes::default(), placement: Placement::EMPTY }
    }

    /// Number of elements this rank owns after the redistribution.
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// Is this plan still valid for the given redistribution? True when the
    /// plan was built from resort indices and they, the output length and
    /// the exchange mode are the ones given (index equality via a 64-bit
    /// fingerprint: a `particles::record` word fold, no copy of the
    /// indices). A plan built from routes serves no indices: always false.
    pub fn matches(&self, resort_indices: &[u64], new_len: usize, mode: &ExchangeMode) -> bool {
        let Placement::Carried { mode: own, fingerprint, .. } = &self.placement else {
            return false;
        };
        self.routes.sent.len() == resort_indices.len()
            && self.new_len == new_len
            && own == mode
            && *fingerprint == fold_words(PLAN_SEED, resort_indices.iter().copied())
    }

    /// Move typed channels through the frozen schedule — the staging step
    /// behind the paper's `fcs_resort_floats` / `fcs_resort_ints`: the
    /// channels become planes of a temporary [`PlaneSet`] and are moved by
    /// [`ResortPlan::execute_planes`] — one combined exchange round, every
    /// record placed. Callers on the per-timestep hot path should hold a
    /// persistent `PlaneSet` instead and skip the staging copies.
    ///
    /// Identical results to [`resort`] with the indices an index plan was
    /// built from; only the index decode/grouping work is skipped.
    /// Collective.
    pub fn execute<T: PlaneElem>(&self, comm: &mut Comm, channels: &[&[T]]) -> Vec<Vec<T>> {
        let k = channels.len();
        assert!(k > 0, "resort plan execution needs at least one channel");
        for (c, ch) in channels.iter().enumerate() {
            assert_eq!(
                ch.len(),
                self.routes.sent.len(),
                "channel {c} length does not match the plan's resort indices"
            );
        }
        let mut set = PlaneSet::new();
        let ids: Vec<_> = (0..k).map(|c| set.register::<T>(format!("ch{c}"))).collect();
        set.resize(self.routes.sent.len());
        for (ch, &id) in channels.iter().zip(&ids) {
            set.plane_mut::<T>(id).copy_from_slice(ch);
        }
        self.execute_planes(comm, &mut set);
        ids.iter().map(|&id| set.plane::<T>(id).to_vec()).collect()
    }

    /// Move **every registered plane** of `set` through the frozen schedule
    /// in one byte exchange round, and commit the set to the
    /// redistributed data (`set.len()` becomes the plan's `new_len`).
    ///
    /// The wire format packs one record per element along the plan's
    /// per-target routes: the element's bytes from every plane in
    /// registration order, behind its `u32` target position (little-endian)
    /// if the plan was built from resort indices — `set.element_bytes()`
    /// bytes per record, plus 4 for an index plan; the local rank's records
    /// are packed alike but never sent. Placement scatters each plane's
    /// slice of every record into that plane's back slab, then
    /// [`PlaneSet::commit`] flips all planes at once. Send buffers come from
    /// (and received buffers return to) the rank's message-buffer pool, so a
    /// steady-state neighbourhood execution allocates nothing.
    ///
    /// All ranks must register the same planes in the same order (the record
    /// layout is part of the wire contract; mismatches trip the byte-count
    /// assertions). Collective, with the same cost phases
    /// (`"redistribute"` / `"place"`) and per-plane `plan_exec` accounting
    /// as the typed path; a route plan in neighbourhood mode synchronizes
    /// only with the ranks it exchanges records with.
    pub fn execute_planes(&self, comm: &mut Comm, set: &mut PlaneSet) {
        let t0 = comm.clock();
        let k = set.plane_count() as u64;
        let routed_bytes = self.move_planes(comm, set, true);
        // One `plan_exec` per plane: each plane is one redistribution served
        // by the frozen routes (the unit the build is amortized over), even
        // though all k ride a single combined exchange round.
        for _ in 0..k {
            comm.note_plan_exec(t0, routed_bytes / k);
        }
    }

    /// The exchange and placement of [`ResortPlan::execute_planes`], booked
    /// under the `"redistribute"` and `"place"` phases if `phased` and under
    /// the caller's phase if not. Returns the bytes packed.
    fn move_planes(&self, comm: &mut Comm, set: &mut PlaneSet, phased: bool) -> u64 {
        let k = set.plane_count();
        assert!(k > 0, "resort plan execution needs at least one plane");
        assert_eq!(
            set.len(),
            self.routes.sent.len(),
            "plane set length does not match the plan's resort indices"
        );
        let new_len = self.new_len;
        let positions = match &self.placement {
            Placement::Carried { positions, .. } => Some(positions.as_slice()),
            Placement::Derived { .. } => None,
        };
        let header = if positions.is_some() { 4 } else { 0 };
        let rec = header + set.element_bytes();
        let me = comm.rank();
        let enter = |comm: &mut Comm, name| {
            if phased {
                comm.enter_phase(name);
            }
        };
        let exit = |comm: &mut Comm| {
            if phased {
                comm.exit_phase();
            }
        };
        enter(comm, "redistribute");
        let (mut sends, mut received) = comm.take_byte_pairs();
        // One buffer per target the plan routes to; the locally-addressed
        // records are held aside, never sent.
        let mut local: Option<Vec<u8>> = None;
        let mut routed_bytes = 0u64;
        for (t, range) in self.routes.per_target() {
            let at = positions.map(|p| &p[range.clone()]);
            let buf = pack_route(comm, set, &self.routes.sent[range], at, t, rec);
            routed_bytes += buf.len() as u64;
            if t == me {
                local = Some(buf);
            } else {
                sends.push((t, buf));
            }
        }
        comm.compute(Work::ByteCopy, routed_bytes as f64);
        match &self.placement {
            Placement::Carried { mode, .. } => mode.exchange_into(comm, &mut sends, &mut received),
            Placement::Derived { collective: true, .. } => {
                comm.alltoallv_into(&mut sends, &mut received)
            }
            Placement::Derived { collective: false, .. } => {
                let sources = self.routes.from.iter().map(|&(src, _)| src).filter(|&s| s != me);
                comm.routed_exchange_into(sources, &mut sends, &mut received, TAG_RESORT)
            }
        }
        exit(comm);
        let arrivals = || in_source_order(me, &received, local.as_deref());
        let n_received: usize = arrivals().map(|(_, b)| b.len()).sum();
        assert_eq!(
            n_received,
            new_len * rec,
            "resort produced {n_received} payload bytes, expected {new_len} records x {rec} \
             bytes ({k} planes; all ranks must register identical planes)"
        );
        if let Placement::Derived { .. } = self.placement {
            let arrived = arrivals().map(|(src, b)| (src, b.len() / rec));
            assert!(arrived.eq(self.routes.from.iter().copied()), "records arrived off the routes");
        }
        enter(comm, "place");
        // Per-plane passes: scatter each record's slice for this plane into
        // the plane's back slab at the record's target position, then flip
        // all planes at once.
        let mut off = header;
        #[cfg(debug_assertions)]
        let mut hit = vec![false; new_len];
        for pi in 0..k {
            let id = set.id_at(pi);
            let view = set.exchange_view(id, new_len);
            let s = view.stride;
            let mut place = |pos: usize, r: &[u8]| {
                assert!(pos < new_len, "target position {pos} out of range");
                #[cfg(debug_assertions)]
                if pi == 0 {
                    assert!(!hit[pos], "target position {pos} hit twice");
                    hit[pos] = true;
                }
                view.back[pos * s..(pos + 1) * s].copy_from_slice(&r[off..off + s]);
            };
            match &self.placement {
                Placement::Carried { .. } => {
                    for (_, buf) in arrivals() {
                        for r in buf.chunks_exact(rec) {
                            let header = r[0..4].try_into().expect("4-byte header");
                            place(u32::from_le_bytes(header) as usize, r);
                        }
                    }
                }
                Placement::Derived { at, .. } => {
                    let records = arrivals().flat_map(|(_, buf)| buf.chunks_exact(rec));
                    for (r, &pos) in records.zip(at) {
                        place(pos as usize, r);
                    }
                }
            }
            off += s;
        }
        set.commit(new_len);
        if let Some(buf) = local {
            comm.buf_release(me, buf);
        }
        for (src, buf) in received.drain(..) {
            comm.buf_release(src, buf);
        }
        comm.put_byte_pairs(sends, received);
        comm.compute(Work::ByteCopy, (new_len * (rec - header)) as f64);
        exit(comm);
        routed_bytes
    }
}

#[cfg(test)]
impl ResortPlan {
    /// The pre-byte-plane typed implementation of an index plan, kept as the
    /// independent reference the property tests compare
    /// [`ResortPlan::execute_planes`] against bit-for-bit. Packs `(u32
    /// position, T)` tuple records per channel and places them typed — no
    /// byte reinterpretation anywhere.
    fn execute_reference<T: Send + Copy + Default + 'static>(
        &self,
        comm: &mut Comm,
        channels: &[&[T]],
    ) -> Vec<Vec<T>> {
        let k = channels.len();
        assert!(k > 0, "resort plan execution needs at least one channel");
        for (c, ch) in channels.iter().enumerate() {
            assert_eq!(
                ch.len(),
                self.routes.sent.len(),
                "channel {c} length does not match the plan's resort indices"
            );
        }
        let Placement::Carried { mode, positions, .. } = &self.placement else {
            panic!("the typed reference executes index plans only")
        };
        let t0 = comm.clock();
        let new_len = self.new_len;
        comm.enter_phase("redistribute");
        let mut routed_bytes = 0u64;
        let groups: Vec<(usize, Vec<(u32, T)>)> = self
            .routes
            .per_target()
            .map(|(t, range)| {
                let mut buf: Vec<(u32, T)> = Vec::with_capacity(range.len() * k);
                for (&i, &pos) in self.routes.sent[range.clone()].iter().zip(&positions[range]) {
                    for ch in channels {
                        buf.push((pos, ch[i as usize]));
                    }
                }
                routed_bytes += (buf.len() * std::mem::size_of::<(u32, T)>()) as u64;
                (t, buf)
            })
            .collect();
        comm.compute(Work::ByteCopy, routed_bytes as f64);
        let received = exchange_grouped(comm, groups, mode);
        comm.exit_phase();
        let n_received: usize = received.buffers().map(<[_]>::len).sum();
        assert_eq!(
            n_received,
            new_len * k,
            "resort produced {n_received} records, expected {new_len} x {k} channels"
        );
        comm.enter_phase("place");
        let mut out: Vec<Vec<T>> = (0..k).map(|_| vec![T::default(); new_len]).collect();
        for rec in received.buffers().flat_map(|b| b.chunks_exact(k)) {
            let pos = rec[0].0 as usize;
            assert!(pos < new_len, "target position {pos} out of range");
            for (lane, &(_, d)) in rec.iter().enumerate() {
                out[lane][pos] = d;
            }
        }
        comm.compute(Work::ByteCopy, (k * new_len * std::mem::size_of::<T>()) as f64);
        comm.exit_phase();
        for _ in 0..k {
            comm.note_plan_exec(t0, routed_bytes / k as u64);
        }
        out
    }
}

/// Pack one route's records into a pool-acquired buffer: for each routed
/// element, its target position (`u32` LE) if `positions` carries them,
/// then the element's bytes from every plane in registration order.
fn pack_route(
    comm: &mut Comm,
    set: &PlaneSet,
    indices: &[u32],
    positions: Option<&[u32]>,
    dst: usize,
    rec: usize,
) -> Vec<u8> {
    let mut buf = comm.buf_acquire(dst, indices.len() * rec);
    let planes = set.planes();
    let element = |buf: &mut Vec<u8>, i: u32| {
        let i = i as usize;
        for pi in 0..planes.count() {
            let s = planes.stride(pi);
            buf.extend_from_slice(&planes.bytes(pi)[i * s..(i + 1) * s]);
        }
    };
    match positions {
        Some(positions) => {
            for (&i, pos) in indices.iter().zip(positions) {
                buf.extend_from_slice(&pos.to_le_bytes());
                element(&mut buf, i);
            }
        }
        None => indices.iter().for_each(|&i| element(&mut buf, i)),
    }
    buf
}

/// Build resort indices by inverting an origin-index permutation.
///
/// Input: for each *current* local element `i`, `origin[i]` encodes where the
/// element originally lived (origin rank, origin position) — the "initial
/// numbering" the solvers carry through their data handling. Output: for each
/// *original* local element (position `j` of the original local array, which
/// had `original_len` elements), the resort index encoding where that element
/// lives now.
///
/// This is the paper's Fig. 5 construction: "initializing new index values
/// consecutively for the changed particles and sorting these index values
/// back according to the particle numbering". Collective.
pub fn build_resort_indices(comm: &mut Comm, origin: &[u64], original_len: usize) -> Vec<u64> {
    build_resort_indices_with(comm, origin, original_len, &ExchangeMode::Collective)
}

/// [`build_resort_indices`] with an explicit exchange mode: when particle
/// movement is limited, origins are neighbourhood-local and the index
/// construction itself can use point-to-point communication (Method B with
/// maximum movement, paper Sect. III-B). `origin` may be any walk over the
/// codes, so a caller holding them inside its records stages no copy.
pub fn build_resort_indices_with<'a>(
    comm: &mut Comm,
    origin: impl IntoIterator<Item = &'a u64, IntoIter: Clone>,
    original_len: usize,
    mode: &ExchangeMode,
) -> Vec<u64> {
    let me = comm.rank();
    let origin = origin.into_iter();
    // Send (origin position, current location) to each origin rank.
    let pairs: Vec<(u32, u64)> = origin
        .clone()
        .enumerate()
        .map(|(cur_pos, &og)| (decode_index(og).1 as u32, encode_index(me, cur_pos)))
        .collect();
    let targets: Vec<usize> = origin.map(|&og| decode_index(og).0).collect();
    let received = alltoall_specific(comm, &pairs, &targets, mode);
    assert_eq!(
        received.len(),
        original_len,
        "every original element must report back exactly once"
    );
    // No location encodes rank `u32::MAX`: a slot still holding it is unset.
    const UNSET: u64 = u64::MAX;
    let mut out = vec![UNSET; original_len];
    for (og_pos, loc) in received {
        let og_pos = og_pos as usize;
        assert!(out[og_pos] == UNSET, "origin position {og_pos} reported twice");
        out[og_pos] = loc;
    }
    comm.compute(Work::ByteCopy, (original_len * 8) as f64);
    out
}

/// A solver's particles in its own order, with what it computed for them.
pub struct Solved<'a> {
    /// The particles, each with its origin code.
    pub records: &'a [Particle],
    /// Their potentials, moved into the output: as they are under Method B,
    /// refilled with the restored values under Method A.
    pub potential: &'a mut Vec<f64>,
    /// Their fields, moved like `potential`.
    pub field: &'a mut Vec<Vec3>,
    /// Their positions and charges, if the solver staged them as columns:
    /// moved into the output under Method B instead of copied from `records`.
    pub columns: Option<(&'a mut Vec<Vec3>, &'a mut Vec<f64>)>,
    /// The run's input positions, charges and ids, in input order. Method A
    /// copies them into its output — they are the values the records
    /// carried — so that only potentials and fields travel home.
    pub input: (&'a [Vec3], &'a [f64], &'a [u64]),
    /// How the records came to be here: under Method B the resort plan is
    /// built from these routes.
    pub routed: Routed<'a>,
    /// Method A's restore plan and planes, kept from run to run.
    pub restore: &'a mut Restore,
}

/// How a solver's records reached it — which, with the order the solver put
/// them in, is the resort plan.
pub struct Routed<'a> {
    /// Where the routes come from.
    pub route: Route<'a>,
    /// Whether the resort exchanges in an all-to-all-v; point to point
    /// along the routes, with no barrier, if not.
    pub collective: bool,
    /// The solver's kept plan, rebuilt in place.
    pub plan: &'a mut Option<ResortPlan>,
}

/// The routes a solver's records took.
pub enum Route<'a> {
    /// Recorded by the one redistribution that brought them
    /// ([`alltoall_specific_routed`]), with the solver's order:
    /// `records[j]` is the `order[j]`-th record to arrive (ascending source,
    /// the local block in its place).
    Recorded(&'a Routes, &'a [u32]),
    /// Known without a record: the origin's `n` inputs, input `i` on rank
    /// `owner(i)` at the end. The routes and the arrival order are rebuilt
    /// from it ([`Routes::rebuild_from_owners`]), on a step that resorts and
    /// only then.
    Owners(usize, &'a dyn Fn(usize) -> usize),
    /// Every one of the `n` records stayed where it was input: the route of
    /// a quiet step, and of a solver that never reorders. Every record goes
    /// to the local block, so the plan sends no message and joins no
    /// collective, whatever `collective` says.
    Identity(usize),
}

impl<'a> Routed<'a> {
    /// Rebuild the kept plan in place from the route — no index built or
    /// exchanged — and return it. `records` are the held records in the
    /// solver's order; only [`Route::Owners`] reads them. Purely local (see
    /// [`hand_back`] for the plan's exchange).
    pub fn rebuild(self, comm: &mut Comm, records: &[Particle]) -> &'a ResortPlan {
        let plan = self.plan.get_or_insert_with(ResortPlan::empty);
        plan.rebuild_from_routes(comm, self.route, records, self.collective);
        plan
    }
}

/// What Method A's restore keeps from run to run, refilled in place: its
/// plan over the records' origin codes and the set of the two planes it
/// moves, potential and field.
#[derive(Default)]
pub struct Restore {
    plan: Option<ResortPlan>,
    planes: PlaneSet,
    /// The plan's counting-sort scratch.
    next: Vec<usize>,
}

/// The exchange of a restore in which every record is home: an empty
/// neighbourhood, placed locally with no message and no collective.
static HOME: ExchangeMode = ExchangeMode::Neighborhood(Vec::new());

/// Hand a solver's results back to the application: the return path both
/// particle solvers share (paper Sect. III). Collective.
///
/// The run's computation closes on one allreduce here, so that compute load
/// imbalance is booked as computation, not as the redistribution that
/// follows it. Under [`RedistMethod::UseChanged`] it reduces `(fits,
/// quiet)`: whether every rank holds at most `max_local` particles, and
/// whether every rank holds exactly its input in input order. Under
/// [`RedistMethod::RestoreOriginal`] it reduces `home`: whether every
/// record's origin is its holder. Each test is charged one `ParticleOp` per
/// record.
///
/// If every rank fits, the output keeps the solver's order, and the
/// solver's kept resort plan is rebuilt in place with no index built or
/// exchanged: on a quiet step from [`Route::Identity`], so that the plan
/// places locally with no message and no collective (the second value
/// returned says so); otherwise from the solver's [`Routed`] routes and
/// order — over an all-to-all-v or point to point, as the routes say.
///
/// Otherwise every particle goes back to its origin rank and position
/// (Fig. 4), in the order of the input. The restore is a resort plan over
/// the records' origin codes — each is the resort index that sends its
/// record home — executed on two planes, so a record is 36 bytes: its
/// 4-byte position, its potential and its field. Positions, charges and ids
/// are copied from the input. If every record is home, the plan places
/// locally with no message and no collective.
///
/// The stamps are the clocks at the run's start and after its sort; the
/// computation runs to the end of the closing allreduce, the redistribution
/// from there to the return.
pub fn hand_back(
    comm: &mut Comm,
    method: RedistMethod,
    max_local: usize,
    solved: Solved<'_>,
    [t_start, t_sorted]: [f64; 2],
) -> (SolverOutput, bool) {
    let me = comm.rank();
    let Solved { records, potential, field, columns, input, mut routed, restore } = solved;
    let n_in = input.0.len();
    let (mut resorted, mut all_quiet, mut all_home) = (false, false, false);
    comm.compute(Work::ParticleOp, records.len() as f64);
    if method == RedistMethod::UseChanged {
        let fits = records.len() <= max_local;
        let quiet = records.len() == n_in
            && records.iter().enumerate().all(|(i, r)| r.origin == encode_index(me, i));
        (resorted, all_quiet) = comm.allreduce((fits, quiet), |a, b| (a.0 && b.0, a.1 && b.1));
    } else {
        let home = records.iter().all(|r| decode_index(r.origin).0 == me);
        all_home = comm.allreduce(home, |a, b| a && b);
    }
    let t_computed = comm.clock();
    let mut out = if resorted {
        comm.enter_phase("resort");
        if all_quiet {
            routed.route = Route::Identity(n_in);
        }
        let plan = routed.rebuild(comm, records);
        assert_eq!(plan.routes.sent.len(), n_in, "the routes must carry every input record");
        comm.exit_phase();
        let (pos, charge) = match columns {
            Some((pos, charge)) => (std::mem::take(pos), std::mem::take(charge)),
            None => (
                records.iter().map(|r| r.pos).collect(),
                records.iter().map(|r| r.charge).collect(),
            ),
        };
        SolverOutput {
            pos,
            charge,
            id: records.iter().map(|r| r.id).collect(),
            potential: std::mem::take(potential),
            field: std::mem::take(field),
            resorted: true,
            ..Default::default()
        }
    } else {
        comm.enter_phase("restore");
        let mode = if all_home { &HOME } else { &ExchangeMode::Collective };
        let plan = restore.plan.get_or_insert_with(ResortPlan::empty);
        plan.refill(comm, records.iter().map(|r| r.origin), n_in, mode, &mut restore.next);
        let set = &mut restore.planes;
        if set.plane_count() == 0 {
            set.register::<f64>("potential");
            set.register::<Vec3>("field");
        }
        let (phi, e) = (set.id_at(0), set.id_at(1));
        set.resize(records.len());
        set.plane_mut::<f64>(phi).copy_from_slice(potential);
        set.plane_mut::<Vec3>(e).copy_from_slice(field);
        plan.move_planes(comm, set, false);
        let (pos, charge, id) = input;
        comm.compute(Work::ByteCopy, (std::mem::size_of_val(pos) + 16 * n_in) as f64);
        comm.exit_phase();
        // The solver's buffers take the restored values: their storage is
        // the output's, as under Method B.
        fn restored<T: Copy>(buf: &mut Vec<T>, values: &[T]) -> Vec<T> {
            let mut out = std::mem::take(buf);
            out.clear();
            out.extend_from_slice(values);
            out
        }
        SolverOutput {
            pos: pos.to_vec(),
            charge: charge.to_vec(),
            id: id.to_vec(),
            potential: restored(potential, set.plane::<f64>(phi)),
            field: restored(field, set.plane::<Vec3>(e)),
            ..SolverOutput::default()
        }
    };
    let redist = comm.clock() - t_computed;
    out.timings = SolverTimings {
        sort: t_sorted - t_start,
        compute: t_computed - t_sorted,
        restore: if resorted { 0.0 } else { redist },
        resort_create: if resorted { redist } else { 0.0 },
        total: comm.clock() - t_start,
    };
    (out, resorted && all_quiet)
}

#[cfg(test)]
#[path = "../../simcomm/tests/common/mod.rs"]
mod widths;

#[cfg(test)]
mod tests {
    use super::widths::{run, run_on};
    use super::*;
    use simcomm::{CartGrid, MachineModel, Runner};

    /// splitmix64 — the deterministic generator all property tests share.
    fn sm64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Non-NaN `f64` with a fully random mantissa (bitwise-comparable).
    fn f64_of(bits: u64) -> f64 {
        f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000)
    }

    /// Non-NaN `f32` with a fully random mantissa (bitwise-comparable).
    fn f32_of(bits: u64) -> f32 {
        f32::from_bits((bits as u32 & 0x007f_ffff) | 0x3f80_0000)
    }

    /// Random valid resort indices: every position in `0..new_len` hit
    /// exactly once globally.
    fn valid_indices(comm: &mut Comm, n: usize, seed: u64) -> (Vec<u64>, usize) {
        let me = comm.rank();
        let p = comm.size();
        let targets: Vec<usize> =
            (0..n).map(|i| (sm64((me * n + i) as u64 ^ seed) as usize) % p).collect();
        let mut my_counts = vec![0usize; p];
        for &t in &targets {
            my_counts[t] += 1;
        }
        let all_counts = comm.allgather(my_counts);
        let new_len: usize = (0..p).map(|s| all_counts[s][me]).sum();
        let mut next_pos: Vec<usize> =
            (0..p).map(|t| (0..me).map(|s| all_counts[s][t]).sum()).collect();
        let mut ix: Vec<u64> = Vec::with_capacity(n);
        for &t in &targets {
            ix.push(encode_index(t, next_pos[t]));
            next_pos[t] += 1;
        }
        (ix, new_len)
    }

    #[test]
    fn index_encoding_roundtrip() {
        for &(r, p) in &[(0usize, 0usize), (1, 2), (255, 1 << 20), (u32::MAX as usize, 7)] {
            assert_eq!(decode_index(encode_index(r, p)), (r, p));
        }
    }

    #[test]
    fn alltoall_specific_routes_elements() {
        let out = run(4, MachineModel::ideal(), |comm| {
            // Each rank sends element k to rank k (one per rank).
            let elements: Vec<u64> = (0..4).map(|k| (comm.rank() * 10 + k) as u64).collect();
            let targets: Vec<usize> = (0..4).collect();
            alltoall_specific(comm, &elements, &targets, &ExchangeMode::Collective)
        });
        // Rank r receives r, 10+r, 20+r, 30+r — ordered by source.
        for (r, res) in out.results.iter().enumerate() {
            assert_eq!(res, &vec![r as u64, 10 + r as u64, 20 + r as u64, 30 + r as u64]);
        }
    }

    #[test]
    fn alltoall_specific_preserves_source_order() {
        let out = run(2, MachineModel::ideal(), |comm| {
            let elements: Vec<u32> = (0..6).map(|i| comm.rank() as u32 * 100 + i).collect();
            let targets = vec![1, 1, 0, 1, 0, 1];
            alltoall_specific(comm, &elements, &targets, &ExchangeMode::Collective)
        });
        assert_eq!(out.results[0], vec![2, 4, 102, 104]);
        assert_eq!(out.results[1], vec![0, 1, 3, 5, 100, 101, 103, 105]);
    }

    #[test]
    fn alltoall_specific_neighborhood_matches_collective() {
        // Ring neighbourhood: targets only me-1, me, me+1.
        let out = run(6, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let p = comm.size();
            let left = (me + p - 1) % p;
            let right = (me + 1) % p;
            let elements: Vec<u64> = (0..9).map(|i| (me * 100 + i) as u64).collect();
            let targets: Vec<usize> = (0..9)
                .map(|i| match i % 3 {
                    0 => left,
                    1 => me,
                    _ => right,
                })
                .collect();
            let mut partners = vec![left, right];
            partners.sort_unstable();
            partners.dedup();
            let coll = alltoall_specific(comm, &elements, &targets, &ExchangeMode::Collective);
            let neigh =
                alltoall_specific(comm, &elements, &targets, &ExchangeMode::Neighborhood(partners));
            (coll, neigh)
        });
        for (coll, neigh) in out.results {
            assert_eq!(coll, neigh);
        }
    }

    #[test]
    fn neighborhood_needs_no_symmetric_partner_list() {
        // Every rank sends only to its right neighbour and lists only it: a
        // rank receives from a rank it does not list. Typed and byte-plane
        // paths match the collective ones.
        let out = run(6, MachineModel::juqueen_like(), |comm| {
            let (me, p) = (comm.rank(), comm.size());
            let right = (me + 1) % p;
            let mode = ExchangeMode::Neighborhood(vec![right]);
            let elements: Vec<u64> = (0..5).map(|i| (me * 100 + i) as u64).collect();
            let targets: Vec<usize> = (0..5).map(|i| if i % 2 == 0 { right } else { me }).collect();
            let coll = alltoall_specific(comm, &elements, &targets, &ExchangeMode::Collective);
            let neigh = alltoall_specific(comm, &elements, &targets, &mode);
            let ix: Vec<u64> = (0..5).map(|i| encode_index(right, 4 - i)).collect();
            let resorted = resort(comm, &elements, &ix, 5, &mode);
            (coll == neigh, resorted)
        });
        for (r, (agree, resorted)) in out.results.iter().enumerate() {
            assert!(agree, "rank {r}");
            let left = (r + 5) % 6;
            assert_eq!(
                resorted,
                &(0..5).rev().map(|i| (left * 100 + i) as u64).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn an_empty_neighbourhood_places_locally_without_communicating() {
        let out = run(4, MachineModel::juropa_like(), |comm| {
            let me = comm.rank();
            let mut set = PlaneSet::new();
            let tag = set.register::<u64>("tag");
            set.resize(6);
            set.plane_mut::<u64>(tag)
                .copy_from_slice(&[10, 11, 12, 13, 14, 15].map(|x| x + me as u64));
            // A local permutation on every rank.
            let ix: Vec<u64> = (0..6).map(|i| encode_index(me, 5 - i)).collect();
            let before = comm.stats().clone();
            let mut plan = None;
            let quiet = ExchangeMode::Neighborhood(Vec::new());
            resort_planes(comm, &mut set, &ix, 6, &quiet, &mut plan);
            let after = comm.stats();
            let silent =
                after.p2p_sent_msgs == before.p2p_sent_msgs && after.coll_ops == before.coll_ops;
            (set.plane::<u64>(tag).to_vec(), silent)
        });
        for (r, (got, silent)) in out.results.iter().enumerate() {
            let want: Vec<u64> = (10..16).rev().map(|x| x + r as u64).collect();
            assert_eq!(got, &want, "rank {r}");
            assert!(silent, "rank {r}: no message and no barrier");
        }
    }

    #[test]
    #[should_panic(expected = "simcomm world failed")]
    fn neighborhood_rejects_distant_targets() {
        run(4, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let elements = vec![1u8];
            let targets = vec![(me + 2) % 4]; // not a ring neighbour
            let mut partners = vec![(me + 3) % 4, (me + 1) % 4];
            partners.sort_unstable();
            partners.dedup();
            alltoall_specific(comm, &elements, &targets, &ExchangeMode::Neighborhood(partners))
        });
    }

    #[test]
    fn resort_places_by_position() {
        let out = run(3, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            // Rank r holds values [r*10, r*10+1]; resort rotates them to rank
            // r+1 with swapped positions.
            let data = vec![(me * 10) as u64, (me * 10 + 1) as u64];
            let dst = (me + 1) % 3;
            let indices = vec![encode_index(dst, 1), encode_index(dst, 0)];
            resort(comm, &data, &indices, 2, &ExchangeMode::Collective)
        });
        assert_eq!(out.results[0], vec![21, 20]);
        assert_eq!(out.results[1], vec![1, 0]);
        assert_eq!(out.results[2], vec![11, 10]);
    }

    #[test]
    fn resort_identity_is_noop() {
        let out = run(4, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let data: Vec<f64> = (0..5).map(|i| (me * 5 + i) as f64).collect();
            let indices: Vec<u64> = (0..5).map(|i| encode_index(me, i)).collect();
            resort(comm, &data, &indices, 5, &ExchangeMode::Collective)
        });
        for (r, res) in out.results.iter().enumerate() {
            let expect: Vec<f64> = (0..5).map(|i| (r * 5 + i) as f64).collect();
            assert_eq!(res, &expect);
        }
    }

    #[test]
    fn build_resort_indices_inverts_movement() {
        // Simulate: every original element moved to rank+1 with position
        // reversed; origin codes tell each current holder where elements came
        // from. The built resort indices must route original-ordered data to
        // the current layout.
        let n = 4usize;
        let out = run(3, MachineModel::ideal(), move |comm| {
            let me = comm.rank();
            let p = comm.size();
            let src = (me + p - 1) % p; // current elements came from src
            let origin: Vec<u64> = (0..n).map(|cur| encode_index(src, n - 1 - cur)).collect();
            let resort_ix = build_resort_indices(comm, &origin, n);
            // Apply them to original per-rank data and check it lands like
            // the "current" layout would.
            let original: Vec<u64> = (0..n).map(|j| (me * 100 + j) as u64).collect();
            let moved = resort(comm, &original, &resort_ix, n, &ExchangeMode::Collective);
            (resort_ix, moved)
        });
        for (r, (ix, moved)) in out.results.iter().enumerate() {
            let dst = (r + 1) % 3;
            // Original element j should be at rank dst, position n-1-j.
            for (j, &x) in ix.iter().enumerate() {
                assert_eq!(decode_index(x), (dst, n - 1 - j));
            }
            // Current layout of rank r holds data of rank (r-1+3)%3 reversed.
            let src = (r + 2) % 3;
            let expect: Vec<u64> = (0..n).map(|cur| (src * 100 + (n - 1 - cur)) as u64).collect();
            assert_eq!(moved, &expect);
        }
    }

    #[test]
    fn resort_roundtrip_is_identity() {
        // Forward-scramble data with tags, build resort indices from the
        // origin codes, resort the original data forward, then route it home
        // and compare.
        let out = run(4, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let p = comm.size();
            let n = 6usize;
            let data: Vec<u64> = (0..n).map(|i| (me * 1000 + i) as u64).collect();
            let targets: Vec<usize> = (0..n).map(|i| (me + i) % p).collect();
            let tagged: Vec<u64> = (0..n).map(|i| encode_index(me, i)).collect();
            let origin = alltoall_specific(comm, &tagged, &targets, &ExchangeMode::Collective);
            let new_len = origin.len();
            let ix = build_resort_indices(comm, &origin, n);
            let moved = resort(comm, &data, &ix, new_len, &ExchangeMode::Collective);
            // Invert: current origin codes route everything home.
            let home_targets: Vec<usize> = origin.iter().map(|&og| decode_index(og).0).collect();
            let home_pairs: Vec<(u32, u64)> =
                moved.iter().zip(&origin).map(|(&d, &og)| (decode_index(og).1 as u32, d)).collect();
            let back_raw =
                alltoall_specific(comm, &home_pairs, &home_targets, &ExchangeMode::Collective);
            let mut back = vec![0u64; n];
            for (pos, d) in back_raw {
                back[pos as usize] = d;
            }
            (data, back)
        });
        for (data, back) in out.results {
            assert_eq!(data, back);
        }
    }

    #[test]
    fn multi_channel_execute_uses_one_exchange_round() {
        use simcomm::TraceKind;
        // One combined exchange for three fields versus one exchange per
        // field, verified by counting redistribution rounds in the trace.
        let trace_rounds = |combined: bool| {
            let out =
                run_on(&Runner::default().traced(true), 4, MachineModel::ideal(), move |comm| {
                    let me = comm.rank();
                    let dst = (me + 1) % 4;
                    let n = 5usize;
                    let a: Vec<u64> = (0..n).map(|i| (me * 100 + i) as u64).collect();
                    let b: Vec<u64> = a.iter().map(|x| x + 1).collect();
                    let c: Vec<u64> = a.iter().map(|x| x + 2).collect();
                    let ix: Vec<u64> = (0..n).map(|i| encode_index(dst, i)).collect();
                    if combined {
                        let plan = ResortPlan::build(comm, &ix, n, &ExchangeMode::Collective);
                        let _ = plan.execute(comm, &[&a, &b, &c]);
                    } else {
                        for ch in [&a, &b, &c] {
                            let _ = resort(comm, ch, &ix, n, &ExchangeMode::Collective);
                        }
                    }
                });
            out.traces
                .iter()
                .map(|t| {
                    t.events
                        .iter()
                        .filter(|e| e.kind == TraceKind::Alltoallv && e.phase == "redistribute")
                        .count()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(trace_rounds(true), vec![1; 4], "multi-field resort must use one round");
        assert_eq!(trace_rounds(false), vec![3; 4]);
    }

    #[test]
    fn multi_channel_execute_matches_per_field_resorts() {
        fn splitmix(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        let n = 40usize;
        let out = run(6, MachineModel::ideal(), move |comm| {
            let me = comm.rank();
            let p = comm.size();
            // Random per-element targets; positions on each target rank are
            // consecutive blocks ordered by source rank, derived from an
            // allgather of the per-(source, target) counts so that every
            // position in 0..new_len is hit exactly once globally.
            let targets: Vec<usize> =
                (0..n).map(|i| (splitmix((me * n + i) as u64 ^ 0xabcd) as usize) % p).collect();
            let mut my_counts = vec![0usize; p];
            for &t in &targets {
                my_counts[t] += 1;
            }
            let all_counts = comm.allgather(my_counts);
            let new_len: usize = (0..p).map(|s| all_counts[s][me]).sum();
            let mut next_pos: Vec<usize> =
                (0..p).map(|t| (0..me).map(|s| all_counts[s][t]).sum()).collect();
            let mut ix: Vec<u64> = Vec::with_capacity(n);
            for &t in &targets {
                ix.push(encode_index(t, next_pos[t]));
                next_pos[t] += 1;
            }
            let field = |salt: u64| -> Vec<u64> {
                (0..n).map(|i| splitmix((me * 7919 + i) as u64 ^ salt)).collect()
            };
            let (a, b, c) = (field(1), field(2), field(3));
            let combined = ResortPlan::build(comm, &ix, new_len, &ExchangeMode::Collective)
                .execute(comm, &[&a, &b, &c]);
            let per_field: Vec<Vec<u64>> = [&a, &b, &c]
                .into_iter()
                .map(|ch| resort(comm, ch, &ix, new_len, &ExchangeMode::Collective))
                .collect();
            (combined, per_field)
        });
        for (combined, per_field) in out.results {
            assert_eq!(combined, per_field);
        }
    }

    #[test]
    fn resort_plan_reuse_matches_fresh_build() {
        fn splitmix(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        // Property: as long as the resort indices are unchanged, executing a
        // *cached* plan with fresh payload is bitwise identical to a fresh
        // `build()` + `execute()`, over several "timesteps" of randomized
        // payload.
        let n = 32usize;
        let out = run(5, MachineModel::ideal(), move |comm| {
            let me = comm.rank();
            let p = comm.size();
            let targets: Vec<usize> =
                (0..n).map(|i| (splitmix((me * n + i) as u64 ^ 0x5eed) as usize) % p).collect();
            let mut my_counts = vec![0usize; p];
            for &t in &targets {
                my_counts[t] += 1;
            }
            let all_counts = comm.allgather(my_counts);
            let new_len: usize = (0..p).map(|s| all_counts[s][me]).sum();
            let mut next_pos: Vec<usize> =
                (0..p).map(|t| (0..me).map(|s| all_counts[s][t]).sum()).collect();
            let mut ix: Vec<u64> = Vec::with_capacity(n);
            for &t in &targets {
                ix.push(encode_index(t, next_pos[t]));
                next_pos[t] += 1;
            }
            let plan = ResortPlan::build(comm, &ix, new_len, &ExchangeMode::Collective);
            assert!(plan.matches(&ix, new_len, &ExchangeMode::Collective));
            let mut agree = true;
            for step in 0..3u64 {
                let field = |salt: u64| -> Vec<u64> {
                    (0..n).map(|i| splitmix((me * 131 + i) as u64 ^ (salt << 8) ^ step)).collect()
                };
                let (a, b) = (field(1), field(2));
                let cached = plan.execute(comm, &[&a, &b]);
                let fresh = ResortPlan::build(comm, &ix, new_len, &ExchangeMode::Collective)
                    .execute(comm, &[&a, &b]);
                agree &= cached == fresh;
            }
            // Any change to the indices must invalidate the plan.
            let mut changed = ix.clone();
            if let Some(first) = changed.first_mut() {
                *first ^= 1 << 32;
            }
            let invalidated = !plan.matches(&changed, new_len, &ExchangeMode::Collective)
                && !plan.matches(&ix[..ix.len() - 1], new_len, &ExchangeMode::Collective)
                && !plan.matches(&ix, new_len + 1, &ExchangeMode::Collective);
            (agree, invalidated)
        });
        for (agree, invalidated) in out.results {
            assert!(agree, "cached plan must match fresh plan+execute bitwise");
            assert!(invalidated, "changed indices must invalidate the plan");
        }
    }

    #[test]
    fn resort_plan_counts_builds_and_execs() {
        let out = run_on(&Runner::default().traced(true), 3, MachineModel::ideal(), |comm| {
            let me = comm.rank();
            let dst = (me + 1) % 3;
            let n = 4usize;
            let ix: Vec<u64> = (0..n).map(|i| encode_index(dst, i)).collect();
            let data: Vec<f64> = (0..n).map(|i| (me * 10 + i) as f64).collect();
            let plan = ResortPlan::build(comm, &ix, n, &ExchangeMode::Collective);
            for _ in 0..4 {
                let _ = plan.execute(comm, &[&data]);
            }
            // A multi-channel execution counts one plan_exec per channel
            // served, even though all channels ride one exchange round.
            let _ = plan.execute(comm, &[&data, &data]);
            (comm.stats().plan_builds, comm.stats().plan_execs)
        });
        for &(builds, execs) in &out.results {
            assert_eq!((builds, execs), (1, 6));
        }
        use simcomm::TraceKind;
        for t in &out.traces {
            assert_eq!(t.events.iter().filter(|e| e.kind == TraceKind::PlanBuild).count(), 1);
            assert_eq!(t.events.iter().filter(|e| e.kind == TraceKind::PlanExec).count(), 6);
        }
    }

    /// Bitwise property: `resort_planes` over mixed-stride planes (f32 /
    /// Vec3 / u64 / f64) is identical to both the typed
    /// pre-byte-plane reference and per-field `resort`, across repeated
    /// plan-cache reuse steps with fresh payload.
    #[test]
    fn resort_planes_bitwise_matches_typed_reference_mixed_strides() {
        let n = 48usize;
        let out = run(6, MachineModel::ideal(), move |comm| {
            let me = comm.rank();
            let (ix, new_len) = valid_indices(comm, n, 0xfeed);
            let reference_plan = ResortPlan::build(comm, &ix, new_len, &ExchangeMode::Collective);
            let mut plan: Option<ResortPlan> = None;
            let mut agree = true;
            for step in 0..3u64 {
                let bits = |i: usize, salt: u64| sm64((me * 4099 + i) as u64 ^ (salt << 40) ^ step);
                let a: Vec<f32> = (0..n).map(|i| f32_of(bits(i, 1))).collect();
                let b: Vec<Vec3> = (0..n)
                    .map(|i| Vec3::new(f64_of(bits(i, 2)), f64_of(bits(i, 3)), f64_of(bits(i, 4))))
                    .collect();
                let c: Vec<u64> = (0..n).map(|i| bits(i, 5)).collect();
                let d: Vec<f64> = (0..n).map(|i| f64_of(bits(i, 6))).collect();
                let mut set = PlaneSet::new();
                let pa = set.register::<f32>("a");
                let pb = set.register::<Vec3>("b");
                let pc = set.register::<u64>("c");
                let pd = set.register::<f64>("d");
                set.resize(n);
                set.plane_mut::<f32>(pa).copy_from_slice(&a);
                set.plane_mut::<Vec3>(pb).copy_from_slice(&b);
                set.plane_mut::<u64>(pc).copy_from_slice(&c);
                set.plane_mut::<f64>(pd).copy_from_slice(&d);
                resort_planes(comm, &mut set, &ix, new_len, &ExchangeMode::Collective, &mut plan);
                assert_eq!(set.len(), new_len);
                // Typed pre-rework reference, one call per field.
                let ra = reference_plan.execute_reference(comm, &[&a]).pop().unwrap();
                let rb = reference_plan.execute_reference(comm, &[&b]).pop().unwrap();
                let rc = reference_plan.execute_reference(comm, &[&c]).pop().unwrap();
                let rd = reference_plan.execute_reference(comm, &[&d]).pop().unwrap();
                // Current per-field wrapper (rides the byte path itself).
                let wa = resort(comm, &a, &ix, new_len, &ExchangeMode::Collective);
                let bits_f32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let bits_f64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let bits_v3 = |v: &[Vec3]| {
                    v.iter().flat_map(|x| x.0.iter().map(|c| c.to_bits())).collect::<Vec<_>>()
                };
                agree &= bits_f32(set.plane::<f32>(pa)) == bits_f32(&ra);
                agree &= bits_v3(set.plane::<Vec3>(pb)) == bits_v3(&rb);
                agree &= set.plane::<u64>(pc) == &rc[..];
                agree &= bits_f64(set.plane::<f64>(pd)) == bits_f64(&rd);
                agree &= bits_f32(&wa) == bits_f32(&ra);
            }
            agree
        });
        for (r, agree) in out.results.iter().enumerate() {
            assert!(agree, "rank {r}: byte-plane resort deviates from the typed reference");
        }
    }

    /// `resort_planes` must move all registered planes (four heterogeneous
    /// strides here) in ONE exchange round, where per-field typed resorts of
    /// the same data pay one round per field — verified from the trace.
    #[test]
    fn resort_planes_uses_one_exchange_round_for_heterogeneous_planes() {
        use simcomm::TraceKind;
        let rounds = |combined: bool| {
            let out =
                run_on(&Runner::default().traced(true), 4, MachineModel::ideal(), move |comm| {
                    let me = comm.rank();
                    let dst = (me + 1) % 4;
                    let n = 5usize;
                    let a: Vec<f32> = (0..n).map(|i| (me * 100 + i) as f32).collect();
                    let b: Vec<Vec3> = (0..n).map(|i| Vec3::splat((me * 10 + i) as f64)).collect();
                    let c: Vec<u64> = (0..n).map(|i| (me * 1000 + i) as u64).collect();
                    let ix: Vec<u64> = (0..n).map(|i| encode_index(dst, i)).collect();
                    if combined {
                        let mut set = PlaneSet::new();
                        let pa = set.register::<f32>("a");
                        let pb = set.register::<Vec3>("b");
                        let pc = set.register::<u64>("c");
                        set.resize(n);
                        set.plane_mut::<f32>(pa).copy_from_slice(&a);
                        set.plane_mut::<Vec3>(pb).copy_from_slice(&b);
                        set.plane_mut::<u64>(pc).copy_from_slice(&c);
                        let mut plan = None;
                        resort_planes(comm, &mut set, &ix, n, &ExchangeMode::Collective, &mut plan);
                    } else {
                        let _ = resort(comm, &a, &ix, n, &ExchangeMode::Collective);
                        let _ = resort(comm, &b, &ix, n, &ExchangeMode::Collective);
                        let _ = resort(comm, &c, &ix, n, &ExchangeMode::Collective);
                    }
                });
            out.traces
                .iter()
                .map(|t| {
                    t.events
                        .iter()
                        .filter(|e| e.kind == TraceKind::Alltoallv && e.phase == "redistribute")
                        .count()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(rounds(true), vec![1; 4], "all planes must ride one exchange round");
        assert_eq!(rounds(false), vec![3; 4]);
    }

    /// Neighbourhood-mode `resort_planes` equals collective mode, and the
    /// steady state reuses pooled buffers (bytes_reused grows, bytes_grown
    /// stops).
    #[test]
    fn resort_planes_neighborhood_matches_collective_and_reuses_buffers() {
        let g = CartGrid::new([2, 2, 2]);
        let out = run(8, MachineModel::juqueen_like(), move |comm| {
            let me = comm.rank();
            let partners = g.neighbors26(me);
            let n = 6usize;
            let dst = g.shifted_rank(me, [1, 0, 0]);
            let ix: Vec<u64> = (0..n).map(|i| encode_index(dst, n - 1 - i)).collect();
            let build = |comm: &Comm, salt: u64| -> (Vec<u64>, Vec<f64>) {
                let me = comm.rank();
                let c: Vec<u64> = (0..n).map(|i| sm64((me * 31 + i) as u64 ^ salt)).collect();
                let d: Vec<f64> = c.iter().map(|&x| f64_of(x ^ salt)).collect();
                (c, d)
            };
            let mode_n = ExchangeMode::Neighborhood(partners);
            let mut grown_settled = true;
            let mut modes_agree = true;
            let mut plan_n = None;
            let mut plan_c = None;
            for step in 0..4u64 {
                let (c, d) = build(comm, step);
                let mut set_n = PlaneSet::new();
                let (pc, pd) = (set_n.register::<u64>("c"), set_n.register::<f64>("d"));
                set_n.resize(n);
                set_n.plane_mut::<u64>(pc).copy_from_slice(&c);
                set_n.plane_mut::<f64>(pd).copy_from_slice(&d);
                let mut set_c = set_n.clone();
                let grown_before = comm.stats().bytes_grown;
                resort_planes(comm, &mut set_n, &ix, n, &mode_n, &mut plan_n);
                if step >= 2 {
                    // Steady state: all buffers come from the pool.
                    grown_settled &= comm.stats().bytes_grown == grown_before;
                }
                resort_planes(comm, &mut set_c, &ix, n, &ExchangeMode::Collective, &mut plan_c);
                modes_agree &= set_n.plane::<u64>(pc) == set_c.plane::<u64>(pc);
                modes_agree &= set_n
                    .plane::<f64>(pd)
                    .iter()
                    .map(|x| x.to_bits())
                    .eq(set_c.plane::<f64>(pd).iter().map(|x| x.to_bits()));
            }
            (modes_agree, grown_settled, comm.stats().bytes_reused > 0)
        });
        for (r, &(agree, settled, reused)) in out.results.iter().enumerate() {
            assert!(agree, "rank {r}: neighbourhood and collective modes disagree");
            assert!(settled, "rank {r}: steady-state resort still grows buffers");
            assert!(reused, "rank {r}: pool never reused a buffer");
        }
    }

    #[test]
    fn grid_neighborhood_resort_on_cart_grid() {
        // Use the 26-neighbourhood of a 3D grid as partner set; move each
        // element to a face neighbour. Collective and neighbourhood modes
        // must agree.
        let g = CartGrid::new([2, 2, 2]);
        let out = run(8, MachineModel::juqueen_like(), move |comm| {
            let me = comm.rank();
            let partners = g.neighbors26(me);
            let n = 3usize;
            let data: Vec<u64> = (0..n).map(|i| (me * 10 + i) as u64).collect();
            let dst = g.shifted_rank(me, [1, 0, 0]);
            let indices: Vec<u64> = (0..n).map(|i| encode_index(dst, n - 1 - i)).collect();
            let coll = resort(comm, &data, &indices, n, &ExchangeMode::Collective);
            let neigh = resort(comm, &data, &indices, n, &ExchangeMode::Neighborhood(partners));
            (coll, neigh)
        });
        for (coll, neigh) in out.results {
            assert_eq!(coll, neigh);
        }
    }
}
