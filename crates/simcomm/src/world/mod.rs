//! The simulated world: what its ranks share, and the handle each rank
//! programs against.
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
//!
//! This module owns how a rank blocks ([`WorldShared::wait_on`]) and how a
//! world fails (the poison flag and its first recorded cause); each
//! submodule owns one other decision (module map: docs/ARCHITECTURE.md).

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::engine::{Deadlock, Scheduler, WaitSite};
use crate::error::WorldError;
use crate::fault::FaultPlan;
use crate::model::{CollTerms, HopTable, MachineModel};
use crate::phase::PhaseProfile;
use crate::pool::BufferPool;
use crate::trace::Trace;

mod accounting;
mod collectives;
mod runner;
mod sparse;
mod transport;

pub use accounting::RankStats;
pub use collectives::{push_segment, AlltoallvRequest, Group};
pub use runner::{run, RunOutput, Runner};
pub use transport::Request;

/// Lock a mutex, ignoring std poisoning: cross-rank failure propagation is
/// handled by the world's own poison flag (see [`WorldShared::poison`]).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) struct WorldShared {
    pub n: usize,
    pub model: MachineModel,
    /// Hop distances and collective cost terms of this world size, computed
    /// once: no per-message or per-collective path factorises `n`.
    hop_table: HopTable,
    coll_terms: CollTerms,
    mailboxes: transport::Mailboxes,
    coll: collectives::Slots,
    /// Groups made so far ([`Comm::split`]): the last one's id.
    groups_made: AtomicU32,
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
            mailboxes: transport::Mailboxes::new(n),
            coll: collectives::Slots::new(n),
            groups_made: AtomicU32::new(0),
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

/// The per-rank communicator handle: the interface rank code programs against.
///
/// All collective operations must be entered by **every** rank of the world in
/// the same order (SPMD), exactly like MPI collectives on `MPI_COMM_WORLD`;
/// a [`Group`]'s by every member of the group.
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
    wait_scratch: transport::WaitScratch,
    /// Emptied payload envelopes of received messages (each a
    /// `Box<Vec<T>>` for some `T`, bytes included), most recent last; the
    /// next send of a matching element type refills one instead of boxing.
    /// In a symmetric exchange every envelope shipped out is replaced by one
    /// shipped in.
    spare_envelopes: VecDeque<Box<dyn Any + Send>>,
    /// Collectives this rank has entered; its parity selects the slot the
    /// next one uses (see `collectives`).
    coll_seq: u64,
    /// The deposit envelopes of other types than the ones in this rank's
    /// cells, waiting for their type to come round again in either slot.
    coll_aside: Vec<Box<dyn Any + Send>>,
    /// A world collective is posted and not yet completed (see
    /// [`Comm::ialltoallv_flat`]): entering another one panics.
    coll_open: bool,
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

impl Comm {
    /// Rank `rank`'s handle on a fresh world, at virtual time zero.
    fn new(shared: Arc<WorldShared>, rank: usize, traced: bool) -> Comm {
        let fault_straggler = shared.fault_active && shared.fault.straggles(rank);
        Comm {
            shared,
            rank,
            clock: 0.0,
            nic_free: 0.0,
            stats: RankStats::default(),
            trace: traced.then(Trace::default),
            phase_stack: Vec::new(),
            profile: PhaseProfile::default(),
            send_seq: 0,
            fault_send_seq: 0,
            fault_ops: 0,
            fault_stall_fired: false,
            fault_straggler,
            fault_straggler_noted: false,
            pool: BufferPool::default(),
            wait_scratch: transport::WaitScratch::default(),
            spare_envelopes: VecDeque::new(),
            coll_seq: 0,
            coll_aside: Vec::new(),
            coll_open: false,
            woken: Vec::new(),
            byte_pairs_a: Vec::new(),
            byte_pairs_b: Vec::new(),
            sparse: sparse::SparseScratch::default(),
        }
    }

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

    /// This rank's phase profile accumulated so far.
    pub fn phase_profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Hop distance from this rank to `other` on the modelled topology.
    pub fn hops_to(&self, other: usize) -> usize {
        self.shared.hop_table.hops(self.rank, other)
    }

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
}
