//! The execution engine: how the `P` rank tasks of a simulated world are
//! scheduled onto the local machine.
//!
//! A cooperative discrete-event scheduler. Every rank is *backed* by an OS
//! thread (the only way a plain `Fn(&mut Comm)` closure can suspend mid-call
//! in safe, dependency-free Rust), but at most a host-core-count **batch** of
//! ranks executes at a time: a rank runs until it blocks — on an empty
//! mailbox or a collective rendezvous — then its baton passes to the runnable
//! rank with the smallest virtual clock, so independent compute between
//! communication events overlaps in real time while waits stay cooperative.
//! Wakeups are targeted: depositing a message resumes only the addressee, and
//! the last depositor of a collective resumes only the ranks parked on that
//! collective, which is what carries worlds to the paper's 4096–16384-process
//! scale.
//!
//! Output — results, clocks, statistics, traces, phase profiles, fault
//! draws — is bitwise identical at any batch width: every `simcomm`
//! operation completes in an order that is a function of *virtual* time. The
//! argument, the yield-point model and the register-under-guard blocking
//! protocol are spelled out in `docs/ARCHITECTURE.md`.

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Lock a mutex, ignoring std poisoning (the world has its own poison flag).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The execution engine of a simulated world. There is exactly one — the
/// cooperative discrete-event scheduler of this module — and nothing selects
/// on this type: it survives as a one-variant shim only because the frozen
/// `benchmark/src/adapter.rs` spells `Runner::new(Engine::DiscreteEvent)`.
/// New code uses [`Runner::default`](crate::Runner).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Cooperative discrete-event scheduling: a host-core-count batch of
    /// ranks at a time, driven by a virtual-clock event queue with targeted
    /// wakeups.
    DiscreteEvent,
}

/// What a blocked task is waiting on. Spurious wakeups are harmless (every
/// wait site rechecks its predicate), so this only narrows *which* tasks a
/// signal must resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WaitSite {
    /// Blocked on the rank's own mailbox (receive / wait / waitall).
    Mailbox,
    /// Blocked on a collective's rendezvous (waiting for its last depositor).
    Collective,
}

/// Host-side scheduler counters of one run ([`crate::RunOutput::host`]): how
/// the simulator executed the world, not what it simulated. They depend on
/// the batch width and — above width 1 — on how the host interleaved the
/// rank threads, so no digest and no bitwise comparison reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Batch width the world ran at (see [`crate::Runner::host_parallelism`]).
    pub width: usize,
    /// Batons handed out: a rank's first start plus every resumption after a
    /// block.
    pub dispatches: u64,
    /// Times a rank parked on its own mailbox (receive / wait / waitall).
    pub mailbox_blocks: u64,
    /// Times a rank parked on a collective rendezvous. At width 1 a
    /// collective on `n` ranks blocks exactly `n - 1` times.
    pub collective_blocks: u64,
}

/// A detected virtual deadlock: every live rank is blocked and no virtual
/// event can wake any of them. Returned (not panicked) by
/// [`Scheduler::block`] so the world can record a typed
/// [`crate::WorldError::VirtualDeadlock`] before unwinding.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Deadlock {
    /// Live (undone) tasks at detection time.
    pub live: usize,
    /// The task whose block completed the deadlock.
    pub rank: usize,
    /// That task's blocking site.
    pub site: WaitSite,
    /// That task's virtual clock when it blocked.
    pub clock: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// In the run queue, waiting for the baton.
    Runnable,
    /// Holds a baton (up to [`Scheduler::cap`] tasks at any time).
    Running,
    /// Parked until a signal on the given site.
    Blocked(WaitSite),
    /// Returned or panicked; never scheduled again.
    Done,
}

/// Run-queue key: tasks are dispatched in ascending (virtual clock, rank)
/// order. The epoch detects stale heap entries after a task blocked and was
/// re-woken (lazy deletion — cheaper than a decrease-key heap).
struct Key {
    clock: f64,
    rank: usize,
    epoch: u64,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    /// Inverted: `BinaryHeap` is a max-heap, we want the smallest
    /// (clock, rank) on top.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .clock
            .total_cmp(&self.clock)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.epoch.cmp(&self.epoch))
    }
}

struct Task {
    state: TaskState,
    /// Virtual clock at the moment the task last blocked (its run-queue
    /// priority when woken).
    clock: f64,
    /// Bumped on every state transition; run-queue entries with an older
    /// epoch are stale and skipped on pop.
    epoch: u64,
}

struct SchedState {
    tasks: Vec<Task>,
    queue: BinaryHeap<Key>,
    done: usize,
    /// Tasks currently holding a baton (at most `Scheduler::cap`).
    running: usize,
    /// The world was poisoned ([`Scheduler::wake_all`] ran): nothing parks
    /// any more, every task runs on to its next poison check and unwinds.
    poisoned: bool,
    /// Batons handed out so far ([`HostCounters::dispatches`]).
    dispatches: u64,
    /// Registered blocks so far at the mailbox and the collective site.
    blocks: [u64; 2],
}

/// One rank's baton cell: `go` is set by the scheduler when the rank may run.
/// A plain boolean under a mutex (not a bare condvar) so a resume that lands
/// *before* the target parks is never lost.
struct Baton {
    go: Mutex<bool>,
    cv: Condvar,
}

/// The cooperative discrete-event scheduler. Owned by the world's shared
/// state; rank threads call into it at every blocking site (see
/// `WorldShared::wait_on` in `world/mod.rs`).
pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    batons: Vec<Baton>,
    /// Maximum number of tasks running host-parallel at once. Between two
    /// communication events, rank compute is independent — so instead of one
    /// baton, the scheduler hands out up to `cap` (the host's core count
    /// unless [`crate::Runner::host_parallelism`] chose another):
    /// ranks still block, wake and account in virtual-time order, but their
    /// compute overlaps in real time. `cap = 1` degenerates to strict
    /// one-at-a-time dispatch. Output is bitwise identical at any cap: every
    /// completion order and charged cost is a function of virtual times only
    /// (the frozen digests in `tests/determinism.rs` were captured from a
    /// fully preemptive thread-per-rank run), and any `cap`-bounded schedule
    /// is a subset of that interleaving freedom.
    cap: usize,
}

impl Scheduler {
    /// A scheduler for `n` tasks, all initially runnable at virtual clock 0,
    /// running at most `cap` of them at once.
    pub(crate) fn new(n: usize, cap: usize) -> Scheduler {
        assert!(cap >= 1, "the scheduler needs a batch width of at least one");
        let tasks =
            (0..n).map(|_| Task { state: TaskState::Runnable, clock: 0.0, epoch: 0 }).collect();
        let mut queue = BinaryHeap::with_capacity(n);
        for rank in 0..n {
            queue.push(Key { clock: 0.0, rank, epoch: 0 });
        }
        Scheduler {
            state: Mutex::new(SchedState {
                tasks,
                queue,
                done: 0,
                running: 0,
                poisoned: false,
                dispatches: 0,
                blocks: [0; 2],
            }),
            batons: (0..n).map(|_| Baton { go: Mutex::new(false), cv: Condvar::new() }).collect(),
            cap,
        }
    }

    /// Dispatch the first batch of tasks. Called once by the world after the
    /// rank threads are spawned (a resume that beats the target's first park
    /// is held by the baton cell, so the call may also race ahead of
    /// spawning).
    pub(crate) fn start(&self) {
        let mut first = Vec::with_capacity(self.cap);
        self.fill(&mut lock(&self.state), |rank| first.push(rank));
        for rank in first {
            self.resume(rank);
        }
    }

    /// Pick runnable tasks until `cap` are running or the queue is empty,
    /// marking each `Running` and passing it to `picked`. Picking is all that
    /// happens under the state lock: the caller hands the batons over with
    /// [`Scheduler::resume`] once it holds no lock at all, so a successor
    /// that the kernel runs the instant it is woken never finds the state
    /// lock — or the waker's mailbox / collective guard — still held.
    fn fill(&self, st: &mut SchedState, mut picked: impl FnMut(usize)) {
        while st.running < self.cap {
            match Self::pop_next(st) {
                Some(rank) => {
                    st.running += 1;
                    st.dispatches += 1;
                    picked(rank);
                }
                None => break,
            }
        }
    }

    /// [`Scheduler::fill`] for the events that free or add at most one
    /// baton: after every scheduling event either `cap` tasks are running or
    /// nothing is runnable, so one block, exit or deposit makes room for —
    /// or makes runnable — exactly one task.
    fn pick_one(&self, st: &mut SchedState) -> Option<usize> {
        let mut next = None;
        self.fill(st, |rank| {
            debug_assert!(next.is_none(), "one scheduling event freed two batons");
            next = Some(rank);
        });
        next
    }

    /// Park until this task is handed the baton. Every task calls this once
    /// before running any rank code, and after every [`Scheduler::block`]
    /// once the world guard is released and the successor resumed.
    pub(crate) fn wait_for_turn(&self, rank: usize) {
        let b = &self.batons[rank];
        let mut go = lock(&b.go);
        while !*go {
            go = b.cv.wait(go).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        *go = false;
    }

    /// Hand the baton to `rank`, a task some scheduling call picked (marked
    /// `Running`) and returned. Called with **no other lock held** — see
    /// [`Scheduler::fill`]; only the poison path resumes in place. The cell is
    /// sticky, so a task whose baton arrives late is indistinguishable from
    /// one the OS has not scheduled yet.
    pub(crate) fn resume(&self, rank: usize) {
        let b = &self.batons[rank];
        *lock(&b.go) = true;
        b.cv.notify_one();
    }

    /// Pop the runnable task with the smallest (clock, rank), marking it
    /// Running. Skips stale heap entries.
    fn pop_next(st: &mut SchedState) -> Option<usize> {
        while let Some(key) = st.queue.pop() {
            let t = &mut st.tasks[key.rank];
            if t.state == TaskState::Runnable && t.epoch == key.epoch {
                t.state = TaskState::Running;
                t.epoch += 1;
                return Some(key.rank);
            }
        }
        None
    }

    /// Move a blocked task to the run queue (no-op for any other state:
    /// runnable tasks are already queued, the running task needs no wakeup,
    /// done tasks never return).
    fn make_runnable(st: &mut SchedState, rank: usize) {
        let t = &mut st.tasks[rank];
        if let TaskState::Blocked(_) = t.state {
            t.state = TaskState::Runnable;
            t.epoch += 1;
            st.queue.push(Key { clock: t.clock, rank, epoch: t.epoch });
        }
    }

    /// Register the running task `rank` as blocked until `site` is signalled,
    /// at virtual time `clock`, and pick the best runnable task to run in its
    /// place. The caller **still holds the guard of the mailbox or collective
    /// slot it found wanting**; it releases the guard, resumes the returned
    /// successor and only then parks with [`Scheduler::wait_for_turn`].
    /// Signallers change that state under the same guard before they call
    /// `wake_*`, so every wakeup finds the task either not yet decided to
    /// wait or already `Blocked` — none can fall between. That the successor
    /// is `Running` before its baton is set changes nothing: wakeups skip
    /// `Running` tasks, and the cell holds the baton until the task parks.
    ///
    /// In a poisoned world the task keeps its own baton instead (set in
    /// place; the following `wait_for_turn` returns at once), so it reaches
    /// its next poison check even when the poison landed after its last one.
    ///
    /// Returns `Err` if, with this task blocked, no task would be running or
    /// runnable while undone tasks remain — with every live rank blocked and
    /// only virtual events able to wake them, the world can never progress
    /// again (a virtual deadlock, e.g. a receive whose matching send was
    /// never posted). The reporter stays `Running`: it records the typed
    /// error, poisons the world and unwinds into [`Scheduler::retire`] like
    /// any other rank, so the remaining ranks fail fast instead of hanging
    /// the process.
    pub(crate) fn block(
        &self,
        rank: usize,
        site: WaitSite,
        clock: f64,
    ) -> Result<Option<usize>, Deadlock> {
        let mut st = lock(&self.state);
        if st.poisoned {
            self.resume(rank);
            return Ok(None);
        }
        // Offer this task's baton to the run queue first: if nobody takes it
        // and nobody else holds one, blocking would strand every live task.
        st.running -= 1;
        let next = self.pick_one(&mut st);
        if st.running == 0 {
            st.running = 1;
            let live = st.tasks.len() - st.done;
            return Err(Deadlock { live, rank, site, clock });
        }
        st.blocks[site as usize] += 1;
        let t = &mut st.tasks[rank];
        t.state = TaskState::Blocked(site);
        t.clock = clock;
        t.epoch += 1;
        Ok(next)
    }

    /// The run's counters so far (read once, after every rank has retired).
    pub(crate) fn counters(&self) -> HostCounters {
        let st = lock(&self.state);
        HostCounters {
            width: self.cap,
            dispatches: st.dispatches,
            mailbox_blocks: st.blocks[WaitSite::Mailbox as usize],
            collective_blocks: st.blocks[WaitSite::Collective as usize],
        }
    }

    /// A message was deposited for `rank`: wake it if it is parked on its
    /// mailbox, and return it for the caller to resume if a baton is free.
    pub(crate) fn wake_mailbox(&self, rank: usize) -> Option<usize> {
        let mut st = lock(&self.state);
        if st.tasks[rank].state != TaskState::Blocked(WaitSite::Mailbox) {
            return None;
        }
        Self::make_runnable(&mut st, rank);
        self.pick_one(&mut st)
    }

    /// A collective of the ranks `members` completed: wake every one of them
    /// parked at the collective site — every member has deposited, so none
    /// parks on a later collective before it has read this one, and a
    /// member's wakeup is never lost to another — and push the ones that get
    /// a free baton onto `picked` for the caller to resume once it has
    /// released the slot's guard.
    pub(crate) fn wake_collective(
        &self,
        members: impl Iterator<Item = usize>,
        picked: &mut Vec<usize>,
    ) {
        let mut st = lock(&self.state);
        for rank in members {
            if st.tasks[rank].state == TaskState::Blocked(WaitSite::Collective) {
                Self::make_runnable(&mut st, rank);
            }
        }
        self.fill(&mut st, |rank| picked.push(rank));
    }

    /// The most tasks one [`Scheduler::wake_collective`] can pick: its caller
    /// is the collective's last depositor and keeps its own baton, so at
    /// most `cap - 1` others get one.
    pub(crate) fn collective_wake_limit(&self) -> usize {
        self.cap.min(self.batons.len()) - 1
    }

    /// The world was poisoned: wake every blocked task regardless of site so
    /// each can observe the poison flag and unwind, and stop later
    /// [`Scheduler::block`] calls from parking. Resumes in place — the one
    /// path that sets batons under the state lock; nothing parks again
    /// afterwards, so there is no handoff left to keep cheap.
    pub(crate) fn wake_all(&self) {
        let mut st = lock(&self.state);
        st.poisoned = true;
        for rank in 0..st.tasks.len() {
            Self::make_runnable(&mut st, rank);
        }
        self.fill(&mut st, |rank| self.resume(rank));
    }

    /// The task of `rank` finished (returned or panicked): retire it and
    /// return the runnable task that inherits its baton, for the caller to
    /// resume. Returns `Err(live)` if undone tasks remain but none is running
    /// or runnable — the `live` survivors are permanently blocked and the
    /// caller must record the deadlock and poison the world (whose
    /// [`Scheduler::wake_all`] restarts dispatch).
    pub(crate) fn retire(&self, rank: usize) -> Result<Option<usize>, usize> {
        let mut st = lock(&self.state);
        st.tasks[rank].state = TaskState::Done;
        st.tasks[rank].epoch += 1;
        st.done += 1;
        st.running -= 1;
        let next = self.pick_one(&mut st);
        debug_assert!(st.done < st.tasks.len() || st.running == 0, "baton count out of step");
        if st.running == 0 && st.done < st.tasks.len() {
            return Err(st.tasks.len() - st.done);
        }
        Ok(next)
    }

    /// Mark a task whose host thread never existed (its spawn failed) as
    /// done, so dispatch never hands it a baton: the initial queue entry is
    /// invalidated by the epoch bump and the completion count stays exact.
    /// `running` is untouched — the task was never dispatched.
    pub(crate) fn abandon(&self, rank: usize) {
        let mut st = lock(&self.state);
        st.tasks[rank].state = TaskState::Done;
        st.tasks[rank].epoch += 1;
        st.done += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_orders_by_clock_then_rank() {
        let mut heap = BinaryHeap::new();
        heap.push(Key { clock: 2.0, rank: 0, epoch: 0 });
        heap.push(Key { clock: 1.0, rank: 5, epoch: 0 });
        heap.push(Key { clock: 1.0, rank: 3, epoch: 0 });
        let order: Vec<usize> = std::iter::from_fn(|| heap.pop().map(|k| k.rank)).collect();
        assert_eq!(order, vec![3, 5, 0]);
    }

    #[test]
    fn stale_entries_are_skipped() {
        let s = Scheduler::new(2, 1);
        {
            let mut st = lock(&s.state);
            // Simulate: both queued at epoch 0; task 0 blocks and re-wakes,
            // leaving a stale epoch-0 entry alongside a fresh one.
            st.tasks[0].state = TaskState::Blocked(WaitSite::Mailbox);
            st.tasks[0].epoch = 1;
            st.tasks[0].clock = 5.0;
            Scheduler::make_runnable(&mut st, 0);
            // Fresh entry has clock 5.0 → task 1 (clock 0) dispatches first,
            // then task 0 exactly once despite two queued entries.
            assert_eq!(Scheduler::pop_next(&mut st), Some(1));
            assert_eq!(Scheduler::pop_next(&mut st), Some(0));
            assert_eq!(Scheduler::pop_next(&mut st), None);
        }
    }

    /// A scheduler of `n` tasks at batch width `cap`, started, with the tasks
    /// of the first batch past their first park — as their rank threads
    /// would be after the prologue.
    fn started(n: usize, cap: usize) -> Scheduler {
        let s = Scheduler::new(n, cap);
        s.start();
        for rank in 0..cap.min(n) {
            s.wait_for_turn(rank);
        }
        s
    }

    fn state_of(s: &Scheduler, rank: usize) -> TaskState {
        lock(&s.state).tasks[rank].state
    }

    fn baton_set(s: &Scheduler, rank: usize) -> bool {
        *lock(&s.batons[rank].go)
    }

    #[test]
    fn block_picks_the_successor_but_leaves_its_baton_to_the_caller() {
        let s = started(2, 1);
        let next = s.block(0, WaitSite::Mailbox, 1.0).expect("task 1 can run");
        assert_eq!(next, Some(1));
        // Picked under the state lock, resumed by nobody yet: the caller
        // hands the baton over once it has dropped its world guard.
        assert_eq!(state_of(&s, 1), TaskState::Running);
        assert!(!baton_set(&s, 1), "nothing is resumed under the state lock");
        s.resume(1);
        s.wait_for_turn(1);
    }

    #[test]
    fn wakeup_between_block_and_park_is_not_lost() {
        for cap in [1, 2] {
            let s = started(2, cap);
            // Width 1 picks task 1 as the successor; at width 2 it runs already.
            let next = s.block(0, WaitSite::Mailbox, 1.0).expect("task 1 can still run");
            assert_eq!(next, (cap == 1).then_some(1));
            // The deposit lands after task 0 registered but before it parked:
            // task 0 gets the free baton at width 2 and queues at width 1 ...
            let woken = s.wake_mailbox(0);
            // ... where it inherits task 1's baton when that finishes.
            let inherited = s.retire(1).expect("task 0 is runnable, not stranded");
            assert_eq!(
                (woken, inherited),
                if cap == 1 { (None, Some(0)) } else { (Some(0), None) }
            );
            assert_eq!(state_of(&s, 0), TaskState::Running);
            s.resume(0);
            s.wait_for_turn(0);
        }
    }

    #[test]
    fn block_does_not_park_once_poisoned() {
        let s = started(2, 1);
        // Poison lands after task 0's last poison check, before it registers.
        s.wake_all();
        let next = s.block(0, WaitSite::Collective, 1.0);
        assert_eq!(next.expect("a poisoned world reports no deadlock"), None);
        assert_eq!(state_of(&s, 0), TaskState::Running);
        assert!(baton_set(&s, 0), "task 0 must keep its baton");
        s.wait_for_turn(0);
    }

    #[test]
    fn deadlock_reporter_stays_running_and_retires_once() {
        let s = started(1, 1);
        let d = s.block(0, WaitSite::Mailbox, 2.5).expect_err("the only task cannot block");
        assert_eq!((d.live, d.rank, d.site, d.clock), (1, 0, WaitSite::Mailbox, 2.5));
        assert_eq!(state_of(&s, 0), TaskState::Running);
        assert_eq!(s.retire(0), Ok(None));
        let st = lock(&s.state);
        assert_eq!((st.running, st.done), (0, 1));
    }

    #[test]
    fn rank_exit_with_the_successors_baton_in_flight() {
        // Three ranks at width 2: 0 and 1 run, 2 waits for a baton.
        let s = started(3, 2);
        // Rank 0 exits. Rank 2 inherits its baton — picked, not yet resumed.
        assert_eq!(s.retire(0), Ok(Some(2)));
        assert!(!baton_set(&s, 2));
        // Meanwhile rank 1 blocks. Rank 2 counts as running although its
        // baton is still in flight, so this is no deadlock ...
        assert_eq!(s.block(1, WaitSite::Mailbox, 1.0).expect("rank 2 is running"), None);
        // ... and a late baton is as good as a prompt one.
        s.resume(2);
        s.wait_for_turn(2);
        assert_eq!(s.wake_mailbox(1), Some(1));
        s.resume(1);
        s.wait_for_turn(1);
        assert_eq!(s.retire(2), Ok(None));
        assert_eq!(s.retire(1), Ok(None));
        let st = lock(&s.state);
        assert_eq!((st.running, st.done), (0, 3));
    }
}
