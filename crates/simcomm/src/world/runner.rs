//! How a world starts and ends: one parked thread per rank, the deadline
//! watchdog, and every rank's result, clock, statistics, trace and phases.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use super::{lock, Comm, RankStats, WorldShared};
use crate::engine::{Engine, HostCounters};
use crate::error::WorldError;
use crate::fault::FaultPlan;
use crate::model::MachineModel;
use crate::phase::{aggregate_phases, PhaseAgg, PhaseProfile};
use crate::trace::Trace;

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
    /// Per-rank phase profiles (see [`Comm::enter_phase`]). In a traced
    /// world, [`Trace::spans`] is each rank's timeline, every stretch with
    /// its phase.
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
        assert!(n >= 1, "world must have at least one rank");
        let Runner { traced, deadline, host_parallelism, ref fault } = *self;
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
                            shared.fail(WorldError::DeadlineExceeded {
                                seconds: limit.as_secs_f64(),
                            });
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
                        let mut comm = Comm::new(Arc::clone(&shared), rank, traced);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Work;

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
}
