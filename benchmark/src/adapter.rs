//! The one file that calls into the program.
//!
//! World launch and engine choice, the MD iteration, the redistribution and
//! exchange worlds, and every solver / sort / resort probe live here, each
//! call wrapped in a host-time span. ROADMAP item 2 plans to change `Engine`,
//! the free `run*` wrappers and the shape of rank bodies; when it does, this
//! file is the benchmark's whole follow-up. Only `Runner` launches worlds —
//! never the free `run*` functions or `neighbor_exchange_blocking`.

use std::hint::black_box;
use std::time::Instant;

use atasp::{alltoall_specific, build_resort_indices, decode_index, encode_index, ExchangeMode};
use fcs::{Fcs, SolverKind};
use fmm::{ExpansionOps, FmmConfig, FmmSolver};
use mdsim::{SimConfig, SimResult};
use particles::systems::splitmix64;
use particles::{
    InitialDistribution, IonicCrystal, ParticleSet, PlaneSet, RedistMethod, SystemBox, Vec3,
};
use pmsolver::{PmConfig, PmSolver};
use psort::SortPlan;
use simcomm::{CartGrid, Comm, Engine, MachineModel, RunOutput, Runner, Work};

use crate::alloc;
use crate::spans::{SpanId, Spans, MAIN_TRACK};

/// What every adapter call needs: where to record spans, and whether worlds
/// run with `Runner::traced(true)`.
pub struct Ctx<'a> {
    pub spans: &'a Spans,
    pub traced: bool,
}

/// Solver tolerance of every MD and solver world (`SimConfig`'s default).
pub const TOLERANCE: f64 = 1e-2;

/// The modelled machine of a world.
#[derive(Clone, Copy)]
enum Machine {
    /// Switched fabric (`MachineModel::juropa_like`).
    Juropa,
    /// 5D torus (`MachineModel::juqueen_like`).
    Juqueen,
}

fn model(machine: Machine) -> MachineModel {
    match machine {
        Machine::Juropa => MachineModel::juropa_like(),
        Machine::Juqueen => MachineModel::juqueen_like(),
    }
}

/// Everything the benchmark reads off one finished world, summed over ranks
/// unless stated otherwise. Virtual seconds are those of the machine model,
/// which is unvalidated against hardware.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorldStats {
    pub label: &'static str,
    /// The solver an MD world couples (both name their phases alike).
    pub solver: Option<Solver>,
    pub makespan_s: f64,
    /// Max over ranks of `comm_seconds + wait_seconds`.
    pub max_comm_wait_s: f64,
    pub p2p_msgs: u64,
    pub p2p_bytes: u64,
    pub coll_ops: u64,
    pub coll_bytes: u64,
    pub pool_grown_bytes: u64,
    pub pool_reused_bytes: u64,
    pub plan_builds: u64,
    pub plan_execs: u64,
    pub retries: u64,
    /// `RunOutput::phase_table()`: phase name and its critical (max over
    /// ranks) virtual seconds.
    pub phases: Vec<(&'static str, f64)>,
    /// Filled for traced worlds only.
    pub trace: Option<TraceStats>,
}

/// `simtrace::analyze` of one traced world.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceStats {
    pub events: u64,
    pub critpath_comm_s: f64,
    pub critpath_wait_s: f64,
    pub critpath_compute_s: f64,
    /// Host seconds `simtrace::analyze` took.
    pub analyze_wall_s: f64,
}

impl WorldStats {
    /// Critical virtual seconds of the phases selected by `pick`.
    pub fn phase_seconds(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.phases.iter().filter(|(name, _)| pick(name)).map(|(_, s)| s).sum()
    }
}

fn summarize<R>(cx: &Ctx, label: &'static str, out: &RunOutput<R>) -> WorldStats {
    let mut w = WorldStats { label, makespan_s: out.makespan(), ..WorldStats::default() };
    for s in &out.stats {
        w.max_comm_wait_s = w.max_comm_wait_s.max(s.comm_seconds + s.wait_seconds);
        w.p2p_msgs += s.p2p_sent_msgs;
        w.p2p_bytes += s.p2p_sent_bytes;
        w.coll_ops += s.coll_ops;
        w.coll_bytes += s.coll_bytes;
        w.pool_grown_bytes += s.bytes_grown;
        w.pool_reused_bytes += s.bytes_reused;
        w.plan_builds += s.plan_builds;
        w.plan_execs += s.plan_execs;
        w.retries += s.retries;
    }
    w.phases = out.phase_table().iter().map(|row| (row.name, row.max_seconds)).collect();
    if !out.traces.is_empty() {
        let t0 = Instant::now();
        let analysis = cx.spans.scope("simtrace::analyze", SpanId::NONE, MAIN_TRACK, |_| {
            simtrace::analyze(&out.traces)
        });
        w.trace = Some(TraceStats {
            events: out.traces.iter().map(|t| t.events.len() as u64).sum(),
            critpath_comm_s: analysis.critpath_comm,
            critpath_wait_s: analysis.critpath_wait,
            critpath_compute_s: analysis.critpath_compute,
            analyze_wall_s: t0.elapsed().as_secs_f64(),
        });
    }
    w
}

/// Launch one world on the discrete-event engine — the engine ROADMAP item 2
/// keeps — through `Runner::try_run`, so a failed world is a value, not a
/// panic. The body receives the world's span id for its own nested spans.
fn launch<R: Send>(
    cx: &Ctx,
    label: &'static str,
    ranks: usize,
    machine: Machine,
    body: impl Fn(&mut Comm, SpanId) -> R + Send + Sync,
) -> Result<(Vec<R>, WorldStats), String> {
    let out = cx
        .spans
        .scope(label, SpanId::NONE, MAIN_TRACK, |world| {
            Runner::new(Engine::DiscreteEvent).traced(cx.traced).try_run(
                ranks,
                model(machine),
                |comm| body(comm, world),
            )
        })
        .map_err(|e| format!("{label}: {e}"))?;
    let stats = summarize(cx, label, &out);
    Ok((out.results, stats))
}

fn track(comm: &Comm) -> u32 {
    comm.rank() as u32 + 1
}

// ---------------------------------------------------------------------------
// MD worlds (`mdsim::simulate` over `fcs` over `fmm` / `pmsolver`)
// ---------------------------------------------------------------------------

/// Which solver an MD or solver world couples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Solver {
    Fmm,
    P2nfft,
}

/// How an MD world handles the solver's changed particle order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Method A: restore the original order and distribution.
    A,
    /// Method B with the movement hint (merge sort / neighbourhood exchange).
    BMovement,
}

/// Inputs of the MD worlds, generated once per set-up: the jittered crystal
/// and every rank's share of it under the grid distribution.
pub struct MdInputs {
    crystal: IonicCrystal,
    bbox: SystemBox,
    sets: Vec<ParticleSet>,
    dt: f64,
}

impl MdInputs {
    pub fn particles(&self) -> usize {
        self.crystal.n()
    }

    pub fn ranks(&self) -> usize {
        self.sets.len()
    }

    /// The whole system on one rank.
    fn gathered(&self) -> ParticleSet {
        let mut all = ParticleSet::default();
        self.sets.iter().for_each(|set| all.extend(set));
        all
    }
}

/// `IonicCrystal::paper_like(cells, seed)` split over `ranks` grid cells.
///
/// The seed moves every particle, but by less than it takes to leave its
/// lattice cell (the jitter is 15 % of the spacing), and the FMM's modelled
/// cost depends on cell occupancy alone: FMM worlds therefore have
/// bit-identical virtual times and allocation counts under every seed, while
/// P2NFFT worlds (whose ghost and pair counts depend on distances) vary in
/// the fourth digit.
pub fn md_inputs(cx: &Ctx, cells: usize, seed: u64, ranks: usize) -> MdInputs {
    let crystal = IonicCrystal::paper_like(cells, seed);
    let dims = CartGrid::balanced(ranks).dims();
    let sets = cx.spans.scope("particles::local_set", SpanId::NONE, MAIN_TRACK, |_| {
        (0..ranks)
            .map(|r| particles::local_set(&crystal, InitialDistribution::Grid, r, ranks, dims))
            .collect()
    });
    let dt = mdsim::suggested_dt(crystal.spacing, 1.0);
    MdInputs { bbox: crystal.system_box(), crystal, sets, dt }
}

/// One finished MD world.
pub struct MdWorld {
    pub stats: WorldStats,
    /// Σ over steps of the max over ranks of sort + restore + resort.
    pub virt_redist_s: f64,
    pub final_energy: f64,
    /// Final particle ids of every rank, concatenated in rank order.
    pub final_ids: Vec<u64>,
    pub plan_builds: u64,
    pub plan_hits: u64,
}

pub fn md_world(
    cx: &Ctx,
    label: &'static str,
    inputs: &MdInputs,
    solver: Solver,
    method: Method,
    steps: usize,
) -> Result<MdWorld, String> {
    let cfg = SimConfig {
        solver: match solver {
            Solver::Fmm => SolverKind::Fmm,
            Solver::P2nfft => SolverKind::P2Nfft,
        },
        resort: method == Method::BMovement,
        exploit_movement: method == Method::BMovement,
        steps,
        tolerance: TOLERANCE,
        dt: inputs.dt,
        ..SimConfig::default()
    };
    let (results, mut stats) =
        launch(cx, label, inputs.ranks(), Machine::Juropa, |comm, world| {
            // Cloned here so that generating the inputs is never timed.
            let set = inputs.sets[comm.rank()].clone();
            cx.spans.scope("mdsim::simulate", world, track(comm), |_| {
                mdsim::simulate(comm, inputs.bbox, set, &cfg)
            })
        })?;
    stats.solver = Some(solver);
    Ok(md_condense(stats, &results))
}

fn md_condense(stats: WorldStats, results: &[SimResult]) -> MdWorld {
    let records = results[0].records.len();
    let per_step_max = |f: &dyn Fn(&mdsim::StepRecord) -> f64| -> f64 {
        (0..records).map(|s| results.iter().map(|r| f(&r.records[s])).fold(0.0, f64::max)).sum()
    };
    MdWorld {
        stats,
        virt_redist_s: per_step_max(&|r| r.sort + r.restore + r.resort),
        // The energy is an allreduce result: identical on every rank.
        final_energy: results[0].records[records - 1].energy,
        final_ids: results.iter().flat_map(|r| r.final_state.id.iter().copied()).collect(),
        plan_builds: results.iter().map(|r| r.plan_builds).sum(),
        plan_hits: results.iter().map(|r| r.plan_hits).sum(),
    }
}

/// The same problem gathered onto one rank: the baseline of
/// `mdsim.virt_parallel_eff`.
pub fn md_world_single_rank(
    cx: &Ctx,
    label: &'static str,
    inputs: &MdInputs,
    solver: Solver,
    method: Method,
    steps: usize,
) -> Result<MdWorld, String> {
    let one = MdInputs {
        crystal: inputs.crystal.clone(),
        bbox: inputs.bbox,
        sets: vec![inputs.gathered()],
        dt: inputs.dt,
    };
    md_world(cx, label, &one, solver, method, steps)
}

// ---------------------------------------------------------------------------
// Redistribution world (`psort` + `atasp` + `particles`, no solver arithmetic)
// ---------------------------------------------------------------------------

/// One particle record as the sorts transport it: 48 bytes, like the FMM
/// solver's. All fields are integers so that "restored bit-equal" is `==`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Rec {
    id: u64,
    /// `encode_index(rank, position)` at the start of the current round.
    origin: u64,
    /// Sort key at round 0 and its change per round (slow drift).
    key0: u64,
    drift: i64,
    payload: [u64; 2],
}

impl Rec {
    fn key(&self, round: usize) -> u64 {
        self.key0.wrapping_add_signed(self.drift * round as i64)
    }
}

/// Inputs of the redistribution world: every rank's records in their
/// original ("random") distribution.
pub struct RedistInputs {
    recs: Vec<Vec<Rec>>,
    rounds: usize,
}

impl RedistInputs {
    pub fn ranks(&self) -> usize {
        self.recs.len()
    }

    pub fn per_rank(&self) -> usize {
        self.recs[0].len()
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

/// `ranks × per_rank` records with uniformly random 40-bit keys from a
/// splitmix stream of `seed`; every key then drifts by at most 1/256 of one
/// rank's share of the key space per round, so a sorted state stays almost
/// sorted from one round to the next.
pub fn redist_inputs(seed: u64, ranks: usize, per_rank: usize, rounds: usize) -> RedistInputs {
    const KEY_BITS: u32 = 40;
    let max_drift = ((1u64 << KEY_BITS) / (ranks as u64 * 256)) as i64;
    let recs = (0..ranks)
        .map(|r| {
            (0..per_rank)
                .map(|i| {
                    let id = (r * per_rank + i) as u64;
                    let h = splitmix64(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let h2 = splitmix64(h);
                    Rec {
                        id,
                        origin: encode_index(r, i),
                        // Offset by 2^41 so that no drift underflows.
                        key0: (1u64 << (KEY_BITS + 1)) + (h >> (64 - KEY_BITS)),
                        drift: (h2 % (2 * max_drift as u64 + 1)) as i64 - max_drift,
                        payload: [splitmix64(h2), !id],
                    }
                })
                .collect()
        })
        .collect();
    RedistInputs { recs, rounds }
}

/// One finished redistribution world.
pub struct RedistWorld {
    pub stats: WorldStats,
    /// Σ over rounds of the max over ranks of the Method A round time.
    pub virt_method_a_s: f64,
    /// The same for Method B.
    pub virt_method_b_s: f64,
    /// Every Method A round restored the original records bit-equal.
    pub restored_equal: bool,
    /// Every Method B round resorted the id plane to the sorted records' ids.
    pub resorted_equal: bool,
    pub counts: RedistCounts,
}

/// `psort` / `atasp` report counters of one redistribution world, summed
/// over ranks and rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RedistCounts {
    pub sort_sent_elems: u64,
    pub merge_comparators: u64,
    pub merge_quiet_steps: u64,
    pub merge_cleanup_rounds: u64,
    pub resort_calls: u64,
    pub resort_plan_hits: u64,
}

impl RedistCounts {
    fn add(&mut self, o: &RedistCounts) {
        self.sort_sent_elems += o.sort_sent_elems;
        self.merge_comparators += o.merge_comparators;
        self.merge_quiet_steps += o.merge_quiet_steps;
        self.merge_cleanup_rounds += o.merge_cleanup_rounds;
        self.resort_calls += o.resort_calls;
        self.resort_plan_hits += o.resort_plan_hits;
    }
}

/// The application's additional per-particle data as the MD driver carries
/// it: an (id, vel, accel) plane set of `n` elements, 56 bytes each.
fn aux_planes(n: usize) -> PlaneSet {
    let mut set = PlaneSet::new();
    set.register::<u64>("id");
    set.register::<Vec3>("vel");
    set.register::<Vec3>("accel");
    set.resize(n);
    set
}

struct RedistRank {
    round_a_s: Vec<f64>,
    round_b_s: Vec<f64>,
    restored_equal: bool,
    resorted_equal: bool,
    counts: RedistCounts,
}

/// Method A rounds: partition sort from the original distribution, then
/// restore with `alltoall_specific`. Method B rounds: round 0 partition
/// sort, later rounds planned merge-exchange sort of the almost-sorted
/// state, then `build_resort_indices` + `resort_planes` of an
/// (id, vel, accel) plane set under a kept `ResortPlan`.
pub fn redist_world(cx: &Ctx, inputs: &RedistInputs) -> Result<RedistWorld, String> {
    let rounds = inputs.rounds;
    let (ranks, stats) = launch(cx, "redist", inputs.ranks(), Machine::Juqueen, |comm, world| {
        let original = &inputs.recs[comm.rank()];
        let (round_a_s, restored_equal, mut counts) =
            redist_method_a(cx, comm, world, original, rounds);
        let (round_b_s, resorted_equal, counts_b) =
            redist_method_b(cx, comm, world, original, rounds);
        counts.add(&counts_b);
        RedistRank { round_a_s, round_b_s, restored_equal, resorted_equal, counts }
    })?;
    let per_round_max = |f: &dyn Fn(&RedistRank) -> &Vec<f64>| -> f64 {
        (0..rounds).map(|t| ranks.iter().map(|r| f(r)[t]).fold(0.0, f64::max)).sum()
    };
    let mut counts = RedistCounts::default();
    ranks.iter().for_each(|r| counts.add(&r.counts));
    Ok(RedistWorld {
        stats,
        virt_method_a_s: per_round_max(&|r| &r.round_a_s),
        virt_method_b_s: per_round_max(&|r| &r.round_b_s),
        restored_equal: ranks.iter().all(|r| r.restored_equal),
        resorted_equal: ranks.iter().all(|r| r.resorted_equal),
        counts,
    })
}

fn redist_method_a(
    cx: &Ctx,
    comm: &mut Comm,
    world: SpanId,
    original: &[Rec],
    rounds: usize,
) -> (Vec<f64>, bool, RedistCounts) {
    let mut counts = RedistCounts::default();
    let mut round_s = Vec::with_capacity(rounds);
    let mut equal = true;
    for t in 0..rounds {
        let keys: Vec<u64> = original.iter().map(|r| r.key(t)).collect();
        let t0 = comm.clock();
        let (_, sorted, report) =
            cx.spans.scope("psort::partition_sort_by_key", world, track(comm), |_| {
                psort::partition_sort_by_key(comm, keys, original.to_vec())
            });
        counts.sort_sent_elems += report.sent_elems;
        let targets: Vec<usize> = sorted.iter().map(|r| decode_index(r.origin).0).collect();
        let back = cx.spans.scope("atasp::alltoall_specific", world, track(comm), |_| {
            comm.with_phase("restore", |comm| {
                alltoall_specific(comm, &sorted, &targets, &ExchangeMode::Collective)
            })
        });
        let mut restored = vec![Rec::default(); original.len()];
        for r in &back {
            restored[decode_index(r.origin).1] = *r;
        }
        comm.compute(Work::ByteCopy, std::mem::size_of_val(original) as f64);
        round_s.push(comm.clock() - t0);
        equal &= back.len() == original.len() && restored == original;
    }
    (round_s, equal, counts)
}

fn redist_method_b(
    cx: &Ctx,
    comm: &mut Comm,
    world: SpanId,
    original: &[Rec],
    rounds: usize,
) -> (Vec<f64>, bool, RedistCounts) {
    let me = comm.rank();
    let mut counts = RedistCounts::default();
    let mut round_s = Vec::with_capacity(rounds);
    let mut equal = true;

    // The additional data in the current order; the id plane is what the
    // resort is checked against.
    let mut planes = aux_planes(original.len());
    let id_plane = planes.id_at(0);
    for (slot, r) in planes.plane_mut::<u64>(id_plane).iter_mut().zip(original) {
        *slot = r.id;
    }

    let mut recs = original.to_vec();
    let mut sort_plan: Option<SortPlan> = None;
    let mut resort_plan = None;
    for t in 0..rounds {
        let len_before = recs.len();
        for (i, r) in recs.iter_mut().enumerate() {
            r.origin = encode_index(me, i);
        }
        let keys: Vec<u64> = recs.iter().map(|r| r.key(t)).collect();
        let t0 = comm.clock();
        let sorted = if t == 0 {
            let (_, sorted, report) =
                cx.spans.scope("psort::partition_sort_by_key", world, track(comm), |_| {
                    psort::partition_sort_by_key(comm, keys, recs)
                });
            counts.sort_sent_elems += report.sent_elems;
            sorted
        } else {
            let (_, sorted, report, next) = cx.spans.scope(
                "psort::merge_exchange_sort_by_key_planned",
                world,
                track(comm),
                |_| psort::merge_exchange_sort_by_key_planned(comm, keys, recs, sort_plan.as_ref()),
            );
            sort_plan = next;
            counts.sort_sent_elems += report.sent_elems;
            counts.merge_comparators += report.comparators + report.rounds_plan_skipped;
            counts.merge_quiet_steps += report.probes_skipped + report.rounds_plan_skipped;
            counts.merge_cleanup_rounds += report.cleanup_rounds;
            sorted
        };
        let origin: Vec<u64> = sorted.iter().map(|r| r.origin).collect();
        comm.enter_phase("resort");
        let indices = cx.spans.scope("atasp::build_resort_indices", world, track(comm), |_| {
            build_resort_indices(comm, &origin, len_before)
        });
        counts.resort_calls += 1;
        counts.resort_plan_hits +=
            u64::from(resort_plan.as_ref().is_some_and(|p: &atasp::ResortPlan| {
                p.matches(&indices, sorted.len(), &ExchangeMode::Collective)
            }));
        cx.spans.scope("atasp::resort_planes", world, track(comm), |_| {
            atasp::resort_planes(
                comm,
                &mut planes,
                &indices,
                sorted.len(),
                &ExchangeMode::Collective,
                &mut resort_plan,
            )
        });
        comm.exit_phase();
        round_s.push(comm.clock() - t0);
        equal &= planes.plane::<u64>(id_plane).iter().eq(sorted.iter().map(|r| &r.id));
        recs = sorted;
    }
    (round_s, equal, counts)
}

// ---------------------------------------------------------------------------
// Exchange world (`simcomm` point-to-point + one allreduce per step)
// ---------------------------------------------------------------------------

const TAG_EXCHANGE: u64 = 0x6265_6e63;

/// Inputs of the exchange world: every rank's 26 partners and the payload
/// length for each.
pub struct ExchangeInputs {
    /// Per rank: `(partner, payload bytes)`.
    sends: Vec<Vec<(usize, usize)>>,
    steps: usize,
}

impl ExchangeInputs {
    pub fn ranks(&self) -> usize {
        self.sends.len()
    }

    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Bytes all ranks together receive in one step.
    pub fn bytes_per_step(&self) -> u64 {
        self.sends.iter().flatten().map(|&(_, len)| len as u64).sum()
    }
}

/// A 26-neighbour stencil on `CartGrid::balanced(ranks)`; each (rank,
/// partner) payload is `mean_bytes` ± 25 % from a splitmix stream of `seed`.
pub fn exchange_inputs(seed: u64, ranks: usize, mean_bytes: usize, steps: usize) -> ExchangeInputs {
    let grid = CartGrid::balanced(ranks);
    let spread = mean_bytes / 2;
    let sends = (0..ranks)
        .map(|r| {
            grid.neighbors26(r)
                .into_iter()
                .map(|q| {
                    let h = splitmix64(seed ^ ((r * ranks + q) as u64).wrapping_mul(0x9e37_79b9));
                    (q, mean_bytes - spread / 2 + (h % (spread as u64 + 1)) as usize)
                })
                .collect()
        })
        .collect();
    ExchangeInputs { sends, steps }
}

/// One finished exchange world.
pub struct ExchangeWorld {
    pub stats: WorldStats,
    /// Per rank: bytes it received over all steps.
    pub received: Vec<u64>,
    /// Per rank: the last step's allreduce of the bytes received that step.
    pub last_step_total: Vec<u64>,
}

/// `steps` rounds of: build the payloads (charged as a byte copy, the only
/// modelled compute), `neighbor_exchange` them, `allreduce` the bytes
/// received.
pub fn exchange_world(
    cx: &Ctx,
    label: &'static str,
    inputs: &ExchangeInputs,
) -> Result<ExchangeWorld, String> {
    let steps = inputs.steps;
    let (ranks, stats) = launch(cx, label, inputs.ranks(), Machine::Juqueen, |comm, world| {
        let sends = &inputs.sends[comm.rank()];
        let partners: Vec<usize> = sends.iter().map(|&(q, _)| q).collect();
        let out_bytes: usize = sends.iter().map(|&(_, len)| len).sum();
        let fill = comm.rank() as u8;
        let mut received = 0u64;
        let mut step_total = 0u64;
        for _ in 0..steps {
            step_total = cx.spans.scope("exchange step", world, track(comm), |_| {
                let data: Vec<(usize, Vec<u8>)> =
                    sends.iter().map(|&(q, len)| (q, vec![fill; len])).collect();
                comm.compute(Work::ByteCopy, out_bytes as f64);
                let got: u64 = comm
                    .neighbor_exchange(&partners, data, TAG_EXCHANGE)
                    .iter()
                    .map(|(_, v)| v.len() as u64)
                    .sum();
                received += got;
                comm.allreduce(got, |a, b| a + b)
            });
        }
        (received, step_total)
    })?;
    Ok(ExchangeWorld {
        stats,
        received: ranks.iter().map(|r| r.0).collect(),
        last_step_total: ranks.iter().map(|r| r.1).collect(),
    })
}

// ---------------------------------------------------------------------------
// Layer probes: a plain call, or a world whose rank body calls only that
// layer. Each returns host seconds (and the counts it produced); the caller
// repeats it and keeps the minimum.
// ---------------------------------------------------------------------------

/// Host seconds and allocations of one probe.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub wall_s: f64,
    pub allocs: u64,
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (a0, _) = alloc::counters();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (r, Cost { wall_s, allocs: alloc::counters().0 - a0 })
}

fn timed_world<R: Send>(
    cx: &Ctx,
    label: &'static str,
    ranks: usize,
    machine: Machine,
    body: impl Fn(&mut Comm, SpanId) -> R + Send + Sync,
) -> Result<(Vec<R>, WorldStats, Cost), String> {
    let (res, cost) = timed(|| launch(cx, label, ranks, machine, body));
    res.map(|(results, stats)| (results, stats, cost))
}

/// simcomm: a world whose ranks do nothing (spawn + join).
pub fn probe_empty_world(cx: &Ctx, ranks: usize) -> Result<Cost, String> {
    timed_world(cx, "probe:simcomm.empty_world", ranks, Machine::Juqueen, |_, _| ()).map(|r| r.2)
}

/// simcomm: a token passed `laps` times round a ring; every hop is one
/// receive that blocks until the previous rank has sent.
pub fn probe_token_ring(cx: &Ctx, ranks: usize, laps: usize) -> Result<Cost, String> {
    timed_world(cx, "probe:simcomm.token_ring", ranks, Machine::Juqueen, |comm, _| {
        let (me, p) = (comm.rank(), comm.size());
        let (next, prev) = ((me + 1) % p, (me + p - 1) % p);
        for _ in 0..laps {
            if me == 0 {
                comm.send(next, 1, vec![0u64]);
                black_box(comm.recv::<u64>(prev, 1));
            } else {
                let token = comm.recv::<u64>(prev, 1);
                comm.send(next, 1, token);
            }
        }
    })
    .map(|r| r.2)
}

/// simcomm: `rounds` allreduces of one `u64`.
pub fn probe_allreduce(cx: &Ctx, ranks: usize, rounds: usize) -> Result<Cost, String> {
    timed_world(cx, "probe:simcomm.allreduce", ranks, Machine::Juqueen, |comm, _| {
        let mut acc = comm.rank() as u64;
        for _ in 0..rounds {
            acc = comm.allreduce(acc, |a, b| a.wrapping_add(b));
        }
        acc
    })
    .map(|r| r.2)
}

/// simcomm: `rounds` alltoallvs of `bytes` to every other rank.
pub fn probe_alltoallv(
    cx: &Ctx,
    ranks: usize,
    rounds: usize,
    bytes: usize,
) -> Result<Cost, String> {
    timed_world(cx, "probe:simcomm.alltoallv", ranks, Machine::Juqueen, |comm, _| {
        let (me, p) = (comm.rank(), comm.size());
        let mut got = 0usize;
        for _ in 0..rounds {
            let sends: Vec<(usize, Vec<u8>)> =
                (0..p).filter(|&q| q != me).map(|q| (q, vec![me as u8; bytes])).collect();
            got += comm.alltoallv(sends).len();
        }
        got
    })
    .map(|r| r.2)
}

/// simcomm: the exchange world, timed.
pub fn probe_exchange(
    cx: &Ctx,
    label: &'static str,
    inputs: &ExchangeInputs,
) -> Result<Cost, String> {
    let (world, cost) = timed(|| exchange_world(cx, label, inputs));
    world.map(|_| cost)
}

/// particles: `local_set` for every rank of a grid distribution.
pub fn probe_local_set(cx: &Ctx, cells: usize, seed: u64, ranks: usize) -> Cost {
    timed(|| black_box(md_inputs(cx, cells, seed, ranks))).1
}

/// particles: Morton keys of `n` positions.
pub fn probe_zorder(cx: &Ctx, seed: u64, n: usize) -> Cost {
    let unit = |h: u64| (h >> 11) as f64 / (1u64 << 53) as f64;
    let points: Vec<[f64; 3]> = (0..n as u64)
        .map(|i| {
            let a = splitmix64(seed ^ i);
            let b = splitmix64(a);
            [unit(a), unit(b), unit(splitmix64(b))]
        })
        .collect();
    cx.spans.scope("particles::zorder::key_of_normalized", SpanId::NONE, MAIN_TRACK, |_| {
        timed(|| {
            let mut acc = 0u64;
            for p in &points {
                acc ^= particles::zorder::key_of_normalized(black_box(*p), 20);
            }
            black_box(acc)
        })
        .1
    })
}

/// particles: `PlaneSet::scatter_permute` of an (id, vel, accel) set of `n`
/// elements, `reps` times. Returns the cost and the bytes moved per call.
pub fn probe_scatter_permute(cx: &Ctx, n: usize, reps: usize) -> (Cost, u64) {
    let mut set = aux_planes(n);
    // 1031 is odd, so coprime with a power-of-two `n`: a full permutation.
    let perm: Vec<usize> = (0..n).map(|i| (i * 1031) % n).collect();
    set.scatter_permute(&perm);
    let bytes = (n * set.element_bytes()) as u64;
    let cost = cx.spans.scope("PlaneSet::scatter_permute", SpanId::NONE, MAIN_TRACK, |_| {
        timed(|| {
            for _ in 0..reps {
                set.scatter_permute(black_box(&perm));
            }
        })
        .1
    });
    black_box(&set);
    (cost, bytes)
}

/// psort: `radix_sort_by_key` of `n` random keys (the clone is not timed).
pub fn probe_radix_sort(cx: &Ctx, seed: u64, n: usize) -> Cost {
    let mut keys: Vec<u64> = (0..n as u64).map(|i| splitmix64(seed ^ i) >> 24).collect();
    let mut values: Vec<u64> = (0..n as u64).collect();
    cx.spans.scope("psort::radix_sort_by_key", SpanId::NONE, MAIN_TRACK, |_| {
        timed(|| black_box(psort::radix_sort_by_key(&mut keys, &mut values))).1
    })
}

/// psort: a world whose ranks only partition-sort their original records.
pub fn probe_partition_sort(cx: &Ctx, inputs: &RedistInputs) -> Result<Cost, String> {
    timed_world(cx, "probe:psort.partition", inputs.ranks(), Machine::Juqueen, |comm, _| {
        let recs = inputs.recs[comm.rank()].clone();
        let keys: Vec<u64> = recs.iter().map(|r| r.key(0)).collect();
        psort::partition_sort_by_key(comm, keys, recs).0.len()
    })
    .map(|r| r.2)
}

/// Every rank's records after a global sort by the round-0 key, split evenly
/// — the almost-sorted state the merge sort meets one round later.
pub fn redist_sorted_inputs(inputs: &RedistInputs) -> RedistInputs {
    let mut all: Vec<Rec> = inputs.recs.iter().flatten().copied().collect();
    all.sort_by_key(|r| (r.key(0), r.id));
    let recs = all.chunks(inputs.per_rank()).map(<[Rec]>::to_vec).collect();
    RedistInputs { recs, rounds: inputs.rounds }
}

/// psort: a world whose ranks only merge-exchange-sort `sorted` (see
/// [`redist_sorted_inputs`]) by the round-1 key.
pub fn probe_merge_sort(cx: &Ctx, sorted: &RedistInputs) -> Result<Cost, String> {
    timed_world(cx, "probe:psort.merge", sorted.ranks(), Machine::Juqueen, |comm, _| {
        let recs = sorted.recs[comm.rank()].clone();
        let keys: Vec<u64> = recs.iter().map(|r| r.key(1)).collect();
        psort::merge_exchange_sort_by_key_planned(comm, keys, recs, None).0.len()
    })
    .map(|r| r.2)
}

/// atasp: a world whose ranks only restore: `alltoall_specific` of every
/// record to a pseudo-random origin rank, `rounds` times.
pub fn probe_restore(cx: &Ctx, inputs: &RedistInputs, rounds: usize) -> Result<Cost, String> {
    timed_world(cx, "probe:atasp.restore", inputs.ranks(), Machine::Juqueen, |comm, _| {
        let recs = &inputs.recs[comm.rank()];
        let targets: Vec<usize> =
            recs.iter().map(|r| (r.key0 % comm.size() as u64) as usize).collect();
        let mut got = 0;
        for _ in 0..rounds {
            got += alltoall_specific(comm, recs, &targets, &ExchangeMode::Collective).len();
        }
        got
    })
    .map(|r| r.2)
}

/// A rotation of every rank's block to the next rank, positions reversed: a
/// valid global permutation that moves every element.
fn rotate_indices(comm: &Comm, n: usize) -> Vec<u64> {
    let dst = (comm.rank() + 1) % comm.size();
    (0..n).map(|i| encode_index(dst, n - 1 - i)).collect()
}

/// atasp: a world whose ranks only build resort indices for the rotation.
pub fn probe_index_build(cx: &Ctx, ranks: usize, n: usize, rounds: usize) -> Result<Cost, String> {
    timed_world(cx, "probe:atasp.index_build", ranks, Machine::Juqueen, |comm, _| {
        let src = (comm.rank() + comm.size() - 1) % comm.size();
        // Element `i` here came from position `n - 1 - i` of the previous rank.
        let origin: Vec<u64> = (0..n).map(|i| encode_index(src, n - 1 - i)).collect();
        let mut got = 0;
        for _ in 0..rounds {
            got += build_resort_indices(comm, &origin, n).len();
        }
        got
    })
    .map(|r| r.2)
}

/// atasp: a world whose ranks only call `resort_planes` on an (id, vel,
/// accel) set, `rounds` times with one kept plan and unchanging indices.
/// Returns the cost and the bytes of plane data moved, all ranks and rounds.
pub fn probe_resort_planes(
    cx: &Ctx,
    ranks: usize,
    n: usize,
    rounds: usize,
) -> Result<(Cost, u64), String> {
    let (bytes, _, cost) =
        timed_world(cx, "probe:atasp.resort_planes", ranks, Machine::Juqueen, |comm, _| {
            let mut set = aux_planes(n);
            let indices = rotate_indices(comm, n);
            let mut plan = None;
            for _ in 0..rounds {
                atasp::resort_planes(
                    comm,
                    &mut set,
                    &indices,
                    n,
                    &ExchangeMode::Collective,
                    &mut plan,
                );
            }
            (rounds * n * set.element_bytes()) as u64
        })?;
    Ok((cost, bytes.iter().sum()))
}

/// atasp: allocations per warmed `resort_planes` call — one rank, a frozen
/// plan over an all-local permutation, after four warm-up calls.
pub fn probe_resort_steady_allocs(cx: &Ctx, n: usize, calls: u64) -> Result<f64, String> {
    let (allocs, _, _) =
        timed_world(cx, "probe:atasp.steady_allocs", 1, Machine::Juqueen, |comm, _| {
            let mut set = aux_planes(n);
            let indices: Vec<u64> = (0..n).map(|i| encode_index(0, (i * 1031) % n)).collect();
            let mode = ExchangeMode::Neighborhood(Vec::new());
            let mut plan = None;
            for _ in 0..4 {
                atasp::resort_planes(comm, &mut set, &indices, n, &mode, &mut plan);
            }
            let (a0, _) = alloc::counters();
            for _ in 0..calls {
                atasp::resort_planes(comm, &mut set, &indices, n, &mode, &mut plan);
            }
            alloc::counters().0 - a0
        })?;
    Ok(allocs[0] as f64 / calls as f64)
}

/// What one solver world reported, summed over ranks.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverProbe {
    pub cost: Cost,
    /// `0.5 Σ q φ` over all particles.
    pub energy: f64,
    /// FMM `p2p_pairs` / P2NFFT `near_pairs`.
    pub near_pairs: u64,
    /// FMM `m2l_count`.
    pub m2l_count: u64,
    /// P2NFFT `ghosts_received`.
    pub ghosts_received: u64,
    /// P2NFFT runs that re-executed the cached ghost plan, and runs in all.
    pub ghost_plan_reused: u64,
    pub runs: u64,
}

fn potential_energy(out: &particles::SolverOutput) -> f64 {
    0.5 * out.potential.iter().zip(&out.charge).map(|(phi, q)| phi * q).sum::<f64>()
}

/// fmm: a world whose ranks only construct the tuned solver and run it once
/// (Method A), with no soft core so the energy compares with Ewald's.
pub fn probe_fmm_run(cx: &Ctx, inputs: &MdInputs) -> Result<SolverProbe, String> {
    let n = inputs.particles() as u64;
    let (ranks, _, cost) =
        timed_world(cx, "probe:fmm.run", inputs.ranks(), Machine::Juropa, |comm, world| {
            let set = &inputs.sets[comm.rank()];
            let mut solver = FmmSolver::new(inputs.bbox, FmmConfig::tuned(n, TOLERANCE));
            let out = cx.spans.scope("FmmSolver::run", world, track(comm), |_| {
                solver.run(
                    comm,
                    set.pos(),
                    set.charge(),
                    set.id(),
                    RedistMethod::RestoreOriginal,
                    None,
                    usize::MAX,
                )
            });
            (potential_energy(&out), solver.last_report.p2p_pairs, solver.last_report.m2l_count)
        })?;
    Ok(SolverProbe {
        cost,
        energy: ranks.iter().map(|r| r.0).sum(),
        near_pairs: ranks.iter().map(|r| r.1).sum(),
        m2l_count: ranks.iter().map(|r| r.2).sum(),
        runs: 1,
        ..SolverProbe::default()
    })
}

/// fmm: one rank, octree level 1 (eight leaves, all mutual neighbours, empty
/// interaction lists): the near-field pair loop and nothing else of weight.
pub fn probe_fmm_p2p(cx: &Ctx, inputs: &MdInputs) -> Result<SolverProbe, String> {
    let all = inputs.gathered();
    let (ranks, _, cost) = timed_world(cx, "probe:fmm.p2p", 1, Machine::Juropa, |comm, _| {
        let cfg = FmmConfig { order: 2, level: 1, soft_core: None };
        let mut solver = FmmSolver::new(inputs.bbox, cfg);
        black_box(solver.run(
            comm,
            all.pos(),
            all.charge(),
            all.id(),
            RedistMethod::RestoreOriginal,
            None,
            usize::MAX,
        ));
        solver.last_report.p2p_pairs
    })?;
    Ok(SolverProbe { cost, near_pairs: ranks[0], runs: 1, ..SolverProbe::default() })
}

/// fmm: `reps` M2L translations at the tuned expansion order.
pub fn probe_m2l(cx: &Ctx, reps: usize) -> Cost {
    let ops = ExpansionOps::new(FmmConfig::tuned(4096, TOLERANCE).order);
    let tensor = ops.derivative_tensor(Vec3::new(2.0, 1.0, -3.0));
    let multipole: Vec<f64> = (0..ops.len()).map(|i| 1.0 / (1 + i) as f64).collect();
    let mut local = vec![0.0; ops.len()];
    cx.spans.scope("ExpansionOps::m2l_with_tensor", SpanId::NONE, MAIN_TRACK, |_| {
        timed(|| {
            for _ in 0..reps {
                ops.m2l_with_tensor(&mut local, black_box(&multipole), black_box(&tensor));
            }
            black_box(&local);
        })
        .1
    })
}

fn pm_config(inputs: &MdInputs) -> PmConfig {
    // The cutoff `fcs_tune` would choose: 2.8 mean spacings, capped by the
    // minimum-image bound and the narrowest subdomain.
    let l = inputs.bbox.lengths;
    let lmin = l.x().min(l.y()).min(l.z());
    let dims = CartGrid::balanced(inputs.ranks()).dims();
    let min_width = (0..3).map(|d| l[d] / dims[d] as f64).fold(f64::INFINITY, f64::min);
    let spacing = (inputs.bbox.volume() / inputs.particles() as f64).cbrt();
    PmConfig::tuned(&inputs.bbox, TOLERANCE, (2.8 * spacing).min(0.49 * lmin).min(min_width))
}

/// pmsolver: a world whose ranks only construct the tuned solver and run it
/// `runs` times: once with no movement hint, then feeding each output back
/// in under Method B with a small hint, which is what lets the ghost plan be
/// reused.
pub fn probe_pm_run(cx: &Ctx, inputs: &MdInputs, runs: u64) -> Result<SolverProbe, String> {
    let cfg = pm_config(inputs);
    let hint = 1e-3 * inputs.crystal.spacing;
    let (ranks, _, cost) =
        timed_world(cx, "probe:pmsolver.run", inputs.ranks(), Machine::Juropa, |comm, world| {
            let set = &inputs.sets[comm.rank()];
            let mut solver = PmSolver::new(inputs.bbox, cfg.clone(), comm.size());
            let method =
                if runs > 1 { RedistMethod::UseChanged } else { RedistMethod::RestoreOriginal };
            let mut out = cx.spans.scope("PmSolver::run", world, track(comm), |_| {
                solver.run(comm, set.pos(), set.charge(), set.id(), method, None, usize::MAX)
            });
            let first = solver.last_report.clone();
            let mut reused = 0u64;
            for _ in 1..runs {
                out = cx.spans.scope("PmSolver::run", world, track(comm), |_| {
                    solver.run(comm, &out.pos, &out.charge, &out.id, method, Some(hint), usize::MAX)
                });
                reused += u64::from(solver.last_report.ghost_plan_reused);
            }
            (potential_energy(&out), first.near_pairs, first.ghosts_received, reused)
        })?;
    Ok(SolverProbe {
        cost,
        energy: ranks.iter().map(|r| r.0).sum(),
        near_pairs: ranks.iter().map(|r| r.1).sum(),
        ghosts_received: ranks.iter().map(|r| r.2).sum(),
        ghost_plan_reused: ranks.iter().map(|r| r.3).sum(),
        runs: runs * inputs.ranks() as u64,
        ..SolverProbe::default()
    })
}

/// pmsolver: one plain `near_field` call over the whole box (no ghosts).
/// Returns the cost and the pairs evaluated.
pub fn probe_near_field(cx: &Ctx, inputs: &MdInputs) -> (Cost, u64) {
    let all = inputs.gathered();
    let cfg = pm_config(inputs);
    let bbox = inputs.bbox;
    let region = (bbox.offset, bbox.offset + bbox.lengths);
    cx.spans.scope("pmsolver::near_field", SpanId::NONE, MAIN_TRACK, |_| {
        let ((_, _, pairs), cost) = timed(|| {
            pmsolver::near_field(
                &bbox,
                cfg.alpha,
                cfg.rcut,
                None,
                region,
                all.pos(),
                all.charge(),
                &[],
                &[],
            )
        });
        (cost, pairs)
    })
}

/// pmsolver: `reps` forward FFTs of `n` points. Returns the cost of all.
pub fn probe_fft(cx: &Ctx, n: usize, reps: usize) -> Cost {
    let mut data: Vec<pmsolver::Complex> =
        (0..n).map(|i| pmsolver::Complex::new((i as f64).sin(), (i as f64).cos())).collect();
    cx.spans.scope("pmsolver::fft_in_place", SpanId::NONE, MAIN_TRACK, |_| {
        timed(|| {
            for _ in 0..reps {
                black_box(pmsolver::fft_in_place(&mut data, pmsolver::Direction::Forward));
            }
            black_box(&data);
        })
        .1
    })
}

/// fcs: a world whose ranks only create a handle and tune it.
pub fn probe_fcs_tune(cx: &Ctx, inputs: &MdInputs, solver: Solver) -> Result<Cost, String> {
    timed_world(cx, "probe:fcs.tune", inputs.ranks(), Machine::Juropa, |comm, world| {
        let set = &inputs.sets[comm.rank()];
        let mut handle = Fcs::init(
            match solver {
                Solver::Fmm => SolverKind::Fmm,
                Solver::P2nfft => SolverKind::P2Nfft,
            },
            comm.size(),
        );
        handle.set_common(inputs.bbox);
        handle.set_tolerance(TOLERANCE);
        cx.spans
            .scope("Fcs::tune", world, track(comm), |_| handle.tune(comm, set.pos(), set.charge()));
        handle.kind()
    })
    .map(|r| r.2)
}

/// particles: the Ewald reference energy of the whole system — the oracle of
/// `fcs.energy_rel_err`.
pub fn reference_energy(cx: &Ctx, inputs: &MdInputs) -> f64 {
    let all = inputs.gathered();
    cx.spans.scope("particles::reference::ewald", SpanId::NONE, MAIN_TRACK, |_| {
        let params = particles::reference::EwaldParams::for_cubic_box(inputs.bbox.lengths.x());
        particles::reference::ewald(all.pos(), all.charge(), &inputs.bbox, params).energy
    })
}
