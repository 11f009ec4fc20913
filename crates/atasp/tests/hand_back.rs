//! The return path both particle solvers share, driven without a solver: a
//! stand-in moves every rank's particles to itself or a ring neighbour and
//! reorders them, and `hand_back` returns them. Method A restores the input
//! bit for bit, exactly as the 80-byte `(Particle, φ, E)` restore it replaced
//! did, and an all-home step restores with no message and no collective.
//! Method B keeps the solver's order, a quiet step costs one collective and
//! no message, one rank without room sends every rank home, and the
//! computation closes on exactly one allreduce before the redistribution
//! starts. The resort plan built from the routes — recorded by the
//! stand-in's redistribution, or rebuilt from where every input went — puts
//! every byte where resort indices put it.

use atasp::{
    alltoall_specific, alltoall_specific_routed, build_resort_indices_with, decode_index,
    encode_index, hand_back, ExchangeMode, ResortPlan, Restore, Route, Routed, Routes, Solved,
};
use particles::systems::splitmix64;
use particles::{Particle, PlaneSet, RedistMethod, SolverOutput, Vec3};
use simcomm::{Comm, MachineModel, Runner, TraceKind};

mod common;
use common::{run, run_at, run_on, thinned};

/// The world sizes every case runs at; every third rank holds no input.
const PS: [usize; 4] = [1, 2, 3, 8];

/// The world sizes of the oracle comparisons.
const WIDE_PS: [usize; 7] = [1, 2, 3, 5, 8, 27, 64];

/// A non-NaN `f64` with a random mantissa, from `id` and a salt.
fn value(id: u64, salt: u64) -> f64 {
    f64::from_bits((splitmix64(id ^ salt << 48) & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000)
}

fn potential_of(id: u64) -> f64 {
    value(id, 5)
}

fn field_of(id: u64) -> Vec3 {
    Vec3::new(value(id, 6), value(id, 7), value(id, 8))
}

/// Rank `me`'s input, in input order.
fn input(me: usize) -> Vec<Particle> {
    let n = if me % 3 == 1 { 0 } else { 3 + 2 * me };
    (0..n)
        .map(|i| {
            let id = (me * 100 + i) as u64;
            let pos = Vec3::new(value(id, 1), value(id, 2), value(id, 3));
            Particle { pos, charge: value(id, 4), id, origin: encode_index(me, i) }
        })
        .collect()
}

/// Where a stand-in solver sends its particles.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Spread {
    /// Every particle stays on its rank.
    Home,
    /// Each goes to its own rank or a ring neighbour.
    Ring,
    /// Each goes to the next rank.
    Away,
}

/// Where a solver sends each input particle.
fn targets(comm: &Comm, input: &[Particle], spread: Spread) -> Vec<usize> {
    let (me, p) = (comm.rank(), comm.size());
    let ring = [me, (me + 1) % p, (me + p - 1) % p];
    let target = |r: &Particle| match spread {
        Spread::Home => me,
        Spread::Ring => ring[(splitmix64(r.id) % 3) as usize],
        Spread::Away => ring[1],
    };
    input.iter().map(target).collect()
}

/// The key a solver orders its particles by.
fn key(r: &Particle) -> u64 {
    splitmix64(r.id ^ 0xabc)
}

/// What a solver that keeps no routes does to the input: every particle to
/// [`targets`], then each rank's records ordered by [`key`].
fn solve(comm: &mut Comm, input: &[Particle], spread: Spread) -> Vec<Particle> {
    let targets = targets(comm, input, spread);
    let mut recs = alltoall_specific(comm, input, &targets, &ExchangeMode::Collective);
    recs.sort_by_key(key);
    recs
}

/// [`solve`] over `mode` by a solver that keeps its routes and its order —
/// or, unless it `moves`, one whose every particle stays where it is.
fn solve_routed(
    comm: &mut Comm,
    input: &[Particle],
    (mode, moves): (&ExchangeMode, bool),
    kept: &mut Kept,
) -> Vec<Particle> {
    let spread = if moves { Spread::Ring } else { Spread::Home };
    let targets = targets(comm, input, spread);
    let arrived = alltoall_specific_routed(comm, input, &targets, mode, &mut kept.routes);
    kept.order.clear();
    kept.order.extend(0..arrived.len() as u32);
    if moves {
        kept.order.sort_by_key(|&j| key(&arrived[j as usize]));
    }
    kept.order.iter().map(|&j| arrived[j as usize]).collect()
}

/// The ranks a record can have come from under `solve`, the local one aside.
fn ring(comm: &Comm) -> ExchangeMode {
    let (me, p) = (comm.rank(), comm.size());
    let mut partners = vec![(me + p - 1) % p, (me + 1) % p];
    partners.retain(|&q| q != me);
    partners.sort_unstable();
    partners.dedup();
    ExchangeMode::Neighborhood(partners)
}

/// What a solver keeps for its hand-back from run to run.
#[derive(Default)]
struct Kept {
    routes: Routes,
    order: Vec<u32>,
    plan: Option<ResortPlan>,
    restore: Restore,
}

/// How the hand-back learns the routes: recorded by the solver, over an
/// all-to-all-v or not — or rebuilt from where every input went.
enum Via<'a> {
    Recorded { collective: bool },
    Owners(&'a dyn Fn(usize) -> usize),
}

/// What `hand_back` returned, and what it left of the buffers it was given.
struct Handed {
    out: SolverOutput,
    skipped: bool,
    potential_left: usize,
    columns_left: usize,
}

/// Hand `recs` back with potentials and fields derived from their ids; even
/// ranks pass their positions and charges as columns, odd ranks do not. The
/// output's timings are checked against the stamps: the computation runs
/// from the second to the end of the closing collective, which is at or
/// after the call.
fn hand(
    comm: &mut Comm,
    input: &[Particle],
    recs: &[Particle],
    (method, max_local): (RedistMethod, usize),
    kept: &mut Kept,
    via: Via<'_>,
) -> Handed {
    let mut potential: Vec<f64> = recs.iter().map(|r| potential_of(r.id)).collect();
    let mut field: Vec<Vec3> = recs.iter().map(|r| field_of(r.id)).collect();
    let mut pos: Vec<Vec3> = recs.iter().map(|r| r.pos).collect();
    let mut charge: Vec<f64> = recs.iter().map(|r| r.charge).collect();
    let columns = comm.rank().is_multiple_of(2).then_some((&mut pos, &mut charge));
    let in_pos: Vec<Vec3> = input.iter().map(|r| r.pos).collect();
    let in_charge: Vec<f64> = input.iter().map(|r| r.charge).collect();
    let in_id: Vec<u64> = input.iter().map(|r| r.id).collect();
    let (route, collective) = match via {
        Via::Recorded { collective } => (Route::Recorded(&kept.routes, &kept.order), collective),
        Via::Owners(owner) => (Route::Owners(input.len(), owner), true),
    };
    let routed = Routed { route, collective, plan: &mut kept.plan };
    let solved = Solved {
        records: recs,
        potential: &mut potential,
        field: &mut field,
        columns,
        input: (&in_pos, &in_charge, &in_id),
        routed,
        restore: &mut kept.restore,
    };
    let t = comm.clock();
    let stamps @ [t_start, t_sorted] = [t - 3.0, t - 1.0];
    let (out, skipped) = hand_back(comm, method, max_local, solved, stamps);
    let timings = out.timings;
    assert_eq!(timings.sort, t_sorted - t_start);
    assert!(timings.compute >= t - t_sorted);
    assert_eq!(timings.total, comm.clock() - t_start);
    let (redist, idle) = if out.resorted {
        (timings.resort_create, timings.restore)
    } else {
        (timings.restore, timings.resort_create)
    };
    assert!(redist <= comm.clock() - t && idle == 0.0);
    assert_eq!(potential.len(), field.len());
    Handed { out, skipped, potential_left: potential.len(), columns_left: pos.len() }
}

/// Every bit of the output's particles and results, in output order.
fn bits(o: &SolverOutput) -> Vec<u64> {
    let vecs = o.pos.iter().chain(&o.field).flat_map(|v| [0, 1, 2].map(|d| v[d].to_bits()));
    let scalars = o.charge.iter().chain(&o.potential).map(|x| x.to_bits());
    vecs.chain(scalars).chain(o.id.iter().copied()).collect()
}

/// The output `recs` in this order would have, with their derived results.
fn expected(recs: &[Particle]) -> SolverOutput {
    SolverOutput {
        pos: recs.iter().map(|r| r.pos).collect(),
        charge: recs.iter().map(|r| r.charge).collect(),
        id: recs.iter().map(|r| r.id).collect(),
        potential: recs.iter().map(|r| potential_of(r.id)).collect(),
        field: recs.iter().map(|r| field_of(r.id)).collect(),
        ..SolverOutput::default()
    }
}

/// The restore `hand_back` made before it carried potentials and fields
/// alone: every record travels home whole, as an 80-byte `(Particle, φ, E)`
/// tuple, and lands at its origin position.
fn restore_80(comm: &mut Comm, recs: &[Particle], n_in: usize) -> SolverOutput {
    let results: Vec<(Particle, f64, Vec3)> =
        recs.iter().map(|&r| (r, potential_of(r.id), field_of(r.id))).collect();
    let targets: Vec<usize> = recs.iter().map(|r| decode_index(r.origin).0).collect();
    let received = alltoall_specific(comm, &results, &targets, &ExchangeMode::Collective);
    assert_eq!(received.len(), n_in);
    let mut out = SolverOutput {
        pos: vec![Vec3::ZERO; n_in],
        charge: vec![0.0; n_in],
        id: vec![0; n_in],
        potential: vec![0.0; n_in],
        field: vec![Vec3::ZERO; n_in],
        ..SolverOutput::default()
    };
    for (r, phi, e) in received {
        let i = decode_index(r.origin).1;
        (out.pos[i], out.charge[i], out.id[i]) = (r.pos, r.charge, r.id);
        (out.potential[i], out.field[i]) = (phi, e);
    }
    out
}

/// Collectives and messages sent so far inside phases named `name`.
fn traffic(comm: &Comm, name: &str) -> (u64, u64) {
    let phases = comm.phase_profile().phases.iter().filter(|s| s.name == name);
    phases.fold((0, 0), |(c, m), s| (c + s.coll_ops, m + s.p2p_sent_msgs))
}

#[test]
fn method_a_returns_the_input_order_bit_for_bit() {
    for p in PS {
        run(p, MachineModel::juropa_like(), |comm| {
            let input = input(comm.rank());
            let recs = solve(comm, &input, Spread::Ring);
            let method = RedistMethod::RestoreOriginal;
            let mut kept = Kept::default();
            let via = Via::Recorded { collective: true };
            let h = hand(comm, &input, &recs, (method, usize::MAX), &mut kept, via);
            assert!(!h.out.resorted && !h.skipped && h.out.resort_indices.is_empty());
            assert_eq!(bits(&h.out), bits(&expected(&input)), "p={p} rank {}", comm.rank());
            // Method A reuses the solver's result buffers for its output, as
            // Method B does, and leaves its columns in place.
            assert_eq!(h.potential_left, 0);
            assert_eq!(h.columns_left, recs.len());
        });
    }
}

#[test]
fn the_36_byte_restore_returns_what_the_80_byte_restore_returned() {
    for p in WIDE_PS {
        run_at(thinned(p), &Runner::default(), p, MachineModel::juqueen_like(), |comm| {
            let me = comm.rank();
            let input = input(me);
            // One kept workspace for every world below: refilled in place.
            let mut kept = Kept::default();
            for spread in [Spread::Home, Spread::Ring, Spread::Away, Spread::Ring] {
                let recs = solve(comm, &input, spread);
                // Method A, and Method B's capacity fallback: the rank holding
                // the most has room for one record less.
                let held = comm.allgather(recs.len());
                let most = *held.iter().max().expect("a world has ranks");
                let full = held.iter().position(|&n| n == most).expect("the largest is held");
                let fallback = if me == full { most.saturating_sub(1) } else { usize::MAX };
                for how in [
                    (RedistMethod::RestoreOriginal, usize::MAX),
                    (RedistMethod::UseChanged, fallback),
                ] {
                    let what = format!("p={p} rank {me} {spread:?} {how:?}");
                    let before = traffic(comm, "restore");
                    let via = Via::Recorded { collective: true };
                    let h = hand(comm, &input, &recs, how, &mut kept, via);
                    let after = traffic(comm, "restore");
                    assert!(!h.out.resorted && !h.skipped, "{what}");
                    let oracle = restore_80(comm, &recs, input.len());
                    assert_eq!(h.out.pos, oracle.pos, "{what}: positions");
                    assert_eq!(bits(&h.out), bits(&oracle), "{what}");
                    assert_eq!(bits(&h.out), bits(&expected(&input)), "{what}");
                    // Under Method A an all-home world restores locally; the
                    // fallback's allreduce cannot tell, and exchanges.
                    let home = how.0 == RedistMethod::RestoreOriginal
                        && (spread == Spread::Home || p == 1);
                    let restore = (after.0 - before.0, after.1 - before.1);
                    if home {
                        assert_eq!(restore, (0, 0), "{what}: an all-home restore communicates");
                    } else {
                        assert_eq!(restore.0, 1, "{what}: one all-to-all-v");
                    }
                }
            }
        });
    }
}

#[test]
fn method_b_keeps_the_solver_order_under_both_exchanges() {
    for p in PS {
        run(p, MachineModel::juqueen_like(), |comm| {
            let input = input(comm.rank());
            for mode in [ExchangeMode::Collective, ring(comm)] {
                let mut kept = Kept::default();
                let recs = solve_routed(comm, &input, (&mode, true), &mut kept);
                let method = RedistMethod::UseChanged;
                let via = Via::Recorded { collective: mode == ExchangeMode::Collective };
                let h = hand(comm, &input, &recs, (method, usize::MAX), &mut kept, via);
                assert!(h.out.resorted, "p={p}");
                // Some particle changed rank or place on some rank, and the
                // plan replaces the indices.
                assert!(!h.skipped && h.out.resort_indices.is_empty(), "p={p}");
                assert!(kept.plan.is_some(), "p={p}");
                assert_eq!(bits(&h.out), bits(&expected(&recs)));
                // Method B moves the solver's buffers into the output.
                assert_eq!(h.potential_left, 0);
                let staged = comm.rank().is_multiple_of(2);
                assert_eq!(h.columns_left, if staged { 0 } else { recs.len() });
            }
        });
    }
}

#[test]
fn a_quiet_step_returns_identity_indices_with_one_collective_and_no_message() {
    for p in PS {
        run(p, MachineModel::juropa_like(), |comm| {
            let me = comm.rank();
            let input = input(me);
            let identity: Vec<u64> = (0..input.len()).map(|i| encode_index(me, i)).collect();
            let collective = ExchangeMode::Collective;
            let mut kept = Kept::default();
            let recs = solve_routed(comm, &input, (&collective, false), &mut kept);
            let before = comm.stats().clone();
            let method = RedistMethod::UseChanged;
            let via = Via::Recorded { collective: true };
            let h = hand(comm, &input, &recs, (method, usize::MAX), &mut kept, via);
            let after = comm.stats();
            assert!(h.skipped && h.out.resorted, "p={p} rank {me}");
            assert_eq!(h.out.resort_indices, identity);
            assert!(kept.plan.is_none(), "p={p} rank {me}: no plan on a quiet step");
            assert_eq!(after.p2p_sent_msgs, before.p2p_sent_msgs, "p={p} rank {me}");
            assert_eq!(after.coll_ops - before.coll_ops, 1, "p={p} rank {me}");
            assert_eq!(bits(&h.out), bits(&expected(&input)));
            // The exchange the quiet step skips would build the same indices.
            let origins: Vec<u64> = input.iter().map(|r| r.origin).collect();
            let built = build_resort_indices_with(comm, &origins, input.len(), &collective);
            assert_eq!(built, identity, "p={p} rank {me}");
        });
    }
}

#[test]
fn one_rank_over_max_local_makes_every_rank_restore() {
    for p in PS {
        run(p, MachineModel::juqueen_like(), |comm| {
            let me = comm.rank();
            let input = input(me);
            let mode = ring(comm);
            let collective = matches!(mode, ExchangeMode::Collective);
            // A moved step, and a quiet one: the input handed back as it is.
            for moves in [true, false] {
                let mut kept = Kept::default();
                let recs = solve_routed(comm, &input, (&mode, moves), &mut kept);
                // The last rank holding anything has room for one record less.
                let held = comm.allgather(recs.len());
                let full = held.iter().rposition(|&n| n > 0).expect("some rank holds particles");
                let max_local = if me == full { held[full] - 1 } else { usize::MAX };
                let method = RedistMethod::UseChanged;
                let via = Via::Recorded { collective };
                let h = hand(comm, &input, &recs, (method, max_local), &mut kept, via);
                assert!(!h.out.resorted && !h.skipped, "p={p} rank {me} moves={moves}");
                assert!(h.out.resort_indices.is_empty());
                assert!(kept.plan.is_none(), "p={p} rank {me}: no plan for a restored order");
                assert_eq!(bits(&h.out), bits(&expected(&input)), "p={p} rank {me}");
            }
        });
    }
}

#[test]
fn the_computation_closes_on_one_collective_under_both_methods() {
    for p in PS {
        for method in [RedistMethod::RestoreOriginal, RedistMethod::UseChanged] {
            for spread in [Spread::Ring, Spread::Home] {
                // The hand-back runs in an envelope phase of its own, as under
                // `fcs`: what it does outside `restore` and `resort` shows
                // there.
                let runner = Runner::default().traced(true);
                let out = run_on(&runner, p, MachineModel::juropa_like(), |comm| {
                    let input = input(comm.rank());
                    let mut kept = Kept::default();
                    let targets = targets(comm, &input, spread);
                    let mode = ExchangeMode::Collective;
                    let arrived =
                        alltoall_specific_routed(comm, &input, &targets, &mode, &mut kept.routes);
                    // Reversed: never quiet where anything is held.
                    kept.order.clear();
                    kept.order.extend((0..arrived.len() as u32).rev());
                    let recs: Vec<Particle> =
                        kept.order.iter().map(|&j| arrived[j as usize]).collect();
                    let t_sorted = comm.clock() - 1.0;
                    let h = comm.with_phase("solver", |comm| {
                        let via = Via::Recorded { collective: true };
                        hand(comm, &input, &recs, (method, usize::MAX), &mut kept, via)
                    });
                    (t_sorted, h.out.timings)
                });
                for (me, ((t_sorted, timings), trace)) in
                    out.results.iter().zip(&out.traces).enumerate()
                {
                    let what = format!("p={p} rank {me} {method:?} {spread:?}");
                    let closing: Vec<_> =
                        trace.events.iter().filter(|e| e.phase == "solver").collect();
                    assert_eq!(closing.len(), 1, "{what}: {closing:?}");
                    assert_eq!(closing[0].kind, TraceKind::Reduce, "{what}");
                    // The computation ends where the closing collective does.
                    assert_eq!(timings.compute, closing[0].t_end - t_sorted, "{what}");
                    let mut restore = trace.events.iter().filter(|e| e.phase == "restore");
                    if method == RedistMethod::RestoreOriginal && spread == Spread::Home {
                        // Every record is home: the restore places locally,
                        // with no message and no collective.
                        assert!(restore.next().is_none(), "{what}: the all-home restore traced");
                    }
                }
            }
        }
    }
}

/// Additional data of the input: a `u64` tag (the particle's id) alone, or
/// beside planes of three other strides, every byte a function of the id.
fn additional(input: &[Particle], several: bool) -> PlaneSet {
    let mut set = PlaneSet::new();
    let tag = set.register::<u64>("tag");
    let planes = several.then(|| {
        (set.register::<f32>("f32"), set.register::<Vec3>("vec3"), set.register::<i32>("i32"))
    });
    set.resize(input.len());
    for (i, r) in input.iter().enumerate() {
        set.plane_mut::<u64>(tag)[i] = r.id;
        if let Some((a, v, n)) = planes {
            set.plane_mut::<f32>(a)[i] = value(r.id, 9) as f32;
            set.plane_mut::<Vec3>(v)[i] = field_of(r.id);
            set.plane_mut::<i32>(n)[i] = splitmix64(r.id ^ 10) as i32;
        }
    }
    set
}

/// Every byte of every plane of `set`, plane after plane.
fn plane_bytes(set: &PlaneSet) -> Vec<Vec<u8>> {
    set.ids().map(|id| set.bytes(id).to_vec()).collect()
}

/// Messages sent and received, and collectives, from `t` to `s`.
fn traffic_between(s: &simcomm::RankStats, t: &simcomm::RankStats) -> (u64, u64, u64) {
    (s.p2p_sent_msgs - t.p2p_sent_msgs, s.p2p_recv_msgs - t.p2p_recv_msgs, s.coll_ops - t.coll_ops)
}

/// Execute `plan` and the index plan `oracle` on the same additional data of
/// `input`, with one plane and with several: every byte lands alike, and
/// every tag with its particle in `recs`. Returns the traffic of each of
/// `plan`'s two executions.
fn assert_places_like(
    comm: &mut Comm,
    (plan, oracle): (&ResortPlan, &ResortPlan),
    input: &[Particle],
    recs: &[Particle],
    what: &str,
) -> Vec<(u64, u64, u64)> {
    let mut traffic = Vec::new();
    for several in [false, true] {
        let mut by_plan = additional(input, several);
        let mut by_indices = by_plan.clone();
        let before = comm.stats().clone();
        plan.execute_planes(comm, &mut by_plan);
        traffic.push(traffic_between(comm.stats(), &before));
        oracle.execute_planes(comm, &mut by_indices);
        let what = format!("{what} several={several}");
        assert_eq!(plane_bytes(&by_plan), plane_bytes(&by_indices), "{what}");
        let tags = by_plan.plane::<u64>(by_plan.id_at(0));
        assert!(tags.iter().eq(recs.iter().map(|r| &r.id)), "{what}");
    }
    traffic
}

#[test]
fn a_plan_from_routes_puts_every_byte_where_the_indices_put_it() {
    for p in WIDE_PS {
        run_at(thinned(p), &Runner::default(), p, MachineModel::juqueen_like(), |comm| {
            let me = comm.rank();
            let input = input(me);
            let b = (RedistMethod::UseChanged, usize::MAX);
            for mode in [ExchangeMode::Collective, ring(comm)] {
                // A step that moves particles, and a quiet one.
                for moves in [true, false] {
                    let what = format!("p={p} rank {me} {mode:?} moves={moves}");
                    let mut kept = Kept::default();
                    let sorted = comm.stats().clone();
                    let recs = solve_routed(comm, &input, (&mode, moves), &mut kept);
                    let sort = comm.stats().clone();
                    let via = Via::Recorded { collective: mode == ExchangeMode::Collective };
                    let h = hand(comm, &input, &recs, b, &mut kept, via);
                    assert!(h.out.resorted && h.skipped != moves, "{what}");
                    assert_eq!(bits(&h.out), bits(&expected(&recs)), "{what}");
                    let origins: Vec<u64> = recs.iter().map(|r| r.origin).collect();
                    let indices = build_resort_indices_with(comm, &origins, input.len(), &mode);
                    let oracle = ResortPlan::build(comm, &indices, recs.len(), &mode);
                    let plan = if moves {
                        assert!(h.out.resort_indices.is_empty(), "{what}: no index");
                        kept.plan.expect("a step that moves builds its plan from the routes")
                    } else {
                        // A quiet step keeps the identity indices, and `fcs`
                        // resorts along them without communicating.
                        assert!(kept.plan.is_none(), "{what}: no plan on a quiet step");
                        assert_eq!(h.out.resort_indices, indices, "{what}");
                        let quiet = ExchangeMode::Neighborhood(Vec::new());
                        ResortPlan::build(comm, &h.out.resort_indices, recs.len(), &quiet)
                    };
                    let traffic = assert_places_like(comm, (&plan, &oracle), &input, &recs, &what);
                    if moves && mode != ExchangeMode::Collective {
                        // Along the sort's own routes: a message to each rank
                        // the sort sent to and from each it heard from, and no
                        // collective.
                        let (sent, recv, _) = traffic_between(&sort, &sorted);
                        for got in traffic {
                            assert_eq!(got, (sent, recv, 0), "{what}");
                        }
                    }
                }
            }
        });
    }
}

#[test]
fn a_plan_from_owners_puts_every_byte_where_the_indices_put_it() {
    for p in WIDE_PS {
        run_at(thinned(p), &Runner::default(), p, MachineModel::juqueen_like(), |comm| {
            let me = comm.rank();
            let input = input(me);
            let b = (RedistMethod::UseChanged, usize::MAX);
            // One kept workspace for every step: routes, order and plan are
            // refilled in place.
            let mut kept = Kept::default();
            for spread in [Spread::Ring, Spread::Away, Spread::Home, Spread::Ring] {
                let what = format!("p={p} rank {me} {spread:?}");
                // A redistribution that keeps no routes; the origin knows
                // where each input went all the same.
                let targets = targets(comm, &input, spread);
                let recs = solve(comm, &input, spread);
                let owner = |i: usize| targets[i];
                let h = hand(comm, &input, &recs, b, &mut kept, Via::Owners(&owner));
                assert!(h.out.resorted, "{what}");
                assert_eq!(bits(&h.out), bits(&expected(&recs)), "{what}");
                let quiet = recs.iter().enumerate().all(|(i, r)| r.origin == encode_index(me, i));
                if comm.allreduce(quiet, |a, b| a && b) {
                    assert!(h.skipped, "{what}");
                    continue;
                }
                assert!(!h.skipped && h.out.resort_indices.is_empty(), "{what}");
                let origins: Vec<u64> = recs.iter().map(|r| r.origin).collect();
                let collective = ExchangeMode::Collective;
                let indices = build_resort_indices_with(comm, &origins, input.len(), &collective);
                let oracle = ResortPlan::build(comm, &indices, recs.len(), &collective);
                let plan = kept.plan.as_ref().expect("a step that moves builds its plan");
                assert_places_like(comm, (plan, &oracle), &input, &recs, &what);
            }
        });
    }
}
