//! The return path both particle solvers share, driven without a solver: a
//! stand-in moves every rank's particles to itself or a ring neighbour and
//! reorders them, and `hand_back` returns them. Method A restores the input
//! bit for bit, Method B's indices are `build_resort_indices_with`'s under
//! either exchange mode, a quiet step costs one collective and no message,
//! one rank without room sends every rank home, and the computation closes
//! on exactly one collective before the redistribution starts. A stand-in
//! that keeps its routes gets a resort plan instead of indices, and that
//! plan puts every byte where the indices put it.

use atasp::{
    alltoall_specific, alltoall_specific_routed, build_resort_indices_with, encode_index,
    hand_back, ExchangeMode, ResortPlan, Routed, Routes, Solved,
};
use particles::systems::splitmix64;
use particles::{Particle, PlaneSet, RedistMethod, SolverOutput, Vec3};
use simcomm::{Comm, MachineModel, Runner, TraceKind};

mod common;
use common::{run, run_at, run_on, thinned};

/// The world sizes every case runs at; every third rank holds no input.
const PS: [usize; 4] = [1, 2, 3, 8];

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

/// Where a solver sends each input particle: to its own rank or a ring
/// neighbour.
fn targets(comm: &Comm, input: &[Particle]) -> Vec<usize> {
    let (me, p) = (comm.rank(), comm.size());
    let ring = [me, (me + 1) % p, (me + p - 1) % p];
    input.iter().map(|r| ring[(splitmix64(r.id) % 3) as usize]).collect()
}

/// The key a solver orders its particles by.
fn key(r: &Particle) -> u64 {
    splitmix64(r.id ^ 0xabc)
}

/// What a solver does to the input: every particle to [`targets`], then
/// each rank's records ordered by [`key`].
fn solve(comm: &mut Comm, input: &[Particle]) -> Vec<Particle> {
    let targets = targets(comm, input);
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
    routes: &mut Routes,
    order: &mut Vec<u32>,
) -> Vec<Particle> {
    let targets = if moves { targets(comm, input) } else { vec![comm.rank(); input.len()] };
    let arrived = alltoall_specific_routed(comm, input, &targets, mode, routes);
    order.clear();
    order.extend(0..arrived.len() as u32);
    if moves {
        order.sort_by_key(|&j| key(&arrived[j as usize]));
    }
    order.iter().map(|&j| arrived[j as usize]).collect()
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
    n_in: usize,
    recs: &[Particle],
    (method, max_local): (RedistMethod, usize),
    mode: &ExchangeMode,
    routed: Option<Routed<'_>>,
) -> Handed {
    let mut potential: Vec<f64> = recs.iter().map(|r| potential_of(r.id)).collect();
    let mut field: Vec<Vec3> = recs.iter().map(|r| field_of(r.id)).collect();
    let mut pos: Vec<Vec3> = recs.iter().map(|r| r.pos).collect();
    let mut charge: Vec<f64> = recs.iter().map(|r| r.charge).collect();
    let columns = comm.rank().is_multiple_of(2).then_some((&mut pos, &mut charge));
    let solved =
        Solved { records: recs, potential: &mut potential, field: &mut field, columns, routed };
    let t = comm.clock();
    let stamps @ [t_start, t_sorted] = [t - 3.0, t - 1.0];
    let (out, skipped) = hand_back(comm, method, max_local, n_in, mode, solved, stamps);
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

#[test]
fn method_a_returns_the_input_order_bit_for_bit() {
    for p in PS {
        run(p, MachineModel::juropa_like(), |comm| {
            let input = input(comm.rank());
            let recs = solve(comm, &input);
            let method = RedistMethod::RestoreOriginal;
            let h = hand(comm, input.len(), &recs, (method, usize::MAX), &ring(comm), None);
            assert!(!h.out.resorted && !h.skipped && h.out.resort_indices.is_empty());
            assert_eq!(bits(&h.out), bits(&expected(&input)), "p={p} rank {}", comm.rank());
            // Method A reads the solver's buffers and leaves them in place.
            assert_eq!(h.potential_left, recs.len());
            assert_eq!(h.columns_left, recs.len());
        });
    }
}

#[test]
fn method_b_indices_are_build_resort_indices_under_both_modes() {
    for p in PS {
        run(p, MachineModel::juqueen_like(), |comm| {
            let input = input(comm.rank());
            let recs = solve(comm, &input);
            let origins: Vec<u64> = recs.iter().map(|r| r.origin).collect();
            for mode in [ExchangeMode::Collective, ring(comm)] {
                let method = RedistMethod::UseChanged;
                let h = hand(comm, input.len(), &recs, (method, usize::MAX), &mode, None);
                let want = build_resort_indices_with(comm, &origins, input.len(), &mode);
                assert!(h.out.resorted, "p={p}");
                assert_eq!(h.out.resort_indices, want, "p={p} rank {}", comm.rank());
                // Some particle changed rank or place on some rank.
                assert!(!h.skipped);
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
            let before = comm.stats().clone();
            let method = RedistMethod::UseChanged;
            let h = hand(comm, input.len(), &input, (method, usize::MAX), &collective, None);
            let after = comm.stats();
            assert!(h.skipped && h.out.resorted, "p={p} rank {me}");
            assert_eq!(h.out.resort_indices, identity);
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
            let moved = solve(comm, &input);
            // A moved step, and a quiet one: the input handed back as it is.
            for (recs, quiet) in [(&moved, false), (&input, true)] {
                // The last rank holding anything has room for one record less.
                let held = comm.allgather(recs.len());
                let full = held.iter().rposition(|&n| n > 0).expect("some rank holds particles");
                let max_local = if me == full { held[full] - 1 } else { usize::MAX };
                let method = RedistMethod::UseChanged;
                let h = hand(comm, input.len(), recs, (method, max_local), &ring(comm), None);
                assert!(!h.out.resorted && !h.skipped, "p={p} rank {me} quiet={quiet}");
                assert!(h.out.resort_indices.is_empty());
                assert_eq!(bits(&h.out), bits(&expected(&input)), "p={p} rank {me}");
            }
        });
    }
}

#[test]
fn the_computation_closes_on_one_collective_under_both_methods() {
    for p in PS {
        for method in [RedistMethod::RestoreOriginal, RedistMethod::UseChanged] {
            // The hand-back runs in an envelope phase of its own, as under
            // `fcs`: what it does outside `restore` and `resort` shows there.
            let runner = Runner::default().traced(true);
            let out = run_on(&runner, p, MachineModel::juropa_like(), |comm| {
                let input = input(comm.rank());
                let recs = solve(comm, &input);
                let t_sorted = comm.clock() - 1.0;
                let h = comm.with_phase("solver", |comm| {
                    hand(comm, input.len(), &recs, (method, usize::MAX), &ring(comm), None)
                });
                (t_sorted, h.out.timings)
            });
            let want = match method {
                RedistMethod::UseChanged => TraceKind::Reduce,
                RedistMethod::RestoreOriginal => TraceKind::Barrier,
            };
            for (me, ((t_sorted, timings), trace)) in
                out.results.iter().zip(&out.traces).enumerate()
            {
                let closing: Vec<_> = trace.events.iter().filter(|e| e.phase == "solver").collect();
                assert_eq!(closing.len(), 1, "p={p} rank {me} {method:?}: {closing:?}");
                assert_eq!(closing[0].kind, want, "p={p} rank {me} {method:?}");
                // The computation ends where the closing collective does.
                assert_eq!(timings.compute, closing[0].t_end - t_sorted, "p={p} rank {me}");
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

#[test]
fn a_plan_from_routes_puts_every_byte_where_the_indices_put_it() {
    for p in [1, 2, 3, 5, 8, 27, 64] {
        run_at(thinned(p), &Runner::default(), p, MachineModel::juqueen_like(), |comm| {
            let me = comm.rank();
            let input = input(me);
            let b = (RedistMethod::UseChanged, usize::MAX);
            for mode in [ExchangeMode::Collective, ring(comm)] {
                // A step that moves particles, and a quiet one.
                for moves in [true, false] {
                    let what = format!("p={p} rank {me} {mode:?} moves={moves}");
                    let (mut routes, mut order, mut plan) = (Routes::default(), Vec::new(), None);
                    let sorted = comm.stats().clone();
                    let recs = solve_routed(comm, &input, (&mode, moves), &mut routes, &mut order);
                    let sort = comm.stats().clone();
                    let routed = Routed { routes: &routes, order: &order, plan: &mut plan };
                    let h = hand(comm, input.len(), &recs, b, &mode, Some(routed));
                    assert!(h.out.resorted && h.skipped != moves, "{what}");
                    assert_eq!(bits(&h.out), bits(&expected(&recs)), "{what}");
                    let origins: Vec<u64> = recs.iter().map(|r| r.origin).collect();
                    let indices = build_resort_indices_with(comm, &origins, input.len(), &mode);
                    let oracle = ResortPlan::build(comm, &indices, recs.len(), &mode);
                    let plan = if moves {
                        assert!(h.out.resort_indices.is_empty(), "{what}: no index");
                        plan.expect("a step that moves builds its plan from the routes")
                    } else {
                        // A quiet step keeps the identity indices, and `fcs`
                        // resorts along them without communicating.
                        assert!(plan.is_none(), "{what}: no plan on a quiet step");
                        assert_eq!(h.out.resort_indices, indices, "{what}");
                        let quiet = ExchangeMode::Neighborhood(Vec::new());
                        ResortPlan::build(comm, &h.out.resort_indices, recs.len(), &quiet)
                    };
                    for several in [false, true] {
                        let mut by_plan = additional(&input, several);
                        let mut by_indices = by_plan.clone();
                        let before = comm.stats().clone();
                        plan.execute_planes(comm, &mut by_plan);
                        let after = comm.stats().clone();
                        oracle.execute_planes(comm, &mut by_indices);
                        let what = format!("{what} several={several}");
                        assert_eq!(plane_bytes(&by_plan), plane_bytes(&by_indices), "{what}");
                        let tags = by_plan.plane::<u64>(by_plan.id_at(0));
                        assert!(tags.iter().eq(recs.iter().map(|r| &r.id)), "{what}");
                        if moves && mode != ExchangeMode::Collective {
                            // Along the sort's own routes: a message to each
                            // rank the sort sent to and from each it heard
                            // from, and no collective.
                            let msgs = |s: &simcomm::RankStats, t: &simcomm::RankStats| {
                                (
                                    s.p2p_sent_msgs - t.p2p_sent_msgs,
                                    s.p2p_recv_msgs - t.p2p_recv_msgs,
                                )
                            };
                            assert_eq!(msgs(&after, &before), msgs(&sort, &sorted), "{what}");
                            assert_eq!(after.coll_ops, before.coll_ops, "{what}: no barrier");
                        }
                    }
                }
            }
            // One rank without room sends every particle home: no plan.
            let (mut routes, mut order, mut plan) = (Routes::default(), Vec::new(), None);
            let mode = ring(comm);
            let recs = solve_routed(comm, &input, (&mode, true), &mut routes, &mut order);
            let held = comm.allgather(recs.len());
            let full = held.iter().rposition(|&n| n > 0).expect("some rank holds particles");
            let max_local = if me == full { held[full] - 1 } else { usize::MAX };
            let routed = Routed { routes: &routes, order: &order, plan: &mut plan };
            let method = RedistMethod::UseChanged;
            let h = hand(comm, input.len(), &recs, (method, max_local), &mode, Some(routed));
            assert!(!h.out.resorted && h.out.resort_indices.is_empty(), "p={p} rank {me}");
            assert!(plan.is_none(), "p={p} rank {me}: no plan for a restored order");
            assert_eq!(bits(&h.out), bits(&expected(&input)), "p={p} rank {me}");
        });
    }
}
