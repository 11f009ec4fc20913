//! Every resort executes the plan the solver kept, and that plan puts every
//! byte where the paper's resort indices say. A handle of each solver is
//! driven through every kind of step — one that moves under the collective
//! redistribution, one that moves under the movement hint, a quiet one with
//! and without the hint, one whose hint lies so that the movement-bound guard falls back, and one that
//! a rank without room sends home — at world sizes from 1 to 64 with ranks
//! that hold nothing. After each step that resorted, an `(id, vel, tag)`
//! plane set goes through [`Fcs::resort_planes`], and every element must
//! land where [`Fcs::resort_indices`] sends it, which in turn must be where
//! the run put the element's particle. A quiet step and every Ewald step
//! resort with no message and no collective, in the solver's `resort`
//! phase and in the resort call alike.

use fcs::{Fcs, SolverKind};
use particles::systems::splitmix64;
use particles::{IonicCrystal, PlaneSet, Vec3};
use simcomm::{Comm, FaultPlan, MachineModel, Runner, TraceKind};

/// The world sizes every solver runs at.
const PS: [usize; 7] = [1, 2, 3, 5, 8, 27, 64];

/// The kinds of step, in the order a world runs them.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    /// The input as the application holds it; no movement hint.
    Collective,
    /// Every particle drifts a little, and the hint says by how much.
    Hinted,
    /// The previous output again, with or without a hint: nothing leaves
    /// any rank.
    Quiet { hinted: bool },
    /// Every particle moves by half the box, and the hint says it barely
    /// moved.
    Lying,
    /// A drift with an honest hint, but no rank has room.
    Full,
}

const STEPS: [Step; 6] = [
    Step::Collective,
    Step::Quiet { hinted: false },
    Step::Hinted,
    Step::Quiet { hinted: true },
    Step::Lying,
    Step::Full,
];

/// Rank `me`'s share of the crystal: every third rank holds nothing.
fn input(c: &IonicCrystal, me: usize, p: usize) -> (Vec<Vec3>, Vec<f64>, Vec<u64>) {
    let holders: Vec<usize> = (0..p).filter(|r| p == 1 || r % 3 != 1).collect();
    let ids = (0..c.n() as u64).filter(|&i| holders[splitmix64(i) as usize % holders.len()] == me);
    let (mut pos, mut charge, mut id) = (Vec::new(), Vec::new(), Vec::new());
    for i in ids {
        let (x, q) = c.particle(i);
        pos.push(x);
        charge.push(q);
        id.push(i);
    }
    (pos, charge, id)
}

/// Messages and collectives so far in the phases named `name`.
fn traffic(comm: &Comm, name: &str) -> (u64, u64) {
    let phases = comm.phase_profile().phases.iter().filter(|s| s.name == name);
    phases.fold((0, 0), |(m, c), s| (m + s.p2p_sent_msgs, c + s.coll_ops))
}

/// The application's additional data of the particles `id`, as a plane set
/// of three strides.
fn planes(id: &[u64]) -> PlaneSet {
    let mut set = PlaneSet::new();
    let ids = set.register::<u64>("id");
    let vel = set.register::<Vec3>("vel");
    let tag = set.register::<u32>("tag");
    set.resize(id.len());
    set.plane_mut::<u64>(ids).copy_from_slice(id);
    for (v, &i) in set.plane_mut::<Vec3>(vel).iter_mut().zip(id) {
        *v = Vec3::new(i as f64, -(i as f64), 0.5 * i as f64);
    }
    for (t, &i) in set.plane_mut::<u32>(tag).iter_mut().zip(id) {
        *t = splitmix64(i) as u32;
    }
    set
}

/// Every element's bytes, element by element.
fn elements(set: &PlaneSet) -> Vec<Vec<u8>> {
    let p = set.planes();
    (0..set.len())
        .map(|i| {
            (0..p.count())
                .flat_map(|k| p.bytes(k)[i * p.stride(k)..][..p.stride(k)].to_vec())
                .collect()
        })
        .collect()
}

/// The first position at which two element lists differ, if any.
fn first_difference(a: &[Vec<u8>], b: &[Vec<u8>]) -> Option<usize> {
    let shorter = a.len().min(b.len());
    a.iter().zip(b).position(|(x, y)| x != y).or((a.len() != b.len()).then_some(shorter))
}

/// Send every input element to where `indices` says and place it there: the
/// resort the paper defines by its indices, with no plan. Each element
/// travels as its id, and arrives as the element of that id (every plane of
/// [`planes`] is a function of it).
fn by_indices(comm: &mut Comm, id: &[u64], indices: &[u64], new_len: usize) -> Vec<Vec<u8>> {
    let (targets, sent): (Vec<usize>, Vec<(u32, u64)>) = indices
        .iter()
        .zip(id)
        .map(|(&ix, &i)| {
            let (rank, at) = atasp::decode_index(ix);
            (rank, (at as u32, i))
        })
        .unzip();
    let arrived = atasp::alltoall_specific(comm, &sent, &targets, &atasp::ExchangeMode::Collective);
    assert_eq!(arrived.len(), new_len, "every position is hit once");
    let mut out = vec![Vec::new(); new_len];
    for (at, i) in arrived {
        assert!(out[at as usize].is_empty(), "position {at} hit twice");
        out[at as usize] = elements(&planes(&[i])).pop().expect("one element");
    }
    out
}

/// What one rank saw of one step.
#[derive(Debug)]
struct Seen {
    step: Step,
    start: f64,
    resorted: bool,
    quiet: bool,
}

/// Run a world of `kind` at `p` ranks through [`STEPS`], checking every
/// resort; returns each rank's steps.
fn world(kind: SolverKind, p: usize) -> (Vec<Vec<Seen>>, Vec<simcomm::Trace>) {
    let c = IonicCrystal::cubic(6, 1.0, 0.1, 3);
    let bbox = c.system_box();
    // A fault-active world (whose plan injects nothing `fcs` reads) arms the
    // movement-bound guards.
    let faults =
        FaultPlan { seed: 5, hint_lie_prob: 1.0, hint_lie_factor: 1e-3, ..FaultPlan::none() };
    let runner = Runner::default().traced(true).faulted(faults);
    let out = runner.run(p, MachineModel::juropa_like(), move |comm| {
        let me = comm.rank();
        let (mut pos, mut charge, mut id) = input(&c, me, p);
        let mut h = Fcs::init(kind, p);
        h.set_common(bbox);
        h.tune(comm, &pos, &charge);
        h.set_resort(true);
        let mut seen = Vec::new();
        for (s, &step) in STEPS.iter().enumerate() {
            let what = format!("{kind:?} p={p} rank {me} {step:?}");
            let drift = |x: Vec3, i: u64, scale: f64| {
                let u = |axis: u64| {
                    (splitmix64(i ^ (s as u64) << 32 ^ axis) >> 11) as f64 / (1u64 << 53) as f64
                        - 0.5
                };
                bbox.wrap(x + Vec3::new(u(1), u(2), u(3)) * scale)
            };
            match step {
                Step::Collective => h.set_max_particle_move(None),
                Step::Hinted | Step::Full => {
                    for (x, &i) in pos.iter_mut().zip(&id) {
                        *x = drift(*x, i, 0.2);
                    }
                    h.set_max_particle_move(Some(0.2));
                }
                Step::Quiet { hinted } => h.set_max_particle_move(hinted.then_some(1e-9)),
                Step::Lying => {
                    let half = Vec3::new(0.5 * bbox.lengths.x(), 0.0, 0.0);
                    for x in &mut pos {
                        *x = bbox.wrap(*x + half);
                    }
                    h.set_max_particle_move(Some(1e-3));
                }
            }
            // No rank has room for a particle: whoever holds one sends every
            // rank home. (Ewald never changes how many a rank holds.)
            let max_local = if step == Step::Full { 0 } else { usize::MAX };
            let start = comm.clock();
            let before = traffic(comm, "resort");
            let o = h.run(comm, &pos, &charge, &id, max_local);
            let resort_phase = {
                let after = traffic(comm, "resort");
                (after.0 - before.0, after.1 - before.1)
            };
            assert_eq!(h.resorted(), o.resorted, "{what}");
            let kept = o.id == id;
            let quiet = o.resorted && comm.allreduce(kept, |a, b| a && b);
            if step == Step::Full && kind != SolverKind::Ewald {
                assert!(!h.resorted(), "{what}: a rank without room sends every rank home");
                assert_eq!(o.id, id, "{what}: the input order comes back");
            } else {
                assert!(h.resorted(), "{what}");
                // The indices say where each input element goes, and the
                // run put its particle there.
                let indices = h.resort_indices(comm);
                assert_eq!(indices.len(), id.len(), "{what}");
                let want = by_indices(comm, &id, &indices, o.id.len());
                let there = elements(&planes(&o.id));
                let off = first_difference(&want, &there);
                assert_eq!(off, None, "{what}: the indices leave an element off its particle");
                // The plane resort puts every byte there.
                let mut set = planes(&id);
                let (msgs, colls) = (comm.stats().p2p_sent_msgs, comm.stats().coll_ops);
                h.resort_planes(comm, &mut set);
                let resort_call =
                    (comm.stats().p2p_sent_msgs - msgs, comm.stats().coll_ops - colls);
                assert_eq!(set.len(), h.resort_len(), "{what}");
                let off = first_difference(&elements(&set), &want);
                assert_eq!(off, None, "{what}: a byte lands off where the indices say");
                if quiet || kind == SolverKind::Ewald {
                    assert_eq!(resort_phase, (0, 0), "{what}: the resort phase communicates");
                    assert_eq!(resort_call, (0, 0), "{what}: the resort communicates");
                }
            }
            if let Step::Quiet { .. } = step {
                assert!(quiet, "{what}: nothing moved, and nothing may leave a rank");
            }
            seen.push(Seen { step, start, resorted: o.resorted, quiet });
            (pos, charge, id) = (o.pos, o.charge, o.id);
        }
        seen
    });
    (out.results, out.traces)
}

/// Whether any rank's step `s` ran the P2NFFT's all-to-all-v, which its
/// hint ruled out.
fn fell_back(ranks: &[Vec<Seen>], traces: &[simcomm::Trace], s: usize) -> bool {
    ranks.iter().zip(traces).any(|(seen, trace)| {
        let end = seen.get(s + 1).map_or(f64::INFINITY, |next| next.start);
        let during = trace.events.iter().filter(|e| e.t_start >= seen[s].start && e.t_start < end);
        during.into_iter().any(|e| e.phase == "sort" && e.kind == TraceKind::Alltoallv)
    })
}

#[test]
fn every_resort_follows_the_resort_indices() {
    let lying = STEPS.iter().position(|&s| s == Step::Lying).expect("a lying step");
    for kind in [SolverKind::Fmm, SolverKind::P2Nfft, SolverKind::Ewald] {
        let mut fallbacks = Vec::new();
        for p in PS {
            let (ranks, traces) = world(kind, p);
            for seen in &ranks {
                let steps: Vec<Step> = seen.iter().map(|s| s.step).collect();
                assert_eq!(steps, STEPS, "{kind:?} p={p}");
                // Ewald never moves a particle: every step that resorts is quiet.
                if kind == SolverKind::Ewald {
                    assert!(seen.iter().all(|s| s.quiet == s.resorted), "{kind:?} p={p}");
                }
            }
            if kind == SolverKind::P2Nfft && fell_back(&ranks, &traces, lying) {
                fallbacks.push(p);
            }
        }
        // The P2NFFT's guard falls back wherever half the box is more than
        // a neighbour away. (The FMM's guard trips on a cleanup-round cap
        // that `fcs` does not set; its lying step runs the merge network to
        // the end, and `crates/fmm/tests/quiet_step.rs` covers the fallback.)
        if kind == SolverKind::P2Nfft {
            assert_eq!(fallbacks, [5, 64], "{kind:?}: the worlds whose guard fell back");
        }
    }
}
