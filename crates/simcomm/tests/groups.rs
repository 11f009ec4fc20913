//! Groups (`Comm::split`) against their oracle, the world: a group
//! all-to-all-v returns, bit for bit, what the world call restricted to the
//! members returns — concurrent disjoint groups, singleton groups, members
//! ordered against their world ranks, repeated and empty segments — at
//! p ∈ {1, 2, 3, 5, 8, 27, 64} and host widths 1, 2 and 8. Then its clock
//! (the members' latest arrival plus the group's cost), the whole-world
//! group (what the world costs, bit for bit), the traces, and a wait cycle
//! across groups, reported as a deadlock.

mod common;

use common::{splitmix64, WIDTHS};
use simcomm::{Comm, Group, MachineModel, Runner, TraceKind, WorldError};

const SIZES: [usize; 7] = [1, 2, 3, 5, 8, 27, 64];

/// How a world splits: `(color, key)` of rank `me` of `p`.
type Scheme = fn(usize, usize) -> (u32, u32);

/// Disjoint groups of every size: by residue mod 3, members ordered against
/// their world ranks; every rank its own group; the whole world; and the
/// 16-rank blocks of the leading torus coordinate.
const SCHEMES: [(&str, Scheme); 4] = [
    ("mod3-reversed", |me, p| ((me % 3) as u32, (p - me) as u32)),
    ("singletons", |me, _| (me as u32, 0)),
    ("world", |me, _| (0, me as u32)),
    ("blocks16", |me, _| ((me / 16) as u32, me as u32)),
];

/// One round's flat payload of rank `me` to the members of `members`:
/// random lengths, a destination listed twice, zero-length segments, and
/// sometimes nothing at all.
fn payload(seed: u64, me: usize, members: &[usize]) -> (Vec<u64>, Vec<(usize, usize)>) {
    let mut state = splitmix64(seed ^ ((me as u64) << 20));
    let mut draw = |n: u64| {
        state = splitmix64(state);
        state % n
    };
    let (mut send, mut segments) = (Vec::new(), Vec::new());
    for &dst in members {
        for k in 0..1 + draw(2) {
            let len = [0, 0, 1, 3, 7][draw(5) as usize];
            let tag = ((me as u64) << 40) | ((dst as u64) << 20) | (k << 16);
            send.extend((0..len).map(|i| tag | i));
            segments.push((dst, len as usize));
        }
    }
    (send, segments)
}

/// What one rank saw of one exchange: received records, sources, its clock
/// before and after, and the messages and bytes it sent and received.
#[derive(Debug, PartialEq)]
struct Seen {
    recv: Vec<u64>,
    sources: Vec<(usize, usize)>,
    clocks: [u64; 2],
    traffic: [u64; 4],
}

/// One exchange on `group`, or on the world when it is `None`.
fn exchange(comm: &mut Comm, group: Option<&mut Group>, seed: u64, members: &[usize]) -> Seen {
    let me = comm.rank();
    // Members arrive at different times.
    comm.advance(1e-6 * ((me * 7 + seed as usize) % 5) as f64);
    let (send, segments) = payload(seed, me, members);
    let (mut recv, mut sources) = (Vec::new(), Vec::new());
    let s0 = comm.stats().clone();
    let before = comm.clock();
    match group {
        Some(g) => g.alltoallv_flat(comm, send, &segments, &mut recv, &mut sources),
        None => comm.alltoallv_flat(send, &segments, &mut recv, &mut sources),
    }
    let s1 = comm.stats();
    let traffic = [
        s1.p2p_sent_msgs - s0.p2p_sent_msgs,
        s1.p2p_sent_bytes - s0.p2p_sent_bytes,
        s1.p2p_recv_msgs - s0.p2p_recv_msgs,
        s1.p2p_recv_bytes - s0.p2p_recv_bytes,
    ];
    Seen { recv, sources, clocks: [before.to_bits(), comm.clock().to_bits()], traffic }
}

#[test]
fn group_alltoallv_is_the_world_restricted_to_its_members() {
    for p in SIZES {
        for (name, scheme) in SCHEMES {
            for model in [MachineModel::juropa_like(), MachineModel::juqueen_like()] {
                let mut reference = None;
                for width in WIDTHS {
                    let what = format!("p {p} {name} {} width {width}", model.name);
                    let out = Runner::default().host_parallelism(width).traced(true).run(
                        p,
                        model.clone(),
                        |comm| {
                            let (color, key) = scheme(comm.rank(), p);
                            let mut group = comm.split(color, key);
                            let members = group.members().to_vec();
                            let mut rounds = Vec::new();
                            for seed in 0..3 {
                                let on_group = exchange(comm, Some(&mut group), seed, &members);
                                let on_world = exchange(comm, None, seed, &members);
                                rounds.push((on_group, on_world));
                            }
                            (members, group.id(), rounds)
                        },
                    );
                    let mut ids = Vec::new();
                    for (me, (members, id, rounds)) in out.results.iter().enumerate() {
                        assert!(members.contains(&me), "{what}: rank {me} outside its group");
                        let mut sorted = members.clone();
                        sorted.sort_unstable_by_key(|&r| scheme(r, p).1);
                        assert_eq!(*members, sorted, "{what}: members by key");
                        for (group, world) in rounds {
                            assert_eq!(group.recv, world.recv, "{what}: rank {me} records");
                            assert_eq!(group.sources, world.sources, "{what}: rank {me} sources");
                            assert_eq!(group.traffic, world.traffic, "{what}: rank {me} counts");
                            assert!(group.sources.is_sorted_by_key(|s| s.0), "{what}: ascending");
                        }
                        ids.push(*id);
                    }
                    // One id per color, from 1 in ascending color.
                    let mut colors: Vec<u32> = (0..p).map(|r| scheme(r, p).0).collect();
                    colors.sort_unstable();
                    colors.dedup();
                    for (me, id) in ids.iter().enumerate() {
                        let color = scheme(me, p).0;
                        let want = colors.binary_search(&color).unwrap() as u32 + 1;
                        assert_eq!(*id, want, "{what}: rank {me} group id");
                    }
                    // Group collectives are traced with their group and size.
                    for (me, trace) in out.traces.iter().enumerate() {
                        let (members, id, _) = &out.results[me];
                        let on_group: Vec<_> =
                            trace.events.iter().filter(|e| e.group != 0).collect();
                        assert_eq!(on_group.len(), 3, "{what}: rank {me} group records");
                        for e in on_group {
                            assert_eq!((e.kind, e.group), (TraceKind::Alltoallv, *id), "{what}");
                            assert_eq!(e.nranks, members.len(), "{what}");
                        }
                    }
                    let seen: Vec<_> = out.results.iter().map(|r| &r.2).collect();
                    let bits = format!("{seen:?} {:?}", out.clocks);
                    match &reference {
                        None => reference = Some(bits),
                        Some(want) => assert_eq!(&bits, want, "{what}: differs from width 1"),
                    }
                }
            }
        }
    }
}

#[test]
fn a_group_clock_is_the_members_latest_arrival_plus_the_group_cost() {
    // On the switched fabric every group's hop rule gives the world's, so a
    // group of m costs what a world of m does. On the torus the 16-rank
    // blocks of the leading coordinate of the 64-rank world take the
    // coordinates a world of 16 takes, so they cost what it costs too.
    let cases = SIZES
        .iter()
        .flat_map(|&p| SCHEMES.iter().map(move |&(_, s)| (p, s, MachineModel::juropa_like())))
        .chain([(64, SCHEMES[3].1, MachineModel::juqueen_like())]);
    for (p, scheme, model) in cases {
        let out = Runner::default().run(p, model.clone(), |comm| {
            let (color, key) = scheme(comm.rank(), p);
            let mut group = comm.split(color, key);
            let members = group.members().to_vec();
            (members.clone(), exchange(comm, Some(&mut group), 11, &members))
        });
        for (me, (members, seen)) in out.results.iter().enumerate() {
            let entry = |r: usize| f64::from_bits(out.results[r].1.clocks[0]);
            let latest = members.iter().map(|&r| entry(r)).fold(f64::MIN, f64::max);
            let [s_msgs, s_bytes, r_msgs, r_bytes] = seen.traffic;
            let cost = model.alltoallv_time(members.len(), s_msgs, s_bytes, r_msgs, r_bytes);
            let mut want = entry(me);
            want += (latest - want).max(0.0);
            want += cost;
            assert_eq!(seen.clocks[1], want.to_bits(), "p {p} {}: rank {me}", model.name);
        }
    }
}

#[test]
fn a_group_of_the_whole_world_costs_what_the_world_costs() {
    for p in SIZES {
        for model in [MachineModel::juropa_like(), MachineModel::juqueen_like()] {
            let world = |on_group: bool| {
                Runner::default().run(p, model.clone(), move |comm| {
                    let mut group = comm.split(0, comm.rank() as u32);
                    let members = group.members().to_vec();
                    (0..3)
                        .map(|seed| exchange(comm, on_group.then_some(&mut group), seed, &members))
                        .collect::<Vec<_>>()
                })
            };
            let (on_group, on_world) = (world(true), world(false));
            assert_eq!(on_group.results, on_world.results, "p {p} {}", model.name);
            assert_eq!(on_group.stats, on_world.stats, "p {p} {}", model.name);
        }
    }
}

#[test]
fn a_wait_cycle_across_groups_is_a_deadlock() {
    // Ranks 0 and 2 form one group, 1 and 3 the other. Rank 0 enters its
    // group's exchange and waits there for rank 2, which waits in a world
    // barrier for rank 0.
    for width in WIDTHS {
        let err = Runner::default()
            .host_parallelism(width)
            .try_run(4, MachineModel::juropa_like(), |comm| {
                let me = comm.rank();
                let mut group = comm.split(me as u32 % 2, me as u32);
                let (mut recv, mut sources) = (Vec::<u8>::new(), Vec::new());
                if me == 0 {
                    group.alltoallv_flat(comm, vec![1], &[(2, 1)], &mut recv, &mut sources);
                }
                comm.barrier();
                if me == 2 {
                    group.alltoallv_flat(comm, vec![2], &[(0, 1)], &mut recv, &mut sources);
                }
            })
            .err()
            .expect("a wait cycle across groups must deadlock");
        assert!(matches!(err, WorldError::VirtualDeadlock { live: 4, .. }), "width {width}: {err}");
    }
}
