//! The nonblocking all-to-all-v (`Comm::ialltoallv_flat`,
//! `Group::ialltoallv_flat`) against its oracle, the blocking call, at
//! p ∈ {1, 2, 3, 5, 8, 27, 64}, host widths 1, 2 and 8, on both fabrics, on
//! the world and on groups:
//!
//! * posted and waited at once, it is the blocking call bit for bit — data,
//!   sources, clocks, statistics, phase profiles and traces;
//! * with `c` seconds of compute between post and wait, the rank leaves the
//!   wait at exactly `max(max_post + cost, post + c + cpu)`: `max_post` the
//!   members' latest post, `cost` what the blocking call charges, `cpu` the
//!   count scan and the per-message handling;
//! * entering another collective on a communicator with a posted one
//!   panics.

mod common;

use common::{splitmix64, WIDTHS};
use simcomm::{Comm, Group, MachineModel, RunOutput, Runner, TraceKind, WorldError};

const SIZES: [usize; 7] = [1, 2, 3, 5, 8, 27, 64];

/// Both fabrics: switched (JuRoPA) and torus (Juqueen).
fn models() -> [MachineModel; 2] {
    [MachineModel::juropa_like(), MachineModel::juqueen_like()]
}

/// Where the exchanges run: the world, or groups by residue mod 3 with
/// their members ordered against their world ranks.
#[derive(Clone, Copy, Debug)]
enum On {
    World,
    Groups,
}

/// Rank `me`'s group handle under `on` (a world collective), or none.
fn group_of(comm: &mut Comm, on: On) -> Option<Group> {
    let (me, p) = (comm.rank(), comm.size());
    match on {
        On::World => None,
        On::Groups => Some(comm.split((me % 3) as u32, (p - me) as u32)),
    }
}

/// The ranks an exchange under `on` meets.
fn members(comm: &Comm, group: &Option<Group>) -> Vec<usize> {
    match group {
        None => (0..comm.size()).collect(),
        Some(group) => group.members().to_vec(),
    }
}

/// Round `round`'s flat payload of rank `me` to `members`: random lengths,
/// a destination listed twice, zero-length segments, sometimes nothing.
fn payload(round: u64, me: usize, members: &[usize]) -> (Vec<u64>, Vec<(usize, usize)>) {
    let mut state = splitmix64(round ^ ((me as u64) << 20));
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

/// A skew before each round that keeps the members' clocks within a factor
/// of two of each other, so every difference of two clocks is exact.
fn skew(round: u64, me: usize) -> f64 {
    1e-3 * (1.0 + 0.1 * ((me as u64 * 7 + round * 3) % 5) as f64)
}

/// What one rank received in one exchange: records and sources.
type Received = (Vec<u64>, Vec<(usize, usize)>);

/// Four rounds of exchanges with a skew before each and an allreduce
/// between, blocking or posted and waited at once, in a phase of their own.
fn rounds(comm: &mut Comm, on: On, blocking: bool) -> Vec<Received> {
    let me = comm.rank();
    let mut group = group_of(comm, on);
    let members = members(comm, &group);
    let mut seen = Vec::new();
    for round in 0..4 {
        comm.advance(skew(round, me));
        let (send, segments) = payload(round, me, &members);
        let (mut recv, mut sources) = (Vec::new(), Vec::new());
        comm.enter_phase("exchange");
        match (&mut group, blocking) {
            (None, true) => comm.alltoallv_flat(send, &segments, &mut recv, &mut sources),
            (Some(g), true) => g.alltoallv_flat(comm, send, &segments, &mut recv, &mut sources),
            (None, false) => {
                let request = comm.ialltoallv_flat(send, &segments);
                request.wait(comm, None, &mut recv, &mut sources);
            }
            (Some(g), false) => {
                let request = g.ialltoallv_flat(comm, send, &segments);
                request.wait(comm, Some(g), &mut recv, &mut sources);
            }
        }
        comm.exit_phase();
        seen.push((recv, sources));
        comm.allreduce(round, u64::max);
    }
    seen
}

/// Everything a world reports, rendered for a bitwise comparison.
fn rendered<R: std::fmt::Debug>(out: &RunOutput<R>) -> String {
    let clocks: Vec<u64> = out.clocks.iter().map(|c| c.to_bits()).collect();
    format!("{:?}", (&out.results, clocks, &out.stats, &out.traces, &out.phases))
}

#[test]
fn post_then_wait_is_the_blocking_call() {
    for p in SIZES {
        for model in models() {
            for on in [On::World, On::Groups] {
                for width in WIDTHS {
                    let runner = Runner::default().traced(true).host_parallelism(width);
                    let what = format!("p={p} {} {on:?} width {width}", model.name);
                    let blocking = runner.run(p, model.clone(), |comm| rounds(comm, on, true));
                    let posted = runner.run(p, model.clone(), |comm| rounds(comm, on, false));
                    assert_eq!(rendered(&posted), rendered(&blocking), "{what}");
                    let kinds = posted.traces.iter().flat_map(|t| &t.events).map(|e| e.kind);
                    let kinds: Vec<TraceKind> = kinds.collect();
                    assert!(
                        !kinds.contains(&TraceKind::Ialltoallv),
                        "{what}: a post waited at once"
                    );
                    assert!(
                        !kinds.contains(&TraceKind::CollWait),
                        "{what}: is the blocking record"
                    );
                }
            }
        }
    }
}

/// What one rank saw of the one exchange of [`overlapped`]: its clock after
/// the post, before the wait and after it, the messages it sent and
/// received, and the communication seconds of the exchange's phase.
#[derive(Debug)]
struct Seen {
    clocks: [f64; 3],
    msgs: [u64; 2],
    comm: f64,
}

/// One exchange after a skew: posted, then `compute` seconds, then waited
/// (with `compute` `None`, the blocking call).
fn overlapped(comm: &mut Comm, on: On, compute: Option<f64>) -> Seen {
    let me = comm.rank();
    let mut group = group_of(comm, on);
    let members = members(comm, &group);
    let base = comm.clock();
    comm.advance(base.max(1e-3) * skew(0, me) * 1e3 - base);
    let (send, segments) = payload(1, me, &members);
    let (mut recv, mut sources) = (Vec::new(), Vec::new());
    let (sent, received) = (comm.stats().p2p_sent_msgs, comm.stats().p2p_recv_msgs);
    comm.enter_phase("exchange");
    let (t_post, t_wait) = match compute {
        None => {
            let t = comm.clock();
            match &mut group {
                None => comm.alltoallv_flat(send, &segments, &mut recv, &mut sources),
                Some(g) => g.alltoallv_flat(comm, send, &segments, &mut recv, &mut sources),
            }
            (t, t)
        }
        Some(c) => {
            let request = match &mut group {
                None => comm.ialltoallv_flat(send, &segments),
                Some(g) => g.ialltoallv_flat(comm, send, &segments),
            };
            let t_post = comm.clock();
            comm.advance(c);
            let t_wait = comm.clock();
            request.wait(comm, group.as_mut(), &mut recv, &mut sources);
            (t_post, t_wait)
        }
    };
    comm.exit_phase();
    let phase = comm.phase_profile().phases.iter().find(|ph| ph.name == "exchange").unwrap();
    let msgs = [comm.stats().p2p_sent_msgs - sent, comm.stats().p2p_recv_msgs - received];
    Seen { clocks: [t_post, t_wait, comm.clock()], msgs, comm: phase.comm_seconds }
}

#[test]
fn the_wait_leaves_at_the_later_of_completion_and_own_cpu() {
    for p in SIZES {
        for model in models() {
            for on in [On::World, On::Groups] {
                // Nothing hidden, part of the background, all of it, more.
                for c in [1e-7, 4e-6, 3e-5, 2e-3] {
                    let width = WIDTHS[p % WIDTHS.len()];
                    let runner = Runner::default().host_parallelism(width);
                    let what = format!("p={p} {} {on:?} c={c}", model.name);
                    let blocking = runner.run(p, model.clone(), |comm| overlapped(comm, on, None));
                    let posted = runner.run(p, model.clone(), |comm| overlapped(comm, on, Some(c)));
                    let (first, second) = (&blocking.results, &posted.results);
                    for me in 0..p {
                        let (b, s) = (&first[me], &second[me]);
                        let group: Vec<usize> = match on {
                            On::World => (0..p).collect(),
                            On::Groups => (0..p).filter(|r| r % 3 == me % 3).collect(),
                        };
                        let max_post =
                            group.iter().map(|&r| second[r].clocks[0]).fold(0.0, f64::max);
                        // The blocking twin charged the whole cost as the
                        // phase's communication, in one charge.
                        let cost = b.comm;
                        let cpu = group.len() as f64 * model.alltoallv_scan_cost
                            + (s.msgs[0] + s.msgs[1]) as f64 * model.alltoallv_msg_overhead;
                        let expected = (max_post + cost).max(s.clocks[1] + cpu);
                        assert_eq!(
                            s.clocks[0], b.clocks[0],
                            "{what}: rank {me} posts when it enters"
                        );
                        assert_eq!(s.clocks[1], s.clocks[0] + c, "{what}: rank {me} computes");
                        assert_eq!(s.clocks[2], expected, "{what}: rank {me} leaves the wait");
                        assert_eq!(s.msgs, b.msgs, "{what}: rank {me} traffic");
                        // Never later than blocking and then computing (up
                        // to the rounding of two different sums).
                        let serial = (b.clocks[2] + c) * (1.0 + 1e-12);
                        assert!(s.clocks[2] <= serial, "{what}: rank {me} overlaps");
                    }
                }
            }
        }
    }
}

#[test]
fn a_second_collective_on_a_communicator_with_a_posted_one_panics() {
    for p in SIZES {
        for on in [On::World, On::Groups] {
            for width in WIDTHS {
                let runner = Runner::default().host_parallelism(width);
                let out = runner.try_run(p, MachineModel::juropa_like(), |comm| {
                    let mut group = group_of(comm, on);
                    let members = members(comm, &group);
                    let (send, segments) = payload(2, comm.rank(), &members);
                    let request = match &mut group {
                        None => comm.ialltoallv_flat(send.clone(), &segments),
                        Some(g) => g.ialltoallv_flat(comm, send.clone(), &segments),
                    };
                    let (mut recv, mut sources) = (Vec::new(), Vec::new());
                    match &mut group {
                        None => comm.alltoallv_flat(send, &segments, &mut recv, &mut sources),
                        Some(g) => g.alltoallv_flat(comm, send, &segments, &mut recv, &mut sources),
                    }
                    request.wait(comm, group.as_mut(), &mut recv, &mut sources);
                });
                let what = format!("p={p} {on:?} width {width}");
                match out {
                    Err(WorldError::RankPanic { message, .. }) => {
                        assert!(
                            message.contains("before its posted one completed"),
                            "{what}: {message}"
                        )
                    }
                    other => panic!("{what}: {:?}", other.map(|_| ())),
                }
            }
        }
    }
}

#[test]
fn a_world_collective_runs_while_a_group_one_is_posted() {
    // The rule is per communicator: a world allreduce between a group's
    // post and its wait is fine, and the data arrive as posted.
    for p in SIZES {
        let out = Runner::default().run(p, MachineModel::juqueen_like(), |comm| {
            let mut group = group_of(comm, On::Groups).expect("a group");
            let members = group.members().to_vec();
            let (send, segments) = payload(3, comm.rank(), &members);
            let request = group.ialltoallv_flat(comm, send, &segments);
            let total = comm.allreduce(1u64, |a, b| a + b);
            let (mut recv, mut sources) = (Vec::new(), Vec::new());
            request.wait(comm, Some(&mut group), &mut recv, &mut sources);
            (total, recv, sources)
        });
        let oracle = Runner::default().run(p, MachineModel::juqueen_like(), |comm| {
            let mut group = group_of(comm, On::Groups).expect("a group");
            let members = group.members().to_vec();
            let (send, segments) = payload(3, comm.rank(), &members);
            let (mut recv, mut sources) = (Vec::new(), Vec::new());
            group.alltoallv_flat(comm, send, &segments, &mut recv, &mut sources);
            (p as u64, recv, sources)
        });
        assert_eq!(out.results, oracle.results, "p={p}");
    }
}
