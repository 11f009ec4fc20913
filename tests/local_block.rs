//! The local block: records a rank addresses to itself never travel. Every
//! redistribution that exchanges records through an all-to-all-v —
//! `alltoall_specific`, `build_resort_indices_with` and `resort_planes` under
//! both exchange modes, and `psort::partition_sort_by_key` — keeps its
//! self-addressed block home and splices it in at its own rank's place in the
//! ascending source order. Each output is compared bit for bit with an oracle
//! computed from every rank's input gathered in one place; a call whose
//! records all stay home sends no message and no byte, and any other call
//! sends exactly the bytes addressed to other ranks.

use atasp::{
    alltoall_specific, build_resort_indices_with, decode_index, encode_index, resort_planes,
    ExchangeMode,
};
use particles::systems::splitmix64;
use particles::PlaneSet;
use simcomm::{run, Comm, MachineModel};

/// The world sizes: one rank, primes, powers of two and a cube.
const PS: [usize; 7] = [1, 2, 3, 5, 8, 27, 64];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Input {
    /// Every record stays on its rank.
    AllLocal,
    /// No record stays (at one rank: all of them, there is nowhere else).
    NoneLocal,
    /// Targets drawn uniformly over the world.
    Random,
    /// Like `Random`, and every third rank holds nothing.
    EmptyRanks,
}

const INPUTS: [Input; 4] = [Input::AllLocal, Input::NoneLocal, Input::Random, Input::EmptyRanks];

/// How many records rank `me` holds.
fn len(input: Input, me: usize) -> usize {
    match input {
        Input::EmptyRanks if me % 3 == 1 => 0,
        _ => 3 + (splitmix64(me as u64 ^ 0x10ca1) % 9) as usize,
    }
}

/// Where record `i` of rank `me` goes.
fn target(input: Input, p: usize, me: usize, i: usize) -> usize {
    let h = splitmix64(((me as u64) << 32 | i as u64) ^ 0x7a_26e7);
    match input {
        Input::AllLocal => me,
        Input::NoneLocal if p > 1 => (me + 1 + (h % (p as u64 - 1)) as usize) % p,
        Input::NoneLocal => me,
        Input::Random | Input::EmptyRanks => (h % p as u64) as usize,
    }
}

/// The payload of record `i` of rank `me`: random bits.
fn payload(me: usize, i: usize, salt: u64) -> u64 {
    splitmix64(((me as u64) << 32 | i as u64) ^ salt)
}

/// The records rank `dst` holds after routing every rank's records to their
/// targets, as `(source, index)`: ascending source, each source's records in
/// input order — computed from the whole world's input in one place.
fn routed(input: Input, p: usize, dst: usize) -> Vec<(usize, usize)> {
    let all = (0..p).flat_map(|src| (0..len(input, src)).map(move |i| (src, i)));
    all.filter(|&(src, i)| target(input, p, src, i) == dst).collect()
}

/// The mode a world runs: the collective, or a neighbourhood of every other
/// rank — empty where no record leaves any rank, as that mode requires.
fn mode(collective: bool, input: Input, p: usize, me: usize) -> ExchangeMode {
    if collective {
        ExchangeMode::Collective
    } else if input == Input::AllLocal || p == 1 {
        ExchangeMode::Neighborhood(Vec::new())
    } else {
        ExchangeMode::Neighborhood((0..p).filter(|&q| q != me).collect())
    }
}

/// What one call sent: point-to-point messages and bytes.
fn sent(comm: &Comm, before: (u64, u64)) -> (u64, u64) {
    let s = comm.stats();
    (s.p2p_sent_msgs - before.0, s.p2p_sent_bytes - before.1)
}

fn counters(comm: &Comm) -> (u64, u64) {
    (comm.stats().p2p_sent_msgs, comm.stats().p2p_sent_bytes)
}

/// The keys rank `me` sorts: under `AllLocal` equal shares of one key per
/// rank, in rank order, so every bucket is its own rank's; under `NoneLocal`
/// the same shares reversed, so every bucket but a middle one leaves; 12-bit
/// keys that tie across ranks otherwise.
fn sort_keys(input: Input, p: usize, me: usize) -> Vec<u64> {
    match input {
        Input::AllLocal => vec![me as u64; 6],
        Input::NoneLocal => vec![(p - 1 - me) as u64; 6],
        Input::Random | Input::EmptyRanks => {
            (0..len(input, me)).map(|i| payload(me, i, 0x5027) % 4096).collect()
        }
    }
}

/// One rank's outputs and the traffic of each call.
#[derive(Debug)]
struct Seen {
    routed: Vec<u64>,
    indices: Vec<u64>,
    planes: (Vec<u64>, Vec<u64>),
    sorted: (Vec<u64>, Vec<u64>),
    /// `(messages, bytes)` sent by each of the four calls, in order.
    traffic: [(u64, u64); 4],
}

fn world(p: usize, input: Input, collective: bool) -> Vec<Seen> {
    let out = run(p, MachineModel::juqueen_like(), |comm| {
        let me = comm.rank();
        let mode = mode(collective, input, p, me);
        let n = len(input, me);
        let targets: Vec<usize> = (0..n).map(|i| target(input, p, me, i)).collect();
        let mut traffic = [(0, 0); 4];

        // The records, tagged with their origin code.
        let origins: Vec<u64> = (0..n).map(|i| encode_index(me, i)).collect();
        let before = counters(comm);
        let routed = alltoall_specific(comm, &origins, &targets, &mode);
        traffic[0] = sent(comm, before);

        // Where every original record lives now.
        let before = counters(comm);
        let indices = build_resort_indices_with(comm, &routed, n, &mode);
        traffic[1] = sent(comm, before);

        // Two planes of random bits, moved along those indices.
        let mut set = PlaneSet::new();
        let (a, b) = (set.register::<u64>("a"), set.register::<f64>("b"));
        set.resize(n);
        for i in 0..n {
            set.plane_mut::<u64>(a)[i] = payload(me, i, 1);
            set.plane_mut::<f64>(b)[i] = f64::from_bits(payload(me, i, 2) >> 2);
        }
        let before = counters(comm);
        resort_planes(comm, &mut set, &indices, routed.len(), &mode, &mut None);
        traffic[2] = sent(comm, before);
        let planes = (
            set.plane::<u64>(a).to_vec(),
            set.plane::<f64>(b).iter().map(|x| x.to_bits()).collect(),
        );

        let keys = sort_keys(input, p, me);
        let values: Vec<u64> = (0..keys.len()).map(|i| payload(me, i, 3)).collect();
        let before = counters(comm);
        let (k, v, _) = psort::partition_sort_by_key(comm, keys, values);
        traffic[3] = sent(comm, before);
        Seen { routed, indices, planes, sorted: (k, v), traffic }
    });
    out.results
}

#[test]
fn self_addressed_records_stay_home_and_the_bits_match_the_oracle() {
    for p in PS {
        for input in INPUTS {
            // The sort's oracle: every rank's input, stably sorted by key.
            let mut gathered: Vec<(u64, u64)> = (0..p)
                .flat_map(|r| {
                    let keys = sort_keys(input, p, r);
                    keys.into_iter().enumerate().map(move |(i, k)| (k, payload(r, i, 3)))
                })
                .collect();
            gathered.sort_by_key(|&(k, _)| k);
            for collective in [true, false] {
                let what = format!("p {p} {input:?} collective {collective}");
                let seen = world(p, input, collective);
                let (mut keys, mut values) = (Vec::new(), Vec::new());
                for (me, s) in seen.iter().enumerate() {
                    let here = routed(input, p, me);
                    let origins: Vec<u64> = here.iter().map(|&(r, i)| encode_index(r, i)).collect();
                    assert_eq!(s.routed, origins, "{what}: rank {me} alltoall_specific");
                    let a: Vec<u64> = here.iter().map(|&(r, i)| payload(r, i, 1)).collect();
                    let b: Vec<u64> = here.iter().map(|&(r, i)| payload(r, i, 2) >> 2).collect();
                    assert_eq!(s.planes, (a, b), "{what}: rank {me} resort_planes");
                    // Record i of this rank lives at its place in its
                    // target's routed list.
                    for (i, &ix) in s.indices.iter().enumerate() {
                        let (t, pos) = decode_index(ix);
                        assert_eq!(t, target(input, p, me, i), "{what}: rank {me} record {i}");
                        assert_eq!(
                            routed(input, p, t)[pos],
                            (me, i),
                            "{what}: rank {me} index {i}"
                        );
                    }
                    assert_eq!(s.indices.len(), len(input, me), "{what}: rank {me} indices");
                    keys.extend(&s.sorted.0);
                    values.extend(&s.sorted.1);

                    // What leaves the rank is what it addresses elsewhere.
                    let away = (0..len(input, me)).filter(|&i| target(input, p, me, i) != me);
                    let away = away.count() as u64;
                    assert_eq!(
                        s.traffic[0].1,
                        8 * away,
                        "{what}: rank {me} alltoall_specific bytes"
                    );
                    if input == Input::AllLocal {
                        assert_eq!(s.traffic, [(0, 0); 4], "{what}: rank {me} sent its own block");
                    }
                }
                let want: (Vec<u64>, Vec<u64>) = gathered.iter().copied().unzip();
                assert_eq!((keys, values), want, "{what}: partition_sort_by_key");
            }
        }
    }
}
