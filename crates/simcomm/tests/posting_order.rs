//! The posting rule of the point-to-point exchanges: every rank posts its
//! sends to the partners above itself first, then wraps around to the rest
//! (`(q - me) mod P` on a sorted list, MPI's pairwise schedule).
//!
//! Two things are checked. The rule spreads arrivals: on a periodic grid no
//! rank is every neighbour's last destination, so equal exchanges finish at
//! nearly equal clocks. And it moves nothing but time: whatever
//! `neighbor_exchange`, `routed_exchange_into` and `sparse_exchange`
//! receive is what the collective all-to-all-v delivers, bit for bit and in
//! the same per-source order — repeated destinations included.

mod common;

use common::splitmix64;
use simcomm::{CartGrid, Comm, MachineModel, Runner};

/// Max over min of a set of positive virtual times.
fn spread(times: &[f64]) -> f64 {
    let max = times.iter().copied().fold(f64::MIN, f64::max);
    let min = times.iter().copied().fold(f64::MAX, f64::min);
    max / min
}

#[test]
fn shifted_posting_spreads_arrivals() {
    // 64 ranks on a periodic 4x4x4 grid, 26 partners each, 2 KiB to every
    // partner. In ascending rank order rank 63 is the last destination of
    // all its neighbours, and the slowest rank takes 1.28x the fastest.
    let out = Runner::default().run(64, MachineModel::juropa_like(), |comm| {
        let me = comm.rank();
        let partners = CartGrid::balanced(comm.size()).neighbors26(me);
        assert_eq!(partners.len(), 26);
        let data = || partners.iter().map(|&q| (q, vec![me as u64; 256])).collect();
        let t0 = comm.clock();
        let got = comm.neighbor_exchange(&partners, data(), 8);
        assert_eq!(got.len(), 26);
        let dense = comm.clock() - t0;
        // Equal entry clocks for the second exchange.
        comm.barrier();
        let t1 = comm.clock();
        let (mut sends, mut got) = (data(), Vec::new());
        comm.routed_exchange_into(partners.iter().copied(), &mut sends, &mut got, 9);
        assert_eq!(got.len(), 26);
        (dense, comm.clock() - t1)
    });
    let (dense, routed): (Vec<f64>, Vec<f64>) = out.results.iter().copied().unzip();
    for (what, times) in [("neighbor_exchange", &dense), ("routed_exchange_into", &routed)] {
        let ratio = spread(times);
        assert!(ratio <= 1.05, "{what}: slowest over fastest rank {ratio:.3}, want <= 1.05");
    }
    let ratio = spread(&out.clocks);
    assert!(ratio <= 1.05, "final clocks: slowest over fastest rank {ratio:.3}, want <= 1.05");
}

/// Payload of the `k`-th buffer rank `src` sends to `dst` in round `round`:
/// every element says where it came from.
fn payload(src: usize, dst: usize, round: usize, k: u64, len: u64) -> Vec<u64> {
    let tag = ((src as u64) << 48) | ((dst as u64) << 32) | ((round as u64) << 24) | (k << 16);
    (0..len).map(|i| tag | i).collect()
}

/// The partners of rank `me` in round `round`: the periodic 26-neighbourhood
/// in even rounds, a random symmetric relation (each pair linked with
/// probability 1/3, drawn from the pair alone) in odd ones. Sorted, without
/// `me`.
fn partners(seed: u64, me: usize, p: usize, round: usize) -> Vec<usize> {
    if round.is_multiple_of(2) {
        return CartGrid::balanced(p).neighbors26(me);
    }
    let linked = |q: usize| {
        let (a, b) = (me.min(q) as u64, me.max(q) as u64);
        splitmix64(seed ^ ((round as u64) << 40) ^ (a << 20) ^ b).is_multiple_of(3)
    };
    (0..p).filter(|&q| q != me && linked(q)).collect()
}

/// Per round: what each exchange path received, then what the oracle did.
type Round = [Vec<(usize, Vec<u64>)>; 2];

/// One rank's rounds: the same data through `neighbor_exchange`,
/// `routed_exchange_into` and `alltoallv`, then a sparse round — some partners get
/// nothing, some an empty buffer, some two buffers, in shuffled list order —
/// through `sparse_exchange` and `alltoallv`.
fn program(seed: u64, rounds: usize) -> impl Fn(&mut Comm) -> Vec<Round> + Send + Sync {
    move |comm| {
        let (me, p) = (comm.rank(), comm.size());
        let mut state = splitmix64(seed ^ me as u64);
        let mut draw = |n: u64| {
            state = splitmix64(state);
            state % n
        };
        let mut out = Vec::new();
        for round in 0..rounds {
            let list = partners(seed, me, p, round);
            let lens: Vec<u64> =
                list.iter().map(|_| if draw(4) == 0 { 0 } else { draw(9) }).collect();
            let data: Vec<(usize, Vec<u64>)> = list
                .iter()
                .zip(&lens)
                .map(|(&q, &len)| (q, payload(me, q, round, 0, len)))
                .collect();

            // Dense: every partner gets a message, empty or not.
            let dense = comm.neighbor_exchange(&list, data.clone(), round as u64);
            assert_eq!(dense.iter().map(|(src, _)| *src).collect::<Vec<_>>(), list);
            let (mut sends, mut routed) = (data.clone(), Vec::new());
            comm.routed_exchange_into(list.clone(), &mut sends, &mut routed, 1000 + round as u64);
            assert!(sends.is_empty());
            assert_eq!(
                routed, dense,
                "rank {me} round {round}: routed_exchange_into vs neighbor_exchange"
            );
            let nonempty = |got: Vec<(usize, Vec<u64>)>| -> Vec<(usize, Vec<u64>)> {
                got.into_iter().filter(|(_, buf)| !buf.is_empty()).collect()
            };
            out.push([nonempty(dense), comm.alltoallv(data)]);

            // Sparse, with repeated destinations in shuffled order: one
            // partner always gets two buffers, others by draw.
            let mut sends = Vec::new();
            let twice = (me + round) % list.len().max(1);
            for (k, &q) in list.iter().enumerate() {
                match if k == twice { 2 } else { draw(4) } {
                    0 => {}
                    1 => sends.push((q, Vec::new())),
                    2 => {
                        sends.push((q, payload(me, q, round, k as u64, 1 + draw(4))));
                        sends.push((q, payload(me, q, round, k as u64 + 100, 1 + draw(4))));
                    }
                    _ => sends.push((q, payload(me, q, round, k as u64, 1 + draw(6)))),
                }
            }
            for i in (1..sends.len()).rev() {
                sends.swap(i, draw(i as u64 + 1) as usize);
            }
            out.push([comm.sparse_exchange(&list, sends.clone()), comm.alltoallv(sends)]);
        }
        out
    }
}

#[test]
fn every_exchange_path_receives_what_alltoallv_delivers() {
    for p in [1usize, 2, 3, 5, 8, 27, 64] {
        for model in [MachineModel::juropa_like(), MachineModel::juqueen_like()] {
            let out = Runner::default().run(p, model.clone(), program(0x9a1d + p as u64, 6));
            let (mut messages, mut repeated) = (0, 0);
            for (rank, rounds) in out.results.iter().enumerate() {
                for (i, [got, oracle]) in rounds.iter().enumerate() {
                    assert_eq!(got, oracle, "p={p} {} rank {rank} exchange {i}", model.name);
                    messages += got.len();
                    repeated += got.windows(2).filter(|w| w[0].0 == w[1].0).count();
                }
            }
            assert!(p == 1 || messages > 6 * p, "p={p}: the patterns must carry traffic");
            assert!(p == 1 || repeated > 0, "p={p}: some source must send twice");
        }
    }
}
