//! The sparse data exchange (`Comm::sparse_exchange`, the NBX protocol)
//! against its oracle, the collective all-to-all-v: the same payload bits in
//! the same per-source order, whatever the sparsity — random patterns,
//! all-empty rounds, one rank sending to every partner, ranks that never
//! send, asymmetric partner lists, non-power-of-two worlds — on typed and
//! pooled byte buffers, by value and into kept vectors. Then its cost model
//! in closed form, its frozen clocks and statistics at every host width, and
//! its failure behaviour.

mod common;

use common::{assert_halves, splitmix64};
use simcomm::{CartGrid, Comm, MachineModel, Runner, TraceKind, WorldError};

/// What one rank received in one round: `(source, payload)` pairs.
type Got = Vec<(usize, Vec<u64>)>;

/// Where rank `me` of `p` may send in round `round`: an asymmetric forward
/// ring (`me + 1`, `me + 2`, `me + 5`) in even rounds, the 26-neighbourhood
/// of the balanced grid in odd ones.
fn partners(me: usize, p: usize, round: usize) -> Vec<usize> {
    let mut list: Vec<usize> = if round.is_multiple_of(2) {
        [1, 2, 5].iter().map(|d| (me + d) % p).collect()
    } else {
        CartGrid::balanced(p).neighbors26(me)
    };
    list.retain(|&q| q != me);
    list.sort_unstable();
    list.dedup();
    list
}

/// This round's sends of rank `me`, by the round's shape: random sparsity
/// (a third of the partners get data, some twice, some an empty buffer),
/// nothing at all, one rank to every partner, and random sparsity with every
/// third rank silent.
fn sends(seed: u64, me: usize, p: usize, round: usize) -> Vec<(usize, Vec<u64>)> {
    let mut state = splitmix64(seed ^ ((round as u64) << 32) ^ me as u64);
    let mut draw = |n: u64| {
        state = splitmix64(state);
        state % n
    };
    let payload = |dst: usize, k: u64, len: u64| -> Vec<u64> {
        (0..len).map(|i| ((me as u64) << 40) | ((dst as u64) << 20) | (k << 10) | i).collect()
    };
    let list = partners(me, p, round);
    let mut out = Vec::new();
    match round % 4 {
        1 => {}
        2 => {
            if me == round % p {
                out.extend(list.iter().map(|&q| (q, payload(q, 0, 1 + draw(6)))));
            }
        }
        shape => {
            if shape == 3 && me.is_multiple_of(3) {
                return out;
            }
            for (k, &q) in list.iter().enumerate() {
                match draw(6) {
                    0 | 1 => out.push((q, payload(q, k as u64, 1 + draw(9)))),
                    2 => {
                        out.push((q, payload(q, k as u64, 1 + draw(4))));
                        out.push((q, payload(q, k as u64 + 100, 1 + draw(4))));
                    }
                    3 => out.push((q, Vec::new())),
                    _ => {}
                }
            }
        }
    }
    out
}

/// The pooled-buffer form of a round's sends. Empty buffers go straight back
/// to the pool: they are not messages.
fn byte_sends(comm: &mut Comm, typed: &[(usize, Vec<u64>)]) -> Vec<(usize, Vec<u8>)> {
    let mut sends = Vec::new();
    for (dst, data) in typed {
        let mut buf = comm.buf_acquire(*dst, data.len() * 8);
        buf.extend(data.iter().flat_map(|x| x.to_le_bytes()));
        sends.push((*dst, buf));
    }
    for (dst, buf) in sends.extract_if(.., |(_, buf)| buf.is_empty()) {
        comm.buf_release(dst, buf);
    }
    sends
}

/// What arrived on the byte path, as `u64` payloads; the buffers go back to
/// the pool keyed by their source.
fn unpack(comm: &mut Comm, got: &mut Vec<(usize, Vec<u8>)>) -> Got {
    got.drain(..)
        .map(|(src, buf)| {
            let words = buf.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().unwrap()));
            let words = words.collect();
            comm.buf_release(src, buf);
            (src, words)
        })
        .collect()
}

/// Every round twice, as the sparse exchange and as its oracle — typed in
/// rounds `0, 1 (mod 3)`, bytes in the others — with compute between rounds
/// so the ranks enter at different clocks. Returns `(sparse, oracle)` per
/// round.
fn program(seed: u64, rounds: usize) -> impl Fn(&mut Comm) -> Vec<(Got, Got)> + Send + Sync {
    move |comm| {
        let (me, p) = (comm.rank(), comm.size());
        let mut out = Vec::new();
        let (mut staged, mut got) = (Vec::new(), Vec::new());
        for round in 0..rounds {
            comm.compute(simcomm::Work::ParticleOp, (splitmix64(seed ^ me as u64) % 300) as f64);
            let list = partners(me, p, round);
            let mine = sends(seed, me, p, round);
            if round % 3 == 2 {
                staged = byte_sends(comm, &mine);
                comm.sparse_exchange_into(&list, &mut staged, &mut got);
                let sparse = unpack(comm, &mut got);
                staged = byte_sends(comm, &mine);
                comm.alltoallv_into(&mut staged, &mut got);
                out.push((sparse, unpack(comm, &mut got)));
            } else {
                let sparse = comm.sparse_exchange(&list, mine.clone());
                out.push((sparse, comm.alltoallv(mine)));
            }
        }
        assert!(staged.is_empty());
        out
    }
}

/// Every round as the sparse exchange and as its oracle, typed, either by
/// value or through `sparse_exchange_into` / `alltoallv_into` with one pair
/// of `sends` / received vectors kept across all rounds — while the partner
/// sets change, with empty buffers and repeated destinations.
fn kept_program(seed: u64, rounds: usize, kept: bool) -> impl Fn(&mut Comm) -> Vec<(Got, Got)> {
    move |comm| {
        let (me, p) = (comm.rank(), comm.size());
        let mut out = Vec::new();
        let (mut staged, mut got) = (Vec::new(), Vec::new());
        for round in 0..rounds {
            comm.compute(simcomm::Work::ParticleOp, (splitmix64(seed ^ me as u64) % 300) as f64);
            let list = partners(me, p, round);
            let mine = sends(seed, me, p, round);
            if kept {
                staged.extend(mine.iter().cloned());
                comm.sparse_exchange_into(&list, &mut staged, &mut got);
                let sparse = got.clone();
                staged.extend(mine);
                comm.alltoallv_into(&mut staged, &mut got);
                assert!(staged.is_empty(), "the kept sends are drained");
                out.push((sparse, got.clone()));
            } else {
                let sparse = comm.sparse_exchange(&list, mine.clone());
                out.push((sparse, comm.alltoallv(mine)));
            }
        }
        out
    }
}

#[test]
fn sparse_exchange_is_alltoallv_on_payload_bits() {
    for p in [1usize, 2, 3, 7, 12, 27, 64] {
        for model in [MachineModel::juropa_like(), MachineModel::juqueen_like()] {
            let out = Runner::default().run(p, model.clone(), program(0x5ba5 + p as u64, 12));
            let mut messages = 0;
            for (rank, rounds) in out.results.iter().enumerate() {
                for (round, (sparse, oracle)) in rounds.iter().enumerate() {
                    assert_eq!(sparse, oracle, "p={p} rank {rank} round {round}");
                    messages += sparse.len();
                }
            }
            assert!(p == 1 || messages > p, "p={p}: the patterns must carry traffic");

            // Kept vectors change nothing: payloads, clocks and statistics
            // are those of the by-value forms.
            let seed = 0x4e97 + p as u64;
            let by_value = Runner::default().run(p, model.clone(), kept_program(seed, 8, false));
            let kept = Runner::default().run(p, model.clone(), kept_program(seed, 8, true));
            assert_eq!(kept.results, by_value.results, "p={p}: kept vs by-value payloads");
            for (rank, rounds) in kept.results.iter().enumerate() {
                for (round, (sparse, oracle)) in rounds.iter().enumerate() {
                    assert_eq!(sparse, oracle, "p={p} rank {rank} kept round {round}");
                }
            }
            let bits = |c: &[f64]| c.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&kept.clocks), bits(&by_value.clocks), "p={p}: clocks");
            assert_eq!(kept.stats, by_value.stats, "p={p}: statistics");
        }
    }
}

#[test]
fn sparse_exchange_matches_frozen_digests_at_every_width() {
    // Captured when the sparse exchange was introduced, as one digest over
    // clocks, statistics, traces and phase profiles of the oracle program,
    // traced. Split into its payload and timing halves (`common::halves`) at
    // commit `42d7aab`; the timing halves were re-frozen once when every
    // exchange began posting to the partners above the sender first.
    for (p, want) in [
        (12usize, [0x740d_6872_bef2_388c, 0xc8cb_f5e3_d257_7465]),
        (7, [0x854c_83d4_ffc6_3160, 0x0519_9c2b_2b8b_80fb]),
    ] {
        let model =
            if p == 12 { MachineModel::juropa_like() } else { MachineModel::juqueen_like() };
        for width in [1, 2, 8, p] {
            let runner = Runner::default().traced(true).host_parallelism(width);
            let out = runner.run(p, model.clone(), program(0xd1e5 ^ p as u64, 8));
            assert_halves(&out, want, &format!("p={p} width {width}"));
        }
    }
}

#[test]
fn an_all_empty_round_costs_the_barrier_after_the_slowest_entrant() {
    for (p, model) in [(13usize, MachineModel::juropa_like()), (64, MachineModel::juqueen_like())] {
        let out = Runner::default().run(p, model.clone(), |comm| {
            // Dyadic clocks, so every difference below is exact.
            comm.advance(((comm.rank() * 37) % 11) as f64 * 0.5f64.powi(20));
            let before = comm.clock();
            let list = partners(comm.rank(), comm.size(), 0);
            let got = comm.sparse_exchange::<u8>(&list, vec![(list[0], Vec::new())]);
            assert!(got.is_empty());
            (before, comm.clock())
        });
        let (before, after): (Vec<f64>, Vec<f64>) = out.results.iter().copied().unzip();
        let slowest = before.iter().copied().fold(0.0, f64::max);
        let barrier = model.barrier_time(p);
        for (rank, &t) in after.iter().enumerate() {
            assert_eq!(t.to_bits(), (slowest + barrier).to_bits(), "p={p} rank {rank}");
        }
        for (rank, s) in out.stats.iter().enumerate() {
            assert_eq!((s.p2p_sent_msgs, s.p2p_recv_msgs, s.coll_ops), (0, 0, 1), "rank {rank}");
        }
    }
}

#[test]
fn one_message_costs_its_post_match_barrier_and_receive() {
    let model = MachineModel::juropa_like();
    let bytes = 4096u64;
    let out = Runner::default().run(4, model.clone(), move |comm| {
        let sends = if comm.rank() == 0 { vec![(1, vec![0u8; bytes as usize])] } else { vec![] };
        let got = comm.sparse_exchange(&[(comm.rank() + 1) % 4], sends);
        (comm.clock(), got.len())
    });
    let (after, got): (Vec<f64>, Vec<usize>) = out.results.iter().copied().unzip();
    assert_eq!(got, [0, 1, 0, 0]);
    let (o, latency) = (model.p2p_overhead, model.wire_latency(1));
    // Post at `o`, depart after the NIC occupancy, match after the wire and
    // the acknowledgement, then the barrier; the receiver pays `o` more.
    let matched = (o + model.nic_occupancy(bytes)) + latency + latency;
    let entry = o + (matched - o);
    let done = entry + model.barrier_time(4);
    assert_eq!(after[0].to_bits(), done.to_bits());
    assert_eq!(after[1].to_bits(), (done + o).to_bits());
    assert_eq!(after[2].to_bits(), done.to_bits());
}

#[test]
fn a_target_outside_the_partner_list_panics_before_anything_is_posted() {
    let out = Runner::default().run(4, MachineModel::juropa_like(), |comm| {
        let (me, p) = (comm.rank(), comm.size());
        let right = (me + 1) % p;
        if me == 1 {
            // A good target first: had it been posted before the check, it
            // would count as sent.
            let bad = vec![(right, vec![1u8]), ((me + 2) % p, vec![2u8])];
            let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                comm.sparse_exchange(&[right], bad)
            }));
            let message = refused.err().and_then(|e| e.downcast_ref::<String>().cloned());
            assert!(message.is_some_and(|m| m.contains("not in the partner list")));
            assert_eq!(comm.stats().p2p_sent_msgs, 0, "nothing may be posted");
        }
        // The world goes on: the refused call entered no barrier.
        comm.sparse_exchange(&[right], vec![(right, vec![me as u8])])
    });
    for (rank, got) in out.results.iter().enumerate() {
        assert_eq!(got, &[((rank + 3) % 4, vec![((rank + 3) % 4) as u8])]);
    }
}

#[test]
fn rank_panic_between_sparse_exchanges_unwinds_every_rank() {
    for width in [1, 2] {
        let err = Runner::default()
            .host_parallelism(width)
            .try_run(5, MachineModel::juqueen_like(), |comm| {
                let next = (comm.rank() + 1) % 5;
                let got = comm.sparse_exchange(&[next], vec![(next, vec![comm.rank() as u32; 3])]);
                if comm.rank() == 1 {
                    panic!("rank 1 gives up between the exchanges");
                }
                let back = got.into_iter().map(|(_, data)| (next, data)).collect();
                comm.sparse_exchange(&[next], back);
            })
            .err()
            .expect("a panicking rank must fail the world");
        match err {
            WorldError::RankPanic { rank, ref message } => {
                assert_eq!(rank, 1, "width {width}: {err}");
                assert!(message.contains("gives up"), "width {width}: {err}");
            }
            other => panic!("width {width}: expected the rank panic, got {other}"),
        }
    }
}

#[test]
fn every_message_is_posted_completed_and_received_once() {
    let out = Runner::default().traced(true).run(7, MachineModel::juqueen_like(), program(3, 6));
    for (rank, trace) in out.traces.iter().enumerate() {
        let count = |kind| trace.events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(TraceKind::SparseExchange), 6, "rank {rank}: one record per round");
        assert_eq!(count(TraceKind::Isend), count(TraceKind::Wait), "rank {rank}");
        let received: usize = out.results[rank].iter().map(|(sparse, _)| sparse.len()).sum();
        assert_eq!(count(TraceKind::Recv), received, "rank {rank}");
    }
    let posted: usize =
        out.traces.iter().flat_map(|t| &t.events).filter(|e| e.kind == TraceKind::Isend).count();
    let received: usize = out.results.iter().flatten().map(|(sparse, _)| sparse.len()).sum();
    assert_eq!(posted, received);
}
