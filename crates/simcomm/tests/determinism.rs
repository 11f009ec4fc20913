//! The determinism contract of the one execution engine: results, clocks
//! (bit for bit), statistics, traces and phase profiles are pure functions of
//! the program — for clean and faulted worlds alike, at any host width.
//!
//! Each seeded program's complete output is folded into a 64-bit digest and
//! compared with a frozen constant. The constants are the oracle the deleted
//! thread-per-rank engine used to provide: they were captured from the
//! `Threaded` variant of `simcomm::Engine` at commit `cf18bdf` (the last one
//! carrying it) by running this file there with every `Runner::default()`
//! replaced by a `Runner::new` of that variant and copying the digest each
//! failing assertion printed. A digest may only change together with an
//! intended change of the cost model or the accounting.
//!
//! Each digest is now two, a *payload* and a *timing* half
//! (`common::halves`), so a change that moves only virtual time shows as
//! exactly that. The payload halves were captured at commit `42d7aab`, where
//! the single digests above still held. Posting each exchange's sends to the
//! partners above the sender first re-froze the timing halves of the worlds
//! whose exchanges have such partners once; every payload half stayed.

mod common;

use common::{assert_halves as assert_frozen, digest, splitmix64};
use simcomm::{
    CartGrid, Comm, FaultPlan, MachineModel, RunOutput, Runner, StallSpec, TraceEvent, TraceKind,
    Work, WorldError,
};

/// Assert two run outputs are bitwise identical in every observable
/// dimension. Clocks are compared through their bit patterns — `assert_eq!`
/// on `f64` would accept `-0.0 == 0.0` and this contract is stricter.
fn assert_bitwise_identical<R: PartialEq + std::fmt::Debug>(
    a: &RunOutput<R>,
    b: &RunOutput<R>,
    what: &str,
) {
    assert_eq!(a.results, b.results, "{what}: results diverge");
    let abits: Vec<u64> = a.clocks.iter().map(|c| c.to_bits()).collect();
    let bbits: Vec<u64> = b.clocks.iter().map(|c| c.to_bits()).collect();
    assert_eq!(abits, bbits, "{what}: clocks diverge (bitwise)");
    assert_eq!(a.stats, b.stats, "{what}: stats diverge");
    for (rank, (ta, tb)) in a.traces.iter().zip(&b.traces).enumerate() {
        let ea: &[TraceEvent] = &ta.events;
        let eb: &[TraceEvent] = &tb.events;
        assert_eq!(ea, eb, "{what}: trace of rank {rank} diverges");
        assert_eq!(ta.spans, tb.spans, "{what}: clock spans of rank {rank} diverge");
    }
    for (rank, (pa, pb)) in a.phases.iter().zip(&b.phases).enumerate() {
        assert_eq!(pa.phases, pb.phases, "{what}: phase stats of rank {rank} diverge");
    }
}

/// A seeded mixed-workload program: per-step neighbour exchanges on a
/// Cartesian grid, ring sendrecvs, nonblocking batches drained with waitall,
/// sparse alltoallv, collectives and modelled compute — every yield point the
/// engines implement, with message sizes drawn from the seed.
fn mixed_program(seed: u64, steps: usize) -> impl Fn(&mut simcomm::Comm) -> Vec<u64> + Send + Sync {
    move |comm| {
        let n = comm.size();
        let rank = comm.rank();
        let grid = CartGrid::balanced(n);
        let partners = grid.neighbors26(rank);
        let mut acc: Vec<u64> = vec![rank as u64];
        for step in 0..steps {
            let r = splitmix64(seed ^ (step as u64) << 16 ^ rank as u64);
            comm.with_phase("compute", |c| c.compute(Work::ParticleOp, (r % 500) as f64));

            // Ring exchange (blocking send/recv pair).
            let right = (rank + 1) % n;
            let left = (rank + n - 1) % n;
            let got = comm.sendrecv(right, vec![r, step as u64], left, 1);
            acc.push(got[0]);

            // Nonblocking neighbourhood exchange, drained in arrival order.
            let data: Vec<(usize, Vec<u64>)> = partners
                .iter()
                .map(|&p| {
                    let len = (splitmix64(r ^ p as u64) % 64) as usize;
                    (p, vec![r; len])
                })
                .collect();
            let recvd = comm.with_phase("exchange", |c| c.neighbor_exchange(&partners, data, 2));
            acc.push(recvd.iter().map(|(src, v)| *src as u64 + v.len() as u64).sum());

            // Sparse all-to-all-v: a few random destinations.
            let sends: Vec<(usize, Vec<u64>)> = (0..3)
                .map(|k| {
                    let dst = (splitmix64(r ^ k) % n as u64) as usize;
                    (dst, vec![rank as u64; (k + 1) as usize])
                })
                .collect();
            let got = comm.alltoallv(sends);
            acc.push(got.iter().map(|(src, v)| *src as u64 * v.len() as u64).sum());

            // Collectives.
            let sum = comm.allreduce(r % 97, |a, b| a.wrapping_add(b));
            let off = comm.exscan(1u64, 0, |a, b| a + b);
            acc.push(sum + off);
            if step % 2 == 0 {
                comm.barrier();
            }
        }
        acc
    }
}

fn runner() -> Runner {
    Runner::default().traced(true)
}

/// The batch widths every frozen digest is checked at: strictly one rank at
/// a time, two, more than this suite's hosts have cores, and the whole world
/// at once.
fn widths(p: usize) -> [usize; 4] {
    [1, 2, 8, p]
}

#[test]
fn mixed_program_matches_frozen_digests_juropa() {
    for (seed, want) in [
        (1u64, [0xd562_c4fd_c702_e9c4, 0x8c11_c117_25da_d0a8]),
        (2, [0xc01b_0126_c597_f3ba, 0x704d_5f1f_7f45_30e3]),
        (3, [0x7008_fe34_f949_3062, 0x0435_8374_302c_cf27]),
    ] {
        for width in widths(12) {
            let runner = runner().host_parallelism(width);
            let out = runner.run(12, MachineModel::juropa_like(), mixed_program(seed, 3));
            assert_frozen(&out, want, &format!("juropa seed {seed} width {width}"));
        }
    }
}

#[test]
fn mixed_program_matches_frozen_digests_juqueen() {
    for (seed, want) in [
        (7u64, [0x48a7_4ad6_48cc_8bdc, 0xdb45_66bf_afdd_e04a]),
        (11, [0x455a_e865_c35a_5b37, 0x0630_f0b9_7b6d_a2be]),
    ] {
        for width in widths(16) {
            let runner = runner().host_parallelism(width);
            let out = runner.run(16, MachineModel::juqueen_like(), mixed_program(seed, 3));
            assert_frozen(&out, want, &format!("juqueen seed {seed} width {width}"));
        }
    }
}

#[test]
fn faulted_mixed_program_matches_frozen_digest() {
    let fault = FaultPlan {
        seed: 42,
        latency_spike_prob: 0.1,
        latency_spike_seconds: 30e-6,
        send_loss_prob: 0.1,
        retry_backoff_seconds: 5e-6,
        straggler_ranks: vec![1],
        straggler_factor: 1.5,
        stall: Some(StallSpec { rank: 2, after_ops: 10, seconds: 1e-3 }),
        wait_timeout_seconds: Some(1e-4),
        ..FaultPlan::none()
    };
    for width in widths(12) {
        let runner = runner().faulted(fault.clone()).host_parallelism(width);
        let out = runner.run(12, MachineModel::juropa_like(), mixed_program(5, 3));
        assert_frozen(
            &out,
            [0x32ed_4f3a_d313_a492, 0xa4d8_8bb9_1986_b860],
            &format!("faulted world width {width}"),
        );
        assert!(out.stats.iter().any(|s| s.faults_injected > 0), "fault plan must actually fire");
    }
}

#[test]
fn large_world_matches_frozen_digest() {
    // Collectives + a ring exchange at 4096 ranks, a count the thread-per-rank
    // engine only reached slowly (its digest was captured there all the same).
    for width in widths(4096) {
        let runner = Runner::default().host_parallelism(width);
        let out = runner.run(4096, MachineModel::juqueen_like(), |comm| {
            let n = comm.size();
            let right = (comm.rank() + 1) % n;
            let left = (comm.rank() + n - 1) % n;
            let got = comm.sendrecv(right, vec![comm.rank() as u64], left, 0);
            comm.allreduce(got[0], |a, b| a + b)
        });
        let expect: u64 = (0..4096u64).sum();
        assert!(out.results.iter().all(|&s| s == expect));
        assert!(out.makespan() > 0.0);
        assert_frozen(
            &out,
            [0x0ceb_542b_6b86_fbbe, 0x87ef_00d9_d2bd_da0e],
            &format!("4096-rank smoke width {width}"),
        );
    }
}

/// A seeded byte-path program: neighbourhood exchanges and sparse
/// all-to-alls of byte buffers that flow through the rank's buffer pool.
fn byte_path_program(
    seed: u64,
    steps: usize,
) -> impl Fn(&mut simcomm::Comm) -> Vec<u64> + Send + Sync {
    move |comm| {
        let n = comm.size();
        let rank = comm.rank();
        let grid = CartGrid::balanced(n);
        let partners = grid.neighbors26(rank);
        let mut acc: Vec<u64> = vec![rank as u64];
        let mut sends: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut recvd: Vec<(usize, Vec<u8>)> = Vec::new();
        for step in 0..steps {
            let r = splitmix64(seed ^ (step as u64) << 16 ^ rank as u64);
            comm.with_phase("compute", |c| c.compute(Work::ParticleOp, (r % 300) as f64));

            // Pooled neighbourhood exchange; received buffers go back to the
            // pool keyed by their source, closing the reuse loop.
            let data: Vec<_> = partners
                .iter()
                .map(|&p| {
                    let len = (splitmix64(r ^ p as u64) % 256) as usize;
                    let mut buf = comm.buf_acquire(p, len);
                    buf.resize(len, (r % 251) as u8);
                    (p, buf)
                })
                .collect();
            let got = comm.neighbor_exchange(&partners, data, 7);
            acc.push(got.iter().map(|(src, b)| *src as u64 + b.len() as u64).sum());
            for (src, buf) in got {
                comm.buf_release(src, buf);
            }

            // Sparse byte all-to-all-v with a few random destinations —
            // including the occasional empty buffer, which goes back to the
            // pool without being sent.
            for k in 0..3u64 {
                let dst = (splitmix64(r ^ k) % n as u64) as usize;
                let len = (splitmix64(r ^ k ^ 0xabcd) % 97) as usize;
                let mut buf = comm.buf_acquire(dst, len);
                buf.resize(len, k as u8);
                sends.push((dst, buf));
            }
            release_empty(comm, &mut sends);
            comm.alltoallv_into(&mut sends, &mut recvd);
            acc.push(recvd.iter().map(|(src, b)| *src as u64 * b.len() as u64).sum());
            for (src, buf) in recvd.drain(..) {
                comm.buf_release(src, buf);
            }
        }
        acc
    }
}

/// Return the empty buffers among `sends` to the pool: they are not
/// messages, and the pool counters are part of every digest.
fn release_empty(comm: &mut Comm, sends: &mut Vec<(usize, Vec<u8>)>) {
    for (dst, buf) in sends.extract_if(.., |(_, buf)| buf.is_empty()) {
        comm.buf_release(dst, buf);
    }
}

#[test]
fn pooled_byte_path_matches_frozen_digest() {
    // Pooling is pure memory management. The digest, pool counters
    // included, was captured while an allocate-per-exchange mode of the pool
    // still existed and ran bitwise-identical to it but for those counters.
    let f = byte_path_program(17, 3);
    for width in widths(12) {
        let out = runner().host_parallelism(width).run(12, MachineModel::juropa_like(), &f);
        assert_frozen(
            &out,
            [0x2ee9_d33c_4371_aefc, 0x7cff_6a7c_6dde_2a09],
            &format!("pooled byte path width {width}"),
        );
        // The pool must actually have engaged, or the test is vacuous.
        assert!(out.stats.iter().any(|s| s.bytes_reused > 0), "the pool never reused a buffer");
    }
}

#[test]
fn alltoallv_empty_partner_buffers_are_not_messages() {
    // The sparse fast path: a zero-length partner buffer in `alltoallv` must
    // be observationally identical to omitting that partner entirely — no
    // message, no bytes, no statistics, no trace deposit. Run the same
    // exchange once with explicit empty buffers for every non-partner and
    // once with only the real partners, and diff everything.
    let n = 8;
    let program = |padded: bool| {
        move |comm: &mut simcomm::Comm| {
            let rank = comm.rank();
            let n = comm.size();
            let mut sends: Vec<(usize, Vec<u64>)> = Vec::new();
            for dst in 0..n {
                let real = dst == (rank + 1) % n || dst == (rank + 3) % n;
                if real {
                    sends.push((dst, vec![rank as u64; 5]));
                } else if padded {
                    sends.push((dst, Vec::new()));
                }
            }
            let got = comm.alltoallv(sends);
            got.iter().map(|(src, v)| *src as u64 + v.iter().sum::<u64>()).collect::<Vec<u64>>()
        }
    };
    let padded = runner().run(n, MachineModel::juqueen_like(), program(true));
    let sparse = runner().run(n, MachineModel::juqueen_like(), program(false));
    let what = "padded vs sparse alltoallv";
    assert_bitwise_identical(&padded, &sparse, what);

    // Direct accounting: exactly the two real partners became messages,
    // and the trace records only their bytes.
    for (rank, s) in padded.stats.iter().enumerate() {
        assert_eq!(s.p2p_sent_msgs, 2, "{what}: rank {rank} sent wrong message count");
        assert_eq!(s.p2p_sent_bytes, 2 * 5 * 8, "{what}: rank {rank} sent wrong bytes");
    }
    for (rank, trace) in padded.traces.iter().enumerate() {
        let a2a: Vec<&TraceEvent> =
            trace.events.iter().filter(|e| e.kind == TraceKind::Alltoallv).collect();
        assert_eq!(a2a.len(), 1, "{what}: rank {rank} should trace one alltoallv");
        assert_eq!(a2a[0].bytes, 2 * 5 * 8, "{what}: rank {rank} traced empty-buffer bytes");
    }
}

#[test]
fn run_panics_on_virtual_deadlock() {
    // Rank 1 waits for a message nobody sends: the scheduler must detect that
    // no task is runnable and fail the world with a diagnostic, not hang.
    let result = std::panic::catch_unwind(|| {
        Runner::default().run(2, MachineModel::ideal(), |comm| {
            if comm.rank() == 1 {
                let _: Vec<u8> = comm.recv(0, 99);
            }
        })
    });
    let err = match result {
        Ok(_) => panic!("deadlocked world must panic"),
        Err(e) => e,
    };
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload should be the world failure message");
    assert!(msg.contains("virtual deadlock"), "unexpected panic message: {msg}");
}

#[test]
fn mutual_recv_reports_every_rank_live_without_a_secondary_panic() {
    // Three ranks each wait on a neighbour that never sends. The rank whose
    // block completes the deadlock reports it while still accounted as
    // running; at the parent it was retired twice (`running` underflowed in
    // `Scheduler::retire`). A panic outside a rank body resurfaces from
    // `try_run`, so the `Err` below also proves there was none.
    let err = Runner::default()
        .try_run(3, MachineModel::ideal(), |comm| {
            let _: Vec<u8> = comm.recv((comm.rank() + 1) % 3, 7);
        })
        .err()
        .expect("mutual receives must deadlock");
    assert!(matches!(err, WorldError::VirtualDeadlock { live: 3, .. }), "unexpected error: {err}");
}

/// Back-to-back collectives of alternating types with no point-to-point in
/// between: every collective entry point, each entered while the previous
/// one's result may still be unread by slower ranks.
fn collectives_program(comm: &mut simcomm::Comm) -> Vec<u64> {
    /// How received byte buffers rendered when this digest was captured:
    /// the `Debug` text of the pooled buffer type of the time.
    #[derive(Debug)]
    struct PooledBuf<'a>(#[allow(dead_code)] &'a [u8]);

    let n = comm.size();
    let rank = comm.rank();
    let mut acc: Vec<u64> = Vec::new();
    let mut sends_b: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut recvd_b: Vec<(usize, Vec<u8>)> = Vec::new();
    for step in 0..3usize {
        // Rank-dependent magnitudes over sixteen decades: any fold order
        // other than ascending rank rounds differently.
        let x = (1.0 + rank as f64 * 0.37) * 10f64.powi(((rank * 7 + step) % 17) as i32 - 8);
        acc.push(comm.allreduce(x, |a, b| a + b).to_bits());
        // A non-commutative operator pins the fold order on integers too.
        let v = comm.allreduce(vec![(rank + step) as u64, 1], |a, b| {
            a.iter().zip(&b).map(|(x, y)| x.wrapping_mul(31).wrapping_add(*y)).collect()
        });
        acc.extend(v);
        for root in 0..n {
            acc.push(comm.bcast(root, ((rank as u64) << 8) | step as u64));
        }
        acc.push(comm.exscan(x, 0.0, |a, b| a + b).to_bits());
        acc.push(digest(&comm.allgather((rank as u32, x.to_bits()))));
        let mine =
            if rank.is_multiple_of(3) { Vec::new() } else { vec![rank as u16; rank % 5 + step] };
        acc.push(digest(&comm.allgatherv(mine)));
        let row: Vec<u64> = (0..n).map(|d| (rank * n + d + step) as u64).collect();
        acc.push(digest(&comm.alltoall(&row)));

        // Sparse alltoallv: two buffers to one destination (they must arrive
        // as two entries, in send order) around an empty one.
        let dst = (rank + 1) % n;
        let sends = vec![
            (dst, vec![rank as u64; 2]),
            ((rank + 3) % n, Vec::new()),
            (dst, vec![7; step + 1]),
        ];
        let got = comm.alltoallv(sends);
        let src = (rank + n - 1) % n;
        assert_eq!(got, [(src, vec![src as u64; 2]), (src, vec![7; step + 1])]);
        acc.push(digest(&got));

        for k in 0..2usize {
            let dst = (rank + 1 + 2 * k) % n;
            let len = (rank + step + k) % 4 * 9;
            let mut buf = comm.buf_acquire(dst, len);
            buf.resize(len, (rank + k) as u8);
            sends_b.push((dst, buf));
        }
        release_empty(comm, &mut sends_b);
        comm.alltoallv_into(&mut sends_b, &mut recvd_b);
        let rendered: Vec<_> = recvd_b.iter().map(|(src, buf)| (*src, PooledBuf(buf))).collect();
        acc.push(digest(&rendered));
        for (src, buf) in recvd_b.drain(..) {
            comm.buf_release(src, buf);
        }
        if step == 1 {
            comm.barrier();
        }
    }
    acc
}

#[test]
fn collectives_world_matches_frozen_digest() {
    // Captured at commit 802dd53, the last one with the one-slot
    // `phase % 2` collective state machine.
    let frozen: [(usize, [[u64; 2]; 2]); 5] = [
        (
            1,
            [
                [0x147e_62dc_ffe3_fa06, 0xbad3_d30d_876d_4968],
                [0x147e_62dc_ffe3_fa06, 0xf451_0d81_50da_affa],
            ],
        ),
        (
            2,
            [
                [0xe580_bec1_a342_f583, 0xb891_8323_bf31_3873],
                [0xe580_bec1_a342_f583, 0x1436_96b9_d909_23cf],
            ],
        ),
        (
            3,
            [
                [0x5ac0_5830_97ce_9634, 0xcf6f_82d3_7ab8_7ecb],
                [0x5ac0_5830_97ce_9634, 0x9039_1ce1_bb1d_7c1e],
            ],
        ),
        (
            7,
            [
                [0xe127_5467_1ee8_0715, 0xc5a7_de25_bda9_513d],
                [0xe127_5467_1ee8_0715, 0x580b_098e_b3db_a04c],
            ],
        ),
        (
            64,
            [
                [0x86f7_b09d_c6f6_83b2, 0xfc37_b1cd_8a11_2510],
                [0x86f7_b09d_c6f6_83b2, 0x74fa_674e_35c1_bf80],
            ],
        ),
    ];
    for (p, wants) in frozen {
        let models = [MachineModel::juropa_like(), MachineModel::juqueen_like()];
        for (model, want) in models.into_iter().zip(wants) {
            for width in [1, 2, 8, p] {
                let out =
                    runner().host_parallelism(width).run(p, model.clone(), collectives_program);
                assert_frozen(
                    &out,
                    want,
                    &format!("collectives p={p} {} width={width}", model.name),
                );
            }
        }
    }
}

#[test]
fn back_to_back_allreduces_block_once_per_waiting_rank() {
    // One rank at a time, every depositor but the last parks exactly once
    // per collective and nobody waits for readers: `k` allreduces on `n`
    // ranks block `(n - 1) * k` times. (The one-slot state machine this
    // replaced also parked ranks that entered the next collective before the
    // previous one's readers had drained — up to twice as many blocks.)
    let k = 50u64;
    for n in [2usize, 3, 7, 64] {
        let out =
            Runner::default().host_parallelism(1).run(n, MachineModel::ideal(), move |comm| {
                (0..k)
                    .fold(0u64, |acc, i| acc ^ comm.allreduce(comm.rank() as u64 + i, |a, b| a + b))
            });
        assert_eq!(out.host.width, 1);
        assert_eq!(out.host.collective_blocks, (n as u64 - 1) * k, "n={n}");
        assert_eq!(out.host.mailbox_blocks, 0, "n={n}");
        // Every rank starts once and resumes once per block.
        assert_eq!(out.host.dispatches, n as u64 + (n as u64 - 1) * k, "n={n}");
    }
}

#[test]
fn rank_panic_between_collectives_unwinds_every_rank() {
    // Rank 1 dies after the first allreduce while the others are already
    // parked in — or on their way into — the second. The world must fail
    // with that panic as its cause: no hang, and no `VirtualDeadlock`
    // invented by the ranks the poison wakes.
    for width in [1, 2] {
        let err = Runner::default()
            .host_parallelism(width)
            .try_run(5, MachineModel::ideal(), |comm| {
                let sum = comm.allreduce(comm.rank() as u64, |a, b| a + b);
                if comm.rank() == 1 {
                    panic!("rank 1 gives up after the first collective");
                }
                comm.allreduce(sum as f64, |a, b| a + b);
                comm.barrier();
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

/// Per exchange: the payload received and its `(source, length)` list.
type Received = Vec<(Vec<(u64, f64)>, Vec<(usize, usize)>)>;

/// One rank's program for [`flat_exchange_is_alltoallv_in_two_buffers`]:
/// rounds of a sparse random all-to-all-v — repeated destinations, empty
/// segments, ranks that send nothing, ranks nobody writes to — in the flat
/// form or the moving one, with collectives of other types between the
/// rounds so the deposit envelopes alternate, and a ring neighbourhood
/// exchange in the matching form. Returns everything received.
fn sparse_exchange_program(
    seed: u64,
    flat: bool,
) -> impl Fn(&mut simcomm::Comm) -> Received + Send + Sync {
    move |comm| {
        let (me, p) = (comm.rank(), comm.size());
        let mut state = splitmix64(seed ^ (me as u64) << 20);
        let mut draw = |n: usize| {
            state = splitmix64(state);
            (state % n.max(1) as u64) as usize
        };
        let mut ring = vec![(me + 1) % p, (me + p - 1) % p];
        ring.sort_unstable();
        ring.dedup();
        ring.retain(|&q| q != me);
        let (mut recv, mut sources) = (Vec::new(), Vec::new());
        let (mut sends, mut got) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        for round in 0..6 {
            // A third of the ranks send nothing; rank 0 is never addressed
            // in odd rounds.
            let n_segments = if draw(3) == 0 { 0 } else { draw(2 * p + 3) };
            let mut segments = Vec::new();
            let mut payload = Vec::new();
            for _ in 0..n_segments {
                let mut dst = draw(p);
                if round % 2 == 1 && dst == 0 {
                    dst = p - 1;
                }
                let len = if draw(4) == 0 { 0 } else { draw(9) };
                segments.push((dst, len));
                payload.extend(
                    (0..len).map(|i| ((me * 1000 + round * 100 + i) as u64, i as f64 / 3.0)),
                );
            }
            if flat {
                comm.alltoallv_flat(payload, &segments, &mut recv, &mut sources);
            } else {
                let mut rest = &payload[..];
                let sends = segments.iter().map(|&(dst, len)| {
                    let (head, tail) = rest.split_at(len);
                    rest = tail;
                    (dst, head.to_vec())
                });
                let got = comm.alltoallv(sends.collect());
                sources = got.iter().map(|(src, buf)| (*src, buf.len())).collect();
                recv = got.into_iter().flat_map(|(_, buf)| buf).collect();
            }
            out.push((recv.clone(), sources.clone()));
            comm.compute(Work::ParticleOp, (recv.len() * (me + 1)) as f64);
            let total = comm.allreduce(recv.len() as u64, |a, b| a + b);
            let _ = comm.allreduce((total > 0, me % 2 == 0), |a, b| (a.0 && b.0, a.1 || b.1));

            // The neighbourhood twin: a ring exchange through
            // `routed_exchange_into` over kept lists, or the same messages
            // through `neighbor_exchange`, each counted as one plan execution.
            let counts: Vec<usize> = ring.iter().map(|_| draw(5)).collect();
            let ghosts: Vec<(u64, f64)> =
                (0..counts.iter().sum()).map(|i| (i as u64 + 7, me as f64)).collect();
            let t0 = comm.clock();
            let mut rest = &ghosts[..];
            let bufs = ring.iter().zip(&counts).map(|(&q, &len)| {
                let (head, tail) = rest.split_at(len);
                rest = tail;
                (q, head.to_vec())
            });
            if flat {
                sends.extend(bufs);
                comm.routed_exchange_into(ring.iter().copied(), &mut sends, &mut got, 5);
            } else {
                got = comm.neighbor_exchange(&ring, bufs.collect(), 5);
            }
            comm.note_plan_exec(t0, (ghosts.len() * std::mem::size_of::<(u64, f64)>()) as u64);
            let from = got.iter().map(|(src, buf)| (*src, buf.len())).collect();
            let ghosts = got.iter().flat_map(|(_, buf)| buf.iter().copied()).collect();
            out.push((ghosts, from));
        }
        out
    }
}

#[test]
fn flat_exchange_is_alltoallv_in_two_buffers() {
    // Payload bits, arrival order, clocks, statistics and traces of the flat
    // forms are those of the moving forms, at every host width.
    for model in [MachineModel::juropa_like(), MachineModel::juqueen_like()] {
        for p in [1usize, 2, 3, 7, 64] {
            let seed = 0xf1a7 + p as u64;
            let moving = runner().run(p, model.clone(), sparse_exchange_program(seed, false));
            for width in widths(p) {
                let flat = runner().host_parallelism(width).run(
                    p,
                    model.clone(),
                    sparse_exchange_program(seed, true),
                );
                assert_bitwise_identical(&flat, &moving, &format!("p={p} width={width}"));
            }
            let messages: usize =
                moving.results.iter().flatten().map(|(_, sources)| sources.len()).sum();
            assert!(p == 1 || messages > 6 * p, "p={p}: the patterns must carry traffic");
        }
    }
}

#[test]
fn rank_panic_between_flat_exchanges_unwinds_every_rank() {
    for width in [1, 2] {
        let err = Runner::default()
            .host_parallelism(width)
            .try_run(5, MachineModel::ideal(), |comm| {
                let (mut recv, mut sources) = (Vec::new(), Vec::new());
                let next = (comm.rank() + 1) % 5;
                comm.alltoallv_flat(
                    vec![comm.rank() as u32; 3],
                    &[(next, 3)],
                    &mut recv,
                    &mut sources,
                );
                if comm.rank() == 1 {
                    panic!("rank 1 gives up between the exchanges");
                }
                comm.alltoallv_flat(recv.clone(), &[(next, 3)], &mut recv, &mut sources);
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
