//! Correlation-id contract of the trace stream: the invariants `simtrace`
//! relies on to reconstruct the happens-before graph without guessing by tag.
//!
//! Under an arbitrary seeded fault plan (latency spikes, transient send
//! losses with retries, stragglers, wait timeouts):
//!
//! * every `Isend` record has **exactly one** matching `Wait` completion
//!   record with the same correlation id, on the same rank, to the same
//!   peer — faults may reorder and delay completions but never drop or
//!   duplicate one;
//! * every `Recv` record's correlation id matches **exactly one** `Send` or
//!   `Isend` record on the sending peer, with the same byte count;
//! * correlation ids are world-unique and nonzero across all posted sends;
//! * the whole world hashes to a frozen pair of digests, a payload and a
//!   timing half (`common::halves`; the timing half holds the correlated
//!   event stream).
//!
//! A world of sparse data exchanges (`Comm::sparse_exchange`) is held to the
//! same invariants under the same faults, and to one more: every posted
//! message is received exactly once. Every world runs at each batch width of
//! `common::WIDTHS`, and each width must reproduce the frozen digests.
//!
//! Both worlds were first frozen as one digest of the event stream alone:
//! the point-to-point world's captured from the thread-per-rank engine at
//! commit `cf18bdf` the way `tests/determinism.rs` describes, the sparse
//! world's when the sparse exchange was introduced. The two halves were
//! captured at commit `42d7aab`; posting each exchange's sends to the
//! partners above the sender first re-froze the timing halves once (under a
//! fault plan it also moves which sends the loss and spike draws hit).

mod common;

use std::collections::HashMap;

use common::{assert_halves, splitmix64, WIDTHS};
use simcomm::{CartGrid, FaultPlan, MachineModel, Runner, StallSpec, Trace, TraceKind, Work};

/// A seeded program mixing every point-to-point shape: blocking sends, ring
/// sendrecvs, nonblocking neighbourhood batches drained out of order, and
/// compute phases that shift the virtual clocks between posts.
fn p2p_program(seed: u64, steps: usize) -> impl Fn(&mut simcomm::Comm) -> u64 + Send + Sync {
    move |comm| {
        let n = comm.size();
        let rank = comm.rank();
        let partners = CartGrid::balanced(n).neighbors26(rank);
        let mut acc = rank as u64;
        for step in 0..steps {
            let r = splitmix64(seed ^ ((step as u64) << 20) ^ rank as u64);
            comm.compute(Work::ParticleOp, (r % 400) as f64);

            // Blocking ring exchange.
            let right = (rank + 1) % n;
            let left = (rank + n - 1) % n;
            let got = comm.sendrecv(right, vec![r; 1 + (r % 7) as usize], left, 1);
            acc = acc.wrapping_add(got[0]);

            // Nonblocking neighbourhood exchange: posts isends for every
            // partner, drains receives in arrival order, waits all sends.
            let data: Vec<(usize, Vec<u64>)> = partners
                .iter()
                .map(|&p| (p, vec![r; (splitmix64(r ^ p as u64) % 48) as usize]))
                .collect();
            let recvd = comm.neighbor_exchange(&partners, data, 2);
            acc = acc.wrapping_add(recvd.iter().map(|(_, v)| v.len() as u64).sum::<u64>());

            if step % 2 == 1 {
                comm.barrier();
            }
        }
        acc
    }
}

/// The fault plan the contract is tested under: everything that can reorder
/// or delay completions at once.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        latency_spike_prob: 0.15,
        latency_spike_seconds: 40e-6,
        send_loss_prob: 0.15,
        retry_backoff_seconds: 4e-6,
        straggler_ranks: vec![1, 5],
        straggler_factor: 1.7,
        stall: Some(StallSpec { rank: 3, after_ops: 12, seconds: 5e-4 }),
        wait_timeout_seconds: Some(8e-5),
        ..FaultPlan::none()
    }
}

/// Check the correlation invariants over a whole world's traces. Returns the
/// number of (isend, wait) pairs matched, so callers can assert the check
/// was not vacuous.
fn assert_correlation_invariants(traces: &[Trace], what: &str) -> usize {
    // corr -> (rank, bytes) of the posting Send/Isend event; also proves
    // world-uniqueness across ranks.
    let mut posts: HashMap<u64, (usize, u64)> = HashMap::new();
    for t in traces {
        for e in &t.events {
            if matches!(e.kind, TraceKind::Send | TraceKind::Isend) {
                assert_ne!(e.corr, 0, "{what}: rank {} posted a send with corr 0", e.rank);
                let prev = posts.insert(e.corr, (e.rank, e.bytes));
                assert!(
                    prev.is_none(),
                    "{what}: correlation id {:#x} posted twice (ranks {} and {})",
                    e.corr,
                    prev.unwrap().0,
                    e.rank
                );
            }
        }
    }

    let mut matched_waits = 0usize;
    for t in traces {
        // Exactly-one-completion: count Isend posts and Wait completions per
        // corr on this rank; the multisets must agree.
        let mut isends: HashMap<u64, usize> = HashMap::new();
        let mut waits: HashMap<u64, usize> = HashMap::new();
        for e in &t.events {
            match e.kind {
                TraceKind::Isend => *isends.entry(e.corr).or_default() += 1,
                TraceKind::Wait => {
                    *waits.entry(e.corr).or_default() += 1;
                    let (src, _) = posts.get(&e.corr).copied().unwrap_or_else(|| {
                        panic!("{what}: rank {} completed unknown corr {:#x}", e.rank, e.corr)
                    });
                    assert_eq!(
                        src, e.rank,
                        "{what}: wait completion for corr {:#x} on rank {} but the \
                         message was posted by rank {src}",
                        e.corr, e.rank
                    );
                    matched_waits += 1;
                }
                TraceKind::Recv => {
                    // Every receive names a real posted message from the
                    // recorded peer, byte for byte.
                    let (src, bytes) = posts.get(&e.corr).copied().unwrap_or_else(|| {
                        panic!("{what}: rank {} received unknown corr {:#x}", e.rank, e.corr)
                    });
                    assert_eq!(
                        Some(src),
                        e.peer,
                        "{what}: recv corr {:#x} on rank {} names peer {:?} but the \
                         sender was rank {src}",
                        e.corr,
                        e.rank,
                        e.peer
                    );
                    assert_eq!(
                        bytes, e.bytes,
                        "{what}: recv corr {:#x} byte count diverged from the post",
                        e.corr
                    );
                }
                _ => {}
            }
        }
        for (corr, n_posted) in &isends {
            let n_completed = waits.get(corr).copied().unwrap_or(0);
            assert_eq!(*n_posted, 1, "{what}: corr {corr:#x} posted {n_posted} times on one rank");
            assert_eq!(
                n_completed, 1,
                "{what}: isend corr {corr:#x} on rank {} has {n_completed} wait \
                 completions (want exactly 1)",
                t.events[0].rank
            );
        }
        for corr in waits.keys() {
            assert!(
                isends.contains_key(corr),
                "{what}: wait completion for corr {corr:#x} without an isend post"
            );
        }
    }
    matched_waits
}

#[test]
fn every_isend_has_exactly_one_completion_under_faults() {
    for (seed, want) in [
        (3u64, [0xd2b0_6354_2565_7121, 0x766e_f002_5be7_e1a2]),
        (19, [0xedf1_8e8d_808f_3639, 0xd5c3_7a0b_813c_7ca1]),
        (71, [0x68ef_dc7c_c9fd_974a, 0x037a_8b9f_6f04_7da0]),
    ] {
        for width in WIDTHS {
            let what = format!("seed {seed} width {width}");
            let plan = chaos_plan(seed.wrapping_mul(0x9e37));
            let runner = Runner::default().traced(true).faulted(plan).host_parallelism(width);
            let out = runner.run(12, MachineModel::juropa_like(), p2p_program(seed, 3));

            let matched = assert_correlation_invariants(&out.traces, &what);
            assert!(matched > 0, "{what}: no isend/wait pairs — test is vacuous");

            // The faults must actually have fired and reordered something.
            assert!(
                out.stats.iter().map(|s| s.faults_injected).sum::<u64>() > 0,
                "{what}: fault plan never fired"
            );

            // And the correlated streams are the frozen ones, event for event.
            assert_halves(&out, want, &what);
        }
    }
}

/// A seeded program of sparse data exchanges: each round every rank sends to
/// a random third of its 26 neighbours, and every fifth round nobody sends.
fn sparse_program(seed: u64, rounds: usize) -> impl Fn(&mut simcomm::Comm) -> u64 + Send + Sync {
    move |comm| {
        let rank = comm.rank();
        let partners = CartGrid::balanced(comm.size()).neighbors26(rank);
        let mut acc = 0u64;
        for round in 0..rounds {
            let r = splitmix64(seed ^ ((round as u64) << 20) ^ rank as u64);
            comm.compute(Work::ParticleOp, (r % 400) as f64);
            let sends: Vec<(usize, Vec<u64>)> = partners
                .iter()
                .filter(|&&q| round % 5 != 4 && splitmix64(r ^ q as u64).is_multiple_of(3))
                .map(|&q| (q, vec![r; 1 + (splitmix64(r ^ !(q as u64)) % 40) as usize]))
                .collect();
            let got = comm.sparse_exchange(&partners, sends);
            acc = acc.wrapping_add(got.iter().map(|(src, v)| *src as u64 * v.len() as u64).sum());
        }
        acc
    }
}

#[test]
fn every_sparse_message_is_received_exactly_once_under_faults() {
    for (seed, want) in [
        (5u64, [0x6c16_c8dd_e8a9_bb78, 0xff8b_e882_289d_1d5c]),
        (23, [0x413b_8434_1c63_ff11, 0xc5c7_0ec1_4201_055e]),
    ] {
        for width in WIDTHS {
            let plan = chaos_plan(seed.wrapping_mul(0x9e37));
            let runner = Runner::default().traced(true).faulted(plan).host_parallelism(width);
            let out = runner.run(12, MachineModel::juropa_like(), sparse_program(seed, 6));
            let what = format!("sparse seed {seed} width {width}");
            assert!(assert_correlation_invariants(&out.traces, &what) > 0, "{what}: vacuous");
            assert!(
                out.stats.iter().map(|s| s.faults_injected).sum::<u64>() > 0,
                "{what}: no fault"
            );
            // The stall is keyed by operation count: it must still find its op.
            assert_eq!(out.stats[3].stalls, 1, "{what}: the stall never fired");
            // Exactly once: every posted message has one receive record, and the
            // receive counts agree with the statistics.
            let mut received: HashMap<u64, usize> = HashMap::new();
            for e in out.traces.iter().flat_map(|t| &t.events) {
                if e.kind == TraceKind::Recv {
                    *received.entry(e.corr).or_default() += 1;
                }
            }
            for e in out.traces.iter().flat_map(|t| &t.events) {
                if e.kind == TraceKind::Isend {
                    assert_eq!(received.get(&e.corr), Some(&1), "{what}: corr {:#x}", e.corr);
                }
            }
            let recv_msgs: u64 = out.stats.iter().map(|s| s.p2p_recv_msgs).sum();
            assert_eq!(received.len() as u64, recv_msgs, "{what}");
            assert_halves(&out, want, &what);
        }
    }
}

#[test]
fn clean_world_correlation_invariants_hold() {
    for width in WIDTHS {
        let runner = Runner::default().traced(true).host_parallelism(width);
        let out = runner.run(16, MachineModel::juqueen_like(), p2p_program(42, 4));
        let matched = assert_correlation_invariants(&out.traces, &format!("clean width {width}"));
        assert!(matched > 0, "clean world at width {width} produced no isend/wait pairs");
    }
}
