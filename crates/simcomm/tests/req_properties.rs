//! Property tests for nonblocking request completion: `waitall` and
//! `neighbor_exchange` under seeded random message reordering, duplicate
//! tags, and injected faults. Every schedule is drawn with splitmix64 from a
//! fixed seed, and every world runs at each of the batch widths
//! [`common::WIDTHS`], twice at the first: the runtime promises the same data
//! and the same clocks whatever the OS scheduling and however many ranks run
//! at once.

mod common;

use common::{splitmix64, WIDTHS};
use simcomm::{Comm, FaultPlan, MachineModel, RunOutput, Runner, StallSpec};

/// Deterministic pseudo-random permutation of `0..n` from a seed.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(seed ^ (i as u64)) % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

/// The seeded send list of rank `r` in an `n`-rank world: `msgs` messages to
/// each peer, tags drawn from a pool of 3 (heavily duplicated), payload
/// encoding `(src, tag, k)`.
fn build_sends(r: usize, n: usize, seed: u64, msgs: usize) -> Vec<(usize, u64, u64)> {
    let tag_pool = 3u64;
    let mut sends: Vec<(usize, u64, u64)> = Vec::new();
    for dst in (0..n).filter(|&d| d != r) {
        for k in 0..msgs {
            let tag = splitmix64(seed ^ ((r * n + dst) as u64) << 16 ^ k as u64) % tag_pool;
            sends.push((dst, tag, ((r as u64) << 32) | (tag << 16) | k as u64));
        }
    }
    sends
}

/// The order rank `r` actually posts its sends in (a seeded permutation of
/// [`build_sends`]).
fn send_post_order(r: usize, n: usize, seed: u64, msgs: usize) -> Vec<(usize, u64, u64)> {
    let sends = build_sends(r, n, seed, msgs);
    let sorder = permutation(seed ^ 0x1234 ^ r as u64, sends.len());
    sorder.iter().map(|&i| sends[i]).collect()
}

/// Each rank posts receives for everything its peers will send (in a seeded
/// random order), then issues its own sends (in another seeded random order),
/// and drains every request with one `waitall`. Returns, per rank, the
/// received `(src, tag, payload)` triples in receive-post order.
fn waitall_schedule(comm: &mut Comm, seed: u64, msgs: usize) -> Vec<(usize, u64, u64)> {
    let r = comm.rank();
    let n = comm.size();
    let tag_pool = 3u64; // few tags, many duplicates
                         // Post receives for exactly what the peers will send us, derived from the
                         // same seeded schedule (every rank can compute every other rank's plan).
    let mut sources: Vec<(usize, u64)> = Vec::new();
    for src in (0..n).filter(|&s| s != r) {
        for k in 0..msgs {
            let tag = splitmix64(seed ^ ((src * n + r) as u64) << 16 ^ k as u64) % tag_pool;
            sources.push((src, tag));
        }
    }
    // Post the receive requests in a seeded random order (reordering).
    let order = permutation(seed ^ 0xabcd, sources.len());
    let posted: Vec<(usize, u64)> = order.iter().map(|&i| sources[i]).collect();
    let mut reqs: Vec<_> = posted.iter().map(|&(src, tag)| comm.irecv(src, tag)).collect();
    // Skew the ranks so arrival order differs from post order.
    comm.advance(1e-6 * (r as f64));
    // Issue the sends in a seeded random order too.
    reqs.extend(
        send_post_order(r, n, seed, msgs)
            .into_iter()
            .map(|(dst, tag, payload)| comm.isend(dst, tag, vec![payload])),
    );
    let done = comm.waitall(reqs);
    assert!(done[posted.len()..].iter().all(Option::is_none), "sends yield no data");
    posted
        .iter()
        .zip(done)
        .map(|(&(src, tag), data)| (src, tag, data.expect("receive yields data")[0]))
        .collect()
}

/// Run `f` on `n` ranks at the first width of [`WIDTHS`], then again at
/// every width; assert that every run returns the first one's results and
/// clocks, and return the first run.
fn at_every_width<R, F>(
    runner: Runner,
    n: usize,
    model: MachineModel,
    f: F,
    what: &str,
) -> RunOutput<R>
where
    R: Send + PartialEq + std::fmt::Debug,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    let first = runner.clone().host_parallelism(WIDTHS[0]).run(n, model.clone(), &f);
    for width in WIDTHS {
        let again = runner.clone().host_parallelism(width).run(n, model.clone(), &f);
        assert_eq!(again.results, first.results, "{what}, width {width}: data differs");
        assert_eq!(again.clocks, first.clocks, "{what}, width {width}: clocks differ");
    }
    first
}

#[test]
fn waitall_under_reordering_and_duplicate_tags_is_deterministic() {
    for seed in [1u64, 0xfeed, 0x1ee7] {
        let out = at_every_width(
            Runner::default(),
            6,
            MachineModel::juqueen_like(),
            move |comm: &mut Comm| waitall_schedule(comm, seed, 4),
            &format!("seed {seed}"),
        );
        for (r, got) in out.results.iter().enumerate() {
            // Every payload correctly identifies its (src, tag) stream…
            for &(src, tag, payload) in got {
                assert_eq!(payload >> 32, src as u64, "rank {r}: payload src");
                assert_eq!((payload >> 16) & 0xffff, tag, "rank {r}: payload tag");
            }
            // …and within each (src, tag) stream, delivery follows the order
            // the *sender* posted its sends in (per-stream FIFO), even though
            // both the receive and the send posts were reordered.
            for src in (0..6).filter(|&s| s != r) {
                let posted = send_post_order(src, 6, seed, 4);
                for tag in 0..3u64 {
                    let delivered: Vec<u64> = got
                        .iter()
                        .filter(|&&(s, t, _)| s == src && t == tag)
                        .map(|&(_, _, p)| p & 0xffff)
                        .collect();
                    let expected: Vec<u64> = posted
                        .iter()
                        .filter(|&&(dst, t, _)| dst == r && t == tag)
                        .map(|&(_, _, p)| p & 0xffff)
                        .collect();
                    assert_eq!(
                        delivered, expected,
                        "rank {r}: per-stream FIFO broken for src {src} tag {tag}"
                    );
                }
            }
        }
    }
}

#[test]
fn waitall_data_unchanged_under_faults() {
    let seed = 0xdead_beef;
    let schedule = move |comm: &mut Comm| waitall_schedule(comm, seed, 3);
    let clean =
        at_every_width(Runner::default(), 5, MachineModel::juropa_like(), schedule, "clean");
    let plan = FaultPlan {
        seed: 99,
        send_loss_prob: 0.3,
        retry_backoff_seconds: 1e-6,
        latency_spike_prob: 0.3,
        latency_spike_seconds: 25e-6,
        wait_timeout_seconds: Some(1e-5),
        stall: Some(StallSpec { rank: 2, after_ops: 5, seconds: 1e-4 }),
        ..FaultPlan::none()
    };
    let faulted = at_every_width(
        Runner::default().faulted(plan),
        5,
        MachineModel::juropa_like(),
        schedule,
        "faulted",
    );
    // Faults move arrival times, never the data a receive request yields.
    assert_eq!(faulted.results, clean.results, "faults must not alter delivered data");
    let injected: u64 = faulted.stats.iter().map(|s| s.faults_injected).sum();
    assert!(injected > 0, "this plan must actually inject faults");
}

/// Seeded neighbourhood exchange: random partner sets (symmetric by
/// construction), random payload sizes, duplicate use of one tag across
/// overlapping exchanges.
fn neighbor_schedule(comm: &mut Comm, seed: u64) -> Vec<Vec<(usize, Vec<u64>)>> {
    let r = comm.rank();
    let n = comm.size();
    // Symmetric partner relation: ranks a<b are partners iff a seeded draw
    // on the unordered pair says so.
    let partners: Vec<usize> = (0..n)
        .filter(|&q| {
            q != r && {
                let (a, b) = (r.min(q) as u64, r.max(q) as u64);
                !splitmix64(seed ^ (a << 20) ^ b).is_multiple_of(3)
            }
        })
        .collect();
    let mut rounds = Vec::new();
    for round in 0..3u64 {
        let data: Vec<(usize, Vec<u64>)> = partners
            .iter()
            .map(|&q| {
                let len = (splitmix64(seed ^ round << 8 ^ ((r * n + q) as u64)) % 17) as usize;
                (q, (0..len as u64).map(|i| ((r as u64) << 32) | (round << 16) | i).collect())
            })
            .collect();
        // The same tag every round: round separation relies on FIFO matching.
        rounds.push(comm.neighbor_exchange(&partners, data, 7));
    }
    rounds
}

#[test]
fn neighbor_exchange_random_topology_deterministic_and_fault_immune() {
    let seed = 0x5eed;
    let schedule = move |comm: &mut Comm| neighbor_schedule(comm, seed);
    let clean =
        at_every_width(Runner::default(), 8, MachineModel::juqueen_like(), schedule, "clean");
    let a = clean.results;
    // Payload integrity: every received buffer names its source and round.
    for (r, rounds) in a.iter().enumerate() {
        for (round, bufs) in rounds.iter().enumerate() {
            for (src, buf) in bufs {
                for (i, &v) in buf.iter().enumerate() {
                    assert_eq!(v >> 32, *src as u64, "rank {r}: src stamp");
                    assert_eq!((v >> 16) & 0xffff, round as u64, "rank {r}: round stamp");
                    assert_eq!(v & 0xffff, i as u64, "rank {r}: index stamp");
                }
            }
        }
    }
    // Under faults, the exchanged data is bit-identical to the clean run.
    let plan = FaultPlan {
        seed: 123,
        send_loss_prob: 0.4,
        max_retries: 4,
        retry_backoff_seconds: 2e-6,
        latency_spike_prob: 0.2,
        latency_spike_seconds: 40e-6,
        straggler_ranks: vec![1],
        straggler_factor: 2.5,
        wait_timeout_seconds: Some(1e-5),
        ..FaultPlan::none()
    };
    let faulted = at_every_width(
        Runner::default().faulted(plan),
        8,
        MachineModel::juqueen_like(),
        schedule,
        "faulted",
    );
    assert_eq!(faulted.results, a, "faults must not alter neighbor_exchange data");
    let injected: u64 = faulted.stats.iter().map(|s| s.faults_injected).sum();
    assert!(injected > 0, "this plan must actually inject faults");
}
