//! Helpers the simcomm integration suites share: the batch widths, the
//! seeded draw, the digest every frozen constant is taken with, and its split
//! into a payload and a timing half.
#![allow(dead_code)] // each suite uses its own subset

use simcomm::RunOutput;

/// The `Runner::host_parallelism` widths a suite without widths of its own
/// runs every world at: strictly one rank at a time, two, and more than a CI
/// host has cores.
pub const WIDTHS: [usize; 3] = [1, 2, 8];

pub use particles::systems::splitmix64;

/// 64-bit FNV-1a of a value's `Debug` rendering. `{:?}` prints floats in
/// shortest round-trip form, so distinct bit patterns (including `-0.0`)
/// render — and hash — differently.
pub fn digest(x: &impl std::fmt::Debug) -> u64 {
    format!("{x:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A world's output as two digests, `[payload, timing]`, that together cover
/// everything it reports. The *payload* half is what the ranks computed and
/// moved: the results, and per rank the message, byte, collective, plan and
/// pool counters. The *timing* half is when: the clock bit patterns, the
/// statistics' time and fault fields, the trace events and the phase
/// profiles. A change that moves only virtual time — a different posting
/// order, say, which also moves which sends a fault plan's draws hit —
/// moves only the second.
pub fn halves<R: std::fmt::Debug>(out: &RunOutput<R>) -> [u64; 2] {
    let counts: Vec<_> = out
        .stats
        .iter()
        .map(|s| {
            (
                [s.p2p_sent_msgs, s.p2p_sent_bytes, s.p2p_recv_msgs, s.p2p_recv_bytes],
                [s.coll_ops, s.coll_bytes, s.plan_builds, s.plan_execs],
                [s.bytes_reused, s.bytes_grown],
            )
        })
        .collect();
    let times: Vec<_> = out
        .stats
        .iter()
        .map(|s| {
            (
                [s.compute_seconds, s.comm_seconds, s.wait_seconds].map(f64::to_bits),
                [s.faults_injected, s.retries, s.timeouts, s.stalls],
            )
        })
        .collect();
    let clock_bits: Vec<u64> = out.clocks.iter().map(|c| c.to_bits()).collect();
    [digest(&(&out.results, counts)), digest(&(clock_bits, times, &out.traces, &out.phases))]
}

/// Assert that a world hashes to the frozen `want` (`[payload, timing]`, see
/// [`halves`]), naming the half that differs.
pub fn assert_halves<R: std::fmt::Debug>(out: &RunOutput<R>, want: [u64; 2], what: &str) {
    let got = halves(out);
    for (half, got, want) in [("payload", got[0], want[0]), ("timing", got[1], want[1])] {
        assert_eq!(
            got, want,
            "{what}: {half} digest {got:#018x} differs from the frozen {want:#018x}"
        );
    }
}
