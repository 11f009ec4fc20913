//! Helpers the world suites share: the batch widths and the runs that hold a
//! world to the same bits at each, the seeded draw, the digest every frozen
//! constant is taken with, and its split into a payload and a timing half.
//! Besides simcomm's integration suites, the unit tests of `atasp`, `psort`
//! and `fmm`, the `atasp` and `fmm` world suites and the root `determinism`
//! and `campaign_resume` suites include this file, so every width a test
//! picks for itself is defined here.
#![allow(dead_code, unused_imports)] // each suite uses its own subset

use simcomm::{Comm, MachineModel, PhaseStats, RunOutput, Runner};

/// The `Runner::host_parallelism` widths every world runs at: strictly one
/// rank at a time, two, and more than a CI host has cores.
pub const WIDTHS: [usize; 3] = [1, 2, 8];

/// The widths a suite that sweeps worlds of up to 64 ranks runs a world of
/// `n` ranks at: all of [`WIDTHS`] up to eight ranks, width 1 alone beyond,
/// where a world costs the most.
pub fn thinned(n: usize) -> &'static [usize] {
    if n <= 8 {
        &WIDTHS
    } else {
        &WIDTHS[..1]
    }
}

/// Run a world of `n` ranks under `runner` at every width of [`WIDTHS`] and
/// assert that each returns the results, clocks, statistics, traces and phase
/// profiles of the first, which it returns.
pub fn run_on<R, F>(runner: &Runner, n: usize, model: MachineModel, f: F) -> RunOutput<R>
where
    R: Send + std::fmt::Debug,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    run_at(&WIDTHS, runner, n, model, f)
}

/// [`run_on`] at the given widths only.
pub fn run_at<R, F>(
    widths: &[usize],
    runner: &Runner,
    n: usize,
    model: MachineModel,
    f: F,
) -> RunOutput<R>
where
    R: Send + std::fmt::Debug,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    let seen = |out: &RunOutput<R>| {
        let clocks: Vec<u64> = out.clocks.iter().map(|c| c.to_bits()).collect();
        format!("{:?}", (&out.results, clocks, &out.stats, &out.traces, &out.phases))
    };
    let first = runner.clone().host_parallelism(widths[0]).run(n, model.clone(), &f);
    let want = seen(&first);
    for width in &widths[1..] {
        let out = runner.clone().host_parallelism(*width).run(n, model.clone(), &f);
        assert!(seen(&out) == want, "a world of {n} ranks differs at width {width}");
    }
    first
}

/// [`run_on`] a default runner: `simcomm::run` at every width.
pub fn run<R, F>(n: usize, model: MachineModel, f: F) -> RunOutput<R>
where
    R: Send + std::fmt::Debug,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    run_on(&Runner::default(), n, model, f)
}

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
    [digest(&(&out.results, counts)), digest(&(clock_bits, times, &out.traces, frozen_phases(out)))]
}

/// A rank's phase profile as the frozen digests render it: the aggregates
/// beside the attribution segments the profile carried until the trace's
/// clock spans became the one per-rank timeline.
#[derive(Debug)]
pub struct PhaseProfile<'a> {
    phases: &'a [PhaseStats],
    segments: Vec<PhaseSegment>,
}

/// One stretch during which a phase was the innermost open span.
#[derive(Debug)]
struct PhaseSegment {
    name: &'static str,
    t_start: f64,
    t_end: f64,
}

/// Every rank's [`PhaseProfile`]: its segments are the runs of consecutive
/// clock spans of one phase, so an untraced world has none.
pub fn frozen_phases<R>(out: &RunOutput<R>) -> Vec<PhaseProfile<'_>> {
    let mut profiles = Vec::with_capacity(out.phases.len());
    for (prof, trace) in out.phases.iter().zip(&out.traces) {
        let mut segments: Vec<PhaseSegment> = Vec::new();
        for s in trace.spans.iter().filter(|s| !s.phase.is_empty()) {
            match segments.last_mut() {
                Some(last) if last.name == s.phase && last.t_end == s.t_start => {
                    last.t_end = s.t_end
                }
                _ => segments.push(PhaseSegment {
                    name: s.phase,
                    t_start: s.t_start,
                    t_end: s.t_end,
                }),
            }
        }
        profiles.push(PhaseProfile { phases: &prof.phases, segments });
    }
    profiles
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
