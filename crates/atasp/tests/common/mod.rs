//! Worlds run at every host width, so a suite checks what simcomm promises —
//! the same bits at any `Runner::host_parallelism` — without a pinned CI
//! host. The unit tests of `atasp`, `psort` and `fmm`, the `fmm` world
//! suites and the root `campaign_resume` suite include this file too.
#![allow(dead_code)] // each suite uses its own subset

use simcomm::{Comm, MachineModel, RunOutput, Runner};

/// The widths every world runs at: strictly one rank at a time, two, and
/// more than a CI host has cores.
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
/// assert that each returns the results, clocks, statistics and traces of the
/// first, which it returns.
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
        format!("{:?}", (&out.results, clocks, &out.stats, &out.traces))
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
