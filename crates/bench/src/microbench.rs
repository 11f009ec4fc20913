//! Minimal wall-clock micro-benchmark runner used by the `benches/` targets.
//!
//! The bench targets have `harness = false` and run as plain binaries via
//! `cargo bench -p bench`: each case is warmed up once, then iterated until a
//! minimum wall time elapses, and the mean time per iteration is printed.
//! This measures real host time, unlike the figure harnesses, which report
//! virtual time of the simulated machine model.

use std::time::{Duration, Instant};

/// Smallest total measurement window per case.
const MIN_WINDOW: Duration = Duration::from_millis(200);
const MAX_ITERS: u64 = 1_000_000;

/// Run `f` repeatedly and print the mean wall time per iteration.
///
/// The closure's return value is passed through [`std::hint::black_box`] so
/// the measured work is not optimised away.
pub fn bench_case<R>(group: &str, name: &str, mut f: impl FnMut() -> R) {
    std::hint::black_box(f()); // warm-up (and cold-path code paths)
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < MIN_WINDOW && iters < MAX_ITERS {
        std::hint::black_box(f());
        iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / iters.max(1) as f64;
    outln!("{group:<24} {name:<28} {:>14}/iter  ({iters} iters)", fmt_duration(per_iter));
}

fn fmt_duration(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} us", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::fmt_duration;

    #[test]
    fn durations_format_with_matching_unit() {
        assert_eq!(fmt_duration(2.5), "2.500 s");
        assert_eq!(fmt_duration(3.25e-3), "3.250 ms");
        assert_eq!(fmt_duration(4.5e-6), "4.500 us");
        assert_eq!(fmt_duration(7.0e-9), "7.0 ns");
    }
}
