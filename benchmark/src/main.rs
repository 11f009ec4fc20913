//! The repository benchmark.
//!
//! ```text
//! benchmark --workload <name> [--seed S] [--seconds T] [--trace [0|1]]
//! benchmark --smoke [--seed S]
//! ```
//!
//! One untraced invocation prints every end-to-end metric of one workload by
//! name and unit and verifies the workload's outputs; a traced invocation
//! (`--trace 1`) prints the per-layer metrics instead and writes a Chrome
//! trace of the benchmark's own calls to `benchmark/out/<workload>.trace.json`.
//! `--smoke` runs one verified iteration of every workload. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `benchmark/README.md` for what each number means.

mod adapter;
mod alloc;
mod layers;
mod pin;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use adapter::Ctx;
use spans::Spans;
use workloads::{Inputs, Outcome, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed iterations, however small `--seconds` is.
const MIN_ITERATIONS: usize = 5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1, seconds: DEFAULT_SECONDS, trace: false, smoke: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    // The value of option `argv[i]`, if the next argument is not an option.
    let value = |i: usize| argv.get(i + 1).filter(|v| !v.starts_with("--"));
    while i < argv.len() {
        let need = |i: usize| value(i).ok_or_else(|| format!("{} needs a value", argv[i]));
        match argv[i].as_str() {
            "--workload" => {
                let name = need(i)?;
                args.workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (one of {})", names.join(", "))
                })?);
                i += 1;
            }
            "--seed" => {
                args.seed = need(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                args.seconds = need(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                i += 1;
            }
            "--trace" => match value(i).map(String::as_str) {
                None => args.trace = true,
                Some("0") | Some("1") => {
                    args.trace = argv[i + 1] == "1";
                    i += 1;
                }
                Some(v) => return Err(format!("--trace takes 0 or 1, not '{v}'")),
            },
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if args.smoke == args.workload.is_some() {
        return Err("give either --workload <name> or --smoke".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark --workload <name> [--seed S] [--seconds T] [--trace [0|1]]\n       \
                 benchmark --smoke [--seed S]"
            );
            return ExitCode::from(2);
        }
    };
    // Fail closed on width, before any world exists.
    let cpu = match pin::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!(
                "benchmark: cannot run at host width 1: {e}.\nThe discrete-event scheduler loses \
                 wakeups when more than one host CPU is available (ROADMAP open item 1) and then \
                 reports false virtual deadlocks, so the benchmark refuses to start instead."
            );
            return ExitCode::from(3);
        }
    };
    println!(
        "host_width: 1 (pinned to CPU {cpu}; engine: discrete-event; closed loop, one client)"
    );
    println!("virtual time (virt_*) is the machine model's, unvalidated against hardware");

    let ok = match args.workload {
        None => smoke(args.seed),
        Some(w) if args.trace => traced_run(w, args.seed),
        Some(w) => untraced_run(w, args.seed, args.seconds, process_start),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One measured, verified iteration.
struct Iteration {
    wall_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    outcome: Result<Outcome, String>,
}

/// Runs iterations, counts them, and holds every one to the first good one:
/// virtual times and traffic counts must be bit-equal across a run.
struct Tally {
    workload: Workload,
    attempted: u64,
    failed: u64,
    reference: Option<Outcome>,
}

impl Tally {
    fn new(workload: Workload) -> Tally {
        Tally { workload, attempted: 0, failed: 0, reference: None }
    }

    fn iterate(&mut self, cx: &Ctx, inputs: &Inputs) -> Iteration {
        let (a0, b0) = alloc::counters();
        let t0 = Instant::now();
        let raw = self.workload.iterate(cx, inputs);
        let wall_s = t0.elapsed().as_secs_f64();
        let (a1, b1) = alloc::counters();
        let mut outcome = raw.and_then(|raw| self.workload.verify(inputs, raw));
        if let (Ok(this), Some(first)) = (&outcome, &self.reference) {
            if this.fingerprint() != first.fingerprint() {
                outcome = Err(format!(
                    "virtual times or simcomm counts differ from the run's first iteration \
                     (makespan {} vs {}, redistribution {} vs {})",
                    this.virt_makespan_s,
                    first.virt_makespan_s,
                    this.virt_redist_s,
                    first.virt_redist_s
                ));
            }
        }
        self.attempted += 1;
        match &outcome {
            Ok(this) if self.reference.is_none() => self.reference = Some(this.clone()),
            Ok(_) => {}
            Err(e) => {
                self.failed += 1;
                eprintln!("benchmark: iteration {} failed: {e}", self.attempted);
            }
        }
        Iteration { wall_s, allocs: a1 - a0, alloc_bytes: b1 - b0, outcome }
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Print the result line the driver reads. Every value keeps all its digits.
fn print_result(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> bool {
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("benchmark: {name} is {value}, not a finite number; no result printed");
        return false;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    correct
}

fn untraced_run(workload: Workload, seed: u64, seconds: f64, process_start: Instant) -> bool {
    let off = Spans::new(false);
    let cx = Ctx { spans: &off, traced: false };
    let mut tally = Tally::new(workload);

    // Set-up, several times over: generate the inputs from the seed and run
    // one warm-up iteration (which tunes the solvers, fills the allocator and
    // the caches). The first one also carries process start and pinning.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { process_start } else { Instant::now() };
        let generated = workload.inputs(&cx, seed);
        tally.iterate(&cx, &generated);
        setup_s.push(t0.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("SETUP_REPS is at least 1");

    // A fixed count, not a deadline: `ops` is the same on every commit.
    let iterations =
        ((seconds / workload.nominal_iteration_s()).round() as usize).max(MIN_ITERATIONS);
    let ops = workload.ops(&inputs);
    let mut wall_s = Vec::with_capacity(iterations);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    for _ in 0..iterations {
        let it = tally.iterate(&cx, &inputs);
        wall_s.push(it.wall_s);
        allocs += it.allocs;
        alloc_bytes += it.alloc_bytes;
    }

    let Some(reference) = &tally.reference else {
        eprintln!("benchmark: no iteration of {} succeeded", workload.name());
        return false;
    };
    let [q1, median, q3] = stats::quartiles(&wall_s);
    // The fastest iteration, not the median: interference from outside this
    // process only ever adds time, and on a shared host it comes in bursts
    // that last for many iterations (see README.md, "Why the minimum").
    let fastest = wall_s.iter().copied().fold(f64::INFINITY, f64::min);
    let total_ops = (ops * iterations as u64) as f64;
    let Some(peak_rss) = peak_rss_mib() else {
        eprintln!("benchmark: cannot read VmHWM from /proc/self/status");
        return false;
    };
    let metrics = [
        ("setup_s", stats::median(&setup_s), "s"),
        ("ops_per_s", ops as f64 / fastest, "1/s"),
        ("virt_makespan_s", reference.virt_makespan_s, "virt_sec"),
        ("virt_redist_s", reference.virt_redist_s, "virt_sec"),
        ("allocs_per_op", allocs as f64 / total_ops, "1/op"),
        ("alloc_bytes_per_op", alloc_bytes as f64 / total_ops, "B/op"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];

    println!("workload: {} (seed {seed}; one op = one {})", workload.name(), workload.op());
    println!(
        "iterations: {iterations} timed of {ops} ops each, after {SETUP_REPS} set-ups; iteration \
         wall fastest {fastest:.4} s, q1 {q1:.4} s, median {median:.4} s, q3 {q3:.4} s"
    );
    println!("iteration walls (s): {wall_s:.4?}");
    println!("set-up walls (s): {setup_s:.4?}");
    println!(
        "failed_share: {} ({} of {} iterations failed a world or a check)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    for (name, value, unit) in &metrics {
        println!("{name:<20} {value:>18.6} {unit}");
    }
    print_result(tally.attempted, tally.failed, &metrics)
}

fn traced_run(workload: Workload, seed: u64) -> bool {
    // The untraced side of `trace.overhead_ratio`: recorder off, worlds
    // untraced, the faster of two iterations after one warm-up.
    let off = Spans::new(false);
    let cx_off = Ctx { spans: &off, traced: false };
    let mut tally = Tally::new(workload);
    let inputs = workload.inputs(&cx_off, seed);
    tally.iterate(&cx_off, &inputs);
    let untraced_s =
        (0..2).map(|_| tally.iterate(&cx_off, &inputs).wall_s).fold(f64::MAX, f64::min);

    // The traced side: spans on, `Runner::traced(true)`.
    let on = Spans::new(true);
    let cx_on = Ctx { spans: &on, traced: true };
    let mut traced_s = f64::MAX;
    let mut traced = None;
    for i in 0..2 {
        on.set_iteration(i + 1);
        let it = tally.iterate(&cx_on, &inputs);
        traced_s = traced_s.min(it.wall_s);
        traced = it.outcome.ok().or(traced);
    }
    let Some(traced) = traced else {
        eprintln!("benchmark: no traced iteration of {} succeeded", workload.name());
        return false;
    };

    let mut ledger = layers::Ledger::default();
    layers::workload_metrics(&mut ledger, &traced, traced_s, untraced_s);
    // Probes record spans but run their worlds untraced: they time the layer,
    // not the tracer.
    on.set_iteration(0);
    layers::probe_metrics(&mut ledger, &Ctx { spans: &on, traced: false }, seed);

    let path = std::path::PathBuf::from(format!("benchmark/out/{}.trace.json", workload.name()));
    if let Err(e) = on.write_chrome_trace(&path, workload.name()) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return false;
    }
    for e in &ledger.failures {
        eprintln!("benchmark: probe failed: {e}");
    }

    println!("workload: {} (seed {seed}), traced run", workload.name());
    println!("wrote {} ({} spans)", path.display(), on.len());
    for m in &ledger.metrics {
        println!("{:<34} {:>20.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<(&str, f64, &str)> =
        ledger.metrics.iter().map(|m| (m.name, m.value, m.unit)).collect();
    print_result(
        tally.attempted + ledger.attempted,
        tally.failed + ledger.failures.len() as u64,
        &metrics,
    )
}

/// One verified iteration of every workload: what a developer runs before
/// pushing. Checks only; no metric is meaningful after one cold iteration.
fn smoke(seed: u64) -> bool {
    let off = Spans::new(false);
    let cx = Ctx { spans: &off, traced: false };
    let (mut attempted, mut failed) = (0, 0);
    for workload in workloads::ALL {
        let mut tally = Tally::new(workload);
        let inputs = workload.inputs(&cx, seed);
        let it = tally.iterate(&cx, &inputs);
        println!(
            "smoke {:<16} {} ({:.2} s)",
            workload.name(),
            if it.outcome.is_ok() { "ok" } else { "FAILED" },
            it.wall_s
        );
        attempted += tally.attempted;
        failed += tally.failed;
    }
    print_result(attempted, failed, &[])
}
