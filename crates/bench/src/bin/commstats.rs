//! Summarize observability output into human-readable phase tables.
//!
//! Input modes:
//!
//! * `commstats --report results/fig8_report.json` — print each run entry's
//!   per-phase aggregate table (critical path, mean, imbalance, comm/wait/
//!   compute split, traffic) and verify the accounting invariants. Several
//!   reports can be given comma-separated.
//! * `commstats --check --report <a.json>[,<b.json>…]` — verify only the
//!   accounting invariants (the phase means sum to the mean clock, and the
//!   totals' comm + wait + compute equal the mean clock times the rank
//!   count) for every run entry, one quiet line per report; exits nonzero
//!   on a violation. Intended for CI. Add
//!   `--alloc-budget <name>=<count>[,…]` to additionally threshold `harness_selftime` rows: the named row's heap
//!   allocation count (divided by its `steps` when per-step) must not exceed
//!   `count` — the perf-smoke guard against per-step allocation regressions
//!   on the steady-state redistribution path.
//! * `commstats --trace results/trace_timeline.csv` — aggregate a per-event
//!   trace CSV by phase and by operation kind (with collective fan-out from
//!   the `nranks` column). Pre-observability six-column traces (without the
//!   `nranks`/`phase` columns) are accepted; their events count as untagged.
//! * `commstats --baseline <dir> --report <a.json>[,…]` — the bench
//!   regression gate: diff each fresh report against the baseline of the
//!   same file name under `<dir>`, comparing per-run makespan and (when
//!   present on both sides) the critical path's comm/wait components. A
//!   machine-readable diff is written to `--gate-out` (default
//!   `results/gate_diff.json`); exits 1 on any regression beyond
//!   `--tolerance` (default 0.05 relative).
//!
//! All times are virtual seconds of the simulated machine model; sizes are
//! bytes. See `docs/OBSERVABILITY.md` for the schema reference.

use std::collections::BTreeMap;
use std::path::Path;

use bench::cli::{Cli, Opt};
use bench::gate;
use bench::{accounting_bound, fmt_secs, format_phase_table, RunReport};
use particles::json::Json;

/// What `--help` prints above the option list: the four modes.
const ABOUT: &str = "inspect and verify benchmark reports and traces

MODES:
  commstats --report <a.json>[,<b.json>...]
      Print each run entry's per-phase table, critical-path split and
      wait-blame rows; verify the accounting invariants.

  commstats --check --report <paths> [--alloc-budget name=count[,...]]
      Quiet CI mode: verify the accounting and critical-path invariants
      (comm+wait+compute must partition the clocks/makespan exactly) and
      any selftime allocation budgets. Exits nonzero on a violation.

  commstats --baseline <dir> --report <paths> [--tolerance 0.05]
            [--gate-out results/gate_diff.json]
      Regression gate: diff each report against <dir>/<same file name>,
      comparing per-run makespan and critical-path comm/wait. Writes a
      JSON diff artifact; exits 1 when any metric regresses beyond the
      relative tolerance.

  commstats --trace results/<trace>.csv
      Aggregate a trace CSV by phase and by event kind.";

/// Report an input error (unreadable or malformed file) without a panic
/// backtrace.
fn fail(msg: String) -> ! {
    eprintln!("commstats: {msg}");
    std::process::exit(2);
}

fn load_report(path: &str) -> RunReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let value = Json::parse(&text).unwrap_or_else(|e| fail(format!("{path}: invalid JSON: {e}")));
    RunReport::from_json(&value).unwrap_or_else(|e| fail(format!("{path}: not a run report: {e}")))
}

/// One `--alloc-budget` entry: the named `harness_selftime` row's allocation
/// count (per step, when the row covers steps) must not exceed the budget.
struct AllocBudget {
    name: String,
    max_allocs: f64,
}

/// Parse `--alloc-budget name=count[,name=count…]`.
fn parse_budgets(spec: &str) -> Vec<AllocBudget> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (name, count) = pair.split_once('=').unwrap_or_else(|| {
                fail(format!("bad --alloc-budget entry '{pair}' (want name=count)"))
            });
            AllocBudget {
                name: name.to_string(),
                max_allocs: count
                    .parse()
                    .unwrap_or_else(|e| fail(format!("bad --alloc-budget count '{count}': {e}"))),
            }
        })
        .collect()
}

/// `--check`: verify the accounting invariants (see
/// [`bench::RunEntry::decomposition_error`]) for every run entry of a report,
/// quietly, plus any `--alloc-budget` thresholds against the report's
/// `harness_selftime` rows. Exits nonzero on the first violation.
fn check_report(path: &str, budgets: &[AllocBudget]) {
    let report = load_report(path);
    let mut max_err: f64 = 0.0;
    for run in &report.runs {
        let err = run.decomposition_error();
        if err > accounting_bound(run.makespan) {
            fail(format!(
                "{path}: run '{label}': the phase means or the totals' \
                 comm+wait+compute diverge from the mean clock by {err:.3e} s \
                 (makespan {makespan:.3e} s)",
                label = run.label,
                makespan = run.makespan
            ));
        }
        max_err = max_err.max(err);
        if let Some(cp) = &run.critpath {
            // The serialized compute component must be the *exact* f64
            // remainder of the makespan — the identity survives the JSON
            // round trip bit-for-bit, so anything nonzero means the file was
            // edited or the analysis is broken.
            let remainder = run.makespan - (cp.comm_seconds + cp.wait_seconds);
            if cp.compute_seconds != remainder {
                fail(format!(
                    "{path}: run '{label}': critical-path segments do not sum to the \
                     makespan (compute {got:e} s, expected exact remainder {remainder:e} s)",
                    label = run.label,
                    got = cp.compute_seconds
                ));
            }
            let range_err = cp.partition_error(run.makespan);
            if range_err > 1e-9 * run.makespan.max(1e-9) {
                fail(format!(
                    "{path}: run '{label}': critical-path component outside \
                     [0, makespan] by {range_err:.3e} s",
                    label = run.label
                ));
            }
        }
    }
    let with_critpath = report.runs.iter().filter(|r| r.critpath.is_some()).count();
    for budget in budgets {
        let row = report.selftime.iter().find(|r| r.name == budget.name).unwrap_or_else(|| {
            fail(format!(
                "{path}: no harness_selftime row named '{}' to hold \
                     --alloc-budget against",
                budget.name
            ))
        });
        let per_step = row.allocs as f64 / row.steps.max(1) as f64;
        if per_step > budget.max_allocs {
            fail(format!(
                "{path}: selftime row '{}' performed {:.1} heap allocations per \
                 step (budget {}) — a steady-state path allocates again",
                budget.name, per_step, budget.max_allocs
            ));
        }
        println!(
            "check {path}: selftime '{}' within budget ({:.1} <= {} allocs/step)",
            budget.name, per_step, budget.max_allocs
        );
    }
    println!(
        "check {path}: ok ({n} runs, {with_critpath} with exact critical paths, \
         max accounting error {max_err:.1e} s)",
        n = report.runs.len()
    );
}

fn summarize_report(path: &str) {
    let report = load_report(path);
    println!(
        "report {path}: figure {figure}, machine {machine}, {n} runs",
        figure = report.figure,
        machine = report.machine,
        n = report.runs.len()
    );
    if !report.params.is_empty() {
        let params: Vec<String> = report.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("params: {}", params.join(", "));
    }
    for run in &report.runs {
        println!(
            "\n== {label} ({nranks} ranks, makespan {makespan}) ==",
            label = run.label,
            nranks = run.nranks,
            makespan = fmt_secs(run.makespan)
        );
        print!("{}", format_phase_table(run));
        let t = &run.totals;
        if t.plan_builds + t.plan_execs > 0 {
            println!(
                "plan reuse: {} builds, {} executions ({:.1}% reuse)",
                t.plan_builds,
                t.plan_execs,
                100.0 * t.plan_execs as f64 / (t.plan_builds + t.plan_execs) as f64
            );
        }
        if t.bytes_reused + t.bytes_grown > 0 {
            println!(
                "buffer pool: {} B served from arenas, {} B grown ({:.1}% reuse)",
                t.bytes_reused,
                t.bytes_grown,
                100.0 * t.bytes_reused as f64 / (t.bytes_reused + t.bytes_grown) as f64
            );
        }
        if t.faults_injected > 0 {
            println!(
                "faults: {} injected ({} retries, {} timeout cycles, {} stalls)",
                t.faults_injected, t.retries, t.timeouts, t.stalls
            );
        }
        if let Some(cp) = &run.critpath {
            println!(
                "critical path: {comm} comm + {wait} wait + {compute} compute \
                 = makespan ({segs} segments)",
                comm = fmt_secs(cp.comm_seconds),
                wait = fmt_secs(cp.wait_seconds),
                compute = fmt_secs(cp.compute_seconds),
                segs = cp.segments
            );
            for b in &cp.blame {
                println!(
                    "  blame: rank {waiter} waited {secs} on rank {blamed}",
                    waiter = b.waiter,
                    secs = fmt_secs(b.seconds),
                    blamed = b.blamed
                );
            }
        }
        let err = run.decomposition_error();
        assert!(
            err <= accounting_bound(run.makespan),
            "accounting violated: phase/total times diverge from clocks by {err} s"
        );
    }
    if !report.selftime.is_empty() {
        println!("\nharness selftime (real wall-clock, process-wide heap allocations):");
        for row in &report.selftime {
            println!(
                "  {:<28} {:>10} wall  {:>12} allocs  {:>14} B{}",
                row.name,
                fmt_secs(row.wall_seconds),
                row.allocs,
                row.alloc_bytes,
                if row.steps > 0 { format!("  ({} steps)", row.steps) } else { String::new() }
            );
        }
    }
    println!(
        "\naccounting check passed: phase times sum to rank clocks within {:.1e} s",
        report.decomposition_error().max(1e-15)
    );
}

/// Per-group aggregate of trace events (group = phase name or event kind).
#[derive(Default)]
struct Bucket {
    events: u64,
    bytes: u64,
    busy_seconds: f64,
    /// Sum and count of the communicator size over collective events, for the
    /// mean fan-out.
    coll_events: u64,
    coll_nranks_sum: u64,
}

/// Point-to-point trace kinds: excluded from collective fan-out statistics.
/// `isend` posts and `wait` completions are p2p by nature, like `send`/`recv`;
/// `plan_build`/`plan_exec` mark persistent-plan setup and replay, and
/// `fault`/`retry`/`timeout` mark injected faults and their handling — all
/// per-rank events without a collective fan-out.
const P2P_KINDS: [&str; 9] =
    ["send", "recv", "isend", "wait", "plan_build", "plan_exec", "fault", "retry", "timeout"];

fn summarize_trace(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_else(|| fail(format!("{path}: empty file")));
    let columns: Vec<&str> = header.split(',').collect();
    if !columns.starts_with(&["rank", "kind", "t_start", "t_end", "bytes", "peer"]) {
        fail(format!("{path}: not a trace CSV (header '{header}')"));
    }
    let has_extended = columns.len() >= 8;

    let mut by_phase: BTreeMap<String, Bucket> = BTreeMap::new();
    let mut by_kind: BTreeMap<String, Bucket> = BTreeMap::new();
    let mut ranks: BTreeMap<u64, f64> = BTreeMap::new();
    let mut rows = 0u64;
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        assert!(f.len() >= 6, "{path}:{}: expected at least 6 columns", lineno + 2);
        let parse_f64 = |s: &str| -> f64 { s.parse().expect("bad number in trace") };
        let rank: u64 = f[0].parse().expect("bad rank");
        let kind = f[1];
        let t_start = parse_f64(f[2]);
        let t_end = parse_f64(f[3]);
        let bytes: u64 = f[4].parse().expect("bad bytes");
        let is_p2p = P2P_KINDS.contains(&kind);
        let nranks: Option<u64> = if has_extended { f[6].parse().ok() } else { None };
        let phase = if has_extended && !f[7].is_empty() {
            f[7].to_string()
        } else {
            "(untagged)".to_string()
        };

        for bucket in
            [by_phase.entry(phase).or_default(), by_kind.entry(kind.to_string()).or_default()]
        {
            bucket.events += 1;
            bucket.bytes += bytes;
            bucket.busy_seconds += (t_end - t_start).max(0.0);
            if !is_p2p {
                bucket.coll_events += 1;
                bucket.coll_nranks_sum += nranks.unwrap_or(0);
            }
        }
        let clock = ranks.entry(rank).or_insert(0.0);
        *clock = clock.max(t_end);
        rows += 1;
    }
    println!(
        "trace {path}: {rows} events, {nranks} ranks, last event ends at {end}",
        nranks = ranks.len(),
        end = fmt_secs(ranks.values().cloned().fold(0.0, f64::max))
    );
    if !has_extended {
        println!("(six-column legacy trace: no phase tags or communicator sizes)");
    }

    let print_table = |title: &str, table: &BTreeMap<String, Bucket>| {
        println!("\nby {title}:");
        println!(
            "{:<16} {:>8} {:>14} {:>12} {:>9} {:>9}",
            title, "events", "bytes", "busy[s]", "colls", "fan-out"
        );
        for (name, b) in table {
            let fanout = if b.coll_events > 0 && has_extended {
                format!("{:.0}", b.coll_nranks_sum as f64 / b.coll_events as f64)
            } else {
                "-".to_string()
            };
            println!(
                "{:<16} {:>8} {:>14} {:>12} {:>9} {:>9}",
                name,
                b.events,
                b.bytes,
                fmt_secs(b.busy_seconds),
                b.coll_events,
                fanout
            );
        }
    };
    print_table("phase", &by_phase);
    print_table("kind", &by_kind);
}

/// `--baseline`: the bench regression gate. Each report is diffed against
/// `<baseline_dir>/<same file name>`; the combined diff is written to
/// `gate_out` and any regression beyond `tolerance` exits 1.
fn run_gate(baseline_dir: &str, reports: &[&str], tolerance: f64, gate_out: &str) {
    let mut diffs: Vec<(String, gate::GateDiff)> = Vec::new();
    for path in reports {
        let current = load_report(path);
        let file_name = Path::new(path)
            .file_name()
            .unwrap_or_else(|| fail(format!("bad report path '{path}'")));
        let base_path = Path::new(baseline_dir).join(file_name);
        let base_path = base_path.to_str().expect("utf-8 path");
        let baseline = load_report(base_path);
        let diff = gate::diff_reports(&baseline, &current, tolerance);
        for row in &diff.rows {
            println!(
                "gate {path}: {label} {metric}: {base} -> {cur} {verdict}",
                label = row.label,
                metric = row.metric,
                base = fmt_secs(row.baseline),
                cur = fmt_secs(row.current),
                verdict = if row.regressed {
                    "REGRESSED"
                } else if row.current <= row.baseline {
                    "ok"
                } else {
                    "ok (within tolerance)"
                }
            );
        }
        for label in &diff.missing {
            println!("gate {path}: run '{label}' present in baseline only (not compared)");
        }
        for label in &diff.added {
            println!("gate {path}: run '{label}' is new (no baseline)");
        }
        diffs.push((path.to_string(), diff));
    }
    if let Some(dir) = Path::new(gate_out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
        }
    }
    let json = gate::diffs_to_json(tolerance, &diffs).pretty();
    std::fs::write(gate_out, json)
        .unwrap_or_else(|e| fail(format!("cannot write {gate_out}: {e}")));
    let regressions: usize = diffs.iter().map(|(_, d)| d.regressions().count()).sum();
    let rows: usize = diffs.iter().map(|(_, d)| d.rows.len()).sum();
    println!("gate: {rows} metrics compared, {regressions} regressed (diff in {gate_out})");
    if regressions > 0 {
        eprintln!(
            "commstats: regression gate failed ({regressions} metrics beyond \
             tolerance {tolerance})"
        );
        std::process::exit(1);
    }
}

fn main() {
    let cli = Cli::parse(
        "commstats",
        ABOUT,
        &[
            Opt::new("report", "PATHS", "comma-separated run reports to print, check or gate"),
            Opt::flag("check", "verify the reports' invariants quietly"),
            Opt::new("alloc-budget", "NAME=COUNT,...", "with --check: selftime allocation budgets"),
            Opt::new("baseline", "DIR", "gate the reports against DIR/<same file name>"),
            Opt::new("tolerance", "T", "gate: relative regression tolerance (default 0.05)"),
            Opt::new("gate-out", "PATH", "gate: diff artifact (default results/gate_diff.json)"),
            Opt::new("trace", "PATH", "summarize a trace CSV"),
        ],
        &[],
    );
    let report: String = cli.get("report", String::new());
    let trace: String = cli.get("trace", String::new());
    let check = cli.flag("check");
    let baseline: String = cli.get("baseline", String::new());
    let tolerance: f64 = cli.get("tolerance", gate::DEFAULT_TOLERANCE);
    let gate_out: String = cli.get("gate-out", "results/gate_diff.json".to_string());
    let budgets = parse_budgets(&cli.get("alloc-budget", String::new()));
    if report.is_empty() && trace.is_empty() {
        cli.fail("nothing to do (give --report and/or --trace)");
    }
    let report_paths: Vec<&str> = report.split(',').filter(|p| !p.is_empty()).collect();
    if !baseline.is_empty() {
        if report_paths.is_empty() {
            cli.fail("--baseline needs --report <paths> to compare");
        }
        run_gate(&baseline, &report_paths, tolerance, &gate_out);
    } else {
        for path in &report_paths {
            if check {
                check_report(path, &budgets);
            } else {
                summarize_report(path);
            }
        }
    }
    if !trace.is_empty() {
        summarize_trace(&trace);
    }
}
