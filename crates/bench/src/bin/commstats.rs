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
//! * `commstats --baseline <dir> --report <a.json>[,…]` — the regression
//!   gate: each report must equal the baseline of the same file name under
//!   `<dir>` field for field, its host rows (`harness_selftime`) aside.
//!   Numbers are equal when their bits are; every differing field prints
//!   one line (for numbers with `up` or `down`), and any difference exits 1.
//!
//! All times are virtual seconds of the simulated machine model; sizes are
//! bytes. See `docs/OBSERVABILITY.md` for the schema reference.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use bench::cli::{Cli, Opt};
use bench::{accounting_bound, fmt_secs, format_phase_table, outln, Out, RunReport};
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

  commstats --baseline <dir> --report <paths>
      Regression gate: each report must equal <dir>/<same file name> field
      for field, its host rows (harness_selftime) aside. Prints one line
      per differing field; exits 1 when any differs.

  commstats --trace results/<trace>.csv
      Aggregate a trace CSV by phase and by event kind.";

/// Report an input error (unreadable or malformed file) without a panic
/// backtrace.
fn fail(msg: String) -> ! {
    eprintln!("commstats: {msg}");
    std::process::exit(2);
}

/// Read a run report: its JSON tree and the report it holds (the schema
/// check).
fn load(path: &str) -> (Json, RunReport) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let value = Json::parse(&text).unwrap_or_else(|e| fail(format!("{path}: invalid JSON: {e}")));
    let report = RunReport::from_json(&value)
        .unwrap_or_else(|e| fail(format!("{path}: not a run report: {e}")));
    (value, report)
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
    let (_, report) = load(path);
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
        outln!(
            "check {path}: selftime '{}' within budget ({:.1} <= {} allocs/step)",
            budget.name,
            per_step,
            budget.max_allocs
        );
    }
    outln!(
        "check {path}: ok ({n} runs, {with_critpath} with exact critical paths, \
         max accounting error {max_err:.1e} s)",
        n = report.runs.len()
    );
}

fn summarize_report(path: &str) {
    let (_, report) = load(path);
    outln!(
        "report {path}: figure {figure}, machine {machine}, {n} runs",
        figure = report.figure,
        machine = report.machine,
        n = report.runs.len()
    );
    if !report.params.is_empty() {
        let params: Vec<String> = report.params.iter().map(|(k, v)| format!("{k}={v}")).collect();
        outln!("params: {}", params.join(", "));
    }
    for run in &report.runs {
        outln!(
            "\n== {label} ({nranks} ranks, makespan {makespan}) ==",
            label = run.label,
            nranks = run.nranks,
            makespan = fmt_secs(run.makespan)
        );
        write!(Out, "{}", format_phase_table(run));
        let t = &run.totals;
        if t.plan_builds + t.plan_execs > 0 {
            outln!(
                "plan reuse: {} builds, {} executions ({:.1}% reuse)",
                t.plan_builds,
                t.plan_execs,
                100.0 * t.plan_execs as f64 / (t.plan_builds + t.plan_execs) as f64
            );
        }
        if t.bytes_reused + t.bytes_grown > 0 {
            outln!(
                "buffer pool: {} B served from arenas, {} B grown ({:.1}% reuse)",
                t.bytes_reused,
                t.bytes_grown,
                100.0 * t.bytes_reused as f64 / (t.bytes_reused + t.bytes_grown) as f64
            );
        }
        if t.faults_injected > 0 {
            outln!(
                "faults: {} injected ({} retries, {} timeout cycles, {} stalls)",
                t.faults_injected,
                t.retries,
                t.timeouts,
                t.stalls
            );
        }
        if let Some(cp) = &run.critpath {
            outln!(
                "critical path: {comm} comm + {wait} wait + {compute} compute \
                 = makespan ({segs} segments)",
                comm = fmt_secs(cp.comm_seconds),
                wait = fmt_secs(cp.wait_seconds),
                compute = fmt_secs(cp.compute_seconds),
                segs = cp.segments
            );
            for b in &cp.blame {
                outln!(
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
        outln!("\nharness selftime (real wall-clock, process-wide heap allocations):");
        for row in &report.selftime {
            outln!(
                "  {:<28} {:>10} wall  {:>12} allocs  {:>14} B{}",
                row.name,
                fmt_secs(row.wall_seconds),
                row.allocs,
                row.alloc_bytes,
                if row.steps > 0 { format!("  ({} steps)", row.steps) } else { String::new() }
            );
        }
    }
    outln!(
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
        if f.len() != columns.len() {
            let (line, got, want) = (lineno + 2, f.len(), columns.len());
            fail(format!("{path}:{line}: {got} columns, the header has {want}"));
        }
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
    outln!(
        "trace {path}: {rows} events, {nranks} ranks, last event ends at {end}",
        nranks = ranks.len(),
        end = fmt_secs(ranks.values().cloned().fold(0.0, f64::max))
    );
    if !has_extended {
        outln!("(six-column legacy trace: no phase tags or communicator sizes)");
    }

    let print_table = |title: &str, table: &BTreeMap<String, Bucket>| {
        outln!("\nby {title}:");
        outln!(
            "{:<16} {:>8} {:>14} {:>12} {:>9} {:>9}",
            title,
            "events",
            "bytes",
            "busy[s]",
            "colls",
            "fan-out"
        );
        for (name, b) in table {
            let fanout = if b.coll_events > 0 && has_extended {
                format!("{:.0}", b.coll_nranks_sum as f64 / b.coll_events as f64)
            } else {
                "-".to_string()
            };
            outln!(
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

/// Walk `base` and `cur` together and hand every field that differs to
/// `differ`: its path, the two values, and for a number which way it moved.
/// Numbers are equal when their bits are, objects and arrays when their
/// children are, and anything else when its value is.
fn compare<F>(differ: &mut F, path: &str, base: &Json, cur: &Json)
where
    F: FnMut(&str, String, Option<Ordering>),
{
    if let (Some(b), Some(c)) = (children(path, base), children(path, cur)) {
        for at in b.keys().chain(c.keys()).collect::<BTreeSet<_>>() {
            match (b.get(at), c.get(at)) {
                (Some(bv), Some(cv)) => compare(differ, at, bv, cv),
                (Some(_), None) => differ(at, "present in baseline only".into(), None),
                _ => differ(at, "present in current only".into(), None),
            }
        }
        return;
    }
    let differs = match (base, cur) {
        (Json::Num(b), Json::Num(c)) => b.to_bits() != c.to_bits(),
        _ => base != cur,
    };
    if differs {
        let show = |v: &Json| v.as_f64().map_or_else(|| v.line(), |x| format!("{x:e}"));
        let moved = base.as_f64().zip(cur.as_f64()).and_then(|(b, c)| c.partial_cmp(&b));
        differ(path, format!("{} -> {}", show(base), show(cur)), moved);
    }
}

/// The children of an object or array by their paths below `path`: an
/// object's by key, an array's by `label` (the runs of a report) or else by
/// position. `None` for any other value, and for a node with two children
/// of one path, which is then compared as a whole.
fn children<'a>(path: &str, v: &'a Json) -> Option<BTreeMap<String, &'a Json>> {
    let named: Vec<(String, &Json)> = match v {
        Json::Obj(pairs) => pairs.iter().map(|(k, v)| (format!("{path}.{k}"), v)).collect(),
        Json::Arr(items) => (items.iter().enumerate())
            .map(|(i, v)| match v.get("label").and_then(Json::as_str) {
                Some(label) => (format!("{path}[{label}]"), v),
                None => (format!("{path}[{i}]"), v),
            })
            .collect(),
        _ => return None,
    };
    let n = named.len();
    let by_path: BTreeMap<_, _> = named.into_iter().collect();
    (by_path.len() == n).then_some(by_path)
}

/// `--baseline`: the regression gate. Each report must equal
/// `<baseline_dir>/<same file name>` field for field, its host rows (the
/// top-level `harness_selftime` key) aside. Every differing field prints
/// one line, a number with `up` or `down`; any difference exits 1.
fn run_gate(baseline_dir: &str, reports: &[&str]) {
    let mut counts = [0usize; 3]; // up, down, other
    for path in reports {
        let file_name = Path::new(path)
            .file_name()
            .unwrap_or_else(|| fail(format!("bad report path '{path}'")));
        let base_path = Path::new(baseline_dir).join(file_name);
        let [base, cur] = [base_path.to_str().expect("utf-8 path"), path].map(|p| {
            let (mut tree, _) = load(p);
            if let Json::Obj(pairs) = &mut tree {
                pairs.retain(|(k, _)| k != "harness_selftime");
            }
            tree
        });
        let mut differ = |at: &str, what: String, moved: Option<Ordering>| {
            let (i, tag) = match moved {
                Some(Ordering::Greater) => (0, " up"),
                Some(Ordering::Less) => (1, " down"),
                _ => (2, ""),
            };
            counts[i] += 1;
            outln!("{path}: {}: {what}{tag}", at.strip_prefix('.').unwrap_or(at));
        };
        compare(&mut differ, "", &base, &cur);
    }
    let [up, down, other] = counts;
    outln!("{} fields differ ({up} up, {down} down, {other} other)", up + down + other);
    if up + down + other > 0 {
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
            Opt::new("baseline", "DIR", "the reports must equal DIR/<same file name>"),
            Opt::new("trace", "PATH", "summarize a trace CSV"),
        ],
        &[],
    );
    let report: String = cli.get("report", String::new());
    let trace: String = cli.get("trace", String::new());
    let check = cli.flag("check");
    let baseline: String = cli.get("baseline", String::new());
    let budgets = parse_budgets(&cli.get("alloc-budget", String::new()));
    if report.is_empty() && trace.is_empty() {
        cli.fail("nothing to do (give --report and/or --trace)");
    }
    let report_paths: Vec<&str> = report.split(',').filter(|p| !p.is_empty()).collect();
    if !baseline.is_empty() {
        if report_paths.is_empty() {
            cli.fail("--baseline needs --report <paths> to compare");
        }
        run_gate(&baseline, &report_paths);
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
