//! End-to-end observability contract: the Perfetto export is valid JSON with
//! one span per trace record, the critical-path analysis partitions the
//! makespan *exactly* (bit for bit) and survives the report JSON round-trip,
//! the `commstats` binary enforces both the schema and the regression gate
//! from the command line, and every harness survives a closed stdout.

use std::process::Command;

use bench::{RunReport, TimelineSink};
use particles::json::Json;
use simcomm::{MachineModel, Runner, Work};

/// A small traced workload exercising sends, nonblocking batches, and
/// collectives — enough shape for a non-trivial critical path.
fn traced_run() -> simcomm::RunOutput<u64> {
    Runner::default().traced(true).run(8, MachineModel::juropa_like(), |comm| {
        let n = comm.size();
        let rank = comm.rank();
        let mut acc = 0u64;
        for step in 0..3u64 {
            comm.compute(Work::ParticleOp, 50.0 + (rank as u64 * 13 % 40) as f64);
            let right = (rank + 1) % n;
            let left = (rank + n - 1) % n;
            let got = comm.sendrecv(right, vec![step; 16], left, 1);
            acc = acc.wrapping_add(got[0]);
            let r = comm.irecv::<u64>(left, 2);
            let s = comm.isend(right, 2, vec![acc; 8]);
            comm.waitall(vec![r, s]);
            acc = comm.allreduce(acc, |a, b| a.wrapping_add(b));
        }
        comm.barrier();
        acc
    })
}

/// Count events with the given `"ph"` in a parsed Chrome trace.
fn count_ph(trace: &Json, ph: &str) -> usize {
    trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
        .count()
}

#[test]
fn perfetto_export_is_valid_json_with_one_span_per_record() {
    let out = traced_run();
    let records: usize = out.traces.iter().map(|t| t.events.len()).sum();
    assert!(records > 0, "workload produced no trace records");

    let mut buf = Vec::new();
    simtrace::write_perfetto(&mut buf, &[("obs test", &out.traces)]).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let parsed = Json::parse(&text).expect("perfetto output must be valid JSON");

    assert_eq!(
        count_ph(&parsed, "X"),
        records,
        "exported span count must equal the trace record count"
    );
    // Flow arrows come in matched start/finish pairs.
    assert_eq!(count_ph(&parsed, "s"), count_ph(&parsed, "f"));
    assert!(count_ph(&parsed, "s") > 0, "matched messages must produce flow arrows");
}

#[test]
fn critical_path_partitions_makespan_exactly_and_survives_json() {
    let out = traced_run();
    let makespan = out.makespan();
    let mut entry = bench::RunEntry::from_run(&out);
    let analysis = bench::attach_analysis(&mut entry, &out.traces);

    // The three buckets partition the makespan exactly: compute is the
    // exact remainder, and comm/wait stay within range.
    let cp = entry.critpath.as_ref().expect("analysis must attach a critical path");
    assert_eq!(
        cp.compute_seconds.to_bits(),
        (makespan - (cp.comm_seconds + cp.wait_seconds)).to_bits(),
        "critical-path compute must be the exact remainder"
    );
    assert!(cp.partition_error(makespan) <= 1e-9 * makespan.max(1e-9));
    assert!(!analysis.segments.is_empty(), "critical path must have segments");

    // The makespan and the condensed analysis are the ones the deleted
    // thread-per-rank engine produced: 64-bit FNV-1a of their `Debug`
    // rendering, captured from that engine at commit `cf18bdf`.
    let got = format!("{:?}", (makespan.to_bits(), cp))
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    assert_eq!(
        got, 0xdf86_f3fd_2220_8832,
        "critical-path digest {got:#018x} differs from the frozen one"
    );

    // The identity survives the report JSON round-trip bit for bit.
    let mut report = RunReport::new("obs", "test");
    report.push("run", entry);
    let back = RunReport::from_json(&Json::parse(&report.to_json().pretty()).unwrap()).unwrap();
    let cp = back.runs[0].critpath.as_ref().expect("critpath survives round-trip");
    assert_eq!(
        cp.compute_seconds.to_bits(),
        (makespan - (cp.comm_seconds + cp.wait_seconds)).to_bits(),
        "partition identity must survive JSON round-trip exactly"
    );
}

/// Build a small analyzed report on disk and return its path.
fn write_report(dir: &std::path::Path, name: &str) -> std::path::PathBuf {
    let out = traced_run();
    let mut entry = bench::RunEntry::from_run(&out);
    bench::attach_analysis(&mut entry, &out.traces);
    let mut report = RunReport::new("obs", "test");
    report.push("ring/exchange", entry);
    let path = dir.join(name);
    std::fs::write(&path, report.to_json().pretty()).unwrap();
    path
}

/// Rewrite the report at `path` with `edit` applied.
fn edit_report(path: &std::path::Path, edit: impl FnOnce(&mut RunReport)) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut report = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    edit(&mut report);
    std::fs::write(path, report.to_json().pretty()).unwrap();
}

#[test]
fn commstats_checks_and_gates_reports_end_to_end() {
    let commstats = env!("CARGO_BIN_EXE_commstats");
    let tmp = std::env::temp_dir().join(format!("obs_gate_{}", std::process::id()));
    let baseline = tmp.join("baseline");
    std::fs::create_dir_all(&baseline).unwrap();

    // --check accepts the analyzed report (schema + exact partition).
    let current = write_report(&tmp, "obs_report.json");
    let ok = Command::new(commstats).args(["--check", "--report"]).arg(&current).output().unwrap();
    assert!(
        ok.status.success(),
        "--check failed on a fresh report:\n{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // Gate one report, edited by `edit`, against its unedited baseline, or
    // the baseline edited by `edit_base`; returns the exit code and stdout.
    let gate = |name: &str, edit: &dyn Fn(&mut RunReport), edit_base: &dyn Fn(&mut RunReport)| {
        let current = write_report(&tmp, name);
        edit_report(&current, edit);
        edit_report(&write_report(&baseline, name), edit_base);
        let out = Command::new(commstats)
            .arg("--report")
            .arg(&current)
            .arg("--baseline")
            .arg(&baseline)
            .output()
            .unwrap();
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let same = |_: &mut RunReport| {};

    let (code, out) = gate("same.json", &same, &same);
    assert_eq!(code, Some(0), "an identical baseline must pass:\n{out}");
    assert!(out.ends_with("0 fields differ (0 up, 0 down, 0 other)\n"), "{out}");

    // Equality, not "no higher": a makespan one ulp *lower* fails too.
    let faster = |r: &mut RunReport| r.runs[0].makespan = r.runs[0].makespan.next_down();
    let (code, out) = gate("faster.json", &faster, &same);
    assert_eq!(code, Some(1), "a lower makespan must fail:\n{out}");
    assert!(out.contains("runs[ring/exchange].makespan: "), "{out}");
    assert!(out.contains(" down\n") && out.contains("1 fields differ (0 up, 1 down"), "{out}");

    // Every field is compared, down to one value of one phase row.
    let phase = |r: &mut RunReport| r.runs[0].phases[0].p2p_bytes += 1;
    let (code, out) = gate("phase.json", &phase, &same);
    assert_eq!(code, Some(1), "a changed phase row must fail:\n{out}");
    assert!(out.contains("runs[ring/exchange].phases[0].p2p_bytes: "), "{out}");
    assert!(out.contains("1 fields differ (1 up, 0 down, 0 other)"), "{out}");

    // The host rows are no part of the comparison.
    let host = |r: &mut RunReport| {
        r.selftime.push(bench::SelftimeRow {
            name: "wall".into(),
            wall_seconds: 1.5,
            ..Default::default()
        })
    };
    let (code, out) = gate("host.json", &host, &same);
    assert_eq!(code, Some(0), "harness_selftime must not be compared:\n{out}");

    // A run the baseline has and the report lacks fails.
    let extra = |r: &mut RunReport| {
        let run = r.runs[0].clone();
        r.push("ring/extra", run);
    };
    let (code, out) = gate("missing.json", &same, &extra);
    assert_eq!(code, Some(1), "a run present in the baseline only must fail:\n{out}");
    assert!(out.contains("runs[ring/extra]: present in baseline only"), "{out}");

    // Unknown flags exit nonzero with usage; --help exits zero.
    let bad = Command::new(commstats).args(["--no-such-flag"]).output().unwrap();
    assert!(!bad.status.success(), "unknown flag must be rejected");
    let help = Command::new(commstats).args(["--help"]).output().unwrap();
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("USAGE"));

    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn commstats_exits_quietly_when_its_reader_goes_away() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let commstats = env!("CARGO_BIN_EXE_commstats");
    let tmp = std::env::temp_dir().join(format!("obs_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let path = write_report(&tmp, "obs_report.json");
    // The same report many times over: far more output than a pipe buffers,
    // so commstats is still writing when the reader hangs up.
    let paths = vec![path.display().to_string(); 400].join(",");
    let mut child = Command::new(commstats)
        .args(["--report", &paths])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(first.starts_with("report "), "unexpected first line: {first}");
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "a closed stdout must end the output quietly: {err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn a_harness_whose_reader_goes_away_still_writes_its_report() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let tmp = std::env::temp_dir().join(format!("obs_harness_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_scale"))
        .args(["--procs", "64", "--steps", "1"])
        .current_dir(&tmp)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Read the first line, then hang up while the sweep still runs.
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "a closed stdout must not end the run: {err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(tmp.join("results/scale_report.json").is_file(), "the report was not written");
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn unknown_schema_version_is_rejected_by_commstats() {
    let commstats = env!("CARGO_BIN_EXE_commstats");
    let tmp = std::env::temp_dir().join(format!("obs_schema_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let path = write_report(&tmp, "future.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replacen("\"schema_version\": 3", "\"schema_version\": 99", 1);
    assert_ne!(text, bumped, "expected schema fields in the report");
    std::fs::write(&path, bumped).unwrap();
    let out = Command::new(commstats).args(["--check", "--report"]).arg(&path).output().unwrap();
    assert!(!out.status.success(), "future schema_version must be rejected");
    let all =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(all.contains("schema_version 99"), "diagnostic must name the version:\n{all}");
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn commstats_check_rejects_edited_totals() {
    let commstats = env!("CARGO_BIN_EXE_commstats");
    let tmp = std::env::temp_dir().join(format!("obs_totals_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let path = write_report(&tmp, "edited.json");
    edit_report(&path, |r| r.runs[0].totals.wait_seconds += 1e-3 * r.runs[0].makespan);
    let out = Command::new(commstats).args(["--check", "--report"]).arg(&path).output().unwrap();
    assert!(!out.status.success(), "--check must reject totals that miss the mean clock");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ring/exchange"), "diagnostic must name the run:\n{err}");
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn timeline_sink_writes_openable_perfetto_file() {
    let tmp = std::env::temp_dir().join(format!("obs_timeline_{}.json", std::process::id()));
    let mut sink = TimelineSink::from_path(tmp.display().to_string());
    assert!(sink.active());
    let out = traced_run();
    let records: usize = out.traces.iter().map(|t| t.events.len()).sum();
    sink.push("run-a".to_string(), out.traces);
    sink.finish();
    let parsed = Json::parse(&std::fs::read_to_string(&tmp).unwrap())
        .expect("TimelineSink must write valid JSON");
    assert_eq!(count_ph(&parsed, "X"), records);
    std::fs::remove_file(&tmp).ok();
}

#[test]
fn commstats_trace_rejects_a_row_shorter_than_its_header() {
    let commstats = env!("CARGO_BIN_EXE_commstats");
    let path = std::env::temp_dir().join(format!("obs_short_row_{}.csv", std::process::id()));
    let header = "rank,kind,t_start,t_end,bytes,peer,nranks,phase,corr";
    std::fs::write(&path, format!("{header}\n0,send,0,0.5,8,1\n")).unwrap();
    let out = Command::new(commstats).arg("--trace").arg(&path).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "a short row must fail, not panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(&format!("{}:2: 6 columns", path.display())), "{err}");
    std::fs::remove_file(&path).ok();
}
