//! End-to-end observability contract: the Perfetto export is valid JSON with
//! one span per trace record, the critical-path analysis partitions the
//! makespan *exactly* (bit for bit) and survives the report JSON round-trip,
//! and the `commstats` binary enforces both the schema and the regression
//! gate from the command line.

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
fn write_report(dir: &std::path::Path, name: &str, slow_factor: f64) -> std::path::PathBuf {
    let out = traced_run();
    let mut entry = bench::RunEntry::from_run(&out);
    bench::attach_analysis(&mut entry, &out.traces);
    if slow_factor != 1.0 {
        entry.makespan *= slow_factor;
        if let Some(cp) = entry.critpath.as_mut() {
            // Keep the partition identity intact while slowing the run down:
            // scale the components and recompute the exact remainder.
            cp.comm_seconds *= slow_factor;
            cp.wait_seconds *= slow_factor;
            cp.compute_seconds = entry.makespan - (cp.comm_seconds + cp.wait_seconds);
        }
    }
    let mut report = RunReport::new("obs", "test");
    report.push("ring/exchange", entry);
    let path = dir.join(name);
    std::fs::write(&path, report.to_json().pretty()).unwrap();
    path
}

#[test]
fn commstats_checks_and_gates_reports_end_to_end() {
    let commstats = env!("CARGO_BIN_EXE_commstats");
    let tmp = std::env::temp_dir().join(format!("obs_gate_{}", std::process::id()));
    let baseline = tmp.join("baseline");
    std::fs::create_dir_all(&baseline).unwrap();

    let current = write_report(&tmp, "obs_report.json", 1.0);
    write_report(&baseline, "obs_report.json", 1.0);

    // --check accepts the analyzed report (schema + exact partition).
    let ok = Command::new(commstats).args(["--check", "--report"]).arg(&current).output().unwrap();
    assert!(
        ok.status.success(),
        "--check failed on a fresh report:\n{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // Gate passes against an identical baseline.
    let pass = Command::new(commstats)
        .args(["--report"])
        .arg(&current)
        .arg("--baseline")
        .arg(&baseline)
        .arg("--gate-out")
        .arg(tmp.join("gate_pass.json"))
        .output()
        .unwrap();
    assert!(
        pass.status.success(),
        "gate failed on identical baseline:\n{}{}",
        String::from_utf8_lossy(&pass.stdout),
        String::from_utf8_lossy(&pass.stderr)
    );

    // Gate fails against a synthetically *faster* baseline (i.e. the current
    // run regressed by 1.5x), and the diff report records the regression.
    write_report(&baseline, "obs_slow.json", 1.0);
    let slowed = write_report(&tmp, "obs_slow.json", 1.5);
    let fail = Command::new(commstats)
        .args(["--report"])
        .arg(&slowed)
        .arg("--baseline")
        .arg(&baseline)
        .arg("--gate-out")
        .arg(tmp.join("gate_fail.json"))
        .output()
        .unwrap();
    assert!(!fail.status.success(), "gate must fail on a 1.5x slowdown");
    let diff = Json::parse(&std::fs::read_to_string(tmp.join("gate_fail.json")).unwrap()).unwrap();
    assert_eq!(diff.get("failed").and_then(Json::as_bool), Some(true));

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
    let path = write_report(&tmp, "obs_report.json", 1.0);
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
fn unknown_schema_version_is_rejected_by_commstats() {
    let commstats = env!("CARGO_BIN_EXE_commstats");
    let tmp = std::env::temp_dir().join(format!("obs_schema_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let path = write_report(&tmp, "future.json", 1.0);
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
    let path = write_report(&tmp, "edited.json", 1.0);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut report = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    report.runs[0].totals.wait_seconds += 1e-3 * report.runs[0].makespan;
    std::fs::write(&path, report.to_json().pretty()).unwrap();
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
