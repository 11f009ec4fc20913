//! Machine-readable run reports.
//!
//! Every figure harness and the ablation binary emit a [`RunReport`] as
//! `results/<name>_report.json` next to their CSV output. A report captures
//! the workload parameters, the machine model, and for every world executed a
//! [`RunEntry`]: makespan, per-phase aggregate table (critical path, mean,
//! imbalance, traffic) and the run's counters summed over ranks. All times
//! are **virtual seconds** of the simulated machine model; all sizes are
//! bytes. See `docs/OBSERVABILITY.md` for the full field reference.

use std::path::PathBuf;

use simcomm::{PhaseAgg, RankStats, RunOutput};

use particles::json::Json;

/// The report schema version, written as `schema_version`; the reader
/// accepts this version only.
pub const REPORT_SCHEMA: u64 = 3;

/// The largest accounting error a run of makespan `makespan` may carry, in
/// virtual seconds: a rank's `comm + wait + compute` against its clock, and
/// the phase means against the mean clock.
pub fn accounting_bound(makespan: f64) -> f64 {
    1e-6 * makespan.max(1e-9)
}

/// One JSON report file: workload description plus one entry per world run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Which harness produced the report (`"fig6"` … `"ablation"`).
    pub figure: String,
    /// Machine model name (`"juropa_like"`, `"juqueen_like"`, `"ideal"`, or
    /// `"mixed"` when entries use different models).
    pub machine: String,
    /// Workload parameters as key/value strings (cells, steps, tolerance, …).
    pub params: Vec<(String, String)>,
    /// One entry per simulated world, in execution order.
    pub runs: Vec<RunEntry>,
    /// Harness self-timing: **real** wall-clock and heap-allocation deltas
    /// per harness phase (everything above is virtual machine-model time).
    /// Serialized as `"harness_selftime"`; absent in older reports, which
    /// parse as an empty list. See [`crate::Selftime`].
    pub selftime: Vec<SelftimeRow>,
}

/// One harness self-timing lap: real elapsed time and process-wide heap
/// allocation deltas over one phase of the benchmark binary itself.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelftimeRow {
    /// Phase label (`"run:md/planned"`, `"steady-resort-probe"`, …).
    pub name: String,
    /// Real elapsed wall-clock seconds of the phase.
    pub wall_seconds: f64,
    /// Heap allocations performed by the whole process during the phase.
    pub allocs: u64,
    /// Bytes of heap newly allocated during the phase.
    pub alloc_bytes: u64,
    /// Steady-state repetitions the phase covered (0 = not a per-step
    /// phase). `commstats --check --alloc-budget` divides `allocs` by this
    /// before comparing against the budget.
    pub steps: u64,
}

/// Aggregates of one simulated world execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunEntry {
    /// What this run was (`"fmm/methodA"`, `"p=256 random"`, …).
    pub label: String,
    /// World size (number of simulated ranks).
    pub nranks: usize,
    /// Maximum final rank clock — the run's makespan in virtual seconds.
    pub makespan: f64,
    /// Mean final rank clock in virtual seconds. The per-phase
    /// `mean_seconds` (including `"(untagged)"`) sum to this within rounding.
    pub mean_clock: f64,
    /// Per-phase cross-rank aggregates, `"(untagged)"` last.
    pub phases: Vec<PhaseRow>,
    /// Every rank's [`RankStats`] summed field by field in rank order.
    pub totals: RankStats,
    /// Critical-path decomposition and wait-blame attribution, filled when
    /// the harness ran its worlds traced (`--analyze` / `--perfetto`).
    /// `None` in plain runs.
    pub critpath: Option<CritPath>,
}

/// Critical-path decomposition of one run, produced by `simtrace::analyze`
/// from the happens-before trace graph. The three time components are an
/// exact partition of the makespan: `compute_seconds` is stored as the
/// remainder `makespan - (comm_seconds + wait_seconds)`, so the identity
/// holds bit-for-bit after a JSON round trip.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CritPath {
    /// Virtual seconds of the critical path spent in message transfer.
    pub comm_seconds: f64,
    /// Virtual seconds of the critical path spent blocked on another rank.
    pub wait_seconds: f64,
    /// Virtual seconds of the critical path spent computing (exact remainder
    /// of the makespan after comm and wait).
    pub compute_seconds: f64,
    /// Number of segments in the critical-path chain.
    pub segments: u64,
    /// Heaviest wait-blame rows (waiter ← blamed), largest first; truncated
    /// to [`CritPath::TOP_BLAME`] rows.
    pub blame: Vec<BlameRow>,
}

/// One aggregated wait-blame cell: total virtual seconds `waiter` spent
/// blocked waiting on `blamed` across the whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlameRow {
    /// Rank that was blocked.
    pub waiter: usize,
    /// Rank whose lateness caused the block.
    pub blamed: usize,
    /// Total blocked virtual seconds attributed to this pair.
    pub seconds: f64,
}

/// Cross-rank aggregate of one phase (the serialized form of
/// [`simcomm::PhaseAgg`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseRow {
    /// Phase name (`"(untagged)"` for the remainder row).
    pub name: String,
    /// Spans entered, summed over ranks.
    pub spans: u64,
    /// Critical path: maximum over ranks of the attributed virtual seconds.
    pub max_seconds: f64,
    /// Mean over ranks of the attributed virtual seconds.
    pub mean_seconds: f64,
    /// Imbalance ratio `max/mean` (1.0 when the mean is zero).
    pub imbalance: f64,
    /// Mean over ranks of the communication-transfer virtual seconds.
    pub mean_comm_seconds: f64,
    /// Mean over ranks of the rendezvous-wait virtual seconds.
    pub mean_wait_seconds: f64,
    /// Mean over ranks of the modelled-compute virtual seconds.
    pub mean_compute_seconds: f64,
    /// Point-to-point messages sent, summed over ranks.
    pub p2p_msgs: u64,
    /// Point-to-point bytes sent, summed over ranks.
    pub p2p_bytes: u64,
    /// Collective operations entered, summed over ranks.
    pub coll_ops: u64,
    /// Bytes contributed to collectives, summed over ranks.
    pub coll_bytes: u64,
}

impl CritPath {
    /// How many wait-blame rows a report keeps (the heaviest ones).
    pub const TOP_BLAME: usize = 8;

    /// Condense a full trace analysis into the report form: exact makespan
    /// partition plus the top-[`CritPath::TOP_BLAME`] blame rows.
    pub fn from_analysis(a: &simtrace::Analysis) -> CritPath {
        CritPath {
            comm_seconds: a.critpath_comm,
            wait_seconds: a.critpath_wait,
            compute_seconds: a.critpath_compute,
            segments: a.segments.len() as u64,
            blame: a
                .blame
                .iter()
                .take(Self::TOP_BLAME)
                .map(|b| BlameRow { waiter: b.waiter, blamed: b.blamed, seconds: b.seconds })
                .collect(),
        }
    }

    /// Largest violation of the critical-path invariants against the run's
    /// makespan, in virtual seconds: the components must partition the
    /// makespan exactly and each lie in `[0, makespan]`.
    pub fn partition_error(&self, makespan: f64) -> f64 {
        let sum_err =
            ((self.comm_seconds + self.wait_seconds + self.compute_seconds) - makespan).abs();
        let range_err = [self.comm_seconds, self.wait_seconds, self.compute_seconds]
            .iter()
            .map(|&c| (-c).max(c - makespan).max(0.0))
            .fold(0.0, f64::max);
        sum_err.max(range_err)
    }
}

impl RunEntry {
    /// Build an entry from a finished world run (label set to `""`; fill it
    /// in before pushing the entry into a report).
    pub fn from_run<R>(out: &RunOutput<R>) -> RunEntry {
        Self::from_parts(&out.phase_table(), &out.stats, &out.clocks)
    }

    /// Build an entry from the world's aggregate pieces: `stats[r]` and
    /// `clocks[r]` are rank `r`'s counters and final clock.
    ///
    /// Panics when a rank's `comm + wait + compute` misses its clock by more
    /// than [`accounting_bound`]: the entry keeps only the sum over ranks, so
    /// the per-rank identity is checked here, before the ranks are summed.
    pub fn from_parts(table: &[PhaseAgg], stats: &[RankStats], clocks: &[f64]) -> RunEntry {
        assert_eq!(stats.len(), clocks.len(), "one RankStats per rank clock");
        let nranks = clocks.len();
        let makespan = clocks.iter().cloned().fold(0.0, f64::max);
        for (rank, (s, &clock)) in stats.iter().zip(clocks).enumerate() {
            let err = (clock - (s.comm_seconds + s.wait_seconds + s.compute_seconds)).abs();
            assert!(
                err <= accounting_bound(makespan),
                "rank {rank}: comm + wait + compute diverges from its clock {clock:e} s \
                 by {err:.3e} s (makespan {makespan:e} s)"
            );
        }
        RunEntry {
            label: String::new(),
            nranks,
            makespan,
            mean_clock: clocks.iter().sum::<f64>() / nranks.max(1) as f64,
            phases: table
                .iter()
                .map(|a| PhaseRow {
                    name: a.name.to_string(),
                    spans: a.spans,
                    max_seconds: a.max_seconds,
                    mean_seconds: a.mean_seconds,
                    imbalance: a.imbalance,
                    mean_comm_seconds: a.mean_comm_seconds,
                    mean_wait_seconds: a.mean_wait_seconds,
                    mean_compute_seconds: a.mean_compute_seconds,
                    p2p_msgs: a.p2p_msgs,
                    p2p_bytes: a.p2p_bytes,
                    coll_ops: a.coll_ops,
                    coll_bytes: a.coll_bytes,
                })
                .collect(),
            totals: stats.iter().fold(RankStats::default(), |mut t, s| {
                t.comm_seconds += s.comm_seconds;
                t.wait_seconds += s.wait_seconds;
                t.compute_seconds += s.compute_seconds;
                t.p2p_sent_msgs += s.p2p_sent_msgs;
                t.p2p_sent_bytes += s.p2p_sent_bytes;
                t.p2p_recv_msgs += s.p2p_recv_msgs;
                t.p2p_recv_bytes += s.p2p_recv_bytes;
                t.coll_ops += s.coll_ops;
                t.coll_bytes += s.coll_bytes;
                t.plan_builds += s.plan_builds;
                t.plan_execs += s.plan_execs;
                t.faults_injected += s.faults_injected;
                t.retries += s.retries;
                t.timeouts += s.timeouts;
                t.stalls += s.stalls;
                t.bytes_reused += s.bytes_reused;
                t.bytes_grown += s.bytes_grown;
                t
            }),
            critpath: None,
        }
    }

    /// Largest violation of the accounting invariants, in virtual seconds:
    /// across phases `|Σ mean_seconds − mean_clock|`, and per rank on
    /// average `|mean_clock · nranks − (comm + wait + compute)| / nranks`
    /// over the totals. Zero up to floating-point rounding for every entry
    /// [`RunEntry::from_parts`] builds.
    pub fn decomposition_error(&self) -> f64 {
        let t = &self.totals;
        let n = self.nranks.max(1) as f64;
        let totals_err =
            (self.mean_clock * n - (t.comm_seconds + t.wait_seconds + t.compute_seconds)).abs() / n;
        let phase_sum: f64 = self.phases.iter().map(|p| p.mean_seconds).sum();
        totals_err.max((phase_sum - self.mean_clock).abs())
    }

    /// Virtual seconds attributed to phases whose name starts with `prefix`
    /// (mean over ranks). E.g. `share_of("sort")` covers `sort`,
    /// `sort:exchange`, ….
    pub fn mean_seconds_of(&self, prefix: &str) -> f64 {
        self.phases.iter().filter(|p| p.name.starts_with(prefix)).map(|p| p.mean_seconds).sum()
    }

    /// Serialize this entry alone (the element format of a report's `runs`
    /// array). Round-trips exactly through [`RunEntry::from_json`] — campaign
    /// payloads rely on this to stream per-run entries through durable
    /// storage without losing a bit.
    pub fn to_json(&self) -> Json {
        run_to_json(self)
    }

    /// Parse an entry serialized by [`RunEntry::to_json`].
    pub fn from_json(v: &Json) -> Result<RunEntry, String> {
        run_from_json(v)
    }
}

impl RunReport {
    /// Create an empty report.
    pub fn new(figure: &str, machine: &str) -> RunReport {
        RunReport {
            figure: figure.to_string(),
            machine: machine.to_string(),
            params: Vec::new(),
            runs: Vec::new(),
            selftime: Vec::new(),
        }
    }

    /// Record a workload parameter.
    pub fn param(&mut self, key: &str, value: impl std::fmt::Display) {
        self.params.push((key.to_string(), value.to_string()));
    }

    /// Add a run entry under the given label.
    pub fn push(&mut self, label: impl Into<String>, mut entry: RunEntry) {
        entry.label = label.into();
        self.runs.push(entry);
    }

    /// Largest [`RunEntry::decomposition_error`] across entries.
    pub fn decomposition_error(&self) -> f64 {
        self.runs.iter().map(|r| r.decomposition_error()).fold(0.0, f64::max)
    }

    /// Serialize to the JSON document structure.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::Num(REPORT_SCHEMA as f64)),
            ("figure", Json::Str(self.figure.clone())),
            ("machine", Json::Str(self.machine.clone())),
            (
                "params",
                Json::Obj(
                    self.params.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect(),
                ),
            ),
            ("runs", Json::Arr(self.runs.iter().map(run_to_json).collect())),
        ];
        if !self.selftime.is_empty() {
            fields.push((
                "harness_selftime",
                Json::Arr(
                    self.selftime
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::Str(s.name.clone())),
                                ("wall_seconds", Json::Num(s.wall_seconds)),
                                ("allocs", Json::Num(s.allocs as f64)),
                                ("alloc_bytes", Json::Num(s.alloc_bytes as f64)),
                                ("steps", Json::Num(s.steps as f64)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(fields)
    }

    /// Parse a report back from JSON (inverse of [`RunReport::to_json`]).
    pub fn from_json(v: &Json) -> Result<RunReport, String> {
        let schema = field_u64(v, "schema_version")?;
        if schema != REPORT_SCHEMA {
            return Err(format!(
                "unsupported report schema_version {schema} (this build reads {REPORT_SCHEMA})"
            ));
        }
        Ok(RunReport {
            figure: field_str(v, "figure")?,
            machine: field_str(v, "machine")?,
            params: match v.get("params") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, val)| {
                        val.as_str()
                            .map(|s| (k.clone(), s.to_string()))
                            .ok_or_else(|| format!("param '{k}' is not a string"))
                    })
                    .collect::<Result<_, _>>()?,
                _ => return Err("missing 'params' object".into()),
            },
            runs: v
                .get("runs")
                .and_then(Json::as_arr)
                .ok_or("missing 'runs' array")?
                .iter()
                .map(run_from_json)
                .collect::<Result<_, _>>()?,
            selftime: match v.get("harness_selftime").and_then(Json::as_arr) {
                None => Vec::new(),
                Some(rows) => rows
                    .iter()
                    .map(|s| {
                        Ok(SelftimeRow {
                            name: field_str(s, "name")?,
                            wall_seconds: field_f64(s, "wall_seconds")?,
                            allocs: field_u64(s, "allocs")?,
                            alloc_bytes: field_u64(s, "alloc_bytes")?,
                            steps: field_u64(s, "steps")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            },
        })
    }

    /// Write the report to `results/<name>_report.json`; returns the path.
    pub fn write(&self, name: &str) -> PathBuf {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = dir.join(format!("{name}_report.json"));
        std::fs::write(&path, self.to_json().pretty()).expect("write report");
        path
    }
}

fn run_to_json(r: &RunEntry) -> Json {
    let t = &r.totals;
    let mut fields = vec![
        ("label", Json::Str(r.label.clone())),
        ("nranks", Json::Num(r.nranks as f64)),
        ("makespan", Json::Num(r.makespan)),
        ("mean_clock", Json::Num(r.mean_clock)),
        (
            "phases",
            Json::Arr(
                r.phases
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::Str(p.name.clone())),
                            ("spans", Json::Num(p.spans as f64)),
                            ("max_seconds", Json::Num(p.max_seconds)),
                            ("mean_seconds", Json::Num(p.mean_seconds)),
                            ("imbalance", Json::Num(p.imbalance)),
                            ("mean_comm_seconds", Json::Num(p.mean_comm_seconds)),
                            ("mean_wait_seconds", Json::Num(p.mean_wait_seconds)),
                            ("mean_compute_seconds", Json::Num(p.mean_compute_seconds)),
                            ("p2p_msgs", Json::Num(p.p2p_msgs as f64)),
                            ("p2p_bytes", Json::Num(p.p2p_bytes as f64)),
                            ("coll_ops", Json::Num(p.coll_ops as f64)),
                            ("coll_bytes", Json::Num(p.coll_bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "totals",
            Json::obj(vec![
                ("comm_seconds", Json::Num(t.comm_seconds)),
                ("wait_seconds", Json::Num(t.wait_seconds)),
                ("compute_seconds", Json::Num(t.compute_seconds)),
                ("p2p_sent_msgs", Json::Num(t.p2p_sent_msgs as f64)),
                ("p2p_sent_bytes", Json::Num(t.p2p_sent_bytes as f64)),
                ("p2p_recv_msgs", Json::Num(t.p2p_recv_msgs as f64)),
                ("p2p_recv_bytes", Json::Num(t.p2p_recv_bytes as f64)),
                ("coll_ops", Json::Num(t.coll_ops as f64)),
                ("coll_bytes", Json::Num(t.coll_bytes as f64)),
                ("plan_builds", Json::Num(t.plan_builds as f64)),
                ("plan_execs", Json::Num(t.plan_execs as f64)),
                ("faults_injected", Json::Num(t.faults_injected as f64)),
                ("retries", Json::Num(t.retries as f64)),
                ("timeouts", Json::Num(t.timeouts as f64)),
                ("stalls", Json::Num(t.stalls as f64)),
                ("bytes_reused", Json::Num(t.bytes_reused as f64)),
                ("bytes_grown", Json::Num(t.bytes_grown as f64)),
            ]),
        ),
    ];
    if let Some(cp) = &r.critpath {
        fields.push((
            "critpath",
            Json::obj(vec![
                ("comm_seconds", Json::Num(cp.comm_seconds)),
                ("wait_seconds", Json::Num(cp.wait_seconds)),
                ("compute_seconds", Json::Num(cp.compute_seconds)),
                ("segments", Json::Num(cp.segments as f64)),
                (
                    "blame",
                    Json::Arr(
                        cp.blame
                            .iter()
                            .map(|b| {
                                Json::obj(vec![
                                    ("waiter", Json::Num(b.waiter as f64)),
                                    ("blamed", Json::Num(b.blamed as f64)),
                                    ("seconds", Json::Num(b.seconds)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    Json::obj(fields)
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number field '{key}'"))
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer field '{key}'"))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn run_from_json(v: &Json) -> Result<RunEntry, String> {
    Ok(RunEntry {
        label: field_str(v, "label")?,
        nranks: field_u64(v, "nranks")? as usize,
        makespan: field_f64(v, "makespan")?,
        mean_clock: field_f64(v, "mean_clock")?,
        phases: v
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("missing 'phases' array")?
            .iter()
            .map(|p| {
                Ok(PhaseRow {
                    name: field_str(p, "name")?,
                    spans: field_u64(p, "spans")?,
                    max_seconds: field_f64(p, "max_seconds")?,
                    mean_seconds: field_f64(p, "mean_seconds")?,
                    imbalance: field_f64(p, "imbalance")?,
                    mean_comm_seconds: field_f64(p, "mean_comm_seconds")?,
                    mean_wait_seconds: field_f64(p, "mean_wait_seconds")?,
                    mean_compute_seconds: field_f64(p, "mean_compute_seconds")?,
                    p2p_msgs: field_u64(p, "p2p_msgs")?,
                    p2p_bytes: field_u64(p, "p2p_bytes")?,
                    coll_ops: field_u64(p, "coll_ops")?,
                    coll_bytes: field_u64(p, "coll_bytes")?,
                })
            })
            .collect::<Result<_, String>>()?,
        totals: {
            let t = v.get("totals").ok_or("missing 'totals' object")?;
            RankStats {
                comm_seconds: field_f64(t, "comm_seconds")?,
                wait_seconds: field_f64(t, "wait_seconds")?,
                compute_seconds: field_f64(t, "compute_seconds")?,
                p2p_sent_msgs: field_u64(t, "p2p_sent_msgs")?,
                p2p_sent_bytes: field_u64(t, "p2p_sent_bytes")?,
                p2p_recv_msgs: field_u64(t, "p2p_recv_msgs")?,
                p2p_recv_bytes: field_u64(t, "p2p_recv_bytes")?,
                coll_ops: field_u64(t, "coll_ops")?,
                coll_bytes: field_u64(t, "coll_bytes")?,
                plan_builds: field_u64(t, "plan_builds")?,
                plan_execs: field_u64(t, "plan_execs")?,
                faults_injected: field_u64(t, "faults_injected")?,
                retries: field_u64(t, "retries")?,
                timeouts: field_u64(t, "timeouts")?,
                stalls: field_u64(t, "stalls")?,
                bytes_reused: field_u64(t, "bytes_reused")?,
                bytes_grown: field_u64(t, "bytes_grown")?,
            }
        },
        critpath: match v.get("critpath") {
            None => None,
            Some(cp) => Some(CritPath {
                comm_seconds: field_f64(cp, "comm_seconds")?,
                wait_seconds: field_f64(cp, "wait_seconds")?,
                compute_seconds: field_f64(cp, "compute_seconds")?,
                segments: field_u64(cp, "segments")?,
                blame: cp
                    .get("blame")
                    .and_then(Json::as_arr)
                    .ok_or("missing 'blame' array in critpath")?
                    .iter()
                    .map(|b| {
                        Ok(BlameRow {
                            waiter: field_u64(b, "waiter")? as usize,
                            blamed: field_u64(b, "blamed")? as usize,
                            seconds: field_f64(b, "seconds")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            }),
        },
    })
}

/// Render an entry's phase table as aligned human-readable text (the format
/// the `commstats` binary prints).
pub fn format_phase_table(entry: &RunEntry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>11} {:>11} {:>7} {:>11} {:>11} {:>11} {:>10} {:>12} {:>8} {:>12}",
        "phase",
        "spans",
        "max[s]",
        "mean[s]",
        "imbal",
        "comm[s]",
        "wait[s]",
        "compute[s]",
        "p2p msgs",
        "p2p bytes",
        "colls",
        "coll bytes"
    );
    for p in &entry.phases {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>11} {:>11} {:>7.2} {:>11} {:>11} {:>11} {:>10} {:>12} {:>8} {:>12}",
            p.name,
            p.spans,
            crate::fmt_secs(p.max_seconds),
            crate::fmt_secs(p.mean_seconds),
            p.imbalance,
            crate::fmt_secs(p.mean_comm_seconds),
            crate::fmt_secs(p.mean_wait_seconds),
            crate::fmt_secs(p.mean_compute_seconds),
            p.p2p_msgs,
            p.p2p_bytes,
            p.coll_ops,
            p.coll_bytes
        );
    }
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>11} {:>11}",
        "(total)",
        "",
        crate::fmt_secs(entry.makespan),
        crate::fmt_secs(entry.mean_clock)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut report = RunReport::new("figX", "juropa_like");
        report.param("cells", 24);
        report.param("tolerance", 1e-3);
        let entry = RunEntry {
            label: String::new(),
            nranks: 2,
            makespan: 3.5,
            mean_clock: 3.0,
            phases: vec![
                PhaseRow {
                    name: "sort".into(),
                    spans: 4,
                    max_seconds: 2.0,
                    mean_seconds: 1.75,
                    imbalance: 1.14,
                    mean_comm_seconds: 0.5,
                    mean_wait_seconds: 0.25,
                    mean_compute_seconds: 1.0,
                    p2p_msgs: 12,
                    p2p_bytes: 4096,
                    coll_ops: 3,
                    coll_bytes: 128,
                },
                PhaseRow { name: "(untagged)".into(), mean_seconds: 1.25, ..Default::default() },
            ],
            // Two ranks with clocks 2.5 and 3.5.
            totals: RankStats {
                comm_seconds: 2.5,
                wait_seconds: 1.0,
                compute_seconds: 2.5,
                p2p_sent_msgs: 6,
                p2p_sent_bytes: 2048,
                p2p_recv_msgs: 6,
                p2p_recv_bytes: 2048,
                coll_ops: 3,
                coll_bytes: 64,
                plan_builds: 1,
                plan_execs: 4,
                faults_injected: 2,
                retries: 1,
                timeouts: 1,
                stalls: 1,
                bytes_reused: 512,
                bytes_grown: 2048,
            },
            critpath: Some(CritPath {
                comm_seconds: 1.25,
                wait_seconds: 0.75,
                compute_seconds: 1.5,
                segments: 9,
                blame: vec![
                    BlameRow { waiter: 0, blamed: 1, seconds: 0.5 },
                    BlameRow { waiter: 1, blamed: 0, seconds: 0.25 },
                ],
            }),
        };
        report.push("methodA", entry);
        report.selftime.push(SelftimeRow {
            name: "run:methodA".into(),
            wall_seconds: 0.125,
            allocs: 4321,
            alloc_bytes: 1 << 20,
            steps: 30,
        });
        report
    }

    #[test]
    fn json_round_trip_preserves_report() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn reports_of_another_schema_version_are_rejected() {
        let text = sample_report().to_json().pretty();
        let old = text.replacen("\"schema_version\": 3", "\"schema_version\": 2", 1);
        assert_ne!(old, text, "expected a schema_version key");
        let err = RunReport::from_json(&Json::parse(&old).unwrap()).unwrap_err();
        assert!(err.contains("schema_version 2"), "got: {err}");
    }

    #[test]
    fn critpath_partition_error_detects_violations() {
        let cp = CritPath {
            comm_seconds: 1.25,
            wait_seconds: 0.75,
            compute_seconds: 1.5,
            ..Default::default()
        };
        assert_eq!(cp.partition_error(3.5), 0.0);
        assert!(cp.partition_error(3.4) > 0.05);
        // Components summing to the makespan but leaving the valid range.
        let negative = CritPath { wait_seconds: -0.1, compute_seconds: 2.35, ..cp.clone() };
        assert!(negative.partition_error(3.5) + 1e-12 >= 0.1);
    }

    #[test]
    fn decomposition_error_detects_violations() {
        let mut report = sample_report();
        // The sample is exactly consistent.
        assert!(report.decomposition_error() < 1e-12);
        report.runs[0].totals.wait_seconds += 0.5;
        assert!(report.decomposition_error() > 0.2);
    }

    #[test]
    fn mean_seconds_of_matches_prefix() {
        let report = sample_report();
        assert!((report.runs[0].mean_seconds_of("sort") - 1.75).abs() < 1e-12);
        assert_eq!(report.runs[0].mean_seconds_of("nosuch"), 0.0);
    }

    #[test]
    fn phase_table_renders_all_rows() {
        let report = sample_report();
        let text = format_phase_table(&report.runs[0]);
        assert!(text.contains("sort"));
        assert!(text.contains("(untagged)"));
        assert!(text.contains("(total)"));
    }

    #[test]
    fn from_run_collects_phase_and_rank_tables() {
        let out = simcomm::run(2, simcomm::MachineModel::juropa_like(), |comm| {
            comm.enter_phase("work");
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1u8; 64]);
            } else {
                let _: Vec<u8> = comm.recv(0, 0);
            }
            comm.exit_phase();
            comm.barrier();
        });
        let entry = RunEntry::from_run(&out);
        assert_eq!(entry.nranks, 2);
        assert!(entry.makespan > 0.0);
        assert_eq!(entry.phases.first().map(|p| p.name.as_str()), Some("work"));
        assert_eq!(entry.phases.last().map(|p| p.name.as_str()), Some("(untagged)"));
        assert!(entry.decomposition_error() < 1e-9);
    }

    /// A small world whose ranks differ in compute, traffic and collectives.
    fn uneven_world() -> simcomm::RunOutput<()> {
        simcomm::run(5, simcomm::MachineModel::juropa_like(), |comm| {
            let rank = comm.rank();
            comm.compute(simcomm::Work::ParticleOp, 10.0 + 7.0 * rank as f64);
            let sum = comm.allreduce(rank as u64, |a, b| a + b);
            if rank == 0 {
                for src in 1..comm.size() {
                    let _: Vec<u64> = comm.recv(src, 1);
                }
            } else {
                comm.send(0, 1, vec![sum; rank]);
            }
            comm.barrier();
        })
    }

    #[test]
    fn totals_are_rank_stats_summed_in_rank_order_and_survive_json() {
        let out = uneven_world();
        let mut report = RunReport::new("figX", "juropa_like");
        report.push("run", RunEntry::from_run(&out));
        let back = RunReport::from_json(&Json::parse(&report.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(back, report);
        let t = &back.runs[0].totals;
        let seconds = |f: fn(&RankStats) -> f64| out.stats.iter().fold(0.0, |a, s| a + f(s));
        assert_eq!(t.comm_seconds.to_bits(), seconds(|s| s.comm_seconds).to_bits());
        assert_eq!(t.wait_seconds.to_bits(), seconds(|s| s.wait_seconds).to_bits());
        assert_eq!(t.compute_seconds.to_bits(), seconds(|s| s.compute_seconds).to_bits());
        let count = |f: fn(&RankStats) -> u64| out.stats.iter().map(f).sum::<u64>();
        assert_eq!(t.p2p_sent_msgs, count(|s| s.p2p_sent_msgs));
        assert_eq!(t.p2p_recv_bytes, count(|s| s.p2p_recv_bytes));
        assert_eq!(t.coll_ops, count(|s| s.coll_ops));
        assert_eq!(t.coll_bytes, count(|s| s.coll_bytes));
        assert!(t.p2p_sent_msgs == 4 && t.wait_seconds > 0.0);
    }

    #[test]
    #[should_panic(expected = "rank 3: comm + wait + compute diverges from its clock")]
    fn from_parts_refuses_a_rank_whose_clock_misses_its_terms() {
        let out = uneven_world();
        let mut clocks = out.clocks.clone();
        clocks[3] += 1e-4 * out.makespan();
        RunEntry::from_parts(&out.phase_table(), &out.stats, &clocks);
    }
}
