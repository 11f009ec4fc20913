//! Bench regression gate: diff a fresh sweep against committed baselines.
//!
//! The gate compares a freshly generated [`RunReport`] against the committed
//! baseline of the same file, run entry by run entry (matched by label). For
//! every matched pair it checks the **makespan** and — when both sides carry
//! a critical-path decomposition — the critical path's **comm** and **wait**
//! components, failing when the current value exceeds the baseline at all.
//!
//! All compared quantities are *virtual* seconds of the simulated machine
//! model, so identical code produces bitwise-identical values on any host:
//! there is no host jitter to absorb, and a change that moves virtual time
//! commits its new baselines. `commstats --baseline <dir>` drives this from
//! the command line and CI runs it on every push (see
//! `.github/workflows/ci.yml`, job `gate`).

use crate::report::RunReport;
use particles::json::Json;

/// One compared metric of one run entry.
#[derive(Clone, Debug, PartialEq)]
pub struct GateRow {
    /// Run label the row belongs to.
    pub label: String,
    /// Metric name (`"makespan"`, `"critpath_comm"`, `"critpath_wait"`).
    pub metric: String,
    /// Baseline value in virtual seconds.
    pub baseline: f64,
    /// Current value in virtual seconds.
    pub current: f64,
    /// Did the current value exceed the baseline?
    pub regressed: bool,
}

/// Outcome of diffing one current report against its baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateDiff {
    /// Per-metric comparison rows, in report order.
    pub rows: Vec<GateRow>,
    /// Labels present in the baseline but missing from the current report
    /// (reported, but not counted as regressions: the sweep's parameters
    /// changed rather than its performance).
    pub missing: Vec<String>,
    /// Labels present in the current report but not in the baseline.
    pub added: Vec<String>,
}

impl GateDiff {
    /// Rows that exceeded their baseline.
    pub fn regressions(&self) -> impl Iterator<Item = &GateRow> {
        self.rows.iter().filter(|r| r.regressed)
    }

    /// Did any metric regress?
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }
}

/// Diff `current` against `baseline`, entry by entry (matched by label). A
/// row regresses iff its current value exceeds its baseline.
pub fn diff_reports(baseline: &RunReport, current: &RunReport) -> GateDiff {
    let mut diff = GateDiff::default();
    for cur in &current.runs {
        let Some(base) = baseline.runs.iter().find(|b| b.label == cur.label) else {
            diff.added.push(cur.label.clone());
            continue;
        };
        let mut push = |metric: &str, b: f64, c: f64| {
            diff.rows.push(GateRow {
                label: cur.label.clone(),
                metric: metric.to_string(),
                baseline: b,
                current: c,
                regressed: c > b,
            });
        };
        push("makespan", base.makespan, cur.makespan);
        if let (Some(bcp), Some(ccp)) = (&base.critpath, &cur.critpath) {
            push("critpath_comm", bcp.comm_seconds, ccp.comm_seconds);
            push("critpath_wait", bcp.wait_seconds, ccp.wait_seconds);
        }
    }
    for base in &baseline.runs {
        if !current.runs.iter().any(|c| c.label == base.label) {
            diff.missing.push(base.label.clone());
        }
    }
    diff
}

/// Serialize a set of per-file gate diffs as the machine-readable artifact
/// CI uploads (`results/gate_diff.json`).
pub fn diffs_to_json(diffs: &[(String, GateDiff)]) -> Json {
    Json::obj(vec![
        ("failed", Json::Bool(diffs.iter().any(|(_, d)| d.failed()))),
        (
            "reports",
            Json::Arr(
                diffs
                    .iter()
                    .map(|(path, d)| {
                        Json::obj(vec![
                            ("report", Json::Str(path.clone())),
                            ("failed", Json::Bool(d.failed())),
                            (
                                "rows",
                                Json::Arr(
                                    d.rows
                                        .iter()
                                        .map(|r| {
                                            Json::obj(vec![
                                                ("label", Json::Str(r.label.clone())),
                                                ("metric", Json::Str(r.metric.clone())),
                                                ("baseline", Json::Num(r.baseline)),
                                                ("current", Json::Num(r.current)),
                                                ("regressed", Json::Bool(r.regressed)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "missing",
                                Json::Arr(d.missing.iter().cloned().map(Json::Str).collect()),
                            ),
                            ("added", Json::Arr(d.added.iter().cloned().map(Json::Str).collect())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CritPath, RunEntry};

    fn report_with(labels_makespans: &[(&str, f64)]) -> RunReport {
        let mut r = RunReport::new("gate-test", "ideal");
        for &(label, makespan) in labels_makespans {
            let entry = RunEntry {
                nranks: 4,
                makespan,
                mean_clock: makespan,
                critpath: Some(CritPath {
                    comm_seconds: 0.25 * makespan,
                    wait_seconds: 0.25 * makespan,
                    compute_seconds: 0.5 * makespan,
                    segments: 3,
                    blame: Vec::new(),
                }),
                ..Default::default()
            };
            r.push(label, entry);
        }
        r
    }

    #[test]
    fn identical_reports_pass() {
        let base = report_with(&[("a", 1.0), ("b", 2.0)]);
        let diff = diff_reports(&base, &base.clone());
        assert!(!diff.failed());
        assert_eq!(diff.rows.len(), 6, "makespan + 2 critpath metrics per run");
        assert!(diff.missing.is_empty() && diff.added.is_empty());
    }

    #[test]
    fn one_ulp_slower_fails_only_the_slow_metric() {
        let base = report_with(&[("a", 1.0), ("b", 2.0)]);
        let mut cur = base.clone();
        cur.runs[1].makespan = cur.runs[1].makespan.next_up();
        let diff = diff_reports(&base, &cur);
        assert!(diff.failed());
        let bad: Vec<_> = diff.regressions().collect();
        assert_eq!(bad.len(), 1);
        assert_eq!((bad[0].label.as_str(), bad[0].metric.as_str()), ("b", "makespan"));
    }

    #[test]
    fn critpath_wait_regression_is_caught() {
        let base = report_with(&[("a", 1.0)]);
        let mut cur = base.clone();
        let cp = cur.runs[0].critpath.as_mut().unwrap();
        cp.wait_seconds = cp.wait_seconds.next_up(); // makespan unchanged
        let diff = diff_reports(&base, &cur);
        let bad: Vec<_> = diff.regressions().collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "critpath_wait");
    }

    #[test]
    fn lower_values_pass() {
        let base = report_with(&[("a", 1.0)]);
        let mut cur = base.clone();
        cur.runs[0].makespan = cur.runs[0].makespan.next_down();
        let cp = cur.runs[0].critpath.as_mut().unwrap();
        cp.comm_seconds *= 0.8; // faster is never a regression
        assert!(!diff_reports(&base, &cur).failed());
    }

    #[test]
    fn label_set_changes_are_reported_not_failed() {
        let base = report_with(&[("a", 1.0), ("gone", 1.0)]);
        let cur = report_with(&[("a", 1.0), ("new", 1.0)]);
        let diff = diff_reports(&base, &cur);
        assert!(!diff.failed());
        assert_eq!(diff.missing, vec!["gone".to_string()]);
        assert_eq!(diff.added, vec!["new".to_string()]);
    }

    #[test]
    fn diff_json_is_parseable_and_flags_failure() {
        let base = report_with(&[("a", 1.0)]);
        let mut cur = base.clone();
        cur.runs[0].makespan *= 2.0;
        let diff = diff_reports(&base, &cur);
        let text = diffs_to_json(&[("x_report.json".into(), diff)]).pretty();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("failed").and_then(Json::as_bool), Some(true));
    }
}
