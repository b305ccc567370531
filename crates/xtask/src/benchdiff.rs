//! Bench-report comparison: flag regressions between two `BENCH_*.json`
//! files produced by the vendored criterion stand-in.
//!
//! A report is a JSON array of records shaped like
//! `{"name": "group/bench", "mean_ns_per_iter": 1234.5, ...}`; this
//! module parses two of them (with the workspace's one JSON reader,
//! [`mpdf_obs::json`]), joins the records by name and classifies
//! each pair by the relative change of `mean_ns_per_iter`. CI runs it as
//! `cargo xtask bench-diff <old.json> <new.json> [--threshold <pct>]`
//! after regenerating benches, so a hot-path regression fails the job
//! instead of silently landing in the committed reference numbers.

use std::collections::BTreeMap;
use std::fmt;

use mpdf_obs::json::{parse_document, Json};

/// One benchmark's name and mean cost from a report file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name, e.g. `detection/score_combined_25pkt`.
    pub name: String,
    /// Mean wall time per iteration in nanoseconds.
    pub mean_ns_per_iter: f64,
}

/// One benchmark present in both reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Benchmark name.
    pub name: String,
    /// Mean ns/iter in the old report.
    pub old_ns: f64,
    /// Mean ns/iter in the new report.
    pub new_ns: f64,
    /// Signed relative change in percent (`+` = slower = regression).
    pub change_pct: f64,
}

impl fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<44} {:>14.1} -> {:>14.1} ns/iter  ({:+.1}%)",
            self.name, self.old_ns, self.new_ns, self.change_pct
        )
    }
}

/// Classified comparison of two bench reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchDiff {
    /// Slower than the threshold allows.
    pub regressions: Vec<DiffEntry>,
    /// Faster by more than the threshold.
    pub improvements: Vec<DiffEntry>,
    /// Within the threshold either way.
    pub unchanged: Vec<DiffEntry>,
    /// Names only the old report has (bench removed or not run).
    pub missing: Vec<String>,
    /// Names only the new report has.
    pub added: Vec<String>,
}

/// Parses a bench report: a JSON array of objects carrying at least
/// `name` (string) and `mean_ns_per_iter` (number). Unknown fields are
/// ignored so the format can grow.
///
/// # Errors
/// A description of the first malformed construct (bad JSON, non-array
/// top level, records without the two required fields).
pub fn parse_report(text: &str) -> Result<Vec<BenchRecord>, String> {
    let Json::Arr(items) = parse_document(text)? else {
        return Err("bench report must be a top-level JSON array".to_owned());
    };
    let mut records = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        let Json::Obj(fields) = item else {
            return Err(format!("record {i}: expected a JSON object"));
        };
        let mut name = None;
        let mut mean = None;
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("name", Json::Str(s)) => name = Some(s),
                ("mean_ns_per_iter", Json::Num(n)) => mean = Some(n),
                _ => {}
            }
        }
        match (name, mean) {
            (Some(name), Some(mean_ns_per_iter)) => records.push(BenchRecord {
                name,
                mean_ns_per_iter,
            }),
            (None, _) => return Err(format!("record {i}: missing string field `name`")),
            (Some(n), None) => {
                return Err(format!(
                    "record `{n}`: missing numeric field `mean_ns_per_iter`"
                ))
            }
        }
    }
    Ok(records)
}

/// Joins two reports by benchmark name and classifies each shared record
/// by its relative mean change against `threshold_pct` (e.g. `25.0`
/// allows ±25% drift before a record counts as changed). Entries come
/// back name-sorted; a non-finite or non-positive old mean makes the
/// pair `unchanged` with a change of `0%` (no meaningful ratio exists).
pub fn diff(old: &[BenchRecord], new: &[BenchRecord], threshold_pct: f64) -> BenchDiff {
    let old_by_name: BTreeMap<&str, f64> = old
        .iter()
        .map(|r| (r.name.as_str(), r.mean_ns_per_iter))
        .collect();
    let new_by_name: BTreeMap<&str, f64> = new
        .iter()
        .map(|r| (r.name.as_str(), r.mean_ns_per_iter))
        .collect();
    let mut out = BenchDiff::default();
    for (&name, &old_ns) in &old_by_name {
        let Some(&new_ns) = new_by_name.get(name) else {
            out.missing.push(name.to_owned());
            continue;
        };
        let change_pct = if old_ns.is_finite() && old_ns > 0.0 && new_ns.is_finite() {
            (new_ns - old_ns) / old_ns * 100.0
        } else {
            0.0
        };
        let entry = DiffEntry {
            name: name.to_owned(),
            old_ns,
            new_ns,
            change_pct,
        };
        if change_pct > threshold_pct {
            out.regressions.push(entry);
        } else if change_pct < -threshold_pct {
            out.improvements.push(entry);
        } else {
            out.unchanged.push(entry);
        }
    }
    for &name in new_by_name.keys() {
        if !old_by_name.contains_key(name) {
            out.added.push(name.to_owned());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"[
        {"name": "a/fast", "mean_ns_per_iter": 100.0, "samples": 10, "threads": 1},
        {"name": "a/slow", "mean_ns_per_iter": 1000.0, "samples": 10, "threads": 1},
        {"name": "a/gone", "mean_ns_per_iter": 5.0, "samples": 10, "threads": 1}
    ]"#;

    #[test]
    fn parses_the_report_format() {
        let records = parse_report(OLD).expect("parse");
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "a/fast");
        assert_eq!(records[0].mean_ns_per_iter, 100.0);
    }

    #[test]
    fn rejects_malformed_reports() {
        assert!(parse_report("{}").is_err());
        assert!(parse_report("[{\"name\": \"x\"}]").is_err());
        assert!(parse_report("[{\"mean_ns_per_iter\": 1.0}]").is_err());
        assert!(parse_report("[] trailing").is_err());
        assert!(parse_report("[{\"name\": \"x\", \"mean_ns_per_iter\": \"bad\"}]").is_err());
    }

    #[test]
    fn classifies_regressions_improvements_and_membership() {
        let old = parse_report(OLD).expect("old");
        let new = parse_report(
            r#"[
                {"name": "a/fast", "mean_ns_per_iter": 200.0},
                {"name": "a/slow", "mean_ns_per_iter": 400.0},
                {"name": "a/new", "mean_ns_per_iter": 7.0}
            ]"#,
        )
        .expect("new");
        let d = diff(&old, &new, 25.0);
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].name, "a/fast");
        assert!((d.regressions[0].change_pct - 100.0).abs() < 1e-9);
        assert_eq!(d.improvements.len(), 1);
        assert_eq!(d.improvements[0].name, "a/slow");
        assert_eq!(d.missing, vec!["a/gone".to_owned()]);
        assert_eq!(d.added, vec!["a/new".to_owned()]);
        assert!(d.unchanged.is_empty());
    }

    #[test]
    fn drift_inside_threshold_is_unchanged() {
        let old = [BenchRecord {
            name: "x".to_owned(),
            mean_ns_per_iter: 100.0,
        }];
        let new = [BenchRecord {
            name: "x".to_owned(),
            mean_ns_per_iter: 120.0,
        }];
        let d = diff(&old, &new, 25.0);
        assert!(d.regressions.is_empty() && d.improvements.is_empty());
        assert_eq!(d.unchanged.len(), 1);
    }

    #[test]
    fn degenerate_old_mean_never_panics_or_regresses() {
        let old = [BenchRecord {
            name: "x".to_owned(),
            mean_ns_per_iter: 0.0,
        }];
        let new = [BenchRecord {
            name: "x".to_owned(),
            mean_ns_per_iter: 50.0,
        }];
        let d = diff(&old, &new, 25.0);
        assert_eq!(d.unchanged.len(), 1);
        assert_eq!(d.unchanged[0].change_pct, 0.0);
    }
}
