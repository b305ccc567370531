//! Bench-report comparison: flag regressions between two `BENCH_*.json`
//! files written by the `mpdf-bench` timing loop.
//!
//! A report is a JSON array of records shaped like
//! `{"name": "group/bench", "median_ns": 1234.5, "q1_ns": 1200.0,
//! "q3_ns": 1300.0, ...}`; this module parses two of them (with the
//! workspace's one JSON reader, [`mpdf_obs::json`]), joins the records
//! by name and gives each pair a [`Verdict`] against a bound in percent:
//!
//! - **worse** when the new median is slower than the old by more than
//!   the bound — the only verdict that fails the gate;
//! - **unresolved** otherwise, when either side's interquartile range
//!   exceeds the bound as a share of its median: the spread is too wide
//!   to call;
//! - **improved** when the new median is faster by more than the bound;
//! - **unchanged** otherwise.
//!
//! CI runs it as `cargo xtask bench-diff <old.json> <new.json>
//! [--threshold <pct>]` after regenerating benches, so a hot-path
//! regression fails the job instead of silently landing in the
//! committed reference numbers.

use std::collections::BTreeMap;
use std::fmt;

use mpdf_obs::json::{parse_document, Json};

/// One benchmark's median and quartiles from a report file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name, e.g. `detection/score_combined_25pkt`.
    pub name: String,
    /// Median wall time per iteration in nanoseconds.
    pub median_ns: f64,
    /// First quartile of the per-iteration times.
    pub q1_ns: f64,
    /// Third quartile of the per-iteration times.
    pub q3_ns: f64,
}

impl BenchRecord {
    /// Interquartile range as a percentage of the median; `0` when the
    /// median is not a positive finite number (no meaningful share).
    pub fn spread_pct(&self) -> f64 {
        if self.median_ns.is_finite() && self.median_ns > 0.0 {
            (self.q3_ns - self.q1_ns) / self.median_ns * 100.0
        } else {
            0.0
        }
    }
}

/// How one benchmark moved between the two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The median slowed by more than the bound.
    Worse,
    /// Not worse, but a side's spread exceeds the bound.
    Unresolved,
    /// The median sped up by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
        })
    }
}

/// One benchmark present in both reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// The old record.
    pub old: BenchRecord,
    /// The new record.
    pub new: BenchRecord,
    /// Signed relative change of the median in percent (`+` = slower).
    pub change_pct: f64,
    /// The classification against the bound.
    pub verdict: Verdict,
}

impl fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:<40} {:>14.1} -> {:>14.1} ns/iter  ({:+.1}%, IQR {:.0}% -> {:.0}%)",
            self.verdict,
            self.old.name,
            self.old.median_ns,
            self.new.median_ns,
            self.change_pct,
            self.old.spread_pct(),
            self.new.spread_pct()
        )
    }
}

/// Classified comparison of two bench reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchDiff {
    /// Benchmarks in both reports, name-sorted.
    pub entries: Vec<DiffEntry>,
    /// Names only the old report has (bench removed or not run).
    pub missing: Vec<String>,
    /// Names only the new report has.
    pub added: Vec<String>,
}

impl BenchDiff {
    /// Entries with verdict `v`.
    pub fn with(&self, v: Verdict) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(move |e| e.verdict == v)
    }
}

/// Parses a bench report: a JSON array of objects carrying at least
/// `name` (string) and the numbers `median_ns`, `q1_ns` and `q3_ns`.
/// Unknown fields are ignored so the format can grow.
///
/// # Errors
/// A description of the first malformed construct (bad JSON, non-array
/// top level, records without the required fields).
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
        let mut numbers: BTreeMap<String, f64> = BTreeMap::new();
        for (key, value) in fields {
            match value {
                Json::Str(s) if key == "name" => name = Some(s),
                Json::Num(n) => {
                    numbers.insert(key, n);
                }
                _ => {}
            }
        }
        let Some(name) = name else {
            return Err(format!("record {i}: missing string field `name`"));
        };
        let field = |key: &str| {
            numbers
                .get(key)
                .copied()
                .ok_or_else(|| format!("record `{name}`: missing numeric field `{key}`"))
        };
        records.push(BenchRecord {
            median_ns: field("median_ns")?,
            q1_ns: field("q1_ns")?,
            q3_ns: field("q3_ns")?,
            name,
        });
    }
    Ok(records)
}

/// Joins two reports by benchmark name and gives each shared record its
/// [`Verdict`] against `threshold_pct` (e.g. `25.0` allows the median
/// ±25% and the interquartile range 25% of the median). Entries come
/// back name-sorted; a non-finite or non-positive old median gives a
/// change of `0%` (no meaningful ratio exists), so never `Worse`.
pub fn diff(old: &[BenchRecord], new: &[BenchRecord], threshold_pct: f64) -> BenchDiff {
    let by_name = |records: &[BenchRecord]| -> BTreeMap<String, BenchRecord> {
        records
            .iter()
            .map(|r| (r.name.clone(), r.clone()))
            .collect()
    };
    let (old_by_name, mut new_by_name) = (by_name(old), by_name(new));
    let mut out = BenchDiff::default();
    for (name, old) in old_by_name {
        let Some(new) = new_by_name.remove(&name) else {
            out.missing.push(name);
            continue;
        };
        let change_pct =
            if old.median_ns.is_finite() && old.median_ns > 0.0 && new.median_ns.is_finite() {
                (new.median_ns - old.median_ns) / old.median_ns * 100.0
            } else {
                0.0
            };
        let verdict = if change_pct > threshold_pct {
            Verdict::Worse
        } else if old.spread_pct().max(new.spread_pct()) > threshold_pct {
            Verdict::Unresolved
        } else if change_pct < -threshold_pct {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        out.entries.push(DiffEntry {
            old,
            new,
            change_pct,
            verdict,
        });
    }
    out.added = new_by_name.into_keys().collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"[
        {"name": "a/fast", "median_ns": 100.0, "min_ns": 95.0, "q1_ns": 98.0, "q3_ns": 104.0, "iters_per_sample": 16384, "samples": 15},
        {"name": "a/slow", "median_ns": 1000.0, "min_ns": 990.0, "q1_ns": 995.0, "q3_ns": 1010.0, "iters_per_sample": 1024, "samples": 15},
        {"name": "a/noisy", "median_ns": 50.0, "min_ns": 20.0, "q1_ns": 30.0, "q3_ns": 70.0, "iters_per_sample": 32768, "samples": 15},
        {"name": "a/gone", "median_ns": 5.0, "min_ns": 5.0, "q1_ns": 5.0, "q3_ns": 5.0, "iters_per_sample": 262144, "samples": 15}
    ]"#;

    fn record(name: &str, median_ns: f64, q1_ns: f64, q3_ns: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_owned(),
            median_ns,
            q1_ns,
            q3_ns,
        }
    }

    #[test]
    fn parses_the_report_format() {
        let records = parse_report(OLD).expect("parse");
        assert_eq!(records.len(), 4);
        assert_eq!(records[0], record("a/fast", 100.0, 98.0, 104.0));
        assert!((records[2].spread_pct() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_reports() {
        assert!(parse_report("{}").is_err());
        assert!(parse_report("[{\"name\": \"x\"}]").is_err());
        assert!(parse_report("[{\"median_ns\": 1.0, \"q1_ns\": 1.0, \"q3_ns\": 1.0}]").is_err());
        assert!(parse_report("[] trailing").is_err());
        assert!(parse_report(
            "[{\"name\": \"x\", \"median_ns\": \"bad\", \"q1_ns\": 1.0, \"q3_ns\": 1.0}]"
        )
        .is_err());
        // A report of the mean-only format has no median to compare.
        let err = parse_report("[{\"name\": \"x\", \"mean_ns_per_iter\": 1.0}]").unwrap_err();
        assert!(err.contains("`median_ns`"), "{err}");
        let err =
            parse_report("[{\"name\": \"x\", \"median_ns\": 1.0, \"q1_ns\": 1.0}]").unwrap_err();
        assert!(err.contains("`q3_ns`"), "{err}");
    }

    #[test]
    fn classifies_worse_unresolved_improved_and_membership() {
        let old = parse_report(OLD).expect("old");
        let new = [
            record("a/fast", 200.0, 196.0, 206.0),
            record("a/slow", 400.0, 398.0, 404.0),
            record("a/noisy", 55.0, 50.0, 60.0),
            record("a/new", 7.0, 7.0, 7.0),
        ];
        let d = diff(&old, &new, 25.0);
        let names = |v| d.with(v).map(|e| e.old.name.as_str()).collect::<Vec<_>>();
        assert_eq!(names(Verdict::Worse), ["a/fast"]);
        assert_eq!(names(Verdict::Improved), ["a/slow"]);
        // 10% slower, inside the bound, but the old side's IQR is 80% of
        // its median: the spread is too wide to call.
        assert_eq!(names(Verdict::Unresolved), ["a/noisy"]);
        assert!(names(Verdict::Unchanged).is_empty());
        let fast = d.with(Verdict::Worse).next().unwrap();
        assert!((fast.change_pct - 100.0).abs() < 1e-9);
        assert_eq!(d.missing, ["a/gone"]);
        assert_eq!(d.added, ["a/new"]);
    }

    #[test]
    fn a_regression_is_worse_however_wide_the_spread() {
        let old = [record("x", 100.0, 10.0, 400.0)];
        let new = [record("x", 400.0, 100.0, 900.0)];
        assert_eq!(diff(&old, &new, 200.0).entries[0].verdict, Verdict::Worse);
        // The same spread around an unchanged median is unresolved.
        let new = [record("x", 110.0, 10.0, 400.0)];
        assert_eq!(
            diff(&old, &new, 200.0).entries[0].verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn drift_inside_threshold_is_unchanged() {
        let old = [record("x", 100.0, 95.0, 105.0)];
        let new = [record("x", 120.0, 115.0, 125.0)];
        let d = diff(&old, &new, 25.0);
        assert_eq!(d.entries[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn degenerate_old_median_never_panics_or_regresses() {
        let old = [record("x", 0.0, 0.0, 0.0)];
        let new = [record("x", 50.0, 50.0, 50.0)];
        let d = diff(&old, &new, 25.0);
        assert_eq!(d.entries[0].verdict, Verdict::Unchanged);
        assert_eq!(d.entries[0].change_pct, 0.0);
    }
}
