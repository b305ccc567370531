//! Observability SLO gate: diff two `OBS_metrics.json` snapshots
//! against a per-metric budget manifest (`OBS_budgets.txt`).
//!
//! `bench-diff` gates wall-time per iteration; this gates the
//! observability counters and per-stage latency histograms the pipeline
//! itself exports — window/decision counts, quarantine volume, stage
//! p95s, allocation totals (`obs.alloc.*` with the `alloc-count`
//! feature). CI runs `cargo xtask obs-diff <old.json> <new.json>
//! --budgets OBS_budgets.txt` after an instrumented repro, so a stage
//! whose latency or allocation volume quietly blows past its budget
//! fails the job the same way a bench regression does.
//!
//! ## Budget manifest grammar
//!
//! One declaration per line; `#` starts a comment. `<stat>` picks a
//! histogram summary field: `count`, `mean` (sum/count), `p50`, `p95`,
//! `p99`, or `max`.
//!
//! ```text
//! counter <name> max <value>   # new value must be ≤ value
//! counter <name> grow <pct>    # new ≤ old × (1 + pct/100)
//! gauge   <name> max <value>   # new value must be ≤ value
//! hist    <name> <stat> max <value>
//! hist    <name> <stat> grow <pct>
//! ```
//!
//! `max` budgets are absolute SLOs: the metric must exist in the new
//! snapshot and sit at or under the bound — a budgeted metric that
//! disappeared is a violation, not a pass. `grow` budgets are relative
//! gates against the old snapshot; when the old snapshot lacks the
//! metric there is no baseline to grow from, so the check is skipped
//! (reported as a note, exit 0).

use std::collections::BTreeMap;
use std::fmt;

use mpdf_obs::json::{parse_document, Json};

/// Histogram summary as exported by `Snapshot::to_json`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: f64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: f64,
    /// Smallest sample.
    pub min_ns: f64,
    /// Largest sample.
    pub max_ns: f64,
    /// Interpolated 50th percentile.
    pub p50_ns: f64,
    /// Interpolated 95th percentile.
    pub p95_ns: f64,
    /// Interpolated 99th percentile.
    pub p99_ns: f64,
}

impl HistSummary {
    /// Extracts the named summary statistic.
    fn stat(&self, stat: HistStat) -> f64 {
        match stat {
            HistStat::Count => self.count,
            HistStat::Mean => {
                if self.count > 0.0 {
                    self.sum_ns / self.count
                } else {
                    0.0
                }
            }
            HistStat::P50 => self.p50_ns,
            HistStat::P95 => self.p95_ns,
            HistStat::P99 => self.p99_ns,
            HistStat::Max => self.max_ns,
        }
    }
}

/// A parsed `OBS_metrics.json` snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDoc {
    /// Counter name → value.
    pub counters: BTreeMap<String, f64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → summary.
    pub histograms: BTreeMap<String, HistSummary>,
}

/// Parses an `OBS_metrics.json` document: a top-level object with
/// `counters`, `gauges` and `histograms` sub-objects (each optional —
/// an empty snapshot is valid). Unknown fields are ignored.
///
/// # Errors
/// Describes the first malformed construct.
pub fn parse_metrics(text: &str) -> Result<MetricsDoc, String> {
    let Json::Obj(fields) = parse_document(text)? else {
        return Err("metrics snapshot must be a top-level JSON object".to_owned());
    };
    let mut doc = MetricsDoc::default();
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("counters", Json::Obj(entries)) => {
                for (name, value) in entries {
                    let Json::Num(n) = value else {
                        return Err(format!("counter `{name}`: expected a number"));
                    };
                    doc.counters.insert(name, n);
                }
            }
            ("gauges", Json::Obj(entries)) => {
                for (name, value) in entries {
                    let Json::Num(n) = value else {
                        return Err(format!("gauge `{name}`: expected a number"));
                    };
                    doc.gauges.insert(name, n);
                }
            }
            ("histograms", Json::Obj(entries)) => {
                for (name, value) in entries {
                    let Json::Obj(stats) = value else {
                        return Err(format!("histogram `{name}`: expected an object"));
                    };
                    let mut h = HistSummary::default();
                    for (stat, value) in stats {
                        let Json::Num(n) = value else {
                            return Err(format!("histogram `{name}`.{stat}: expected a number"));
                        };
                        match stat.as_str() {
                            "count" => h.count = n,
                            "sum_ns" => h.sum_ns = n,
                            "min_ns" => h.min_ns = n,
                            "max_ns" => h.max_ns = n,
                            "p50_ns" => h.p50_ns = n,
                            "p95_ns" => h.p95_ns = n,
                            "p99_ns" => h.p99_ns = n,
                            _ => {}
                        }
                    }
                    doc.histograms.insert(name, h);
                }
            }
            _ => {}
        }
    }
    Ok(doc)
}

/// Which metric table a budget addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A `counters` entry.
    Counter,
    /// A `gauges` entry.
    Gauge,
    /// A `histograms` entry (with a [`HistStat`]).
    Hist,
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Hist => "hist",
        })
    }
}

/// Histogram summary statistic addressed by a `hist` budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistStat {
    /// Sample count.
    Count,
    /// `sum_ns / count`.
    Mean,
    /// 50th percentile.
    P50,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
    /// Largest sample.
    Max,
}

impl HistStat {
    fn parse(word: &str) -> Option<HistStat> {
        match word {
            "count" => Some(HistStat::Count),
            "mean" => Some(HistStat::Mean),
            "p50" => Some(HistStat::P50),
            "p95" => Some(HistStat::P95),
            "p99" => Some(HistStat::P99),
            "max" => Some(HistStat::Max),
            _ => None,
        }
    }
}

impl fmt::Display for HistStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HistStat::Count => "count",
            HistStat::Mean => "mean",
            HistStat::P50 => "p50",
            HistStat::P95 => "p95",
            HistStat::P99 => "p99",
            HistStat::Max => "max",
        })
    }
}

/// `max` (absolute bound) or `grow` (relative bound vs the old value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetOp {
    /// New value must be ≤ the bound.
    Max(f64),
    /// New value must be ≤ old × (1 + pct/100).
    Grow(f64),
}

/// One parsed budget declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// Metric table.
    pub kind: MetricKind,
    /// Metric name.
    pub name: String,
    /// Summary statistic (histogram budgets only).
    pub stat: Option<HistStat>,
    /// Bound.
    pub op: BudgetOp,
    /// 1-based manifest line, for error messages.
    pub line: usize,
}

impl Budget {
    fn subject(&self) -> String {
        match self.stat {
            Some(stat) => format!("{} {} {stat}", self.kind, self.name),
            None => format!("{} {}", self.kind, self.name),
        }
    }
}

/// Parses a budget manifest (see the module docs for the grammar).
///
/// # Errors
/// Describes the first malformed line, with its line number.
pub fn parse_budgets(text: &str) -> Result<Vec<Budget>, String> {
    let mut budgets = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let decl = raw.split('#').next().unwrap_or("").trim();
        if decl.is_empty() {
            continue;
        }
        let words: Vec<&str> = decl.split_whitespace().collect();
        let err = |msg: &str| Err(format!("budget line {line}: {msg} in `{decl}`"));
        let kind = match words.first().copied() {
            Some("counter") => MetricKind::Counter,
            Some("gauge") => MetricKind::Gauge,
            Some("hist") => MetricKind::Hist,
            _ => return err("expected `counter`, `gauge` or `hist`"),
        };
        let expected = if kind == MetricKind::Hist { 5 } else { 4 };
        if words.len() != expected {
            return err("wrong number of fields");
        }
        let name = words[1].to_owned();
        let stat = if kind == MetricKind::Hist {
            match HistStat::parse(words[2]) {
                Some(stat) => Some(stat),
                None => return err("unknown histogram stat"),
            }
        } else {
            None
        };
        let (op_word, value_word) = (words[expected - 2], words[expected - 1]);
        let Ok(value) = value_word.parse::<f64>() else {
            return err("bound is not a number");
        };
        if !value.is_finite() || value < 0.0 {
            return err("bound must be finite and non-negative");
        }
        let op = match op_word {
            "max" => BudgetOp::Max(value),
            "grow" => BudgetOp::Grow(value),
            _ => return err("expected `max` or `grow`"),
        };
        budgets.push(Budget {
            kind,
            name,
            stat,
            op,
            line,
        });
    }
    Ok(budgets)
}

/// A budget that did not hold.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The budget that failed.
    pub budget: Budget,
    /// Observed new value (`None` = the budgeted metric is missing).
    pub observed: Option<f64>,
    /// The effective bound the observation was checked against.
    pub bound: f64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.observed {
            Some(observed) => write!(
                f,
                "{:<44} {observed:>14.1} > budget {:.1}",
                self.budget.subject(),
                self.bound
            ),
            None => write!(
                f,
                "{:<44} missing from the new snapshot (budget {:.1})",
                self.budget.subject(),
                self.bound
            ),
        }
    }
}

/// Outcome of checking one snapshot pair against a manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsDiff {
    /// Budgets that failed.
    pub violations: Vec<Violation>,
    /// Budgets that held.
    pub passed: usize,
    /// `grow` budgets skipped for lack of an old baseline.
    pub skipped: Vec<String>,
}

/// Looks a budget's subject value up in a snapshot.
fn lookup(doc: &MetricsDoc, budget: &Budget) -> Option<f64> {
    match budget.kind {
        MetricKind::Counter => doc.counters.get(&budget.name).copied(),
        MetricKind::Gauge => doc.gauges.get(&budget.name).copied(),
        MetricKind::Hist => doc
            .histograms
            .get(&budget.name)
            .map(|h| h.stat(budget.stat.unwrap_or(HistStat::Mean))),
    }
}

/// Checks `new` against every budget, with `old` as the baseline for
/// `grow` bounds.
pub fn check(old: &MetricsDoc, new: &MetricsDoc, budgets: &[Budget]) -> ObsDiff {
    let mut out = ObsDiff::default();
    for budget in budgets {
        let observed = lookup(new, budget);
        let bound = match budget.op {
            BudgetOp::Max(bound) => bound,
            BudgetOp::Grow(pct) => match lookup(old, budget) {
                Some(old_value) => old_value * (1.0 + pct / 100.0),
                None => {
                    out.skipped.push(format!(
                        "{} (no baseline in the old snapshot)",
                        budget.subject()
                    ));
                    continue;
                }
            },
        };
        match observed {
            Some(value) if value <= bound => out.passed += 1,
            observed => out.violations.push(Violation {
                budget: budget.clone(),
                observed,
                bound,
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = r#"{
        "counters": { "eval.windows_total": 128, "obs.alloc.bytes_total": 4096 },
        "gauges": { "par.queue_depth_max": 7 },
        "histograms": {
            "eval.window": {"count": 128, "sum_ns": 1280000, "min_ns": 5000,
                            "max_ns": 30000, "p50_ns": 9000.0, "p95_ns": 21000.0,
                            "p99_ns": 28000.0}
        }
    }"#;

    #[test]
    fn parses_the_snapshot_format() {
        let doc = parse_metrics(SNAPSHOT).expect("parse");
        assert_eq!(doc.counters["eval.windows_total"], 128.0);
        assert_eq!(doc.gauges["par.queue_depth_max"], 7.0);
        let h = doc.histograms["eval.window"];
        assert_eq!(h.count, 128.0);
        assert_eq!(h.stat(HistStat::Mean), 10000.0);
        assert_eq!(h.stat(HistStat::P95), 21000.0);
    }

    #[test]
    fn rejects_malformed_snapshots() {
        assert!(parse_metrics("[]").is_err());
        assert!(parse_metrics("{\"counters\": {\"x\": \"nan\"}}").is_err());
        assert!(parse_metrics("{} garbage").is_err());
    }

    #[test]
    fn parses_every_budget_form() {
        let budgets = parse_budgets(
            "# latency/allocation SLOs\n\
             counter eval.windows_total max 200\n\
             counter obs.alloc.bytes_total grow 50  # trailing comment\n\
             gauge par.queue_depth_max max 64\n\
             hist eval.window p95 max 1000000\n\
             hist eval.window mean grow 100\n",
        )
        .expect("parse");
        assert_eq!(budgets.len(), 5);
        assert_eq!(budgets[0].kind, MetricKind::Counter);
        assert_eq!(budgets[0].op, BudgetOp::Max(200.0));
        assert_eq!(budgets[1].op, BudgetOp::Grow(50.0));
        assert_eq!(budgets[3].stat, Some(HistStat::P95));
        assert_eq!(budgets[4].line, 6);
    }

    #[test]
    fn rejects_malformed_budget_lines() {
        for bad in [
            "timer x max 5",
            "counter x min 5",
            "counter x max",
            "counter x max nan_squared",
            "hist x p97 max 5",
            "counter x max -3",
            "hist x mean grow 10 extra",
        ] {
            let err = parse_budgets(bad).expect_err(bad);
            assert!(err.contains("line 1"), "{err}");
        }
    }

    #[test]
    fn max_budgets_gate_absolute_values() {
        let doc = parse_metrics(SNAPSHOT).expect("parse");
        let budgets = parse_budgets(
            "counter eval.windows_total max 100\n\
             hist eval.window p95 max 50000\n",
        )
        .expect("budgets");
        let d = check(&doc, &doc, &budgets);
        assert_eq!(d.violations.len(), 1);
        assert_eq!(d.violations[0].budget.name, "eval.windows_total");
        assert_eq!(d.violations[0].observed, Some(128.0));
        assert_eq!(d.passed, 1);
    }

    #[test]
    fn grow_budgets_gate_against_the_old_snapshot() {
        let old = parse_metrics(SNAPSHOT).expect("old");
        let new = parse_metrics(&SNAPSHOT.replace(
            "\"obs.alloc.bytes_total\": 4096",
            "\"obs.alloc.bytes_total\": 9000",
        ))
        .expect("new");
        let budgets = parse_budgets("counter obs.alloc.bytes_total grow 100\n").expect("budgets");
        let d = check(&old, &new, &budgets);
        // Bound is 4096 × (1 + 100/100) = 8192; the new 9000 exceeds it.
        assert_eq!(d.violations.len(), 1);
        assert!((d.violations[0].bound - 8192.0).abs() < 1e-9);
    }

    #[test]
    fn missing_budgeted_metric_is_a_violation_for_max() {
        let doc = parse_metrics(SNAPSHOT).expect("parse");
        let budgets = parse_budgets("counter no.such_metric max 10\n").expect("budgets");
        let d = check(&doc, &doc, &budgets);
        assert_eq!(d.violations.len(), 1);
        assert_eq!(d.violations[0].observed, None);
    }

    #[test]
    fn grow_without_baseline_is_skipped_not_failed() {
        let doc = parse_metrics(SNAPSHOT).expect("parse");
        let budgets = parse_budgets("counter no.such_metric grow 10\n").expect("budgets");
        let d = check(&doc, &doc, &budgets);
        assert!(d.violations.is_empty());
        assert_eq!(d.skipped.len(), 1);
    }
}
