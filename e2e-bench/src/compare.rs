//! `e2e compare <runs-A> <runs-B>`: compares two sets of runs metric by
//! metric against the bounds in `BENCHMARK.json`.
//!
//! A run file is one saved standard output of `e2e --workload ...`: its
//! `e2e workload=... seed=...` header names the workload and seed, and
//! its last line is the result object. Runs pair up by seed order. For
//! each (workload, end-to-end metric):
//!
//! - **unresolved** when either side's interquartile range, as a share
//!   of its median, exceeds the bound — unless every B run reads better
//!   (**improved**) or worse (**worse**) than every A run;
//! - **improved** when B wins at least nine tenths of the pairs (ties
//!   count for neither) and the medians differ by more than A's
//!   interquartile range;
//! - **worse** when B's median is worse than A's by more than the bound;
//! - **unchanged** otherwise.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use xtask::json::{parse_document, Json};

use crate::stats;

/// An end-to-end metric's bound from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Lower values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// One parsed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether the run's checks passed.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The comparison outcome of one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, beyond the noise.
    Improved,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is within the bound of A.
    Unchanged,
    /// The run-to-run spread exceeds the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side's summary: `[q1, median, q3]` and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Quartiles as Python's `statistics.quantiles(n=4)`.
    pub quartiles: [f64; 3],
    /// Runs.
    pub n: usize,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Outcome.
    pub verdict: Verdict,
    /// Side A.
    pub a: Side,
    /// Side B.
    pub b: Side,
    /// Share of pairs B won.
    pub win_share: f64,
}

fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: Option<&Json>) -> Option<f64> {
    match v {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` text.
///
/// # Errors
/// Malformed JSON or a metric without name, `better` or `bound`.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = parse_document(text)?;
    let Some(Json::Arr(items)) = field(&doc, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_owned());
    };
    items
        .iter()
        .map(|item| {
            let name = match field(item, "name") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err("an end_to_end metric has no name".to_owned()),
            };
            let lower_is_better = match field(item, "better") {
                Some(Json::Str(s)) if s == "lower" => true,
                Some(Json::Str(s)) if s == "higher" => false,
                _ => return Err(format!("metric {name}: better must be lower or higher")),
            };
            let bound =
                num(field(item, "bound")).ok_or_else(|| format!("metric {name}: no bound"))?;
            Ok(Bound {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// Parses one run's saved standard output.
///
/// # Errors
/// A missing header or result line, or a malformed result.
pub fn parse_run(text: &str) -> Result<Run, String> {
    let header = text
        .lines()
        .find_map(|l| l.strip_prefix("e2e "))
        .ok_or("no `e2e workload=...` header line")?;
    let value = |key: &str| {
        header
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
    };
    let workload = value("workload")
        .ok_or("header has no workload")?
        .to_owned();
    let seed = value("seed")
        .and_then(|s| s.parse().ok())
        .ok_or("header has no seed")?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty run output")?;
    let doc = parse_document(last)?;
    let correct = last.replace(' ', "").contains("\"correct\":true");
    let Some(Json::Obj(entries)) = field(&doc, "metrics") else {
        return Err("result line has no metrics object".to_owned());
    };
    let metrics = entries
        .iter()
        .filter_map(|(name, m)| num(field(m, "value")).map(|v| (name.clone(), v)))
        .collect();
    Ok(Run {
        workload,
        seed,
        correct,
        metrics,
    })
}

/// Loads every run file in `path` (a directory, read non-recursively,
/// or one file).
///
/// # Errors
/// Unreadable or unparsable files.
pub fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries =
            std::fs::read_dir(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        for entry in entries {
            let p = entry
                .map_err(|e| format!("read {}: {e}", path.display()))?
                .path();
            if p.is_file() {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    files
        .iter()
        .map(|f| {
            let text =
                std::fs::read_to_string(f).map_err(|e| format!("read {}: {e}", f.display()))?;
            parse_run(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// Classifies B against A for one metric.
pub fn classify(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let win_share = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (Some(qa), Some(qb)) = (stats::quartiles(a), stats::quartiles(b)) else {
        return (Verdict::Unresolved, win_share);
    };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE);
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let verdict = if spread(qa) > bound || spread(qb) > bound {
        if all_better {
            Verdict::Improved
        } else if all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else {
        let worse_by = if lower_is_better {
            (qb[1] - qa[1]) / qa[1].abs().max(f64::MIN_POSITIVE)
        } else {
            (qa[1] - qb[1]) / qa[1].abs().max(f64::MIN_POSITIVE)
        };
        if win_share >= 0.9 && better(qb[1], qa[1]) && (qb[1] - qa[1]).abs() > qa[2] - qa[0] {
            Verdict::Improved
        } else if worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        }
    };
    (verdict, win_share)
}

/// Compares every (workload, end-to-end metric) both sides report.
pub fn compare(a: &[Run], b: &[Run], bounds: &[Bound]) -> Vec<Row> {
    let by_workload = |runs: &[Run]| {
        let mut map: BTreeMap<String, Vec<Run>> = BTreeMap::new();
        for r in runs {
            map.entry(r.workload.clone()).or_default().push(r.clone());
        }
        for v in map.values_mut() {
            v.sort_by_key(|r| r.seed);
        }
        map
    };
    let (a, b) = (by_workload(a), by_workload(b));
    let mut rows = Vec::new();
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            continue;
        };
        for bound in bounds {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            let (Some(qa), Some(qb)) = (stats::quartiles(&va), stats::quartiles(&vb)) else {
                continue;
            };
            let (verdict, win_share) = classify(&va, &vb, bound.lower_is_better, bound.bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                verdict,
                a: Side {
                    quartiles: qa,
                    n: va.len(),
                },
                b: Side {
                    quartiles: qb,
                    n: vb.len(),
                },
                win_share,
            });
        }
    }
    rows
}

/// Renders a row.
pub fn render(row: &Row) -> String {
    let side = |s: &Side| {
        format!(
            "{:.6} [{:.6}, {:.6}] n={}",
            s.quartiles[1], s.quartiles[0], s.quartiles[2], s.n
        )
    };
    format!(
        "{:<14} {:<14} {:<10} A {}  B {}  win={:.2}",
        row.workload,
        row.metric,
        row.verdict.to_string(),
        side(&row.a),
        side(&row.b),
        row.win_share
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.05},
        {"name": "windows_per_s", "unit": "windows/s", "better": "higher", "bound": 0.05}
    ]}"#;

    fn run_text(workload: &str, seed: u64, p50: f64, wps: f64) -> String {
        format!(
            "e2e workload={workload} seed={seed} threads=2 scale=full ops=20 checks=ok\n\
             metric op_ms_p50 {p50} ms n=20\n\
             {{\"correct\": true, \"attempted\": 20, \"failed\": 0, \"metrics\": \
             {{\"op_ms_p50\": {{\"value\": {p50}, \"unit\": \"ms\"}}, \
             \"windows_per_s\": {{\"value\": {wps}, \"unit\": \"windows/s\"}}}}}}\n"
        )
    }

    fn runs(workload: &str, values: &[(f64, f64)]) -> Vec<Run> {
        values
            .iter()
            .enumerate()
            .map(|(i, &(p50, wps))| parse_run(&run_text(workload, i as u64, p50, wps)).unwrap())
            .collect()
    }

    #[test]
    fn parses_bounds_and_runs() {
        let bounds = parse_bounds(BENCH).unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].lower_is_better && !bounds[1].lower_is_better);
        assert_eq!(bounds[1].bound, 0.05);
        let run = parse_run(&run_text("fleet", 7, 4.5, 1000.0)).unwrap();
        assert_eq!(run.workload, "fleet");
        assert_eq!(run.seed, 7);
        assert!(run.correct);
        assert_eq!(run.metrics["op_ms_p50"], 4.5);
        assert!(parse_run("no header\n{}").is_err());
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = runs(
            "fleet",
            &[(10.0, 100.0), (10.1, 99.0), (9.9, 101.0), (10.05, 100.5)],
        );
        let b = runs(
            "fleet",
            &[(10.02, 100.2), (9.95, 99.5), (10.08, 100.1), (9.97, 100.4)],
        );
        let rows = compare(&a, &b, &parse_bounds(BENCH).unwrap());
        assert_eq!(rows.len(), 2);
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Unchanged),
            "{rows:?}"
        );
    }

    #[test]
    fn a_clear_slowdown_is_worse_and_a_clear_gain_improved() {
        let a = runs(
            "stream",
            &[(10.0, 100.0), (10.1, 99.0), (9.9, 101.0), (10.0, 100.0)],
        );
        let slow = runs(
            "stream",
            &[(12.0, 80.0), (12.1, 81.0), (11.9, 79.0), (12.0, 80.5)],
        );
        let rows = compare(&a, &slow, &parse_bounds(BENCH).unwrap());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Worse), "{rows:?}");
        let rows = compare(&slow, &a, &parse_bounds(BENCH).unwrap());
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Improved),
            "{rows:?}"
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = runs(
            "campaign",
            &[(10.0, 100.0), (13.0, 70.0), (8.0, 120.0), (11.0, 95.0)],
        );
        let b = runs(
            "campaign",
            &[(11.0, 96.0), (9.0, 110.0), (12.5, 75.0), (10.0, 99.0)],
        );
        let rows = compare(&a, &b, &parse_bounds(BENCH).unwrap());
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Unresolved),
            "{rows:?}"
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let (v, win) = classify(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0], true, 0.0);
        assert_eq!((v, win), (Verdict::Unchanged, 0.0));
        // An exact count (bound 0) that grows at all is worse.
        let (v, _) = classify(&[5.0, 5.0, 5.0], &[6.0, 6.0, 6.0], true, 0.0);
        assert_eq!(v, Verdict::Worse);
    }
}
