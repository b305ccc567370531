//! Fig. 12 — impact of the packet budget per decision.
//!
//! Paper: at 50 pkt/s the detection rate saturates within ≈0.5 s of
//! packets — the weighting schemes add negligible computational latency,
//! so response time is packet-budget-bound.

use mpdf_core::error::DetectError;

use crate::metrics::{LabeledScore, RocCurve};
use crate::workload::CampaignConfig;

use super::fig7::run_campaign_scores;

/// Balanced detection rates vs window size.
#[derive(Debug, Clone)]
pub struct Fig12Result {
    /// Rows of `(window packets, seconds at 50 pkt/s, baseline TP,
    /// subcarrier TP, combined TP)` at each scheme's balanced threshold.
    pub rows: Vec<(usize, f64, f64, f64, f64)>,
    /// Smallest window whose combined-scheme TP is within 5 points of the
    /// best TP over all window sizes — the packet budget needed for
    /// near-peak accuracy.
    pub saturation_window: usize,
}

/// Smallest window whose combined-scheme TP (`rows[i].4`) is within 5
/// points of the best TP over all window sizes.
///
/// `best` is NaN-aware: NaN columns (a window size where every score
/// degraded) are excluded rather than poisoning the max — the old
/// `fold(0.0, f64::max)` start value also masked any all-below-zero
/// column, silently reporting window 0 territory. Non-degenerate inputs
/// (every TP a real rate in `[0, 1]`) select exactly as before.
///
/// # Errors
/// [`DetectError::InvalidConfig`] when no rows were produced or every
/// combined TP is NaN — there is no saturation point to report.
fn saturation_window(rows: &[(usize, f64, f64, f64, f64)]) -> Result<usize, DetectError> {
    if rows.is_empty() {
        return Err(DetectError::InvalidConfig {
            what: "fig12: no window sizes produced scored rows".to_owned(),
        });
    }
    let best = rows
        .iter()
        .map(|r| r.4)
        .filter(|tp| !tp.is_nan())
        .fold(f64::NEG_INFINITY, f64::max);
    if !best.is_finite() {
        return Err(DetectError::InvalidConfig {
            what: "fig12: combined-scheme TP is NaN for every window size".to_owned(),
        });
    }
    // `best` is attained by some non-NaN row, so the find always hits;
    // the fallback is unreachable but keeps the lookup total.
    Ok(rows
        .iter()
        .find(|r| r.4 >= best - 0.05)
        .map_or(rows[rows.len() - 1].0, |r| r.0))
}

fn balanced_tp(scores: &[crate::workload::ScoredWindow]) -> f64 {
    let labeled: Vec<LabeledScore> = scores
        .iter()
        .map(super::super::workload::ScoredWindow::labeled)
        .collect();
    RocCurve::from_scores(&labeled)
        .balanced_operating_point()
        .tp
}

/// Runs Fig. 12 by re-running reduced campaigns at several window sizes.
///
/// # Errors
/// Propagates pipeline errors.
pub fn run(cfg: &CampaignConfig) -> Result<Fig12Result, mpdf_core::error::DetectError> {
    let windows = [5usize, 10, 25, 50, 100];
    let mut rows = Vec::with_capacity(windows.len());
    for &w in &windows {
        let mut wcfg = cfg.clone();
        wcfg.detector.window = w;
        let scores = run_campaign_scores(&wcfg)?;
        rows.push((
            w,
            w as f64 / 50.0,
            balanced_tp(&scores.baseline),
            balanced_tp(&scores.subcarrier),
            balanced_tp(&scores.combined),
        ));
    }
    let saturation_window = saturation_window(&rows)?;
    Ok(Fig12Result {
        rows,
        saturation_window,
    })
}

/// Renders the report.
pub fn report(r: &Fig12Result) -> String {
    let mut out = String::from("Fig. 12 — detection rate vs packets per decision\n");
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(w, secs, b, s, c)| {
            vec![
                format!("{w}"),
                format!("{secs:.2} s"),
                crate::report::pct(*b),
                crate::report::pct(*s),
                crate::report::pct(*c),
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &["packets", "time@50Hz", "baseline", "subcarrier", "sub+path"],
        &rows,
    ));
    out.push_str(&format!(
        "combined scheme reaches near-peak accuracy from {} packets ({:.2} s)\n",
        r.saturation_window,
        r.saturation_window as f64 / 50.0
    ));
    out.push_str(
        "paper: rates stay almost stable and saturate by ≈0.5 s — detection needs\n         well under a second of packets (our swaying-subject model mildly favours\n         short windows instead of mildly favouring long ones)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(w: usize, combined_tp: f64) -> (usize, f64, f64, f64, f64) {
        (w, w as f64 / 50.0, 0.5, 0.6, combined_tp)
    }

    #[test]
    fn picks_smallest_window_within_five_points_of_best() {
        // The non-degenerate shape the experiment actually produces:
        // TPs in [0, 1], rising then flat. Must match the historical
        // selection exactly (byte-identical repro output rides on it).
        let rows = vec![
            row(5, 0.70),
            row(10, 0.88),
            row(25, 0.90),
            row(50, 0.92),
            row(100, 0.91),
        ];
        assert_eq!(saturation_window(&rows).unwrap(), 10);
    }

    #[test]
    fn nan_columns_no_longer_mask_the_best() {
        // Old fold(0.0, max) kept best=0.90 here too, but a NaN first
        // column also satisfied `NaN >= best - 0.05 == false`, so NaN
        // rows were only safe by accident; make it explicit: NaN rows
        // are excluded from both best and selection.
        let rows = vec![row(5, f64::NAN), row(10, 0.90), row(25, 0.88)];
        assert_eq!(saturation_window(&rows).unwrap(), 10);
        // All-NaN: typed error instead of a fabricated window 0/ best=0.
        let rows = vec![row(5, f64::NAN), row(10, f64::NAN)];
        assert!(matches!(
            saturation_window(&rows),
            Err(DetectError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_rows_are_a_typed_error_not_window_zero() {
        assert!(matches!(
            saturation_window(&[]),
            Err(DetectError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn all_negative_columns_select_the_true_max() {
        // fold(0.0, max) reported best=0.0 for all-negative columns and
        // then found no row within 0.05, falling through to the last
        // window; the NEG_INFINITY fold finds the real (negative) best.
        let rows = vec![row(5, -0.4), row(10, -0.1), row(25, -0.3)];
        assert_eq!(saturation_window(&rows).unwrap(), 10);
    }
}
