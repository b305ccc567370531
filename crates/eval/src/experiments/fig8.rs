//! Fig. 8 — detection rates per link case at the balanced threshold.
//!
//! Paper: no large gap between cases; case 3 (short, strong-LOS link)
//! slightly leads, and path weighting can slightly hurt where angle
//! estimates err (case 1 in the paper's data).

use crate::metrics::detection_rate;
use crate::workload::{CampaignConfig, ScoredWindow};

use super::fig7::{run_campaign_scores, CampaignScores};

/// Per-case detection rates of the three schemes.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Rows of `(case id, baseline, subcarrier, combined)` detection rates.
    pub rows: Vec<(usize, f64, f64, f64)>,
}

fn per_case_rate(scores: &[ScoredWindow], case_id: usize, threshold: f64) -> f64 {
    let positives: Vec<f64> = scores
        .iter()
        .filter(|s| s.case_id == case_id && s.human.is_some())
        .map(|s| s.score)
        .collect();
    detection_rate(&positives, threshold)
}

/// Computes Fig. 8 from shared campaign scores.
pub fn from_scores(scores: &CampaignScores) -> Fig8Result {
    let thr_b = CampaignScores::balanced_threshold(&scores.baseline);
    let thr_s = CampaignScores::balanced_threshold(&scores.subcarrier);
    let thr_c = CampaignScores::balanced_threshold(&scores.combined);
    let mut ids: Vec<usize> = scores.baseline.iter().map(|s| s.case_id).collect();
    ids.sort_unstable();
    ids.dedup();
    let rows = ids
        .into_iter()
        .map(|id| {
            (
                id,
                per_case_rate(&scores.baseline, id, thr_b),
                per_case_rate(&scores.subcarrier, id, thr_s),
                per_case_rate(&scores.combined, id, thr_c),
            )
        })
        .collect();
    Fig8Result { rows }
}

/// Runs the campaign and computes Fig. 8.
///
/// # Errors
/// Propagates pipeline errors.
pub fn run(cfg: &CampaignConfig) -> Result<Fig8Result, mpdf_core::error::DetectError> {
    Ok(from_scores(&run_campaign_scores(cfg)?))
}

/// Renders the report.
pub fn report(r: &Fig8Result) -> String {
    let mut out = String::from("Fig. 8 — detection rate per case (balanced threshold)\n");
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(id, b, s, c)| {
            vec![
                format!("case {id}"),
                crate::report::pct(*b),
                crate::report::pct(*s),
                crate::report::pct(*c),
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &["case", "baseline", "subcarrier", "sub+path"],
        &rows,
    ));
    out.push_str("paper: no clear gap across cases; case 3 slightly ahead\n");
    out
}
