//! Fig. 7 — overall ROC of the three schemes.
//!
//! Paper result: baseline ≈70 % balanced accuracy at ≈30 % FP; subcarrier
//! weighting 88.2 % TP at 13.0 % FP; subcarrier+path weighting 92.0 % TP
//! at 4.5 % FP. Shape target: strict ordering of the three ROC curves.

use crate::metrics::{LabeledScore, RocCurve, SchemeSummary};
use crate::scenario::five_cases;
use crate::workload::{
    run_campaign, score_campaign_schemes, CampaignConfig, ScoredWindow, PAPER_SCHEMES,
};

/// Per-scheme outcome of the Fig. 7 campaign.
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// Scheme label.
    pub name: String,
    /// Balanced operating point + AUC.
    pub summary: SchemeSummary,
    /// ROC curve sampled at 21 FP points for plotting.
    pub roc_points: Vec<(f64, f64)>,
}

/// Result of the Fig. 7 experiment.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Outcomes in scheme order: baseline, subcarrier, subcarrier+path.
    pub schemes: Vec<SchemeOutcome>,
}

/// Scored windows of all three schemes (shared by Figs. 8, 9, 11).
#[derive(Debug, Clone)]
pub struct CampaignScores {
    /// Baseline scores.
    pub baseline: Vec<ScoredWindow>,
    /// Subcarrier-weighting scores.
    pub subcarrier: Vec<ScoredWindow>,
    /// Combined-weighting scores.
    pub combined: Vec<ScoredWindow>,
}

impl CampaignScores {
    /// Balanced-accuracy threshold of a score set.
    pub fn balanced_threshold(scores: &[ScoredWindow]) -> f64 {
        let labeled: Vec<LabeledScore> = scores.iter().map(ScoredWindow::labeled).collect();
        RocCurve::from_scores(&labeled)
            .balanced_operating_point()
            .threshold
    }
}

/// Runs the shared evaluation campaign and scores it with all three
/// schemes, each window prepared once.
///
/// # Errors
/// Propagates pipeline errors.
pub fn run_campaign_scores(
    cfg: &CampaignConfig,
) -> Result<CampaignScores, mpdf_core::error::DetectError> {
    let cases = five_cases();
    let data = run_campaign(&cases, cfg)?;
    let [baseline, subcarrier, combined] =
        score_campaign_schemes(&data, PAPER_SCHEMES, &cfg.detector)?;
    Ok(CampaignScores {
        baseline,
        subcarrier,
        combined,
    })
}

fn outcome(name: &str, scores: &[ScoredWindow]) -> SchemeOutcome {
    let labeled: Vec<LabeledScore> = scores.iter().map(ScoredWindow::labeled).collect();
    let roc = RocCurve::from_scores(&labeled);
    SchemeOutcome {
        name: name.to_string(),
        summary: SchemeSummary {
            operating: roc.balanced_operating_point(),
            auc: roc.auc(),
        },
        roc_points: roc.sampled(21),
    }
}

/// Runs Fig. 7 from pre-computed campaign scores.
pub fn from_scores(scores: &CampaignScores) -> Fig7Result {
    Fig7Result {
        schemes: vec![
            outcome("baseline", &scores.baseline),
            outcome("subcarrier-weighting", &scores.subcarrier),
            outcome("subcarrier+path-weighting", &scores.combined),
        ],
    }
}

/// Runs the full Fig. 7 experiment.
///
/// # Errors
/// Propagates pipeline errors.
pub fn run(cfg: &CampaignConfig) -> Result<Fig7Result, mpdf_core::error::DetectError> {
    Ok(from_scores(&run_campaign_scores(cfg)?))
}

/// Renders the paper-style report.
pub fn report(result: &Fig7Result) -> String {
    let mut out = String::from("Fig. 7 — overall detection performance (ROC)\n");
    let rows: Vec<Vec<String>> = result
        .schemes
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                crate::report::pct(s.summary.operating.tp),
                crate::report::pct(s.summary.operating.fp),
                format!("{:.3}", s.summary.auc),
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &["scheme", "balanced TP", "FP", "AUC"],
        &rows,
    ));
    out.push_str("paper: baseline ~70%/30%, subcarrier 88.2%/13.0%, combined 92.0%/4.5%\n");
    for s in &result.schemes {
        out.push('\n');
        out.push_str(&format!("ROC — {}\n", s.name));
        out.push_str(&crate::report::series("FP", "TP", &s.roc_points));
    }
    out
}
