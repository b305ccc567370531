//! Ablation: what does each ingredient buy?
//!
//! Compares four detectors on the shared campaign:
//! MAC-layer RSSI (wideband power only) → per-subcarrier CSI amplitudes
//! (the paper's baseline) → subcarrier weighting → subcarrier + path
//! weighting. The RSSI row quantifies the paper's §VI remark that RSSI
//! is too coarse ("a fickle feature"); the rest is the paper's own
//! progression.

use mpdf_core::scheme::{Baseline, RssiBaseline, SubcarrierAndPathWeighting, SubcarrierWeighting};

use crate::metrics::{LabeledScore, SchemeSummary};
use crate::scenario::five_cases;
use crate::workload::{run_campaign, score_campaign_schemes, CampaignConfig, ScoredWindow};

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Detector label.
    pub name: String,
    /// Summary at the balanced operating point.
    pub summary: SchemeSummary,
}

/// Result of the ablation study.
#[derive(Debug, Clone)]
pub struct ExtAblateResult {
    /// Rows from coarsest to fullest detector.
    pub rows: Vec<AblationRow>,
}

fn summarize(name: &str, scores: &[ScoredWindow]) -> AblationRow {
    let labeled: Vec<LabeledScore> = scores.iter().map(ScoredWindow::labeled).collect();
    AblationRow {
        name: name.to_string(),
        summary: SchemeSummary::from_scores(&labeled),
    }
}

/// Runs the ablation.
///
/// # Errors
/// Propagates pipeline errors.
pub fn run(cfg: &CampaignConfig) -> Result<ExtAblateResult, mpdf_core::error::DetectError> {
    // The RSSI detector and the paper's three schemes score the shared
    // campaign, each window prepared once for all four.
    let data = run_campaign(&five_cases(), cfg)?;
    let [rssi, baseline, subcarrier, combined] = score_campaign_schemes(
        &data,
        [
            &RssiBaseline,
            &Baseline,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ],
        &cfg.detector,
    )?;
    Ok(ExtAblateResult {
        rows: vec![
            summarize("rssi (wideband power)", &rssi),
            summarize("csi baseline", &baseline),
            summarize("+ subcarrier weighting", &subcarrier),
            summarize("+ path weighting", &combined),
        ],
    })
}

/// Renders the report.
pub fn report(r: &ExtAblateResult) -> String {
    let mut out = String::from("Ablation — RSSI → CSI → frequency diversity → spatial diversity\n");
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                row.name.clone(),
                crate::report::pct(row.summary.operating.tp),
                crate::report::pct(row.summary.operating.fp),
                format!("{:.3}", row.summary.auc),
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &["detector", "balanced TP", "FP", "AUC"],
        &rows,
    ));
    out.push_str(
        "paper §VI: RSSI 'proves to be a fickle feature'; CSI granularity, then the\n\
         paper's two diversity mechanisms, each buy a step of performance\n",
    );
    out
}
