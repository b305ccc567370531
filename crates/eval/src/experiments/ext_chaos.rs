//! Chaos campaign: detection quality under injected receiver faults.
//!
//! Extension beyond the paper: the measurement stack is subjected to the
//! `chaos` fault preset (loss bursts, chain dropouts, AGC saturation,
//! decoder glitches) at increasing intensity, and the subcarrier-weighted
//! detector runs through its graceful-degradation path. The threshold is
//! frozen at intensity 0 — a deployed detector cannot recalibrate the
//! moment its receiver starts failing — so the sweep reports how the
//! detection and false-positive rates of the *fault-free* operating point
//! erode, and how many windows the gap budget aborts outright.

use mpdf_core::error::DetectError;
use mpdf_core::scheme::{DetectionScheme, SubcarrierWeighting};
use mpdf_core::threshold::threshold_for_fp;
use mpdf_wifi::FaultModel;

use crate::metrics::detection_rate;
use crate::scenario::five_cases;
use crate::workload::{run_campaign, scored_or_abstained, CampaignConfig};

/// The fault intensities swept (scale factors on the `chaos` preset's
/// probabilities; 0 disables fault injection entirely).
pub const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// False-positive target the frozen threshold is calibrated to at
/// intensity 0.
const TARGET_FP: f64 = 0.1;

/// One intensity step of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRow {
    /// Scale factor on the `chaos` preset.
    pub intensity: f64,
    /// Detection rate of human windows at the frozen threshold.
    pub detection_rate: f64,
    /// False-positive rate of empty windows at the frozen threshold.
    pub fp_rate: f64,
    /// Windows scored through the degradation path (packets lost,
    /// rejected or antenna-reduced).
    pub degraded_windows: usize,
    /// Windows the scheme abstained on ([`DetectError::is_abstention`]).
    pub aborted_windows: usize,
    /// Windows that produced a score.
    pub scored_windows: usize,
}

/// Result of the chaos sweep.
#[derive(Debug, Clone)]
pub struct ExtChaosResult {
    /// Threshold frozen from the intensity-0 negative scores.
    pub threshold: f64,
    /// One row per swept intensity.
    pub rows: Vec<ChaosRow>,
}

/// Runs the chaos sweep.
///
/// # Errors
/// Propagates pipeline errors other than the expected abstentions
/// ([`DetectError::is_abstention`]).
pub fn run(cfg: &CampaignConfig) -> Result<ExtChaosResult, DetectError> {
    let _stage = mpdf_obs::stage!("eval.ext_chaos");
    let cases = five_cases();
    let scheme = SubcarrierWeighting;
    let mut threshold: Option<f64> = None;
    let mut rows = Vec::with_capacity(INTENSITIES.len());
    for &intensity in &INTENSITIES {
        let fault_cfg = CampaignConfig {
            faults: FaultModel::chaos().scaled(intensity),
            ..cfg.clone()
        };
        let data = run_campaign(&cases, &fault_cfg)?;
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        let mut degraded_windows = 0usize;
        let mut aborted_windows = 0usize;
        for case in &data {
            for w in &case.windows {
                let scored =
                    scheme.score_with_health(&case.profile, &w.packets, &fault_cfg.detector);
                match scored_or_abstained(scored)? {
                    Some((score, health)) => {
                        if health.degraded {
                            degraded_windows += 1;
                        }
                        if w.human.is_some() {
                            positives.push(score);
                        } else {
                            negatives.push(score);
                        }
                    }
                    None => aborted_windows += 1,
                }
            }
        }
        // Freeze the operating point on the first (fault-free) pass.
        let thr = *threshold.get_or_insert_with(|| threshold_for_fp(&negatives, TARGET_FP));
        rows.push(ChaosRow {
            intensity,
            // The sweep's rows keep reading 0 % for a side whose every
            // window aborted; `aborted_windows` says when that happened.
            detection_rate: detection_rate(&positives, thr).unwrap_or(0.0),
            fp_rate: detection_rate(&negatives, thr).unwrap_or(0.0),
            degraded_windows,
            aborted_windows,
            scored_windows: positives.len() + negatives.len(),
        });
    }
    Ok(ExtChaosResult {
        threshold: threshold.unwrap_or(f64::INFINITY),
        rows,
    })
}

/// Renders the report.
pub fn report(r: &ExtChaosResult) -> String {
    let mut out = String::from("Chaos sweep — detection under injected receiver faults\n");
    out.push_str(&format!(
        "threshold frozen at intensity 0 (target FP {:.0}%): {:.4}\n",
        TARGET_FP * 100.0,
        r.threshold
    ));
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                format!("{:.2}", row.intensity),
                crate::report::pct(row.detection_rate),
                crate::report::pct(row.fp_rate),
                row.degraded_windows.to_string(),
                row.aborted_windows.to_string(),
                row.scored_windows.to_string(),
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &["intensity", "detect", "FP", "degraded", "aborted", "scored"],
        &rows,
    ));
    out.push_str(
        "graceful degradation: quarantine + gap budgets keep the detector live on a\n\
         failing receiver; windows beyond the budget abort typed instead of scoring\n",
    );
    out
}
