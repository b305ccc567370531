//! Fig. 11 — path weighting's gain across human angles.
//!
//! Humans at the same radius but different angles from the receiver:
//! path weighting helps most at large angles (NLOS directions), while
//! the gain near the LOS direction (0°) is marginal.

use mpdf_core::scheme::{SubcarrierAndPathWeighting, SubcarrierWeighting};
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::trajectory::StaticSway;
use mpdf_wifi::receiver::Actor;

use crate::metrics::detection_rate;
use crate::scenario::{angle_fan_positions, five_cases};
use crate::workload::{case_receiver, score_window, CampaignConfig};

use super::fig7::{run_campaign_scores, CampaignScores};

/// Detection rate by angle for the two weighted schemes.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// Rows of `(angle°, subcarrier-only, subcarrier+path, abstained)`;
    /// `abstained` counts the scheme scores left out of the row's rates
    /// because the scheme abstained on the window (a faulted run).
    pub rows: Vec<(f64, f64, f64, usize)>,
    /// Mean gain of path weighting at |angle| ≥ 45°.
    pub gain_large_angles: f64,
    /// Mean gain of path weighting at |angle| ≤ 15°.
    pub gain_small_angles: f64,
}

/// Runs Fig. 11 on the 4 m classroom link at 1.5 m radius.
///
/// # Errors
/// Propagates pipeline errors other than abstentions.
pub fn run(cfg: &CampaignConfig) -> Result<Fig11Result, mpdf_core::error::DetectError> {
    let shared = run_campaign_scores(cfg)?;
    let thr_s = CampaignScores::balanced_threshold(&shared.subcarrier);
    let thr_c = CampaignScores::balanced_threshold(&shared.combined);

    let case = &five_cases()[0];
    let mut receiver = case_receiver(case, cfg, cfg.seed ^ 0xB11)?;
    let calibration = receiver.capture_static(None, cfg.calibration_packets)?;
    let profile = mpdf_core::profile::CalibrationProfile::build(&calibration, &cfg.detector)?;

    let fan: Vec<f64> = (-6..=6).map(|i| i as f64 * 15.0).collect();
    let mut rows = Vec::new();
    for (angle, pos) in angle_fan_positions(case, 1.5, &fan) {
        let mut scores: [Vec<f64>; 2] = Default::default();
        let mut abstained = 0;
        for _ in 0..cfg.episodes_per_position.max(3) {
            receiver.resample_drift();
            let sway = StaticSway::new(pos, cfg.sway_amplitude);
            let actors = [Actor {
                body: HumanBody::new(pos),
                trajectory: &sway,
            }];
            let window = receiver.capture_actors(&actors, cfg.detector.window)?;
            let scored = score_window(
                [&SubcarrierWeighting, &SubcarrierAndPathWeighting],
                &profile,
                &window,
                &cfg.detector,
            );
            for (scores, score) in scores.iter_mut().zip(scored) {
                match score? {
                    Some(score) => scores.push(score),
                    None => abstained += 1,
                }
            }
        }
        rows.push((
            angle,
            detection_rate(&scores[0], thr_s),
            detection_rate(&scores[1], thr_c),
            abstained,
        ));
    }

    let mean_gain = |pred: &dyn Fn(f64) -> bool| -> f64 {
        let sel: Vec<_> = rows.iter().filter(|(a, ..)| pred(*a)).collect();
        if sel.is_empty() {
            return 0.0;
        }
        sel.iter().map(|(_, s, c, _)| c - s).sum::<f64>() / sel.len() as f64
    };
    Ok(Fig11Result {
        gain_large_angles: mean_gain(&|a: f64| a.abs() >= 45.0),
        gain_small_angles: mean_gain(&|a: f64| a.abs() <= 15.0),
        rows,
    })
}

/// Renders the report.
pub fn report(r: &Fig11Result) -> String {
    let mut out = String::from("Fig. 11 — path weighting gain vs human angle (1.5 m radius)\n");
    // The abstention column appears only in a run that has one, so a
    // clean run's table is unchanged.
    let abstained = r.rows.iter().any(|row| row.3 > 0);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(a, s, c, n)| {
            let mut row = vec![
                format!("{a:.0}°"),
                crate::report::pct(*s),
                crate::report::pct(*c),
            ];
            row.extend(abstained.then(|| n.to_string()));
            row
        })
        .collect();
    let mut header = vec!["angle", "subcarrier", "sub+path"];
    header.extend(abstained.then_some("abstained"));
    out.push_str(&crate::report::table(&header, &rows));
    out.push_str(&format!(
        "mean path-weighting gain: {:.1} pts at |angle|≥45°, {:.1} pts at |angle|≤15°\n",
        100.0 * r.gain_large_angles,
        100.0 * r.gain_small_angles
    ));
    out.push_str("paper: notable improvement at large angles, marginal near the LOS\n");
    out
}
