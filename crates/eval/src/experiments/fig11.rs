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
    /// because the scheme abstained on the window (a faulted run). A rate
    /// is `None` when every window of its cell abstained.
    pub rows: Vec<(f64, Option<f64>, Option<f64>, usize)>,
    /// Mean gain of path weighting at |angle| ≥ 45°, over the angles
    /// where both schemes have a rate.
    pub gain_large_angles: f64,
    /// Mean gain of path weighting at |angle| ≤ 15°, likewise.
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

    Ok(Fig11Result {
        gain_large_angles: mean_gain(&rows, |a| a.abs() >= 45.0),
        gain_small_angles: mean_gain(&rows, |a| a.abs() <= 15.0),
        rows,
    })
}

/// Mean path-weighting gain `combined − subcarrier` over the rows whose
/// angle `pick` accepts and where both schemes have a rate; 0 with none.
fn mean_gain(rows: &[(f64, Option<f64>, Option<f64>, usize)], pick: impl Fn(f64) -> bool) -> f64 {
    let gains: Vec<f64> = rows
        .iter()
        .filter(|(a, ..)| pick(*a))
        .filter_map(|(_, s, c, _)| Some((*c)? - (*s)?))
        .collect();
    if gains.is_empty() {
        return 0.0;
    }
    gains.iter().sum::<f64>() / gains.len() as f64
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
                crate::report::pct_or_na(*s),
                crate::report::pct_or_na(*c),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_all_abstained_cell_has_no_rate_and_no_gain() {
        let rows = vec![
            (-45.0, Some(0.5), Some(0.75), 0),
            (30.0, Some(0.25), None, 4),
            (60.0, Some(0.5), Some(1.0), 1),
        ];
        assert_eq!(mean_gain(&rows, |a| a.abs() >= 45.0), 0.375);
        // The 30° cell would read a −25-point "gain" as a 0 % rate.
        assert_eq!(mean_gain(&rows, |a| a.abs() <= 30.0), 0.0);
        let text = report(&Fig11Result {
            rows,
            gain_large_angles: 0.375,
            gain_small_angles: 0.0,
        });
        let row = text.lines().find(|l| l.contains("30°")).unwrap();
        assert!(row.contains("n/a") && !row.contains("0.0%"), "{row}");
    }
}
