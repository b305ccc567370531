//! Fig. 9 — detection rate vs. human distance from the receiver.
//!
//! Paper: the baseline collapses below 60 % at 5 m; both weighted schemes
//! stay above 90 %, and path weighting gains the most (≈12 %) for distant
//! humans — roughly doubling the usable detection range at a 90 %
//! detection-rate requirement.

use mpdf_propagation::human::HumanBody;
use mpdf_propagation::trajectory::StaticSway;
use mpdf_wifi::receiver::Actor;

use crate::metrics::detection_rate;
use crate::scenario::{distance_ring_positions, five_cases};
use crate::workload::{case_receiver, score_window, CampaignConfig, PAPER_SCHEMES};

use super::fig7::{run_campaign_scores, CampaignScores};

/// One distance bin's row: `(distance m, baseline, subcarrier, combined,
/// abstained)`.
pub type DistanceRow = (f64, Option<f64>, Option<f64>, Option<f64>, usize);

/// Detection rates per distance bin.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Rows of `(distance m, baseline, subcarrier, combined, abstained)`;
    /// `abstained` counts the scheme scores left out of the row's rates
    /// because the scheme abstained on the window (a faulted run). A rate
    /// is `None` when every window of its cell abstained.
    pub rows: Vec<DistanceRow>,
    /// Largest distance at which each scheme still reaches 90 %:
    /// `(baseline, subcarrier, combined)`; a cell without a rate never
    /// counts.
    pub range_at_90: (f64, f64, f64),
}

/// Runs Fig. 9: distance rings 1–5 m on the two longest links, scored
/// with the thresholds of the shared Fig. 7 campaign.
///
/// # Errors
/// Propagates pipeline errors other than abstentions.
pub fn run(cfg: &CampaignConfig) -> Result<Fig9Result, mpdf_core::error::DetectError> {
    let shared = run_campaign_scores(cfg)?;
    let thr_b = CampaignScores::balanced_threshold(&shared.baseline);
    let thr_s = CampaignScores::balanced_threshold(&shared.subcarrier);
    let thr_c = CampaignScores::balanced_threshold(&shared.combined);

    let distances = [1.0, 2.0, 3.0, 4.0, 5.0];
    let cases = five_cases();
    // Use the two longest links so 5 m positions exist.
    let mut picked: Vec<_> = cases.iter().collect();
    picked.sort_by(|a, b| b.link_length().total_cmp(&a.link_length()));
    let picked = &picked[..2];

    /// Scores per distance bin: `(distance, per-scheme scores in
    /// PAPER_SCHEMES order, abstentions)`.
    type DistanceBin = (f64, [Vec<f64>; 3], usize);
    let mut per_distance: Vec<DistanceBin> = distances
        .iter()
        .map(|&d| (d, Default::default(), 0))
        .collect();

    for case in picked {
        let mut receiver = case_receiver(case, cfg, cfg.seed ^ 0x919 ^ case.id as u64)?;
        let calibration = receiver.capture_static(None, cfg.calibration_packets)?;
        let profile = mpdf_core::profile::CalibrationProfile::build(&calibration, &cfg.detector)?;
        for (d, pos) in distance_ring_positions(case, &distances) {
            for episode in 0..cfg.episodes_per_position {
                receiver.resample_drift();
                let sway = StaticSway::new(pos, cfg.sway_amplitude);
                let actors = [Actor {
                    body: HumanBody::new(pos),
                    trajectory: &sway,
                }];
                let window = receiver.capture_actors(&actors, cfg.detector.window)?;
                // `d` comes from iterating `distances`, so a bin always
                // exists; skip defensively rather than panic.
                let Some(slot) = per_distance
                    .iter_mut()
                    .find(|(dd, ..)| (*dd - d).abs() < 1e-9)
                else {
                    continue;
                };
                let scored = score_window(PAPER_SCHEMES, &profile, &window, &cfg.detector);
                for (scores, score) in slot.1.iter_mut().zip(scored) {
                    match score? {
                        Some(score) => scores.push(score),
                        None => slot.2 += 1,
                    }
                }
                let _ = episode;
            }
        }
    }

    let rows: Vec<DistanceRow> = per_distance
        .iter()
        .map(|(d, [b, s, c], abstained)| {
            (
                *d,
                detection_rate(b, thr_b),
                detection_rate(s, thr_s),
                detection_rate(c, thr_c),
                *abstained,
            )
        })
        .collect();
    let range = |idx: usize| -> f64 {
        rows.iter()
            .filter(|r| {
                let rate = match idx {
                    0 => r.1,
                    1 => r.2,
                    _ => r.3,
                };
                rate.is_some_and(|rate| rate >= 0.9)
            })
            .map(|r| r.0)
            .fold(0.0, f64::max)
    };
    Ok(Fig9Result {
        range_at_90: (range(0), range(1), range(2)),
        rows,
    })
}

/// Renders the report.
pub fn report(r: &Fig9Result) -> String {
    let mut out = String::from("Fig. 9 — detection rate vs distance from the receiver\n");
    // The abstention column appears only in a run that has one, so a
    // clean run's table is unchanged.
    let abstained = r.rows.iter().any(|row| row.4 > 0);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(d, b, s, c, n)| {
            let mut row = vec![
                format!("{d:.0} m"),
                crate::report::pct_or_na(*b),
                crate::report::pct_or_na(*s),
                crate::report::pct_or_na(*c),
            ];
            row.extend(abstained.then(|| n.to_string()));
            row
        })
        .collect();
    let mut header = vec!["distance", "baseline", "subcarrier", "sub+path"];
    header.extend(abstained.then_some("abstained"));
    out.push_str(&crate::report::table(&header, &rows));
    out.push_str(&format!(
        "range at ≥90% detection: baseline {:.0} m, subcarrier {:.0} m, sub+path {:.0} m\n",
        r.range_at_90.0, r.range_at_90.1, r.range_at_90.2
    ));
    out.push_str("paper: baseline <60% at 5 m; weighted schemes >90% at 5 m (≈1× range gain)\n");
    out
}
