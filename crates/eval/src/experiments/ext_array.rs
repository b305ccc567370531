//! Extension (paper §IV-B1/§V-B3): larger antenna arrays.
//!
//! The paper's angle estimates are limited by the 3-antenna aperture and
//! it "envision\[s\] more accurate angle estimation via larger antenna
//! arrays or advanced SAR technique would contribute to more robust path
//! weighting". This experiment scales the receive ULA from 3 to 8
//! elements and measures both the angle-error median (Fig. 10's metric)
//! and the combined scheme's detection rate on the hard large-angle fan
//! (Fig. 11's metric).

use mpdf_core::error::DetectError;
use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
use mpdf_core::scheme::{DetectionScheme, SubcarrierAndPathWeighting};
use mpdf_core::threshold::{static_score_distribution, threshold_for_fp};
use mpdf_geom::vec2::Vec2;
use mpdf_music::music::{estimate_aoa, AngleGrid, UlaSteering};
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::trajectory::StaticSway;
use mpdf_rfmath::stats::median;
use mpdf_wifi::receiver::{Actor, CsiReceiver, ReceiverConfig};
use mpdf_wifi::{ImpairmentModel, UniformLinearArray};

use crate::metrics::detection_rate;
use crate::scenario::angle_fan_positions;
use crate::workload::{annotate, CampaignConfig};

use super::fig5::wall_adjacent_case;

/// Per-array-size outcome.
#[derive(Debug, Clone)]
pub struct ArrayOutcome {
    /// Number of ULA elements.
    pub elements: usize,
    /// Median angle-estimation error (degrees).
    pub median_angle_error_deg: f64,
    /// Combined-scheme detection rate on the |angle| ≥ 45° fan.
    pub large_angle_tp: f64,
}

/// Result of the array-scaling study.
#[derive(Debug, Clone)]
pub struct ExtArrayResult {
    /// One row per array size.
    pub rows: Vec<ArrayOutcome>,
}

fn receiver_with_elements(
    case: &crate::scenario::LinkCase,
    cfg: &CampaignConfig,
    elements: usize,
    seed: u64,
) -> Result<(CsiReceiver, DetectorConfig), DetectError> {
    let channel = ChannelModel::new(case.environment.clone(), case.tx, case.rx)?;
    let axis = (case.tx - case.rx)
        .normalized()
        .unwrap_or(Vec2::new(1.0, 0.0))
        .perp();
    let band = cfg.detector.band.clone();
    let array = UniformLinearArray::new(elements, band.center_wavelength() / 2.0, axis);
    let mut impairments = ImpairmentModel::commodity_nic().with_snr_db(cfg.snr_db);
    impairments.interference_prob = cfg.interference_prob;
    impairments.interference_power_db = cfg.interference_power_db;
    let rx_cfg = ReceiverConfig {
        band: band.clone(),
        array,
        impairments,
        clutter_drift_rel: cfg.clutter_drift_rel,
        session_gain_drift_db: cfg.session_gain_drift_db,
        ..ReceiverConfig::default()
    };
    let receiver = CsiReceiver::with_config(channel, rx_cfg, seed)?;
    let detector = DetectorConfig {
        band,
        steering: UlaSteering::new(elements, 0.5),
        // More antennas resolve more simultaneous paths.
        num_sources: (elements - 1).min(3),
        ..cfg.detector.clone()
    };
    Ok((receiver, detector))
}

fn study(elements: usize, cfg: &CampaignConfig) -> Result<ArrayOutcome, DetectError> {
    let case = wall_adjacent_case();
    let (mut receiver, detector) = receiver_with_elements(&case, cfg, elements, cfg.seed ^ 0xEA)?;

    // --- Angle errors (Fig. 10 metric) ---
    let steering = UlaSteering::new(elements, 0.5);
    let grid = AngleGrid::full_front(1.0);
    let fan: Vec<f64> = (-4..=4).map(|i| i as f64 * 15.0).collect();
    let mut errors = Vec::new();
    for (_, pos) in angle_fan_positions(&case, 1.2, &fan) {
        let truth = annotate(&case, pos).angle_deg;
        let sway = StaticSway::new(pos, cfg.sway_amplitude.max(0.02));
        let actors = [Actor {
            body: HumanBody::new(pos),
            trajectory: &sway,
        }];
        let window = receiver.capture_actors(&actors, detector.window)?;
        let snaps: Vec<Vec<mpdf_rfmath::Complex64>> = window
            .iter()
            .flat_map(|p| (0..p.subcarriers()).map(|k| p.subcarrier_column(k)))
            .collect();
        if let Ok(angles) = estimate_aoa(&snaps, &steering, detector.num_sources, &grid) {
            if let Some(best) = angles
                .iter()
                .map(|a| (a - truth).abs())
                .min_by(f64::total_cmp)
            {
                errors.push(best);
            }
        }
    }
    let median_angle_error_deg = median(&errors);

    // --- Large-angle detection (Fig. 11 metric) ---
    let calibration = receiver.capture_static(None, cfg.calibration_packets)?;
    let profile = CalibrationProfile::build(&calibration, &detector)?;
    let nulls = static_score_distribution(
        &profile,
        &receiver.capture_sessions(None, detector.window, 10)?,
        &SubcarrierAndPathWeighting,
        &detector,
    )?;
    let thr = threshold_for_fp(&nulls, 0.1);
    let mut scores = Vec::new();
    let big: Vec<f64> = [-75.0, -60.0, -45.0, 45.0, 60.0, 75.0].to_vec();
    for (_, pos) in angle_fan_positions(&case, 1.5, &big) {
        for _ in 0..cfg.episodes_per_position.max(2) {
            receiver.resample_drift();
            let sway = StaticSway::new(pos, cfg.sway_amplitude);
            let actors = [Actor {
                body: HumanBody::new(pos),
                trajectory: &sway,
            }];
            let window = receiver.capture_actors(&actors, detector.window)?;
            scores.push(SubcarrierAndPathWeighting.score(&profile, &window, &detector)?);
        }
    }
    Ok(ArrayOutcome {
        elements,
        median_angle_error_deg,
        // At least two windows per fan position, each scored or an error.
        large_angle_tp: detection_rate(&scores, thr).unwrap_or(0.0),
    })
}

/// Runs the array-scaling study for 3–8 elements.
///
/// # Errors
/// Propagates trace and capture errors for invalid links.
pub fn run(cfg: &CampaignConfig) -> Result<ExtArrayResult, DetectError> {
    Ok(ExtArrayResult {
        rows: [3usize, 4, 6, 8]
            .iter()
            .map(|&n| study(n, cfg))
            .collect::<Result<Vec<_>, _>>()?,
    })
}

/// Renders the report.
pub fn report(r: &ExtArrayResult) -> String {
    let mut out = String::from("Extension (§V-B3) — scaling the receive antenna array\n");
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|o| {
            vec![
                format!("{}", o.elements),
                format!("{:.1}°", o.median_angle_error_deg),
                crate::report::pct(o.large_angle_tp),
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &["elements", "median angle error", "large-angle TP"],
        &rows,
    ));
    out.push_str(
        "paper: with 3 antennas median errors exceed 20°; larger arrays should make\n\
         path weighting more robust — this study quantifies that projection\n",
    );
    out
}
