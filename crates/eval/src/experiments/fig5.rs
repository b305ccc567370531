//! Fig. 5 — impact of angle-of-arrival on signal strength.
//!
//! (b) The MUSIC pseudospectrum of a wall-adjacent 3 m link resolves two
//! peaks: the LOS and the wall reflection.
//! (c) RSS change for 16 human positions fanned −90°…90° around the
//! receiver: strong changes along the LOS direction plus a notable bump
//! near the reflected path's angle.

use mpdf_core::error::DetectError;
use mpdf_core::profile::CalibrationProfile;
use mpdf_geom::vec2::{Point, Vec2};
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::path::PathKind;
use mpdf_propagation::trajectory::StaticSway;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::Actor;

use crate::scenario::{classroom, classroom_room, LinkCase};
use crate::workload::{annotate, case_receiver, CampaignConfig};

use super::sweeps::healthy;

/// The Fig. 5 scenario: a 3 m link 1 m from the bottom wall, which casts
/// a strong distinct-angle reflection (paper: "placed in the proximity to
/// a concrete wall").
pub fn wall_adjacent_case() -> LinkCase {
    let env = classroom();
    let tx = Point::new(2.5, 1.5);
    let rx = Point::new(5.5, 1.5);
    LinkCase {
        id: 99,
        environment: env,
        tx,
        rx,
        room: classroom_room(),
        grid: vec![],
    }
}

/// Result of Fig. 5b.
#[derive(Debug, Clone)]
pub struct Fig5bResult {
    /// Normalized static pseudospectrum (angle°, value), downsampled.
    pub spectrum: Vec<(f64, f64)>,
    /// Peak angles (degrees), strongest first.
    pub peaks: Vec<f64>,
    /// Ground-truth arrival angles of the strongest paths, from the
    /// simulator (unavailable on a physical testbed).
    pub true_angles: Vec<f64>,
}

/// Runs Fig. 5b: the static pseudospectrum of the wall-adjacent link.
///
/// # Errors
/// Propagates trace and calibration errors for invalid links.
pub fn run_fig5b(cfg: &CampaignConfig) -> Result<Fig5bResult, DetectError> {
    let case = wall_adjacent_case();
    let mut receiver = case_receiver(&case, cfg, cfg.seed ^ 0x5B)?;
    let calibration = receiver.capture_static(None, cfg.calibration_packets)?;
    let profile = CalibrationProfile::build(&calibration, &cfg.detector)?;
    let norm = profile.static_spectrum().normalized();
    let spectrum: Vec<(f64, f64)> = norm
        .angles_deg()
        .iter()
        .zip(norm.values())
        .step_by(5)
        .map(|(&a, &v)| (a, v))
        .collect();
    let peaks = norm.peaks(2, 0.02).into_iter().map(|(a, _)| a).collect();

    // Ground truth from the propagation model: incidence angles of the
    // two strongest paths on the receiver array (broadside faces the TX).
    let channel = ChannelModel::new(case.environment.clone(), case.tx, case.rx)?;
    let snap = channel.snapshot(None)?;
    let broadside = (case.tx - case.rx)
        .normalized()
        .unwrap_or(Vec2::new(1.0, 0.0));
    let mut paths: Vec<(f64, f64)> = snap
        .paths()
        .iter()
        .filter_map(|p| {
            p.arrival_direction().map(|u| {
                // Same convention as the array: sinθ = u·axis, axis ⟂ broadside.
                let axis = broadside.perp();
                let theta = u.dot(axis).clamp(-1.0, 1.0).asin().to_degrees();
                (theta, p.amplitude_factor())
            })
        })
        .collect();
    paths.sort_by(|a, b| b.1.total_cmp(&a.1));
    let true_angles = paths.into_iter().take(2).map(|(a, _)| a).collect();

    Ok(Fig5bResult {
        spectrum,
        peaks,
        true_angles,
    })
}

/// Renders the Fig. 5b report.
pub fn report_fig5b(r: &Fig5bResult) -> String {
    let mut out = String::from("Fig. 5b — MUSIC pseudospectrum, wall-adjacent 3 m link\n");
    out.push_str(&crate::report::series(
        "angle [deg]",
        "Ps (norm.)",
        &r.spectrum,
    ));
    out.push_str(&format!(
        "estimated peaks: {:?} deg; ground-truth strongest arrivals: {:?} deg\n",
        r.peaks
            .iter()
            .map(|a| (a * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
        r.true_angles
            .iter()
            .map(|a| (a * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    out.push_str("paper: two peaks — the LOS and one wall reflection\n");
    out
}

/// Result of Fig. 5c.
#[derive(Debug, Clone)]
pub struct Fig5cResult {
    /// Per-angle mean |Δs| (dB) over subcarriers.
    pub rss_change_by_angle: Vec<(f64, f64)>,
    /// Angle of the maximum response.
    pub peak_angle_deg: f64,
}

/// Runs Fig. 5c: 16 human positions, −90°…90°, 1 m from the receiver.
///
/// # Errors
/// Propagates trace and capture errors for invalid links.
pub fn run_fig5c(cfg: &CampaignConfig) -> Result<Fig5cResult, DetectError> {
    let case = wall_adjacent_case();
    let mut receiver = case_receiver(&case, cfg, cfg.seed ^ 0x5C)?;
    let calibration = receiver.capture_static(None, cfg.calibration_packets)?;
    let static_power = CsiPacket::median_power_profile(&healthy(&calibration));

    let angles: Vec<f64> = (0..16).map(|i| -90.0 + 180.0 * i as f64 / 15.0).collect();
    let positions = crate::scenario::angle_fan_positions(&case, 1.0, &angles);
    let mut series = Vec::with_capacity(positions.len());
    for (angle, pos) in positions {
        let sway = StaticSway::new(pos, cfg.sway_amplitude);
        let actors = [Actor {
            body: HumanBody::new(pos),
            trajectory: &sway,
        }];
        let window = receiver.capture_actors(&actors, cfg.detector.window)?;
        // An angle whose window has no healthy packet has no reading.
        let kept = healthy(&window);
        if kept.is_empty() {
            continue;
        }
        let monitored = CsiPacket::median_power_profile(&kept);
        let mean_abs: f64 = monitored
            .iter()
            .zip(&static_power)
            .map(|(m, s)| {
                if *m <= f64::MIN_POSITIVE || *s <= f64::MIN_POSITIVE {
                    0.0
                } else {
                    (10.0 * (m / s).log10()).abs()
                }
            })
            .sum::<f64>()
            / 30.0;
        let _ = annotate(&case, pos);
        series.push((angle, mean_abs));
    }
    let peak_angle_deg = series
        .iter()
        .cloned()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(a, _)| a)
        .unwrap_or(0.0);
    Ok(Fig5cResult {
        rss_change_by_angle: series,
        peak_angle_deg,
    })
}

/// Renders the Fig. 5c report.
pub fn report_fig5c(r: &Fig5cResult) -> String {
    let mut out = String::from("Fig. 5c — RSS change vs human angle (1 m from receiver)\n");
    out.push_str(&crate::report::series(
        "angle [deg]",
        "mean |Δs| [dB]",
        &r.rss_change_by_angle,
    ));
    out.push_str(&format!(
        "strongest response at {:.1} deg (paper: dramatic changes along the LOS,\n plus a bump near the reflected path's direction)\n",
        r.peak_angle_deg
    ));
    out
}

/// Sanity helper used by tests: does the wall-adjacent link actually have
/// a strong first-order bottom-wall bounce?
pub fn has_wall_reflection() -> bool {
    let case = wall_adjacent_case();
    let Ok(channel) = ChannelModel::new(case.environment, case.tx, case.rx) else {
        return false;
    };
    let Ok(snap) = channel.snapshot(None) else {
        return false;
    };
    snap.paths()
        .iter()
        .any(|p| p.kind() == (PathKind::WallReflection { order: 1 }) && p.amplitude_factor() > 0.2)
}
