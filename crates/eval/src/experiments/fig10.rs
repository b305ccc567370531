//! Fig. 10 — angle-of-arrival estimation errors.
//!
//! With only three antennas the median AoA error can exceed 20°; the
//! paper shows that averaging over multiple packets (possible because the
//! person is never perfectly still) moderately reduces errors but heavy
//! tails remain — the cause of path weighting's occasional losses.

use mpdf_music::music::{estimate_aoa, AngleGrid, UlaSteering};
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::trajectory::StaticSway;
use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::stats::Ecdf;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::Actor;

use crate::scenario::angle_fan_positions;
use crate::workload::{annotate, case_receiver, CampaignConfig};

use super::fig5::wall_adjacent_case;
use super::sweeps::healthy;

/// Result of the angle-error experiment.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// CDF of single-packet estimation errors (degrees).
    pub single_packet_cdf: Vec<(f64, f64)>,
    /// CDF of window-averaged estimation errors (degrees).
    pub averaged_cdf: Vec<(f64, f64)>,
    /// Median errors `(single, averaged)`.
    pub medians: (f64, f64),
    /// 90th-percentile errors `(single, averaged)`.
    pub p90: (f64, f64),
}

/// Extracts MUSIC snapshots (subcarrier columns) from packets.
fn snapshots(packets: &[CsiPacket]) -> Vec<Vec<Complex64>> {
    packets
        .iter()
        .flat_map(|q| (0..q.subcarriers()).map(|k| q.subcarrier_column(k)))
        .collect()
}

/// Runs Fig. 10 on the wall-adjacent link: a human at each fan angle
/// scatters toward the receiver; MUSIC estimates the scatter angle from
/// one packet and from a full window; errors are compared against the
/// geometric ground truth.
///
/// # Errors
/// Propagates trace and capture errors for invalid links.
pub fn run(cfg: &CampaignConfig) -> Result<Fig10Result, mpdf_core::error::DetectError> {
    let case = wall_adjacent_case();
    let mut receiver = case_receiver(&case, cfg, cfg.seed ^ 0xA10)?;
    let steering = UlaSteering::three_half_wavelength();
    let grid = AngleGrid::full_front(1.0);

    let fan: Vec<f64> = (-5..=5).map(|i| i as f64 * 12.0).collect();
    let positions = angle_fan_positions(&case, 1.2, &fan);
    let mut single_errors = Vec::new();
    let mut averaged_errors = Vec::new();

    for (_, pos) in positions {
        let truth = annotate(&case, pos).angle_deg;
        let sway = StaticSway::new(pos, cfg.sway_amplitude.max(0.02));
        let actors = [Actor {
            body: HumanBody::new(pos),
            trajectory: &sway,
        }];
        for episode in 0..cfg.episodes_per_position {
            let captured = receiver.capture_actors(&actors, cfg.detector.window)?;
            // Only healthy packets: a faulted row would poison the
            // covariance. A window with none has no estimate.
            let window = healthy(&captured);
            if window.is_empty() {
                continue;
            }
            // MUSIC with 2 sources: the LOS (0°) and the human's scatter.
            // Error = distance from the truth to the *closest* estimate,
            // as the paper matches peaks to paths.
            let err_of = |packets: &[CsiPacket]| -> Option<f64> {
                let snaps = snapshots(packets);
                let angles = estimate_aoa(&snaps, &steering, 2, &grid).ok()?;
                angles
                    .iter()
                    .map(|a| (a - truth).abs())
                    .fold(None, |acc: Option<f64>, e| {
                        Some(acc.map_or(e, |a| a.min(e)))
                    })
            };
            if let Some(e) = err_of(&window[..1]) {
                single_errors.push(e);
            }
            if let Some(e) = err_of(&window) {
                averaged_errors.push(e);
            }
            let _ = episode;
        }
    }

    let single = Ecdf::new(&single_errors);
    let averaged = Ecdf::new(&averaged_errors);
    Ok(Fig10Result {
        single_packet_cdf: single.curve(31),
        averaged_cdf: averaged.curve(31),
        medians: (single.quantile(0.5), averaged.quantile(0.5)),
        p90: (single.quantile(0.9), averaged.quantile(0.9)),
    })
}

/// Renders the report.
pub fn report(r: &Fig10Result) -> String {
    let mut out = String::from("Fig. 10 — angle estimation errors (3-antenna MUSIC)\n");
    out.push_str("single packet:\n");
    out.push_str(&crate::report::series(
        "error [deg]",
        "CDF",
        &r.single_packet_cdf,
    ));
    out.push_str("window averaged:\n");
    out.push_str(&crate::report::series(
        "error [deg]",
        "CDF",
        &r.averaged_cdf,
    ));
    out.push_str(&format!(
        "median error: single {:.1}°, averaged {:.1}°; p90: single {:.1}°, averaged {:.1}°\n",
        r.medians.0, r.medians.1, r.p90.0, r.p90.1
    ));
    out.push_str("paper: median errors can exceed 20°; averaging helps moderately, tails remain\n");
    out
}
