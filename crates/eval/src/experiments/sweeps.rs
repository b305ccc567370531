//! Shared measurement sweeps used by the Fig. 2/3/4 link-characterization
//! experiments.

use mpdf_core::error::DetectError;
use mpdf_core::multipath_factor::MuScratch;
use mpdf_core::profile::CalibrationProfile;
use mpdf_geom::vec2::{Point, Vec2};
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::trajectory::StaticSway;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::quarantine::{classify, PacketClass};
use mpdf_wifi::receiver::Actor;

use crate::scenario::LinkCase;
use crate::workload::{case_receiver, CampaignConfig};

/// Measurements for one human-presence location.
#[derive(Debug, Clone)]
pub struct LocationSample {
    /// Human position.
    pub position: Point,
    /// Per-subcarrier RSS change `Δs` in dB vs. the static profile.
    pub delta_s_db: Vec<f64>,
    /// Per-subcarrier multipath factor `μ_k` (window mean, measured with
    /// the human present — what the runtime system would see).
    pub mu: Vec<f64>,
}

/// Deterministic low-discrepancy point inside a rectangle band around the
/// link: positions both on and near the LOS, as in the paper's 500-location
/// sweep (§III-A).
fn location(case: &LinkCase, i: usize) -> Point {
    // Halton-like sequence in 2-D.
    fn radical_inverse(base: u64, mut n: u64) -> f64 {
        let mut inv = 1.0 / base as f64;
        let mut out = 0.0;
        while n > 0 {
            out += (n % base) as f64 * inv;
            n /= base;
            inv /= base as f64;
        }
        out
    }
    let u = radical_inverse(2, i as u64 + 1);
    let v = radical_inverse(3, i as u64 + 1);
    let along = (case.rx - case.tx)
        .normalized()
        .unwrap_or(Vec2::new(1.0, 0.0));
    let across = along.perp();
    let mid = case.midpoint();
    let length = case.link_length();
    // Band: the whole link length, ±1.5 m across.
    let p = mid + along * ((u - 0.5) * length) + across * ((v - 0.5) * 3.0);
    let bounds = case.room.shrunk(0.35);
    Point::new(
        p.x.clamp(bounds.min().x, bounds.max().x),
        p.y.clamp(bounds.min().y, bounds.max().y),
    )
}

/// The packets of a capture the quarantine passes as healthy
/// ([`PacketClass::Ok`]), as captured. The link-characterization
/// experiments measure the channel itself, so a packet with a faulted
/// row (non-finite samples, a dead chain) is left out, not repaired; on
/// a fault-free capture every packet passes. Powers and covariances are
/// invariant to the phase calibration of \[26\], and the μ_k estimator
/// ([`mpdf_core::multipath_factor`]) runs it itself.
pub(crate) fn healthy(packets: &[CsiPacket]) -> Vec<CsiPacket> {
    packets
        .iter()
        .filter(|p| matches!(classify(p), PacketClass::Ok))
        .cloned()
        .collect()
}

/// Captures the static profile plus `n_locations` human-presence windows
/// on a link, returning per-location `Δs` (dB) and `μ` vectors. A
/// location whose window has no healthy packet ([`healthy`])
/// is left out.
///
/// # Errors
/// Propagates trace and calibration errors for invalid links.
pub fn location_sweep(
    case: &LinkCase,
    cfg: &CampaignConfig,
    n_locations: usize,
    window: usize,
) -> Result<(CalibrationProfile, Vec<LocationSample>), DetectError> {
    let mut receiver = case_receiver(case, cfg, cfg.seed ^ 0xF1C2)?;
    let detector = &cfg.detector;
    let calibration = receiver.capture_static(None, cfg.calibration_packets)?;
    let profile = CalibrationProfile::build(&calibration, detector)?;
    let subcarriers = detector.band.num_subcarriers();
    let grid = profile.mu_grid(&detector.band);
    let mut scratch = MuScratch::default();
    let mut packet_mu = vec![0.0; subcarriers];

    let samples = (0..n_locations)
        .filter_map(|i| {
            let position = location(case, i);
            let sway = StaticSway::new(position, cfg.sway_amplitude);
            let actors = [Actor {
                body: HumanBody::new(position),
                trajectory: &sway,
            }];
            let packets = match receiver.capture_actors(&actors, window) {
                Ok(packets) => packets,
                Err(e) => return Some(Err(e.into())),
            };
            let kept = healthy(&packets);
            if kept.is_empty() {
                return None;
            }
            let monitored = CsiPacket::median_power_profile(&kept);
            let delta_s_db: Vec<f64> = monitored
                .iter()
                .zip(profile.static_power())
                .map(|(m, s)| {
                    if *m <= f64::MIN_POSITIVE || *s <= f64::MIN_POSITIVE {
                        0.0
                    } else {
                        10.0 * (m / s).log10()
                    }
                })
                .collect();
            // Window-mean μ per subcarrier.
            let mut mu = vec![0.0; subcarriers];
            {
                let _stage = mpdf_obs::stage!("core.mu_k");
                for p in &kept {
                    grid.packet_factors_into(p, &mut scratch, &mut packet_mu);
                    for (slot, v) in mu.iter_mut().zip(&packet_mu) {
                        *slot += v;
                    }
                }
            }
            for v in &mut mu {
                *v /= kept.len() as f64;
            }
            Some(Ok(LocationSample {
                position,
                delta_s_db,
                mu,
            }))
        })
        .collect::<Result<Vec<_>, DetectError>>()?;
    Ok((profile, samples))
}

/// The §III measurement link: the paper's 4 m link in the classroom
/// (case 1).
pub fn measurement_case() -> LinkCase {
    crate::scenario::five_cases().remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locations_are_inside_the_room() {
        let case = measurement_case();
        for i in 0..200 {
            let p = location(&case, i);
            assert!(case.room.contains(p), "location {i}: {p}");
        }
    }

    #[test]
    fn locations_are_diverse() {
        let case = measurement_case();
        let pts: Vec<Point> = (0..50).map(|i| location(&case, i)).collect();
        let mut min_x = f64::MAX;
        let mut max_x = f64::MIN;
        for p in &pts {
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
        }
        assert!(max_x - min_x > 2.0, "x spread {}", max_x - min_x);
    }

    #[test]
    fn sweep_produces_full_vectors() {
        let case = measurement_case();
        let cfg = CampaignConfig {
            calibration_packets: 80,
            ..Default::default()
        };
        let (_, samples) = location_sweep(&case, &cfg, 5, 10).unwrap();
        assert_eq!(samples.len(), 5);
        for s in &samples {
            assert_eq!(s.delta_s_db.len(), 30);
            assert_eq!(s.mu.len(), 30);
            assert!(s.mu.iter().all(|&m| m.is_finite() && m >= 0.0));
        }
    }
}
