//! Fig. 4 — temporal stability of the multipath factor.
//!
//! 5000 packets at each of two human-presence locations on a 3 m link.
//! Per-packet `μ_k` vectors show that (a) the maximal-μ subcarrier can
//! move between packets, and (b/c) per-subcarrier stability differs
//! between locations — the motivation for the stability ratio `r_k`
//! (Eq. 13/14).

use mpdf_core::error::DetectError;
use mpdf_core::multipath_factor::multipath_factors;
use mpdf_core::subcarrier_weight::SubcarrierWeights;
use mpdf_geom::vec2::{Point, Vec2};
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::trajectory::StaticSway;
use mpdf_wifi::receiver::Actor;

use crate::scenario::five_cases;
use crate::workload::{case_receiver, CampaignConfig};

use super::sweeps::healthy;

/// Per-location stability measurements.
#[derive(Debug, Clone)]
pub struct LocationStability {
    /// Human position.
    pub position: Point,
    /// Temporal mean of μ per subcarrier.
    pub mean_mu: Vec<f64>,
    /// Temporal standard deviation of μ per subcarrier.
    pub std_mu: Vec<f64>,
    /// Stability ratio `r_k` over the capture (Eq. 13/14).
    pub stability: Vec<f64>,
    /// Fraction of packets whose arg-max μ subcarrier differs from the
    /// capture's modal arg-max (how often the "best" subcarrier moves).
    pub argmax_flip_rate: f64,
}

/// Result of the Fig. 4 experiment.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// The two measured locations.
    pub locations: Vec<LocationStability>,
}

fn measure(
    case_idx: usize,
    position: Point,
    cfg: &CampaignConfig,
    packets: usize,
) -> Result<LocationStability, DetectError> {
    let case = &five_cases()[case_idx];
    let mut receiver = case_receiver(case, cfg, cfg.seed ^ 0x414)?;
    // Warm the static profile (not otherwise used here) so captures run in
    // monitoring conditions.
    let _ = receiver.capture_static(None, cfg.calibration_packets.min(200))?;
    let sway = StaticSway::new(position, cfg.sway_amplitude);
    let actors = [Actor {
        body: HumanBody::new(position),
        trajectory: &sway,
    }];
    let stream = receiver.capture_actors(&actors, packets)?;
    let band = &cfg.detector.band;

    let per_packet: Vec<Vec<f64>> = healthy(&stream)
        .iter()
        .map(|q| multipath_factors(q, band))
        .collect();

    let k = band.num_subcarriers();
    let n = per_packet.len() as f64;
    let mut mean_mu = vec![0.0; k];
    for mus in &per_packet {
        for (s, &m) in mean_mu.iter_mut().zip(mus) {
            *s += m;
        }
    }
    for s in &mut mean_mu {
        *s /= n;
    }
    let mut std_mu = vec![0.0; k];
    for mus in &per_packet {
        for ((s, &m), &mean) in std_mu.iter_mut().zip(mus).zip(&mean_mu) {
            *s += (m - mean) * (m - mean);
        }
    }
    for s in &mut std_mu {
        *s = (*s / n).sqrt();
    }
    let weights = SubcarrierWeights::from_factors(&per_packet);

    // Arg-max flips.
    let argmaxes: Vec<usize> = per_packet
        .iter()
        .map(|mus| {
            mus.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect();
    let mut counts = vec![0usize; k];
    for &a in &argmaxes {
        counts[a] += 1;
    }
    let modal = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let flips = argmaxes.iter().filter(|&&a| a != modal).count();

    Ok(LocationStability {
        position,
        mean_mu,
        std_mu,
        stability: weights.stability,
        argmax_flip_rate: flips as f64 / argmaxes.len() as f64,
    })
}

/// Runs Fig. 4 on the short (3 m) classroom link with two distinct human
/// locations.
///
/// # Errors
/// Propagates trace and capture errors for invalid links.
pub fn run(cfg: &CampaignConfig, packets: usize) -> Result<Fig4Result, DetectError> {
    // Case 3 is the short link. One location near the LOS, one beside it.
    let case = &five_cases()[2];
    let mid = case.midpoint();
    let across = (case.rx - case.tx)
        .normalized()
        .unwrap_or(Vec2::new(1.0, 0.0))
        .perp();
    let loc1 = mid;
    let loc2 = mid + across * (-1.2);
    Ok(Fig4Result {
        locations: vec![
            measure(2, loc1, cfg, packets)?,
            measure(2, Vec2::new(loc2.x, loc2.y), cfg, packets)?,
        ],
    })
}

/// Renders the Fig. 4 report.
pub fn report(r: &Fig4Result) -> String {
    let mut out = String::from("Fig. 4 — temporal stability of the multipath factor\n");
    for (i, loc) in r.locations.iter().enumerate() {
        out.push_str(&format!("\nlocation {} at {}\n", i + 1, loc.position));
        // Top-5 subcarriers by mean μ with their variability.
        let mut order: Vec<usize> = (0..loc.mean_mu.len()).collect();
        order.sort_by(|&a, &b| loc.mean_mu[b].total_cmp(&loc.mean_mu[a]));
        let rows: Vec<Vec<String>> = order
            .iter()
            .take(5)
            .map(|&k| {
                vec![
                    format!("{k}"),
                    format!("{:.3}", loc.mean_mu[k]),
                    format!("{:.3}", loc.std_mu[k]),
                    format!("{:.2}", loc.stability[k]),
                ]
            })
            .collect();
        out.push_str(&crate::report::table(
            &["slot", "mean μ", "std μ", "r_k"],
            &rows,
        ));
        out.push_str(&format!(
            "arg-max μ subcarrier flips in {} of packets\n",
            crate::report::pct(loc.argmax_flip_rate)
        ));
    }
    out.push_str(
        "\npaper: the max-μ subcarrier varies between packets; large-μ subcarriers are\n\
         stable at some locations but fluctuate at others — hence weighting by μ̄_k·r_k\n",
    );
    out
}
