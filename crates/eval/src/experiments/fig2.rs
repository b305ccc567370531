//! Fig. 2 — diverse RSS change trends on a multipath link.
//!
//! (a) CDF of per-subcarrier RSS change over 500 human-presence
//! locations on a 4 m link: unlike an idealized LOS link, changes spread
//! over both drops *and* rises.
//! (b) Per-subcarrier RSS over 1000 packets while a person crosses the
//! link: different subcarriers disagree (one mostly drops, another also
//! rises), and trends flip over time.

use mpdf_core::error::DetectError;
use mpdf_geom::vec2::{Point, Vec2};
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::trajectory::LinearWalk;
use mpdf_rfmath::stats::Ecdf;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::Actor;

use crate::workload::{case_receiver, CampaignConfig};

use super::sweeps::{healthy, location_sweep, measurement_case};

/// Result of Fig. 2a.
#[derive(Debug, Clone)]
pub struct Fig2aResult {
    /// CDF of Δs (dB) sampled at 41 points.
    pub cdf: Vec<(f64, f64)>,
    /// Fraction of (location, subcarrier) pairs with an RSS **drop**
    /// beyond −0.5 dB.
    pub drop_fraction: f64,
    /// Fraction with an RSS **rise** beyond +0.5 dB.
    pub rise_fraction: f64,
    /// Key quantiles of Δs (p10, p50, p90).
    pub quantiles: (f64, f64, f64),
}

/// Runs Fig. 2a: 500 human locations on the 4 m classroom link.
///
/// # Errors
/// Propagates trace and calibration errors from the sweep.
pub fn run_fig2a(cfg: &CampaignConfig, locations: usize) -> Result<Fig2aResult, DetectError> {
    let case = measurement_case();
    let (_, samples) = location_sweep(&case, cfg, locations, cfg.detector.window)?;
    let all: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.delta_s_db.iter().copied())
        .collect();
    let ecdf = Ecdf::new(&all);
    let drop_fraction = all.iter().filter(|&&d| d < -0.5).count() as f64 / all.len() as f64;
    let rise_fraction = all.iter().filter(|&&d| d > 0.5).count() as f64 / all.len() as f64;
    Ok(Fig2aResult {
        cdf: ecdf.curve(41),
        drop_fraction,
        rise_fraction,
        quantiles: (ecdf.quantile(0.1), ecdf.quantile(0.5), ecdf.quantile(0.9)),
    })
}

/// Renders the Fig. 2a report.
pub fn report_fig2a(r: &Fig2aResult) -> String {
    let mut out = String::from("Fig. 2a — CDF of subcarrier RSS change over human locations\n");
    out.push_str(&crate::report::series("Δs [dB]", "CDF", &r.cdf));
    out.push_str(&format!(
        "drops < -0.5 dB: {}   rises > +0.5 dB: {}   (paper: both drops and rises occur)\n",
        crate::report::pct(r.drop_fraction),
        crate::report::pct(r.rise_fraction)
    ));
    out.push_str(&format!(
        "Δs quantiles: p10 {:.2} dB, p50 {:.2} dB, p90 {:.2} dB\n",
        r.quantiles.0, r.quantiles.1, r.quantiles.2
    ));
    out
}

/// Result of Fig. 2b.
#[derive(Debug, Clone)]
pub struct Fig2bResult {
    /// Packet-indexed Δs series (dB) for the two showcased subcarriers
    /// (paper: f15 and f25), downsampled.
    pub subcarrier_a: Vec<(f64, f64)>,
    /// Second subcarrier series.
    pub subcarrier_b: Vec<(f64, f64)>,
    /// Index (slot) of the showcased subcarriers.
    pub slots: (usize, usize),
    /// Number of subcarriers whose Δs both rises above +1 dB and falls
    /// below −1 dB during the crossing.
    pub bidirectional_subcarriers: usize,
    /// Total subcarriers.
    pub total_subcarriers: usize,
}

/// Runs Fig. 2b: a person crosses the 4 m link while 1000 packets are
/// captured.
///
/// # Errors
/// Propagates trace and capture errors for invalid links.
pub fn run_fig2b(cfg: &CampaignConfig, packets: usize) -> Result<Fig2bResult, DetectError> {
    let case = measurement_case();
    let mut receiver = case_receiver(&case, cfg, cfg.seed ^ 0xF1B)?;
    let calibration = receiver.capture_static(None, cfg.calibration_packets)?;
    let static_power = CsiPacket::median_power_profile(&healthy(&calibration));

    // Crossing: walk perpendicular through the link midpoint, 4 m wide,
    // for the duration of the capture.
    let mid = case.midpoint();
    let across = (case.rx - case.tx)
        .normalized()
        .unwrap_or(Vec2::new(1.0, 0.0))
        .perp();
    let start = mid + across * 2.0;
    let end = mid - across * 2.0;
    let duration = packets as f64 / 50.0;
    let walk = LinearWalk::new(
        clamp_to_room(&case, start),
        clamp_to_room(&case, end),
        duration,
    );
    let body = HumanBody::new(walk.start);
    let actors = [Actor {
        body,
        trajectory: &walk,
    }];
    let stream = receiver.capture_actors(&actors, packets)?;

    // Per-packet Δs per subcarrier, keyed by packet index; a packet the
    // quarantine does not pass is left out.
    let mut series: Vec<Vec<(usize, f64)>> = (0..30).map(|_| Vec::with_capacity(packets)).collect();
    for (i, p) in stream.iter().enumerate() {
        let Some(q) = healthy(std::slice::from_ref(p)).pop() else {
            continue;
        };
        for (k, slot) in series.iter_mut().enumerate() {
            let power = (0..q.antennas()).map(|a| q.power(a, k)).sum::<f64>() / q.antennas() as f64;
            let ds = if power <= f64::MIN_POSITIVE || static_power[k] <= f64::MIN_POSITIVE {
                0.0
            } else {
                10.0 * (power / static_power[k]).log10()
            };
            slot.push((i, ds));
        }
    }

    // Showcase the two subcarriers with the most distinct behaviours:
    // the one with the deepest drop and the one with the highest rise.
    let min_of = |v: &Vec<(usize, f64)>| v.iter().map(|p| p.1).fold(f64::MAX, f64::min);
    let max_of = |v: &Vec<(usize, f64)>| v.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    let slot_a = (0..30)
        .min_by(|&a, &b| min_of(&series[a]).total_cmp(&min_of(&series[b])))
        .unwrap_or(0);
    let slot_b = (0..30)
        .max_by(|&a, &b| max_of(&series[a]).total_cmp(&max_of(&series[b])))
        .unwrap_or(0);
    let bidirectional = series
        .iter()
        .filter(|v| min_of(v) < -1.0 && max_of(v) > 1.0)
        .count();

    let step = (packets / 40).max(1);
    let down = |slot: usize| {
        series[slot]
            .iter()
            .filter(|(i, _)| i % step == 0)
            .map(|&(i, d)| (i as f64, d))
            .collect()
    };
    Ok(Fig2bResult {
        subcarrier_a: down(slot_a),
        subcarrier_b: down(slot_b),
        slots: (slot_a, slot_b),
        bidirectional_subcarriers: bidirectional,
        total_subcarriers: 30,
    })
}

fn clamp_to_room(case: &crate::scenario::LinkCase, p: Point) -> Point {
    let b = case.room.shrunk(0.35);
    Point::new(
        p.x.clamp(b.min().x, b.max().x),
        p.y.clamp(b.min().y, b.max().y),
    )
}

/// Renders the Fig. 2b report.
pub fn report_fig2b(r: &Fig2bResult) -> String {
    let mut out = String::from("Fig. 2b — per-subcarrier RSS while a person crosses the link\n");
    out.push_str(&format!(
        "showcased slots: {} (deepest drop) and {} (highest rise)\n",
        r.slots.0, r.slots.1
    ));
    out.push_str(&format!("slot {} series:\n", r.slots.0));
    out.push_str(&crate::report::series("packet", "Δs [dB]", &r.subcarrier_a));
    out.push_str(&format!("slot {} series:\n", r.slots.1));
    out.push_str(&crate::report::series("packet", "Δs [dB]", &r.subcarrier_b));
    out.push_str(&format!(
        "subcarriers with both >1 dB rise and >1 dB drop: {}/{} (paper: trends differ and flip)\n",
        r.bidirectional_subcarriers, r.total_subcarriers
    ));
    out
}
