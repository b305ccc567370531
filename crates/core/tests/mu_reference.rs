//! A straight-line reference for the μ_k estimator (Eq. 9–11) and the
//! subcarrier weights built on it (Eq. 12–15), written from the
//! equations alone — no `MuGrid`, no `TrendAxis`, no
//! `mpdf_wifi::sanitize`, no `median_with` — and differential-tested
//! against production on receiver packets as captured, full arrays and
//! surviving sub-arrays alike.

use mpdf_core::multipath_factor::{multipath_factors, multipath_factors_row, MuGrid, MuScratch};
use mpdf_core::subcarrier_weight::SubcarrierWeights;
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_propagation::human::HumanBody;
use mpdf_rfmath::complex::Complex64;
use mpdf_wifi::band::Band;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::CsiReceiver;

use std::f64::consts::{PI, TAU};

/// Relative agreement the reference must reach.
const TOLERANCE: f64 = 1e-12;

/// Unwraps a phase sequence: each step is brought into `[-π, π]`.
fn unwrap(phases: &[f64]) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::with_capacity(phases.len());
    for &p in phases {
        let next = match out.last() {
            None => p,
            Some(&prev) => {
                let mut q = p;
                while q - prev > PI {
                    q -= TAU;
                }
                while q - prev < -PI {
                    q += TAU;
                }
                q
            }
        };
        out.push(next);
    }
    out
}

/// Ordinary least squares `y = slope·x + intercept`.
fn least_squares(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let slope = sxy / sxx;
    (slope, my - slope * mx)
}

/// μ_k of one packet as captured, step by step from the paper:
/// calibrate the phase (\[26\]), then Eq. 9–11 per antenna, then the
/// antenna mean.
fn reference_mu(packet: &CsiPacket, band: &Band) -> Vec<f64> {
    let k_count = band.num_subcarriers();
    let xs: Vec<f64> = band.indices().iter().map(|&i| f64::from(i)).collect();
    let freqs = band.frequencies();
    // Phase of the antenna sum per subcarrier, unwrapped, fitted.
    let phases: Vec<f64> = (0..k_count)
        .map(|k| {
            (0..packet.antennas())
                .fold(Complex64::ZERO, |acc, a| acc + packet.get(a, k))
                .arg()
        })
        .collect();
    let (slope, intercept) = least_squares(&xs, &unwrap(&phases));
    // Eq. 10's f⁻² split weights, normalized so a flat channel gives 1.
    let inv_sq: Vec<f64> = freqs.iter().map(|f| 1.0 / (f * f)).collect();
    let inv_sq_total: f64 = inv_sq.iter().sum();
    let mut mu = vec![0.0; k_count];
    for a in 0..packet.antennas() {
        let rotated: Vec<Complex64> = (0..k_count)
            .map(|k| packet.get(a, k) * Complex64::cis(-(slope * xs[k] + intercept)))
            .collect();
        // Eq. 9: the dominant tap ĥ(0) is the plain mean of the CFR.
        let h0 = rotated.iter().fold(Complex64::ZERO, |acc, &h| acc + h) / k_count as f64;
        let h0_power = h0.norm_sqr();
        for (k, h) in rotated.iter().enumerate() {
            // Eq. 10: P_L(f_k); Eq. 11: μ_k = P_L(f_k)/|H(f_k)|².
            let los = h0_power * k_count as f64 * inv_sq[k] / inv_sq_total;
            let power = h.norm_sqr();
            if power > f64::MIN_POSITIVE {
                mu[k] += los / power;
            }
        }
    }
    for v in &mut mu {
        *v /= packet.antennas() as f64;
    }
    mu
}

/// Eq. 12–15 over a window, from the reference μ_k: the temporal mean
/// μ̄_k of the factors winsorized at `MU_CLIP`, the stability ratio r_k
/// (the share of packets in which μ_k exceeds that packet's median) and
/// the combined weights `|μ̄_k·r_k / (Σμ̄·Σr)|`. Returns `(μ̄, r, w)`.
fn reference_weights(window: &[CsiPacket], band: &Band) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let k_count = band.num_subcarriers();
    let m = window.len() as f64;
    let mut mean_mu = vec![0.0; k_count];
    let mut stability = vec![0.0; k_count];
    for packet in window {
        let mu = reference_mu(packet, band);
        let mut sorted = mu.clone();
        sorted.sort_by(f64::total_cmp);
        let half = k_count / 2;
        let median = if k_count % 2 == 1 {
            sorted[half]
        } else {
            (sorted[half - 1] + sorted[half]) / 2.0
        };
        for k in 0..k_count {
            mean_mu[k] += mu[k].min(SubcarrierWeights::MU_CLIP) / m;
            if mu[k] > median {
                stability[k] += 1.0 / m;
            }
        }
    }
    let sum_mu: f64 = mean_mu.iter().sum();
    let sum_r: f64 = stability.iter().sum();
    let weights = (0..k_count)
        .map(|k| (mean_mu[k] * stability[k] / (sum_mu * sum_r)).abs())
        .collect();
    (mean_mu, stability, weights)
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= TOLERANCE * got.abs().max(want.abs())
}

/// Packets of a seeded receiver with default impairments: a static
/// scene and one with a person near the link.
fn captured(seed: u64) -> Vec<CsiPacket> {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    let mut rx = CsiReceiver::new(link, seed).unwrap();
    let mut packets = rx.capture_static(None, 12).unwrap();
    let person = HumanBody::new(Vec2::new(4.3, 3.6));
    packets.extend(rx.capture_static(Some(&person), 12).unwrap());
    packets
}

#[test]
fn production_mu_matches_the_straight_line_reference() {
    let band = Band::wifi_2_4ghz_channel11();
    let grid = MuGrid::new(&band);
    let mut scratch = MuScratch::default();
    let mut uncalibrated_differs = false;
    for seed in [3, 41, 977] {
        for full in captured(seed) {
            // The whole array and the sub-arrays a dead chain leaves.
            let packets = [
                full.select_antennas(&[0, 1]),
                full.select_antennas(&[0, 2]),
                full.select_antennas(&[1, 2]),
                full,
            ];
            for packet in &packets {
                let want = reference_mu(packet, &band);
                let mut buffered = vec![0.0; band.num_subcarriers()];
                grid.packet_factors_into(packet, &mut scratch, &mut buffered);
                let direct = multipath_factors(packet, &band);
                for (k, ((&g, &d), &w)) in buffered.iter().zip(&direct).zip(&want).enumerate() {
                    assert!(
                        close(g, w) && close(d, w),
                        "seed {seed}, {} chains, subcarrier {k}: {g} / {d} vs reference {w}",
                        packet.antennas()
                    );
                }
                // The fit matters: on one chain, μ of the raw row (no
                // phase calibration) is a different number.
                let single = packet.select_antennas(&[0]);
                let raw = multipath_factors_row(single.antenna_row(0), &band.frequencies());
                uncalibrated_differs |= raw
                    .iter()
                    .zip(reference_mu(&single, &band))
                    .any(|(&r, w)| (r - w).abs() > 1e-6 * w.abs());
            }
        }
    }
    assert!(
        uncalibrated_differs,
        "the captures carry no phase to calibrate"
    );
}

#[test]
fn production_weights_match_the_straight_line_reference() {
    let band = Band::wifi_2_4ghz_channel11();
    let grid = MuGrid::new(&band);
    let uniform = 1.0 / band.num_subcarriers() as f64;
    for seed in [3, 41, 977] {
        let packets = captured(seed);
        // The static and the occupied half of the capture, each on the
        // whole array and on the sub-arrays a dead chain leaves.
        for window in packets.chunks(12) {
            for chains in [&[0, 1][..], &[0, 2], &[1, 2], &[0, 1, 2]] {
                let window: Vec<CsiPacket> =
                    window.iter().map(|p| p.select_antennas(chains)).collect();
                let got = SubcarrierWeights::from_packets_on(&window, &grid);
                let (mean_mu, stability, weights) = reference_weights(&window, &band);
                for (name, got, want) in [
                    ("μ̄", &got.mean_mu, &mean_mu),
                    ("r", &got.stability, &stability),
                    ("weight", &got.weights, &weights),
                ] {
                    for (k, (&g, &w)) in got.iter().zip(want).enumerate() {
                        assert!(
                            close(g, w),
                            "seed {seed}, chains {chains:?}, {name}_{k}: {g} vs reference {w}"
                        );
                    }
                }
                // Not the degenerate uniform fallback: the weights carry
                // the window's μ and r.
                assert!(
                    weights.iter().any(|w| (w - uniform).abs() > 1e-3 * uniform),
                    "seed {seed}, chains {chains:?}: uniform weights"
                );
            }
        }
    }
}
