//! A straight-line reference for the μ_k estimator (Eq. 9–11), the
//! subcarrier weights built on it (Eq. 12–15), the calibration's MUSIC
//! pseudospectrum and path weights (Eq. 16–17) and the combined score's
//! weighted distance (§IV-C), written from the equations alone — no
//! `MuGrid`, no `TrendAxis`, no `mpdf_wifi::sanitize`, no `median_with`,
//! no `SteeringTable`, no `scan` kernel, no const generics — and
//! differential-tested against production on receiver packets as
//! captured, full arrays and surviving sub-arrays alike.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use mpdf_core::multipath_factor::{multipath_factors, multipath_factors_row, MuGrid, MuScratch};
use mpdf_core::path_weight::PathWeights;
use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
use mpdf_core::scheme::{DetectionScheme, SubcarrierAndPathWeighting};
use mpdf_core::subcarrier_weight::SubcarrierWeights;
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_music::music::UlaSteering;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_propagation::human::HumanBody;
use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::eig::hermitian_eig;
use mpdf_rfmath::matrix::CMatrix;
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

/// Relative agreement the Eq. 16–17 reference must reach (the largest
/// difference seen is 5·10⁻⁹, at a MUSIC peak). Looser than
/// [`TOLERANCE`]: the reference sums noise-subspace projections
/// `Σ|eᴴa|²` and pools covariances in its own order, and a peak divides
/// by a near-zero projection, which magnifies the last-bit differences.
const SPECTRUM_TOLERANCE: f64 = 1e-7;

/// Relative agreement of the combined score (the largest difference
/// seen is below 10⁻¹³): Bartlett powers sit far from zero, so nothing
/// magnifies the pooling order.
const SCORE_TOLERANCE: f64 = 1e-10;

/// The chain subsets scored: every 2-chain sub-array a dead chain
/// leaves, then the whole 3-element λ/2 array.
const CHAIN_SETS: [&[usize]; 4] = [&[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]];

/// A square complex matrix as plain rows.
type Matrix = Vec<Vec<Complex64>>;

/// The scan grid of the paper: −90° to 90° in 1° steps.
fn angles_deg() -> Vec<f64> {
    (-90..=90).map(f64::from).collect()
}

/// Response of an `elements`-element ULA with `spacing` wavelengths
/// between elements, centred on the array, at `theta_deg` from
/// broadside: element `m` turns by `−2π·spacing·(m − (M−1)/2)·sin θ`.
fn steering(elements: usize, spacing: f64, theta_deg: f64) -> Vec<Complex64> {
    let mid = (elements as f64 - 1.0) / 2.0;
    (0..elements)
        .map(|m| Complex64::cis(-TAU * spacing * (m as f64 - mid) * theta_deg.to_radians().sin()))
        .collect()
}

/// Forward–backward covariance of subcarrier `k`: `(R + J·R*·J)/2` of
/// the sample covariance `R = (1/N) Σ_n u_n u_nᴴ` over the packets'
/// column snapshots `u_n`.
fn fb_covariance(packets: &[CsiPacket], k: usize) -> Matrix {
    let m = packets[0].antennas();
    let n = packets.len() as f64;
    let mut r = vec![vec![Complex64::ZERO; m]; m];
    for p in packets {
        for (i, row) in r.iter_mut().enumerate() {
            for (j, entry) in row.iter_mut().enumerate() {
                *entry += p.get(i, k) * p.get(j, k).conj();
            }
        }
    }
    (0..m)
        .map(|i| {
            (0..m)
                .map(|j| (r[i][j] + r[m - 1 - i][m - 1 - j].conj()).scale(0.5 / n))
                .collect()
        })
        .collect()
}

/// The subcarrier-weighted pool `Σ_k w_k·FB(R_k) / Σ_k w_k`.
fn pooled_covariance(packets: &[CsiPacket], weights: &[f64]) -> Matrix {
    let m = packets[0].antennas();
    let total: f64 = weights.iter().sum();
    let mut out = vec![vec![Complex64::ZERO; m]; m];
    for (k, &w) in weights.iter().enumerate() {
        let r = fb_covariance(packets, k);
        for i in 0..m {
            for j in 0..m {
                out[i][j] += r[i][j].scale(w / total);
            }
        }
    }
    out
}

/// Eq. 16: the MUSIC pseudospectrum `Ps(θ) = 1 / Σ_{e ∈ E_N} |eᴴa(θ)|²`
/// over the noise subspace `E_N` (the eigenvectors past the `sources`
/// largest eigenvalues), the projection floored at 10⁻¹².
fn music_spectrum(cov: &Matrix, sources: usize, spacing: f64) -> Vec<f64> {
    let m = cov.len();
    let flat: Vec<Complex64> = cov.iter().flatten().copied().collect();
    let eig = hermitian_eig(&CMatrix::from_rows(m, m, &flat), 1e-10).unwrap();
    angles_deg()
        .into_iter()
        .map(|theta| {
            let a = steering(m, spacing, theta);
            let projection: f64 = (sources..m)
                .map(|c| {
                    (0..m)
                        .fold(Complex64::ZERO, |acc, r| {
                            acc + eig.vectors[(r, c)].conj() * a[r]
                        })
                        .norm_sqr()
                })
                .sum();
            1.0 / projection.max(1e-12)
        })
        .collect()
}

/// Eq. 17: `w(θ) = 1/Ps(θ)` on the peak-normalized spectrum strictly
/// inside the gate `(θ_min, θ_max)`, capped, and 0 outside.
fn path_weights(spectrum: &[f64]) -> Vec<f64> {
    let peak = spectrum.iter().copied().fold(f64::MIN_POSITIVE, f64::max);
    angles_deg()
        .into_iter()
        .zip(spectrum)
        .map(|(theta, &ps)| {
            if theta > PathWeights::THETA_MIN_DEG && theta < PathWeights::THETA_MAX_DEG {
                (1.0 / (ps / peak).max(1e-9)).min(PathWeights::WEIGHT_CAP)
            } else {
                0.0
            }
        })
        .collect()
}

/// Bartlett power `aᴴ·R·a`.
fn bartlett(cov: &Matrix, a: &[Complex64]) -> f64 {
    let mut power = Complex64::ZERO;
    for (i, row) in cov.iter().enumerate() {
        for (j, &r) in row.iter().enumerate() {
            power += a[i].conj() * r * a[j];
        }
    }
    power.re
}

/// The combined score of §IV-C: per gated angle, the dB ratio of the
/// Bartlett powers (clamped at 0) of the Eq. 15-weighted monitored and
/// static covariances; the gate mean removed; the path-weighted RMS.
fn combined_score(
    calibration: &[CsiPacket],
    window: &[CsiPacket],
    weights_by_angle: &[f64],
    spacing: f64,
    band: &Band,
) -> f64 {
    let (_, _, weights) = reference_weights(window, band);
    let monitored = pooled_covariance(window, &weights);
    let stored = pooled_covariance(calibration, &weights);
    let m = monitored.len();
    let mut gated = Vec::new();
    for (theta, &w) in angles_deg().into_iter().zip(weights_by_angle) {
        if w <= 0.0 {
            continue;
        }
        let a = steering(m, spacing, theta);
        let (pm, ps) = (
            bartlett(&monitored, &a).max(0.0),
            bartlett(&stored, &a).max(0.0),
        );
        let d = if pm <= f64::MIN_POSITIVE || ps <= f64::MIN_POSITIVE {
            0.0
        } else {
            10.0 * (pm / ps).log10()
        };
        gated.push((d, w));
    }
    let n = gated.len() as f64;
    let mean = gated.iter().map(|(d, _)| d).sum::<f64>() / n;
    let sum_sq: f64 = gated.iter().map(|(d, w)| (w * (d - mean)).powi(2)).sum();
    (sum_sq / n).sqrt()
}

/// A seeded receiver's clean 40-packet calibration capture and a
/// 25-packet window with a person near the link.
fn calibration_and_window(seed: u64) -> (Vec<CsiPacket>, Vec<CsiPacket>) {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    let mut rx = CsiReceiver::new(link, seed).unwrap();
    let calibration = rx.capture_static(None, 40).unwrap();
    let person = HumanBody::new(Vec2::new(4.4, 3.7));
    let window = rx.capture_static(Some(&person), 25).unwrap();
    (calibration, window)
}

/// `chains` of every packet.
fn sub_array(packets: &[CsiPacket], chains: &[usize]) -> Vec<CsiPacket> {
    packets.iter().map(|p| p.select_antennas(chains)).collect()
}

/// The detector configuration of the sub-array `chains` of the paper's
/// array, resolving one path fewer than it has elements (at most 2), and
/// its element spacing in wavelengths.
fn sub_array_config(chains: &[usize]) -> (DetectorConfig, f64) {
    let steering = UlaSteering::three_half_wavelength().subset(chains).unwrap();
    let spacing = steering.spacing_wavelengths();
    let config = DetectorConfig {
        steering,
        num_sources: (chains.len() - 1).min(2),
        ..DetectorConfig::default()
    };
    (config, spacing)
}

fn close_within(got: f64, want: f64, tolerance: f64) -> bool {
    (got - want).abs() <= tolerance * got.abs().max(want.abs())
}

#[test]
fn production_spectrum_and_path_weights_match_the_straight_line_reference() {
    let band = Band::wifi_2_4ghz_channel11();
    let uniform = vec![1.0; band.num_subcarriers()];
    let (mut capped, mut inverted) = (false, false);
    for seed in [3, 41, 977] {
        let (calibration, _) = calibration_and_window(seed);
        for chains in CHAIN_SETS {
            let (config, spacing) = sub_array_config(chains);
            let packets = sub_array(&calibration, chains);
            let profile = CalibrationProfile::build(&packets, &config).unwrap();
            let spectrum = music_spectrum(
                &pooled_covariance(&packets, &uniform),
                config.num_sources,
                spacing,
            );
            let weights = path_weights(&spectrum);
            let got_spectrum = profile.static_spectrum().values();
            let got_weights = profile.path_weights().weights();
            assert_eq!(profile.static_spectrum().angles_deg(), angles_deg());
            for (i, theta) in angles_deg().into_iter().enumerate() {
                assert!(
                    close_within(got_spectrum[i], spectrum[i], SPECTRUM_TOLERANCE),
                    "seed {seed}, chains {chains:?}, Ps({theta}°): {} vs reference {}",
                    got_spectrum[i],
                    spectrum[i]
                );
                assert!(
                    close_within(got_weights[i], weights[i], SPECTRUM_TOLERANCE),
                    "seed {seed}, chains {chains:?}, w({theta}°): {} vs reference {}",
                    got_weights[i],
                    weights[i]
                );
            }
            // The gate shapes the weights: zero outside, positive inside.
            let inside = weights.iter().filter(|&&w| w > 0.0).count();
            assert_eq!(inside, 119, "seed {seed}, chains {chains:?}");
            capped |= weights.contains(&PathWeights::WEIGHT_CAP);
            inverted |= weights
                .iter()
                .any(|&w| w > 0.0 && w < PathWeights::WEIGHT_CAP);
        }
    }
    // The cap and the inversion both shape some of the weights.
    assert!(capped && inverted, "capped {capped}, inverted {inverted}");
}

#[test]
fn production_combined_score_matches_the_straight_line_reference() {
    let band = Band::wifi_2_4ghz_channel11();
    for seed in [3, 41, 977] {
        let (calibration, window) = calibration_and_window(seed);
        for chains in CHAIN_SETS {
            let (config, spacing) = sub_array_config(chains);
            let calibration = sub_array(&calibration, chains);
            let window = sub_array(&window, chains);
            let profile = CalibrationProfile::build(&calibration, &config).unwrap();
            let got = SubcarrierAndPathWeighting
                .score(&profile, &window, &config)
                .unwrap();
            let weights_by_angle = path_weights(&music_spectrum(
                &pooled_covariance(&calibration, &vec![1.0; band.num_subcarriers()]),
                config.num_sources,
                spacing,
            ));
            let want = combined_score(&calibration, &window, &weights_by_angle, spacing, &band);
            assert!(
                want > 1e-3,
                "seed {seed}, chains {chains:?}: the person moves no power ({want})"
            );
            assert!(
                close_within(got, want, SCORE_TOLERANCE),
                "seed {seed}, chains {chains:?}: score {got} vs reference {want}"
            );
        }
    }
}
