//! Property-based tests for the detection core.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use std::f64::consts::PI;

use mpdf_core::linkmodel::TwoPathLink;
use mpdf_core::multipath_factor::{los_power_split, multipath_factors, multipath_factors_row};
use mpdf_core::path_weight::PathWeights;
use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
use mpdf_core::scheme::{Baseline, DetectionScheme, PreparedWindow, SubcarrierWeighting};
use mpdf_core::subcarrier_weight::SubcarrierWeights;
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_music::music::Pseudospectrum;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_propagation::human::HumanBody;
use mpdf_rfmath::complex::Complex64;
use mpdf_wifi::band::Band;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::CsiReceiver;
use proptest::prelude::*;

fn mu_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..5.0, 30), 1..32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- Analytic link model ----

    #[test]
    fn eq3_eq5_eq6_consistency(gamma in 1.05f64..10.0, phi in -3.0f64..3.0, beta in 0.05f64..0.95) {
        let link = TwoPathLink::new(gamma, phi);
        let mu = link.multipath_factor();
        prop_assert!(mu > 0.0 && mu.is_finite());
        let via_phi = link.shadow_sensitivity_db(beta);
        let via_mu = link.shadow_sensitivity_from_mu_db(beta, mu);
        // Eq. 6 is an exact rewrite of Eq. 5 (away from total cancellation).
        prop_assume!(via_phi.is_finite() && via_phi > -60.0);
        prop_assert!((via_phi - via_mu).abs() < 1e-6, "{via_phi} vs {via_mu}");
    }

    #[test]
    fn shadow_sensitivity_recovers_los_only_at_large_gamma(beta in 0.1f64..0.9, phi in -3.0f64..3.0) {
        // γ → ∞ means no reflection: Δs → 20·lg β.
        let link = TwoPathLink::new(1e6, phi);
        let ds = link.shadow_sensitivity_db(beta);
        let los = mpdf_core::linkmodel::los_only_shadow_db(beta);
        prop_assert!((ds - los).abs() < 1e-3, "{ds} vs {los}");
    }

    #[test]
    fn reflection_sensitivity_is_zero_without_new_path(gamma in 1.05f64..10.0, phi in -3.0f64..3.0, phip in -3.0f64..3.0) {
        let link = TwoPathLink::new(gamma, phi);
        prop_assert!(link.reflection_sensitivity_db(0.0, phip).abs() < 1e-12);
    }

    // ---- Multipath factor ----

    #[test]
    fn los_split_sums_to_k_times_input(p in 0.001f64..100.0) {
        let freqs = Band::wifi_2_4ghz_channel11().frequencies();
        let split = los_power_split(p, &freqs);
        let sum: f64 = split.iter().sum();
        prop_assert!((sum - 30.0 * p).abs() < 1e-6 * sum);
        prop_assert!(split.windows(2).all(|w| w[0] > w[1]), "f⁻² must decrease");
    }

    #[test]
    fn mu_row_is_nonnegative_and_scale_free(
        amps in proptest::collection::vec(0.01f64..3.0, 30),
        phases in proptest::collection::vec(-3.1f64..3.1, 30),
        scale in 0.1f64..50.0,
    ) {
        let freqs = Band::wifi_2_4ghz_channel11().frequencies();
        let row: Vec<Complex64> = amps
            .iter()
            .zip(&phases)
            .map(|(&a, &p)| Complex64::from_polar(a, p))
            .collect();
        let scaled: Vec<Complex64> = row.iter().map(|&z| z * scale).collect();
        let m1 = multipath_factors_row(&row, &freqs);
        let m2 = multipath_factors_row(&scaled, &freqs);
        for (a, b) in m1.iter().zip(&m2) {
            prop_assert!(*a >= 0.0 && a.is_finite());
            prop_assert!((a - b).abs() < 1e-6 * a.max(1.0));
        }
    }

    // ---- Subcarrier weighting ----

    #[test]
    fn combined_weights_are_valid(rows in mu_rows()) {
        let w = SubcarrierWeights::from_factors(&rows);
        prop_assert_eq!(w.weights.len(), 30);
        prop_assert!(w.weights.iter().all(|&x| x.is_finite() && x >= 0.0));
        prop_assert!(w.stability.iter().all(|&r| (0.0..=1.0).contains(&r)));
        prop_assert!(w.mean_mu.iter().all(|&m| m >= 0.0));
        // Applying to a zero Δs gives zero.
        let zero = vec![0.0; 30];
        prop_assert!(w.apply(&zero).iter().all(|&d| d == 0.0));
        // Homogeneity: apply(c·Δs) = c·apply(Δs).
        let ds: Vec<f64> = (0..30).map(|i| (i as f64 - 15.0) * 0.3).collect();
        let a = w.apply(&ds);
        let scaled: Vec<f64> = ds.iter().map(|d| d * 2.5).collect();
        let b = w.apply(&scaled);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((2.5 * x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn stability_ratio_reflects_exceedance(rows in mu_rows()) {
        // r_k computed directly must match the struct's.
        let w = SubcarrierWeights::from_factors(&rows);
        for k in 0..30 {
            let count = rows
                .iter()
                .filter(|mus| {
                    let med = mpdf_rfmath::stats::median(mus);
                    mus[k] > med
                })
                .count();
            let expect = count as f64 / rows.len() as f64;
            prop_assert!((w.stability[k] - expect).abs() < 1e-12);
        }
    }

    // ---- Path weighting ----

    #[test]
    fn path_weights_are_gated_and_capped(
        values in proptest::collection::vec(0.001f64..10.0, 181),
    ) {
        let (lo, hi) = (PathWeights::THETA_MIN_DEG, PathWeights::THETA_MAX_DEG);
        let cap = PathWeights::WEIGHT_CAP;
        let angles: Vec<f64> = (-90..=90).map(|a| a as f64).collect();
        let spec = Pseudospectrum::new(angles.clone(), values);
        let w = PathWeights::from_static_spectrum(&spec);
        for (&a, &wt) in angles.iter().zip(w.weights()) {
            if a <= lo || a >= hi {
                prop_assert_eq!(wt, 0.0);
            } else {
                prop_assert!(wt > 0.0 && wt <= cap + 1e-12);
            }
        }
        // Weight ordering is inverse to the (normalized) spectrum inside
        // the gate, up to the cap.
        let norm = spec.normalized();
        for i in 0..angles.len() {
            for j in 0..angles.len() {
                let (wi, wj) = (w.weights()[i], w.weights()[j]);
                if wi > 0.0 && wj > 0.0 && wi < cap - 1e-9 && wj < cap - 1e-9 {
                    let (vi, vj) = (norm.values()[i], norm.values()[j]);
                    if vi < vj {
                        prop_assert!(wi >= wj - 1e-9);
                    }
                }
            }
        }
    }
}

/// A calibration capture and a 25-packet window with a person near the
/// link, from a seeded receiver with default impairments.
fn captures(seed: u64) -> (Vec<CsiPacket>, Vec<CsiPacket>) {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    let mut rx = CsiReceiver::new(link, seed).unwrap();
    let calibration = rx.capture_static(None, 40).unwrap();
    let person = HumanBody::new(Vec2::new(4.4, 3.7));
    let window = rx.capture_static(Some(&person), 25).unwrap();
    (calibration, window)
}

/// Every antenna of packet `n`, subcarrier `k` turned by one common
/// phase `theta(n, k)`.
fn turned(packets: &[CsiPacket], theta: impl Fn(usize, usize) -> f64) -> Vec<CsiPacket> {
    packets
        .iter()
        .enumerate()
        .map(|(n, p)| {
            let data = (0..p.antennas())
                .flat_map(|a| (0..p.subcarriers()).map(move |k| (a, k)))
                .map(|(a, k)| p.get(a, k) * Complex64::cis(theta(n, k)))
                .collect();
            CsiPacket::new(p.antennas(), p.subcarriers(), data, p.seq, p.timestamp)
        })
        .collect()
}

/// `|a − b| ≤ 1e-12·scale`.
fn within(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-12 * scale
}

fn rel_within(a: f64, b: f64) -> bool {
    within(a, b, a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // ---- Phase calibration (the rotor of [26]) ----

    /// A common phase per (packet, subcarrier) — the shape of the rotor
    /// phase calibration applies — moves nothing calibration stores nor
    /// the baseline score, whatever the phases; with the rotor's own
    /// linear-in-index shape on the window it moves the subcarrier score
    /// by rounding only. This is why only μ_k runs the fit.
    #[test]
    fn a_common_phase_per_packet_and_subcarrier_moves_only_rounding(
        seed in 0u64..10_000,
        table in proptest::collection::vec(-PI..PI, 97),
        slope in -0.05f64..0.05,
        intercept in -PI..PI,
    ) {
        let cfg = DetectorConfig::default();
        let (calibration, window) = captures(seed);
        let theta = |n: usize, k: usize| table[(n * 30 + k) % table.len()];
        let indices = cfg.band.indices();
        let linear = |n: usize, k: usize| {
            (slope + 0.003 * n as f64) * f64::from(indices[k]) + intercept + n as f64
        };
        let p0 = CalibrationProfile::build(&calibration, &cfg).unwrap();
        let p1 = CalibrationProfile::build(&turned(&calibration, theta), &cfg).unwrap();
        for (r0, r1) in p0.static_amplitude().iter().zip(p1.static_amplitude()) {
            for (&a, &b) in r0.iter().zip(r1) {
                prop_assert!(rel_within(a, b), "static amplitude {a} vs {b}");
            }
        }
        for (&a, &b) in p0.static_power().iter().zip(p1.static_power()) {
            prop_assert!(rel_within(a, b), "static power {a} vs {b}");
        }
        for (k, (c0, c1)) in p0.static_covariances().iter().zip(p1.static_covariances()).enumerate() {
            let scale = c0.trace().norm();
            for r in 0..c0.rows() {
                for c in 0..c0.cols() {
                    let (x, y) = (c0[(r, c)], c1[(r, c)]);
                    prop_assert!(
                        within(x.re, y.re, scale) && within(x.im, y.im, scale),
                        "static covariance {k} ({r},{c}): {x:?} vs {y:?}"
                    );
                }
            }
        }
        let score = |scheme: &dyn DetectionScheme, profile: &CalibrationProfile, packets: &[CsiPacket]| {
            scheme.score_prepared(&PreparedWindow::new(profile, packets, &cfg)).unwrap().0
        };
        let (a, b) = (score(&Baseline, &p0, &window), score(&Baseline, &p1, &turned(&window, theta)));
        prop_assert!(rel_within(a, b), "baseline score {a} vs {b}");
        let (a, b) = (
            score(&SubcarrierWeighting, &p0, &window),
            score(&SubcarrierWeighting, &p1, &turned(&window, linear)),
        );
        prop_assert!(rel_within(a, b), "subcarrier score {a} vs {b}");
    }

    /// μ_k reads a packet's shape, not its gain or its linear phase: a
    /// common complex gain and an injected slope and intercept move it
    /// by rounding only.
    #[test]
    fn mu_ignores_a_common_gain_and_an_injected_linear_phase(
        seed in 0u64..10_000,
        gain in 0.05f64..20.0,
        turn in -PI..PI,
        slope in -0.05f64..0.05,
        intercept in -PI..PI,
    ) {
        let band = Band::wifi_2_4ghz_channel11();
        let indices = band.indices();
        let (_, window) = captures(seed);
        let packets = &window[..5];
        let scaled: Vec<CsiPacket> = turned(packets, |_, _| turn)
            .iter()
            .map(|p| {
                let data = (0..p.antennas())
                    .flat_map(|a| p.antenna_row(a).iter().map(|&h| h * gain))
                    .collect();
                CsiPacket::new(p.antennas(), p.subcarriers(), data, p.seq, p.timestamp)
            })
            .collect();
        let tilted = turned(packets, |_, k| slope * f64::from(indices[k]) + intercept);
        for (n, p) in packets.iter().enumerate() {
            let want = multipath_factors(p, &band);
            for (what, other) in [("gain", &scaled[n]), ("linear phase", &tilted[n])] {
                for (k, (&a, &b)) in want.iter().zip(&multipath_factors(other, &band)).enumerate() {
                    prop_assert!(rel_within(a, b), "{what}: packet {n}, subcarrier {k}: {a} vs {b}");
                }
            }
        }
    }

    /// The window weights do not depend on packet order: r_k counts
    /// exceedances, so it is exact; μ̄_k and the weights sum in another
    /// order, so they move by rounding only.
    #[test]
    fn window_weights_ignore_packet_order(
        seed in 0u64..10_000,
        keys in proptest::collection::vec(0u64..1_000_000, 25),
    ) {
        let band = Band::wifi_2_4ghz_channel11();
        let (_, window) = captures(seed);
        let mut order: Vec<usize> = (0..window.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let shuffled: Vec<CsiPacket> = order.iter().map(|&i| window[i].clone()).collect();
        let w0 = SubcarrierWeights::from_packets(&window, &band);
        let w1 = SubcarrierWeights::from_packets(&shuffled, &band);
        for k in 0..band.num_subcarriers() {
            prop_assert_eq!(w0.stability[k].to_bits(), w1.stability[k].to_bits());
            prop_assert!(rel_within(w0.mean_mu[k], w1.mean_mu[k]), "μ̄ {k}");
            prop_assert!(rel_within(w0.weights[k], w1.weights[k]), "weight {k}");
        }
    }
}
