//! Property-based tests for the detection core.

use mpdf_core::linkmodel::TwoPathLink;
use mpdf_core::multipath_factor::{los_power_split, multipath_factors_row};
use mpdf_core::path_weight::PathWeights;
use mpdf_core::subcarrier_weight::SubcarrierWeights;
use mpdf_music::music::Pseudospectrum;
use mpdf_rfmath::complex::Complex64;
use mpdf_wifi::band::Band;
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
        lo in -80.0f64..-10.0,
        hi in 10.0f64..80.0,
    ) {
        let angles: Vec<f64> = (-90..=90).map(|a| a as f64).collect();
        let spec = Pseudospectrum::new(angles.clone(), values);
        let w = PathWeights::with_gate_and_cap(&spec, lo, hi, 25.0);
        for (&a, &wt) in angles.iter().zip(w.weights()) {
            if a <= lo || a >= hi {
                prop_assert_eq!(wt, 0.0);
            } else {
                prop_assert!(wt > 0.0 && wt <= 25.0 + 1e-12);
            }
        }
        // Weight ordering is inverse to the (normalized) spectrum inside
        // the gate, up to the cap.
        let norm = spec.normalized();
        for i in 0..angles.len() {
            for j in 0..angles.len() {
                let (wi, wj) = (w.weights()[i], w.weights()[j]);
                if wi > 0.0 && wj > 0.0 && wi < 25.0 - 1e-9 && wj < 25.0 - 1e-9 {
                    let (vi, vj) = (norm.values()[i], norm.values()[j]);
                    if vi < vj {
                        prop_assert!(wi >= wj - 1e-9);
                    }
                }
            }
        }
    }
}
