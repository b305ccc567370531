//! Property-based tests for the AoA estimation substrate.

use mpdf_music::covariance::{forward_backward, sample_covariance};
use mpdf_music::music::{bartlett_spectrum, pseudospectrum, AngleGrid, UlaSteering};
use mpdf_rfmath::complex::Complex64;
use proptest::prelude::*;

fn snapshots_strategy() -> impl Strategy<Value = Vec<Vec<Complex64>>> {
    proptest::collection::vec(
        proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 3).prop_map(|v| {
            v.into_iter()
                .map(|(re, im)| Complex64::new(re, im))
                .collect()
        }),
        4..32,
    )
}

/// Plane-wave snapshots at a given angle with per-snapshot symbols.
fn plane_wave(theta: f64, n: usize, noise: f64) -> Vec<Vec<Complex64>> {
    let steering = UlaSteering::three_half_wavelength();
    (0..n)
        .map(|i| {
            let sym = Complex64::cis(1.1 * i as f64);
            steering
                .vector(theta)
                .into_iter()
                .enumerate()
                .map(|(m, a)| sym * a + Complex64::cis((i * 13 + m * 7) as f64) * noise)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn covariance_is_hermitian_psd(snaps in snapshots_strategy()) {
        let r = sample_covariance(&snaps).unwrap();
        prop_assert!(r.is_hermitian(1e-9));
        // PSD: quadratic form non-negative on a few probe vectors.
        for probe in 0..3 {
            let v: Vec<Complex64> = (0..3)
                .map(|i| Complex64::cis((probe * 3 + i) as f64 * 0.7))
                .collect();
            prop_assert!(r.quadratic_form(&v).re >= -1e-9);
        }
        // Diagonal equals mean power per element.
        for i in 0..3 {
            let mean_p: f64 = snaps.iter().map(|s| s[i].norm_sqr()).sum::<f64>() / snaps.len() as f64;
            prop_assert!((r[(i, i)].re - mean_p).abs() < 1e-9 * mean_p.max(1.0));
        }
    }

    #[test]
    fn forward_backward_keeps_trace_and_hermitian(snaps in snapshots_strategy()) {
        let r = sample_covariance(&snaps).unwrap();
        let fb = forward_backward(&r);
        prop_assert!(fb.is_hermitian(1e-9));
        prop_assert!((fb.trace().re - r.trace().re).abs() < 1e-9 * r.trace().re.abs().max(1.0));
    }

    #[test]
    fn music_peak_tracks_planted_angle(deg in -65.0f64..65.0) {
        let snaps = plane_wave(deg.to_radians(), 48, 1e-3);
        let r = sample_covariance(&snaps).unwrap();
        let spec = pseudospectrum(
            &r,
            &UlaSteering::three_half_wavelength(),
            1,
            &AngleGrid::full_front(0.5),
        )
        .unwrap();
        let peaks = spec.peaks(1, 0.0);
        prop_assert!(!peaks.is_empty());
        prop_assert!(
            (peaks[0].0 - deg).abs() < 3.0,
            "planted {deg}, found {}",
            peaks[0].0
        );
    }

    #[test]
    fn bartlett_total_matches_signal_power(deg in -60.0f64..60.0) {
        let snaps = plane_wave(deg.to_radians(), 32, 0.0);
        let r = sample_covariance(&snaps).unwrap();
        let steering = UlaSteering::three_half_wavelength();
        let spec = bartlett_spectrum(&r, &steering, &AngleGrid::full_front(1.0)).unwrap();
        // The Bartlett value at the true angle equals (array gain)² ×
        // per-element power = 9 for unit symbols on 3 elements.
        let at_truth = spec.value_at(deg);
        prop_assert!((at_truth - 9.0).abs() < 0.5, "B(truth) = {at_truth}");
        // Values are non-negative everywhere.
        prop_assert!(spec.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn pseudospectrum_is_scale_invariant(deg in -60.0f64..60.0, scale in 0.1f64..100.0) {
        let snaps = plane_wave(deg.to_radians(), 24, 1e-3);
        let scaled: Vec<Vec<Complex64>> = snaps
            .iter()
            .map(|s| s.iter().map(|&z| z * scale).collect())
            .collect();
        let steering = UlaSteering::three_half_wavelength();
        let grid = AngleGrid::full_front(2.0);
        let r1 = sample_covariance(&snaps).unwrap();
        let r2 = sample_covariance(&scaled).unwrap();
        let s1 = pseudospectrum(&r1, &steering, 1, &grid).unwrap().normalized();
        let s2 = pseudospectrum(&r2, &steering, 1, &grid).unwrap().normalized();
        for (a, b) in s1.values().iter().zip(s2.values()) {
            prop_assert!((a - b).abs() < 1e-6 * a.max(1e-9));
        }
    }
}
