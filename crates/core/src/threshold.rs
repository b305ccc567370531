//! Threshold selection (§IV-C: "determined by the variations of the
//! static profile with respect to certain false positive ... requirements").
//!
//! Scores of held-out *static* windows form an empirical null
//! distribution; the detection threshold is its `(1 − target FP)`
//! quantile. The ROC experiments instead sweep the threshold over the
//! whole score range.

use mpdf_rfmath::stats::Ecdf;
use mpdf_wifi::csi::CsiPacket;

use crate::error::DetectError;
use crate::profile::{CalibrationProfile, DetectorConfig};
use crate::scheme::DetectionScheme;

/// Scores consecutive windows of static packets against the profile —
/// the null-score distribution.
///
/// Windows are non-overlapping chunks of `config.window` packets; a
/// trailing partial window is dropped. A window the scheme abstains on
/// ([`DetectError::is_abstention`]: lost, over the gap budget, or without
/// an aperture) is left out of the distribution and counted on
/// `core.calibration_abstained_windows_total`, as monitoring skips it.
///
/// # Errors
/// [`DetectError::InsufficientCalibration`] when fewer than one full
/// window of packets is supplied or every window abstained (`got` counts
/// the packets of the windows that scored); other scheme errors
/// propagate.
pub fn static_score_distribution<S: DetectionScheme + ?Sized>(
    profile: &CalibrationProfile,
    static_packets: &[CsiPacket],
    scheme: &S,
    config: &DetectorConfig,
) -> Result<Vec<f64>, DetectError> {
    if static_packets.len() < config.window {
        return Err(DetectError::InsufficientCalibration {
            got: static_packets.len(),
            need: config.window,
        });
    }
    let mut scores = Vec::with_capacity(static_packets.len() / config.window);
    for window in static_packets.chunks_exact(config.window) {
        match scheme.score(profile, window, config) {
            Ok(score) => scores.push(score),
            Err(e) if e.is_abstention() => {
                mpdf_obs::counter!("core.calibration_abstained_windows_total").inc();
            }
            Err(e) => return Err(e),
        }
    }
    if scores.is_empty() {
        return Err(DetectError::InsufficientCalibration {
            got: 0,
            need: config.window,
        });
    }
    Ok(scores)
}

/// Threshold achieving approximately the target false-positive rate on
/// the null scores.
///
/// # Panics
/// Panics if `scores` is empty or `target_fp` outside `(0, 1)`.
pub fn threshold_for_fp(scores: &[f64], target_fp: f64) -> f64 {
    assert!(!scores.is_empty(), "need null scores");
    assert!(
        target_fp > 0.0 && target_fp < 1.0,
        "target FP must be in (0, 1)"
    );
    let ecdf = Ecdf::new(scores);
    // Smallest score with F(x) ≥ 1 − fp; nudge up by one ULP so scores
    // equal to the quantile don't fire. A relative nudge `q·(1+ε)` would
    // move a *negative* quantile down instead, letting tied null scores
    // fire and the realized FP exceed the target.
    let q = ecdf.quantile(1.0 - target_fp);
    q.next_up()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Baseline;
    use mpdf_rfmath::complex::Complex64;

    fn packets(n: usize, wiggle: f64) -> Vec<CsiPacket> {
        (0..n)
            .map(|i| {
                let data: Vec<Complex64> = (0..90)
                    .map(|j| {
                        Complex64::from_polar(
                            1.0 + wiggle * ((i * 13 + j) as f64).sin() * 0.01,
                            0.01 * j as f64,
                        )
                    })
                    .collect();
                CsiPacket::new(3, 30, data, i as u64, i as f64 * 0.02)
            })
            .collect()
    }

    #[test]
    fn distribution_has_one_score_per_window() {
        let cfg = DetectorConfig {
            window: 10,
            ..DetectorConfig::default()
        };
        let profile = CalibrationProfile::build(&packets(30, 1.0), &cfg).unwrap();
        let scores =
            static_score_distribution(&profile, &packets(45, 1.0), &Baseline, &cfg).unwrap();
        assert_eq!(scores.len(), 4); // 45/10 = 4 full windows
        assert!(scores.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn too_few_packets_is_an_error() {
        let cfg = DetectorConfig {
            window: 25,
            ..DetectorConfig::default()
        };
        let profile = CalibrationProfile::build(&packets(30, 1.0), &cfg).unwrap();
        let err =
            static_score_distribution(&profile, &packets(10, 1.0), &Baseline, &cfg).unwrap_err();
        assert!(matches!(
            err,
            DetectError::InsufficientCalibration { got: 10, need: 25 }
        ));
    }

    /// Rebuilds `p` with every antenna row overwritten by NaN, so the
    /// quarantine rejects it.
    fn dead(p: &CsiPacket) -> CsiPacket {
        CsiPacket::new(
            3,
            30,
            vec![Complex64::new(f64::NAN, 0.0); 90],
            p.seq,
            p.timestamp,
        )
    }

    #[test]
    fn abstained_windows_are_skipped_not_fatal() {
        let cfg = DetectorConfig {
            window: 10,
            ..DetectorConfig::default()
        };
        let profile = CalibrationProfile::build(&packets(30, 1.0), &cfg).unwrap();
        let mut holdout = packets(40, 1.0);
        // Window 1 loses every packet past the gap budget; the others
        // score as before.
        for p in &mut holdout[10..20] {
            *p = dead(p);
        }
        let clean =
            static_score_distribution(&profile, &packets(40, 1.0), &Baseline, &cfg).unwrap();
        let scores = static_score_distribution(&profile, &holdout, &Baseline, &cfg).unwrap();
        assert_eq!(scores.len(), 3);
        for (kept, want) in scores.iter().zip([clean[0], clean[2], clean[3]]) {
            assert_eq!(kept.to_bits(), want.to_bits());
        }
        // With every window abstaining nothing is left to set a threshold.
        let all_dead: Vec<CsiPacket> = holdout.iter().map(dead).collect();
        let err = static_score_distribution(&profile, &all_dead, &Baseline, &cfg).unwrap_err();
        assert!(matches!(
            err,
            DetectError::InsufficientCalibration { got: 0, need: 10 }
        ));
        // A failure that is not an abstention still propagates.
        let misshapen = vec![CsiPacket::new(2, 30, vec![Complex64::ONE; 60], 0, 0.0); 10];
        let err = static_score_distribution(&profile, &misshapen, &Baseline, &cfg).unwrap_err();
        assert!(matches!(err, DetectError::ShapeMismatch { .. }));
    }

    #[test]
    fn threshold_sits_above_most_null_scores() {
        let scores: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let thr = threshold_for_fp(&scores, 0.05);
        let fired = scores.iter().filter(|&&s| s > thr).count();
        assert_eq!(fired, 5);
    }

    #[test]
    fn negative_null_scores_respect_fp_target() {
        // Regression: with an all-negative null (e.g. log-scale scores) the
        // old relative nudge moved the quantile DOWN, so ties at the
        // quantile fired and the realized FP overshot the target.
        let scores: Vec<f64> = (1..=100).map(|i| -(i as f64)).collect();
        let thr = threshold_for_fp(&scores, 0.05);
        let fired = scores.iter().filter(|&&s| s > thr).count();
        assert!(fired <= 5, "realized FP {fired}/100 exceeds 5% target");

        // Ties exactly at a negative quantile must not fire.
        let tied = vec![-3.0; 40];
        let thr = threshold_for_fp(&tied, 0.1);
        assert!(thr > -3.0);
        assert_eq!(tied.iter().filter(|&&s| s > thr).count(), 0);
    }

    #[test]
    fn zero_variance_null_still_works() {
        let scores = vec![2.0; 50];
        let thr = threshold_for_fp(&scores, 0.1);
        assert!(thr > 2.0);
        assert_eq!(scores.iter().filter(|&&s| s > thr).count(), 0);
    }

    #[test]
    #[should_panic(expected = "target FP")]
    fn silly_fp_panics() {
        threshold_for_fp(&[1.0], 1.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The defining contract: on the very scores used to pick it, the
        /// threshold realizes an empirical FP rate ≤ the target — over
        /// arbitrary distributions including negative, tied and constant
        /// scores.
        #[test]
        fn empirical_fp_never_exceeds_target(
            scores in proptest::collection::vec(-1e6f64..1e6, 1..200),
            target_fp in 0.01f64..0.99,
        ) {
            let thr = threshold_for_fp(&scores, target_fp);
            let fired = scores.iter().filter(|&&s| s > thr).count();
            let allowed = (target_fp * scores.len() as f64).floor() as usize;
            prop_assert!(
                fired <= allowed,
                "{fired}/{} fired, target {target_fp} allows {allowed} (thr {thr})",
                scores.len()
            );
        }

        /// Constant nulls (zero variance) in particular must never fire,
        /// whatever their sign or magnitude.
        #[test]
        fn constant_null_never_fires(
            value in -1e9f64..1e9,
            n in 1usize..100,
            target_fp in 0.01f64..0.99,
        ) {
            let scores = vec![value; n];
            let thr = threshold_for_fp(&scores, target_fp);
            prop_assert!(thr > value, "threshold {thr} not above constant null {value}");
            prop_assert_eq!(scores.iter().filter(|&&s| s > thr).count(), 0);
        }
    }
}
