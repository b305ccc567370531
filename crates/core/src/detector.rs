//! The end-to-end detector: calibrate → monitor → decide (§IV-C).

use mpdf_wifi::csi::CsiPacket;

use crate::error::DetectError;
use crate::profile::{CalibrationProfile, DetectorConfig};
use crate::scheme::DetectionScheme;
use crate::threshold::{static_score_distribution, threshold_for_fp};

/// One monitoring decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The window's anomaly score.
    pub score: f64,
    /// The threshold in effect.
    pub threshold: f64,
    /// `score > threshold`.
    pub detected: bool,
    /// The window was scored under graceful degradation (packets lost,
    /// rejected or antenna-reduced) — trust accordingly.
    pub degraded: bool,
}

/// A calibrated device-free human detector.
#[derive(Debug, Clone)]
pub struct Detector<S> {
    profile: CalibrationProfile,
    scheme: S,
    config: DetectorConfig,
    threshold: f64,
}

impl<S: DetectionScheme> Detector<S> {
    /// Calibrates a detector from no-human packets.
    ///
    /// The first half of `calibration_packets` builds the profile; the
    /// second half is held out to estimate the null-score distribution
    /// from which the threshold at `target_fp` is drawn.
    ///
    /// # Errors
    /// [`DetectError::InsufficientCalibration`] when the held-out half is
    /// shorter than one window or every held-out window abstained, plus
    /// profile/scheme errors.
    ///
    /// # Panics
    /// Panics if `target_fp` is outside `(0, 1)`.
    pub fn calibrate(
        calibration_packets: &[CsiPacket],
        scheme: S,
        config: DetectorConfig,
        target_fp: f64,
    ) -> Result<Self, DetectError> {
        let half = calibration_packets.len() / 2;
        if half == 0 || calibration_packets.len() - half < config.window {
            return Err(DetectError::InsufficientCalibration {
                got: calibration_packets.len(),
                need: 2 * config.window,
            });
        }
        let (train, holdout) = calibration_packets.split_at(half);
        let profile = CalibrationProfile::build(train, &config)?;
        let null_scores = static_score_distribution(&profile, holdout, &scheme, &config)?;
        let threshold = threshold_for_fp(&null_scores, target_fp);
        Ok(Detector {
            profile,
            scheme,
            config,
            threshold,
        })
    }

    /// Builds a detector from a pre-computed profile and explicit
    /// threshold (used by the ROC experiments, which sweep thresholds).
    pub fn from_parts(
        profile: CalibrationProfile,
        scheme: S,
        config: DetectorConfig,
        threshold: f64,
    ) -> Self {
        Detector {
            profile,
            scheme,
            config,
            threshold,
        }
    }

    /// The calibration profile.
    pub fn profile(&self) -> &CalibrationProfile {
        &self.profile
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The decision threshold in effect.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Scores one monitoring window without thresholding.
    ///
    /// # Errors
    /// Propagates scheme errors.
    pub fn score(&self, window: &[CsiPacket]) -> Result<f64, DetectError> {
        self.scheme.score(&self.profile, window, &self.config)
    }

    /// Scores and thresholds one monitoring window.
    ///
    /// # Errors
    /// Propagates scheme errors.
    pub fn decide(&self, window: &[CsiPacket]) -> Result<Decision, DetectError> {
        let (score, health) = self
            .scheme
            .score_with_health(&self.profile, window, &self.config)?;
        let detected = score > self.threshold;
        mpdf_obs::counter!("core.decisions_total").inc();
        if detected {
            mpdf_obs::counter!("core.detections_total").inc();
        }
        Ok(Decision {
            score,
            threshold: self.threshold,
            detected,
            degraded: health.degraded,
        })
    }

    /// Streams decisions over consecutive non-overlapping windows of a
    /// packet capture.
    ///
    /// Contract: only full windows of `config.window` packets are scored.
    /// A trailing partial window (fewer than `config.window` packets left
    /// at the end of the capture) is **dropped, not scored** — a partial
    /// window would see a different noise floor than the threshold was
    /// calibrated for. Each drop is counted on
    /// `core.partial_windows_dropped_total`, and every decision that went
    /// through the graceful-degradation path is counted on
    /// `core.stream_degraded_decisions_total`, so a stream consumer can
    /// audit both losses without re-deriving them.
    ///
    /// # Errors
    /// Propagates scheme errors.
    pub fn decide_stream(&self, packets: &[CsiPacket]) -> Result<Vec<Decision>, DetectError> {
        let chunks = packets.chunks_exact(self.config.window);
        if !chunks.remainder().is_empty() {
            mpdf_obs::counter!("core.partial_windows_dropped_total").inc();
        }
        let decisions: Vec<Decision> = chunks.map(|w| self.decide(w)).collect::<Result<_, _>>()?;
        let degraded = decisions.iter().filter(|d| d.degraded).count();
        if degraded > 0 {
            mpdf_obs::counter!("core.stream_degraded_decisions_total").add(degraded as u64);
        }
        Ok(decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Baseline;
    use mpdf_rfmath::complex::Complex64;

    /// Static packets with mild deterministic jitter; `bump > 0` injects a
    /// disturbance.
    fn packets(n: usize, bump: f64, offset: u64) -> Vec<CsiPacket> {
        (0..n)
            .map(|i| {
                let ii = i as u64 + offset;
                let data: Vec<Complex64> = (0..90)
                    .map(|j| {
                        let jitter = 0.005 * ((ii * 31 + j as u64) as f64).sin();
                        Complex64::from_polar(1.0 + jitter + bump, 0.01 * j as f64)
                    })
                    .collect();
                CsiPacket::new(3, 30, data, ii, ii as f64 * 0.02)
            })
            .collect()
    }

    #[test]
    fn calibrate_and_detect() {
        let cfg = DetectorConfig {
            window: 10,
            ..DetectorConfig::default()
        };
        let det = Detector::calibrate(&packets(80, 0.0, 0), Baseline, cfg, 0.1).unwrap();
        // Static window: no detection.
        let calm = det.decide(&packets(10, 0.0, 1000)).unwrap();
        assert!(
            !calm.detected,
            "static score {} thr {}",
            calm.score, calm.threshold
        );
        // Perturbed window: detection.
        let busy = det.decide(&packets(10, 0.2, 2000)).unwrap();
        assert!(
            busy.detected,
            "busy score {} thr {}",
            busy.score, busy.threshold
        );
        assert!(busy.score > calm.score);
    }

    #[test]
    fn insufficient_calibration_is_rejected() {
        let cfg = DetectorConfig {
            window: 25,
            ..DetectorConfig::default()
        };
        let err = Detector::calibrate(&packets(30, 0.0, 0), Baseline, cfg, 0.1).unwrap_err();
        assert!(matches!(err, DetectError::InsufficientCalibration { .. }));
    }

    #[test]
    fn decide_stream_chunks_correctly() {
        let cfg = DetectorConfig {
            window: 10,
            ..DetectorConfig::default()
        };
        let det = Detector::calibrate(&packets(60, 0.0, 0), Baseline, cfg, 0.1).unwrap();
        let dropped = mpdf_obs::metrics::counter("core.partial_windows_dropped_total");
        let before = dropped.get();
        let decisions = det.decide_stream(&packets(35, 0.0, 500)).unwrap();
        assert_eq!(decisions.len(), 3);
        // The 5-packet trailing remainder is dropped *and counted*.
        assert!(dropped.get() > before, "partial-window drop not counted");
        let exact = det.decide_stream(&packets(30, 0.0, 500)).unwrap();
        assert_eq!(exact.len(), 3);
    }

    #[test]
    fn from_parts_roundtrip() {
        let cfg = DetectorConfig {
            window: 10,
            ..DetectorConfig::default()
        };
        let profile =
            crate::profile::CalibrationProfile::build(&packets(20, 0.0, 0), &cfg).unwrap();
        let det = Detector::from_parts(profile, Baseline, cfg, 1.23);
        assert_eq!(det.threshold(), 1.23);
        assert_eq!(det.config().window, 10);
    }
}
