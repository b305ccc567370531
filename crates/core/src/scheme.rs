//! The three evaluated detection schemes (§V-A).
//!
//! 1. [`Baseline`] — Euclidean distance of CSI amplitudes (the
//!    conventional CSI detector the paper compares against).
//! 2. [`SubcarrierWeighting`] — Euclidean distance of
//!    subcarrier-weighted RSS changes (Eq. 15).
//! 3. [`SubcarrierAndPathWeighting`] — Euclidean distance of subcarrier-
//!    and path-weighted angular pseudospectra (§IV-C).
//!
//! Every scheme maps a monitoring window of packets to a scalar score;
//! larger scores mean "more different from the calibration profile".

use std::cell::OnceCell;

use mpdf_music::music::check_bartlett;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::sanitize::{sanitize_packet_with, SanitizeScratch};

use crate::degrade::{assess_window, WindowHealth};
use crate::error::DetectError;
use crate::profile::{pooled_fb_covariance, CalibrationProfile, DetectorConfig};
use crate::subcarrier_weight::SubcarrierWeights;

/// A detection scheme: window of packets → anomaly score.
///
/// Implementations must be deterministic; randomness lives in the
/// measurement layer.
pub trait DetectionScheme {
    /// Short scheme label used in reports.
    fn name(&self) -> &'static str;

    /// Scores a prepared monitoring window against its profile and
    /// reports the window's fault-health. Higher score = more evidence
    /// of human presence. Schemes scoring one [`PreparedWindow`] share
    /// its front end.
    ///
    /// # Errors
    /// [`DetectError`] on empty windows, shape mismatches, angle-
    /// estimation failures, or windows degraded beyond the gap budget.
    fn score_prepared(
        &self,
        prepared: &PreparedWindow<'_>,
    ) -> Result<(f64, WindowHealth), DetectError>;

    /// Scores a monitoring window against the profile and reports the
    /// window's fault-health: [`DetectionScheme::score_prepared`] on a
    /// window prepared for this one call.
    ///
    /// # Errors
    /// Same as [`DetectionScheme::score_prepared`].
    fn score_with_health(
        &self,
        profile: &CalibrationProfile,
        window: &[CsiPacket],
        config: &DetectorConfig,
    ) -> Result<(f64, WindowHealth), DetectError> {
        self.score_prepared(&PreparedWindow::new(profile, window, config))
    }

    /// Scores a monitoring window, discarding the health report.
    ///
    /// # Errors
    /// Same as [`DetectionScheme::score_prepared`].
    fn score(
        &self,
        profile: &CalibrationProfile,
        window: &[CsiPacket],
        config: &DetectorConfig,
    ) -> Result<f64, DetectError> {
        self.score_with_health(profile, window, config)
            .map(|(s, _)| s)
    }
}

/// One monitoring window, scored against one profile under one detector
/// configuration, with the front end every scheme shares.
///
/// The front end — quarantine and validation ([`assess_window`]), then
/// phase sanitization of the survivors — runs the first time a scheme
/// reads the window; the Eq. 12–15 subcarrier weights, which schemes 2
/// and 3 both read (§IV-C reuses scheme 2's weights), the first time a
/// scheme needs them. Every later scheme reuses both, and a front-end
/// error is returned to every scheme that reads the window. The
/// counters `core.sanitize_memo.misses` and `.hits` count the reads that
/// built the front end and the reads that reused it.
///
/// A prepared window caches only what its own inputs determine, so a
/// score from it is bitwise the score of a fresh preparation.
pub struct PreparedWindow<'a> {
    profile: &'a CalibrationProfile,
    window: &'a [CsiPacket],
    config: &'a DetectorConfig,
    front: OnceCell<Result<FrontEnd, DetectError>>,
}

/// The quarantined, sanitized packets of a window, their health, and the
/// window's subcarrier weights once a scheme asked for them.
struct FrontEnd {
    packets: Vec<CsiPacket>,
    health: WindowHealth,
    weights: OnceCell<SubcarrierWeights>,
}

impl<'a> PreparedWindow<'a> {
    /// Wraps a window for scoring; no work happens until a scheme reads
    /// it.
    pub fn new(
        profile: &'a CalibrationProfile,
        window: &'a [CsiPacket],
        config: &'a DetectorConfig,
    ) -> Self {
        PreparedWindow {
            profile,
            window,
            config,
            front: OnceCell::new(),
        }
    }

    /// The window's damage report, running the front end if no scheme
    /// has yet.
    ///
    /// # Errors
    /// The front end's [`assess_window`] error.
    pub fn health(&self) -> Result<&WindowHealth, DetectError> {
        self.front().map(|front| &front.health)
    }

    /// The front end, built on the first read (counted as a miss; every
    /// later read is a hit).
    fn front(&self) -> Result<&FrontEnd, DetectError> {
        if self.front.get().is_some() {
            mpdf_obs::counter!("core.sanitize_memo.hits").inc();
        } else {
            mpdf_obs::counter!("core.sanitize_memo.misses").inc();
        }
        self.front
            .get_or_init(|| {
                let (kept, health) = assess_window(self.profile, self.window, self.config)?;
                let indices = self.config.band.indices();
                let mut scratch = SanitizeScratch::new();
                let packets = kept
                    .into_iter()
                    .map(|mut q| {
                        sanitize_packet_with(&mut scratch, &mut q, indices);
                        q
                    })
                    .collect();
                Ok(FrontEnd {
                    packets,
                    health,
                    weights: OnceCell::new(),
                })
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

impl FrontEnd {
    /// The window's subcarrier weights on `config.band`, computed on
    /// first use (on the profile's μ_k grid when `config.band` is the
    /// band it was calibrated on).
    fn weights(&self, profile: &CalibrationProfile, config: &DetectorConfig) -> &SubcarrierWeights {
        self.weights.get_or_init(|| {
            SubcarrierWeights::from_packets_on(&self.packets, &profile.mu_grid(&config.band))
        })
    }
}

/// Zeroes the weights of clipped subcarriers and rescales the survivors
/// so the total weight mass is preserved (a rail-stuck tone reports a
/// meaningless amplitude change, not a small one).
fn renormalize_clipped(weights: &[f64], clipped: &[bool]) -> Vec<f64> {
    let mut w: Vec<f64> = weights
        .iter()
        .zip(clipped)
        .map(|(&wk, &c)| if c { 0.0 } else { wk })
        .collect();
    let surviving: f64 = w.iter().sum();
    let original: f64 = weights.iter().sum();
    if surviving > f64::MIN_POSITIVE {
        let scale = original / surviving;
        for wk in &mut w {
            *wk *= scale;
        }
    }
    w
}

/// Effective subcarrier weights: untouched on a clean window, clip-
/// renormalized on a degraded one (the zero-fault byte-identity hinges
/// on the clean branch returning the input weights verbatim).
fn effective_weights(weights: &SubcarrierWeights, health: &WindowHealth) -> Vec<f64> {
    if health.clipped_subcarriers.iter().any(|&c| c) {
        renormalize_clipped(&weights.weights, &health.clipped_subcarriers)
    } else {
        weights.weights.clone()
    }
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Scheme 1: Euclidean distance of CSI amplitudes, averaged over antennas
/// for fairness (§V-A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Baseline;

impl DetectionScheme for Baseline {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn score_prepared(
        &self,
        prepared: &PreparedWindow<'_>,
    ) -> Result<(f64, WindowHealth), DetectError> {
        let _stage = mpdf_obs::stage!("core.score.baseline");
        let profile = prepared.profile;
        let front = prepared.front()?;
        let (window, health) = (&front.packets, &front.health);
        let n = window.len() as f64;
        let mut total = 0.0;
        // Row `r` of a (possibly reduced) packet is physical chain `a`.
        for (r, &a) in health.usable_antennas.iter().enumerate() {
            let mut mean_amp = vec![0.0; profile.subcarriers()];
            for p in window {
                for (k, slot) in mean_amp.iter_mut().enumerate() {
                    *slot += p.get(r, k).norm();
                }
            }
            for v in &mut mean_amp {
                *v /= n;
            }
            total += euclidean(&mean_amp, &profile.static_amplitude()[a]);
        }
        Ok((total / health.usable_antennas.len() as f64, health.clone()))
    }
}

/// Ablation comparator: a MAC-layer RSSI detector.
///
/// Conventional device-free systems (paper §VI) use the single wideband
/// RSSI instead of per-subcarrier CSI. This scheme collapses each packet
/// to its total power and scores the |dB change| of the window mean —
/// everything the frequency-diversity schemes exploit is integrated away.
/// Included to quantify how much the CSI granularity itself buys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RssiBaseline;

impl DetectionScheme for RssiBaseline {
    fn name(&self) -> &'static str {
        "rssi-baseline"
    }

    fn score_prepared(
        &self,
        prepared: &PreparedWindow<'_>,
    ) -> Result<(f64, WindowHealth), DetectError> {
        let _stage = mpdf_obs::stage!("core.score.rssi");
        let profile = prepared.profile;
        let front = prepared.front()?;
        let (window, health) = (&front.packets, &front.health);
        let monitored: f64 = window
            .iter()
            .map(mpdf_wifi::CsiPacket::total_power)
            .sum::<f64>()
            / window.len() as f64;
        // Static wideband power from the stored per-subcarrier profile
        // (antenna-mean), scaled back to a packet total over the chains
        // that actually survived.
        let static_total: f64 =
            profile.static_power().iter().sum::<f64>() * health.usable_antennas.len() as f64;
        if static_total <= f64::MIN_POSITIVE || monitored <= f64::MIN_POSITIVE {
            return Ok((0.0, health.clone()));
        }
        Ok((
            (10.0 * (monitored / static_total).log10()).abs(),
            health.clone(),
        ))
    }
}

/// Scheme 2: subcarrier-weighted RSS change (Eq. 12–15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubcarrierWeighting;

impl DetectionScheme for SubcarrierWeighting {
    fn name(&self) -> &'static str {
        "subcarrier-weighting"
    }

    fn score_prepared(
        &self,
        prepared: &PreparedWindow<'_>,
    ) -> Result<(f64, WindowHealth), DetectError> {
        let _stage = mpdf_obs::stage!("core.score.subcarrier");
        let (profile, config) = (prepared.profile, prepared.config);
        let front = prepared.front()?;
        let (window, health) = (&front.packets, &front.health);
        // Δs(f_k): per-subcarrier RSS change in dB (the paper measures
        // link sensitivity in dB throughout §III; the multipath factor
        // predicts *relative* sensitivity, which only the log-domain
        // difference exposes — destructive subcarriers have small
        // absolute power but large dB swings).
        let monitored = CsiPacket::median_power_profile(window);
        let delta: Vec<f64> = monitored
            .iter()
            .zip(profile.static_power())
            .map(|(m, s)| {
                if *s <= f64::MIN_POSITIVE || *m <= f64::MIN_POSITIVE {
                    0.0
                } else {
                    10.0 * (m / s).log10()
                }
            })
            .collect();
        let eff = effective_weights(front.weights(profile, config), health);
        let weighted: Vec<f64> = delta.iter().zip(&eff).map(|(d, w)| w * d).collect();
        Ok((
            weighted.iter().map(|d| d * d).sum::<f64>().sqrt(),
            health.clone(),
        ))
    }
}

/// Scheme 3: subcarrier weighting + path weighting on angular
/// pseudospectra (§IV-C).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubcarrierAndPathWeighting;

impl DetectionScheme for SubcarrierAndPathWeighting {
    fn name(&self) -> &'static str {
        "subcarrier+path-weighting"
    }

    fn score_prepared(
        &self,
        prepared: &PreparedWindow<'_>,
    ) -> Result<(f64, WindowHealth), DetectError> {
        let _stage = mpdf_obs::stage!("core.score.combined");
        let (profile, config) = (prepared.profile, prepared.config);
        let front = prepared.front()?;
        let (window, health) = (&front.packets, &front.health);
        // Angle estimation needs an aperture: with fewer than two
        // surviving chains there is no spatial spectrum to compare.
        if health.usable_antennas.len() < 2 {
            return Err(DetectError::ApertureLost {
                usable: health.usable_antennas.len(),
                needed: 2,
            });
        }
        let eff = effective_weights(front.weights(profile, config), health);

        // MUSIC 3→2 fallback: when a chain dropped for the whole window,
        // both sides of the comparison shrink to the surviving sub-array
        // — the monitored covariance is already reduced, the static side
        // takes the matching principal submatrix, and the steering model
        // collapses to the surviving (still uniform) sub-ULA. The health
        // report carries `widened_uncertainty` for downstream consumers.
        let (steering, static_cov) = if health.widened_uncertainty {
            (
                config.steering.subset(&health.usable_antennas),
                profile
                    .weighted_static_covariance(Some(&eff))
                    .principal_submatrix(&health.usable_antennas),
            )
        } else {
            (
                config.steering,
                profile.weighted_static_covariance(Some(&eff)),
            )
        };

        // Monitored side: subcarrier-weighted covariance (the estimator
        // calibration stored the static side with) → angular *power*
        // spectrum (Bartlett). The MUSIC pseudospectrum is
        // scale-free — fine for finding angles (it defines the path
        // weights at calibration), but the detection distance needs the
        // power-bearing angular profile of the paper's "subcarrier
        // weighted signal strengths".
        let monitored_cov = pooled_fb_covariance(window, &eff);
        // The calibration side is the same subcarrier weights applied to
        // the stored static covariances (the §IV-C linearity argument),
        // reduced to the same antennas, so it has the monitored shape.
        check_bartlett(&monitored_cov, &steering)?;

        // Per-angle RSS change in dB inside the ±60° gate. The gate-mean
        // is removed first: a flat dB offset is session gain drift (TX
        // power control / AGC reference), not human presence — humans
        // *redistribute* angular power. The residual is boosted by the
        // Eq. 17 path weights and collapsed by the RMS norm. Only grid
        // points with a positive path weight enter the score, so only
        // those are scanned; Bartlett powers are clamped at 0 (a
        // Hermitian `R` only goes negative by round-off).
        let table = profile.steering_table(&steering, &config.grid);
        let path_weights = profile.path_weights().weights();
        let mut gated: Vec<(f64, f64)> = Vec::with_capacity(path_weights.len());
        {
            let _stage = mpdf_obs::stage!("music.scan");
            table.scan(
                [&monitored_cov, &static_cov],
                |i| path_weights.get(i).is_some_and(|w| *w > 0.0),
                |i, [m, s]| {
                    let (m, s) = (m.max(0.0), s.max(0.0));
                    let d = if m <= f64::MIN_POSITIVE || s <= f64::MIN_POSITIVE {
                        0.0
                    } else {
                        10.0 * (m / s).log10()
                    };
                    gated.push((d, path_weights[i]));
                },
            );
        }
        if gated.is_empty() {
            return Ok((0.0, health.clone()));
        }
        let mean = gated.iter().map(|(d, _)| d).sum::<f64>() / gated.len() as f64;
        let sum_sq: f64 = gated
            .iter()
            .map(|(d, w)| {
                let v = w * (d - mean);
                v * v
            })
            .sum();
        Ok(((sum_sq / gated.len() as f64).sqrt(), health.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_music::music::UlaSteering;
    use mpdf_rfmath::complex::Complex64;

    /// Static scene: LOS at 0° plus a weak 35° path.
    fn scene_packets(n: usize, perturb: f64, perturb_angle_deg: f64) -> Vec<CsiPacket> {
        let steering = UlaSteering::three_half_wavelength();
        (0..n)
            .map(|i| {
                let mut data = Vec::with_capacity(90);
                for a in 0..3 {
                    for k in 0..30 {
                        let los = Complex64::from_polar(1.0, 0.02 * k as f64);
                        let side = steering.vector(35f64.to_radians())[a]
                            * Complex64::from_polar(0.3, 0.3 * k as f64);
                        let human = steering.vector(perturb_angle_deg.to_radians())[a]
                            * Complex64::from_polar(perturb, 0.9 * k as f64 + 0.4);
                        data.push(los + side + human);
                    }
                }
                CsiPacket::new(3, 30, data, i as u64, i as f64 * 0.02)
            })
            .collect()
    }

    fn profile_and_config() -> (CalibrationProfile, DetectorConfig) {
        let cfg = DetectorConfig::default();
        let profile = CalibrationProfile::build(&scene_packets(30, 0.0, 0.0), &cfg).unwrap();
        (profile, cfg)
    }

    #[test]
    fn all_schemes_score_zero_ish_on_static_scene() {
        let (profile, cfg) = profile_and_config();
        let window = scene_packets(10, 0.0, 0.0);
        for scheme in [
            &Baseline as &dyn DetectionScheme,
            &RssiBaseline,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ] {
            let s = scheme.score(&profile, &window, &cfg).unwrap();
            assert!(s < 1e-6, "{} static score {s}", scheme.name());
        }
    }

    #[test]
    fn all_schemes_react_to_perturbation() {
        let (profile, cfg) = profile_and_config();
        let calm = scene_packets(10, 0.0, 0.0);
        let busy = scene_packets(10, 0.4, -20.0);
        for scheme in [
            &Baseline as &dyn DetectionScheme,
            &RssiBaseline,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ] {
            let s0 = scheme.score(&profile, &calm, &cfg).unwrap();
            let s1 = scheme.score(&profile, &busy, &cfg).unwrap();
            assert!(
                s1 > 10.0 * s0.max(1e-12),
                "{}: calm {s0} busy {s1}",
                scheme.name()
            );
        }
    }

    #[test]
    fn scores_grow_with_perturbation_strength() {
        let (profile, cfg) = profile_and_config();
        let weak = scene_packets(10, 0.1, -20.0);
        let strong = scene_packets(10, 0.5, -20.0);
        for scheme in [
            &Baseline as &dyn DetectionScheme,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ] {
            let sw = scheme.score(&profile, &weak, &cfg).unwrap();
            let ss = scheme.score(&profile, &strong, &cfg).unwrap();
            assert!(ss > sw, "{}: weak {sw} strong {ss}", scheme.name());
        }
    }

    #[test]
    fn empty_window_is_an_error() {
        let (profile, cfg) = profile_and_config();
        for scheme in [
            &Baseline as &dyn DetectionScheme,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ] {
            assert_eq!(
                scheme.score(&profile, &[], &cfg),
                Err(DetectError::EmptyWindow),
                "{}",
                scheme.name()
            );
        }
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let (profile, cfg) = profile_and_config();
        let bad = CsiPacket::new(2, 30, vec![Complex64::ONE; 60], 0, 0.0);
        let err = Baseline.score(&profile, &[bad], &cfg).unwrap_err();
        assert!(matches!(err, DetectError::ShapeMismatch { .. }));
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Baseline.name(), "baseline");
        assert_eq!(RssiBaseline.name(), "rssi-baseline");
        assert_eq!(SubcarrierWeighting.name(), "subcarrier-weighting");
        assert_eq!(
            SubcarrierAndPathWeighting.name(),
            "subcarrier+path-weighting"
        );
    }

    #[test]
    fn schemes_are_deterministic() {
        let (profile, cfg) = profile_and_config();
        let window = scene_packets(8, 0.3, 10.0);
        for scheme in [
            &Baseline as &dyn DetectionScheme,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ] {
            let a = scheme.score(&profile, &window, &cfg).unwrap();
            let b = scheme.score(&profile, &window, &cfg).unwrap();
            assert_eq!(a, b, "{}", scheme.name());
        }
    }

    /// Rebuilds `p` with antenna `dead`'s row overwritten by NaN.
    fn with_dead_row(p: &CsiPacket, dead: usize) -> CsiPacket {
        let mut data = Vec::with_capacity(p.antennas() * p.subcarriers());
        for a in 0..p.antennas() {
            for k in 0..p.subcarriers() {
                data.push(if a == dead {
                    Complex64::new(f64::NAN, 0.0)
                } else {
                    p.get(a, k)
                });
            }
        }
        CsiPacket::new(p.antennas(), p.subcarriers(), data, p.seq, p.timestamp)
    }

    #[test]
    fn all_schemes_survive_a_dead_antenna_row() {
        let (profile, cfg) = profile_and_config();
        let mut window = scene_packets(10, 0.0, 0.0);
        window[2] = with_dead_row(&window[2], 1);
        for scheme in [
            &Baseline as &dyn DetectionScheme,
            &RssiBaseline,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ] {
            let (s, health) = scheme.score_with_health(&profile, &window, &cfg).unwrap();
            assert!(s.is_finite(), "{} scored {s}", scheme.name());
            assert!(health.degraded, "{}", scheme.name());
            assert!(health.widened_uncertainty, "{}", scheme.name());
            assert_eq!(health.usable_antennas, vec![0, 2], "{}", scheme.name());
        }
    }

    #[test]
    fn two_antenna_fallback_still_separates_calm_from_busy() {
        let (profile, cfg) = profile_and_config();
        let mut calm = scene_packets(10, 0.0, 0.0);
        calm[0] = with_dead_row(&calm[0], 1);
        let mut busy = scene_packets(10, 0.4, -20.0);
        busy[0] = with_dead_row(&busy[0], 1);
        let (s0, h0) = SubcarrierAndPathWeighting
            .score_with_health(&profile, &calm, &cfg)
            .unwrap();
        let (s1, h1) = SubcarrierAndPathWeighting
            .score_with_health(&profile, &busy, &cfg)
            .unwrap();
        assert!(h0.widened_uncertainty && h1.widened_uncertainty);
        assert!(s1 > s0, "calm {s0} busy {s1} on the reduced aperture");
    }

    #[test]
    fn combined_scheme_needs_two_antennas() {
        let (profile, cfg) = profile_and_config();
        let mut window = scene_packets(10, 0.0, 0.0);
        window[1] = with_dead_row(&window[1], 1);
        window[4] = with_dead_row(&window[4], 2);
        // Only chain 0 survives every packet: the amplitude schemes still
        // score, the angular scheme aborts with the typed error.
        let (s, health) = Baseline.score_with_health(&profile, &window, &cfg).unwrap();
        assert!(s.is_finite());
        assert_eq!(health.usable_antennas, vec![0]);
        let err = SubcarrierAndPathWeighting
            .score_with_health(&profile, &window, &cfg)
            .unwrap_err();
        assert_eq!(
            err,
            DetectError::ApertureLost {
                usable: 1,
                needed: 2
            }
        );
        assert!(err.is_abstention());
    }

    #[test]
    fn gap_budget_propagates_through_schemes() {
        let (profile, cfg) = profile_and_config();
        // Keep every third packet of a 30-slot stretch: 20 gaps > budget.
        let sparse: Vec<CsiPacket> = scene_packets(30, 0.0, 0.0).into_iter().step_by(3).collect();
        let err = SubcarrierWeighting
            .score(&profile, &sparse, &cfg)
            .unwrap_err();
        assert_eq!(
            err,
            DetectError::DegradedBeyondBudget {
                lost: 18,
                budget: cfg.gap_budget
            }
        );
    }

    #[test]
    fn combined_on_shared_weights_is_bitwise_combined_on_a_fresh_window() {
        let (profile, cfg) = profile_and_config();
        let window = scene_packets(10, 0.4, -20.0);
        // Subcarrier fills the prepared window's weights; Combined then
        // reads them instead of computing its own.
        let prepared = PreparedWindow::new(&profile, &window, &cfg);
        SubcarrierWeighting.score_prepared(&prepared).unwrap();
        let (shared, shared_health) = SubcarrierAndPathWeighting
            .score_prepared(&prepared)
            .unwrap();
        let (fresh, fresh_health) = SubcarrierAndPathWeighting
            .score_with_health(&profile, &window, &cfg)
            .unwrap();
        assert_eq!(shared.to_bits(), fresh.to_bits());
        assert_eq!(shared_health, fresh_health);
    }

    #[test]
    fn configs_differing_only_in_centre_frequency_score_differently() {
        let (profile, cfg) = profile_and_config();
        let shifted = DetectorConfig {
            band: mpdf_wifi::band::Band::new(
                mpdf_wifi::band::channel_center_hz(1),
                cfg.band.indices().to_vec(),
            ),
            ..cfg.clone()
        };
        assert_ne!(
            cfg.band.center_hz().to_bits(),
            shifted.band.center_hz().to_bits()
        );
        let window = scene_packets(10, 0.4, -20.0);
        // A prepared window borrows its configuration, so the weights of
        // one band can never serve another; they depend on the centre
        // frequency, so the scores differ.
        let first = PreparedWindow::new(&profile, &window, &cfg);
        let second = PreparedWindow::new(&profile, &window, &shifted);
        let (a, _) = SubcarrierWeighting.score_prepared(&first).unwrap();
        let (b, _) = SubcarrierWeighting.score_prepared(&second).unwrap();
        assert_ne!(a.to_bits(), b.to_bits());
        let fresh = SubcarrierWeighting
            .score(&profile, &window, &shifted)
            .unwrap();
        assert_eq!(b.to_bits(), fresh.to_bits());
    }

    /// Score bits and health, or the error, of one scoring.
    fn outcome(
        r: Result<(f64, WindowHealth), DetectError>,
    ) -> Result<(u64, WindowHealth), DetectError> {
        r.map(|(s, h)| (s.to_bits(), h))
    }

    #[test]
    fn score_prepared_is_bitwise_score_with_health_on_every_window_kind() {
        let (profile, cfg) = profile_and_config();
        let clip_cfg = DetectorConfig {
            quarantine: mpdf_wifi::quarantine::QuarantinePolicy {
                saturation_amp: 2.0,
                ..cfg.quarantine
            },
            ..cfg.clone()
        };
        let busy = scene_packets(10, 0.4, -20.0);
        let mut dead_row = busy.clone();
        dead_row[2] = with_dead_row(&dead_row[2], 1);
        let mut clipped = busy.clone();
        let mut data = Vec::with_capacity(90);
        for a in 0..3 {
            for k in 0..30 {
                data.push(if (a, k) == (0, 5) {
                    Complex64::new(2.0, 0.0)
                } else {
                    clipped[3].get(a, k)
                });
            }
        }
        clipped[3] = CsiPacket::new(3, 30, data, clipped[3].seq, clipped[3].timestamp);
        let over_budget: Vec<CsiPacket> =
            scene_packets(30, 0.0, 0.0).into_iter().step_by(3).collect();
        let mismatched = vec![CsiPacket::new(2, 30, vec![Complex64::ONE; 60], 0, 0.0)];
        let cases: [(&str, &[CsiPacket], &DetectorConfig); 6] = [
            ("clean", &busy, &cfg),
            ("dead row", &dead_row, &cfg),
            ("clipped", &clipped, &clip_cfg),
            ("over budget", &over_budget, &cfg),
            ("empty", &[], &cfg),
            ("shape mismatch", &mismatched, &cfg),
        ];
        let schemes = [
            &Baseline as &dyn DetectionScheme,
            &RssiBaseline,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ];
        for (label, window, config) in cases {
            // All four schemes share one preparation, as a replay scores
            // them; each must match a preparation of its own.
            let prepared = PreparedWindow::new(&profile, window, config);
            for scheme in schemes {
                let shared = outcome(scheme.score_prepared(&prepared));
                let fresh = outcome(scheme.score_with_health(&profile, window, config));
                assert_eq!(shared, fresh, "{label}: {}", scheme.name());
            }
        }
        // The windows do reach the paths they are named for.
        let health = |w: &[CsiPacket], c: &DetectorConfig| {
            PreparedWindow::new(&profile, w, c).health().cloned()
        };
        assert!(health(&dead_row, &cfg).unwrap().widened_uncertainty);
        assert!(health(&clipped, &clip_cfg).unwrap().clipped_subcarriers[5]);
        assert!(matches!(
            health(&over_budget, &cfg),
            Err(DetectError::DegradedBeyondBudget { .. })
        ));
        assert_eq!(health(&[], &cfg), Err(DetectError::EmptyWindow));
        assert!(matches!(
            health(&mismatched, &cfg),
            Err(DetectError::ShapeMismatch { .. })
        ));
    }

    /// The combined score by the formulations the kernels replaced, kept
    /// as their reference: weights on a μ_k grid built from the band,
    /// per-subcarrier forward–backward matrices pooled by
    /// `pool_covariances`, and two full Bartlett spectra (plain
    /// `quadratic_form`s on a freshly built steering table) compared
    /// inside the path-weight gate.
    fn combined_oracle(prepared: &PreparedWindow<'_>) -> f64 {
        use crate::profile::{per_subcarrier_fb_covariances, pool_covariances};
        use mpdf_music::music::bartlett_spectrum;
        let (profile, config) = (prepared.profile, prepared.config);
        let front = prepared.front().unwrap();
        let health = &front.health;
        let weights = SubcarrierWeights::from_packets(&front.packets, &config.band.frequencies());
        let eff = effective_weights(&weights, health);
        let (steering, static_cov) = if health.widened_uncertainty {
            (
                config.steering.subset(&health.usable_antennas),
                profile
                    .weighted_static_covariance(Some(&eff))
                    .principal_submatrix(&health.usable_antennas),
            )
        } else {
            (
                config.steering,
                profile.weighted_static_covariance(Some(&eff)),
            )
        };
        let monitored_cov =
            pool_covariances(&per_subcarrier_fb_covariances(&front.packets), Some(&eff));
        let monitored = bartlett_spectrum(&monitored_cov, &steering, &config.grid).unwrap();
        let stat = bartlett_spectrum(&static_cov, &steering, &config.grid).unwrap();
        let raw: Vec<f64> = monitored
            .values()
            .iter()
            .zip(stat.values())
            .map(|(m, s)| {
                if *m <= f64::MIN_POSITIVE || *s <= f64::MIN_POSITIVE {
                    0.0
                } else {
                    10.0 * (m / s).log10()
                }
            })
            .collect();
        let gated: Vec<(f64, f64)> = raw
            .iter()
            .zip(profile.path_weights().weights())
            .filter(|(_, w)| **w > 0.0)
            .map(|(d, w)| (*d, *w))
            .collect();
        if gated.is_empty() {
            return 0.0;
        }
        let mean = gated.iter().map(|(d, _)| d).sum::<f64>() / gated.len() as f64;
        let sum_sq: f64 = gated
            .iter()
            .map(|(d, w)| {
                let v = w * (d - mean);
                v * v
            })
            .sum();
        (sum_sq / gated.len() as f64).sqrt()
    }

    /// `scene_packets` on an `antennas`-element λ/2 array.
    fn array_scene(antennas: usize, n: usize, perturb: f64, angle_deg: f64) -> Vec<CsiPacket> {
        let steering = UlaSteering::new(antennas, 0.5);
        (0..n)
            .map(|i| {
                let mut data = Vec::with_capacity(antennas * 30);
                for a in 0..antennas {
                    for k in 0..30 {
                        let los = Complex64::from_polar(1.0, 0.02 * k as f64);
                        let side = steering.vector(35f64.to_radians())[a]
                            * Complex64::from_polar(0.3, 0.3 * k as f64 + 0.05 * i as f64);
                        let human = steering.vector(angle_deg.to_radians())[a]
                            * Complex64::from_polar(perturb, 0.9 * k as f64 + 0.4);
                        data.push(los + side + human);
                    }
                }
                CsiPacket::new(antennas, 30, data, i as u64, i as f64 * 0.02)
            })
            .collect()
    }

    /// Rebuilds `p` with every sample passed through `f(antenna, tone, h)`.
    fn map_packet(p: &CsiPacket, f: impl Fn(usize, usize, Complex64) -> Complex64) -> CsiPacket {
        let data = (0..p.antennas())
            .flat_map(|a| (0..p.subcarriers()).map(move |k| (a, k)))
            .map(|(a, k)| f(a, k, p.get(a, k)))
            .collect();
        CsiPacket::new(p.antennas(), p.subcarriers(), data, p.seq, p.timestamp)
    }

    #[test]
    fn combined_score_is_bitwise_the_reference_formulation_at_every_chain_count() {
        for antennas in [2, 3, 4, 6, 8] {
            let cfg = DetectorConfig {
                steering: UlaSteering::new(antennas, 0.5),
                num_sources: (antennas - 1).min(2),
                ..DetectorConfig::default()
            };
            let clip_cfg = DetectorConfig {
                quarantine: mpdf_wifi::quarantine::QuarantinePolicy {
                    saturation_amp: 1.6,
                    ..cfg.quarantine
                },
                ..cfg.clone()
            };
            let profile =
                CalibrationProfile::build(&array_scene(antennas, 30, 0.0, 0.0), &cfg).unwrap();
            let calm = array_scene(antennas, 25, 0.0, 0.0);
            let busy = array_scene(antennas, 25, 0.4, -20.0);
            // Widened: the last chain dies in one packet, so the window
            // scores on the surviving (still uniform) sub-array.
            let mut widened = busy.clone();
            widened[3] = with_dead_row(&widened[3], antennas - 1);
            // Clipped: one tone of one packet sits on the rail.
            let mut clipped = busy.clone();
            clipped[7] = map_packet(&clipped[7], |a, k, h| {
                if (a, k) == (0, 11) {
                    Complex64::new(1.6, 0.0)
                } else {
                    h
                }
            });
            // Chaos: two lost packets (within the gap budget), a
            // duplicate, a swapped pair, a NaN chain and an AGC-clipped
            // packet.
            let mut chaos = busy.clone();
            chaos.remove(17);
            chaos.remove(5);
            chaos.insert(9, chaos[8].clone());
            chaos.swap(12, 13);
            chaos[2] = with_dead_row(&chaos[2], antennas - 1);
            chaos[20] = map_packet(&chaos[20], |_, _, h| {
                let amp = h.norm();
                if amp > 1.1 {
                    h * (1.1 / amp)
                } else {
                    h
                }
            });
            // Fleet-style: every packet turned by its own unit phase (the
            // per-packet offset sanitization removes), so no two windows
            // share bits.
            let rotated: Vec<CsiPacket> = array_scene(antennas, 25, 0.25, 40.0)
                .iter()
                .enumerate()
                .map(|(i, p)| map_packet(p, |_, _, h| h * Complex64::cis(0.731 * i as f64 + 0.2)))
                .collect();
            let cases: [(&str, &[CsiPacket], &DetectorConfig); 6] = [
                ("calm", &calm, &cfg),
                ("busy", &busy, &cfg),
                ("widened", &widened, &cfg),
                ("clipped", &clipped, &clip_cfg),
                ("chaos", &chaos, &cfg),
                ("rotated", &rotated, &cfg),
            ];
            for (label, window, config) in cases {
                let prepared = PreparedWindow::new(&profile, window, config);
                let what = format!("{antennas} chains, {label}");
                match SubcarrierAndPathWeighting.score_prepared(&prepared) {
                    Ok((score, _)) => {
                        let reference = combined_oracle(&prepared);
                        assert_eq!(score.to_bits(), reference.to_bits(), "{what}");
                    }
                    // Two chains less a dead one leave no aperture.
                    Err(e) => assert!(
                        antennas == 2 && matches!(label, "widened" | "chaos"),
                        "{what}: {e}"
                    ),
                }
            }
            // The windows reach the paths they are named for.
            let health = |w: &[CsiPacket], c: &DetectorConfig| {
                PreparedWindow::new(&profile, w, c)
                    .health()
                    .cloned()
                    .unwrap()
            };
            assert_eq!(health(&widened, &cfg).usable_antennas.len(), antennas - 1);
            assert!(health(&clipped, &clip_cfg).clipped_subcarriers[11]);
            let chaos_health = health(&chaos, &cfg);
            assert!(
                chaos_health.degraded,
                "{antennas} chains: chaos window not degraded"
            );
            assert_eq!(chaos_health.usable_antennas.len(), antennas - 1);
        }
    }

    #[test]
    fn gated_combined_score_is_bitwise_the_two_spectrum_score() {
        let (profile, cfg) = profile_and_config();
        let mut dead_row = scene_packets(10, 0.4, -20.0);
        dead_row[0] = with_dead_row(&dead_row[0], 1);
        let windows = [
            scene_packets(10, 0.0, 0.0),
            scene_packets(10, 0.1, -20.0),
            scene_packets(10, 0.5, 40.0),
            scene_packets(25, 0.3, 10.0),
            dead_row,
        ];
        for (i, window) in windows.iter().enumerate() {
            let prepared = PreparedWindow::new(&profile, window, &cfg);
            let (gated, _) = SubcarrierAndPathWeighting
                .score_prepared(&prepared)
                .unwrap();
            let reference = combined_oracle(&prepared);
            assert_eq!(gated.to_bits(), reference.to_bits(), "window {i}");
        }
    }

    #[test]
    fn clipped_subcarriers_renormalize_weight_mass() {
        let w = [0.1, 0.2, 0.3, 0.4];
        let clipped = [false, true, false, false];
        let r = renormalize_clipped(&w, &clipped);
        assert_eq!(r[1], 0.0);
        let total: f64 = r.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "mass preserved, got {total}");
        // Survivors keep their relative proportions.
        assert!((r[3] / r[0] - 4.0).abs() < 1e-12);
    }
}
