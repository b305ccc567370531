//! Calibration profiles (§IV-C, calibration stage).
//!
//! With no human in the monitored area the receiver collects `N` CSI
//! samples and stores everything the monitoring stage will subtract
//! against:
//!
//! - the per-subcarrier static amplitudes and powers (`s(0)`),
//! - per-subcarrier spatial covariances (so subcarrier weights computed at
//!   monitor time can be applied to the *calibration* side too, using the
//!   linearity argument of §IV-C), from the same estimator the combined
//!   scheme runs on monitored windows,
//! - the static angular pseudospectrum and the path weights derived from
//!   it (Eq. 17).

use mpdf_music::covariance::forward_backward;
use mpdf_music::music::{pseudospectrum, AngleGrid, Pseudospectrum, UlaSteering};
use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::contract;
use mpdf_rfmath::matrix::CMatrix;
use mpdf_wifi::band::Band;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::quarantine::{classify, PacketClass, QuarantinePolicy};
use mpdf_wifi::sanitize::{sanitize_packet_with, SanitizeScratch};

use crate::error::DetectError;
use crate::path_weight::PathWeights;

/// Pipeline configuration shared by calibration and monitoring.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Band plan (frequencies + subcarrier indices).
    pub band: Band,
    /// Steering model of the receive array.
    pub steering: UlaSteering,
    /// Assumed number of resolvable paths for MUSIC (2 with 3 antennas).
    pub num_sources: usize,
    /// Angular scan grid.
    pub grid: AngleGrid,
    /// Path-weight angular gate in degrees (paper: ±60°).
    pub theta_gate_deg: (f64, f64),
    /// Monitoring window length in packets (25 ≈ 0.5 s at 50 pkt/s).
    pub window: usize,
    /// Maximum packets a monitoring window may lose (sequence gaps plus
    /// quarantine rejects) before scoring aborts with
    /// [`DetectError::DegradedBeyondBudget`].
    pub gap_budget: usize,
    /// Per-packet validation policy applied before scoring.
    pub quarantine: QuarantinePolicy,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            band: Band::wifi_2_4ghz_channel11(),
            steering: UlaSteering::three_half_wavelength(),
            num_sources: 2,
            grid: AngleGrid::full_front(1.0),
            theta_gate_deg: (
                PathWeights::DEFAULT_THETA_MIN_DEG,
                PathWeights::DEFAULT_THETA_MAX_DEG,
            ),
            window: 25,
            gap_budget: 5,
            quarantine: QuarantinePolicy::default(),
        }
    }
}

/// The stored no-human baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationProfile {
    antennas: usize,
    subcarriers: usize,
    /// Mean amplitude `|H|` per `[antenna][subcarrier]`.
    static_amplitude: Vec<Vec<f64>>,
    /// Median power per subcarrier, averaged over antennas — `s(0)(f_k)`.
    static_power: Vec<f64>,
    /// Per-subcarrier spatial covariance of the static scene.
    static_covariances: Vec<CMatrix>,
    /// Static angular pseudospectrum (Fig. 5b's no-human curve).
    static_spectrum: Pseudospectrum,
    /// Path weights derived from the static spectrum (Eq. 17).
    path_weights: PathWeights,
}

impl CalibrationProfile {
    /// Builds a profile from calibration packets.
    ///
    /// Packets are sanitized (linear-phase removal per \[26\]) before any
    /// statistics are taken.
    ///
    /// # Errors
    /// - [`DetectError::EmptyWindow`] with no packets,
    /// - [`DetectError::ShapeMismatch`] if packets disagree with the band,
    /// - [`DetectError::Music`] if the static spectrum cannot be computed.
    pub fn build(
        packets: &[CsiPacket],
        config: &DetectorConfig,
    ) -> Result<CalibrationProfile, DetectError> {
        let _stage = mpdf_obs::stage!("core.calibration");
        if packets.is_empty() {
            return Err(DetectError::EmptyWindow);
        }
        let subcarriers = config.band.num_subcarriers();
        let antennas = packets[0].antennas();
        for p in packets {
            if p.subcarriers() != subcarriers || p.antennas() != antennas {
                return Err(DetectError::ShapeMismatch {
                    expected: (antennas, subcarriers),
                    found: (p.antennas(), p.subcarriers()),
                });
            }
        }
        // Calibration must be built from pristine packets only: a NaN row
        // or rail-stuck chain in the baseline would poison every later
        // comparison, so Degraded packets are dropped here, not repaired.
        let kept: Vec<&CsiPacket> = packets
            .iter()
            .filter(|p| {
                let ok = matches!(classify(p, &config.quarantine), PacketClass::Ok);
                if !ok {
                    mpdf_obs::counter!("core.calibration_quarantined_total").inc();
                }
                ok
            })
            .collect();
        if kept.is_empty() {
            return Err(DetectError::EmptyWindow);
        }

        // Sanitize copies (one scratch carried across the capture).
        let indices = config.band.indices();
        let mut scratch = SanitizeScratch::new();
        let sanitized: Vec<CsiPacket> = kept
            .iter()
            .map(|p| {
                let mut q = (*p).clone();
                sanitize_packet_with(&mut scratch, &mut q, indices);
                q
            })
            .collect();

        // Amplitude / power statistics.
        let n = sanitized.len() as f64;
        let mut static_amplitude = vec![vec![0.0; subcarriers]; antennas];
        for p in &sanitized {
            for (a, row) in static_amplitude.iter_mut().enumerate() {
                for (k, slot) in row.iter_mut().enumerate() {
                    *slot += p.get(a, k).norm();
                }
            }
        }
        for row in &mut static_amplitude {
            for v in row.iter_mut() {
                *v /= n;
            }
        }
        // Median, not mean: robust to bursty narrowband interference in the
        // calibration capture.
        let static_power = CsiPacket::median_power_profile(&sanitized);

        // Per-subcarrier covariances and the pooled static spectrum: the
        // estimator the combined scheme runs on monitored windows, so
        // both sides of the §IV-C comparison are the same computation.
        let static_covariances = per_subcarrier_fb_covariances(&sanitized);
        let pooled = pool_covariances(&static_covariances, None);
        let static_spectrum =
            pseudospectrum(&pooled, &config.steering, config.num_sources, &config.grid)?;
        let path_weights = PathWeights::with_gate(
            &static_spectrum,
            config.theta_gate_deg.0,
            config.theta_gate_deg.1,
        );

        Ok(CalibrationProfile {
            antennas,
            subcarriers,
            static_amplitude,
            static_power,
            static_covariances,
            static_spectrum,
            path_weights,
        })
    }

    /// Reassembles a profile from previously stored parts (checkpoint
    /// restore).
    ///
    /// The Eq. 17 path weights are re-derived from the stored spectrum
    /// under `config.theta_gate_deg` — the identical arithmetic
    /// [`CalibrationProfile::build`] runs — so a restored profile compares
    /// equal to the one that was saved.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] if the part shapes disagree with the
    /// declared `(antennas, subcarriers)` geometry.
    pub fn from_parts(
        antennas: usize,
        subcarriers: usize,
        static_amplitude: Vec<Vec<f64>>,
        static_power: Vec<f64>,
        static_covariances: Vec<CMatrix>,
        static_spectrum: Pseudospectrum,
        config: &DetectorConfig,
    ) -> Result<CalibrationProfile, DetectError> {
        if static_amplitude.len() != antennas
            || static_amplitude.iter().any(|row| row.len() != subcarriers)
        {
            return Err(DetectError::InvalidConfig {
                what: format!("static amplitude is not {antennas}x{subcarriers}"),
            });
        }
        if static_power.len() != subcarriers {
            return Err(DetectError::InvalidConfig {
                what: format!(
                    "static power has {} entries, expected {subcarriers}",
                    static_power.len()
                ),
            });
        }
        if static_covariances.len() != subcarriers
            || static_covariances
                .iter()
                .any(|r| r.rows() != antennas || r.cols() != antennas)
        {
            return Err(DetectError::InvalidConfig {
                what: format!("expected {subcarriers} static covariances of {antennas}x{antennas}"),
            });
        }
        let path_weights = PathWeights::with_gate(
            &static_spectrum,
            config.theta_gate_deg.0,
            config.theta_gate_deg.1,
        );
        Ok(CalibrationProfile {
            antennas,
            subcarriers,
            static_amplitude,
            static_power,
            static_covariances,
            static_spectrum,
            path_weights,
        })
    }

    /// Receive-antenna count the profile was built for.
    pub fn antennas(&self) -> usize {
        self.antennas
    }

    /// Subcarrier count the profile was built for.
    pub fn subcarriers(&self) -> usize {
        self.subcarriers
    }

    /// Mean static amplitude per `[antenna][subcarrier]`.
    pub fn static_amplitude(&self) -> &[Vec<f64>] {
        &self.static_amplitude
    }

    /// Median static power per subcarrier (`s(0)`).
    pub fn static_power(&self) -> &[f64] {
        &self.static_power
    }

    /// Per-subcarrier static spatial covariances.
    pub fn static_covariances(&self) -> &[CMatrix] {
        &self.static_covariances
    }

    /// The static angular pseudospectrum.
    pub fn static_spectrum(&self) -> &Pseudospectrum {
        &self.static_spectrum
    }

    /// Path weights of Eq. 17.
    pub fn path_weights(&self) -> &PathWeights {
        &self.path_weights
    }

    /// Pools the stored per-subcarrier covariances under optional
    /// subcarrier weights (uniform when `None`).
    pub fn weighted_static_covariance(&self, weights: Option<&[f64]>) -> CMatrix {
        pool_covariances(&self.static_covariances, weights)
    }
}

/// Pools per-subcarrier covariances with optional weights.
///
/// # Panics
/// Panics if `covs` is empty or weight length mismatches.
pub fn pool_covariances(covs: &[CMatrix], weights: Option<&[f64]>) -> CMatrix {
    assert!(!covs.is_empty(), "no covariances to pool");
    let m = covs[0].rows();
    // In-place accumulation: entries see the identical `a + b` /
    // `a + b.scale(w)` arithmetic the operator formulation ran, without
    // the two temporary matrices it allocated per subcarrier.
    let mut acc = CMatrix::zeros(m, m);
    match weights {
        None => {
            for r in covs {
                acc.add_in_place(r);
            }
            acc.scale_in_place(1.0 / covs.len() as f64);
        }
        Some(w) => {
            assert_eq!(w.len(), covs.len(), "weight length mismatch");
            let total: f64 = w.iter().sum();
            let total = if total.abs() <= f64::MIN_POSITIVE {
                1.0
            } else {
                total
            };
            for (r, &wk) in covs.iter().zip(w) {
                acc.axpy(wk, r);
            }
            acc.scale_in_place(1.0 / total);
        }
    }
    acc
}

/// Per-subcarrier forward–backward covariances of a sanitized window —
/// the one estimator behind both sides of the §IV-C comparison:
/// [`CalibrationProfile::build`] stores its output for the static scene
/// and the combined scheme runs it on every monitored window.
///
/// One pass over the packets rank-1-updates every subcarrier's
/// accumulator, so each packet's CSI is read once in row order instead
/// of one strided column gather per subcarrier. Per subcarrier the
/// update sequence — `+= u_r·conj(u_c)` in packet order from zero, then
/// one `1/N` scale — is the arithmetic
/// [`sample_covariance`](mpdf_music::covariance::sample_covariance) runs
/// on that subcarrier's column snapshots, so every matrix is bitwise
/// `forward_backward(sample_covariance(columns))`.
///
/// # Panics
/// Panics if `window` is empty.
pub(crate) fn per_subcarrier_fb_covariances(window: &[CsiPacket]) -> Vec<CMatrix> {
    let _stage = mpdf_obs::stage!("music.covariance");
    let dim = window[0].antennas();
    let subcarriers = window[0].subcarriers();
    let scale = 1.0 / window.len() as f64;
    let finish = |mut r: CMatrix| {
        r.scale_in_place(scale);
        contract::assert_hermitian("sample covariance", &r, 1e-9 * (1.0 + r.trace().norm()));
        forward_backward(&r)
    };
    if dim == 3 {
        // The paper's 3-chain array: fixed-size accumulators stay in
        // registers across the packet loop instead of streaming a 30×9
        // accumulator table through cache per packet.
        let rows: Vec<[&[Complex64]; 3]> = window
            .iter()
            .map(|p| [p.antenna_row(0), p.antenna_row(1), p.antenna_row(2)])
            .collect();
        return (0..subcarriers)
            .map(|k| {
                let mut acc = [Complex64::ZERO; 9];
                for r3 in &rows {
                    let u = [r3[0][k], r3[1][k], r3[2][k]];
                    for (r, &ur) in u.iter().enumerate() {
                        for (c, &uc) in u.iter().enumerate() {
                            acc[r * 3 + c] += ur * uc.conj();
                        }
                    }
                }
                finish(CMatrix::from_rows(3, 3, &acc))
            })
            .collect();
    }
    let mut acc = vec![Complex64::ZERO; subcarriers * dim * dim];
    let mut cols = vec![Complex64::ZERO; subcarriers * dim];
    for p in window {
        // Transpose the packet to column-major once: columns become
        // contiguous `dim`-element snapshots.
        for r in 0..dim {
            for (k, &h) in p.antenna_row(r).iter().enumerate() {
                cols[k * dim + r] = h;
            }
        }
        for (a, u) in acc.chunks_exact_mut(dim * dim).zip(cols.chunks_exact(dim)) {
            for (row, &ur) in a.chunks_exact_mut(dim).zip(u) {
                for (slot, &uc) in row.iter_mut().zip(u) {
                    *slot += ur * uc.conj();
                }
            }
        }
    }
    acc.chunks_exact(dim * dim)
        .map(|chunk| finish(CMatrix::from_rows(dim, dim, chunk)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_music::covariance::sample_covariance;

    /// A LOS-dominated `antennas`×30 scene with a weak 35° side path and
    /// a touch of deterministic per-packet variation.
    fn array_packets(antennas: usize, n: usize) -> Vec<CsiPacket> {
        let steering = UlaSteering::new(antennas, 0.5);
        (0..n)
            .map(|i| {
                let mut data = Vec::with_capacity(antennas * 30);
                for a in 0..antennas {
                    for k in 0..30 {
                        let los = Complex64::from_polar(1.0, 0.02 * k as f64);
                        let side = steering.vector(35f64.to_radians())[a]
                            * Complex64::from_polar(0.3, 0.3 * k as f64 + i as f64 * 0.01);
                        data.push(los + side);
                    }
                }
                CsiPacket::new(antennas, 30, data, i as u64, i as f64 * 0.02)
            })
            .collect()
    }

    /// The batch reference: `forward_backward(sample_covariance(columns))`
    /// of each subcarrier's column snapshots.
    fn batch_reference(window: &[CsiPacket]) -> Vec<CMatrix> {
        (0..window[0].subcarriers())
            .map(|k| {
                let columns: Vec<Vec<Complex64>> =
                    window.iter().map(|p| p.subcarrier_column(k)).collect();
                forward_backward(&sample_covariance(&columns).unwrap())
            })
            .collect()
    }

    fn assert_bitwise_eq(got: &[CMatrix], want: &[CMatrix], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: subcarrier count");
        for (k, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.rows(), b.rows(), "{what}: subcarrier {k} order");
            for r in 0..a.rows() {
                for c in 0..a.cols() {
                    assert_eq!(
                        (a[(r, c)].re.to_bits(), a[(r, c)].im.to_bits()),
                        (b[(r, c)].re.to_bits(), b[(r, c)].im.to_bits()),
                        "{what}: subcarrier {k} entry ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn fb_covariances_match_batch_reference_bitwise() {
        // Dim 3 takes the register branch; every other size the general
        // one (ext-array runs 4, 6 and 8 elements).
        for antennas in [2, 3, 4, 6, 8] {
            // Per-packet phase noise so no two snapshots are collinear.
            let window: Vec<CsiPacket> = array_packets(antennas, 25)
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let data = (0..antennas)
                        .flat_map(|a| {
                            (0..30).map(move |k| {
                                p.get(a, k) + Complex64::from_polar(0.1, (i * 7 + a * 3 + k) as f64)
                            })
                        })
                        .collect();
                    CsiPacket::new(antennas, 30, data, i as u64, 0.0)
                })
                .collect();
            let got = per_subcarrier_fb_covariances(&window);
            assert_bitwise_eq(
                &got,
                &batch_reference(&window),
                &format!("{antennas} antennas"),
            );
        }
    }

    #[test]
    fn static_covariances_are_the_batch_reference_of_the_sanitized_capture() {
        for antennas in [3, 4] {
            let cfg = DetectorConfig {
                steering: UlaSteering::new(antennas, 0.5),
                ..DetectorConfig::default()
            };
            let packets = array_packets(antennas, 20);
            let profile = CalibrationProfile::build(&packets, &cfg).unwrap();
            let mut scratch = SanitizeScratch::new();
            let sanitized: Vec<CsiPacket> = packets
                .iter()
                .map(|p| {
                    let mut q = p.clone();
                    sanitize_packet_with(&mut scratch, &mut q, cfg.band.indices());
                    q
                })
                .collect();
            assert_bitwise_eq(
                profile.static_covariances(),
                &batch_reference(&sanitized),
                &format!("{antennas}-antenna calibration"),
            );
        }
    }

    #[test]
    fn build_produces_consistent_shapes() {
        let cfg = DetectorConfig::default();
        let profile = CalibrationProfile::build(&array_packets(3, 20), &cfg).unwrap();
        assert_eq!(profile.antennas(), 3);
        assert_eq!(profile.subcarriers(), 30);
        assert_eq!(profile.static_amplitude().len(), 3);
        assert_eq!(profile.static_power().len(), 30);
        assert_eq!(profile.static_covariances().len(), 30);
        assert_eq!(
            profile.static_spectrum().angles_deg().len(),
            cfg.grid.angles_deg().len()
        );
    }

    #[test]
    fn static_spectrum_resolves_both_paths() {
        let cfg = DetectorConfig::default();
        let profile = CalibrationProfile::build(&array_packets(3, 30), &cfg).unwrap();
        // MUSIC peak *heights* are not power-ordered, but with two sources
        // in the signal subspace both the LOS (0°) and the side path (35°)
        // must appear as peaks — the paper's Fig. 5b structure.
        let peaks = profile.static_spectrum().peaks(2, 0.001);
        assert_eq!(peaks.len(), 2, "peaks: {peaks:?}");
        let mut angles: Vec<f64> = peaks.iter().map(|p| p.0).collect();
        angles.sort_by(f64::total_cmp);
        assert!(angles[0].abs() < 6.0, "LOS peak at {}°", angles[0]);
        assert!(
            (angles[1] - 35.0).abs() < 6.0,
            "side peak at {}°",
            angles[1]
        );
    }

    #[test]
    fn empty_calibration_errors() {
        let cfg = DetectorConfig::default();
        assert_eq!(
            CalibrationProfile::build(&[], &cfg),
            Err(DetectError::EmptyWindow)
        );
    }

    #[test]
    fn shape_mismatch_detected() {
        let cfg = DetectorConfig::default();
        let bad = CsiPacket::new(3, 10, vec![Complex64::ONE; 30], 0, 0.0);
        let err = CalibrationProfile::build(&[bad], &cfg).unwrap_err();
        assert!(matches!(err, DetectError::ShapeMismatch { .. }));
    }

    #[test]
    fn pooled_covariance_weighting() {
        let covs = vec![CMatrix::identity(2), CMatrix::identity(2).scale(3.0)];
        let uniform = pool_covariances(&covs, None);
        assert!((uniform[(0, 0)].re - 2.0).abs() < 1e-12);
        let weighted = pool_covariances(&covs, Some(&[1.0, 0.0]));
        assert!((weighted[(0, 0)].re - 1.0).abs() < 1e-12);
        let weighted2 = pool_covariances(&covs, Some(&[0.25, 0.75]));
        assert!((weighted2[(0, 0)].re - 2.5).abs() < 1e-12);
    }

    #[test]
    fn from_parts_roundtrips_build() {
        let cfg = DetectorConfig::default();
        let p = CalibrationProfile::build(&array_packets(3, 10), &cfg).unwrap();
        let rebuilt = CalibrationProfile::from_parts(
            p.antennas(),
            p.subcarriers(),
            p.static_amplitude().to_vec(),
            p.static_power().to_vec(),
            p.static_covariances().to_vec(),
            p.static_spectrum().clone(),
            &cfg,
        )
        .unwrap();
        assert_eq!(p, rebuilt, "path weights must re-derive identically");
    }

    #[test]
    fn from_parts_rejects_bad_shapes() {
        let cfg = DetectorConfig::default();
        let p = CalibrationProfile::build(&array_packets(3, 10), &cfg).unwrap();
        let err = CalibrationProfile::from_parts(
            p.antennas(),
            p.subcarriers(),
            p.static_amplitude().to_vec(),
            vec![0.0; 3],
            p.static_covariances().to_vec(),
            p.static_spectrum().clone(),
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn profile_is_deterministic() {
        let cfg = DetectorConfig::default();
        let p1 = CalibrationProfile::build(&array_packets(3, 10), &cfg).unwrap();
        let p2 = CalibrationProfile::build(&array_packets(3, 10), &cfg).unwrap();
        assert_eq!(p1, p2);
    }
}
