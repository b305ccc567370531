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
//!   it (Eq. 17),
//! - the tables every monitored window on the calibration's band and
//!   array reads: the μ_k grid of the band and the steering vectors of
//!   the scan grid.

use std::borrow::{Borrow, Cow};

use mpdf_music::covariance::forward_backward;
use mpdf_music::music::{pseudospectrum_on, AngleGrid, Pseudospectrum, SteeringTable, UlaSteering};
use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::contract;
use mpdf_rfmath::matrix::CMatrix;
use mpdf_wifi::band::Band;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::quarantine::{classify, PacketClass, QuarantinePolicy};

use crate::error::DetectError;
use crate::multipath_factor::MuGrid;
use crate::path_weight::PathWeights;

/// Most receive chains a profile (and the covariance kernel behind both
/// sides of the §IV-C comparison) supports; the arrays here have 2–8.
pub const MAX_CHAINS: usize = 8;

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
    /// The band calibrated on, and its μ_k grid.
    band: Band,
    mu_grid: MuGrid,
    /// Steering vectors of the calibration's array over its scan grid.
    steering_table: SteeringTable,
}

impl CalibrationProfile {
    /// Builds a profile from calibration packets, kept as captured.
    ///
    /// The linear-phase calibration of \[26\] rotates every antenna of a
    /// (packet, subcarrier) by one common phase, which leaves the stored
    /// amplitudes, powers and covariances unchanged; the one quantity it
    /// matters to, μ_k, is formed by the estimator that owns the fit
    /// ([`MuGrid::packet_factors_into`]), so calibration rotates nothing.
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
        check_chains(antennas)?;
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

        // Amplitude / power statistics.
        let n = kept.len() as f64;
        let mut static_amplitude = vec![vec![0.0; subcarriers]; antennas];
        for p in &kept {
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
        let static_power = CsiPacket::median_power_profile(&kept);

        // Per-subcarrier covariances and the pooled static spectrum: the
        // estimator the combined scheme runs on monitored windows, so
        // both sides of the §IV-C comparison are the same computation.
        let static_covariances = fb_covariances(&kept);
        let pooled = pool_covariances(&static_covariances, None);
        let steering_table = SteeringTable::new(&config.steering, &config.grid);
        let static_spectrum = pseudospectrum_on(&pooled, &steering_table, config.num_sources)?;
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
            band: config.band.clone(),
            mu_grid: MuGrid::new(&config.band),
            steering_table,
        })
    }

    /// Reassembles a profile from previously stored parts (checkpoint
    /// restore).
    ///
    /// The Eq. 17 path weights are re-derived from the stored spectrum
    /// under `config.theta_gate_deg`, and the μ_k grid and steering table
    /// are rebuilt from `config` — the identical arithmetic
    /// [`CalibrationProfile::build`] runs — so a restored profile compares
    /// equal to the one that was saved.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] if the part shapes disagree with the
    /// declared `(antennas, subcarriers)` geometry, or `antennas` exceeds
    /// [`MAX_CHAINS`].
    pub fn from_parts(
        antennas: usize,
        subcarriers: usize,
        static_amplitude: Vec<Vec<f64>>,
        static_power: Vec<f64>,
        static_covariances: Vec<CMatrix>,
        static_spectrum: Pseudospectrum,
        config: &DetectorConfig,
    ) -> Result<CalibrationProfile, DetectError> {
        check_chains(antennas)?;
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
            band: config.band.clone(),
            mu_grid: MuGrid::new(&config.band),
            steering_table: SteeringTable::new(&config.steering, &config.grid),
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

    /// The μ_k grid of `band`: the profile's own when `band` is the band
    /// it was calibrated on, else one built for `band`.
    pub fn mu_grid(&self, band: &Band) -> Cow<'_, MuGrid> {
        if *band == self.band {
            Cow::Borrowed(&self.mu_grid)
        } else {
            Cow::Owned(MuGrid::new(band))
        }
    }

    /// The steering table of `(steering, grid)`: the profile's own when
    /// it is the calibration's pair, else one built on the spot (a
    /// window scored on a surviving sub-array pays for its own).
    pub fn steering_table(
        &self,
        steering: &UlaSteering,
        grid: &AngleGrid,
    ) -> Cow<'_, SteeringTable> {
        if self.steering_table.is_for(steering, grid) {
            Cow::Borrowed(&self.steering_table)
        } else {
            Cow::Owned(SteeringTable::new(steering, grid))
        }
    }
}

/// Rejects an array wider than the covariance kernel supports.
fn check_chains(antennas: usize) -> Result<(), DetectError> {
    if antennas > MAX_CHAINS {
        return Err(DetectError::InvalidConfig {
            what: format!("{antennas} receive chains exceed the supported {MAX_CHAINS}"),
        });
    }
    Ok(())
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
            for (r, &wk) in covs.iter().zip(w) {
                acc.axpy(wk, r);
            }
            acc.scale_in_place(1.0 / pool_total(w));
        }
    }
    acc
}

/// Runs `$kernel::<M>($args)` for the window's chain count `M` in
/// `1..=MAX_CHAINS`.
macro_rules! by_chains {
    ($chains:expr, $kernel:ident($($arg:expr),*)) => {
        match $chains {
            1 => $kernel::<1>($($arg),*),
            2 => $kernel::<2>($($arg),*),
            3 => $kernel::<3>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            5 => $kernel::<5>($($arg),*),
            6 => $kernel::<6>($($arg),*),
            7 => $kernel::<7>($($arg),*),
            8 => $kernel::<8>($($arg),*),
            m => unsupported_chains(m),
        }
    };
}

/// `by_chains!`'s fallthrough, out of line: clippy does not see a
/// `panic!` expanded from a local macro, so the panic lives here.
#[cold]
#[expect(
    clippy::panic,
    reason = "profiles wider than MAX_CHAINS are refused at build and from_parts, and windows are shape-checked against their profile"
)]
fn unsupported_chains(m: usize) -> ! {
    panic!("{m} receive chains exceed the supported {MAX_CHAINS}")
}

/// The per-subcarrier sample covariances of a window, the one
/// estimator behind both sides of the §IV-C comparison: calls
/// `finish(k, R_k)` for every subcarrier `k` in order, with
/// `R_k = (1/N) Σ_n u_n u_nᴴ` over the window's `N` column snapshots
/// `u_n` of subcarrier `k`.
///
/// Per subcarrier, one pass over the packets accumulates the upper
/// triangle `+= u_r·conj(u_c)`, `r ≤ c`, in packet order from zero
/// ([`upper_triangles`]). The lower triangle is not accumulated: each of
/// its terms `u_c·conj(u_r)` has the mirrored term's real part and the
/// exact negation of its imaginary part, so its running sum is the
/// mirrored sum with the imaginary part subtracted from `+0.0` (which
/// also gives the `+0.0` an accumulator starting at zero holds where
/// that sum is zero, where a plain conjugate would give `−0.0`). The
/// `1/N` scale then runs on every entry. Every `R_k` is therefore
/// bitwise `sample_covariance` of the subcarrier's column snapshots.
fn sample_covariances<const M: usize>(
    window: &[impl Borrow<CsiPacket>],
    mut finish: impl FnMut(usize, &[[Complex64; M]; M]),
) {
    let subcarriers = window[0].borrow().subcarriers();
    let rows: Vec<[&[Complex64]; M]> = window
        .iter()
        .map(|p| std::array::from_fn(|r| &p.borrow().antenna_row(r)[..subcarriers]))
        .collect();
    let scale = 1.0 / window.len() as f64;
    let mut emit = |k: usize, upper: &[[Complex64; M]; M]| {
        let cov: [[Complex64; M]; M] = std::array::from_fn(|r| {
            std::array::from_fn(|c| {
                let z = if c >= r {
                    upper[r][c]
                } else {
                    let mirror = upper[c][r];
                    Complex64::new(mirror.re, 0.0 - mirror.im)
                };
                z.scale(scale)
            })
        });
        if cfg!(debug_assertions) {
            let r = CMatrix::from_rows(M, M, cov.as_flattened());
            contract::assert_hermitian("sample covariance", &r, 1e-9 * (1.0 + r.trace().norm()));
        }
        finish(k, &cov);
    };
    let mut k = 0;
    while k + COVARIANCE_LANES <= subcarriers {
        upper_triangles::<M, COVARIANCE_LANES>(&rows, k, &mut emit);
        k += COVARIANCE_LANES;
    }
    for k in k..subcarriers {
        upper_triangles::<M, 1>(&rows, k, &mut emit);
    }
}

/// Subcarriers whose triangles [`upper_triangles`] accumulates side by
/// side; 6 divides the 30-tone grid and measured fastest (6 independent
/// accumulators per entry keep the adders busy).
const COVARIANCE_LANES: usize = 6;

/// Accumulates the upper triangles of subcarriers `k..k + L` side by
/// side, lane `l` holding subcarrier `k + l`, and emits them in order.
///
/// Each lane runs, entry by entry and packet by packet from zero, the
/// arithmetic of `acc += u_r * u_c.conj()` on [`Complex64`]: real part
/// `u_r.re·u_c.re − u_r.im·(−u_c.im)`, imaginary part
/// `u_r.re·(−u_c.im) + u_r.im·u_c.re`. Lanes never mix, so each triangle
/// is bitwise the one subcarrier-at-a-time accumulation would build.
fn upper_triangles<const M: usize, const L: usize>(
    rows: &[[&[Complex64]; M]],
    k: usize,
    emit: &mut impl FnMut(usize, &[[Complex64; M]; M]),
) {
    let mut re = [[[0.0; L]; M]; M];
    let mut im = [[[0.0; L]; M]; M];
    for packet in rows {
        let u_re: [[f64; L]; M] =
            std::array::from_fn(|r| std::array::from_fn(|l| packet[r][k + l].re));
        let u_im: [[f64; L]; M] =
            std::array::from_fn(|r| std::array::from_fn(|l| packet[r][k + l].im));
        // Plain index loops over the fixed shape unroll and vectorize
        // across the lanes.
        #[allow(clippy::needless_range_loop)]
        for r in 0..M {
            for c in r..M {
                for l in 0..L {
                    re[r][c][l] += u_re[r][l] * u_re[c][l] - u_im[r][l] * (-u_im[c][l]);
                    im[r][c][l] += u_re[r][l] * (-u_im[c][l]) + u_im[r][l] * u_re[c][l];
                }
            }
        }
    }
    for l in 0..L {
        let upper = std::array::from_fn(|r| {
            std::array::from_fn(|c| Complex64::new(re[r][c][l], im[r][c][l]))
        });
        emit(k + l, &upper);
    }
}

/// The normalizer of a weighted pool: `Σw`, or 1 when it vanishes.
fn pool_total(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    if total.abs() <= f64::MIN_POSITIVE {
        1.0
    } else {
        total
    }
}

/// Per-subcarrier forward–backward covariances of a window (owned or
/// borrowed packets): `forward_backward` of each [`sample_covariances`]
/// matrix, the per-subcarrier matrices [`CalibrationProfile::build`]
/// stores.
///
/// # Panics
/// Panics if `window` is empty or has more than [`MAX_CHAINS`] chains.
pub(crate) fn fb_covariances(window: &[impl Borrow<CsiPacket>]) -> Vec<CMatrix> {
    fn kernel<const M: usize>(window: &[impl Borrow<CsiPacket>]) -> Vec<CMatrix> {
        let mut out = Vec::with_capacity(window[0].borrow().subcarriers());
        sample_covariances::<M>(window, |_, cov| {
            out.push(forward_backward(&CMatrix::from_rows(
                M,
                M,
                cov.as_flattened(),
            )));
        });
        out
    }
    let _stage = mpdf_obs::stage!("music.covariance");
    by_chains!(window[0].borrow().antennas(), kernel(window))
}

/// The window's forward–backward covariances pooled under the subcarrier
/// `weights`: bitwise `pool_covariances(&fb_covariances(window),
/// Some(weights))`, with no per-subcarrier matrix. Each subcarrier's
/// forward–backward average `(R[i][j] + conj(R[M−1−i][M−1−j]))·½` is
/// formed in registers and added as `+= fb·w_k` in subcarrier order;
/// the pool is scaled by `1/Σw` (by 1 when `Σw` vanishes) at the end.
///
/// # Panics
/// Panics if `window` is empty, has more than [`MAX_CHAINS`] chains, or
/// `weights` is not one per subcarrier.
pub(crate) fn pooled_fb_covariance(window: &[CsiPacket], weights: &[f64]) -> CMatrix {
    fn kernel<const M: usize>(window: &[CsiPacket], weights: &[f64]) -> CMatrix {
        let mut pooled = [[Complex64::ZERO; M]; M];
        sample_covariances::<M>(window, |k, cov| {
            let fb: [[Complex64; M]; M] = std::array::from_fn(|i| {
                std::array::from_fn(|j| (cov[i][j] + cov[M - 1 - i][M - 1 - j].conj()).scale(0.5))
            });
            if cfg!(debug_assertions) {
                let fb = CMatrix::from_rows(M, M, fb.as_flattened());
                contract::assert_hermitian(
                    "forward–backward covariance",
                    &fb,
                    1e-9 * (1.0 + fb.trace().norm()),
                );
            }
            for (acc, z) in pooled.as_flattened_mut().iter_mut().zip(fb.as_flattened()) {
                *acc += z.scale(weights[k]);
            }
        });
        let mut out = CMatrix::from_rows(M, M, pooled.as_flattened());
        out.scale_in_place(1.0 / pool_total(weights));
        out
    }
    let _stage = mpdf_obs::stage!("music.covariance");
    assert_eq!(
        weights.len(),
        window[0].subcarriers(),
        "weight length mismatch"
    );
    by_chains!(window[0].antennas(), kernel(window, weights))
}

/// The per-subcarrier estimator as first written, kept as the reference
/// the kernels are pinned against: `forward_backward(sample_covariance(
/// columns))` of each subcarrier's column snapshots.
#[cfg(test)]
pub(crate) fn per_subcarrier_fb_covariances(window: &[CsiPacket]) -> Vec<CMatrix> {
    (0..window[0].subcarriers())
        .map(|k| {
            let columns: Vec<Vec<Complex64>> =
                window.iter().map(|p| p.subcarrier_column(k)).collect();
            let r = mpdf_music::covariance::sample_covariance(&columns)
                .expect("a non-empty window has snapshots");
            forward_backward(&r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `array_packets` with per-packet phase noise, so no two snapshots
    /// are collinear.
    fn noisy_window(antennas: usize, n: usize) -> Vec<CsiPacket> {
        array_packets(antennas, n)
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
            .collect()
    }

    /// Weights with a zero, a tiny and a repeated entry.
    fn test_weights() -> Vec<f64> {
        (0..30)
            .map(|k| match k {
                4 => 0.0,
                9 => 1e-300,
                _ => 0.01 + (k % 7) as f64 * 0.013,
            })
            .collect()
    }

    #[test]
    fn kernels_match_the_reference_bitwise_at_every_chain_count() {
        // 2–8 chains: the paper's 3, ext-array's 4, 6 and 8, and a
        // surviving 2-chain sub-array.
        for antennas in 2..=MAX_CHAINS {
            let window = noisy_window(antennas, 25);
            let oracle = per_subcarrier_fb_covariances(&window);
            let what = format!("{antennas} antennas");
            assert_bitwise_eq(&fb_covariances(&window), &oracle, &what);
            for weights in [test_weights(), vec![0.0; 30]] {
                let pooled = pooled_fb_covariance(&window, &weights);
                assert_bitwise_eq(
                    &[pooled],
                    &[pool_covariances(&oracle, Some(&weights))],
                    &format!("{what}, pooled"),
                );
            }
        }
    }

    #[test]
    fn kernels_match_the_reference_off_the_lane_grid() {
        // 13 tones: two 6-lane blocks and a one-tone tail.
        for antennas in [2, 3, 7] {
            let window: Vec<CsiPacket> = (0..9)
                .map(|i| {
                    let data = (0..antennas * 13)
                        .map(|j| {
                            Complex64::from_polar(1.0 + (j % 5) as f64 * 0.1, (i * 13 + j) as f64)
                        })
                        .collect();
                    CsiPacket::new(antennas, 13, data, i as u64, 0.0)
                })
                .collect();
            let oracle = per_subcarrier_fb_covariances(&window);
            assert_bitwise_eq(&fb_covariances(&window), &oracle, "13 tones");
            let weights: Vec<f64> = (0..13).map(|k| 0.05 + k as f64 * 0.01).collect();
            assert_bitwise_eq(
                &[pooled_fb_covariance(&window, &weights)],
                &[pool_covariances(&oracle, Some(&weights))],
                "13 tones, pooled",
            );
        }
    }

    #[test]
    fn kernels_keep_the_reference_zero_signs_on_real_valued_csi() {
        // Real CSI makes every imaginary sum exactly zero: the lower
        // triangle must hold the reference's +0.0, not the -0.0 a plain
        // conjugate of the upper triangle would give.
        for antennas in [2, 3, 5] {
            let window: Vec<CsiPacket> = (0..6)
                .map(|i| {
                    let data = (0..antennas * 30)
                        .map(|j| Complex64::new(((i * 31 + j) % 11) as f64 - 5.0, 0.0))
                        .collect();
                    CsiPacket::new(antennas, 30, data, i as u64, 0.0)
                })
                .collect();
            let oracle = per_subcarrier_fb_covariances(&window);
            assert_bitwise_eq(&fb_covariances(&window), &oracle, "real csi");
            let weights = test_weights();
            assert_bitwise_eq(
                &[pooled_fb_covariance(&window, &weights)],
                &[pool_covariances(&oracle, Some(&weights))],
                "real csi, pooled",
            );
        }
    }

    #[test]
    fn more_chains_than_the_kernel_supports_is_a_typed_error() {
        let cfg = DetectorConfig {
            steering: UlaSteering::new(MAX_CHAINS + 1, 0.5),
            ..DetectorConfig::default()
        };
        let err = CalibrationProfile::build(&array_packets(MAX_CHAINS + 1, 4), &cfg).unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn profile_tables_serve_their_own_key_and_build_any_other() {
        let cfg = DetectorConfig::default();
        let p = CalibrationProfile::build(&array_packets(3, 10), &cfg).unwrap();
        assert!(matches!(p.mu_grid(&cfg.band), Cow::Borrowed(_)));
        assert!(matches!(
            p.steering_table(&cfg.steering, &cfg.grid),
            Cow::Borrowed(_)
        ));
        let shifted = Band::new(
            mpdf_wifi::band::channel_center_hz(1),
            cfg.band.indices().to_vec(),
        );
        let grid = p.mu_grid(&shifted);
        assert!(matches!(grid, Cow::Owned(_)));
        assert_eq!(*grid, MuGrid::new(&shifted));
        let sub = cfg.steering.subset(&[0, 2]).unwrap();
        let table = p.steering_table(&sub, &cfg.grid);
        assert!(matches!(table, Cow::Owned(_)));
        assert_eq!(*table, SteeringTable::new(&sub, &cfg.grid));
    }

    #[test]
    fn static_covariances_are_the_batch_reference_of_the_capture_as_captured() {
        for antennas in [3, 4] {
            let cfg = DetectorConfig {
                steering: UlaSteering::new(antennas, 0.5),
                ..DetectorConfig::default()
            };
            let packets = array_packets(antennas, 20);
            let profile = CalibrationProfile::build(&packets, &cfg).unwrap();
            assert!(
                packets
                    .iter()
                    .all(|p| matches!(classify(p, &cfg.quarantine), PacketClass::Ok)),
                "a clean capture passes the quarantine whole"
            );
            assert_bitwise_eq(
                profile.static_covariances(),
                &per_subcarrier_fb_covariances(&packets),
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
