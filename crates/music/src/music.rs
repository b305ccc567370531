//! The MUSIC angle-of-arrival estimator (Schmidt \[23\]; paper §IV-B1).
//!
//! Given the array covariance, MUSIC splits eigenvectors into signal and
//! noise subspaces and scans a steering-vector grid:
//!
//! `P(θ) = 1 / (a(θ)ᴴ E_N E_Nᴴ a(θ))`
//!
//! Peaks of the pseudospectrum mark arrival angles. With three antennas
//! the paper can resolve at most two paths — enough to separate the LOS
//! from the dominant wall reflection (Fig. 5b).

use std::error::Error;
use std::fmt;

use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::contract;
use mpdf_rfmath::eig::{hermitian_eig, EigError};
use mpdf_rfmath::matrix::CMatrix;

use crate::covariance::CovarianceError;

/// Error returned by the MUSIC estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum MusicError {
    /// The requested signal dimension leaves no noise subspace.
    SignalDimTooLarge {
        /// Requested number of sources.
        sources: usize,
        /// Array order.
        elements: usize,
    },
    /// Eigendecomposition failed.
    Eig(EigError),
    /// Covariance estimation failed.
    Covariance(CovarianceError),
}

impl fmt::Display for MusicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MusicError::SignalDimTooLarge { sources, elements } => write!(
                f,
                "cannot estimate {sources} sources with {elements} antennas"
            ),
            MusicError::Eig(e) => write!(f, "eigendecomposition failed: {e}"),
            MusicError::Covariance(e) => write!(f, "covariance failed: {e}"),
        }
    }
}

impl Error for MusicError {}

impl From<EigError> for MusicError {
    fn from(e: EigError) -> Self {
        MusicError::Eig(e)
    }
}

impl From<CovarianceError> for MusicError {
    fn from(e: CovarianceError) -> Self {
        MusicError::Covariance(e)
    }
}

/// Steering model of a uniform linear array, parameterized by spacing in
/// wavelengths (0.5 for the paper's λ/2 array).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UlaSteering {
    elements: usize,
    spacing_wavelengths: f64,
}

impl UlaSteering {
    /// Creates a steering model.
    ///
    /// # Panics
    /// Panics if `elements < 2` or spacing is non-positive.
    pub fn new(elements: usize, spacing_wavelengths: f64) -> Self {
        assert!(elements >= 2, "need at least two elements");
        assert!(spacing_wavelengths > 0.0, "spacing must be positive");
        UlaSteering {
            elements,
            spacing_wavelengths,
        }
    }

    /// The paper's array: 3 elements at λ/2.
    pub fn three_half_wavelength() -> Self {
        UlaSteering::new(3, 0.5)
    }

    /// Number of elements.
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// Element spacing in wavelengths.
    pub fn spacing_wavelengths(&self) -> f64 {
        self.spacing_wavelengths
    }

    /// Steering model of the sub-array keeping the elements in `idx`
    /// (ascending physical indices), or `None` when they form no ULA:
    /// fewer than two elements, not strictly ascending and equispaced, or
    /// an index past the array. The survivors of a single antenna-chain
    /// dropout on the 3-element array always form one; a 4-element array
    /// that lost an interior chain does not.
    pub fn subset(&self, idx: &[usize]) -> Option<UlaSteering> {
        let (&first, &last) = (idx.first()?, idx.last()?);
        let gap = idx.get(1)?.checked_sub(first)?;
        if gap == 0
            || last >= self.elements
            || idx.windows(2).any(|w| w[1].checked_sub(w[0]) != Some(gap))
        {
            return None;
        }
        Some(UlaSteering::new(
            idx.len(),
            self.spacing_wavelengths * gap as f64,
        ))
    }

    /// Steering vector at incidence angle `theta` radians (from broadside),
    /// centred like the physical array in `mpdf-wifi`.
    pub fn vector(&self, theta: f64) -> Vec<Complex64> {
        let mid = (self.elements as f64 - 1.0) / 2.0;
        (0..self.elements)
            .map(|m| {
                let phase = -std::f64::consts::TAU
                    * self.spacing_wavelengths
                    * (m as f64 - mid)
                    * theta.sin();
                Complex64::cis(phase)
            })
            .collect()
    }
}

/// An angular scan grid in degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngleGrid {
    /// First angle (degrees).
    pub start_deg: f64,
    /// Last angle (degrees), inclusive.
    pub end_deg: f64,
    /// Step (degrees).
    pub step_deg: f64,
}

impl AngleGrid {
    /// The paper's scan: −90° to 90°.
    pub fn full_front(step_deg: f64) -> Self {
        AngleGrid {
            start_deg: -90.0,
            end_deg: 90.0,
            step_deg,
        }
    }

    /// All angles on the grid.
    ///
    /// # Panics
    /// Panics if the step is non-positive or the range is inverted.
    pub fn angles_deg(&self) -> Vec<f64> {
        assert!(self.step_deg > 0.0, "grid step must be positive");
        assert!(self.end_deg >= self.start_deg, "grid range inverted");
        // lint: allow(lossy-cast) — span/step is non-negative and small (asserted above)
        let n = ((self.end_deg - self.start_deg) / self.step_deg).round() as usize + 1;
        (0..n)
            .map(|i| self.start_deg + i as f64 * self.step_deg)
            .collect()
    }
}

impl Default for AngleGrid {
    fn default() -> Self {
        AngleGrid::full_front(1.0)
    }
}

/// Precomputed steering vectors for one `(UlaSteering, AngleGrid)` pair.
///
/// Every angle scan — MUSIC pseudospectrum or Bartlett spectrum — walks
/// the same grid with the same array model, evaluating `elements` complex
/// exponentials per grid point. This table hoists those `cis` calls out
/// of the scan: build it once (a calibration profile owns the one its
/// windows are scored on), then each scan is a pure quadratic form per
/// angle with zero allocation and zero trig.
#[derive(Debug, Clone, PartialEq)]
pub struct SteeringTable {
    steering: UlaSteering,
    grid: AngleGrid,
    angles_deg: Vec<f64>,
    /// Flattened row-major `angles × elements` steering vectors.
    vectors: Vec<Complex64>,
}

impl SteeringTable {
    /// Builds the table for a steering model over a grid.
    ///
    /// # Panics
    /// Propagates [`AngleGrid::angles_deg`]'s panics on degenerate grids.
    pub fn new(steering: &UlaSteering, grid: &AngleGrid) -> Self {
        let angles_deg = grid.angles_deg();
        let m = steering.elements();
        let mut vectors = Vec::with_capacity(angles_deg.len() * m);
        for &deg in &angles_deg {
            vectors.extend_from_slice(&steering.vector(deg.to_radians()));
        }
        SteeringTable {
            steering: *steering,
            grid: *grid,
            angles_deg,
            vectors,
        }
    }

    /// Whether the table was built for exactly `(steering, grid)`, so it
    /// is bit-identical to `SteeringTable::new(steering, grid)`.
    pub fn is_for(&self, steering: &UlaSteering, grid: &AngleGrid) -> bool {
        self.steering == *steering && self.grid == *grid
    }

    /// The steering model the table was built from.
    pub fn steering(&self) -> &UlaSteering {
        &self.steering
    }

    /// The angle grid the table was built on.
    pub fn grid(&self) -> &AngleGrid {
        &self.grid
    }

    /// Scan angles in degrees.
    pub fn angles_deg(&self) -> &[f64] {
        &self.angles_deg
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.angles_deg.len()
    }

    /// True when the grid has no points (unreachable for grids built by
    /// [`AngleGrid::angles_deg`], which always yields ≥ 1 point).
    pub fn is_empty(&self) -> bool {
        self.angles_deg.is_empty()
    }

    /// Steering vector at grid index `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn vector(&self, idx: usize) -> &[Complex64] {
        let m = self.steering.elements();
        &self.vectors[idx * m..(idx + 1) * m]
    }

    /// Scans `N` covariances at once: for every grid index `i`, in grid
    /// order, that `keep(i)` accepts, calls `visit(i, q)` with
    /// `q[n] = Re(a(θ_i)ᴴ covs[n] a(θ_i))`.
    ///
    /// Each form runs the arithmetic of
    /// [`CMatrix::quadratic_form`] — row sums `Σ_c R[r][c]·a[c]`, then
    /// `Σ_r conj(a[r])·row_r` — in the same order, so every value is
    /// bitwise `covs[n].quadratic_form(self.vector(i)).re`. Arrays of up
    /// to 8 elements (the receivers here have 2–8 chains) run a
    /// fixed-shape kernel with the matrices copied out once per call; a
    /// larger array falls back to `quadratic_form` itself.
    ///
    /// # Panics
    /// Panics if a covariance is not square over the table's array.
    pub fn scan<const N: usize>(
        &self,
        covs: [&CMatrix; N],
        keep: impl FnMut(usize) -> bool,
        visit: impl FnMut(usize, [f64; N]),
    ) {
        let m = self.steering.elements();
        for c in &covs {
            assert!(
                c.is_square() && c.rows() == m,
                "covariance must be {m}x{m} to scan a {m}-element table"
            );
        }
        match m {
            2 => self.scan_fixed::<2, N>(covs, keep, visit),
            3 => self.scan_fixed::<3, N>(covs, keep, visit),
            4 => self.scan_fixed::<4, N>(covs, keep, visit),
            5 => self.scan_fixed::<5, N>(covs, keep, visit),
            6 => self.scan_fixed::<6, N>(covs, keep, visit),
            7 => self.scan_fixed::<7, N>(covs, keep, visit),
            8 => self.scan_fixed::<8, N>(covs, keep, visit),
            _ => self.scan_any(covs, keep, visit),
        }
    }

    fn scan_fixed<const M: usize, const N: usize>(
        &self,
        covs: [&CMatrix; N],
        mut keep: impl FnMut(usize) -> bool,
        mut visit: impl FnMut(usize, [f64; N]),
    ) {
        let fixed: [[[Complex64; M]; M]; N] = covs.map(|c| {
            let mut r = [[Complex64::ZERO; M]; M];
            for (row, src) in r.iter_mut().zip(c.as_slice().chunks_exact(M)) {
                row.copy_from_slice(src);
            }
            r
        });
        for (i, a) in self.vectors.chunks_exact(M).enumerate() {
            if !keep(i) {
                continue;
            }
            let mut v = [Complex64::ZERO; M];
            v.copy_from_slice(a);
            visit(i, fixed.each_ref().map(|r| quadratic_form_re(r, &v)));
        }
    }

    fn scan_any<const N: usize>(
        &self,
        covs: [&CMatrix; N],
        mut keep: impl FnMut(usize) -> bool,
        mut visit: impl FnMut(usize, [f64; N]),
    ) {
        for i in (0..self.len()).filter(|&i| keep(i)) {
            visit(i, covs.map(|c| c.quadratic_form(self.vector(i)).re));
        }
    }
}

/// `Re(vᴴ R v)` on a fixed shape: the operations of
/// [`CMatrix::quadratic_form`], in its order, without its per-call shape
/// checks and row slicing.
#[inline(always)]
fn quadratic_form_re<const M: usize>(r: &[[Complex64; M]; M], v: &[Complex64; M]) -> f64 {
    let mut acc = Complex64::ZERO;
    for (row, &vr) in r.iter().zip(v) {
        let mut row_acc = Complex64::ZERO;
        for (&a, &vc) in row.iter().zip(v) {
            row_acc += a * vc;
        }
        acc += vr.conj() * row_acc;
    }
    acc.re
}

/// A MUSIC pseudospectrum: paired angles (degrees) and values.
#[derive(Debug, Clone, PartialEq)]
pub struct Pseudospectrum {
    angles_deg: Vec<f64>,
    values: Vec<f64>,
}

impl Pseudospectrum {
    /// Creates a pseudospectrum from parallel vectors.
    ///
    /// # Panics
    /// Panics on length mismatch or empty input.
    pub fn new(angles_deg: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(angles_deg.len(), values.len(), "length mismatch");
        assert!(!angles_deg.is_empty(), "empty pseudospectrum");
        Pseudospectrum { angles_deg, values }
    }

    /// Scan angles in degrees.
    pub fn angles_deg(&self) -> &[f64] {
        &self.angles_deg
    }

    /// Pseudospectrum values (linear).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at the grid point closest to `angle_deg`.
    ///
    /// Scan grids are uniform ([`AngleGrid::angles_deg`] constructs them
    /// with a fixed step), so the nearest index is O(1) arithmetic —
    /// not an O(N) distance scan. Out-of-range angles clamp to the grid
    /// ends, matching the nearest-point semantics of the scan it
    /// replaced.
    pub fn value_at(&self, angle_deg: f64) -> f64 {
        let n = self.angles_deg.len();
        // The constructor rejects empty input, so n >= 1.
        if n == 1 {
            return self.values[0];
        }
        let start = self.angles_deg[0];
        let step = (self.angles_deg[n - 1] - start) / (n - 1) as f64;
        if !(step.is_finite() && step > 0.0 && angle_deg.is_finite()) {
            // Degenerate (all-equal or non-monotone) grid, or NaN query:
            // the first point is the only defensible answer.
            return self.values[0];
        }
        let idx = ((angle_deg - start) / step)
            .round()
            .clamp(0.0, (n - 1) as f64);
        // lint: allow(lossy-cast) — clamped to [0, n-1] on the line above
        self.values[idx as usize]
    }

    /// Normalizes the peak value to 1 (for plotting/weighting).
    pub fn normalized(&self) -> Pseudospectrum {
        let peak = self
            .values
            .iter()
            .cloned()
            .fold(f64::MIN_POSITIVE, f64::max);
        Pseudospectrum {
            angles_deg: self.angles_deg.clone(),
            values: self.values.iter().map(|v| v / peak).collect(),
        }
    }

    /// Local maxima sorted by descending value, up to `max_peaks`, keeping
    /// only peaks at least `min_rel` of the global maximum.
    pub fn peaks(&self, max_peaks: usize, min_rel: f64) -> Vec<(f64, f64)> {
        let n = self.values.len();
        if n == 0 || max_peaks == 0 {
            return Vec::new();
        }
        let global = self.values.iter().cloned().fold(f64::MIN, f64::max);
        let mut found: Vec<(f64, f64)> = Vec::new();
        for i in 0..n {
            let left = if i == 0 { f64::MIN } else { self.values[i - 1] };
            let right = if i == n - 1 {
                f64::MIN
            } else {
                self.values[i + 1]
            };
            let v = self.values[i];
            if v >= left && v > right && v >= min_rel * global {
                found.push((self.angles_deg[i], v));
            }
        }
        found.sort_by(|a, b| b.1.total_cmp(&a.1));
        found.truncate(max_peaks);
        found
    }
}

/// Computes the MUSIC pseudospectrum from a covariance matrix.
///
/// `num_sources` is the assumed signal-subspace dimension (paths to
/// resolve); it must be smaller than the array order.
///
/// # Errors
/// [`MusicError::SignalDimTooLarge`] or an eigendecomposition failure.
pub fn pseudospectrum(
    covariance: &CMatrix,
    steering: &UlaSteering,
    num_sources: usize,
    grid: &AngleGrid,
) -> Result<Pseudospectrum, MusicError> {
    pseudospectrum_on(covariance, &SteeringTable::new(steering, grid), num_sources)
}

/// [`pseudospectrum`] over a prebuilt steering table.
///
/// # Errors
/// Same as [`pseudospectrum`].
pub fn pseudospectrum_on(
    covariance: &CMatrix,
    table: &SteeringTable,
    num_sources: usize,
) -> Result<Pseudospectrum, MusicError> {
    let m = covariance.rows();
    if num_sources >= m {
        return Err(MusicError::SignalDimTooLarge {
            sources: num_sources,
            elements: m,
        });
    }
    contract::assert_hermitian(
        "MUSIC covariance",
        covariance,
        1e-9 * (1.0 + covariance.trace().norm()),
    );
    let eig = {
        let _stage = mpdf_obs::stage!("music.eig");
        hermitian_eig(covariance, 1e-10)
    }?;
    let en = eig.noise_subspace(num_sources);
    // Noise projector `E_N E_Nᴴ`, computed once per call: every grid
    // point then costs one allocation-free quadratic form against the
    // steering table.
    let projector = &en * &en.hermitian();
    let mut values = Vec::with_capacity(table.len());
    {
        let _stage = mpdf_obs::stage!("music.scan");
        table.scan(
            [&projector],
            |_| true,
            |_, [q]| values.push(1.0 / q.max(1e-12)),
        );
    }
    // The denominator is clamped away from zero, so the pseudospectrum
    // must come out strictly positive and finite.
    contract::assert_positive("MUSIC pseudospectrum", &values);
    Ok(Pseudospectrum::new(table.angles_deg().to_vec(), values))
}

/// Checks that `covariance` is a square matrix over `steering`'s array —
/// the one way a Bartlett scan can fail.
///
/// # Errors
/// [`MusicError::Covariance`] on a non-square or wrongly sized matrix.
pub fn check_bartlett(covariance: &CMatrix, steering: &UlaSteering) -> Result<(), MusicError> {
    if !covariance.is_square() || covariance.rows() != steering.elements() {
        return Err(MusicError::Covariance(CovarianceError::RaggedSnapshots));
    }
    Ok(())
}

/// The Bartlett (conventional beamformer) angular power spectrum:
/// `B(θ) = a(θ)ᴴ R a(θ)`.
///
/// Unlike the MUSIC pseudospectrum — which is scale-free and exists only
/// to locate angles — the Bartlett spectrum carries received *power* per
/// direction, so amplitude changes (e.g. a person shadowing the LOS)
/// remain visible. The detection pipeline compares Bartlett profiles;
/// MUSIC supplies the angles and the path weights.
///
/// No detector calls this: the full-grid spectrum of plain
/// [`CMatrix::quadratic_form`]s is the oracle the combined scheme's gated
/// [`SteeringTable::scan`] is pinned against in `mpdf-core`'s tests, so
/// it does not run through the scan itself.
///
/// # Errors
/// Returns [`MusicError::SignalDimTooLarge`] never; present for parity —
/// the only failure is a non-square covariance, reported via
/// [`MusicError::Covariance`].
pub fn bartlett_spectrum(
    covariance: &CMatrix,
    steering: &UlaSteering,
    grid: &AngleGrid,
) -> Result<Pseudospectrum, MusicError> {
    check_bartlett(covariance, steering)?;
    let table = SteeringTable::new(steering, grid);
    let values: Vec<f64> = {
        // Same stage as the MUSIC scan: both walk the steering table.
        // Powers are clamped at 0 (a Hermitian `R` only goes negative by
        // round-off).
        let _stage = mpdf_obs::stage!("music.scan");
        (0..table.len())
            .map(|i| covariance.quadratic_form(table.vector(i)).re.max(0.0))
            .collect()
    };
    contract::assert_non_negative("Bartlett spectrum", &values);
    Ok(Pseudospectrum::new(table.angles_deg().to_vec(), values))
}

/// One-call AoA estimation: covariance (with forward–backward averaging)
/// → pseudospectrum → peak angles in degrees, strongest first.
///
/// # Errors
/// Propagates covariance and MUSIC errors.
pub fn estimate_aoa(
    snapshots: &[Vec<Complex64>],
    steering: &UlaSteering,
    num_sources: usize,
    grid: &AngleGrid,
) -> Result<Vec<f64>, MusicError> {
    let r = crate::covariance::sample_covariance(snapshots)?;
    let r = crate::covariance::forward_backward(&r);
    let spec = pseudospectrum(&r, steering, num_sources, grid)?;
    Ok(spec
        .peaks(num_sources, 0.01)
        .into_iter()
        .map(|(a, _)| a)
        .collect())
}

#[cfg(test)]
mod tests {
    #[test]
    fn ula_subset_keeps_relative_phases() {
        let full = UlaSteering::three_half_wavelength();
        let sub = full.subset(&[0, 2]).unwrap();
        assert_eq!(sub.elements(), 2);
        assert!((sub.spacing_wavelengths() - 1.0).abs() < 1e-15);
        // Relative phase between the surviving elements must match the
        // physical array at every angle (Bartlett is phase-offset free).
        for deg in [-60.0f64, -17.0, 0.0, 33.0, 80.0] {
            let theta = deg.to_radians();
            let v3 = full.vector(theta);
            let v2 = sub.vector(theta);
            let physical = v3[2] * v3[0].conj();
            let reduced = v2[1] * v2[0].conj();
            assert!((physical - reduced).norm() < 1e-12, "at {deg} deg");
        }
    }

    #[test]
    fn ula_subset_rejects_non_equispaced() {
        let ula = UlaSteering::new(4, 0.5);
        for idx in [
            &[0, 1, 3][..],
            &[0, 2, 3],
            &[1, 1],
            &[2, 1],
            &[0],
            &[],
            &[0, 4],
        ] {
            assert_eq!(ula.subset(idx), None, "{idx:?}");
        }
        assert_eq!(ula.subset(&[1, 3]), Some(UlaSteering::new(2, 1.0)));
    }

    use super::*;

    /// Builds snapshots of plane waves at the given angles (radians),
    /// amplitudes, with small deterministic noise.
    fn plane_wave_snapshots(
        steering: &UlaSteering,
        sources: &[(f64, f64)],
        n: usize,
    ) -> Vec<Vec<Complex64>> {
        (0..n)
            .map(|i| {
                let mut x = vec![Complex64::ZERO; steering.elements()];
                for (s_idx, &(theta, amp)) in sources.iter().enumerate() {
                    // Distinct pseudo-random symbols per source.
                    let sym = Complex64::cis(1.7 * i as f64 + 2.9 * s_idx as f64) * amp;
                    for (m, a) in steering.vector(theta).into_iter().enumerate() {
                        x[m] += sym * a;
                    }
                }
                // Tiny noise floor keeps the covariance full rank.
                for (m, z) in x.iter_mut().enumerate() {
                    *z += Complex64::cis(0.13 * (i * 7 + m) as f64) * 1e-3;
                }
                x
            })
            .collect()
    }

    #[test]
    fn grid_generation() {
        let grid = AngleGrid::full_front(1.0);
        let angles = grid.angles_deg();
        assert_eq!(angles.len(), 181);
        assert_eq!(angles[0], -90.0);
        assert_eq!(angles[180], 90.0);
    }

    #[test]
    fn single_source_is_located() {
        let steering = UlaSteering::three_half_wavelength();
        let truth = 25.0f64;
        let snaps = plane_wave_snapshots(&steering, &[(truth.to_radians(), 1.0)], 64);
        let angles = estimate_aoa(&snaps, &steering, 1, &AngleGrid::full_front(0.5)).unwrap();
        assert!(!angles.is_empty());
        assert!(
            (angles[0] - truth).abs() < 2.0,
            "estimated {} vs truth {truth}",
            angles[0]
        );
    }

    #[test]
    fn two_incoherent_sources_resolved() {
        let steering = UlaSteering::three_half_wavelength();
        let snaps =
            plane_wave_snapshots(&steering, &[(0.0f64, 1.0), (50f64.to_radians(), 0.8)], 128);
        let angles = estimate_aoa(&snaps, &steering, 2, &AngleGrid::full_front(0.5)).unwrap();
        assert_eq!(angles.len(), 2);
        let mut sorted = angles.clone();
        sorted.sort_by(f64::total_cmp);
        assert!((sorted[0] - 0.0).abs() < 4.0, "{sorted:?}");
        assert!((sorted[1] - 50.0).abs() < 4.0, "{sorted:?}");
    }

    #[test]
    fn pseudospectrum_peaks_at_source() {
        let steering = UlaSteering::three_half_wavelength();
        let truth = -40.0f64;
        let snaps = plane_wave_snapshots(&steering, &[(truth.to_radians(), 1.0)], 64);
        let r = crate::covariance::sample_covariance(&snaps).unwrap();
        let spec = pseudospectrum(&r, &steering, 1, &AngleGrid::full_front(1.0)).unwrap();
        let at_truth = spec.value_at(truth);
        let far = spec.value_at(truth + 60.0);
        assert!(at_truth > 10.0 * far, "peak {at_truth} vs off-peak {far}");
        // Normalization maps the max to 1.
        let norm = spec.normalized();
        let max = norm.values().iter().cloned().fold(f64::MIN, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn signal_dim_validation() {
        let r = CMatrix::identity(3);
        let steering = UlaSteering::three_half_wavelength();
        let err = pseudospectrum(&r, &steering, 3, &AngleGrid::default());
        assert!(matches!(err, Err(MusicError::SignalDimTooLarge { .. })));
    }

    #[test]
    fn white_noise_has_flat_spectrum() {
        // Identity covariance: no directionality — peak/median ratio small.
        let r = CMatrix::identity(3);
        let steering = UlaSteering::three_half_wavelength();
        let spec = pseudospectrum(&r, &steering, 1, &AngleGrid::full_front(1.0)).unwrap();
        let vals = spec.values();
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 10.0, "white noise should not form sharp peaks");
    }

    #[test]
    fn peaks_respect_relative_threshold() {
        let spec = Pseudospectrum::new(
            vec![-10.0, 0.0, 10.0, 20.0, 30.0],
            vec![0.1, 5.0, 0.1, 0.2, 0.1],
        );
        let peaks = spec.peaks(5, 0.5);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].0, 0.0);
        let all = spec.peaks(5, 0.0);
        assert_eq!(all.len(), 2); // 0.0 and 20.0
    }

    #[test]
    fn value_at_is_nearest_grid_point() {
        let spec = Pseudospectrum::new(
            vec![-90.0, -45.0, 0.0, 45.0, 90.0],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        );
        // Exact hits.
        assert_eq!(spec.value_at(-90.0), 1.0);
        assert_eq!(spec.value_at(45.0), 4.0);
        // Nearest rounding.
        assert_eq!(spec.value_at(-10.0), 3.0);
        assert_eq!(spec.value_at(30.0), 4.0);
        // Out-of-range queries clamp to the grid ends.
        assert_eq!(spec.value_at(-500.0), 1.0);
        assert_eq!(spec.value_at(500.0), 5.0);
        // Non-finite queries fall back to the first point, not a panic.
        assert_eq!(spec.value_at(f64::NAN), 1.0);
        // Single-point and degenerate grids.
        let single = Pseudospectrum::new(vec![10.0], vec![7.0]);
        assert_eq!(single.value_at(-3.0), 7.0);
        let flat = Pseudospectrum::new(vec![5.0, 5.0], vec![1.0, 2.0]);
        assert_eq!(flat.value_at(5.0), 1.0);
    }

    #[test]
    fn steering_table_matches_direct_vectors() {
        let steering = UlaSteering::three_half_wavelength();
        let grid = AngleGrid::full_front(2.5);
        let table = SteeringTable::new(&steering, &grid);
        assert_eq!(table.len(), grid.angles_deg().len());
        assert!(!table.is_empty());
        for (i, &deg) in table.angles_deg().iter().enumerate() {
            assert_eq!(table.vector(i), steering.vector(deg.to_radians()));
        }
    }

    #[test]
    fn scan_is_bitwise_quadratic_form_at_every_order() {
        // Orders 2–8 take the fixed-shape kernel, 9 the fallback.
        for m in 2..=9 {
            let steering = UlaSteering::new(m, 0.5);
            let table = SteeringTable::new(&steering, &AngleGrid::full_front(3.0));
            let a = CMatrix::from_fn(m, m, |r, c| {
                Complex64::new((r * 7 + c) as f64 * 0.31 - 1.0, (c * 3 + r) as f64 * 0.17)
            });
            let b = CMatrix::from_fn(m, m, |r, c| Complex64::cis((r * m + c) as f64));
            let mut seen = Vec::new();
            table.scan(
                [&a, &b],
                |i| i % 3 != 1,
                |i, [qa, qb]| {
                    seen.push(i);
                    let (ra, rb) = (
                        a.quadratic_form(table.vector(i)).re,
                        b.quadratic_form(table.vector(i)).re,
                    );
                    assert_eq!(qa.to_bits(), ra.to_bits(), "order {m}, index {i}");
                    assert_eq!(qb.to_bits(), rb.to_bits(), "order {m}, index {i}");
                },
            );
            let want: Vec<usize> = (0..table.len()).filter(|i| i % 3 != 1).collect();
            assert_eq!(seen, want, "order {m}: gated indices in grid order");
        }
    }

    #[test]
    fn table_knows_its_key() {
        let steering = UlaSteering::three_half_wavelength();
        let grid = AngleGrid::full_front(0.25);
        let table = SteeringTable::new(&steering, &grid);
        assert!(table.is_for(&steering, &grid));
        assert!(!table.is_for(&UlaSteering::new(4, 0.5), &grid));
        assert!(!table.is_for(&steering, &AngleGrid::full_front(0.5)));
    }

    #[test]
    fn error_display() {
        let e = MusicError::SignalDimTooLarge {
            sources: 3,
            elements: 3,
        };
        assert!(e.to_string().contains("3 sources"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The strict-positivity contract wired into
            /// `pseudospectrum` holds for covariances of arbitrary
            /// bounded snapshot sets (4 snapshots × 3 elements).
            #[test]
            fn pseudospectrum_is_positive_on_random_covariances(
                parts in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 12),
            ) {
                let snaps: Vec<Vec<Complex64>> = parts
                    .chunks(3)
                    .map(|chunk| {
                        chunk
                            .iter()
                            .map(|&(re, im)| Complex64::new(re, im))
                            .collect()
                    })
                    .collect();
                let r = crate::covariance::sample_covariance(&snaps).unwrap();
                let steering = UlaSteering::three_half_wavelength();
                let spec =
                    pseudospectrum(&r, &steering, 1, &AngleGrid::full_front(5.0)).unwrap();
                prop_assert!(spec.values().iter().all(|v| v.is_finite() && *v > 0.0));
                let bart = bartlett_spectrum(&r, &steering, &AngleGrid::full_front(5.0)).unwrap();
                prop_assert!(bart.values().iter().all(|v| v.is_finite() && *v >= 0.0));
            }
        }
    }
}
