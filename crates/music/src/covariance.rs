//! Sample covariance estimation.
//!
//! MUSIC operates on the spatial covariance `R = E[x xᴴ]` of array
//! snapshots. On WiFi, snapshots are per-subcarrier CSI columns — 30 per
//! packet on the Intel 5300 — so even one packet yields a usable estimate.
//! Forward–backward averaging improves conditioning for the coherent
//! (fully correlated) signals multipath produces.

use std::error::Error;
use std::fmt;

use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::contract;
use mpdf_rfmath::matrix::CMatrix;

/// Error returned by covariance estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CovarianceError {
    /// No snapshots were provided.
    NoSnapshots,
    /// Snapshots have inconsistent lengths.
    RaggedSnapshots,
    /// A subarray length was invalid for smoothing.
    BadSubarrayLength,
}

impl fmt::Display for CovarianceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CovarianceError::NoSnapshots => write!(f, "no snapshots provided"),
            CovarianceError::RaggedSnapshots => write!(f, "snapshots have differing lengths"),
            CovarianceError::BadSubarrayLength => {
                write!(f, "subarray length must be in 2..=elements")
            }
        }
    }
}

impl Error for CovarianceError {}

/// Sample covariance `R = (1/N) Σ x_n x_nᴴ` of equal-length snapshots.
///
/// # Errors
/// [`CovarianceError::NoSnapshots`] / [`CovarianceError::RaggedSnapshots`].
pub fn sample_covariance(snapshots: &[Vec<Complex64>]) -> Result<CMatrix, CovarianceError> {
    let _stage = mpdf_obs::stage!("music.covariance");
    let first = snapshots.first().ok_or(CovarianceError::NoSnapshots)?;
    let m = first.len();
    if m == 0 || snapshots.iter().any(|s| s.len() != m) {
        return Err(CovarianceError::RaggedSnapshots);
    }
    let mut r = CMatrix::zeros(m, m);
    for x in snapshots {
        // In-place rank-1 accumulation: no temporary matrix per snapshot.
        r.axpy_outer(x, x);
    }
    r.scale_in_place(1.0 / snapshots.len() as f64);
    contract::assert_hermitian("sample covariance", &r, 1e-9 * (1.0 + r.trace().norm()));
    Ok(r)
}

/// Forward–backward averaging: `R_fb = (R + J·R*·J)/2` with `J` the
/// exchange matrix. Decorrelates coherent sources on symmetric arrays.
///
/// # Panics
/// Panics if `r` is not square.
pub fn forward_backward(r: &CMatrix) -> CMatrix {
    assert!(r.is_square(), "covariance must be square");
    let m = r.rows();
    // Fused element-wise form of `(R + J·conj(R)·J)/2`: one allocation
    // instead of three, each entry the identical `(a + b)·0.5` the
    // flip-add-scale formulation produced.
    let fb = CMatrix::from_fn(m, m, |i, j| {
        (r[(i, j)] + r[(m - 1 - i, m - 1 - j)].conj()).scale(0.5)
    });
    contract::assert_hermitian(
        "forward–backward covariance",
        &fb,
        1e-9 * (1.0 + fb.trace().norm()),
    );
    fb
}

/// Spatially smoothed covariance: averages the covariances of all
/// contiguous subarrays of length `subarray_len`. The paper (§IV-B1)
/// notes this "relegates three antennas to only two" — the output order
/// is `subarray_len`, trading aperture for coherence handling.
///
/// # Errors
/// [`CovarianceError::BadSubarrayLength`] unless
/// `2 ≤ subarray_len ≤ element count`, plus the [`sample_covariance`]
/// conditions.
pub fn spatially_smoothed_covariance(
    snapshots: &[Vec<Complex64>],
    subarray_len: usize,
) -> Result<CMatrix, CovarianceError> {
    let first = snapshots.first().ok_or(CovarianceError::NoSnapshots)?;
    let m = first.len();
    if subarray_len < 2 || subarray_len > m {
        return Err(CovarianceError::BadSubarrayLength);
    }
    let num_sub = m - subarray_len + 1;
    let mut acc = CMatrix::zeros(subarray_len, subarray_len);
    for start in 0..num_sub {
        let sub: Vec<Vec<Complex64>> = snapshots
            .iter()
            .map(|s| {
                if s.len() != m {
                    Vec::new()
                } else {
                    s[start..start + subarray_len].to_vec()
                }
            })
            .collect();
        if sub.iter().any(|s| s.len() != subarray_len) {
            return Err(CovarianceError::RaggedSnapshots);
        }
        let r = sample_covariance(&sub)?;
        acc = &acc + &r;
    }
    Ok(acc.scale(1.0 / num_sub as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn covariance_of_single_snapshot_is_outer_product() {
        let x = vec![c(1.0, 0.0), c(0.0, 1.0)];
        let r = sample_covariance(std::slice::from_ref(&x)).unwrap();
        assert_eq!(r[(0, 0)], c(1.0, 0.0));
        assert_eq!(r[(0, 1)], c(0.0, -1.0));
        assert_eq!(r[(1, 0)], c(0.0, 1.0));
        assert_eq!(r[(1, 1)], c(1.0, 0.0));
    }

    #[test]
    fn covariance_is_hermitian_psd() {
        let snaps: Vec<Vec<Complex64>> = (0..20)
            .map(|i| {
                let t = i as f64 * 0.37;
                vec![
                    Complex64::cis(t),
                    Complex64::cis(1.7 * t) * 0.5,
                    c(t.sin(), t.cos()),
                ]
            })
            .collect();
        let r = sample_covariance(&snaps).unwrap();
        assert!(r.is_hermitian(1e-12));
        // Diagonal is real non-negative.
        for i in 0..3 {
            assert!(r[(i, i)].re >= 0.0);
            assert!(r[(i, i)].im.abs() < 1e-12);
        }
        // Quadratic form non-negative for arbitrary vector.
        let v = [c(0.3, -0.2), c(1.0, 0.1), c(-0.4, 0.8)];
        assert!(r.quadratic_form(&v).re >= -1e-12);
    }

    #[test]
    fn errors_on_bad_input() {
        assert_eq!(sample_covariance(&[]), Err(CovarianceError::NoSnapshots));
        let ragged = vec![vec![c(1.0, 0.0)], vec![c(1.0, 0.0), c(0.0, 1.0)]];
        assert_eq!(
            sample_covariance(&ragged),
            Err(CovarianceError::RaggedSnapshots)
        );
    }

    #[test]
    fn forward_backward_preserves_hermitian_and_trace() {
        let snaps: Vec<Vec<Complex64>> = (0..10)
            .map(|i| {
                vec![
                    Complex64::cis(i as f64),
                    Complex64::cis(2.0 * i as f64),
                    c(1.0, 0.0),
                ]
            })
            .collect();
        let r = sample_covariance(&snaps).unwrap();
        let fb = forward_backward(&r);
        assert!(fb.is_hermitian(1e-12));
        assert!((fb.trace().re - r.trace().re).abs() < 1e-9);
    }

    #[test]
    fn smoothing_reduces_order() {
        let snaps: Vec<Vec<Complex64>> = (0..16)
            .map(|i| {
                let t = i as f64;
                vec![
                    Complex64::cis(t),
                    Complex64::cis(t + 1.0),
                    Complex64::cis(t + 2.0),
                ]
            })
            .collect();
        let r = spatially_smoothed_covariance(&snaps, 2).unwrap();
        assert_eq!(r.rows(), 2);
        assert!(r.is_hermitian(1e-12));
    }

    #[test]
    fn smoothing_rejects_bad_lengths() {
        let snaps = vec![vec![c(1.0, 0.0); 3]];
        assert_eq!(
            spatially_smoothed_covariance(&snaps, 1),
            Err(CovarianceError::BadSubarrayLength)
        );
        assert_eq!(
            spatially_smoothed_covariance(&snaps, 4),
            Err(CovarianceError::BadSubarrayLength)
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The in-place `axpy_outer` accumulator must reproduce the
            /// naive outer-product-and-add formulation it replaced.
            #[test]
            fn accumulator_matches_outer_product_formulation(
                parts in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 24),
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
                let fast = sample_covariance(&snaps).unwrap();
                // The pre-optimization formulation, verbatim.
                let mut slow = CMatrix::zeros(3, 3);
                for x in &snaps {
                    let outer = CMatrix::outer(x, x);
                    slow = &slow + &outer;
                }
                let slow = slow.scale(1.0 / snaps.len() as f64);
                prop_assert!(
                    (&fast - &slow).frobenius_norm() <= 1e-12,
                    "accumulator drifted from outer-product formulation by {}",
                    (&fast - &slow).frobenius_norm()
                );
            }

            /// The Hermitian contracts wired into the estimators hold
            /// for arbitrary bounded snapshot sets.
            #[test]
            fn random_snapshot_covariances_are_hermitian(
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
                let r = sample_covariance(&snaps).unwrap();
                prop_assert!(r.is_hermitian(1e-9));
                let fb = forward_backward(&r);
                prop_assert!(fb.is_hermitian(1e-9));
                // Diagonal powers stay real and non-negative.
                for i in 0..3 {
                    prop_assert!(r[(i, i)].re >= 0.0);
                    prop_assert!(r[(i, i)].im.abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn smoothing_decorrelates_coherent_sources() {
        // Two fully coherent plane waves on a 3-element λ/2 ULA: the plain
        // covariance is rank-1; smoothing restores rank 2.
        let theta1: f64 = 0.2;
        let theta2: f64 = -0.7;
        let steer =
            |theta: f64, m: usize| Complex64::cis(-std::f64::consts::PI * m as f64 * theta.sin());
        let snaps: Vec<Vec<Complex64>> = (0..32)
            .map(|i| {
                let s = Complex64::cis(i as f64 * 0.9); // same symbol on both paths (coherent)
                (0..3)
                    .map(|m| s * steer(theta1, m) + s * steer(theta2, m) * 0.8)
                    .collect()
            })
            .collect();
        let plain = sample_covariance(&snaps).unwrap();
        let eig_plain = mpdf_rfmath::eig::hermitian_eig(&plain, 1e-12).unwrap();
        // Coherent: second eigenvalue collapses.
        assert!(eig_plain.values[1] < 1e-6 * eig_plain.values[0]);
        let smooth = spatially_smoothed_covariance(&snaps, 2).unwrap();
        let eig_smooth = mpdf_rfmath::eig::hermitian_eig(&smooth, 1e-12).unwrap();
        assert!(
            eig_smooth.values[1] > 1e-3 * eig_smooth.values[0],
            "smoothing must restore rank: {:?}",
            eig_smooth.values
        );
    }
}
