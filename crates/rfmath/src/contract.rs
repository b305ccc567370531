//! Runtime numerical contracts for the hot signal-processing paths.
//!
//! The pipeline's numeric kernels carry physical invariants the type
//! system cannot express: multipath factors `μ_k` are non-negative,
//! stability ratios live in `[0, 1]`, Eq. 12 weights sum to one, MUSIC
//! pseudospectra are strictly positive and covariances are Hermitian.
//! Violating one of these upstream produces silent garbage downstream
//! (NaN-poisoned ROC curves, negative "power"), so the hot paths assert
//! them at their boundaries.
//!
//! Every check is `debug_assert!`-backed: it runs under `cargo test` and
//! debug builds and compiles to nothing in release, so the contracts are
//! free on the benchmark/eval configurations that matter for throughput.
//!
//! Conventions:
//!
//! - `label` names the quantity being checked (it appears verbatim in the
//!   panic message, e.g. `` contract `multipath factors μ` violated ``).
//! - Element-wise checks are vacuously true for empty slices; emptiness
//!   itself is a *shape* error the callers already reject with their own
//!   (always-on) asserts.
//! - All checks imply finiteness: a NaN or infinity fails every contract.

use crate::matrix::CMatrix;

/// Asserts every value is finite (neither NaN nor ±∞).
#[track_caller]
pub fn assert_finite(label: &str, values: &[f64]) {
    debug_assert!(
        values.iter().all(|v| v.is_finite()),
        "contract `{label}` violated: non-finite value at index {} of {}",
        first_offender(values, |v| !v.is_finite()),
        values.len()
    );
}

/// Asserts every value is finite and `>= 0` (e.g. multipath factors
/// `μ_k`, spectral powers).
#[track_caller]
pub fn assert_non_negative(label: &str, values: &[f64]) {
    debug_assert!(
        values.iter().all(|v| v.is_finite() && *v >= 0.0),
        "contract `{label}` violated: negative or non-finite value at index {} of {}",
        first_offender(values, |v| !(v.is_finite() && *v >= 0.0)),
        values.len()
    );
}

/// Asserts every value is finite and strictly `> 0` (e.g. the MUSIC
/// pseudospectrum, whose construction clamps the denominator away from
/// zero).
#[track_caller]
pub fn assert_positive(label: &str, values: &[f64]) {
    debug_assert!(
        values.iter().all(|v| v.is_finite() && *v > 0.0),
        "contract `{label}` violated: non-positive or non-finite value at index {} of {}",
        first_offender(values, |v| !(v.is_finite() && *v > 0.0)),
        values.len()
    );
}

/// Asserts every value lies in the closed unit interval `[0, 1]`
/// (e.g. the stability ratio `r_k` of Eq. 13/14).
#[track_caller]
pub fn assert_unit_interval(label: &str, values: &[f64]) {
    debug_assert!(
        values
            .iter()
            .all(|v| v.is_finite() && (0.0..=1.0).contains(v)),
        "contract `{label}` violated: value outside [0, 1] at index {} of {}",
        first_offender(values, |v| !(v.is_finite() && (0.0..=1.0).contains(v))),
        values.len()
    );
}

/// Asserts the values form a normalized weight vector: all finite,
/// non-negative, and summing to 1 within `tol`. Empty slices are
/// vacuously accepted (see the module docs).
#[track_caller]
pub fn assert_normalized(label: &str, values: &[f64], tol: f64) {
    assert_non_negative(label, values);
    debug_assert!(
        values.is_empty() || (values.iter().sum::<f64>() - 1.0).abs() <= tol,
        "contract `{label}` violated: weights sum to {} (expected 1 ± {tol})",
        values.iter().sum::<f64>()
    );
}

/// Asserts the matrix is Hermitian within `tol` (element-wise
/// `|R[i,j] − conj(R[j,i])| ≤ tol`), as every spatial covariance must be.
#[track_caller]
pub fn assert_hermitian(label: &str, matrix: &CMatrix, tol: f64) {
    debug_assert!(
        matrix.is_hermitian(tol),
        "contract `{label}` violated: {}×{} matrix is not Hermitian within {tol}",
        matrix.rows(),
        matrix.cols()
    );
}

/// Index of the first value failing `bad` — only evaluated when a
/// contract has already failed, to point the panic message at the
/// offending element.
fn first_offender(values: &[f64], bad: impl Fn(&f64) -> bool) -> usize {
    values.iter().position(bad).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use proptest::prelude::*;

    /// Runs `f` and reports whether it panicked (contracts are
    /// `debug_assert`-backed, so violations must panic under test).
    /// Only debug builds keep the asserts live, so the tests that expect
    /// a panic are compiled there alone.
    #[cfg(debug_assertions)]
    fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let r = std::panic::catch_unwind(f);
        std::panic::set_hook(prev);
        r.is_err()
    }

    #[test]
    fn accepts_valid_inputs() {
        assert_finite("x", &[0.0, -3.5, 1e300]);
        assert_non_negative("x", &[0.0, 2.0]);
        assert_positive("x", &[f64::MIN_POSITIVE, 1.0]);
        assert_unit_interval("x", &[0.0, 0.5, 1.0]);
        assert_normalized("x", &[0.25, 0.75], 1e-12);
        assert_normalized("x", &[], 1e-12); // vacuous
        assert_hermitian("x", &CMatrix::identity(3), 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn rejects_violations() {
        assert!(panics(|| assert_finite("x", &[1.0, f64::NAN])));
        assert!(panics(|| assert_finite("x", &[f64::INFINITY])));
        assert!(panics(|| assert_non_negative("x", &[-1e-9])));
        assert!(panics(|| assert_positive("x", &[0.0])));
        assert!(panics(|| assert_unit_interval("x", &[1.0 + 1e-9])));
        assert!(panics(|| assert_unit_interval("x", &[-0.1])));
        assert!(panics(|| assert_normalized("x", &[0.6, 0.6], 1e-12)));
        let skew = CMatrix::from_fn(2, 2, |i, j| {
            if i == j {
                Complex64::ONE
            } else {
                Complex64::new(0.0, 1.0) // (0,1) == (1,0): not conjugate
            }
        });
        assert!(panics(|| assert_hermitian("x", &skew, 1e-9)));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn panic_message_names_label_and_offender() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(|| {
            assert_non_negative("multipath factors μ", &[1.0, -2.0, 3.0]);
        });
        std::panic::set_hook(prev);
        let err = result.expect_err("contract must fire");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("multipath factors μ"), "{msg}");
        assert!(msg.contains("index 1"), "{msg}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn finite_samples_always_pass(v in proptest::collection::vec(-1e6f64..1e6, 0..16usize)) {
            assert_finite("prop", &v);
        }

        #[test]
        fn abs_normalization_satisfies_normalized(
            v in proptest::collection::vec(1e-3f64..10.0, 1..32usize),
        ) {
            let total: f64 = v.iter().sum();
            let w: Vec<f64> = v.iter().map(|x| x / total).collect();
            assert_normalized("prop", &w, 1e-9);
            assert_unit_interval("prop", &w);
        }

        #[test]
        fn outer_products_are_hermitian(
            parts in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 2..5usize),
        ) {
            let x: Vec<Complex64> = parts.iter().map(|&(re, im)| Complex64::new(re, im)).collect();
            let r = CMatrix::outer(&x, &x);
            assert_hermitian("prop", &r, 1e-12);
        }

        #[test]
        #[cfg(debug_assertions)]
        fn any_nan_position_is_caught(
            v in proptest::collection::vec(-5.0f64..5.0, 1..8usize),
            idx in 0usize..8,
        ) {
            let has_negative = v.iter().any(|x| *x < 0.0);
            let mut poisoned = v.clone();
            let k = idx % poisoned.len();
            poisoned[k] = f64::NAN;
            prop_assert!(panics(move || assert_finite("prop", &poisoned)));
            prop_assert_eq!(panics(move || assert_non_negative("prop", &v)), has_negative);
        }
    }
}
