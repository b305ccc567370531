//! Property-based tests for the numerics substrate.

use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::dft::nudft_at_delay;
use mpdf_rfmath::eig::hermitian_eig;
use mpdf_rfmath::fit::{linear_fit, linear_trend, log_fit, FitError};
use mpdf_rfmath::matrix::CMatrix;
use mpdf_rfmath::stats::{mean, median, median_in_place, median_with, variance, Ecdf};
use proptest::prelude::*;

fn finite() -> impl Strategy<Value = f64> {
    -1e3f64..1e3f64
}

/// Values that stress an ordering: NaNs of both signs and two payloads,
/// signed zeros, infinities, and a few repeats, mixed with finite draws.
fn awkward() -> impl Strategy<Value = f64> {
    (0usize..12, finite()).prop_map(|(kind, x)| match kind {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::from_bits(0x7ff8_0000_0000_0001),
        3 => 0.0,
        4 => -0.0,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        7 => 1.5,
        8 => -2.25,
        _ => x,
    })
}

/// Least squares over a collected vector of the finite pairs: the
/// reference formulation `linear_trend` and `linear_fit` must reproduce
/// bit for bit (slope, intercept, R²).
fn collected_linear_fit(xs: &[f64], ys: &[f64]) -> Result<[u64; 3], FitError> {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .collect();
    if pts.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx <= f64::EPSILON * n {
        return Err(FitError::DegenerateX);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = pts.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
    let ss_res: f64 = pts
        .iter()
        .map(|p| {
            let e = p.1 - (slope * p.0 + intercept);
            e * e
        })
        .sum();
    let r_squared = if ss_tot <= f64::EPSILON {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Ok([slope.to_bits(), intercept.to_bits(), r_squared.to_bits()])
}

/// The median as computed before selection replaced sorting: a full
/// `total_cmp` sort of a copy.
fn sorted_median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn complex() -> impl Strategy<Value = Complex64> {
    (finite(), finite()).prop_map(|(re, im)| Complex64::new(re, im))
}

fn complex_vec(
    len: impl Into<proptest::collection::SizeRange>,
) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec(complex(), len)
}

proptest! {
    // ---- Complex field axioms ----

    #[test]
    fn complex_addition_commutes(a in complex(), b in complex()) {
        prop_assert!(((a + b) - (b + a)).norm() < 1e-9);
    }

    #[test]
    fn complex_multiplication_commutes(a in complex(), b in complex()) {
        prop_assert!(((a * b) - (b * a)).norm() < 1e-6);
    }

    #[test]
    fn complex_multiplication_associates(a in complex(), b in complex(), c in complex()) {
        let lhs = (a * b) * c;
        let rhs = a * (b * c);
        let scale = lhs.norm().max(rhs.norm()).max(1.0);
        prop_assert!((lhs - rhs).norm() / scale < 1e-9);
    }

    #[test]
    fn complex_distributes(a in complex(), b in complex(), c in complex()) {
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        let scale = lhs.norm().max(rhs.norm()).max(1.0);
        prop_assert!((lhs - rhs).norm() / scale < 1e-9);
    }

    #[test]
    fn complex_inverse_cancels(a in complex()) {
        prop_assume!(a.norm() > 1e-6);
        prop_assert!((a * a.inv() - Complex64::ONE).norm() < 1e-7);
    }

    #[test]
    fn norm_is_multiplicative(a in complex(), b in complex()) {
        let lhs = (a * b).norm();
        let rhs = a.norm() * b.norm();
        prop_assert!((lhs - rhs).abs() <= 1e-9 * rhs.max(1.0));
    }

    #[test]
    fn conjugation_is_involution(a in complex()) {
        prop_assert_eq!(a.conj().conj(), a);
    }

    #[test]
    fn polar_round_trips(a in complex()) {
        prop_assume!(a.norm() > 1e-9);
        let (r, t) = a.to_polar();
        prop_assert!((Complex64::from_polar(r, t) - a).norm() < 1e-9 * r.max(1.0));
    }

    // ---- Transforms ----

    #[test]
    fn nudft_zero_delay_is_mean(x in complex_vec(1..31usize)) {
        let freqs: Vec<f64> = (0..x.len()).map(|i| 2.4e9 + i as f64 * 312.5e3).collect();
        let got = nudft_at_delay(&x, &freqs, 0.0);
        let mean: Complex64 = x.iter().sum::<Complex64>() / x.len() as f64;
        prop_assert!((got - mean).norm() < 1e-9 * mean.norm().max(1.0));
    }

    // ---- Eigendecomposition ----

    #[test]
    fn hermitian_eig_reconstructs(entries in proptest::collection::vec((finite(), finite()), 9)) {
        // Build a 3×3 Hermitian matrix from arbitrary entries: A = BᴴB + εI.
        let b = CMatrix::from_fn(3, 3, |r, c| {
            let (re, im) = entries[r * 3 + c];
            Complex64::new(re / 100.0, im / 100.0)
        });
        let a = &(&b.hermitian() * &b) + &CMatrix::identity(3).scale(0.01);
        let e = hermitian_eig(&a, 1e-12).unwrap();
        let resid = (&a - &e.reconstruct()).frobenius_norm() / a.frobenius_norm();
        prop_assert!(resid < 1e-8, "residual {resid}");
        // PSD + shift: all eigenvalues ≥ 0.01 − tol.
        for &v in &e.values {
            prop_assert!(v >= 0.01 - 1e-8);
        }
        // Unitary eigenvectors.
        let gram = &e.vectors.hermitian() * &e.vectors;
        prop_assert!((&gram - &CMatrix::identity(3)).frobenius_norm() < 1e-7);
        // Trace preserved.
        let tr: f64 = e.values.iter().sum();
        prop_assert!((tr - a.trace().re).abs() < 1e-7 * a.trace().re.abs().max(1.0));
    }

    // ---- Statistics ----

    #[test]
    fn variance_is_nonnegative_and_shift_invariant(xs in proptest::collection::vec(finite(), 2..64), shift in finite()) {
        let v = variance(&xs);
        prop_assert!(v >= 0.0);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((variance(&shifted) - v).abs() < 1e-5 * v.max(1.0));
    }

    #[test]
    fn mean_bounded_by_extremes(xs in proptest::collection::vec(finite(), 1..64)) {
        let m = mean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn median_splits_mass(xs in proptest::collection::vec(finite(), 1..64)) {
        let med = median(&xs);
        let below = xs.iter().filter(|&&x| x <= med + 1e-12).count();
        let above = xs.iter().filter(|&&x| x >= med - 1e-12).count();
        prop_assert!(below * 2 >= xs.len());
        prop_assert!(above * 2 >= xs.len());
    }

    #[test]
    fn selected_median_is_bitwise_the_sorted_median(
        xs in proptest::collection::vec(awkward(), 0..48)
    ) {
        // Which NaN payload `0.5 * (a + b)` keeps depends on how the
        // optimizer orders the operands, so a NaN median matches any NaN;
        // every other median must match bit for bit.
        let expect = sorted_median(&xs);
        let same = |got: f64| {
            if expect.is_nan() {
                got.is_nan()
            } else {
                got.to_bits() == expect.to_bits()
            }
        };
        prop_assert!(same(median(&xs)));
        prop_assert!(same(median_with(&xs, &mut Vec::new())));
        let mut scratch = xs.clone();
        prop_assert!(same(median_in_place(&mut scratch)));
        // Reordered, not altered: the same multiset of bit patterns.
        let mut before: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        let mut after: Vec<u64> = scratch.iter().map(|x| x.to_bits()).collect();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn ecdf_is_monotone_cdf(xs in proptest::collection::vec(finite(), 1..64)) {
        let e = Ecdf::new(&xs);
        let curve = e.curve(32);
        for w in curve.windows(2) {
            prop_assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        prop_assert!(curve.last().map(|p| p.1) == Some(1.0), "ends at {:?}", curve.last());
        prop_assert!(e.eval(f64::INFINITY) == 1.0);
        prop_assert!(e.eval(f64::NEG_INFINITY) == 0.0);
    }

    // ---- Fitting ----

    #[test]
    fn linear_fit_recovers_exact_lines(a in -50f64..50.0, b in -50f64..50.0, n in 3usize..40) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope - a).abs() < 1e-6 * a.abs().max(1.0));
        prop_assert!((fit.intercept - b).abs() < 1e-6 * b.abs().max(1.0));
    }

    #[test]
    fn linear_fit_is_bitwise_the_collected_formulation(
        xs in proptest::collection::vec(awkward(), 0..40),
        ys in proptest::collection::vec(awkward(), 0..40),
        constant_x in 0usize..2,
    ) {
        // A constant x column (finite or not) is the degenerate case.
        let xs: Vec<f64> = if constant_x == 1 {
            xs.iter().map(|_| xs[0]).collect()
        } else {
            xs
        };
        let reference = collected_linear_fit(&xs, &ys);
        let lean = linear_trend(&xs, &ys).map(|(a, b)| [a.to_bits(), b.to_bits()]);
        prop_assert_eq!(lean, reference.clone().map(|r| [r[0], r[1]]));
        let full = linear_fit(&xs, &ys)
            .map(|f| [f.slope.to_bits(), f.intercept.to_bits(), f.r_squared.to_bits()]);
        prop_assert_eq!(full, reference);
    }

    #[test]
    fn log_fit_recovers_exact_log_curves(a in -20f64..20.0, b in -20f64..20.0) {
        let xs: Vec<f64> = (1..50).map(|i| i as f64 * 0.02).collect();
        let ys: Vec<f64> = xs.iter().map(|x| a * x.ln() + b).collect();
        let fit = log_fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope - a).abs() < 1e-6 * a.abs().max(1.0));
        prop_assert!((fit.intercept - b).abs() < 1e-6 * b.abs().max(1.0));
    }
}
