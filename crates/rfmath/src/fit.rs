//! Least-squares curve fitting.
//!
//! The paper fits the relationship between RSS change `Δs` and the
//! multipath factor `μ` with a logarithmic model (Fig. 3b/3c). This module
//! provides ordinary least-squares [`linear_fit`] and the derived
//! [`log_fit`] `y = a·ln(x) + b`, each with the coefficient of
//! determination R² used to judge fit quality.

use std::error::Error;
use std::fmt;

use crate::stats::mean;

/// Error returned by the fitting routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two usable points were supplied.
    TooFewPoints,
    /// All x-values were identical (or unusable), so the slope is undefined.
    DegenerateX,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewPoints => write!(f, "need at least two points to fit"),
            FitError::DegenerateX => write!(f, "x-values are degenerate"),
        }
    }
}

impl Error for FitError {}

/// A fitted model `y = slope·g(x) + intercept` with its R².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Slope coefficient `a`.
    pub slope: f64,
    /// Intercept `b`.
    pub intercept: f64,
    /// Coefficient of determination in `[..1]` (can be negative for
    /// pathological fits).
    pub r_squared: f64,
}

/// Slope and intercept of the ordinary least-squares line `y = a·x + b`
/// over the finite `(x, y)` pairs, without collecting the points or
/// computing R² (the per-packet linear-phase fit reads only the
/// line). [`linear_fit`] is this plus R².
///
/// # Errors
/// Same as [`linear_fit`].
pub fn linear_trend(xs: &[f64], ys: &[f64]) -> Result<(f64, f64), FitError> {
    let count = finite_pairs(xs, ys).count();
    if count < 2 {
        return Err(FitError::TooFewPoints);
    }
    let n = count as f64;
    let mx = finite_pairs(xs, ys).map(|p| p.0).sum::<f64>() / n;
    let my = finite_pairs(xs, ys).map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = finite_pairs(xs, ys).map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = finite_pairs(xs, ys).map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx <= f64::EPSILON * n {
        return Err(FitError::DegenerateX);
    }
    let slope = sxy / sxx;
    Ok((slope, my - slope * mx))
}

/// A fixed abscissa for repeated [`linear_trend`] fits, with `x̄` and
/// `Sxx` computed once.
///
/// The μ_k estimator fits every packet against the same OFDM indices,
/// so [`linear_trend`]'s x-side passes recompute constants. When every
/// `x` and every `y` of a fit is finite, the finite pairs are all pairs
/// in order, so `x̄` and `Sxx` are the sums [`linear_trend`] would form
/// and [`TrendAxis::trend`] is bitwise its result; any other fit runs
/// [`linear_trend`] itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrendAxis {
    xs: Vec<f64>,
    /// `(x̄, Sxx)` when every `x` is finite and there are at least two.
    stats: Option<(f64, f64)>,
}

impl TrendAxis {
    /// Precomputes the x-side statistics of `xs`.
    pub fn new(xs: Vec<f64>) -> Self {
        let stats = (xs.len() >= 2 && xs.iter().all(|x| x.is_finite())).then(|| {
            let n = xs.len() as f64;
            let mx = xs.iter().sum::<f64>() / n;
            let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
            (mx, sxx)
        });
        TrendAxis { xs, stats }
    }

    /// `linear_trend` of `ys` against the axis, bitwise.
    ///
    /// # Errors
    /// Same as [`linear_trend`].
    pub fn trend(&self, ys: &[f64]) -> Result<(f64, f64), FitError> {
        let n = self.xs.len() as f64;
        match self.stats {
            Some((mx, sxx))
                if ys.len() == self.xs.len()
                    && sxx > f64::EPSILON * n
                    && ys.iter().all(|y| y.is_finite()) =>
            {
                let my = ys.iter().sum::<f64>() / n;
                let sxy: f64 = self
                    .xs
                    .iter()
                    .zip(ys)
                    .map(|(x, y)| (x - mx) * (y - my))
                    .sum();
                let slope = sxy / sxx;
                Ok((slope, my - slope * mx))
            }
            _ => linear_trend(&self.xs, ys),
        }
    }
}

/// The finite `(x, y)` pairs of two columns.
fn finite_pairs<'a>(xs: &'a [f64], ys: &'a [f64]) -> impl Iterator<Item = (f64, f64)> + 'a {
    xs.iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
}

/// Ordinary least squares for `y = a·x + b`.
///
/// Non-finite points are ignored.
///
/// # Errors
/// [`FitError::TooFewPoints`] with fewer than two usable points,
/// [`FitError::DegenerateX`] when the x-variance vanishes.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Result<Fit, FitError> {
    let (slope, intercept) = linear_trend(xs, ys)?;
    let n = finite_pairs(xs, ys).count() as f64;
    let my = finite_pairs(xs, ys).map(|p| p.1).sum::<f64>() / n;
    // R² = 1 − SS_res / SS_tot.
    let ss_tot: f64 = finite_pairs(xs, ys).map(|p| (p.1 - my) * (p.1 - my)).sum();
    let ss_res: f64 = finite_pairs(xs, ys)
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
    Ok(Fit {
        slope,
        intercept,
        r_squared,
    })
}

/// Logarithmic least squares `y = a·ln(x) + b` by transforming x.
///
/// Points with `x ≤ 0` or non-finite coordinates are ignored (the multipath
/// factor is strictly positive, so nothing meaningful is lost).
///
/// # Errors
/// Same conditions as [`linear_fit`] after filtering.
pub fn log_fit(xs: &[f64], ys: &[f64]) -> Result<Fit, FitError> {
    let (lx, ly): (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x.ln(), y))
        .unzip();
    linear_fit(&lx, &ly)
}

/// Pearson correlation coefficient of two equal-length series; `0.0` when
/// either side is degenerate.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
        sxy += (x - mx) * (y - my);
    }
    if sxx <= f64::EPSILON || syy <= f64::EPSILON {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trend_axis_is_bitwise_linear_trend() {
        let idx = [
            -28, -26, -24, -22, -20, -18, -16, -14, -12, -10, -8, -6, -4, -2, -1, 1, 3, 5, 7, 9,
            11, 13, 15, 17, 19, 21, 23, 25, 27, 28,
        ];
        let axis = TrendAxis::new(idx.iter().map(|&i| f64::from(i)).collect());
        let bits = |r: Result<(f64, f64), FitError>| r.map(|(a, b)| (a.to_bits(), b.to_bits()));
        let mut cases: Vec<Vec<f64>> = (0..40)
            .map(|p| {
                (0..30)
                    .map(|k| (p * 30 + k) as f64 * 0.0137 - 3.0 + ((p * k) % 7) as f64 * 0.1)
                    .collect()
            })
            .collect();
        let mut nan = cases[0].clone();
        nan[4] = f64::NAN;
        let mut inf = cases[1].clone();
        inf[29] = f64::NEG_INFINITY;
        cases.extend([nan, inf, vec![1.0; 29], vec![f64::NAN; 30]]);
        for ys in &cases {
            assert_eq!(bits(axis.trend(ys)), bits(linear_trend(&axis.xs, ys)));
        }
        // Degenerate and non-finite axes take the general path too.
        for xs in [vec![2.0; 30], vec![f64::NAN; 30], vec![1.0]] {
            let axis = TrendAxis::new(xs);
            let ys = vec![0.5; axis.xs.len()];
            assert_eq!(bits(axis.trend(&ys)), bits(linear_trend(&axis.xs, &ys)));
        }
    }

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 1.0).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 3.0 * x + if i % 2 == 0 { 0.4 } else { -0.4 })
            .collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 3.0).abs() < 0.1);
        assert!(fit.r_squared > 0.9 && fit.r_squared < 1.0);
    }

    #[test]
    fn log_fit_recovers_log_model() {
        // Mirrors Fig. 3b: Δs falls ~logarithmically with μ.
        let xs: Vec<f64> = (1..100).map(|i| i as f64 * 0.01).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -4.0 * x.ln() + 2.0).collect();
        let fit = log_fit(&xs, &ys).unwrap();
        assert!((fit.slope + 4.0).abs() < 1e-9);
        assert!((fit.intercept - 2.0).abs() < 1e-9);
    }

    #[test]
    fn log_fit_filters_nonpositive_x() {
        let xs = [0.0, -1.0, 1.0, std::f64::consts::E];
        let ys = [100.0, 100.0, 2.0, 6.0];
        let fit = log_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 4.0).abs() < 1e-9);
        assert!((fit.intercept - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_error() {
        assert_eq!(linear_fit(&[1.0], &[2.0]), Err(FitError::TooFewPoints));
        assert_eq!(
            linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(FitError::DegenerateX)
        );
        assert_eq!(
            log_fit(&[-1.0, -2.0], &[0.0, 0.0]),
            Err(FitError::TooFewPoints)
        );
    }

    #[test]
    fn nan_points_are_skipped() {
        let xs = [0.0, 1.0, f64::NAN, 2.0];
        let ys = [1.0, 3.0, 0.0, 5.0];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_limits() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let up: Vec<f64> = xs.iter().map(|x| 2.0 * x).collect();
        let down: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[1.0; 10]), 0.0);
        assert_eq!(pearson(&xs[..3], &up), 0.0); // length mismatch
    }
}
