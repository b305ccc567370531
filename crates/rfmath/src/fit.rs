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

impl Fit {
    /// Predicted value of the *linear* model at `x`.
    pub fn predict_linear(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Predicted value of the *logarithmic* model at `x > 0`.
    pub fn predict_log(&self, x: f64) -> f64 {
        self.slope * x.ln() + self.intercept
    }
}

/// Ordinary least squares for `y = a·x + b`.
///
/// Non-finite points are ignored.
///
/// # Errors
/// [`FitError::TooFewPoints`] with fewer than two usable points,
/// [`FitError::DegenerateX`] when the x-variance vanishes.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Result<Fit, FitError> {
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
    // R² = 1 − SS_res / SS_tot.
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
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 1.0).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.predict_linear(100.0) - 249.0).abs() < 1e-9);
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
        assert!((fit.predict_log(0.5) - (-4.0 * 0.5f64.ln() + 2.0)).abs() < 1e-9);
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
