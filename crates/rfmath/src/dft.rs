//! Fourier evaluation on the Intel 5300's subcarrier grid.
//!
//! [`nudft_at_delay`] evaluates the inverse transform of a channel
//! frequency response sampled on a **non-uniform** frequency grid at an
//! arbitrary delay τ. The Intel 5300 reports CSI on a non-uniform
//! subcarrier grid (paper footnote 1), so the dominant-tap power
//! `|ĥ(0)|²` of Eq. 10 is computed with this routine.

use std::f64::consts::PI;

use crate::complex::Complex64;

/// Evaluates the time-domain channel response at delay `tau` from CFR
/// samples `h_f` taken at (possibly non-uniform) frequencies `freqs_hz`:
///
/// `ĥ(τ) = (1/K) Σ_k H(f_k)·e^{+2πi f_k τ}`
///
/// With `tau = 0` this is the mean of the CFR — the dominant-tap estimate
/// used by the multipath factor (paper Eq. 10, following refs [11, 21]).
/// Frequencies may be absolute or baseband-relative; only their product
/// with `tau` matters, and at `tau = 0` the grid is irrelevant.
///
/// # Panics
/// Panics if `h_f` and `freqs_hz` have different lengths or are empty.
pub fn nudft_at_delay(h_f: &[Complex64], freqs_hz: &[f64], tau: f64) -> Complex64 {
    assert_eq!(
        h_f.len(),
        freqs_hz.len(),
        "CFR samples and frequency grid must have equal length"
    );
    assert!(!h_f.is_empty(), "CFR must be non-empty");
    let k = h_f.len() as f64;
    // τ = 0 is the per-packet hot path (the Eq. 10 dominant-tap estimate):
    // every phasor is exactly 1, so skip the `cis` evaluations entirely.
    // `h · cis(0) = h` bit-for-bit, so this changes nothing numerically.
    if tau == 0.0 {
        return h_f.iter().copied().sum::<Complex64>() / k;
    }
    h_f.iter()
        .zip(freqs_hz)
        .map(|(&h, &f)| h * Complex64::cis(2.0 * PI * f * tau))
        .sum::<Complex64>()
        / k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nudft_at_zero_delay_is_cfr_mean() {
        let h = vec![
            Complex64::new(1.0, 1.0),
            Complex64::new(2.0, -1.0),
            Complex64::new(-0.5, 0.25),
        ];
        let f = vec![2.40e9, 2.41e9, 2.47e9];
        let got = nudft_at_delay(&h, &f, 0.0);
        let mean = (h[0] + h[1] + h[2]) / 3.0;
        assert!((got - mean).norm() < 1e-12);
    }

    #[test]
    fn nudft_recovers_single_path_delay() {
        // Single path at delay τ0: H(f) = e^{-2πi f τ0}. |ĥ(τ)| peaks at τ0.
        let tau0 = 40e-9;
        let freqs: Vec<f64> = (0..30)
            .map(|i| 2.462e9 + (i as f64 - 15.0) * 312.5e3)
            .collect();
        let h: Vec<Complex64> = freqs
            .iter()
            .map(|&f| Complex64::cis(-2.0 * PI * f * tau0))
            .collect();
        let at_tau0 = nudft_at_delay(&h, &freqs, tau0).norm();
        let off = nudft_at_delay(&h, &freqs, tau0 + 150e-9).norm();
        assert!((at_tau0 - 1.0).abs() < 1e-9);
        assert!(off < 0.6 * at_tau0, "off-peak {off} not attenuated");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn nudft_length_mismatch_panics() {
        nudft_at_delay(&[Complex64::ONE], &[1.0, 2.0], 0.0);
    }
}
