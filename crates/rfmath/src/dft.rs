//! Discrete Fourier transforms.
//!
//! Three flavours are provided:
//!
//! - [`dft`]/[`idft`] — direct O(N²) transforms for arbitrary lengths;
//!   plenty fast for 30-subcarrier CSI vectors.
//! - [`fft`]/[`ifft`] — radix-2 Cooley–Tukey for power-of-two lengths,
//!   used by the benchmark harness on longer synthetic signals.
//! - [`nudft_at_delay`] — evaluates the inverse transform of a channel
//!   frequency response sampled on a **non-uniform** frequency grid at an
//!   arbitrary delay τ. The Intel 5300 reports CSI on a non-uniform
//!   subcarrier grid (paper footnote 1), so the dominant-tap power
//!   `|ĥ(0)|²` of Eq. 10 is computed with this routine.

use std::error::Error;
use std::f64::consts::PI;
use std::fmt;

use crate::complex::Complex64;

/// Forward twiddle table `w[j] = e^{-2πi j/N}` for length `n`, built once
/// per transform (O(N) `cis` calls against the O(N²) sum). The inverse
/// transform conjugates on lookup.
fn forward_twiddles(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|j| Complex64::cis(-2.0 * PI * j as f64 / n as f64))
        .collect()
}

/// Error returned by the fixed-radix FFT routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FftError {
    /// The input length was not a power of two.
    NotPowerOfTwo(usize),
    /// The input was empty.
    Empty,
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::NotPowerOfTwo(n) => write!(f, "length {n} is not a power of two"),
            FftError::Empty => write!(f, "input is empty"),
        }
    }
}

impl Error for FftError {}

/// Direct forward DFT: `X[k] = Σ_n x[n]·e^{-2πi kn/N}`.
///
/// Accepts any non-zero length. Returns an empty vector for empty input.
/// Twiddle factors come from one table built per call — no `sin`/`cos`
/// in the O(N²) loop.
pub fn dft(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let w = forward_twiddles(n);
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex64::ZERO;
        for (i, &xi) in x.iter().enumerate() {
            acc += xi * w[(k * i) % n];
        }
        out.push(acc);
    }
    out
}

/// Direct inverse DFT with `1/N` normalization: `x[n] = (1/N) Σ_k X[k]·e^{2πi kn/N}`.
///
/// Shares the forward twiddle table, conjugated on lookup.
pub fn idft(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let w = forward_twiddles(n);
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex64::ZERO;
        for (i, &xi) in x.iter().enumerate() {
            acc += xi * w[(k * i) % n].conj();
        }
        out.push(acc / n as f64);
    }
    out
}

/// Radix-2 in-place Cooley–Tukey FFT.
///
/// # Errors
/// Returns [`FftError::NotPowerOfTwo`] for non-power-of-two lengths and
/// [`FftError::Empty`] for empty input.
pub fn fft(x: &[Complex64]) -> Result<Vec<Complex64>, FftError> {
    let mut buf = x.to_vec();
    fft_in_place(&mut buf, false)?;
    Ok(buf)
}

/// Radix-2 inverse FFT with `1/N` normalization.
///
/// # Errors
/// Same conditions as [`fft`].
pub fn ifft(x: &[Complex64]) -> Result<Vec<Complex64>, FftError> {
    let mut buf = x.to_vec();
    fft_in_place(&mut buf, true)?;
    let n = buf.len() as f64;
    for z in &mut buf {
        *z /= n;
    }
    Ok(buf)
}

fn fft_in_place(buf: &mut [Complex64], inverse: bool) -> Result<(), FftError> {
    let n = buf.len();
    if n == 0 {
        return Err(FftError::Empty);
    }
    if !n.is_power_of_two() {
        return Err(FftError::NotPowerOfTwo(n));
    }
    if n == 1 {
        return Ok(());
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            buf.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex64::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex64::ONE;
            for j in 0..len / 2 {
                let u = buf[i + j];
                let v = buf[i + j + len / 2] * w;
                buf[i + j] = u + v;
                buf[i + j + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
    Ok(())
}

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

    fn close_vec(a: &[Complex64], b: &[Complex64], eps: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (*x - *y).norm() < eps)
    }

    fn impulse(n: usize, at: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; n];
        v[at] = Complex64::ONE;
        v
    }

    #[test]
    fn dft_of_impulse_is_flat() {
        let x = impulse(8, 0);
        let y = dft(&x);
        assert!(y.iter().all(|z| (*z - Complex64::ONE).norm() < 1e-12));
    }

    #[test]
    fn dft_of_shifted_impulse_is_phasor() {
        let x = impulse(8, 1);
        let y = dft(&x);
        for (k, z) in y.iter().enumerate() {
            let expect = Complex64::cis(-2.0 * PI * k as f64 / 8.0);
            assert!((*z - expect).norm() < 1e-12);
        }
    }

    #[test]
    fn idft_inverts_dft_arbitrary_length() {
        let x: Vec<Complex64> = (0..30)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let y = idft(&dft(&x));
        assert!(close_vec(&x, &y, 1e-10));
    }

    #[test]
    fn fft_matches_direct_dft() {
        let x: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let a = dft(&x);
        let b = fft(&x).unwrap();
        assert!(close_vec(&a, &b, 1e-9));
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex64> = (0..128)
            .map(|i| Complex64::new((i % 7) as f64, (i % 5) as f64))
            .collect();
        let y = ifft(&fft(&x).unwrap()).unwrap();
        assert!(close_vec(&x, &y, 1e-9));
    }

    #[test]
    fn fft_rejects_non_power_of_two() {
        let x = vec![Complex64::ONE; 30];
        assert_eq!(fft(&x), Err(FftError::NotPowerOfTwo(30)));
        assert_eq!(fft(&[]), Err(FftError::Empty));
    }

    #[test]
    fn parseval_holds_for_fft() {
        let x: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new((i as f64 * 1.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let y = fft(&x).unwrap();
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / 32.0;
        assert!((ex - ey).abs() < 1e-9 * ex.max(1.0));
    }

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
