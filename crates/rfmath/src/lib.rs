//! # mpdf-rfmath — numerics substrate
//!
//! The signal-processing mathematics the rest of the `multipath-hd`
//! workspace is built on. The allowed dependency set contains no complex
//! arithmetic, FFT, eigendecomposition or fitting crates, so this crate
//! implements exactly what the paper's pipeline needs:
//!
//! - [`complex`] — `Complex64` scalar arithmetic (channel superposition).
//! - [`contract`] — `debug_assert`-backed numerical contracts the hot
//!   paths assert at their boundaries (finiteness, normalization,
//!   Hermitian symmetry).
//! - [`matrix`] — dense complex matrices (antenna covariance).
//! - [`eig`] — Hermitian Jacobi eigendecomposition (MUSIC subspaces).
//! - [`dft`] — non-uniform Fourier evaluation (dominant-tap
//!   power `|ĥ(0)|²` of paper Eq. 10 on the Intel 5300's non-uniform
//!   subcarrier grid).
//! - [`stats`] — descriptive statistics, ECDFs and histograms (Figs. 2–4).
//! - [`fit`] — linear/logarithmic least squares (Fig. 3 fits).
//! - [`db`] — decibel conversions (`Δs` in dB, Eq. 5/8).
//!
//! ```
//! use mpdf_rfmath::complex::Complex64;
//! use mpdf_rfmath::dft::nudft_at_delay;
//!
//! // Dominant-tap estimate from a flat two-sample CFR.
//! let h = [Complex64::ONE, Complex64::ONE];
//! let freqs = [2.462e9, 2.4623e9];
//! assert!((nudft_at_delay(&h, &freqs, 0.0).norm() - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod complex;
pub mod contract;
pub mod db;
pub mod dft;
pub mod eig;
pub mod fit;
pub mod matrix;
pub mod stats;

pub use complex::Complex64;
pub use matrix::CMatrix;
