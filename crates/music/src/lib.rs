//! # mpdf-music — angle-of-arrival estimation
//!
//! The spatial-diversity substrate of the paper (§IV-B): sample covariance
//! estimation with forward–backward averaging ([`covariance`]), and the MUSIC pseudospectrum with peak extraction
//! ([`music`]).
//!
//! ```
//! use mpdf_music::music::{estimate_aoa, AngleGrid, UlaSteering};
//! use mpdf_rfmath::complex::Complex64;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let steering = UlaSteering::three_half_wavelength();
//! // Plane wave from 30°, 64 snapshots with varying symbols.
//! let theta = 30f64.to_radians();
//! let snaps: Vec<Vec<Complex64>> = (0..64)
//!     .map(|i| {
//!         let sym = Complex64::cis(1.3 * i as f64);
//!         steering
//!             .vector(theta)
//!             .into_iter()
//!             .enumerate()
//!             .map(|(m, a)| sym * a + Complex64::cis((i * 5 + m) as f64) * 1e-3)
//!             .collect()
//!     })
//!     .collect();
//! let angles = estimate_aoa(&snaps, &steering, 1, &AngleGrid::full_front(0.5))?;
//! assert!((angles[0] - 30.0).abs() < 2.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod covariance;
pub mod music;

pub use covariance::{forward_backward, sample_covariance};
pub use music::{
    estimate_aoa, pseudospectrum, pseudospectrum_on, AngleGrid, MusicError, Pseudospectrum,
    SteeringTable, UlaSteering,
};
