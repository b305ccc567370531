//! # mpdf-core — multipath link characterization and adaptation
//!
//! The primary contribution of *"On Multipath Link Characterization and
//! Adaptation for Device-free Human Detection"* (Zhou et al., ICDCS 2015):
//!
//! - [`linkmodel`] — the analytic one-bounce link model (Eq. 2–8).
//! - [`multipath_factor`] — the measurable per-subcarrier proxy `μ_k`
//!   for detection sensitivity (Eq. 9–11).
//! - [`subcarrier_weight`] — frequency-diversity weighting (Eq. 12–15).
//! - [`path_weight`] — spatial-diversity weighting of the MUSIC
//!   pseudospectrum (Eq. 17).
//! - [`profile`], [`scheme`], [`threshold`], [`detector`] — the
//!   calibrate/monitor pipeline with the three evaluated schemes.
//! - [`degrade`] — graceful degradation of fault-impaired windows
//!   (quarantine, gap budgets, reduced-aperture fallback).
//! - [`fade_level`], [`variance`] — related-work comparator and the
//!   mobile-target variance feature.
//! - [`hmm`] — the paper's §V-B1 future-work extension: hidden-Markov
//!   smoothing of the decision stream against magnified background
//!   dynamics.
//!
//! ```
//! use mpdf_core::linkmodel::TwoPathLink;
//!
//! // Destructive superposition ⇒ multipath factor above 1 ⇒ the
//! // subcarrier is extra sensitive to human shadowing.
//! let link = TwoPathLink::new(2.0, std::f64::consts::PI);
//! assert!(link.multipath_factor() > 1.0);
//! assert!(link.shadow_sensitivity_db(0.5).abs() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod degrade;
pub mod detector;
pub mod error;
pub mod fade_level;
pub mod hmm;
pub mod linkmodel;
pub mod multipath_factor;
pub mod path_weight;
pub mod profile;
pub mod scheme;
pub mod subcarrier_weight;
pub mod threshold;
pub mod variance;

pub use degrade::{assess_window, WindowHealth};
pub use detector::{Decision, Detector};
pub use error::DetectError;
pub use hmm::HmmSmoother;
pub use multipath_factor::multipath_factors;
pub use path_weight::PathWeights;
pub use profile::{CalibrationProfile, DetectorConfig};
pub use scheme::{
    Baseline, DetectionScheme, RssiBaseline, SubcarrierAndPathWeighting, SubcarrierWeighting,
};
pub use subcarrier_weight::SubcarrierWeights;
