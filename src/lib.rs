//! # multipath-hd
//!
//! A full Rust reproduction of *"On Multipath Link Characterization and
//! Adaptation for Device-free Human Detection"* (Zhou, Yang, Wu, Liu, Ni —
//! ICDCS 2015): device-free human detection on commodity WiFi that
//! *harnesses* multipath instead of avoiding it, via the per-subcarrier
//! multipath factor, subcarrier weighting and MUSIC path weighting.
//!
//! This umbrella crate re-exports the workspace layers:
//!
//! | Layer | Crate | Role |
//! |---|---|---|
//! | numerics | [`rfmath`] | complex math, DFT, eigendecomposition, stats |
//! | geometry | [`geom`] | 2-D plan-view primitives |
//! | physics | [`propagation`] | image-method ray tracer + human models |
//! | measurement | [`wifi`] | Intel 5300 CSI emulation, impairments |
//! | AoA | [`music`] | covariance + MUSIC estimator |
//! | detection | [`core`] | multipath factor, weighting, detector |
//! | evaluation | [`eval`] | scenarios, metrics, per-figure experiments |
//!
//! ## Quickstart
//!
//! ```
//! use multipath_hd::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 6×8 m room with a 4 m link, as in the paper's §III measurements.
//! let room = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
//! let link = ChannelModel::new(room, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0))?;
//! let mut rx = CsiReceiver::new(link, 42)?;
//!
//! // Calibrate with the room empty, then monitor.
//! let calibration = rx.capture_static(None, 200)?;
//! let detector = Detector::calibrate(
//!     &calibration,
//!     SubcarrierAndPathWeighting,
//!     DetectorConfig::default(),
//!     0.05,
//! )?;
//! let intruder = HumanBody::new(Vec2::new(4.0, 3.5));
//! let window = rx.capture_static(Some(&intruder), 25)?;
//! let decision = detector.decide(&window)?;
//! assert!(decision.score >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use mpdf_core as core;
pub use mpdf_eval as eval;
pub use mpdf_geom as geom;
pub use mpdf_music as music;
pub use mpdf_propagation as propagation;
pub use mpdf_rfmath as rfmath;
pub use mpdf_session as session;
pub use mpdf_wifi as wifi;

/// One-stop imports for the common pipeline.
pub mod prelude {
    pub use mpdf_core::detector::{Decision, Detector};
    pub use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
    pub use mpdf_core::scheme::{
        Baseline, DetectionScheme, SubcarrierAndPathWeighting, SubcarrierWeighting,
    };
    pub use mpdf_geom::shapes::Rect;
    pub use mpdf_geom::vec2::{Point, Vec2};
    pub use mpdf_propagation::channel::ChannelModel;
    pub use mpdf_propagation::environment::Environment;
    pub use mpdf_propagation::human::HumanBody;
    pub use mpdf_propagation::material::Material;
    pub use mpdf_session::runtime::{SessionConfig, SessionRuntime};
    pub use mpdf_wifi::receiver::{Actor, CsiReceiver, ReceiverConfig};
}
