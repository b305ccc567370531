//! Session lifecycle layer for long-running device-free detection.
//!
//! The paper's pipeline ends at calibration time: a profile and a
//! threshold are frozen, then monitoring runs forever against them. Real
//! deployments span days — doors move, equipment is re-racked, AGC
//! references wander — and the simulator already models exactly that
//! (session clutter/gain drift in `mpdf-wifi`). This crate supplies the
//! adaptation layer the paper's title promises:
//!
//! - [`sentinel`] — EWMA drift sentinels over vacancy-gated window
//!   statistics, classifying the link as `Stable / Drifting / Broken`
//!   with hysteresis;
//! - [`runtime`] — a supervised long-running loop ([`runtime::SessionRuntime`])
//!   wrapping the calibrated `Detector` with staged automatic
//!   recalibration (shadow buffer → candidate profile → rollback guard →
//!   atomic swap), window-counted exponential backoff and graceful
//!   degradation to frozen-profile mode;
//! - [`checkpoint`] — the versioned binary image of the full session
//!   state, so a killed session restores bit-identically. This crate
//!   does no file IO: `mpdf-fleet`'s shard log stores images, and a
//!   one-link shard log is the single-session checkpoint file.
//!
//! Everything is deterministic and clock-free: retry budgets, backoff and
//! watchdog deadlines are counted in *windows*, never wall time, so a
//! session replayed from a checkpoint emits byte-identical decisions.

#![forbid(unsafe_code)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod checkpoint;
pub mod runtime;
pub mod sentinel;

pub use checkpoint::CheckpointError;
pub use runtime::{
    RecalOutcome, RecalPolicy, SessionConfig, SessionDecision, SessionMode, SessionRuntime,
};
pub use sentinel::{DriftSentinel, DriftState, SentinelConfig};
