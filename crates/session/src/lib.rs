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
//! - [`checkpoint`] — versioned, checksummed serialization of the full
//!   session state with atomic write-rename and previous-good fallback,
//!   so a killed session restores bit-identically;
//! - [`durable`] — the CRC-64 checksum, bounded transient-IO retry and
//!   parent-directory fsync shared by the checkpoint store and the
//!   fleet's shard logs.
//!
//! Everything is deterministic and clock-free: retry budgets, backoff and
//! watchdog deadlines are counted in *windows*, never wall time, so a
//! session replayed from a checkpoint emits byte-identical decisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod durable;
pub mod runtime;
pub mod sentinel;

pub use checkpoint::{CheckpointError, CheckpointStore};
pub use runtime::{
    RecalOutcome, RecalPolicy, SessionConfig, SessionDecision, SessionMode, SessionRuntime,
};
pub use sentinel::{DriftSentinel, DriftState, SentinelConfig};
