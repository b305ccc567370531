//! # mpdf-fleet — sharded multi-link fleet supervisor
//!
//! The paper characterizes and adapts a single TX–RX link; a deployment
//! is a *network* of links whose receivers fail, drift and recover
//! independently (Patwari & Wilson). This crate runs many
//! [`SessionRuntime`](mpdf_session::SessionRuntime)s under one
//! supervisor, robustness-first:
//!
//! - **Sharding** — links are partitioned across [`shard::Shard`]s
//!   (per-link state in link order, stepped in parallel through the
//!   `mpdf-par` pool). A shard is the failure and recovery domain.
//! - **Per-link fault containment** — a link whose step hard-errors,
//!   whose windows arrive mis-shaped, or that trips the fleet watchdog
//!   is quarantined with a typed [`link::LinkFault`] and deterministic
//!   exponential backoff; it never takes down its shard.
//! - **Crash-recoverable shard logs** — one append-only, checksum-framed,
//!   generation-numbered [`log::ShardLog`] per shard multiplexes all of
//!   its sessions (replacing file-per-session at fleet scale) as a
//!   write-ahead log of delivered windows, with session snapshots only
//!   at registration and compaction, one group commit per shard tick,
//!   torn-tail truncation and `.bak` last-good-generation fallback. A
//!   one-link log is the single-session [`checkpoint`] file.
//! - **Overload shedding** — bounded per-shard ingest with typed
//!   backpressure ([`shard::LinkOutcome::Shed`]); shedding is
//!   vacancy-biased so presence-positive links are shed last.
//! - **Deterministic chaos** — [`chaos`] provides seeded kill schedules
//!   and a fault-injecting [`log::LogIo`] shim; a killed-and-recovered
//!   fleet must produce bit-identical room-level fused verdicts to an
//!   uninterrupted run at any thread count (pinned by
//!   `tests/recovery_equivalence.rs` and `repro fleet --chaos`).
//!
//! Determinism is the load-bearing property throughout: every retry,
//! backoff, shed choice and recovery decision is a pure function of the
//! inputs and the seeds — no clocks, no unordered maps, no unseeded
//! randomness.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod checkpoint;
pub mod fleet;
pub mod link;
pub mod log;
pub mod shard;

use std::error::Error;
use std::fmt;

pub use crate::fleet::{Fleet, LinkWindow, RecoveryReport, RoomVerdict, TickReport};
pub use crate::link::{LinkFault, LinkHealth, LinkMeta};
pub use crate::log::{LogError, LogIo, LogRecovery, ShardLog, StdIo};
pub use crate::shard::{LinkOutcome, LinkRecord, Shard, ShardTick};

use mpdf_session::CheckpointError;

/// Tunable supervision policy, shared by every shard of a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPolicy {
    /// Per-shard ingest budget: at most this many windows are delivered
    /// per tick, the rest are shed (vacancy-biased). `0` = unlimited.
    pub max_windows_per_tick: usize,
    /// Quarantine strikes after which a link is declared dead.
    pub max_strikes: u32,
    /// Quarantine backoff base, in ticks (doubled per strike).
    pub quarantine_base: u64,
    /// Quarantine backoff cap, in ticks.
    pub quarantine_cap: u64,
    /// Consecutive abstained windows before the fleet watchdog
    /// quarantines a link. `0` disables the fleet watchdog (the
    /// session-level watchdog still freezes the runtime).
    pub watchdog_ticks: u32,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            max_windows_per_tick: 0,
            max_strikes: 3,
            quarantine_base: 2,
            quarantine_cap: 16,
            watchdog_ticks: 6,
        }
    }
}

impl FleetPolicy {
    /// Quarantine duration for the given strike count (1-based):
    /// exponential in the strike number, capped.
    pub fn backoff_ticks(&self, strikes: u32) -> u64 {
        let exp = strikes.saturating_sub(1).min(62);
        self.quarantine_base
            .saturating_mul(1u64 << exp)
            .min(self.quarantine_cap.max(self.quarantine_base))
    }
}

/// Errors surfaced by the fleet supervisor.
#[derive(Debug)]
pub enum FleetError {
    /// A fleet was configured with zero shards.
    NoShards,
    /// The policy is internally inconsistent (e.g. zero backoff base).
    InvalidPolicy(String),
    /// A window or replay referenced a link the fleet has never seen.
    UnknownLink(u64),
    /// A link id was registered twice.
    DuplicateLink(u64),
    /// A shard index outside the fleet was referenced.
    UnknownShard(u32),
    /// A recovery was requested on a shard that runs without a log.
    NoLog(u32),
    /// Shard-log failure (IO, framing, header).
    Log(LogError),
    /// A session snapshot in a recovered record failed to decode or
    /// validate.
    Checkpoint(CheckpointError),
    /// A recovered log is missing the snapshot for a registered link
    /// (the birth record guarantees one per registered link, so this is
    /// log/registry disagreement, not a normal state).
    MissingSnapshot(u64),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::NoShards => write!(f, "fleet needs at least one shard"),
            FleetError::InvalidPolicy(what) => write!(f, "invalid fleet policy: {what}"),
            FleetError::UnknownLink(link) => write!(f, "unknown link {link}"),
            FleetError::DuplicateLink(link) => write!(f, "link {link} registered twice"),
            FleetError::UnknownShard(shard) => write!(f, "unknown shard {shard}"),
            FleetError::NoLog(shard) => {
                write!(f, "shard {shard} has no log to recover from")
            }
            FleetError::Log(e) => write!(f, "shard log failure: {e}"),
            FleetError::Checkpoint(e) => write!(f, "recovered snapshot invalid: {e}"),
            FleetError::MissingSnapshot(link) => {
                write!(f, "recovered log has no snapshot for link {link}")
            }
        }
    }
}

impl Error for FleetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FleetError::Log(e) => Some(e),
            FleetError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LogError> for FleetError {
    fn from(e: LogError) -> Self {
        FleetError::Log(e)
    }
}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> Self {
        FleetError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = FleetPolicy::default();
        assert_eq!(policy.backoff_ticks(1), 2);
        assert_eq!(policy.backoff_ticks(2), 4);
        assert_eq!(policy.backoff_ticks(3), 8);
        assert_eq!(policy.backoff_ticks(4), 16);
        assert_eq!(policy.backoff_ticks(5), 16, "capped");
        assert_eq!(policy.backoff_ticks(63), 16, "shift saturates safely");
        // A cap below the base still yields at least the base.
        let tight = FleetPolicy {
            quarantine_base: 4,
            quarantine_cap: 1,
            ..FleetPolicy::default()
        };
        assert_eq!(tight.backoff_ticks(1), 4);
    }

    #[test]
    fn errors_display_their_context() {
        let e = FleetError::UnknownLink(17);
        assert!(e.to_string().contains("17"));
        let e = FleetError::DuplicateLink(3);
        assert!(e.to_string().contains("3"));
        assert!(FleetError::NoShards.to_string().contains("shard"));
    }
}
