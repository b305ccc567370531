//! # mpdf-eval — evaluation harness
//!
//! Scenarios, workloads, metrics and experiment runners reproducing every
//! data figure of the paper's evaluation (§V). The `repro` binary runs
//! any experiment by id.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the stream replay times its throughput for stderr; scores never read the clock"
)]

pub mod experiments;
pub mod fleet;
pub mod metrics;
pub mod report;
pub mod scenario;
pub mod session;
pub mod stream;
pub mod workload;
