//! Workspace automation library behind the `cargo xtask` binary.
//!
//! The core is a std-only static-analysis suite for the repo's
//! first-party Rust source: a string/comment-aware lexer
//! ([`lexer`]), token-stream navigation helpers ([`stream`]), and four
//! rule families — the original safety/unit policies ([`rules`]),
//! determinism taint ([`determinism`]), the concurrency audit
//! ([`concurrency`]) and the metrics/obs contract ([`metrics`]) — all
//! orchestrated by [`lint`] and reported through [`report`] (human
//! lines or the `--json` machine report).
//!
//! Next to the lint gate live the report tools: [`benchdiff`] (wall-time
//! regression gate over `BENCH_*.json`), [`obsdiff`] (SLO gate over
//! `OBS_metrics.json` snapshots against the `OBS_budgets.txt` manifest)
//! and [`tracereport`] (span-tree profiling of `repro --trace`
//! captures, built on `mpdf_obs::profile`), all reading JSON through
//! `mpdf_obs::json`, the workspace's one JSON format module; and
//! [`results`], which diffs what `repro` prints against the committed
//! `results/`.
//!
//! It is a library (not just a binary) so `crates/bench` can measure
//! full-workspace lint wall time, and so fixture tests can drive the
//! engine in-process.
//!
//! Everything is std-only: the xtask gate must build and run in the
//! fully offline build container with no crate registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchdiff;
pub mod concurrency;
pub mod determinism;
pub mod lexer;
pub mod lint;
pub mod metrics;
pub mod obsdiff;
pub mod report;
pub mod results;
pub mod rules;
pub mod stream;
pub mod tracereport;

/// The workspace's JSON reader and writer, re-exported under the path
/// the end-to-end benchmark harness imports (`xtask::json`).
pub use mpdf_obs::json;
