//! # mpdf-obs — std-only tracing and metrics for the detection pipeline
//!
//! The campaign harness fans detection work out over worker threads
//! (`mpdf-par`), and the pipeline stages it runs — μ_k extraction
//! (Eq. 9–11), subcarrier weighting (Eq. 12–15), MUSIC scans
//! (Eq. 16–17) — were previously opaque. This crate makes them
//! observable without perturbing them:
//!
//! - [`trace`] — a lightweight span/event core: a thread-local span
//!   stack, monotonic [`std::time::Instant`] timing and a pluggable
//!   [`trace::Subscriber`]. With no subscriber installed (the default)
//!   the entire span path costs a couple of relaxed atomic loads.
//!   Bundled subscribers: [`trace::NdjsonWriter`] (one JSON object per
//!   line, for `repro --trace`) and [`trace::RingBuffer`] (bounded
//!   in-memory event ring, for tests and programmatic inspection).
//! - [`metrics`] — a process-wide registry of counters, gauges and
//!   fixed-bucket histograms, all updated lock-free through atomics,
//!   with p50/p95/p99 summaries and a JSON snapshot exporter
//!   (`OBS_metrics.json`, the same spirit as `BENCH_*.json`).
//! - [`profile`] — the read side: reconstructs per-thread span trees
//!   from event streams (ring or NDJSON), attributes self/total time,
//!   extracts the critical path and renders collapsed stacks plus a
//!   deterministic hotspot table (`cargo xtask trace-report`).
//! - [`trajectory`] — windowed metric time series: samples registry
//!   deltas every K processed windows (deterministic window counts, not
//!   wall-clock) into NDJSON (`repro --trajectory`).
//! - [`json`] — the one JSON format module: the string escaper every
//!   exporter above writes with and the tree reader every consumer
//!   (the NDJSON span reader, the xtask report diffs) reads with.
//! - `allocs` (feature `alloc-count`) — a counting global allocator
//!   with thread-local stage scopes, attributing allocations/bytes to
//!   the active [`stage!`] and publishing `obs.alloc.*` counters; zero
//!   overhead (and no `unsafe` compiled) when the feature is off.
//!
//! ## Determinism contract
//!
//! Instrumentation is strictly write-only with respect to the pipeline:
//! nothing in this crate feeds back into detection math, RNG streams or
//! scheduling, so an instrumented run produces bit-identical scores,
//! decisions, stdout and CSV artifacts to an uninstrumented one, at any
//! thread count. Only the observability artifacts themselves (trace
//! files, metric values) differ run to run.
//!
//! ## Usage
//!
//! ```
//! // A pipeline stage: one span + one ns histogram, enabled on demand.
//! fn stage_under_test() {
//!     let _stage = mpdf_obs::stage!("docs.example_stage");
//!     // ... work ...
//! }
//!
//! mpdf_obs::metrics::enable_timing();
//! stage_under_test();
//! mpdf_obs::counter!("docs.example_total").inc();
//! let snapshot = mpdf_obs::metrics::snapshot();
//! assert!(snapshot.to_json().contains("docs.example_stage"));
//! mpdf_obs::metrics::disable_timing();
//! ```

// The counting global allocator (feature `alloc-count`) is the one
// place that needs `unsafe`; every other configuration forbids it, and
// with the feature on the workspace's `deny` holds outside `allocs`.
#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "span and stage timing reads the wall clock; observability is proven byte-neutral by the obs-equivalence tests"
)]

#[cfg(feature = "alloc-count")]
pub mod allocs;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;
pub mod trajectory;

pub use metrics::{Counter, Gauge, Histogram, Snapshot};
pub use trace::{SpanEvent, SpanKind, Subscriber};

/// Opens a stage scope: a tracing span plus (when
/// [`metrics::enable_timing`] is active) an elapsed-nanoseconds record
/// into the histogram of the same name.
///
/// Bind the result or the stage closes immediately:
///
/// ```
/// let _stage = mpdf_obs::stage!("docs.macro_stage");
/// ```
///
/// The histogram handle is resolved once per call site and cached in a
/// hidden `OnceLock`, so the steady-state disabled cost is two relaxed
/// atomic loads.
#[macro_export]
macro_rules! stage {
    ($name:literal) => {{
        static STAGE_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::trace::StageGuard::begin($name, &STAGE_HIST)
    }};
}

/// Resolves (once per call site) and returns the named global
/// [`Counter`].
///
/// ```
/// mpdf_obs::counter!("docs.counter_macro").add(2);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Resolves (once per call site) and returns the named global
/// [`Gauge`].
///
/// ```
/// mpdf_obs::gauge!("docs.gauge_macro").set(3);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Tests that touch process-global state (the timing flag, the
    /// subscriber slot) serialize on this lock.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_resolve_and_cache_handles() {
        let c = counter!("obs.test.macro_counter");
        c.inc();
        c.inc();
        assert!(c.get() >= 2);
        let g = gauge!("obs.test.macro_gauge");
        g.set(-4);
        assert_eq!(g.get(), -4);
        // Same call site returns the same underlying metric.
        let again = counter!("obs.test.macro_counter2");
        again.inc();
        let before = again.get();
        counter!("obs.test.macro_counter2").inc();
        assert!(crate::metrics::counter("obs.test.macro_counter2").get() > before - 1);
    }

    #[test]
    fn stage_macro_is_inert_when_disabled() {
        // No subscriber, no timing: the guard must be a no-op that still
        // compiles and drops cleanly.
        let _stage = stage!("obs.test.disabled_stage");
    }
}
