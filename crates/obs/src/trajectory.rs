//! Windowed metric trajectories: time series of registry deltas keyed
//! by *processed window count*, not wall-clock.
//!
//! Final metric totals (`OBS_metrics.json`) answer "how much"; drift and
//! degradation experiments need "when". A [`Recorder`] installed for a
//! run snapshots the metrics registry every `every`-th
//! [`tick`] — the pipeline ticks once per detection window — and the
//! exporter turns consecutive snapshots into per-interval counter
//! deltas. Because sampling is keyed to window counts, *which* windows
//! are sampled is deterministic for a given config at any thread count;
//! only the (explicitly nondeterministic) timing-derived values vary.
//!
//! Like the rest of the crate this is write-only observability: nothing
//! reads a trajectory back into the pipeline, and with no recorder
//! installed a tick is one relaxed atomic load.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::json;
use crate::metrics::{self, Snapshot};

/// One exported trajectory point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Processed-window count at which the sample was taken.
    pub windows: u64,
    /// Counter increments since the previous sample (first sample:
    /// since recorder install).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at the sample point (absolute, not deltas).
    pub gauges: BTreeMap<String, i64>,
}

/// A raw registry snapshot pinned to a window count; deltas are derived
/// at export so out-of-order boundary races cannot corrupt them.
struct RawSample {
    windows: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
}

fn raw_from_snapshot(windows: u64, snap: &Snapshot) -> RawSample {
    RawSample {
        windows,
        counters: snap.counters.iter().cloned().collect(),
        gauges: snap.gauges.iter().cloned().collect(),
    }
}

/// Samples the metrics registry every `every` ticks.
pub struct Recorder {
    every: u64,
    ticks: AtomicU64,
    baseline: RawSample,
    samples: Mutex<Vec<RawSample>>,
}

impl Recorder {
    /// Creates a recorder sampling every `every` windows (min 1). The
    /// registry state at creation is the delta baseline, so pre-run
    /// totals (calibration, earlier experiments) don't pollute the
    /// first interval.
    #[must_use]
    pub fn new(every: u64) -> Recorder {
        Recorder {
            every: every.max(1),
            ticks: AtomicU64::new(0),
            baseline: raw_from_snapshot(0, &metrics::snapshot()),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Sampling interval in windows.
    #[must_use]
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Windows ticked so far.
    #[must_use]
    pub fn windows(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Counts one processed window; the tick that crosses an `every`
    /// boundary snapshots the registry. `fetch_add` hands each
    /// concurrent ticker a unique count, so every boundary is sampled
    /// exactly once no matter how threads interleave.
    pub fn tick(&self) {
        let n = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.every) {
            return;
        }
        let raw = raw_from_snapshot(n, &metrics::snapshot());
        crate::counter!("obs.trajectory.samples_total").inc();
        self.samples
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(raw);
    }

    /// Consumes the recorded snapshots into delta samples, ordered by
    /// window count.
    #[must_use]
    pub fn take_samples(&self) -> Vec<Sample> {
        let mut raws: Vec<RawSample> =
            std::mem::take(&mut *self.samples.lock().unwrap_or_else(PoisonError::into_inner));
        raws.sort_by_key(|r| r.windows);
        let mut last = self.baseline.counters.clone();
        let mut out = Vec::with_capacity(raws.len());
        let mut anomalies = 0u64;
        for raw in raws {
            let counters = raw
                .counters
                .iter()
                .map(|(name, value)| {
                    let prev = last.get(name).copied().unwrap_or(0);
                    // Registry counters are monotonic, so a snapshot
                    // below its predecessor is an anomaly (torn read,
                    // registry reset between samples). Clamp the delta
                    // to zero — an unchecked `u64` subtraction would
                    // panic in debug and wrap to ~2^64 in release —
                    // and surface the event instead of corrupting the
                    // series.
                    if value < &prev {
                        anomalies += 1;
                    }
                    (name.clone(), value.saturating_sub(prev))
                })
                .collect();
            last = raw.counters;
            out.push(Sample {
                windows: raw.windows,
                counters,
                gauges: raw.gauges,
            });
        }
        if anomalies > 0 {
            crate::counter!("obs.trajectory.anomalies_total").add(anomalies);
        }
        out
    }
}

/// Serializes samples as NDJSON: one
/// `{"windows":N,"counters":{..},"gauges":{..}}` object per line,
/// ready for `jq`/plotting without a JSON-array parse.
#[must_use]
pub fn to_ndjson(samples: &[Sample]) -> String {
    let mut out = String::new();
    for sample in samples {
        out.push_str(&format!("{{\"windows\":{}", sample.windows));
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in sample.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(&mut out, name);
            out.push_str(&format!(":{value}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in sample.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(&mut out, name);
            out.push_str(&format!(":{value}"));
        }
        out.push_str("}}\n");
    }
    out
}

/// Writes samples to an NDJSON file.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_ndjson(path: &Path, samples: &[Sample]) -> io::Result<()> {
    std::fs::write(path, to_ndjson(samples))
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn recorder_slot() -> &'static Mutex<Option<Arc<Recorder>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Recorder>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Installs a process-wide recorder sampling every `every` windows and
/// returns a handle to it (keep it to export samples after
/// [`uninstall`]). Replaces any previous recorder.
pub fn install(every: u64) -> Arc<Recorder> {
    let recorder = Arc::new(Recorder::new(every));
    let mut slot = recorder_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    *slot = Some(Arc::clone(&recorder));
    ACTIVE.store(true, Ordering::Release);
    recorder
}

/// Removes (and returns) the process-wide recorder.
pub fn uninstall() -> Option<Arc<Recorder>> {
    ACTIVE.store(false, Ordering::Release);
    recorder_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
}

/// Ticks the process-wide recorder, if one is installed. The pipeline
/// calls this once per processed detection window; with no recorder the
/// cost is one relaxed atomic load.
pub fn tick() {
    if !ACTIVE.load(Ordering::Acquire) {
        return;
    }
    let recorder = recorder_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(recorder) = recorder {
        recorder.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::testutil::lock as test_lock;

    #[test]
    fn samples_exactly_at_boundaries() {
        let recorder = Recorder::new(4);
        for _ in 0..10 {
            recorder.tick();
        }
        let samples = recorder.take_samples();
        let windows: Vec<u64> = samples.iter().map(|s| s.windows).collect();
        assert_eq!(windows, vec![4, 8]);
        assert_eq!(recorder.windows(), 10);
    }

    #[test]
    fn counters_are_deltas_against_install_baseline() {
        let _serial = test_lock();
        let c = crate::metrics::counter("obs.test.trajectory_counter");
        c.add(100); // pre-install noise must not appear in interval 1
        let recorder = Recorder::new(2);
        c.add(3);
        recorder.tick();
        recorder.tick(); // boundary: sample at windows=2
        c.add(5);
        recorder.tick();
        recorder.tick(); // boundary: sample at windows=4
        let samples = recorder.take_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].counters["obs.test.trajectory_counter"], 3);
        assert_eq!(samples[1].counters["obs.test.trajectory_counter"], 5);
    }

    #[test]
    fn install_tick_uninstall_roundtrip() {
        let _serial = test_lock();
        let recorder = install(1);
        tick();
        tick();
        let taken = uninstall().expect("recorder installed");
        assert!(Arc::ptr_eq(&recorder, &taken));
        tick(); // inert after uninstall
        assert_eq!(recorder.windows(), 2);
        assert_eq!(recorder.take_samples().len(), 2);
    }

    #[test]
    fn ndjson_shape_is_one_object_per_line() {
        let samples = vec![Sample {
            windows: 8,
            counters: [("a.b".to_owned(), 2u64)].into_iter().collect(),
            gauges: [("c.d".to_owned(), -1i64)].into_iter().collect(),
        }];
        let text = to_ndjson(&samples);
        assert_eq!(
            text,
            "{\"windows\":8,\"counters\":{\"a.b\":2},\"gauges\":{\"c.d\":-1}}\n"
        );
        for line in text.lines() {
            assert!(json::parse_document(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn counter_regressions_clamp_to_zero_and_count_an_anomaly() {
        let _serial = test_lock();
        let recorder = Recorder::new(1);
        let name = "obs.test.regressing_counter".to_owned();
        // Hand-plant snapshots where the counter goes 10 → 4 → 9: a
        // monotonicity violation the delta derivation must absorb
        // without underflow (debug panic / release wrap).
        for (windows, value) in [(1u64, 10u64), (2, 4), (3, 9)] {
            recorder
                .samples
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(RawSample {
                    windows,
                    counters: [(name.clone(), value)].into_iter().collect(),
                    gauges: BTreeMap::new(),
                });
        }
        let before = crate::metrics::snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == "obs.trajectory.anomalies_total")
            .map_or(0, |(_, v)| *v);
        let samples = recorder.take_samples();
        let deltas: Vec<u64> = samples.iter().map(|s| s.counters[&name]).collect();
        assert_eq!(
            deltas,
            vec![10, 0, 5],
            "regression clamps, recovery resumes"
        );
        let after = crate::metrics::snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == "obs.trajectory.anomalies_total")
            .map_or(0, |(_, v)| *v);
        assert_eq!(after - before, 1, "one regressing interval, one anomaly");
    }

    #[test]
    fn every_zero_clamps_to_one() {
        let recorder = Recorder::new(0);
        recorder.tick();
        assert_eq!(recorder.take_samples().len(), 1);
    }
}
