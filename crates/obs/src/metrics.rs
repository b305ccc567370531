//! Process-wide metrics registry: counters, gauges and fixed-bucket
//! histograms, all updated lock-free through atomics.
//!
//! Handles are interned in a global registry keyed by name (the only
//! locked path; call sites cache the returned `Arc`, typically through
//! the [`counter!`](crate::counter)/[`gauge!`](crate::gauge)/
//! [`stage!`](crate::stage) macros, so the hot path never touches the
//! registry lock). A [`snapshot`] serializes every metric to JSON with
//! names sorted, suitable for the `OBS_metrics.json` artifact written by
//! `repro --metrics`.
//!
//! Histograms use power-of-two nanosecond buckets (65 of them, covering
//! the full `u64` range) and report p50/p95/p99 by linear interpolation
//! inside the selected bucket, clamped to the recorded `[min, max]` —
//! which makes quantiles exact on single-valued streams and monotone in
//! the quantile argument.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::json;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a free-standing counter (registry-less, for tests).
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, active workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a free-standing gauge (registry-less, for tests).
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water marks).
    pub fn set_max(&self, v: i64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > cur {
            match self
                .0
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i - 1]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket histogram of non-negative integer samples
/// (nanoseconds, by convention, for the pipeline's stage timers).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive `[lower, upper]` value range of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= 64 {
        (1 << 63, u64::MAX)
    } else {
        (1 << (i - 1), (1 << i) - 1)
    }
}

impl Histogram {
    /// Creates an empty histogram (free-standing; the pipeline normally
    /// obtains shared ones through [`histogram`]).
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.min.load(Ordering::Relaxed);
        while v < cur {
            match self
                .min
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = self.max.load(Ordering::Relaxed);
        while v > cur {
            match self
                .max
                .compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough point-in-time copy of the histogram state.
    ///
    /// Fields are loaded individually with relaxed ordering; a snapshot
    /// taken concurrently with `record` calls may be off by the in-flight
    /// samples, which is fine for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let min = if count == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        };
        let max = self.max.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let quantile = |q: f64| estimate_quantile(&buckets, count, min, max, q);
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }

    /// Quantile estimate in `[0, 1]`; `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let snap = self.snapshot();
        if snap.count == 0 {
            return None;
        }
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        Some(estimate_quantile(
            &buckets, snap.count, snap.min, snap.max, q,
        ))
    }
}

/// Interpolated bucket quantile, clamped to the recorded `[min, max]`.
fn estimate_quantile(buckets: &[u64], count: u64, min: u64, max: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    if min >= max {
        return min as f64;
    }
    let rank = q.clamp(0.0, 1.0) * count as f64;
    let mut cum = 0.0f64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as f64;
        if cum + c >= rank {
            let (lo, hi) = bucket_bounds(i);
            let frac = ((rank - cum) / c).clamp(0.0, 1.0);
            let v = lo as f64 + frac * (hi - lo) as f64;
            return v.clamp(min as f64, max as f64);
        }
        cum += c;
    }
    max as f64
}

/// Exported histogram summary.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (ns for stage timers).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

/// The process-wide metric registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn intern<M: Default>(map: &Mutex<BTreeMap<String, Arc<M>>>, name: &str) -> Arc<M> {
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let made = Arc::new(M::default());
    map.insert(name.to_owned(), Arc::clone(&made));
    made
}

impl Registry {
    /// Fetches (or creates) the named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// Fetches (or creates) the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// Fetches (or creates) the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The global registry every convenience function operates on.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// Fetches (or creates) a counter in the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Fetches (or creates) a gauge in the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Fetches (or creates) a histogram in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

static TIMING: AtomicBool = AtomicBool::new(false);

/// Turns on stage timers ([`stage!`](crate::stage) starts reading the
/// clock and recording into histograms). Counters and gauges are always
/// live; only the `Instant`-based timing is gated.
pub fn enable_timing() {
    TIMING.store(true, Ordering::Relaxed);
}

/// Turns stage timers back off.
pub fn disable_timing() {
    TIMING.store(false, Ordering::Relaxed);
}

/// Whether stage timers are recording.
#[inline]
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// Point-in-time copy of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// A serializable copy of every metric, names sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, i64)>,
    /// Histogram name → summary.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Serializes the snapshot as a stable, human-readable JSON object
    /// (`{"counters": {...}, "gauges": {...}, "histograms": {...}}`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::push_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::push_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::push_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"p50_ns\": {:.1}, \"p95_ns\": {:.1}, \"p99_ns\": {:.1}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Writes the global registry's snapshot as JSON to `path`
/// (`OBS_metrics.json` by convention).
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_json(path: &Path) -> io::Result<()> {
    std::fs::write(path, snapshot().to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 8);
        g.set_max(5);
        assert_eq!(g.get(), 8, "set_max must not lower the gauge");
        g.set_max(12);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn bucket_index_and_bounds_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
        }
        // Adjacent buckets tile without gaps.
        for i in 1..HISTOGRAM_BUCKETS {
            let (_, prev_hi) = bucket_bounds(i - 1);
            let (lo, _) = bucket_bounds(i);
            assert_eq!(prev_hi + 1, lo, "gap between buckets {} and {i}", i - 1);
        }
    }

    #[test]
    fn histogram_single_value_quantiles_are_exact() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1234);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1234);
        assert_eq!(s.max, 1234);
        assert_eq!(s.p50, 1234.0);
        assert_eq!(s.p95, 1234.0);
        assert_eq!(s.p99, 1234.0);
    }

    #[test]
    fn histogram_quantiles_track_spread_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert!(s.p50 >= 1.0 && s.p50 <= 1000.0);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p99 <= s.max as f64);
        // The median of 1..=1000 lives in bucket [512, 1023]; the
        // interpolation cannot wander to the extremes.
        assert!(s.p50 > 100.0 && s.p50 < 1000.0, "p50 = {}", s.p50);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p50, 0.0);
    }

    #[test]
    fn registry_interns_by_name() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.counter("y").get(), 0);
        r.gauge("g").set(7);
        r.histogram("h").record(5);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("x".to_owned(), 1), ("y".to_owned(), 0)]
        );
        assert_eq!(snap.gauges, vec![("g".to_owned(), 7)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn snapshot_json_is_well_formed_and_sorted() {
        let r = Registry::default();
        r.counter("b.total").add(2);
        r.counter("a.total").add(1);
        r.gauge("depth").set(-3);
        r.histogram("stage").record(100);
        let json = r.snapshot().to_json();
        let a = json.find("\"a.total\": 1").expect("a.total");
        let b = json.find("\"b.total\": 2").expect("b.total");
        assert!(a < b, "names must be sorted:\n{json}");
        assert!(json.contains("\"depth\": -3"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"p50_ns\": 100.0"));
        let Ok(json::Json::Obj(sections)) = json::parse_document(&json) else {
            panic!("snapshot is not a JSON object:\n{json}");
        };
        let names: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["counters", "gauges", "histograms"]);
    }

    #[test]
    fn control_characters_in_names_parse_back() {
        let r = Registry::default();
        let name = "ctl\u{1}\u{1f}\"name\\\n";
        r.counter(name).add(4);
        let text = r.snapshot().to_json();
        let Ok(json::Json::Obj(sections)) = json::parse_document(&text) else {
            panic!("snapshot does not parse:\n{text}");
        };
        let json::Json::Obj(counters) = &sections[0].1 else {
            panic!("counters is not an object:\n{text}");
        };
        assert!(
            matches!(&counters[..], [(k, json::Json::Num(v))] if k == name && *v == 4.0),
            "{text}"
        );
    }

    #[test]
    fn timing_flag_toggles() {
        let _serial = crate::testutil::lock();
        enable_timing();
        assert!(timing_enabled());
        disable_timing();
        assert!(!timing_enabled());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let h = Arc::new(Histogram::new());
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 3999);
    }
}
