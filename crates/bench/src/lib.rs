//! # mpdf-bench — the micro-bench timing loop and its fixtures
//!
//! The bench lives in `benches/micro.rs` and times the building blocks
//! (supporting the paper's §V-B4 claim that the weighting schemes are
//! computationally negligible next to the packet budget). Every figure's
//! pipeline runs end to end through `repro all` instead.
//!
//! [`Harness::bench`] times one routine: one untimed warm-up call, then
//! the iterations per sample double until a sample lasts at least
//! [`MIN_SAMPLE`], then [`SAMPLES`] samples are timed at that count. A
//! [`Record`] keeps the median, minimum and quartiles of the per-iteration
//! times, and [`Harness::write_report`] writes them all as
//! `BENCH_<stem>.json`: a JSON array of `{name, median_ns, min_ns, q1_ns,
//! q3_ns, iters_per_sample, samples}` objects, which `cargo xtask
//! bench-diff` compares.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a timing harness reads the wall clock by design"
)]

use std::fmt::{self, Write as _};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::human::HumanBody;
use mpdf_rfmath::stats::{median_in_place, min_max, percentile};
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::CsiReceiver;

/// Timed samples per bench.
pub const SAMPLES: usize = 15;

/// Shortest timed sample: long enough that the two clock reads around it
/// are a small share of what it measures.
pub const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// One bench's per-iteration wall times, in nanoseconds, over its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// `group/bench`.
    pub name: String,
    /// Median of the samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// First quartile (linear interpolation).
    pub q1_ns: f64,
    /// Third quartile (linear interpolation).
    pub q3_ns: f64,
    /// Calls timed back to back in one sample.
    pub iters_per_sample: u64,
    /// Samples timed.
    pub samples: usize,
}

impl Record {
    /// Summarizes per-iteration times (`per_iter_ns` must not be empty).
    fn new(name: &str, iters_per_sample: u64, per_iter_ns: &mut [f64]) -> Record {
        Record {
            name: name.to_owned(),
            min_ns: min_max(per_iter_ns).0,
            q1_ns: percentile(per_iter_ns, 25.0),
            q3_ns: percentile(per_iter_ns, 75.0),
            median_ns: median_in_place(per_iter_ns),
            iters_per_sample,
            samples: per_iter_ns.len(),
        }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.1} ns/iter (IQR {:.1}–{:.1}, {} samples x {} iters)",
            self.name, self.median_ns, self.q1_ns, self.q3_ns, self.samples, self.iters_per_sample
        )
    }
}

/// The records of one harness run, in bench order.
#[derive(Debug, Default)]
pub struct Harness {
    records: Vec<Record>,
}

impl Harness {
    /// Times `routine` (warm-up, calibration, [`SAMPLES`] samples) and
    /// records it under `name`.
    pub fn bench<O>(&mut self, name: &str, mut routine: impl FnMut() -> O) {
        black_box(routine());
        let mut iters = 1;
        while time(&mut routine, iters) < MIN_SAMPLE {
            iters *= 2;
        }
        let mut per_iter: Vec<f64> = (0..SAMPLES)
            .map(|_| time(&mut routine, iters).as_nanos() as f64 / iters as f64)
            .collect();
        self.records.push(Record::new(name, iters, &mut per_iter));
    }

    /// The records so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Writes `BENCH_<stem>.json` into `MPDF_BENCH_OUT` when that is set
    /// and non-empty, else into the working directory (the package root
    /// under `cargo bench`), and returns its path.
    ///
    /// # Errors
    /// The file could not be written.
    pub fn write_report(&self, stem: &str) -> std::io::Result<PathBuf> {
        let file = format!("BENCH_{stem}.json");
        let path = match std::env::var("MPDF_BENCH_OUT") {
            Ok(dir) if !dir.is_empty() => PathBuf::from(dir).join(file),
            _ => PathBuf::from(file),
        };
        std::fs::write(&path, render_report(&self.records))?;
        Ok(path)
    }
}

/// Wall time of `iters` back-to-back calls.
fn time<O>(routine: &mut impl FnMut() -> O, iters: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(routine());
    }
    start.elapsed()
}

/// The records as a JSON array, one object per line.
fn render_report(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  {\"name\": ");
        mpdf_obs::json::push_string(&mut out, &r.name);
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            ", \"median_ns\": {:.3}, \"min_ns\": {:.3}, \"q1_ns\": {:.3}, \"q3_ns\": {:.3}, \
             \"iters_per_sample\": {}, \"samples\": {}}}",
            r.median_ns, r.min_ns, r.q1_ns, r.q3_ns, r.iters_per_sample, r.samples
        );
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// The standard benchmark link: the paper's 4 m classroom link inside the
/// evaluation building shell.
#[expect(
    clippy::expect_used,
    reason = "bench fixture; aborting on a broken fixture is the desired behaviour"
)]
pub fn bench_link() -> ChannelModel {
    let env = mpdf_eval::scenario::classroom();
    ChannelModel::new(
        env,
        mpdf_geom::vec2::Point::new(2.0, 3.0),
        mpdf_geom::vec2::Point::new(6.0, 3.0),
    )
    .expect("valid link")
}

/// A calibrated profile plus a 25-packet monitoring window with a human
/// present — the per-decision workload.
#[expect(
    clippy::expect_used,
    reason = "bench fixture; aborting on a broken fixture is the desired behaviour"
)]
pub fn bench_fixture() -> (CalibrationProfile, Vec<CsiPacket>, DetectorConfig) {
    let config = DetectorConfig::default();
    let mut rx = CsiReceiver::new(bench_link(), 1234).expect("receiver");
    let calibration = rx.capture_static(None, 200).expect("capture");
    let profile = CalibrationProfile::build(&calibration, &config).expect("profile");
    let human = HumanBody::new(mpdf_geom::vec2::Point::new(4.0, 3.5));
    let window = rx.capture_static(Some(&human), 25).expect("capture");
    (profile, window, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_obs::json::{parse_document, Json};

    #[test]
    fn a_bench_is_warmed_calibrated_and_sampled() {
        let mut h = Harness::default();
        let mut calls = 0u64;
        h.bench("g/count", || calls += 1);
        let r = &h.records()[0];
        assert_eq!((r.name.as_str(), r.samples), ("g/count", SAMPLES));
        // Warm-up, then calibration samples of 1, 2, 4, … iterations up
        // to the final count, then the timed samples at that count.
        let calibration = 2 * r.iters_per_sample - 1;
        assert_eq!(calls, 1 + calibration + SAMPLES as u64 * r.iters_per_sample);
        assert!(
            r.iters_per_sample > 1,
            "a no-op cannot fill {MIN_SAMPLE:?} in one call"
        );
        assert!(r.min_ns <= r.q1_ns && r.q1_ns <= r.median_ns && r.median_ns <= r.q3_ns);
    }

    #[test]
    fn a_slow_routine_runs_once_per_sample() {
        let mut h = Harness::default();
        h.bench("g/sleep", || std::thread::sleep(MIN_SAMPLE));
        let r = &h.records()[0];
        assert_eq!(r.iters_per_sample, 1);
        assert!(r.min_ns >= MIN_SAMPLE.as_nanos() as f64);
    }

    #[test]
    fn the_report_is_json_with_every_field() {
        let records = [
            Record::new("g/a", 4, &mut [4.0, 1.0, 3.0, 2.0, 5.0]),
            Record::new("g/b\"q", 1, &mut [7.0]),
        ];
        let Json::Arr(items) = parse_document(&render_report(&records)).unwrap() else {
            panic!("not an array");
        };
        let Json::Obj(fields) = &items[0] else {
            panic!("not an object");
        };
        let field = |k: &str| fields.iter().find(|(name, _)| name == k).map(|(_, v)| v);
        assert!(matches!(field("name"), Some(Json::Str(s)) if s == "g/a"));
        for (k, v) in [
            ("median_ns", 3.0),
            ("min_ns", 1.0),
            ("q1_ns", 2.0),
            ("q3_ns", 4.0),
            ("iters_per_sample", 4.0),
            ("samples", 5.0),
        ] {
            assert!(matches!(field(k), Some(Json::Num(n)) if *n == v), "{k}");
        }
        assert!(
            matches!(&items[1], Json::Obj(f) if matches!(&f[0].1, Json::Str(s) if s == "g/b\"q"))
        );
    }
}
