//! Drives one workload run: repeated set-up, the timed loop,
//! output checks, the optional traced pass, and the metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mpdf_obs::profile::{self, Profile};
use mpdf_obs::trace::{self, RingBuffer};
use mpdf_obs::{SpanEvent, Subscriber};

use crate::campaign::CampaignBench;
use crate::fleet::FleetBench;
use crate::ledger::{self, Ledger, LOG_IO};
use crate::spans::{self, Spans};
use crate::stream::StreamBench;
use crate::{stats, Bench, Ctx, Metric, Op, Scale, Workload};

/// Whether and how the traced pass runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trace {
    /// No traced pass: report the end-to-end metrics.
    Off,
    /// Traced pass: report the per-layer metrics.
    On,
    /// Traced pass, also writing `spans.ndjson`, `layers.json` and
    /// `stacks.folded` under `<dir>/<workload>/`.
    Dir(PathBuf),
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Time the loop for this many seconds (at least the workload's
    /// shortest length); `None` runs the default operation count.
    pub seconds: Option<f64>,
    /// Library worker threads.
    pub threads: usize,
    /// Input sizes.
    pub scale: Scale,
    /// Traced pass.
    pub trace: Trace,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics when traced.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

/// Set-ups per run at each scale; `setup_s` is their median.
fn setup_reps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3,
        Scale::Smoke => 1,
    }
}

/// Ring capacity of the traced pass: a bound, not an allocation; the
/// pass reports `trace.dropped_events` if it is ever reached.
const RING_EVENTS: usize = 1 << 24;

/// Runs one workload.
///
/// # Errors
/// Set-up failures and unreadable process statistics, rendered.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::Campaign => run_bench::<CampaignBench>(opts),
        Workload::Stream => run_bench::<StreamBench>(opts),
        Workload::Fleet | Workload::FleetLogged => run_bench::<FleetBench>(opts),
    }
}

fn timed_loop<B: Bench>(
    bench: &mut B,
    seconds: Option<f64>,
    (default_ops, least_ops): (u64, u64),
    spans: &mut Spans,
) -> Vec<Op> {
    let start = Instant::now();
    let mut ops = Vec::new();
    loop {
        let i = ops.len() as u64;
        let done = match seconds {
            None => i >= default_ops,
            Some(s) => i >= least_ops && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            return ops;
        }
        ops.push(bench.op(i, spans));
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn ms_of(ops: &[Op]) -> Vec<f64> {
    ops.iter().map(|o| o.ms).collect()
}

fn run_bench<B: Bench>(opts: &Options) -> Result<Outcome, String> {
    let ctx = Ctx {
        workload: opts.workload,
        seed: opts.seed,
        threads: opts.threads,
        scale: opts.scale,
        io_spans: None,
    };
    let mut report = Vec::new();
    let mut correct = true;

    // Untraced pass: set up several times (the median is `setup_s`),
    // keep the last set-up, run the timed loop on it.
    let mut setup_s = Vec::new();
    let mut bench: Option<B> = None;
    for _ in 0..setup_reps(opts.scale) {
        drop(bench.take());
        let start = Instant::now();
        let b = B::setup(&ctx, &mut Spans::new(false))?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(first) = &bench {
            correct &= first.checks().outputs() == b.checks().outputs();
        }
        bench = Some(b);
    }
    let mut bench = bench.ok_or("no set-up ran")?;
    let warmups = bench.checks().outputs().len();
    let lengths = opts.workload.lengths(opts.scale);
    let ops = timed_loop(&mut bench, opts.seconds, lengths, &mut Spans::new(false));
    let extras = bench.finish(&ops);
    let rss = peak_rss_mb()?;
    let checks = bench.checks().clone();
    drop(bench);

    let ms = ms_of(&ops);
    let windows: u64 = ops.iter().map(|o| o.windows).sum();
    let busy_s: f64 = ms.iter().sum::<f64>() / 1e3;
    let failed = ops.iter().filter(|o| o.failed).count() as u64;
    let n = ops.len();
    let median_ms = stats::median(&ms).unwrap_or(f64::NAN);
    // Whole-run figures: every timed operation counts, so neither a few
    // unusually fast operations nor a few slow ones decide the value.
    let e2e = vec![
        Metric::new("windows_per_s", windows as f64 / busy_s, "windows/s", n),
        Metric::new("op_ms_p50", median_ms, "ms", n),
        Metric::new(
            "setup_s",
            stats::median(&setup_s).unwrap_or(f64::NAN),
            "s",
            setup_s.len(),
        ),
    ];
    correct &= checks.ok();
    report.push(format!(
        "e2e workload={} seed={} threads={} scale={} ops={n} warmups={warmups} digest={:016x} checks={}",
        opts.workload.name(),
        opts.seed,
        opts.threads,
        if opts.scale == Scale::Full { "full" } else { "smoke" },
        checks.digest(),
        if checks.ok() { "ok" } else { "FAILED" },
    ));
    for f in checks.failures() {
        report.push(format!("check failed: {f}"));
    }
    for m in &e2e {
        report.push(format!(
            "metric {} {} {} n={}",
            m.name, m.value, m.unit, m.n
        ));
    }
    report.push(format!("extra peak_rss_mb {rss} MB n=1"));
    for Metric {
        name,
        value,
        unit,
        n,
    } in &extras
    {
        report.push(format!("extra {name} {value} {unit} n={n}"));
    }
    report.push(format!(
        "extra error_rate {} ratio n={n}",
        failed as f64 / n.max(1) as f64
    ));

    let metrics = if opts.trace == Trace::Off {
        e2e
    } else {
        let untraced = Untraced {
            outputs: checks.outputs(),
            median_ms,
            peak_rss_mb: rss,
        };
        let traced = traced_pass::<B>(&ctx, (n as u64 / 4).max(1), &untraced, opts)?;
        correct &= traced.correct;
        report.extend(traced.report);
        traced.metrics
    };
    Ok(Outcome {
        correct,
        attempted: n as u64,
        failed,
        metrics,
        report,
    })
}

/// Program counters the per-layer metrics are built from.
const COUNTERS: [&str; 15] = [
    "core.sanitize_memo.hits",
    "core.sanitize_memo.misses",
    "physics.trace_cache.hits",
    "physics.trace_cache.misses",
    "music.cov_incremental_updates",
    "music.cov_full_rebuilds",
    "wifi.wire.frames_total",
    "wifi.wire.bytes_total",
    "wifi.wire.rejects_total",
    "session.recal_attempts_total",
    "fleet.log.bytes_total",
    "fleet.log.appends_total",
    "fleet.log.compactions_total",
    "par.workers_spawned_total",
    "par.pop_waits_total",
];

type Counts = BTreeMap<&'static str, u64>;

fn counts() -> Counts {
    COUNTERS
        .iter()
        .map(|&name| (name, mpdf_obs::metrics::counter(name).get()))
        .collect()
}

fn since(now: &Counts, earlier: &Counts) -> Counts {
    now.iter()
        .map(|(&name, &v)| (name, v - earlier.get(name).copied().unwrap_or(0)))
        .collect()
}

/// Max gauges the traced pass resets before its timed operations.
const MAX_GAUGES: [&str; 2] = ["par.queue_depth_max", "eval.stream.ingest_depth_max"];

struct Traced {
    correct: bool,
    metrics: Vec<Metric>,
    report: Vec<String>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Mean self time per call of the stages `pick` selects, ns.
fn self_per_call(profile: &Profile, pick: impl Fn(&str) -> bool) -> f64 {
    let (self_ns, calls) = profile
        .stages
        .iter()
        .filter(|s| pick(&s.name))
        .fold((0u64, 0u64), |(t, c), s| (t + s.self_ns, c + s.count));
    ratio(self_ns, calls)
}

/// Ledger groups: metric name and the stages it covers.
const GROUPS: [(&str, &[&str]); 9] = [
    ("ledger.sim_pct", &["eval.window", "eval.campaign"]),
    ("ledger.calibration_pct", &["core.calibration"]),
    ("ledger.score_pct", &["core.score.", "eval.score"]),
    ("ledger.mu_k_pct", &["core.mu_k"]),
    (
        "ledger.weights_pct",
        &["core.subcarrier_weight", "core.path_weight"],
    ),
    ("ledger.music_pct", &["music."]),
    ("ledger.session_pct", &["session."]),
    ("ledger.fleet_pct", &["fleet."]),
    ("ledger.log_io_pct", &[LOG_IO]),
];

fn in_group(name: &str, prefixes: &[&str]) -> bool {
    prefixes
        .iter()
        .any(|p| name == *p || (p.ends_with('.') && name.starts_with(p)))
}

/// Self time per call: metric name, stage (a trailing `.` selects every
/// stage with that prefix), unit (`ms` or `us`).
const SELF_TIMES: [(&str, &str, &str); 9] = [
    ("sim.window_self_ms", "eval.window", "ms"),
    ("core.calibration.self_ms", "core.calibration", "ms"),
    ("core.score.self_us", "core.score.", "us"),
    ("core.mu_k.self_us", "core.mu_k", "us"),
    (
        "core.subcarrier_weight.self_us",
        "core.subcarrier_weight",
        "us",
    ),
    ("core.path_weight.self_us", "core.path_weight", "us"),
    ("music.covariance.self_us", "music.covariance", "us"),
    ("music.eig.self_us", "music.eig", "us"),
    ("music.scan.self_us", "music.scan", "us"),
];

/// What the traced pass compares against.
struct Untraced<'a> {
    outputs: &'a [u64],
    median_ms: f64,
    peak_rss_mb: f64,
}

fn traced_pass<B: Bench>(
    ctx: &Ctx,
    ops: u64,
    untraced: &Untraced<'_>,
    opts: &Options,
) -> Result<Traced, String> {
    let ring = Arc::new(RingBuffer::new(RING_EVENTS));
    let io_spans: spans::SharedSpans = Arc::new(Mutex::new(Vec::new()));
    let ctx = Ctx {
        io_spans: Some(Arc::clone(&io_spans)),
        ..ctx.clone()
    };
    let mut spans = Spans::new(true);
    let generator = trace::thread_id();
    let setup_counts = counts();
    trace::install(Arc::clone(&ring) as Arc<dyn Subscriber>);
    let bench = spans.span("bench.setup", |s| B::setup(&ctx, s));
    let mut bench = match bench {
        Ok(b) => b,
        Err(e) => {
            trace::uninstall();
            return Err(e);
        }
    };
    for g in MAX_GAUGES {
        mpdf_obs::metrics::gauge(g).set(0);
    }
    let before = counts();
    let timed: Vec<Op> = (0..ops).map(|i| bench.op(i, &mut spans)).collect();
    let after = counts();
    trace::uninstall();
    let extras = bench.finish(&timed);
    let checks = bench.checks().clone();
    drop(bench);

    let d = since(&after, &before);
    let whole = since(&after, &setup_counts);
    let c = |name: &str| d.get(name).copied().unwrap_or(0);
    // The shim's spans nest inside the generator's own spans (registration,
    // recovery) or stand alone on pool threads; merge them in first.
    let io_events = std::mem::take(&mut *io_spans.lock().unwrap_or_else(PoisonError::into_inner));
    let events = spans::merge(spans::merge(spans.take(), io_events), ring.events());
    let dropped = ring.dropped();
    let profile = profile::reconstruct_with_dropped(&profile::from_span_events(&events), dropped);
    let ledger = ledger::build(&events, generator);

    let n = timed.len();
    let per_op = |v: u64| v as f64 / n.max(1) as f64;
    let traced_ms = stats::median(&ms_of(&timed)).unwrap_or(f64::NAN);
    // Workload-specific figures of the traced pass; 0 where the workload
    // has no such layer.
    let extra = |name: &str| {
        extras
            .iter()
            .find(|e| e.name == name)
            .map_or(0.0, |e| e.value)
    };
    let mut metrics: Vec<Metric> = SELF_TIMES
        .iter()
        .map(|&(name, stage, unit)| {
            let ns = self_per_call(&profile, |s| in_group(s, &[stage]));
            Metric::new(name, ns / if unit == "ms" { 1e6 } else { 1e3 }, unit, n)
        })
        .collect();
    metrics.push(Metric::new(
        "residual_ms_per_op",
        ledger.residual_ns / 1e6 / n.max(1) as f64,
        "ms",
        n,
    ));
    let memo_lookups = c("core.sanitize_memo.hits") + c("core.sanitize_memo.misses");
    let trace_lookups = c("physics.trace_cache.hits") + c("physics.trace_cache.misses");
    let cov_incremental = whole["music.cov_incremental_updates"];
    let pct = |ns: f64| 100.0 * ns / ledger.root_ns.max(1) as f64;
    let mut grouped = 0.0;
    for (name, prefixes) in GROUPS {
        let ns = ledger.share_ns(|s| in_group(s, prefixes));
        grouped += ns;
        metrics.push(Metric::new(name, pct(ns), "%", n));
    }
    metrics.push(Metric::new(
        "ledger.other_pct",
        pct((ledger.share_ns(|_| true) - grouped).max(0.0)),
        "%",
        n,
    ));
    metrics.push(Metric::new(
        "ledger.residual_pct",
        pct(ledger.residual_ns),
        "%",
        n,
    ));
    metrics.extend([
        Metric::new(
            "core.sanitize_memo.hit_ratio",
            ratio(c("core.sanitize_memo.hits"), memo_lookups),
            "ratio",
            n,
        ),
        Metric::new(
            "core.sanitize_memo.lookups_per_op",
            per_op(memo_lookups),
            "count",
            n,
        ),
        Metric::new(
            "sim.trace_cache_hit_ratio",
            ratio(c("physics.trace_cache.hits"), trace_lookups),
            "ratio",
            n,
        ),
        Metric::new(
            "sim.trace_cache_lookups_per_op",
            per_op(trace_lookups),
            "count",
            n,
        ),
        Metric::new(
            "music.cov_incremental_ratio",
            ratio(
                cov_incremental,
                cov_incremental + whole["music.cov_full_rebuilds"],
            ),
            "ratio",
            n,
        ),
        Metric::new(
            "wire.frames_per_op",
            per_op(c("wifi.wire.frames_total")),
            "count",
            n,
        ),
        Metric::new(
            "wire.bytes_per_op",
            per_op(c("wifi.wire.bytes_total")),
            "B",
            n,
        ),
        Metric::new(
            "wire.rejects_per_op",
            per_op(c("wifi.wire.rejects_total")),
            "count",
            n,
        ),
        Metric::new(
            "session.recalibrations_per_op",
            per_op(c("session.recal_attempts_total")),
            "count",
            n,
        ),
        Metric::new(
            "fleet.log.bytes_per_window",
            extra("log_bytes_per_window"),
            "B",
            n,
        ),
        Metric::new(
            "fleet.log.fsyncs_per_window",
            extra("fsyncs_per_window"),
            "count",
            n,
        ),
        Metric::new(
            "fleet.log.bytes_per_append",
            ratio(c("fleet.log.bytes_total"), c("fleet.log.appends_total")),
            "B",
            n,
        ),
        Metric::new(
            "fleet.log.compactions_per_op",
            per_op(c("fleet.log.compactions_total")),
            "count",
            n,
        ),
        Metric::new("fleet.recover.io_pct", extra("recovery_io_pct"), "%", n),
        Metric::new(
            "par.workers_spawned_per_op",
            per_op(c("par.workers_spawned_total")),
            "count",
            n,
        ),
        Metric::new(
            "par.pop_waits_per_op",
            per_op(c("par.pop_waits_total")),
            "count",
            n,
        ),
        Metric::new(
            "par.queue_depth_max",
            mpdf_obs::metrics::gauge("par.queue_depth_max").get() as f64,
            "count",
            n,
        ),
        Metric::new(
            "stream.ingest_depth_max",
            mpdf_obs::metrics::gauge("eval.stream.ingest_depth_max").get() as f64,
            "count",
            n,
        ),
        Metric::new("peak_rss_mb", untraced.peak_rss_mb, "MB", n),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (traced_ms / untraced.median_ms - 1.0),
            "%",
            n,
        ),
        Metric::new("trace.dropped_events", dropped as f64, "count", n),
    ]);

    let mut correct = checks.ok();
    let mut report = vec![format!(
        "traced ops={n} events={} threads_seen={} checks={}",
        events.len(),
        profile.threads.len(),
        if checks.ok() { "ok" } else { "FAILED" }
    )];
    for f in checks.failures() {
        report.push(format!("traced check failed: {f}"));
    }
    // Tracing is write-only: the traced operations reproduce the
    // untraced run's outputs.
    let same = untraced.outputs.starts_with(checks.outputs())
        || checks.outputs().starts_with(untraced.outputs);
    correct &= same;
    if !same {
        report.push("traced check failed: traced outputs differ from the untraced run".into());
    }
    let gap = (ledger.sum_ns() - ledger.root_ns as f64).abs() / ledger.root_ns.max(1) as f64;
    correct &= gap < 0.01 && ledger.residual_ns >= 0.0 && dropped == 0;
    report.push(format!(
        "ledger root_ms={:.3} layers_plus_residual_ms={:.3} residual_ms={:.3} gap={gap:.2e} dropped_events={dropped}",
        ledger.root_ns as f64 / 1e6,
        ledger.sum_ns() / 1e6,
        ledger.residual_ns / 1e6,
    ));
    for metric in &metrics {
        report.push(format!(
            "layer {} {} {}",
            metric.name, metric.value, metric.unit
        ));
    }
    if let Trace::Dir(dir) = &opts.trace {
        write_artifacts(
            &dir.join(opts.workload.name()),
            &events,
            &profile,
            &ledger,
            &d,
            &extras,
        )
        .map_err(|e| format!("write trace artifacts under {}: {e}", dir.display()))?;
    }
    Ok(Traced {
        correct,
        metrics,
        report,
    })
}

fn write_artifacts(
    dir: &Path,
    events: &[SpanEvent],
    profile: &Profile,
    ledger: &Ledger,
    counts: &Counts,
    extras: &[Metric],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut ndjson = String::new();
    for e in events {
        ndjson.push_str(&e.to_ndjson());
        ndjson.push('\n');
    }
    std::fs::write(dir.join("spans.ndjson"), ndjson)?;
    std::fs::write(
        dir.join("stacks.folded"),
        profile::collapsed_stacks(profile),
    )?;
    std::fs::write(
        dir.join("layers.json"),
        layers_json(profile, ledger, counts, extras),
    )
}

fn layers_json(profile: &Profile, ledger: &Ledger, counts: &Counts, extras: &[Metric]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"ops\": {},\n  \"root_total_ns\": {},\n  \"residual_ns\": {},\n  \"layers_plus_residual_ns\": {},\n",
        ledger.ops,
        ledger.root_ns,
        ledger.residual_ns,
        ledger.sum_ns()
    ));
    out.push_str("  \"ledger\": [");
    for (i, (layer, ns)) in ledger.layers.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"layer\": \"{layer}\", \"wall_ns\": {ns}, \"share_pct\": {}}}",
            100.0 * ns / ledger.root_ns.max(1) as f64
        ));
    }
    out.push_str("\n  ],\n  \"stages\": [");
    for (i, s) in profile.stages.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"stage\": \"{}\", \"calls\": {}, \"self_ns\": {}, \"total_ns\": {}}}",
            s.name, s.count, s.self_ns, s.total_ns
        ));
    }
    out.push_str("\n  ],\n  \"timed_counters\": {");
    for (i, (name, v)) in counts.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!("    \"{name}\": {v}"));
    }
    out.push_str("\n  },\n  \"workload_figures\": [");
    for (i, e) in extras.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
            e.name, e.value, e.unit, e.n
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}
