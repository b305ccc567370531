#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod compare;
pub mod fleet;
pub mod gen;
pub mod ledger;
pub mod logio;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod stream;

use crate::gen::Digest;
use crate::spans::{SharedSpans, Spans};

/// The benchmark's workloads, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Simulate and score a five-case campaign.
    Campaign,
    /// Replay a recorded campaign through the wire codec.
    Stream,
    /// Step an in-memory fleet one tick.
    Fleet,
    /// Step a fleet with shard logs one tick.
    FleetLogged,
}

impl Workload {
    /// All workloads, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::Stream,
        Workload::Fleet,
        Workload::FleetLogged,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Stream => "stream",
            Workload::Fleet => "fleet",
            Workload::FleetLogged => "fleet_logged",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed operations `(by default, at least when timing by seconds)`.
    pub fn lengths(self, scale: Scale) -> (u64, u64) {
        match (self, scale) {
            (Workload::Campaign, Scale::Full) => (12, 3),
            (Workload::Stream, Scale::Full) => (40, 5),
            (Workload::Fleet, Scale::Full) => (400, 64),
            (Workload::FleetLogged, Scale::Full) => (200, 24),
            (Workload::Campaign | Workload::Stream, Scale::Smoke) => (2, 1),
            (Workload::Fleet | Workload::FleetLogged, Scale::Smoke) => (6, 4),
        }
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Tiny sizes that run in seconds in a debug build (tests only).
    Smoke,
}

/// What one run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Library worker threads.
    pub threads: usize,
    /// Input sizes.
    pub scale: Scale,
    /// Sink for the log-IO shim's spans (traced pass only).
    pub io_spans: Option<SharedSpans>,
}

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Wall time of the public calls, milliseconds.
    pub ms: f64,
    /// Windows the operation fully processed.
    pub windows: u64,
    /// A layer returned a typed error, a shard crashed, or a link
    /// faulted for a reason other than a deliberately poisoned window.
    pub failed: bool,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json` or the report.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// A measurement.
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name,
            // `+ 0.0` turns the -0.0 of an empty float sum into 0.
            value: value + 0.0,
            unit,
            n,
        }
    }
}

/// Output checks and the output digest of one pass.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    failures: Vec<String>,
    failed_checks: usize,
    outputs: Vec<u64>,
}

impl Checks {
    /// Records a failed check unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Records one operation's output digest.
    pub fn output(&mut self, digest: u64) {
        self.outputs.push(digest);
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failed_checks == 0
    }

    /// The first failure messages.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Per-operation output digests, warm-up included, in run order.
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Digest over every operation's output, warm-up included.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for &o in &self.outputs {
            d.u64(o);
        }
        d.value()
    }
}

/// A workload's lifecycle, driven by [`runner`].
pub trait Bench: Sized {
    /// Generates the inputs, builds the program state and runs the
    /// warm-up operations.
    ///
    /// # Errors
    /// A rendered error when set-up itself fails.
    fn setup(ctx: &Ctx, spans: &mut Spans) -> Result<Self, String>;

    /// Runs timed operation `index`, opening a [`spans::OP`] span around
    /// exactly the timed calls.
    fn op(&mut self, index: u64, spans: &mut Spans) -> Op;

    /// Checks that need the whole run (references, replays) and returns
    /// the workload's own figures for the report.
    fn finish(&mut self, ops: &[Op]) -> Vec<Metric>;

    /// The pass's checks.
    fn checks(&self) -> &Checks;
}

/// Runs `f` as the timed part of an operation: inside a [`spans::OP`]
/// span, timed with a monotonic clock. Returns `f`'s result and the
/// elapsed milliseconds.
pub fn timed<R>(spans: &mut Spans, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
    spans.span(spans::OP, |s| {
        let start = std::time::Instant::now();
        let out = f(s);
        (out, start.elapsed().as_secs_f64() * 1e3)
    })
}
