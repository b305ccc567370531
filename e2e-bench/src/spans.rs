//! The benchmark's own spans.
//!
//! Spans around each public call are kept in memory (never dispatched to
//! the program's subscriber, so they cannot perturb its span stacks) and
//! merged with the program's spans from the trace ring when the traced
//! pass ends. Names starting with [`IO_PREFIX`] mark time the shard logs
//! spent in their store; every other `bench.` span is the benchmark's
//! own (residual) time.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use mpdf_obs::trace::{now_ns, thread_id};
use mpdf_obs::{SpanEvent, SpanKind};

/// Prefix of every benchmark-recorded span.
pub const BENCH_PREFIX: &str = "bench.";
/// Prefix of the log-IO shim's spans (a program layer, not residual).
pub const IO_PREFIX: &str = "bench.io.";
/// Root span of one timed operation.
pub const OP: &str = "bench.op";

fn event(kind: SpanKind, name: &'static str, ts_ns: u64, elapsed_ns: u64) -> SpanEvent {
    SpanEvent {
        kind,
        name,
        parent: None,
        depth: 0,
        thread: thread_id(),
        ts_ns,
        elapsed_ns,
    }
}

/// Records nested spans on the calling (generator) thread.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    events: Vec<SpanEvent>,
    open: Vec<u64>,
}

impl Spans {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            ..Spans::default()
        }
    }

    /// Runs `f` inside a span named `name`; `f` may open nested spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start = now_ns();
        self.events.push(event(SpanKind::Enter, name, start, 0));
        self.open.push(start);
        let out = f(self);
        let end = now_ns();
        let start = self.open.pop().unwrap_or(end);
        self.events
            .push(event(SpanKind::Exit, name, end, end.saturating_sub(start)));
        out
    }

    /// Takes the recorded events.
    pub fn take(&mut self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.events)
    }
}

/// A span sink shared across threads (the log-IO shim runs on the
/// fleet's pool threads).
pub type SharedSpans = Arc<Mutex<Vec<SpanEvent>>>;

/// Times `f` and, when `sink` is set, records it as a leaf span on the
/// calling thread. Returns `f`'s result and the elapsed nanoseconds.
pub fn leaf<R>(sink: Option<&SharedSpans>, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let start = now_ns();
    let out = f();
    let end = now_ns();
    let elapsed = end.saturating_sub(start);
    if let Some(sink) = sink {
        let mut events = sink.lock().unwrap_or_else(PoisonError::into_inner);
        events.push(event(SpanKind::Enter, name, start, 0));
        events.push(event(SpanKind::Exit, name, end, elapsed));
    }
    (out, elapsed)
}

/// Whether benchmark event `b` goes before program event `p` of the same
/// thread. On a timestamp tie a benchmark span encloses a program span
/// that opens at the same instant, and closes after one that closes at
/// the same instant; a span that closes at an instant precedes one that
/// opens at it.
fn bench_first(b: &SpanEvent, p: &SpanEvent) -> bool {
    if b.ts_ns != p.ts_ns {
        return b.ts_ns < p.ts_ns;
    }
    match (b.kind, p.kind) {
        (SpanKind::Enter, SpanKind::Enter) | (SpanKind::Exit, SpanKind::Enter) => true,
        (SpanKind::Instant, _) => true,
        (SpanKind::Enter | SpanKind::Exit, _) => false,
    }
}

fn by_thread(events: Vec<SpanEvent>) -> BTreeMap<u64, Vec<SpanEvent>> {
    let mut out: BTreeMap<u64, Vec<SpanEvent>> = BTreeMap::new();
    for e in events {
        out.entry(e.thread).or_default().push(e);
    }
    out
}

/// Merges benchmark and program events into one stream. Each input must
/// be in per-thread emission order; each thread's two sequences are
/// merged by timestamp (ties as in `bench_first`), the result is ordered
/// by timestamp, and every event's `parent` and `depth` are rewritten to
/// the merged nesting.
pub fn merge(bench: Vec<SpanEvent>, program: Vec<SpanEvent>) -> Vec<SpanEvent> {
    let mut bench = by_thread(bench);
    let mut merged = Vec::new();
    for (thread, prog) in by_thread(program) {
        let mine = bench.remove(&thread).unwrap_or_default();
        let start = merged.len();
        let (mut i, mut j) = (0, 0);
        while i < mine.len() || j < prog.len() {
            let take_bench = j == prog.len() || (i < mine.len() && bench_first(&mine[i], &prog[j]));
            if take_bench {
                merged.push(mine[i]);
                i += 1;
            } else {
                merged.push(prog[j]);
                j += 1;
            }
        }
        renest(&mut merged[start..]);
    }
    for (_, mut mine) in bench {
        renest(&mut mine);
        merged.extend(mine);
    }
    merged.sort_by_key(|e| e.ts_ns);
    merged
}

/// Rewrites `parent` and `depth` of one thread's events.
fn renest(events: &mut [SpanEvent]) {
    let mut stack: Vec<&'static str> = Vec::new();
    for e in events {
        match e.kind {
            SpanKind::Enter => {
                e.parent = stack.last().copied();
                stack.push(e.name);
                e.depth = stack.len() as u32;
            }
            SpanKind::Exit => {
                e.depth = stack.len() as u32;
                if let Some(pos) = stack.iter().rposition(|n| *n == e.name) {
                    stack.truncate(pos);
                }
                e.parent = stack.last().copied();
            }
            SpanKind::Instant => {
                e.parent = stack.last().copied();
                e.depth = stack.len() as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, name: &'static str, thread: u64, ts_ns: u64) -> SpanEvent {
        SpanEvent {
            kind,
            name,
            parent: None,
            depth: 1,
            thread,
            ts_ns,
            elapsed_ns: 0,
        }
    }

    #[test]
    fn merge_nests_program_spans_under_bench_spans() {
        let bench = vec![
            ev(SpanKind::Enter, OP, 1, 10),
            ev(SpanKind::Exit, OP, 1, 50),
        ];
        let program = vec![
            ev(SpanKind::Enter, "core.mu_k", 1, 10),
            ev(SpanKind::Exit, "core.mu_k", 1, 50),
            ev(SpanKind::Enter, "music.eig", 2, 5),
            ev(SpanKind::Exit, "music.eig", 2, 9),
        ];
        let merged = merge(bench, program);
        let names: Vec<(&str, SpanKind, u32)> =
            merged.iter().map(|e| (e.name, e.kind, e.depth)).collect();
        assert_eq!(
            names,
            vec![
                ("music.eig", SpanKind::Enter, 1),
                ("music.eig", SpanKind::Exit, 1),
                (OP, SpanKind::Enter, 1),
                ("core.mu_k", SpanKind::Enter, 2),
                ("core.mu_k", SpanKind::Exit, 2),
                (OP, SpanKind::Exit, 1),
            ]
        );
        assert_eq!(merged[3].parent, Some(OP));
    }

    #[test]
    fn shim_spans_nest_inside_the_generators_own_spans() {
        let outer = vec![
            ev(SpanKind::Enter, "bench.setup", 1, 10),
            ev(SpanKind::Exit, "bench.setup", 1, 90),
        ];
        let io = vec![
            ev(SpanKind::Enter, "bench.io.append", 1, 20),
            ev(SpanKind::Exit, "bench.io.append", 1, 30),
        ];
        let merged = merge(outer, io);
        let order: Vec<&str> = merged.iter().map(|e| e.name).collect();
        assert_eq!(
            order,
            [
                "bench.setup",
                "bench.io.append",
                "bench.io.append",
                "bench.setup"
            ]
        );
        assert_eq!(
            (merged[1].depth, merged[1].parent),
            (2, Some("bench.setup"))
        );
    }

    #[test]
    fn a_leaf_opening_as_a_program_span_closes_is_not_nested_in_it() {
        let bench = vec![
            ev(SpanKind::Enter, "bench.io.append", 3, 80),
            ev(SpanKind::Exit, "bench.io.append", 3, 85),
        ];
        let program = vec![
            ev(SpanKind::Enter, "fleet.step", 3, 20),
            ev(SpanKind::Exit, "fleet.step", 3, 80),
        ];
        let merged = merge(bench, program);
        assert_eq!(merged[1].name, "fleet.step");
        assert_eq!(merged[2].name, "bench.io.append");
        assert_eq!((merged[2].depth, merged[2].parent), (1, None));
    }

    #[test]
    fn recorder_nests_and_can_be_disabled() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.span(OP, |_| 7), 7);
        assert!(spans.take().is_empty());
        let mut spans = Spans::new(true);
        spans.span(OP, |s| s.span("bench.call", |_| ()));
        let events = spans.take();
        let order: Vec<(&str, SpanKind)> = events.iter().map(|e| (e.name, e.kind)).collect();
        assert_eq!(
            order,
            vec![
                (OP, SpanKind::Enter),
                ("bench.call", SpanKind::Enter),
                ("bench.call", SpanKind::Exit),
                (OP, SpanKind::Exit),
            ]
        );
    }
}
