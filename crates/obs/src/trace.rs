//! Span/event tracing core: thread-local span stacks, monotonic
//! timestamps, and a pluggable [`Subscriber`].
//!
//! With no subscriber installed (the default) span entry/exit costs a
//! couple of relaxed atomic loads — cheap enough to leave the
//! [`stage!`](crate::stage) call sites compiled into release builds.
//! Installing a subscriber ([`install`]) flips a process-wide flag and
//! every span/instant event is delivered to it, tagged with span name,
//! parent span, nesting depth, a small per-thread id, and nanoseconds
//! since the first event of the process.
//!
//! Two subscribers ship with the crate:
//! - [`NdjsonWriter`] appends one JSON object per event to a file
//!   (`repro --trace <path>`),
//! - [`RingBuffer`] keeps the last N events in memory for tests and
//!   programmatic inspection.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::json;
use crate::metrics::{self, Histogram};

/// What a [`SpanEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A span was entered.
    Enter,
    /// A span was exited; `elapsed_ns` holds its duration.
    Exit,
    /// A point-in-time event (no duration).
    Instant,
}

impl SpanKind {
    /// Short lowercase tag used in the NDJSON encoding.
    pub fn tag(self) -> &'static str {
        match self {
            SpanKind::Enter => "enter",
            SpanKind::Exit => "exit",
            SpanKind::Instant => "instant",
        }
    }
}

/// One tracing event, delivered to the installed [`Subscriber`].
///
/// Span names are `'static` string literals (the [`stage!`](crate::stage)
/// macro only accepts literals), so events are `Copy` and can be buffered
/// without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Enter, exit, or instant.
    pub kind: SpanKind,
    /// Span (or instant-event) name, e.g. `"music.scan"`.
    pub name: &'static str,
    /// Name of the enclosing span on the same thread, if any.
    pub parent: Option<&'static str>,
    /// Nesting depth on this thread (1 = top-level span).
    pub depth: u32,
    /// Small per-thread id (1, 2, … in order of first event).
    pub thread: u64,
    /// Nanoseconds since the process's tracing origin.
    pub ts_ns: u64,
    /// Span duration for [`SpanKind::Exit`], 0 otherwise.
    pub elapsed_ns: u64,
}

impl SpanEvent {
    /// Encodes the event as a single NDJSON line (no trailing newline).
    /// Names are escaped with [`json::push_string`], so any name —
    /// newlines included — stays on its line and parses back unchanged.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"ev\":\"");
        out.push_str(self.kind.tag());
        out.push_str("\",\"span\":");
        json::push_string(&mut out, self.name);
        if let Some(parent) = self.parent {
            out.push_str(",\"parent\":");
            json::push_string(&mut out, parent);
        }
        out.push_str(&format!(
            ",\"depth\":{},\"thread\":{},\"ts_ns\":{}",
            self.depth, self.thread, self.ts_ns
        ));
        if self.kind == SpanKind::Exit {
            out.push_str(&format!(",\"elapsed_ns\":{}", self.elapsed_ns));
        }
        out.push('}');
        out
    }
}

/// Receives tracing events. Implementations must be cheap and
/// non-blocking where possible: they run inline on the pipeline's
/// threads.
pub trait Subscriber: Send + Sync {
    /// Called once per span enter/exit/instant.
    fn event(&self, event: &SpanEvent);
    /// Flushes any buffered output (called by [`flush`] and on
    /// [`uninstall`]).
    fn flush(&self) {}
}

static TRACING: AtomicBool = AtomicBool::new(false);

fn subscriber_slot() -> &'static Mutex<Option<Arc<dyn Subscriber>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<dyn Subscriber>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Installs `sub` as the process-wide subscriber and enables tracing.
/// Replaces (and returns) any previously installed subscriber.
///
/// The first install also chains a panic hook that flushes the
/// subscriber, so a run aborted by a worker panic still leaves an
/// analyzable trace file instead of a truncated buffer.
pub fn install(sub: Arc<dyn Subscriber>) -> Option<Arc<dyn Subscriber>> {
    install_panic_flush();
    let mut slot = subscriber_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let old = slot.replace(sub);
    TRACING.store(true, Ordering::Release);
    old
}

/// Chains a process-wide panic hook (once) that flushes the installed
/// subscriber before the default hook runs. `flush` only takes the
/// subscriber slot and writer locks, both poison-tolerant, so flushing
/// from the panicking thread is safe.
fn install_panic_flush() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flush();
            prev(info);
        }));
    });
}

/// Disables tracing, flushes and removes the current subscriber
/// (returned so callers can keep inspecting it).
pub fn uninstall() -> Option<Arc<dyn Subscriber>> {
    TRACING.store(false, Ordering::Release);
    let old = subscriber_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(sub) = &old {
        sub.flush();
    }
    old
}

/// Whether a subscriber is installed (the span fast-path gate).
#[inline]
pub fn enabled() -> bool {
    TRACING.load(Ordering::Acquire)
}

/// Flushes the installed subscriber, if any.
pub fn flush() {
    let sub = subscriber_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(sub) = sub {
        sub.flush();
    }
}

fn dispatch(event: &SpanEvent) {
    let sub = subscriber_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(sub) = sub {
        sub.event(event);
    }
}

/// Monotonic origin shared by every thread; the first caller pins it.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the tracing origin (saturates at `u64::MAX` after
/// ~584 years of uptime).
pub fn now_ns() -> u64 {
    let nanos = origin().elapsed().as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Small per-thread id: 1, 2, … in order of first tracing activity.
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != 0 {
            id
        } else {
            let id = NEXT.fetch_add(1, Ordering::Relaxed);
            cell.set(id);
            id
        }
    })
}

/// Emits a point-in-time event under the current span, if tracing is
/// enabled; a no-op otherwise.
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    let (parent, depth) = SPAN_STACK.with(|stack| {
        let stack = stack.borrow();
        (stack.last().copied(), stack.len() as u32)
    });
    dispatch(&SpanEvent {
        kind: SpanKind::Instant,
        name,
        parent,
        depth,
        thread: thread_id(),
        ts_ns: now_ns(),
        elapsed_ns: 0,
    });
}

/// RAII scope produced by the [`stage!`](crate::stage) macro: a tracing
/// span plus (when [`metrics::enable_timing`] is on) an
/// elapsed-nanoseconds histogram record.
///
/// The guard captures whether tracing/timing were enabled at entry, so a
/// subscriber installed mid-span never sees an exit without its enter.
#[must_use = "binds a stage scope; dropping it immediately closes the stage"]
pub struct StageGuard {
    name: &'static str,
    start: Option<Instant>,
    hist: Option<Arc<Histogram>>,
    traced: bool,
    /// Attributes allocations inside this stage to its name (feature
    /// `alloc-count`; a no-op unless [`crate::allocs::enable`] ran).
    /// Declared last so it closes after the exit event is dispatched.
    #[cfg(feature = "alloc-count")]
    _alloc: crate::allocs::StageScope,
}

impl StageGuard {
    /// Opens a stage. `cell` is the per-call-site histogram cache the
    /// macro supplies; it is only populated when timing is enabled.
    pub fn begin(name: &'static str, cell: &'static OnceLock<Arc<Histogram>>) -> StageGuard {
        let traced = enabled();
        let timed = metrics::timing_enabled();
        if !traced && !timed {
            return StageGuard {
                name,
                start: None,
                hist: None,
                traced: false,
                #[cfg(feature = "alloc-count")]
                _alloc: crate::allocs::StageScope::enter(name),
            };
        }
        let start = Instant::now();
        let hist = timed.then(|| Arc::clone(cell.get_or_init(|| metrics::histogram(name))));
        if traced {
            let (parent, depth) = SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                let parent = stack.last().copied();
                stack.push(name);
                (parent, stack.len() as u32)
            });
            dispatch(&SpanEvent {
                kind: SpanKind::Enter,
                name,
                parent,
                depth,
                thread: thread_id(),
                ts_ns: now_ns(),
                elapsed_ns: 0,
            });
        }
        StageGuard {
            name,
            start: Some(start),
            hist,
            traced,
            #[cfg(feature = "alloc-count")]
            _alloc: crate::allocs::StageScope::enter(name),
        }
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let elapsed = start.elapsed();
        let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if let Some(hist) = &self.hist {
            hist.record(elapsed_ns);
        }
        if self.traced {
            let (parent, depth) = SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                // Pop our own frame; tolerate a mismatched stack (e.g. a
                // guard moved across threads) by searching from the top.
                if stack.last() == Some(&self.name) {
                    stack.pop();
                } else if let Some(pos) = stack.iter().rposition(|n| *n == self.name) {
                    stack.remove(pos);
                }
                (stack.last().copied(), stack.len() as u32 + 1)
            });
            dispatch(&SpanEvent {
                kind: SpanKind::Exit,
                name: self.name,
                parent,
                depth,
                thread: thread_id(),
                ts_ns: now_ns(),
                elapsed_ns,
            });
        }
    }
}

/// Subscriber that appends one JSON object per event to a file —
/// newline-delimited JSON, the `repro --trace <path>` backend.
pub struct NdjsonWriter {
    out: Mutex<BufWriter<File>>,
}

impl NdjsonWriter {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> io::Result<NdjsonWriter> {
        let file = File::create(path)?;
        Ok(NdjsonWriter {
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Subscriber for NdjsonWriter {
    fn event(&self, event: &SpanEvent) {
        let mut line = event.to_ndjson();
        line.push('\n');
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // A full disk mid-trace must not take down the pipeline; the
        // final flush reports persistent failures via `flush`.
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = out.flush();
    }
}

impl Drop for NdjsonWriter {
    /// Flushes buffered events so a writer dropped without a clean
    /// [`uninstall`] (aborted run, test teardown) still persists its
    /// tail. `BufWriter`'s own drop would flush too, but silently; doing
    /// it here keeps the behavior explicit and poison-tolerant.
    fn drop(&mut self) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = out.flush();
    }
}

/// Subscriber keeping the most recent `capacity` events in memory.
pub struct RingBuffer {
    events: Mutex<VecDeque<SpanEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl RingBuffer {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> RingBuffer {
        RingBuffer {
            events: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Copies out the buffered events, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Subscriber for RingBuffer {
    fn event(&self, event: &SpanEvent) {
        let evicted = {
            let mut events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
            let evicted = events.len() == self.capacity;
            if evicted {
                events.pop_front();
            }
            events.push_back(*event);
            evicted
        };
        // Counted outside the ring lock: interning the counter takes the
        // registry lock, and profile reports read this to warn that the
        // reconstruction is built from a truncated stream.
        if evicted {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            crate::counter!("obs.trace.dropped_events_total").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::testutil::lock as test_lock;

    fn stage_for_test(name: &'static str) -> StageGuard {
        // Mirrors the `stage!` macro with a leaked per-call cell, since
        // tests want distinct cells per invocation.
        let cell: &'static OnceLock<Arc<Histogram>> = Box::leak(Box::new(OnceLock::new()));
        StageGuard::begin(name, cell)
    }

    #[test]
    fn disabled_guard_is_inert() {
        let _serial = test_lock();
        uninstall();
        metrics::disable_timing();
        let guard = stage_for_test("trace.test.inert");
        assert!(guard.start.is_none());
        drop(guard);
        // The histogram was never interned.
        let snap = metrics::snapshot();
        assert!(snap
            .histograms
            .iter()
            .all(|(name, _)| name != "trace.test.inert"));
    }

    #[test]
    fn ring_buffer_captures_nested_spans() {
        let _serial = test_lock();
        let ring = Arc::new(RingBuffer::new(64));
        install(Arc::clone(&ring) as Arc<dyn Subscriber>);
        {
            let _outer = stage_for_test("trace.test.outer");
            {
                let _inner = stage_for_test("trace.test.inner");
            }
            instant("trace.test.tick");
        }
        uninstall();
        let events: Vec<SpanEvent> = ring
            .events()
            .into_iter()
            .filter(|e| e.name.starts_with("trace.test."))
            .collect();
        assert_eq!(events.len(), 5, "{events:?}");
        assert_eq!(events[0].kind, SpanKind::Enter);
        assert_eq!(events[0].name, "trace.test.outer");
        assert_eq!(events[0].parent, None);
        assert_eq!(events[1].name, "trace.test.inner");
        assert_eq!(events[1].parent, Some("trace.test.outer"));
        assert_eq!(events[1].depth, 2);
        assert_eq!(events[2].kind, SpanKind::Exit);
        assert_eq!(events[2].name, "trace.test.inner");
        assert_eq!(events[3].kind, SpanKind::Instant);
        assert_eq!(events[3].name, "trace.test.tick");
        assert_eq!(events[3].parent, Some("trace.test.outer"));
        assert_eq!(events[4].kind, SpanKind::Exit);
        assert_eq!(events[4].name, "trace.test.outer");
        // Exit timestamps do not precede enters.
        assert!(events[4].ts_ns >= events[0].ts_ns);
    }

    #[test]
    fn timing_records_into_named_histogram() {
        let _serial = test_lock();
        uninstall();
        metrics::enable_timing();
        {
            let _stage = stage_for_test("trace.test.timed");
        }
        metrics::disable_timing();
        let hist = metrics::histogram("trace.test.timed");
        assert!(hist.count() >= 1);
    }

    #[test]
    fn ring_buffer_bounds_capacity() {
        let ring = RingBuffer::new(3);
        for i in 0..10u64 {
            ring.event(&SpanEvent {
                kind: SpanKind::Instant,
                name: "x",
                parent: None,
                depth: 0,
                thread: 1,
                ts_ns: i,
                elapsed_ns: 0,
            });
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].ts_ns, 7);
        assert_eq!(ring.dropped(), 7);
    }

    #[test]
    fn ndjson_encoding_shape() {
        let ev = SpanEvent {
            kind: SpanKind::Exit,
            name: "music.scan",
            parent: Some("eval.window"),
            depth: 3,
            thread: 2,
            ts_ns: 1000,
            elapsed_ns: 250,
        };
        assert_eq!(
            ev.to_ndjson(),
            "{\"ev\":\"exit\",\"span\":\"music.scan\",\"parent\":\"eval.window\",\
             \"depth\":3,\"thread\":2,\"ts_ns\":1000,\"elapsed_ns\":250}"
        );
        let enter = SpanEvent {
            kind: SpanKind::Enter,
            parent: None,
            ..ev
        };
        let line = enter.to_ndjson();
        assert!(!line.contains("parent"));
        assert!(!line.contains("elapsed_ns"));
    }

    #[test]
    fn ndjson_writer_appends_lines() {
        let _serial = test_lock();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("mpdf_obs_trace_test_{}.ndjson", std::process::id()));
        let writer = NdjsonWriter::create(&path).expect("create trace file");
        install(Arc::new(writer));
        {
            let _stage = stage_for_test("trace.test.file");
        }
        uninstall();
        let contents = std::fs::read_to_string(&path).expect("read trace file");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = contents
            .lines()
            .filter(|l| l.contains("trace.test.file"))
            .collect();
        assert_eq!(lines.len(), 2, "{contents}");
        assert!(lines[0].contains("\"ev\":\"enter\""));
        assert!(lines[1].contains("\"ev\":\"exit\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn thread_ids_are_stable_per_thread() {
        let a = thread_id();
        let b = thread_id();
        assert_eq!(a, b);
        assert!(a >= 1);
        let other = std::thread::spawn(thread_id).join().expect("join");
        assert_ne!(other, 0);
    }
}
