//! Span-stream analysis: reconstructs per-thread span trees from
//! [`SpanEvent`] streams, attributes self/total time to stages, extracts
//! the critical path of a run and renders flamegraph-compatible
//! collapsed stacks plus a deterministic hotspot table.
//!
//! The producer side ([`crate::trace`]) is write-only: it emits a flat
//! NDJSON/ring stream of enter/exit/instant events and never looks back.
//! This module is the read side — `cargo xtask trace-report` feeds it a
//! `repro --trace` capture, tests feed it a [`RingBuffer`]'s contents.
//!
//! Reconstruction is **total**: malformed streams (unbalanced
//! enter/exit, events evicted by a bounded ring, torn final lines from
//! an aborted run, interleaved threads) never panic and never abort the
//! analysis. Every repair is counted in [`Anomalies`] so a report can
//! say "this tree is truncated" instead of silently presenting a partial
//! profile as the truth.
//!
//! [`RingBuffer`]: crate::trace::RingBuffer

use std::collections::BTreeMap;

use crate::json;
use crate::trace::{SpanEvent, SpanKind};

/// Owned mirror of [`SpanEvent`], the unit this module analyzes.
///
/// Live events borrow `'static` names; events parsed back from an NDJSON
/// file own their strings. The `parent` field of the wire format is
/// deliberately dropped: nesting is reconstructed from enter/exit order,
/// which stays correct even when single events are missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Enter, exit, or instant.
    pub kind: SpanKind,
    /// Span (or instant-event) name.
    pub name: String,
    /// Per-thread id from the producer.
    pub thread: u64,
    /// Nanoseconds since the producer's tracing origin.
    pub ts_ns: u64,
    /// Reported span duration (exit events; 0 otherwise).
    pub elapsed_ns: u64,
}

impl From<&SpanEvent> for TraceEvent {
    fn from(ev: &SpanEvent) -> TraceEvent {
        TraceEvent {
            kind: ev.kind,
            name: ev.name.to_owned(),
            thread: ev.thread,
            ts_ns: ev.ts_ns,
            elapsed_ns: ev.elapsed_ns,
        }
    }
}

/// Converts a live event buffer (e.g. [`RingBuffer::events`]) into owned
/// analyzer input.
///
/// [`RingBuffer::events`]: crate::trace::RingBuffer::events
#[must_use]
pub fn from_span_events(events: &[SpanEvent]) -> Vec<TraceEvent> {
    events.iter().map(TraceEvent::from).collect()
}

/// Counts of stream defects tolerated (and repaired) during
/// reconstruction. A truncated or torn trace still yields a tree; these
/// counters are how the report refuses to present it as complete.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Anomalies {
    /// NDJSON lines that did not parse as events (torn final write,
    /// foreign lines).
    pub malformed_lines: u64,
    /// Exit events with no matching enter on the thread's stack —
    /// typically the enter was evicted by a bounded ring.
    pub unmatched_exits: u64,
    /// Spans force-closed because an outer span exited first (a guard
    /// leaked across scopes, or the matching exit was dropped).
    pub mismatched_nesting: u64,
    /// Spans still open when the stream ended (aborted run).
    pub unclosed_spans: u64,
    /// Events the producer itself reported dropped (ring eviction
    /// count), when the caller knows it.
    pub dropped_events: u64,
}

impl Anomalies {
    /// Whether any defect was observed.
    #[must_use]
    pub fn any(&self) -> bool {
        self.total() > 0
    }

    /// Sum of all defect counters.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.malformed_lines
            + self.unmatched_exits
            + self.mismatched_nesting
            + self.unclosed_spans
            + self.dropped_events
    }
}

/// One reconstructed span occurrence with its nested children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage name.
    pub name: String,
    /// Span duration in nanoseconds.
    pub total_ns: u64,
    /// Nested spans, in stream order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Self time: own duration minus the children's, saturating at zero
    /// so a malformed stream (child longer than its parent) can never
    /// produce negative attribution. With saturation, the sum of self
    /// times over any subtree never exceeds the subtree root's total.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(children)
    }
}

/// The reconstructed span forest of one producer thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTree {
    /// Producer thread id.
    pub thread: u64,
    /// Top-level spans, in stream order.
    pub roots: Vec<SpanNode>,
}

impl ThreadTree {
    /// Sum of root span durations — the thread's attributed busy time.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }
}

/// Per-stage aggregate over every occurrence in the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStat {
    /// Stage name.
    pub name: String,
    /// Number of span occurrences.
    pub count: u64,
    /// Sum of span durations (re-entrant stages double-count by design,
    /// like a flamegraph's "total" column).
    pub total_ns: u64,
    /// Sum of self times (never double-counts).
    pub self_ns: u64,
    /// Shortest single occurrence.
    pub min_ns: u64,
    /// Longest single occurrence.
    pub max_ns: u64,
}

/// One hop of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalHop {
    /// Stage name.
    pub name: String,
    /// Duration of the chosen occurrence.
    pub total_ns: u64,
    /// Self time of the chosen occurrence.
    pub self_ns: u64,
    /// Nesting depth (0 = root).
    pub depth: u32,
}

/// The complete analysis of one span stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Per-thread span forests, thread id ascending.
    pub threads: Vec<ThreadTree>,
    /// Per-stage aggregates, name ascending.
    pub stages: Vec<StageStat>,
    /// Instant-event counts, name ascending.
    pub instants: Vec<(String, u64)>,
    /// Heaviest root-to-leaf chain (greedy descent by child total).
    pub critical_path: Vec<CriticalHop>,
    /// Stream defects tolerated during reconstruction.
    pub anomalies: Anomalies,
    /// Events consumed (enter + exit + instant).
    pub events: u64,
    /// Stream wall span: max timestamp minus min timestamp.
    pub wall_ns: u64,
}

/// An open span during reconstruction.
struct Open {
    name: String,
    start_ns: u64,
    children: Vec<SpanNode>,
}

impl Open {
    fn close(self, total_ns: u64) -> SpanNode {
        let mut node = SpanNode {
            name: self.name,
            total_ns,
            children: self.children,
        };
        clamp_children(&mut node);
        node
    }
}

/// Caps each child's duration at the parent's remaining budget, in
/// stream order. A malformed stream can report a child (or an
/// unmatched-exit leaf adopted mid-span) longer than its parent; without
/// the cap, that child's *self* time would exceed the parent's *total*
/// and per-stage attribution would sum to more time than was spanned.
/// With it, Σ children ≤ parent total holds at every node, which makes
/// "subtree self-time sum ≤ root total" an invariant (proptest-pinned).
/// Well-formed streams are never altered.
fn clamp_children(node: &mut SpanNode) {
    let mut budget = node.total_ns;
    for child in &mut node.children {
        if child.total_ns > budget {
            child.total_ns = budget;
            // The child's own children were clamped against its old
            // (larger) total; re-establish the invariant below it.
            clamp_children(child);
        }
        budget -= child.total_ns;
    }
}

/// Per-thread reconstruction state.
#[derive(Default)]
struct ThreadState {
    stack: Vec<Open>,
    roots: Vec<SpanNode>,
    last_ts: u64,
}

impl ThreadState {
    /// Attaches a finished node to the innermost open span, or to the
    /// roots when the stack is empty.
    fn attach(&mut self, node: SpanNode) {
        match self.stack.last_mut() {
            Some(open) => open.children.push(node),
            None => self.roots.push(node),
        }
    }
}

/// Reconstructs a profile from an event stream, marking `dropped` events
/// as already lost at the producer (a bounded ring's eviction count).
///
/// Events must be in producer order per thread (which both the NDJSON
/// writer and the ring preserve); threads may interleave arbitrarily.
#[must_use]
pub fn reconstruct_with_dropped(events: &[TraceEvent], dropped: u64) -> Profile {
    let mut threads: BTreeMap<u64, ThreadState> = BTreeMap::new();
    let mut instants: BTreeMap<String, u64> = BTreeMap::new();
    let mut anomalies = Anomalies {
        dropped_events: dropped,
        ..Anomalies::default()
    };
    let mut min_ts = u64::MAX;
    let mut max_ts = 0u64;

    for ev in events {
        min_ts = min_ts.min(ev.ts_ns);
        max_ts = max_ts.max(ev.ts_ns);
        let state = threads.entry(ev.thread).or_default();
        state.last_ts = state.last_ts.max(ev.ts_ns);
        match ev.kind {
            SpanKind::Enter => state.stack.push(Open {
                name: ev.name.clone(),
                start_ns: ev.ts_ns,
                children: Vec::new(),
            }),
            SpanKind::Exit => {
                let duration = |open: &Open| {
                    if ev.elapsed_ns > 0 {
                        ev.elapsed_ns
                    } else {
                        ev.ts_ns.saturating_sub(open.start_ns)
                    }
                };
                if state.stack.last().is_some_and(|o| o.name == ev.name) {
                    // The well-formed case: the exit matches the top.
                    if let Some(open) = state.stack.pop() {
                        let total = duration(&open);
                        state.attach(open.close(total));
                    }
                } else if let Some(pos) = state.stack.iter().rposition(|o| o.name == ev.name) {
                    // The matching enter is buried: force-close the
                    // intervening spans (their exits were lost) at this
                    // exit's timestamp, innermost first.
                    while state.stack.len() > pos + 1 {
                        if let Some(open) = state.stack.pop() {
                            anomalies.mismatched_nesting += 1;
                            let total = ev.ts_ns.saturating_sub(open.start_ns);
                            state.attach(open.close(total));
                        }
                    }
                    if let Some(open) = state.stack.pop() {
                        let total = duration(&open);
                        state.attach(open.close(total));
                    }
                } else {
                    // No enter anywhere on this thread's stack — the
                    // enter was dropped (ring eviction / truncation).
                    // Keep the span as a leaf so its time is not lost.
                    anomalies.unmatched_exits += 1;
                    state.attach(SpanNode {
                        name: ev.name.clone(),
                        total_ns: ev.elapsed_ns,
                        children: Vec::new(),
                    });
                }
            }
            SpanKind::Instant => {
                *instants.entry(ev.name.clone()).or_insert(0) += 1;
            }
        }
    }

    // Close whatever an aborted run left open, at the thread's last
    // observed timestamp.
    let threads: Vec<ThreadTree> = threads
        .into_iter()
        .map(|(thread, mut state)| {
            while let Some(open) = state.stack.pop() {
                anomalies.unclosed_spans += 1;
                let total = state.last_ts.saturating_sub(open.start_ns);
                state.attach(open.close(total));
            }
            ThreadTree {
                thread,
                roots: state.roots,
            }
        })
        .collect();

    let stages = aggregate(&threads);
    let critical_path = critical_path(&threads);
    Profile {
        threads,
        stages,
        instants: instants.into_iter().collect(),
        critical_path,
        anomalies,
        events: events.len() as u64,
        wall_ns: max_ts.saturating_sub(min_ts.min(max_ts)),
    }
}

/// [`reconstruct_with_dropped`] for streams with no producer-side loss.
#[must_use]
pub fn reconstruct(events: &[TraceEvent]) -> Profile {
    reconstruct_with_dropped(events, 0)
}

/// Folds the forests into name-keyed stage aggregates.
fn aggregate(threads: &[ThreadTree]) -> Vec<StageStat> {
    fn visit(node: &SpanNode, acc: &mut BTreeMap<String, StageStat>) {
        let stat = acc.entry(node.name.clone()).or_insert_with(|| StageStat {
            name: node.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        stat.count += 1;
        stat.total_ns += node.total_ns;
        stat.self_ns += node.self_ns();
        stat.min_ns = stat.min_ns.min(node.total_ns);
        stat.max_ns = stat.max_ns.max(node.total_ns);
        for child in &node.children {
            visit(child, acc);
        }
    }
    let mut acc = BTreeMap::new();
    for tree in threads {
        for root in &tree.roots {
            visit(root, &mut acc);
        }
    }
    acc.into_values().collect()
}

/// Greedy heaviest descent: start from the heaviest root across all
/// threads, repeatedly step into the heaviest child. Ties break by name
/// (ascending) so the path is deterministic for a given stream.
fn critical_path(threads: &[ThreadTree]) -> Vec<CriticalHop> {
    let heavier = |a: &SpanNode, b: &SpanNode| {
        (b.total_ns, &a.name) < (a.total_ns, &b.name) // max total, min name
    };
    let mut cursor: Option<&SpanNode> = None;
    for tree in threads {
        for root in &tree.roots {
            if cursor.is_none_or(|best| heavier(root, best)) {
                cursor = Some(root);
            }
        }
    }
    let mut path = Vec::new();
    let mut depth = 0u32;
    while let Some(node) = cursor {
        path.push(CriticalHop {
            name: node.name.clone(),
            total_ns: node.total_ns,
            self_ns: node.self_ns(),
            depth,
        });
        depth += 1;
        cursor = None;
        for child in &node.children {
            if cursor.is_none_or(|best| heavier(child, best)) {
                cursor = Some(child);
            }
        }
    }
    path
}

/// Hotspots: stages ranked by self time descending, name ascending on
/// ties, truncated to `top`.
#[must_use]
pub fn hotspots(profile: &Profile, top: usize) -> Vec<&StageStat> {
    let mut ranked: Vec<&StageStat> = profile.stages.iter().collect();
    ranked.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    ranked.truncate(top);
    ranked
}

/// Renders the deterministic hotspot table (the `trace-report` default
/// output). Columns: rank, stage, count, total ms, self ms, self share
/// of the summed self time.
#[must_use]
pub fn hotspot_table(profile: &Profile, top: usize) -> String {
    let total_self: u64 = profile.stages.iter().map(|s| s.self_ns).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<4} {:<32} {:>9} {:>12} {:>12} {:>7}\n",
        "rank", "stage", "count", "total_ms", "self_ms", "self%"
    ));
    for (i, s) in hotspots(profile, top).iter().enumerate() {
        let share = if total_self == 0 {
            0.0
        } else {
            s.self_ns as f64 / total_self as f64 * 100.0
        };
        out.push_str(&format!(
            "{:<4} {:<32} {:>9} {:>12.3} {:>12.3} {:>6.1}%\n",
            i + 1,
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            share
        ));
    }
    out
}

/// Renders the critical path, one indented hop per line.
#[must_use]
pub fn critical_path_text(profile: &Profile) -> String {
    let mut out = String::new();
    for hop in &profile.critical_path {
        out.push_str(&format!(
            "{:indent$}{} total {:.3} ms, self {:.3} ms\n",
            "",
            hop.name,
            hop.total_ns as f64 / 1e6,
            hop.self_ns as f64 / 1e6,
            indent = 2 * hop.depth as usize
        ));
    }
    out
}

/// Renders flamegraph-compatible collapsed stacks: one
/// `root;child;leaf <self_ns>` line per distinct stack, merged across
/// threads and occurrences, sorted by stack string. Feed the output to
/// any `flamegraph.pl`-style renderer.
#[must_use]
pub fn collapsed_stacks(profile: &Profile) -> String {
    fn visit(node: &SpanNode, prefix: &str, acc: &mut BTreeMap<String, u64>) {
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix};{}", node.name)
        };
        let self_ns = node.self_ns();
        if self_ns > 0 {
            *acc.entry(path.clone()).or_insert(0) += self_ns;
        }
        for child in &node.children {
            visit(child, &path, acc);
        }
    }
    let mut acc = BTreeMap::new();
    for tree in &profile.threads {
        for root in &tree.roots {
            visit(root, "", &mut acc);
        }
    }
    let mut out = String::new();
    for (stack, self_ns) in &acc {
        out.push_str(&format!("{stack} {self_ns}\n"));
    }
    out
}

/// Serializes the analysis as a stable JSON object (`trace-report
/// --json`): event/anomaly counts, the top-`top` hotspots and the
/// critical path.
#[must_use]
pub fn to_json(profile: &Profile, top: usize) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"events\": {},\n  \"threads\": {},\n  \"wall_ns\": {},\n",
        profile.events,
        profile.threads.len(),
        profile.wall_ns
    ));
    let a = &profile.anomalies;
    out.push_str(&format!(
        "  \"anomalies\": {{\"malformed_lines\": {}, \"unmatched_exits\": {}, \
         \"mismatched_nesting\": {}, \"unclosed_spans\": {}, \"dropped_events\": {}}},\n",
        a.malformed_lines,
        a.unmatched_exits,
        a.mismatched_nesting,
        a.unclosed_spans,
        a.dropped_events
    ));
    out.push_str("  \"hotspots\": [");
    for (i, s) in hotspots(profile, top).iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"stage\": ");
        json::push_string(&mut out, &s.name);
        out.push_str(&format!(
            ", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
            s.count, s.total_ns, s.self_ns, s.min_ns, s.max_ns
        ));
    }
    out.push_str("\n  ],\n  \"critical_path\": [");
    for (i, hop) in profile.critical_path.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"stage\": ");
        json::push_string(&mut out, &hop.name);
        out.push_str(&format!(
            ", \"depth\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            hop.depth, hop.total_ns, hop.self_ns
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// NDJSON parsing (the read side of `SpanEvent::to_ndjson`)
// ---------------------------------------------------------------------

/// Parses an NDJSON trace capture into events plus a malformed-line
/// count. Total: a torn final line (killed process) or foreign garbage
/// is counted and skipped, never fatal. Blank lines are ignored.
#[must_use]
pub fn parse_ndjson(text: &str) -> (Vec<TraceEvent>, u64) {
    let mut events = Vec::new();
    let mut malformed = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_event_line(line) {
            Some(ev) => events.push(ev),
            None => malformed += 1,
        }
    }
    (events, malformed)
}

/// Parses one `{"ev":...}` line; `None` on any malformation.
fn parse_event_line(line: &str) -> Option<TraceEvent> {
    let mut rest = line.strip_prefix('{')?.trim_start();
    let mut kind: Option<SpanKind> = None;
    let mut name: Option<String> = None;
    let mut thread: Option<u64> = None;
    let mut ts_ns: Option<u64> = None;
    let mut elapsed_ns = 0u64;
    loop {
        if let Some(after) = rest.strip_prefix('}') {
            if !after.trim().is_empty() {
                return None;
            }
            break;
        }
        let (key, after) = json::parse_string(rest).ok()?;
        rest = after.trim_start().strip_prefix(':')?.trim_start();
        if rest.starts_with('"') {
            let (value, after) = json::parse_string(rest).ok()?;
            match key.as_str() {
                "ev" => {
                    kind = Some(match value.as_str() {
                        "enter" => SpanKind::Enter,
                        "exit" => SpanKind::Exit,
                        "instant" => SpanKind::Instant,
                        _ => return None,
                    });
                }
                "span" => name = Some(value),
                _ => {} // parent and future string fields
            }
            rest = after;
        } else {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            let value: u64 = rest.get(..end)?.parse().ok()?;
            match key.as_str() {
                "thread" => thread = Some(value),
                "ts_ns" => ts_ns = Some(value),
                "elapsed_ns" => elapsed_ns = value,
                _ => {} // depth and future numeric fields
            }
            rest = rest.get(end..)?;
        }
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        }
    }
    Some(TraceEvent {
        kind: kind?,
        name: name?,
        thread: thread?,
        ts_ns: ts_ns?,
        elapsed_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: SpanKind, name: &str, thread: u64, ts_ns: u64, elapsed_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name: name.to_owned(),
            thread,
            ts_ns,
            elapsed_ns,
        }
    }

    /// enter/exit pair helper.
    fn span(name: &str, thread: u64, start: u64, end: u64) -> [TraceEvent; 2] {
        [
            ev(SpanKind::Enter, name, thread, start, 0),
            ev(SpanKind::Exit, name, thread, end, end - start),
        ]
    }

    #[test]
    fn reconstructs_nested_spans_with_self_time() {
        let events = vec![
            ev(SpanKind::Enter, "outer", 1, 0, 0),
            ev(SpanKind::Enter, "inner", 1, 10, 0),
            ev(SpanKind::Exit, "inner", 1, 40, 30),
            ev(SpanKind::Enter, "inner", 1, 50, 0),
            ev(SpanKind::Exit, "inner", 1, 70, 20),
            ev(SpanKind::Exit, "outer", 1, 100, 100),
        ];
        let p = reconstruct(&events);
        assert!(!p.anomalies.any(), "{:?}", p.anomalies);
        assert_eq!(p.threads.len(), 1);
        assert_eq!(p.threads[0].roots.len(), 1);
        let outer = &p.threads[0].roots[0];
        assert_eq!(outer.total_ns, 100);
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.self_ns(), 50);
        let stats: BTreeMap<&str, &StageStat> =
            p.stages.iter().map(|s| (s.name.as_str(), s)).collect();
        assert_eq!(stats["inner"].count, 2);
        assert_eq!(stats["inner"].total_ns, 50);
        assert_eq!(stats["inner"].self_ns, 50);
        assert_eq!(stats["inner"].min_ns, 20);
        assert_eq!(stats["inner"].max_ns, 30);
        assert_eq!(stats["outer"].self_ns, 50);
        assert_eq!(p.wall_ns, 100);
    }

    #[test]
    fn interleaved_threads_are_reconstructed_independently() {
        let events = vec![
            ev(SpanKind::Enter, "a", 1, 0, 0),
            ev(SpanKind::Enter, "b", 2, 5, 0),
            ev(SpanKind::Exit, "a", 1, 20, 20),
            ev(SpanKind::Exit, "b", 2, 30, 25),
        ];
        let p = reconstruct(&events);
        assert!(!p.anomalies.any());
        assert_eq!(p.threads.len(), 2);
        assert_eq!(p.threads[0].thread, 1);
        assert_eq!(p.threads[0].roots[0].name, "a");
        assert_eq!(p.threads[1].roots[0].name, "b");
    }

    #[test]
    fn unmatched_exit_is_kept_as_leaf_and_counted() {
        // The ring dropped the enter of `lost`.
        let events = vec![
            ev(SpanKind::Exit, "lost", 1, 10, 7),
            ev(SpanKind::Enter, "ok", 1, 20, 0),
            ev(SpanKind::Exit, "ok", 1, 30, 10),
        ];
        let p = reconstruct(&events);
        assert_eq!(p.anomalies.unmatched_exits, 1);
        assert_eq!(p.threads[0].roots.len(), 2);
        assert_eq!(p.threads[0].roots[0].name, "lost");
        assert_eq!(p.threads[0].roots[0].total_ns, 7);
    }

    #[test]
    fn buried_exit_force_closes_intervening_spans() {
        // `mid`'s exit was lost; `outer`'s exit arrives while `mid` is
        // still open.
        let events = vec![
            ev(SpanKind::Enter, "outer", 1, 0, 0),
            ev(SpanKind::Enter, "mid", 1, 10, 0),
            ev(SpanKind::Exit, "outer", 1, 50, 50),
        ];
        let p = reconstruct(&events);
        assert_eq!(p.anomalies.mismatched_nesting, 1);
        let outer = &p.threads[0].roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].name, "mid");
        assert_eq!(outer.children[0].total_ns, 40);
    }

    #[test]
    fn unclosed_spans_are_closed_at_stream_end() {
        let events = vec![
            ev(SpanKind::Enter, "outer", 1, 0, 0),
            ev(SpanKind::Enter, "inner", 1, 10, 0),
            ev(SpanKind::Exit, "inner", 1, 40, 30),
        ];
        let p = reconstruct(&events);
        assert_eq!(p.anomalies.unclosed_spans, 1);
        let outer = &p.threads[0].roots[0];
        assert_eq!(outer.total_ns, 40, "closed at the last seen timestamp");
        assert_eq!(outer.children[0].name, "inner");
    }

    #[test]
    fn critical_path_walks_heaviest_chain() {
        let mut events = Vec::new();
        events.push(ev(SpanKind::Enter, "root", 1, 0, 0));
        events.extend(span("light", 1, 10, 30));
        events.extend(span("heavy", 1, 40, 140));
        events.push(ev(SpanKind::Exit, "root", 1, 150, 150));
        // A lighter root on another thread must not win.
        events.extend(span("other", 2, 0, 50));
        let p = reconstruct(&events);
        let names: Vec<&str> = p.critical_path.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, vec!["root", "heavy"]);
        assert_eq!(p.critical_path[0].depth, 0);
        assert_eq!(p.critical_path[1].depth, 1);
        assert_eq!(p.critical_path[1].total_ns, 100);
    }

    #[test]
    fn collapsed_stacks_merge_occurrences() {
        let mut events = Vec::new();
        events.push(ev(SpanKind::Enter, "root", 1, 0, 0));
        events.extend(span("leaf", 1, 10, 30));
        events.extend(span("leaf", 1, 40, 50));
        events.push(ev(SpanKind::Exit, "root", 1, 100, 100));
        let p = reconstruct(&events);
        let collapsed = collapsed_stacks(&p);
        assert_eq!(collapsed, "root 70\nroot;leaf 30\n");
    }

    #[test]
    fn hotspot_table_is_deterministic_and_ranked() {
        let mut events = Vec::new();
        events.extend(span("b.slow", 1, 0, 100));
        events.extend(span("a.fast", 1, 100, 110));
        events.extend(span("c.tie", 1, 200, 210));
        let p = reconstruct(&events);
        let table = hotspot_table(&p, 10);
        let b = table.find("b.slow").expect("b.slow");
        let a = table.find("a.fast").expect("a.fast");
        let c = table.find("c.tie").expect("c.tie");
        assert!(b < a && a < c, "rank by self desc then name asc:\n{table}");
        assert_eq!(table, hotspot_table(&reconstruct(&events), 10));
    }

    #[test]
    fn ndjson_roundtrip() {
        let live = SpanEvent {
            kind: SpanKind::Exit,
            name: "music.scan",
            parent: Some("eval.window"),
            depth: 3,
            thread: 2,
            ts_ns: 1000,
            elapsed_ns: 250,
        };
        let text = format!("{}\n{}\n", live.to_ndjson(), "not json at all");
        let (events, malformed) = parse_ndjson(&text);
        assert_eq!(malformed, 1);
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            TraceEvent {
                kind: SpanKind::Exit,
                name: "music.scan".to_owned(),
                thread: 2,
                ts_ns: 1000,
                elapsed_ns: 250,
            }
        );

        // Names with a newline, a quote and a backslash stay on one line
        // and read back unchanged.
        let odd = SpanEvent {
            name: "odd\nspan \"q\" \\",
            parent: Some("odd\nparent \"q\" \\"),
            ..live
        };
        let line = odd.to_ndjson();
        assert_eq!(line.lines().count(), 1, "{line}");
        let Ok(json::Json::Obj(fields)) = json::parse_document(&line) else {
            panic!("event line does not parse: {line}");
        };
        assert!(fields.iter().any(|(k, v)| k == "parent"
            && matches!(v, json::Json::Str(s) if s == "odd\nparent \"q\" \\")));
        let (events, malformed) = parse_ndjson(&format!("{line}\n"));
        assert_eq!(malformed, 0);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, odd.name);
    }

    #[test]
    fn torn_final_line_is_counted_not_fatal() {
        let good = "{\"ev\":\"enter\",\"span\":\"x.y\",\"depth\":1,\"thread\":1,\"ts_ns\":5}";
        let torn = "{\"ev\":\"exit\",\"span\":\"x.y\",\"de";
        let (events, malformed) = parse_ndjson(&format!("{good}\n{torn}"));
        assert_eq!(events.len(), 1);
        assert_eq!(malformed, 1);
        let p = reconstruct(&events);
        assert_eq!(p.anomalies.unclosed_spans, 1);
    }

    #[test]
    fn json_export_shape() {
        let events: Vec<TraceEvent> = span("a.b", 1, 0, 10).into_iter().collect();
        let p = reconstruct_with_dropped(&events, 3);
        let json = to_json(&p, 5);
        assert!(json.contains("\"dropped_events\": 3"));
        assert!(json.contains("\"stage\": \"a.b\""));
        assert!(json::parse_document(&json).is_ok(), "{json}");
    }

    #[test]
    fn json_export_escapes_stage_names() {
        let name = "odd\n\"stage\"\\";
        let events: Vec<TraceEvent> = span(name, 1, 0, 10).into_iter().collect();
        let json = to_json(&reconstruct(&events), 5);
        let Ok(json::Json::Obj(fields)) = json::parse_document(&json) else {
            panic!("trace report does not parse:\n{json}");
        };
        for key in ["hotspots", "critical_path"] {
            let Some((_, json::Json::Arr(rows))) = fields.iter().find(|(k, _)| k == key) else {
                panic!("{key} missing:\n{json}");
            };
            let Some(json::Json::Obj(row)) = rows.first() else {
                panic!("{key} is empty:\n{json}");
            };
            assert!(
                matches!(&row[0], (k, json::Json::Str(s)) if k == "stage" && s == name),
                "{json}"
            );
        }
    }

    #[test]
    fn empty_stream_yields_empty_profile() {
        let p = reconstruct(&[]);
        assert!(p.threads.is_empty());
        assert!(p.stages.is_empty());
        assert!(p.critical_path.is_empty());
        assert!(!p.anomalies.any());
        assert_eq!(hotspot_table(&p, 5).lines().count(), 1);
        assert_eq!(collapsed_stacks(&p), "");
    }
}
