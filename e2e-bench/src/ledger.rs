//! The layer ledger: splits each timed operation's wall time among the
//! layers that were running, so the layer times plus a residual add up
//! to the operation's root span exactly.
//!
//! The library runs its work on pool threads while the calling thread
//! waits, so per-thread self times add up to CPU time, not to the wall
//! time a caller waits for. The ledger instead walks the merged span
//! stream in time order. At each instant inside a [`OP`] root span:
//!
//! - if any thread other than the generator thread is inside a span,
//!   the instant is split equally among those threads' innermost spans
//!   (the generator thread is then waiting on them);
//! - otherwise the generator thread's innermost span takes the instant,
//!   and when that is a benchmark span (or a pool thread is busy outside
//!   any span, e.g. decoding the wire) the instant is residual.
//!
//! Time a pool thread spends outside every span while another thread is
//! inside one is not seen; the README lists these blind spots.

use std::collections::BTreeMap;

use mpdf_obs::{SpanEvent, SpanKind};

use crate::spans::{BENCH_PREFIX, IO_PREFIX, OP};

/// Ledger name of the shard-log storage layer.
pub const LOG_IO: &str = "log.io";

/// Wall-time attribution of the timed operations of one traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Timed operations (root spans) seen.
    pub ops: u64,
    /// Summed root-span wall time, ns.
    pub root_ns: u64,
    /// Wall-time share per layer (a program stage name, or [`LOG_IO`]), ns.
    pub layers: BTreeMap<String, f64>,
    /// Root time no program layer covered, ns.
    pub residual_ns: f64,
}

impl Ledger {
    /// Sum of the layer shares plus the residual (equals `root_ns` up to
    /// floating-point rounding).
    pub fn sum_ns(&self) -> f64 {
        self.layers.values().sum::<f64>() + self.residual_ns
    }

    /// Wall-time share of the layers whose name satisfies `pick`, ns.
    pub fn share_ns(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.layers
            .iter()
            .filter(|(name, _)| pick(name))
            .map(|(_, ns)| ns)
            .sum()
    }
}

fn layer_of(name: &'static str) -> Option<&'static str> {
    if name.starts_with(IO_PREFIX) {
        Some(LOG_IO)
    } else if name.starts_with(BENCH_PREFIX) {
        None
    } else {
        Some(name)
    }
}

/// Builds the ledger from a merged stream (see [`crate::spans::merge`]):
/// events in per-thread timestamp order. `generator` is the thread that
/// opened the [`OP`] root spans.
pub fn build(events: &[SpanEvent], generator: u64) -> Ledger {
    // Each event changes its thread's innermost open span; collect the
    // changes, then sweep them in global time order.
    let mut changes: Vec<(u64, u64, Option<&'static str>)> = Vec::with_capacity(events.len());
    let mut roots: Vec<(u64, u64)> = Vec::new();
    let mut stacks: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
    let mut root_start = None;
    for e in events {
        let stack = stacks.entry(e.thread).or_default();
        match e.kind {
            SpanKind::Enter => stack.push(e.name),
            SpanKind::Exit => {
                if let Some(pos) = stack.iter().rposition(|n| *n == e.name) {
                    stack.truncate(pos);
                }
            }
            SpanKind::Instant => continue,
        }
        changes.push((e.ts_ns, e.thread, stack.last().copied()));
        if e.thread == generator && e.name == OP {
            match e.kind {
                SpanKind::Enter => root_start = Some(e.ts_ns),
                _ => {
                    if let Some(start) = root_start.take() {
                        roots.push((start, e.ts_ns));
                    }
                }
            }
        }
    }
    changes.sort_by_key(|&(ts, thread, _)| (ts, thread));
    roots.sort_unstable();

    let mut ledger = Ledger {
        ops: roots.len() as u64,
        root_ns: roots.iter().map(|(a, b)| b - a).sum(),
        ..Ledger::default()
    };
    let mut busy: BTreeMap<u64, &'static str> = BTreeMap::new();
    let mut gen_top: Option<&'static str> = None;
    let mut root_idx = 0usize;
    let mut prev = changes.first().map_or(0, |c| c.0);
    for &(ts, thread, top) in &changes {
        // Attribute [prev, ts) clipped to the root spans.
        let mut lo = prev;
        while lo < ts && root_idx < roots.len() {
            let (r0, r1) = roots[root_idx];
            if r1 <= lo {
                root_idx += 1;
                continue;
            }
            let a = lo.max(r0);
            let b = ts.min(r1);
            if a < b {
                attribute(&mut ledger, &busy, gen_top, (b - a) as f64);
            }
            lo = b.max(lo);
            if b == r1 {
                root_idx += 1;
            } else {
                break;
            }
        }
        prev = ts;
        if thread == generator {
            gen_top = top;
        } else {
            match top {
                Some(name) => busy.insert(thread, name),
                None => busy.remove(&thread),
            };
        }
    }
    ledger
}

fn attribute(
    ledger: &mut Ledger,
    busy: &BTreeMap<u64, &'static str>,
    gen_top: Option<&'static str>,
    dt: f64,
) {
    if busy.is_empty() {
        match gen_top.and_then(layer_of) {
            Some(layer) => *ledger.layers.entry(layer.to_owned()).or_insert(0.0) += dt,
            None => ledger.residual_ns += dt,
        }
        return;
    }
    let share = dt / busy.len() as f64;
    for &name in busy.values() {
        match layer_of(name) {
            Some(layer) => *ledger.layers.entry(layer.to_owned()).or_insert(0.0) += share,
            None => ledger.residual_ns += share,
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
            depth: 0,
            thread,
            ts_ns,
            elapsed_ns: 0,
        }
    }

    #[test]
    fn parallel_spans_share_the_wall_and_the_sum_is_exact() {
        use SpanKind::{Enter, Exit};
        // Generator thread 1 opens an op at 0 and closes it at 100. It
        // runs eval.campaign 10..90 (self time while waiting); threads
        // 2 and 3 run eval.window 20..60 and 20..80; a log IO span on
        // thread 3 follows at 80..85.
        let events = vec![
            ev(Enter, OP, 1, 0),
            ev(Enter, "eval.campaign", 1, 10),
            ev(Exit, "eval.campaign", 1, 90),
            ev(Exit, OP, 1, 100),
            ev(Enter, "eval.window", 2, 20),
            ev(Exit, "eval.window", 2, 60),
            ev(Enter, "eval.window", 3, 20),
            ev(Exit, "eval.window", 3, 80),
            ev(Enter, "bench.io.append", 3, 80),
            ev(Exit, "bench.io.append", 3, 85),
        ];
        let ledger = build(&crate::spans::merge(Vec::new(), events), 1);
        assert_eq!(ledger.ops, 1);
        assert_eq!(ledger.root_ns, 100);
        // 20..60 split two ways (40), 60..80 thread 3 alone (20).
        assert_eq!(ledger.layers["eval.window"], 60.0);
        assert_eq!(ledger.layers[LOG_IO], 5.0);
        // 10..20 and 85..90 on the generator's own span.
        assert_eq!(ledger.layers["eval.campaign"], 15.0);
        // 0..10 and 90..100 in the bench root.
        assert_eq!(ledger.residual_ns, 20.0);
        assert_eq!(ledger.sum_ns(), 100.0);
    }

    #[test]
    fn time_outside_roots_is_ignored() {
        use SpanKind::{Enter, Exit};
        let events = vec![
            ev(Enter, "core.calibration", 1, 0),
            ev(Exit, "core.calibration", 1, 50),
            ev(Enter, OP, 1, 60),
            ev(Enter, "core.mu_k", 1, 61),
            ev(Exit, "core.mu_k", 1, 70),
            ev(Exit, OP, 1, 70),
        ];
        let ledger = build(&events, 1);
        assert_eq!(ledger.root_ns, 10);
        assert_eq!(ledger.layers.get("core.calibration"), None);
        assert_eq!(ledger.layers["core.mu_k"], 9.0);
        assert_eq!(ledger.residual_ns, 1.0);
    }
}
