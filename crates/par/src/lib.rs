//! # mpdf-par — deterministic parallel execution layer
//!
//! A std-only work pool for the evaluation harness: scoped worker
//! threads claim items one at a time from a shared iterator, and results
//! are collected **in input order** so a parallel run is
//! indistinguishable from a serial one. No external dependencies, no
//! unsafe code, no work stealing — just enough machinery to saturate the
//! cores on embarrassingly parallel campaign work.
//!
//! ## Determinism contract
//!
//! [`map_indexed`] guarantees `out[i] == f(i, &items[i])` with results
//! ordered by `i`, independent of thread count or scheduling. Callers
//! keep that guarantee end-to-end by making `f` a pure function of its
//! inputs (the campaign derives a dedicated RNG stream per work item
//! instead of threading one generator through the loop).
//!
//! ```
//! let squares = mpdf_par::map_indexed(4, &[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Errors surfaced by the fallible pool entry points.
#[derive(Debug)]
pub enum PoolError {
    /// The worker executing item `index` panicked; `message` is the
    /// panic payload when it was a string, or a placeholder otherwise.
    ///
    /// When several workers panic in one run, the lowest-indexed panic is
    /// reported (matching the input-order error contract of
    /// [`try_map_indexed`]).
    WorkerPanic {
        /// Index of the input item whose closure panicked.
        index: usize,
        /// Stringified panic payload.
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanic { index, message } => {
                write!(f, "worker panicked on item {index}: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// One item's outcome inside the pool: its result, or its panic payload.
type Outcome<R> = Result<R, Box<dyn Any + Send>>;

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Number of worker threads the machine supports; falls back to 1 when
/// the parallelism degree cannot be queried.
#[expect(
    clippy::disallowed_methods,
    reason = "sizing default; output is thread-count-invariant"
)]
pub fn available_threads() -> usize {
    // Sizing default only: pool results are thread-count-invariant
    // (pinned by tests/determinism.rs), so the queried degree can never
    // influence what the pool computes.
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a user-facing thread knob: `0` means "use all available
/// cores", anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Number of workers to start for `items` units of work under the
/// thread knob `threads`: [`resolve_threads`]`(threads)`, capped at the
/// work available so no worker starts with nothing to claim.
fn workers(threads: usize, items: usize) -> usize {
    resolve_threads(threads).min(items)
}

/// Maps `f` over `items` on `threads` scoped worker threads, returning
/// results in input order.
///
/// `threads` is resolved via [`resolve_threads`] (`0` = all cores) and
/// capped at the item count. Each worker claims the next unclaimed item
/// when it finishes its last one, so uneven item costs balance
/// automatically; with one worker the same loop runs on the calling
/// thread and no thread is spawned.
///
/// # Panics
/// If `f` panics on a worker thread the panic payload is re-raised on
/// the calling thread (the lowest-indexed panic when several workers
/// trip at once). Use [`catch_map_indexed`] to receive it as a
/// [`PoolError`] instead.
pub fn map_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    rethrow(run(threads, items.iter(), f, |_| false))
}

/// Like [`map_indexed`], but a worker panic is returned as
/// [`PoolError::WorkerPanic`] (and counted in the `par.worker_panics_total`
/// metric) instead of unwinding through the caller — a truncated result
/// set can never be mistaken for a complete one.
///
/// # Errors
/// Returns the lowest-indexed worker panic as a named error.
pub fn catch_map_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, PoolError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run(threads, items.iter(), f, |_| false)
        .into_iter()
        .enumerate()
        .map(|(index, outcome)| {
            outcome.map_err(|payload| PoolError::WorkerPanic {
                index,
                message: panic_message(payload.as_ref()),
            })
        })
        .collect()
}

/// Maps `f` over mutable `items` on the pool, returning results in input
/// order — the in-place counterpart of [`map_indexed`].
///
/// Each item is visited exactly once with exclusive access, so `f` may
/// mutate it freely; the determinism contract is unchanged (results and
/// final item states are independent of thread count as long as `f` is a
/// pure function of its inputs). Used by the fleet supervisor to step a
/// slice of shards in place through the shared pool.
///
/// # Panics
/// As [`map_indexed`]: a worker panic is re-raised on the calling thread.
pub fn map_indexed_mut<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    rethrow(run(threads, items.iter_mut(), f, |_| false))
}

/// Maps a fallible `f` over `items` in parallel, returning the results in
/// input order or the error of the lowest-indexed failing item — what a
/// serial `?` loop would have reported.
///
/// `items` is anything with an exact-size iterator: a slice, or a lazy
/// source whose `next` produces each item on demand (the stream replay
/// reads and decodes its epochs that way). `next` runs under the pool's
/// claim lock, so a source needs no lock of its own. Once an item fails
/// the pool claims nothing more: the failing worker closes the source —
/// drops it unread — and counts its remaining `len()` on
/// `par.jobs_discarded_total`. Items already claimed still run.
///
/// # Panics
/// As [`map_indexed`]: a worker panic is re-raised on the calling thread.
///
/// # Errors
/// Returns the error of the lowest-indexed failing item.
pub fn try_map_indexed<I, R, E, F>(threads: usize, items: I, f: F) -> Result<Vec<R>, E>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    E: Send,
    F: Fn(usize, I::Item) -> Result<R, E> + Sync,
{
    rethrow(run(threads, items.into_iter(), f, Result::is_err))
        .into_iter()
        .collect()
}

/// Unwraps [`run`]'s outcomes, re-raising the first (lowest-indexed)
/// panic on the calling thread.
fn rethrow<R>(outcomes: Vec<Outcome<R>>) -> Vec<R> {
    outcomes
        .into_iter()
        .map(|outcome| outcome.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// The pool core behind every entry point: [`workers`]`(threads, n)`
/// workers claim `(index, item)` pairs from one shared iterator and run
/// `f` on each, catching panics.
///
/// Returns the outcomes in input order. An item that panics, or whose
/// result `fails`, closes the iterator: its worker takes it out of the
/// claim lock and counts its remaining `len()` as discarded, so peers
/// finish at most the item already in their hands. Indices are claimed
/// in order, so the outcomes still cover a prefix of `items` that ends
/// at or after the lowest-indexed failure. Without one every item has
/// its outcome.
fn run<I, R, F>(threads: usize, items: I, f: F, fails: fn(&R) -> bool) -> Vec<Outcome<R>>
where
    I: ExactSizeIterator + Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    let workers = workers(threads, items.len());
    let next = Mutex::new(Some(items.enumerate()));
    // Only a claim, which may run a lazy source's `next`, or a close
    // ever holds the lock.
    let claims = || next.lock().unwrap_or_else(PoisonError::into_inner);
    let work = || {
        let mut done = Vec::new();
        loop {
            // The guard is a temporary: it is released before `f` runs.
            let claimed = claims().as_mut().and_then(Iterator::next);
            let Some((i, item)) = claimed else { break };
            let outcome = catch_unwind(AssertUnwindSafe(|| f(i, item)));
            mpdf_obs::counter!("par.jobs_total").inc();
            let failed = match &outcome {
                Ok(result) => fails(result),
                Err(_) => {
                    mpdf_obs::counter!("par.worker_panics_total").inc();
                    true
                }
            };
            done.push((i, outcome));
            if failed {
                // The source is dropped after the guard is released.
                let rest = claims().take();
                let discarded = rest.map_or(0, |rest| rest.len());
                mpdf_obs::counter!("par.jobs_discarded_total").add(discarded as u64);
                break;
            }
        }
        done
    };
    let mut outcomes = if workers <= 1 {
        work()
    } else {
        mpdf_obs::counter!("par.workers_spawned_total").add(workers as u64);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let active = mpdf_obs::gauge!("par.workers_active");
                        active.add(1);
                        let done = work();
                        active.sub(1);
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        })
    };
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let items: Vec<usize> = (0..257).collect();
        let serial = map_indexed(1, &items, |i, &x| i * 31 + x);
        for threads in [2, 3, 4, 8] {
            let parallel = map_indexed(threads, &items, |i, &x| i * 31 + x);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_indexed(4, &empty, |_, &x| x).is_empty());
        assert_eq!(map_indexed(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        map_indexed(4, &items, |_, &i| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still all complete.
        let items: Vec<u64> = (0..40).collect();
        let out = map_indexed(4, &items, |_, &x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_reports_lowest_index_error() {
        let items: Vec<u32> = (0..64).collect();
        let r = try_map_indexed(4, &items, |_, &x| if x >= 10 { Err(x) } else { Ok(x) });
        assert_eq!(r, Err(10));
        let ok = try_map_indexed(4, &items, |_, &x| Ok::<_, ()>(x));
        assert_eq!(ok.unwrap().len(), 64);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            map_indexed(4, &items, |_, &x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn catch_map_surfaces_worker_panic_as_error() {
        let items: Vec<u32> = (0..64).collect();
        let panics_before = mpdf_obs::metrics::counter("par.worker_panics_total").get();
        let err = catch_map_indexed(4, &items, |_, &x| {
            assert!(x != 9, "item exploded");
            x * 2
        })
        .expect_err("panic must surface as PoolError");
        let PoolError::WorkerPanic { index, message } = err;
        assert_eq!(index, 9);
        assert!(message.contains("item exploded"), "{message}");
        assert!(
            mpdf_obs::metrics::counter("par.worker_panics_total").get() > panics_before,
            "panic must be counted"
        );
        // Display is usable in error chains.
        let shown = PoolError::WorkerPanic {
            index: 3,
            message: "boom".to_owned(),
        }
        .to_string();
        assert!(
            shown.contains("item 3") && shown.contains("boom"),
            "{shown}"
        );
    }

    #[test]
    fn catch_map_ok_matches_map_indexed() {
        let items: Vec<u64> = (0..100).collect();
        let plain = map_indexed(4, &items, |i, &x| x + i as u64);
        let caught = catch_map_indexed(4, &items, |i, &x| x + i as u64).expect("no panic");
        assert_eq!(plain, caught);
        // Serial path too.
        let serial = catch_map_indexed(1, &items, |i, &x| x + i as u64).expect("no panic");
        assert_eq!(serial, plain);
    }

    #[test]
    fn catch_map_serial_reports_panic_index() {
        let items: Vec<u32> = (0..8).collect();
        let err = catch_map_indexed(1, &items, |_, &x| {
            assert!(x != 2, "serial boom");
            x
        })
        .expect_err("panic must surface");
        let PoolError::WorkerPanic { index, .. } = err;
        assert_eq!(index, 2);
    }

    #[test]
    fn pool_records_job_and_worker_metrics() {
        let jobs_before = mpdf_obs::metrics::counter("par.jobs_total").get();
        let items: Vec<u64> = (0..50).collect();
        let out = map_indexed(4, &items, |_, &x| x + 1);
        assert_eq!(out.len(), 50);
        assert!(mpdf_obs::metrics::counter("par.jobs_total").get() >= jobs_before + 50);
        assert!(mpdf_obs::metrics::counter("par.workers_spawned_total").get() >= 2);
    }

    #[test]
    fn map_indexed_mut_mutates_in_place_and_orders_results() {
        let mut items: Vec<u64> = (0..100).collect();
        let expect_items: Vec<u64> = items.iter().map(|x| x * 3).collect();
        let expect_out: Vec<u64> = items.clone();
        for threads in [1, 2, 4, 8] {
            let mut mine = items.clone();
            let out = map_indexed_mut(threads, &mut mine, |_, x| {
                let before = *x;
                *x *= 3;
                before
            });
            assert_eq!(mine, expect_items, "threads={threads}");
            assert_eq!(out, expect_out, "threads={threads}");
        }
        let out = map_indexed_mut(4, &mut items, |i, x| {
            *x += i as u64;
            *x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn map_indexed_mut_reraises_worker_panic() {
        for threads in [1usize, 2, 4] {
            let mut items: Vec<u32> = (0..16).collect();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                map_indexed_mut(threads, &mut items, |_, x| {
                    assert!(*x != 5, "mut boom");
                    *x += 1;
                })
            }));
            let payload = caught.expect_err("panic must reach the caller");
            assert_eq!(
                panic_message(payload.as_ref()),
                "mut boom",
                "threads={threads}"
            );
        }
    }

    #[test]
    fn panicking_worker_poisons_queue_and_returns_promptly() {
        // Item 0 panics almost immediately; every other item is slow.
        // With the backlog poisoned on panic, peers finish at most the
        // item already in their hands — they never chew through the
        // queued tail — so catch_map_indexed returns promptly at every
        // thread count instead of after all ~64 slow items.
        for threads in [1usize, 2, 4, 8] {
            let items: Vec<u64> = (0..64).collect();
            let executed = AtomicUsize::new(0);
            let discarded_before = mpdf_obs::metrics::counter("par.jobs_discarded_total").get();
            let err = catch_map_indexed(threads, &items, |i, _| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    assert!(i != 0, "chaos item");
                }
                executed.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                i
            })
            .expect_err("panic must surface");
            let PoolError::WorkerPanic { index, message } = err;
            assert_eq!(index, 0, "threads={threads}");
            assert!(message.contains("chaos item"), "{message}");
            // Prompt teardown: each peer completes at most the in-flight
            // item plus one popped before the poison landed.
            let ran = executed.load(Ordering::SeqCst);
            assert!(
                ran <= 2 * threads,
                "threads={threads}: {ran} items ran after the panic"
            );
            if threads > 1 {
                assert!(
                    mpdf_obs::metrics::counter("par.jobs_discarded_total").get() > discarded_before,
                    "poison must count the discarded backlog"
                );
            }
        }
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(0), available_threads());
    }

    #[test]
    fn workers_are_capped_at_the_work_available() {
        assert!(workers(0, 3) <= 3);
        assert!(workers(0, 3) >= 1);
        assert_eq!(workers(64, 2), 2);
        assert_eq!(workers(3, 10), 3);
        assert_eq!(workers(4, 0), 0);
    }
}
