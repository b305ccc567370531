//! A fallible map over a lazy source stops claiming at the first error:
//! the pool closes the source instead of draining it, so `next` runs at
//! most once per item claimed before the close, never after it, and the
//! items left unread are counted as discarded.
//!
//! This is its own test binary: `par.jobs_discarded_total` is
//! process-wide, and no other test in this process may move it while
//! the delta is measured.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use mpdf_par::try_map_indexed;

/// Yields `0..n` on demand, counting its `next` calls; on drop it
/// records how many calls had run by then.
struct Lazy<'a> {
    next: usize,
    n: usize,
    calls: &'a AtomicUsize,
    calls_at_close: &'a AtomicUsize,
}

impl Iterator for Lazy<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let item = (self.next < self.n).then_some(self.next)?;
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Lazy<'_> {}

impl Drop for Lazy<'_> {
    fn drop(&mut self) {
        self.calls_at_close
            .store(self.calls.load(Ordering::SeqCst), Ordering::SeqCst);
    }
}

#[test]
fn an_error_closes_a_lazy_source_and_counts_what_it_left_unread() {
    const N: usize = 32;
    const FAILING: usize = 3;
    let discarded = || mpdf_obs::metrics::counter("par.jobs_discarded_total").get();
    for threads in [1usize, 4] {
        let calls = AtomicUsize::new(0);
        let calls_at_close = AtomicUsize::new(usize::MAX);
        let source = Lazy {
            next: 0,
            n: N,
            calls: &calls,
            calls_at_close: &calls_at_close,
        };
        let before = discarded();
        // The failing item returns at once; every other item is slow, so
        // no peer can claim twice while the failing worker closes.
        let result = try_map_indexed(threads, source, |_, x| {
            if x == FAILING {
                return Err(x);
            }
            std::thread::sleep(Duration::from_millis(20));
            Ok(x)
        });
        assert_eq!(result, Err(FAILING), "threads={threads}");
        let ran = calls.load(Ordering::SeqCst);
        assert!(
            ran <= FAILING + threads,
            "threads={threads}: next ran {ran} times"
        );
        assert_eq!(
            calls_at_close.load(Ordering::SeqCst),
            ran,
            "threads={threads}: next ran after the close"
        );
        // Every call so far yielded an item; the rest went unread.
        assert_eq!(discarded() - before, (N - ran) as u64, "threads={threads}");
    }
}
