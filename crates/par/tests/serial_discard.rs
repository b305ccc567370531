//! The one-worker path runs the same claim loop as the threaded one, so
//! a panic there discards the unclaimed backlog and counts it.
//!
//! This is its own test binary: `par.jobs_discarded_total` is
//! process-wide, and no other test in this process may move it while
//! the delta is measured.

use mpdf_par::{catch_map_indexed, PoolError};

#[test]
fn serial_panic_counts_the_discarded_backlog() {
    let discarded = || mpdf_obs::metrics::counter("par.jobs_discarded_total").get();
    let before = discarded();
    let items: Vec<u32> = (0..8).collect();
    let err = catch_map_indexed(1, &items, |_, &x| {
        assert!(x != 2, "serial boom");
        x
    })
    .expect_err("panic must surface");
    let PoolError::WorkerPanic { index, .. } = err;
    assert_eq!(index, 2);
    // Items 3..8 were never claimed.
    assert_eq!(discarded() - before, 5);
}
