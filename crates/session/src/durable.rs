//! Durable-file helpers shared by the session checkpoint store and the
//! fleet's shard logs: a bounded deterministic retry on transient IO
//! errors, and the parent-directory fsync that makes a rename durable.

use std::path::Path;

use mpdf_obs::metrics::Counter;

/// Transient-IO retry budget: total attempts per operation before the
/// error is surfaced to the caller.
pub const IO_ATTEMPTS: u32 = 4;

/// True for error kinds that a bounded retry is allowed to absorb:
/// signal interruptions and spurious would-block reports. Everything
/// else (permissions, disk full, bad paths) fails immediately.
pub fn transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
    )
}

/// Runs an IO operation with a bounded deterministic retry on transient
/// errors. Backoff is attempt-scaled scheduler yields, not wall-clock
/// sleeps: no clock is read, so retries can never make control flow
/// time-dependent. Each retry is counted on `retries`, the caller's own
/// counter.
///
/// # Errors
/// The first non-transient error, or the last transient one once the
/// [`IO_ATTEMPTS`] budget is spent.
pub fn retry_io<T, F: FnMut() -> std::io::Result<T>>(
    retries: &Counter,
    mut op: F,
) -> std::io::Result<T> {
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if transient(e.kind()) && attempt < IO_ATTEMPTS => {
                retries.inc();
                for _ in 0..attempt {
                    std::thread::yield_now();
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Fsyncs the directory containing `path`, making a just-completed
/// rename of `path` itself durable (renames are directory mutations; the
/// file's own `sync_all` does not cover them).
///
/// # Errors
/// Opening or syncing the directory failed.
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_io_errors_are_retried_with_a_bounded_budget() {
        use std::io::{Error, ErrorKind};
        let retries = mpdf_obs::counter!("session.checkpoint_io_retries_total");
        // Two interruptions, then success: absorbed.
        let mut calls = 0;
        let v = retry_io(retries, || {
            calls += 1;
            if calls < 3 {
                Err(Error::new(ErrorKind::Interrupted, "signal"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!((v, calls), (42, 3));

        // A persistent transient error exhausts the budget and surfaces.
        let mut calls = 0;
        let err = retry_io::<(), _>(retries, || {
            calls += 1;
            Err(Error::new(ErrorKind::WouldBlock, "busy"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        assert_eq!(calls, IO_ATTEMPTS);

        // Non-transient errors fail on the first call.
        let mut calls = 0;
        let err = retry_io::<(), _>(retries, || {
            calls += 1;
            Err(Error::new(ErrorKind::PermissionDenied, "no"))
        })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
        assert_eq!(calls, 1);
    }

    #[test]
    fn parent_dir_sync_accepts_bare_file_names() {
        sync_parent_dir(Path::new("no_directory_component")).unwrap();
        let dir = std::env::temp_dir();
        sync_parent_dir(&dir.join("child")).unwrap();
    }
}
