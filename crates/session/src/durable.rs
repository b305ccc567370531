//! Durable-file helpers shared by the session checkpoint store and the
//! fleet's shard logs: the one checksum both formats use, a bounded
//! deterministic retry on transient IO errors, and the parent-directory
//! fsync that makes a rename durable.

use std::path::Path;
use std::sync::OnceLock;

use mpdf_obs::metrics::Counter;

/// CRC-64 over the ECMA-182 polynomial (`0x42F0E1EBA9EA3693`),
/// MSB-first, with all-ones init and xorout (the CRC-64/WE profile) so
/// leading-zero damage and the empty input are distinguishable.
/// Computed eight bytes per step (slicing-by-8).
pub fn crc64(data: &[u8]) -> u64 {
    static TABLES: OnceLock<[[u64; 256]; 8]> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u64; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = (i as u64) << 56;
            for _ in 0..8 {
                crc = if crc & (1 << 63) != 0 {
                    (crc << 1) ^ 0x42F0_E1EB_A9EA_3693
                } else {
                    crc << 1
                };
            }
            *entry = crc;
        }
        // t[k][b]: byte b followed by k zero bytes.
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev << 8) ^ t[0][(prev >> 56) as usize];
            }
        }
        t
    });
    let mut crc = !0u64;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let x = crc ^ u64::from_be_bytes(word);
        crc = t[7][(x >> 56) as usize]
            ^ t[6][(x >> 48) as usize & 0xFF]
            ^ t[5][(x >> 40) as usize & 0xFF]
            ^ t[4][(x >> 32) as usize & 0xFF]
            ^ t[3][(x >> 24) as usize & 0xFF]
            ^ t[2][(x >> 16) as usize & 0xFF]
            ^ t[1][(x >> 8) as usize & 0xFF]
            ^ t[0][x as usize & 0xFF];
    }
    for &byte in chunks.remainder() {
        let idx = ((crc >> 56) ^ u64::from(byte)) as usize & 0xFF;
        crc = (crc << 8) ^ t[0][idx];
    }
    !crc
}

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
    fn crc64_is_stable_sensitive_and_matches_the_bytewise_definition() {
        let a = crc64(b"123456789");
        assert_eq!(a, crc64(b"123456789"), "deterministic");
        assert_ne!(a, crc64(b"123456780"), "sensitive to content");
        assert_ne!(crc64(b""), crc64(b"\0"), "length-extension guarded");
        let bytewise = |data: &[u8]| {
            let mut crc = !0u64;
            for &byte in data {
                crc ^= u64::from(byte) << 56;
                for _ in 0..8 {
                    crc = if crc & (1 << 63) != 0 {
                        (crc << 1) ^ 0x42F0_E1EB_A9EA_3693
                    } else {
                        crc << 1
                    };
                }
            }
            !crc
        };
        let data: Vec<u8> = (0..300u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc64(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
        // The CRC-64/WE check value.
        assert_eq!(crc64(b"123456789"), 0x62EC_59E3_F1A4_F00A);
    }

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
