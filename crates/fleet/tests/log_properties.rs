//! Property tests for the shard write-ahead log: a torn tail at *any*
//! byte offset of the final record is truncated cleanly (never a panic,
//! never a half-record), header-level damage — or damage that leaves no
//! record, down to a bare header — falls back to the `.bak` rotation,
//! empty or zero-length files are typed errors, and a bit flip anywhere
//! in a full-size window record — the first and last byte of every
//! 32-byte stripe of the checksum and of its tail included — drops that
//! record.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use std::path::PathBuf;

use proptest::prelude::*;

use mpdf_fleet::log::{LogIo, HEADER_LEN, RECORD_OVERHEAD};
use mpdf_fleet::{LogError, ShardLog, StdIo};
use mpdf_rfmath::complex::Complex64;
use mpdf_wifi::csi::CsiPacket;

/// A payload writer that appends `payload` as it is.
fn bytes(payload: &[u8]) -> impl FnOnce(&mut Vec<u8>) -> Result<(), LogError> + '_ {
    move |out| {
        out.extend_from_slice(payload);
        Ok(())
    }
}

/// Durably appends one snapshot record.
fn append<IO: LogIo>(log: &mut ShardLog<IO>, link: u64, payload: &[u8]) {
    log.stage_snapshot(link, bytes(payload)).unwrap();
    log.flush().unwrap();
}

/// `(link, payload)` of every record the log recovers, in log order.
fn recovered<IO: LogIo>(log: &mut ShardLog<IO>) -> Vec<(u64, Vec<u8>)> {
    let (_, image) = log.recover().unwrap();
    image
        .records()
        .map(|r| (r.link, r.payload.to_vec()))
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpdf_fleet_prop_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a three-record log (two links, one overwrite) and returns its
/// path plus the byte length of the intact file.
fn seeded_log(dir: &std::path::Path, payload_len: usize) -> (PathBuf, usize) {
    let path = dir.join("shard0.mpsl");
    std::fs::remove_file(&path).ok();
    let (mut log, _) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
    append(&mut log, 1, &vec![0xA1; payload_len]);
    append(&mut log, 2, &vec![0xB2; payload_len.max(1)]);
    append(&mut log, 1, &vec![0xC3; payload_len]);
    let len = std::fs::metadata(&path).unwrap().len() as usize;
    (path, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating the file anywhere inside the FINAL record loses only
    /// that record: the first two records survive byte-identical.
    #[test]
    fn torn_tail_at_every_offset_of_the_final_record(
        payload_len in 0usize..48,
        cut_back in 1usize..1000,
    ) {
        let dir = temp_dir("torn");
        let (path, full) = seeded_log(&dir, payload_len);
        // Cut anywhere strictly inside the last record.
        let record_len = RECORD_OVERHEAD + payload_len;
        let cut = full - 1 - (cut_back % record_len.max(1)).min(record_len - 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut.max(full - record_len)]).unwrap();

        let (mut log, rec) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
        prop_assert!(rec.torn_bytes > 0 || cut.max(full - record_len) == full - record_len);
        prop_assert!(!rec.used_bak);
        // The first two records always survive; never a half-record.
        let live = recovered(&mut log);
        prop_assert_eq!(live.len(), 2);
        prop_assert_eq!(live[0].clone(), (1, vec![0xA1; payload_len]), "link 1 reverts");
        prop_assert_eq!(live[1].clone(), (2, vec![0xB2; payload_len.max(1)]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Flipping any single byte of the final record's frame cannot
    /// produce a half-record: either the record survives byte-identical
    /// (flip landed in the already-truncated tail region is impossible
    /// here) or the whole record is dropped by the sync/CRC checks.
    #[test]
    fn corrupt_final_record_is_all_or_nothing(
        payload_len in 0usize..48,
        pos_back in 1usize..1000,
        xor in 1u8..=255,
    ) {
        let dir = temp_dir("flip");
        let (path, full) = seeded_log(&dir, payload_len);
        let record_len = RECORD_OVERHEAD + payload_len;
        let pos = full - 1 - (pos_back % record_len);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[pos] ^= xor;
        std::fs::write(&path, &bytes).unwrap();

        let (mut log, rec) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
        prop_assert!(rec.torn_bytes > 0, "a flipped frame is a torn tail");
        let live = recovered(&mut log);
        prop_assert_eq!(live.len(), 2);
        prop_assert_eq!(live[0].1.clone(), vec![0xA1; payload_len], "link 1 reverts to its prior image");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupt_primary_header_falls_back_to_valid_bak() {
    let dir = temp_dir("bak");
    let path = dir.join("shard3.mpsl");
    let (mut log, _) = ShardLog::open(StdIo, &path, 3, 0).unwrap();
    append(&mut log, 7, b"seven-v1");
    append(&mut log, 8, b"eight-v1");
    log.compact([(7, bytes(b"seven-v2")), (8, bytes(b"eight-v2"))])
        .unwrap();
    // Smash the primary's magic.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let (_, rec) = ShardLog::open(StdIo, &path, 3, 0).unwrap();
    assert!(rec.used_bak, "recovery must use the .bak rotation");
    assert_eq!(rec.records, 2);
    // Recovery rewrote the primary from the .bak's valid bytes; a
    // further reopen is clean and holds the pre-compaction records.
    let (mut log3, rec3) = ShardLog::open(StdIo, &path, 3, 0).unwrap();
    assert!(!rec3.used_bak);
    let live = recovered(&mut log3);
    assert_eq!(live[0], (7, b"seven-v1".to_vec()));
    assert_eq!(live.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_first_record_falls_back_to_the_bak() {
    let dir = temp_dir("first");
    let path = dir.join("shard1.mpsl");
    let (mut log, _) = ShardLog::open(StdIo, &path, 1, 0).unwrap();
    append(&mut log, 4, b"four-v1");
    append(&mut log, 5, b"five-v1");
    log.compact([(4, bytes(b"four-v2")), (5, bytes(b"five-v2"))])
        .unwrap();
    // Tear the primary inside its first record: the header survives but
    // no record does.
    let compacted = std::fs::read(&path).unwrap();
    std::fs::write(&path, &compacted[..HEADER_LEN + 5]).unwrap();

    let (mut log, rec) = ShardLog::open(StdIo, &path, 1, 0).unwrap();
    assert!(rec.used_bak, "a log with no surviving record uses the .bak");
    assert_eq!((rec.records, rec.torn_bytes), (2, 0));
    assert_eq!(
        recovered(&mut log),
        vec![(4, b"four-v1".to_vec()), (5, b"five-v1".to_vec())]
    );

    // A primary cut back to its bare header, nothing torn, also holds no
    // record: the .bak is restored the same way.
    std::fs::write(&path, &compacted[..HEADER_LEN]).unwrap();
    let (mut log, rec) = ShardLog::open(StdIo, &path, 1, 0).unwrap();
    assert!(rec.used_bak, "a bare header beside a .bak uses the .bak");
    assert_eq!((rec.records, rec.torn_bytes), (2, 0));
    assert_eq!(
        recovered(&mut log),
        vec![(4, b"four-v1".to_vec()), (5, b"five-v1".to_vec())]
    );

    // With no .bak, or one holding no record, a bare header is a fresh,
    // empty log.
    let (bare, bak) = (&compacted[..HEADER_LEN], dir.join("shard1.mpsl.bak"));
    std::fs::write(&path, bare).unwrap();
    std::fs::write(&bak, bare).unwrap();
    let (mut log, rec) = ShardLog::open(StdIo, &path, 1, 0).unwrap();
    assert_eq!((rec.records, rec.torn_bytes, rec.used_bak), (0, 0, false));
    assert!(recovered(&mut log).is_empty());
    std::fs::remove_file(&bak).unwrap();
    let (mut log, rec) = ShardLog::open(StdIo, &path, 1, 0).unwrap();
    assert_eq!((rec.records, rec.torn_bytes, rec.used_bak), (0, 0, false));
    assert!(recovered(&mut log).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_and_truncated_header_files_are_typed_errors() {
    let dir = temp_dir("empty");
    for (name, contents) in [
        ("zero.mpsl", &[][..]),
        ("tiny.mpsl", &b"MPSL"[..]),
        ("garbage.mpsl", &b"not a log at all"[..]),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let err = ShardLog::open(StdIo, &path, 0, 0).unwrap_err();
        assert!(
            matches!(err, LogError::BadHeader(_)),
            "{name}: expected BadHeader, got {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn appends_after_torn_recovery_extend_a_clean_file() {
    let dir = temp_dir("extend");
    let (path, full) = seeded_log(&dir, 16);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..full - 10]).unwrap();

    let (mut log, rec) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
    assert!(rec.torn_bytes > 0);
    append(&mut log, 9, b"nine");
    let (mut log2, rec2) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
    assert_eq!(rec2.torn_bytes, 0, "recovery rewrote the file cleanly");
    let links: Vec<u64> = recovered(&mut log2).into_iter().map(|(l, _)| l).collect();
    assert_eq!(links, vec![1, 2, 9]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A 25-packet window of 3 antennas x 30 subcarriers, the shape the
/// fleet logs per delivery.
fn full_window() -> Vec<CsiPacket> {
    (0..25u64)
        .map(|seq| {
            let data = (0..90u32)
                .map(|i| {
                    let phase = f64::from(i) * 0.37 + seq as f64 * 0.11;
                    Complex64::new(12.0 * phase.cos(), -9.0 * phase.sin())
                })
                .collect();
            CsiPacket::new(3, 30, data, seq, seq as f64 * 0.02)
        })
        .collect()
}

#[test]
fn a_bit_flip_anywhere_in_a_full_window_record_drops_it() {
    let dir = temp_dir("window");
    let path = dir.join("shard0.mpsl");
    let (mut log, _) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
    append(&mut log, 1, b"birth");
    let before = std::fs::metadata(&path).unwrap().len() as usize;
    log.stage_window(1, 0, &full_window()).unwrap();
    log.flush().unwrap();
    let intact = std::fs::read(&path).unwrap();
    let record_len = intact.len() - before;
    assert_eq!(record_len, 36_693, "a 25 x 3 x 30 window record");

    // The checksum covers the frame from the generation (after the
    // 2-byte sync marker) to the end of the payload. XXH64 reads it in
    // 32-byte stripes, one 8-byte word per lane, then a shorter tail; aim
    // at the first and last byte of every stripe and of the tail.
    const STRIPE: usize = 32;
    let (sum_at, sum_len) = (before + 2, record_len - 2 - 8);
    assert!(sum_len % STRIPE > 0, "the record has a tail");
    let mut offsets: Vec<usize> = (0..sum_len)
        .step_by(STRIPE)
        .flat_map(|start| [start, (start + STRIPE).min(sum_len) - 1])
        .map(|o| sum_at + o)
        .collect();
    // Plus a seeded sample of the whole record, sync and trailer included.
    let mut s = 0x5EED_u64;
    for _ in 0..48 {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        offsets.push(before + (s >> 33) as usize % record_len);
    }

    for (i, &pos) in offsets.iter().enumerate() {
        let mut bytes = intact.clone();
        bytes[pos] ^= 1 << (i % 8);
        std::fs::write(&path, &bytes).unwrap();
        let (mut log, rec) = ShardLog::open(StdIo, &path, 0, 0).unwrap();
        assert_eq!(
            (rec.records, rec.torn_bytes, rec.used_bak),
            (1, record_len, false),
            "flip at byte {pos} of the file is a torn tail"
        );
        assert_eq!(recovered(&mut log), vec![(1, b"birth".to_vec())]);
    }
    std::fs::remove_dir_all(&dir).ok();
}
