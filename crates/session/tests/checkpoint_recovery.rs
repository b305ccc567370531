//! Recovery edge cases for the session checkpoint store: truncating the
//! primary at *any* byte offset falls back to the `.bak` rotation,
//! degenerate files (empty, header-only) are typed errors — never a
//! panic, never a silently half-restored snapshot — and a checkpoint
//! from an earlier format is refused the same way.

use std::path::PathBuf;

use proptest::prelude::*;

use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::SubcarrierWeighting;
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_session::checkpoint::{decode_snapshot, CheckpointStore};
use mpdf_session::runtime::{SessionConfig, SessionRuntime};
use mpdf_session::CheckpointError;
use mpdf_wifi::receiver::CsiReceiver;

fn runtime(seed: u64) -> (SessionRuntime<SubcarrierWeighting>, CsiReceiver) {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    let mut rx = CsiReceiver::new(link, seed).unwrap();
    let calibration = rx.capture_static(None, 150).unwrap();
    let rt = SessionRuntime::calibrate(
        &calibration,
        SubcarrierWeighting,
        DetectorConfig::default(),
        SessionConfig::default(),
    )
    .unwrap();
    (rt, rx)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpdf_ckpt_rec_{}_{tag}.mpsc", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two saves leave a good `.bak`; truncating the primary anywhere
    /// (including to zero bytes) restores the first snapshot from it.
    #[test]
    fn truncated_primary_at_any_offset_restores_the_bak(frac in 0.0f64..1.0) {
        let (mut rt, mut rx) = runtime(7);
        let path = temp_path("trunc");
        let bak = {
            let mut p = path.clone().into_os_string();
            p.push(".bak");
            PathBuf::from(p)
        };
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bak).ok();
        let store = CheckpointStore::new(&path);

        store.save(&rt.snapshot()).unwrap();
        let first = rt.snapshot();
        let win = rx.capture_static(None, 25).unwrap();
        rt.step(&win).unwrap();
        store.save(&rt.snapshot()).unwrap();

        // Truncate the primary at a proportional offset, zero included.
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * frac) as usize;
        // A full-length "truncation" would be the intact file; drop at
        // least one byte.
        let cut = cut.min(bytes.len() - 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let restored = store.load(&DetectorConfig::default()).unwrap();
        prop_assert_eq!(restored, first, "fallback must restore the previous good snapshot");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bak).ok();
    }
}

#[test]
fn empty_and_garbage_checkpoints_are_typed_errors() {
    let path = temp_path("typed");
    let store = CheckpointStore::new(&path);
    for contents in [&[][..], &b"MPSC"[..], &b"definitely not a checkpoint"[..]] {
        std::fs::write(&path, contents).unwrap();
        let err = store.load(&DetectorConfig::default()).unwrap_err();
        assert!(
            !matches!(err, CheckpointError::Io(_)),
            "degenerate contents must be a decode error, got {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_checkpoint_is_an_io_error_not_a_panic() {
    let path = temp_path("missing");
    std::fs::remove_file(&path).ok();
    let store = CheckpointStore::new(&path);
    assert!(!store.exists());
    let err = store.load(&DetectorConfig::default()).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "got {err}");
}

/// A version-1 checkpoint as earlier builds wrote it: the header, a
/// 16-byte payload (cursor 7, threshold 0.5) and the FNV-1a-64 trailer
/// those builds stored.
fn v1_checkpoint() -> Vec<u8> {
    let mut file = b"MPSC".to_vec();
    file.extend_from_slice(&1u16.to_le_bytes());
    file.extend_from_slice(&16u64.to_le_bytes());
    file.extend_from_slice(&7u64.to_le_bytes());
    file.extend_from_slice(&0.5f64.to_le_bytes());
    file.extend_from_slice(&0xA419_7262_1F08_AA15u64.to_le_bytes());
    file
}

#[test]
fn a_v1_checkpoint_is_a_checksum_mismatch_and_load_falls_back_to_the_bak() {
    let config = DetectorConfig::default();
    let v1 = v1_checkpoint();
    // The CRC-64 is verified before the version field is read.
    assert!(matches!(
        decode_snapshot(&v1, &config),
        Err(CheckpointError::ChecksumMismatch {
            stored: 0xA419_7262_1F08_AA15,
            ..
        })
    ));

    let path = temp_path("v1");
    let bak = {
        let mut p = path.clone().into_os_string();
        p.push(".bak");
        PathBuf::from(p)
    };
    std::fs::remove_file(&bak).ok();
    let store = CheckpointStore::new(&path);
    // Alone, the v1 primary surfaces its typed error.
    std::fs::write(&path, &v1).unwrap();
    assert!(matches!(
        store.load(&config),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));
    // Beside a good `.bak`, load restores the `.bak`: two saves rotate a
    // good checkpoint into it, then the primary is overwritten.
    let (rt, _) = runtime(7);
    store.save(&rt.snapshot()).unwrap();
    store.save(&rt.snapshot()).unwrap();
    std::fs::write(&path, &v1).unwrap();
    assert_eq!(store.load(&config).unwrap(), rt.snapshot());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&bak).ok();
}
