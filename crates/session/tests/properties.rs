//! Property tests for the session image codec: clean round-trips are
//! exact (restored detectors score to 0 ULP of the original), and the
//! decoder is total: arbitrary bytes and every truncation of a valid
//! image are typed errors, never a panic. Corruption of a stored image
//! is caught by the shard-log record checksum (`mpdf-fleet`'s tests).

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use proptest::prelude::*;

use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::SubcarrierWeighting;
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_session::checkpoint::{decode_image, encode_image_into, CheckpointError, MAGIC, VERSION};
use mpdf_session::runtime::{RecalPolicy, SessionConfig, SessionRuntime};
use mpdf_wifi::receiver::CsiReceiver;

fn session_cfg() -> SessionConfig {
    SessionConfig {
        recalibration: RecalPolicy {
            enabled: true,
            ..RecalPolicy::default()
        },
        reservoir_windows: 4,
        ..SessionConfig::default()
    }
}

/// A runtime with `steps` windows of live state (posterior, sentinel
/// EWMA, reservoir contents all non-trivial).
fn runtime(seed: u64, steps: u64) -> (SessionRuntime<SubcarrierWeighting>, CsiReceiver) {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    let mut rx = CsiReceiver::new(link, seed).unwrap();
    let calibration = rx.capture_static(None, 150).unwrap();
    let mut rt = SessionRuntime::calibrate(
        &calibration,
        SubcarrierWeighting,
        DetectorConfig::default(),
        session_cfg(),
    )
    .unwrap();
    for _ in 0..steps {
        let win = rx.capture_static(None, 25).unwrap();
        rt.step(&win).unwrap();
    }
    (rt, rx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn clean_roundtrip_restores_to_zero_ulp(seed in 0u64..1_000, steps in 0u64..4) {
        let (rt, mut rx) = runtime(seed, steps);
        let snap = rt.snapshot();
        let mut bytes = Vec::new();
        encode_image_into(&rt.snapshot_parts(), &mut bytes).unwrap();
        let config = DetectorConfig::default();
        let decoded = decode_image(&bytes, &config).unwrap();
        prop_assert_eq!(&decoded, &snap);
        let restored = SessionRuntime::from_snapshot(
            decoded,
            SubcarrierWeighting,
            config,
            session_cfg(),
        )
        .unwrap();
        // The restored detector scores fresh windows bit-identically.
        for _ in 0..2 {
            let probe = rx.capture_static(None, 25).unwrap();
            let a = rt.detector().decide(&probe).unwrap();
            let b = restored.detector().decide(&probe).unwrap();
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            prop_assert_eq!(a.detected, b.detected);
        }
        prop_assert_eq!(restored.posterior().to_bits(), rt.posterior().to_bits());
        prop_assert_eq!(restored.threshold().to_bits(), rt.threshold().to_bits());
    }

    #[test]
    fn decode_image_is_a_typed_error_on_arbitrary_bytes(
        raw in proptest::collection::vec(0u8..=255, 0..2048),
        with_header in 0u8..2,
    ) {
        // Bare garbage, or garbage behind a valid header so the decoder
        // walks into it.
        let body = if with_header == 1 { framed(&raw) } else { raw };
        prop_assert!(decode_image(&body, &DetectorConfig::default()).is_err());
    }

    #[test]
    fn decode_image_survives_any_edit_of_a_valid_image(
        pos in 0usize..1_000_000,
        byte in 0u8..=255,
    ) {
        // No checksum guards an image: an edited one may even decode, but
        // it must never panic.
        let mut edited = small_image().to_vec();
        let idx = pos % edited.len();
        edited[idx] = byte;
        let _ = decode_image(&edited, &DetectorConfig::default());
    }
}

/// `raw` behind a valid image header whose length field covers it.
fn framed(raw: &[u8]) -> Vec<u8> {
    let mut body = MAGIC.to_vec();
    body.extend_from_slice(&VERSION.to_le_bytes());
    body.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    body.extend_from_slice(raw);
    body
}

/// The image of a session with a one-window reservoir.
fn small_image() -> &'static [u8] {
    static IMAGE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    IMAGE.get_or_init(|| {
        let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
        let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
        let mut rx = CsiReceiver::new(link, 5).unwrap();
        let calibration = rx.capture_static(None, 100).unwrap();
        let rt = SessionRuntime::calibrate(
            &calibration,
            SubcarrierWeighting,
            DetectorConfig::default(),
            SessionConfig {
                reservoir_windows: 1,
                ..session_cfg()
            },
        )
        .unwrap();
        let mut image = Vec::new();
        encode_image_into(&rt.snapshot_parts(), &mut image).unwrap();
        image
    })
}

#[test]
fn every_truncation_of_a_valid_image_is_a_typed_error() {
    let image = small_image();
    let config = DetectorConfig::default();
    assert!(decode_image(image, &config).is_ok());
    for cut in 0..image.len() {
        let err = decode_image(&image[..cut], &config).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Truncated),
            "cut {cut}: {err}"
        );
        // With the length field patched to match, the decoder walks into
        // the payload and must run out of bytes cleanly.
        if cut >= 14 {
            let patched = framed(&image[14..cut]);
            assert!(decode_image(&patched, &config).is_err(), "cut {cut}");
        }
    }
}
