//! Failure injection and determinism across the full stack.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use mpdf_core::error::DetectError;
use multipath_hd::prelude::*;

fn classroom_link() -> ChannelModel {
    let env = mpdf_eval::scenario::classroom();
    ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap()
}

#[test]
fn degenerate_geometry_is_rejected_not_panicking() {
    let env = mpdf_eval::scenario::classroom();
    // TX = RX.
    assert!(ChannelModel::new(env.clone(), Vec2::new(2.0, 3.0), Vec2::new(2.0, 3.0)).is_err());
    // Outside the building shell entirely.
    assert!(ChannelModel::new(env, Vec2::new(-50.0, 0.0), Vec2::new(6.0, 3.0)).is_err());
}

#[test]
fn empty_and_misshapen_windows_error_cleanly() {
    let mut rx = CsiReceiver::new(classroom_link(), 1).unwrap();
    let calibration = rx.capture_static(None, 120).unwrap();
    let det = Detector::calibrate(
        &calibration,
        Baseline,
        DetectorConfig {
            window: 20,
            ..DetectorConfig::default()
        },
        0.1,
    )
    .unwrap();
    assert_eq!(det.decide(&[]), Err(DetectError::EmptyWindow));

    let bad = mpdf_wifi::CsiPacket::new(2, 30, vec![mpdf_rfmath::Complex64::ONE; 60], 0, 0.0);
    assert!(matches!(
        det.decide(&[bad]),
        Err(DetectError::ShapeMismatch { .. })
    ));
}

#[test]
fn too_little_calibration_is_reported() {
    let mut rx = CsiReceiver::new(classroom_link(), 2).unwrap();
    let calibration = rx.capture_static(None, 20).unwrap();
    let err =
        Detector::calibrate(&calibration, Baseline, DetectorConfig::default(), 0.1).unwrap_err();
    assert!(matches!(err, DetectError::InsufficientCalibration { .. }));
}

#[test]
fn very_low_snr_degrades_gracefully() {
    // At 0 dB SNR the pipeline must still run end to end and produce
    // finite scores; detection quality may collapse but never panic.
    let cfg = ReceiverConfig {
        impairments: mpdf_wifi::ImpairmentModel::commodity_nic().with_snr_db(0.0),
        ..ReceiverConfig::default()
    };
    let mut rx = CsiReceiver::with_config(classroom_link(), cfg, 3).unwrap();
    let calibration = rx.capture_static(None, 120).unwrap();
    let det = Detector::calibrate(
        &calibration,
        SubcarrierAndPathWeighting,
        DetectorConfig {
            window: 20,
            ..DetectorConfig::default()
        },
        0.1,
    )
    .unwrap();
    let body = HumanBody::new(Vec2::new(4.0, 3.0));
    let window = rx.capture_static(Some(&body), 20).unwrap();
    let d = det.decide(&window).unwrap();
    assert!(d.score.is_finite());
}

#[test]
fn fully_blocked_link_still_measures() {
    // A metal cabinet sitting on the LOS: the receiver sees mostly
    // reflections and noise — captures and detection must not fail.
    let mut b = Environment::builder(
        Rect::new(Vec2::new(-4.0, -3.0), Vec2::new(12.0, 9.0)),
        Material::CONCRETE,
    );
    b.furniture(
        Rect::new(Vec2::new(3.6, 2.4), Vec2::new(4.4, 3.6)),
        Material::METAL,
    );
    let env = b.build();
    let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
    let mut rx = CsiReceiver::new(link, 4).unwrap();
    let packets = rx.capture_static(None, 50).unwrap();
    assert!(packets.iter().all(|p| p.total_power().is_finite()));
    let profile = CalibrationProfile::build(&packets, &DetectorConfig::default()).unwrap();
    assert!(profile.static_power().iter().all(|p| p.is_finite()));
}

#[test]
fn whole_campaign_is_deterministic() {
    let cfg = mpdf_eval::workload::CampaignConfig {
        episodes_per_position: 1,
        negative_windows: 5,
        calibration_packets: 150,
        ..Default::default()
    };
    let cases = mpdf_eval::scenario::five_cases();
    let run = || {
        let data = mpdf_eval::workload::run_campaign(&cases[..2], &cfg).unwrap();
        mpdf_eval::workload::score_campaign(&data, &SubcarrierAndPathWeighting, &cfg.detector)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn wall_adjacent_scenario_has_its_reflection() {
    assert!(mpdf_eval::experiments::fig5::has_wall_reflection());
}

#[test]
fn moving_capture_is_time_consistent() {
    let mut rx = CsiReceiver::new(classroom_link(), 6).unwrap();
    let walk = mpdf_propagation::trajectory::LinearWalk::new(
        Vec2::new(2.5, 1.0),
        Vec2::new(5.5, 5.0),
        1.0,
    );
    let packets = rx
        .capture_moving(&HumanBody::new(walk.start), &walk, 75)
        .unwrap();
    // Timestamps advance at 50 Hz and sequence numbers are consecutive.
    for (i, w) in packets.windows(2).enumerate() {
        assert_eq!(w[1].seq, w[0].seq + 1, "at {i}");
        assert!((w[1].timestamp - w[0].timestamp - 0.02).abs() < 1e-9);
    }
}
