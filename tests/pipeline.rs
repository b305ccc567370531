//! Cross-crate integration: physics → CSI → weighting → detection.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use multipath_hd::prelude::*;

fn classroom_link() -> ChannelModel {
    let env = mpdf_eval::scenario::classroom();
    ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap()
}

#[test]
fn calibrate_then_detect_all_schemes() {
    let mut rx = CsiReceiver::new(classroom_link(), 31).unwrap();
    let calibration = rx.capture_sessions(None, 50, 8).unwrap();
    let config = DetectorConfig::default();
    let intruder = HumanBody::new(Vec2::new(4.0, 3.0));

    // Session drift makes single windows noisy; compare session-averaged
    // scores, as any real deployment effectively does.
    let run = |scheme: &dyn DetectionScheme, rx: &mut CsiReceiver| {
        let profile = CalibrationProfile::build(&calibration[..200], &config).unwrap();
        let mean = |human: Option<&HumanBody>, rx: &mut CsiReceiver| {
            let mut total = 0.0;
            for _ in 0..8 {
                rx.resample_drift();
                let w = rx.capture_static(human, 25).unwrap();
                total += scheme.score(&profile, &w, &config).unwrap();
            }
            total / 8.0
        };
        let s_empty = mean(None, rx);
        let s_busy = mean(Some(&intruder), rx);
        (s_empty, s_busy)
    };
    for scheme in [
        &Baseline as &dyn DetectionScheme,
        &SubcarrierWeighting,
        &SubcarrierAndPathWeighting,
    ] {
        let (e, b) = run(scheme, &mut rx);
        assert!(
            b > 1.3 * e,
            "{}: busy {b} must clearly exceed empty {e}",
            scheme.name()
        );
    }
}

#[test]
fn campaign_scheme_ordering_matches_paper() {
    // Reduced campaign: the ROC ordering of balanced accuracies must hold
    // (baseline ≤ subcarrier ≤ combined), with a small tolerance because
    // this is a statistical result on a reduced sample.
    let cfg = mpdf_eval::workload::CampaignConfig {
        episodes_per_position: 2,
        negative_windows: 18,
        calibration_packets: 300,
        ..Default::default()
    };
    let scores = mpdf_eval::experiments::fig7::run_campaign_scores(&cfg).unwrap();
    let result = mpdf_eval::experiments::fig7::from_scores(&scores);
    let balanced: Vec<f64> = result
        .schemes
        .iter()
        .map(|s| (s.summary.operating.tp + 1.0 - s.summary.operating.fp) / 2.0)
        .collect();
    assert!(
        balanced[1] > balanced[0] - 0.05,
        "subcarrier {:.3} vs baseline {:.3}",
        balanced[1],
        balanced[0]
    );
    assert!(
        balanced[2] > balanced[0],
        "combined {:.3} vs baseline {:.3}",
        balanced[2],
        balanced[0]
    );
    // All well above chance.
    for (s, b) in result.schemes.iter().zip(&balanced) {
        assert!(*b > 0.6, "{} balanced accuracy {b}", s.name);
        assert!(s.summary.auc > 0.6, "{} AUC {}", s.name, s.summary.auc);
    }
}

#[test]
fn detector_streaming_flags_walkthrough() {
    let mut rx = CsiReceiver::new(classroom_link(), 77).unwrap();
    let calibration = rx.capture_sessions(None, 50, 8).unwrap();
    let det = Detector::calibrate(
        &calibration,
        SubcarrierAndPathWeighting,
        DetectorConfig::default(),
        0.1,
    )
    .unwrap();
    rx.resample_drift();
    let mut stream = rx.capture_static(None, 50).unwrap();
    let walk = mpdf_propagation::trajectory::LinearWalk::new(
        Vec2::new(3.0, 1.0),
        Vec2::new(5.0, 5.0),
        2.0,
    );
    stream.extend(
        rx.capture_moving(&HumanBody::new(walk.start), &walk, 100)
            .unwrap(),
    );
    let decisions = det.decide_stream(&stream).unwrap();
    assert_eq!(decisions.len(), 6);
    let empty_hits = decisions[..2].iter().filter(|d| d.detected).count();
    let walk_hits = decisions[2..].iter().filter(|d| d.detected).count();
    assert!(walk_hits >= 3, "walk windows detected: {walk_hits}/4");
    assert!(empty_hits <= 1, "empty windows flagged: {empty_hits}/2");
}

#[test]
fn multipath_factor_tracks_ground_truth() {
    // The measurable μ (Eq. 11) must track the simulator's exact LOS
    // power fraction across subcarriers on a clean receiver.
    let link = classroom_link();
    let snapshot = link.snapshot(None).unwrap();
    let band = mpdf_wifi::Band::wifi_2_4ghz_channel11();
    let freqs = band.frequencies();

    let cfg = ReceiverConfig {
        impairments: mpdf_wifi::ImpairmentModel::ideal(),
        clutter_drift_rel: 0.0,
        ..ReceiverConfig::default()
    };
    let mut rx = CsiReceiver::with_config(link, cfg, 3).unwrap();
    let packet = &rx.capture_static(None, 1).unwrap()[0];
    // The ground truth is evaluated at the nominal receiver point, which
    // is the *centre* element of the (centred) 3-element array — compare
    // against that antenna's row, not the antenna average (λ/2-spaced
    // elements fade differently).
    let measured =
        mpdf_core::multipath_factor::multipath_factors_row(packet.antenna_row(1), &freqs);
    let truth: Vec<f64> = freqs
        .iter()
        .map(|&f| snapshot.true_multipath_factor(f).unwrap())
        .collect();
    let corr = mpdf_rfmath::fit::pearson(&measured, &truth);
    assert!(corr > 0.7, "μ estimator correlation with truth: {corr}");
}

#[test]
fn music_locates_a_strong_scatterer_through_the_full_stack() {
    use mpdf_music::music::{estimate_aoa, AngleGrid, UlaSteering};
    // A human at a known angle from the receiver; MUSIC on the captured
    // CSI must place one path near 0° (LOS) — and with the scatterer
    // present the spectrum must shift toward its angle.
    let link = classroom_link();
    let cfg = ReceiverConfig {
        impairments: mpdf_wifi::ImpairmentModel::ideal(),
        clutter_drift_rel: 0.0,
        ..ReceiverConfig::default()
    };
    let mut rx = CsiReceiver::with_config(link, cfg, 5).unwrap();
    let packets = rx.capture_static(None, 10).unwrap();
    let snaps: Vec<Vec<mpdf_rfmath::Complex64>> = packets
        .iter()
        .flat_map(|p| (0..30).map(|k| p.subcarrier_column(k)).collect::<Vec<_>>())
        .collect();
    let angles = estimate_aoa(
        &snaps,
        &UlaSteering::three_half_wavelength(),
        2,
        &AngleGrid::full_front(1.0),
    )
    .unwrap();
    // LOS arrives broadside (0°) on the default +y-axis array for this
    // x-aligned link.
    let best = angles.iter().map(|a| a.abs()).fold(f64::MAX, f64::min);
    assert!(best < 10.0, "LOS angle estimate off by {best}°: {angles:?}");
}
