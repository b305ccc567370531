//! # mpdf-bench — shared fixtures for the benchmark harness
//!
//! The bench lives in `benches/micro.rs` and times the building blocks
//! (supporting the paper's §V-B4 claim that the weighting schemes are
//! computationally negligible next to the packet budget). Every figure's
//! pipeline runs end to end through `repro all` instead.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::human::HumanBody;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::CsiReceiver;

/// The standard benchmark link: the paper's 4 m classroom link inside the
/// evaluation building shell.
pub fn bench_link() -> ChannelModel {
    let env = mpdf_eval::scenario::classroom();
    ChannelModel::new(
        env,
        mpdf_geom::vec2::Point::new(2.0, 3.0),
        mpdf_geom::vec2::Point::new(6.0, 3.0),
    )
    // lint: allow(no-panic) — bench fixture; aborting on a broken fixture is the desired behaviour
    .expect("valid link")
}

/// A calibrated profile plus a 25-packet monitoring window with a human
/// present — the per-decision workload.
pub fn bench_fixture() -> (CalibrationProfile, Vec<CsiPacket>, DetectorConfig) {
    let config = DetectorConfig::default();
    // lint: allow(no-panic) — bench fixture; aborting on a broken fixture is the desired behaviour
    let mut rx = CsiReceiver::new(bench_link(), 1234).expect("receiver");
    // lint: allow(no-panic) — bench fixture; aborting on a broken fixture is the desired behaviour
    let calibration = rx.capture_static(None, 200).expect("capture");
    // lint: allow(no-panic) — bench fixture; aborting on a broken fixture is the desired behaviour
    let profile = CalibrationProfile::build(&calibration, &config).expect("profile");
    let human = HumanBody::new(mpdf_geom::vec2::Point::new(4.0, 3.5));
    // lint: allow(no-panic) — bench fixture; aborting on a broken fixture is the desired behaviour
    let window = rx.capture_static(Some(&human), 25).expect("capture");
    (profile, window, config)
}
