//! End-to-end pipeline test: physics → CSI capture → calibration →
//! detection, exercising all three schemes on the paper's classroom
//! geometry.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use mpdf_core::detector::Detector;
use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::{
    Baseline, DetectionScheme, SubcarrierAndPathWeighting, SubcarrierWeighting,
};
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_propagation::human::HumanBody;
use mpdf_wifi::receiver::CsiReceiver;

fn classroom_link() -> ChannelModel {
    let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap()
}

fn run_scheme<S: DetectionScheme>(scheme: S, seed: u64) -> (f64, f64) {
    let mut rx = CsiReceiver::new(classroom_link(), seed).unwrap();
    let cfg = DetectorConfig::default();
    let calibration = rx.capture_static(None, 300).unwrap();
    let det = Detector::calibrate(&calibration, scheme, cfg, 0.1).unwrap();

    // Human presence windows on a grid near the link.
    let mut tp = 0;
    let mut total_p = 0;
    for ix in 0..4 {
        for iy in 0..3 {
            let pos = Vec2::new(2.5 + ix as f64, 2.0 + iy as f64);
            let body = HumanBody::new(pos);
            let window = rx.capture_static(Some(&body), 25).unwrap();
            if det.decide(&window).unwrap().detected {
                tp += 1;
            }
            total_p += 1;
        }
    }
    // Empty windows.
    let mut fp = 0;
    let mut total_n = 0;
    for _ in 0..12 {
        let window = rx.capture_static(None, 25).unwrap();
        if det.decide(&window).unwrap().detected {
            fp += 1;
        }
        total_n += 1;
    }
    (tp as f64 / total_p as f64, fp as f64 / total_n as f64)
}

#[test]
fn baseline_detects_better_than_chance() {
    let (tp, fp) = run_scheme(Baseline, 11);
    assert!(tp > 0.3, "baseline TP {tp}");
    assert!(fp < 0.6, "baseline FP {fp}");
}

#[test]
fn subcarrier_weighting_detects_well() {
    let (tp, fp) = run_scheme(SubcarrierWeighting, 11);
    assert!(tp > 0.5, "subcarrier TP {tp}");
    assert!(fp < 0.5, "subcarrier FP {fp}");
}

#[test]
fn combined_weighting_detects_well() {
    let (tp, fp) = run_scheme(SubcarrierAndPathWeighting, 11);
    assert!(tp > 0.5, "combined TP {tp}");
    assert!(fp < 0.5, "combined FP {fp}");
}
