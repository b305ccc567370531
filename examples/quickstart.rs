//! Quickstart: calibrate a link, then detect a person stepping into the
//! monitored area.
//!
//! Run with `cargo run --release --example quickstart`.

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it shows on stdout"
)]

use multipath_hd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's §III setup: a 6 m × 8 m classroom with a 4 m TX–RX link.
    let room = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(room, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0))?;
    let mut receiver = CsiReceiver::new(link, 7)?;

    // Calibration: several sessions of packets with nobody around —
    // the environment drifts between sessions, and the threshold must
    // absorb that (the paper's captures span day/night and two weeks).
    println!("calibrating on an empty room...");
    let calibration = receiver.capture_sessions(None, 50, 12)?;
    let config = DetectorConfig::default();
    let detector = Detector::calibrate(&calibration, SubcarrierAndPathWeighting, config, 0.05)?;
    println!(
        "calibrated: threshold {:.4} at 5% target false-positive rate",
        detector.threshold()
    );

    // Monitoring: empty room first, then a person at three spots.
    // Each window is a fresh "session" (clutter has drifted since
    // calibration).
    receiver.resample_drift();
    let empty = receiver.capture_static(None, 25)?;
    let d = detector.decide(&empty)?;
    println!(
        "empty room       → score {:.4}  detected: {}",
        d.score, d.detected
    );

    for (label, pos) in [
        ("blocking the LOS", Vec2::new(4.0, 3.0)),
        ("1 m beside it   ", Vec2::new(4.0, 4.0)),
        ("near the corner ", Vec2::new(6.2, 4.6)),
    ] {
        let person = HumanBody::new(pos);
        receiver.resample_drift();
        let window = receiver.capture_static(Some(&person), 25)?;
        let d = detector.decide(&window)?;
        println!(
            "person {label} → score {:.4}  detected: {}",
            d.score, d.detected
        );
    }
    Ok(())
}
