//! Record a measurement campaign to a binary capture file, then replay it
//! through a detector offline — the workflow the paper's MATLAB
//! post-processing pipeline follows (capture once, analyze many times).
//! A capture file is a plain stream of `mpdf_wifi::wire` frames, the
//! same bytes a live receiver would send.
//!
//! Run with `cargo run --release --example record_replay [capture.mpdf]`.

use mpdf_wifi::wire::{drain_frames, encode_stream};
use multipath_hd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::temp_dir()
            .join("campaign.mpdf")
            .display()
            .to_string()
    });

    // --- Record: a calibration session plus labelled monitoring windows.
    let room = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(room, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0))?;
    let mut receiver = CsiReceiver::new(link, 77)?;

    let mut stream = receiver.capture_sessions(None, 50, 10)?; // calibration: 500 pkts
    receiver.resample_drift();
    stream.extend(receiver.capture_static(None, 50)?); // 2 empty windows
    let person = HumanBody::new(Vec2::new(4.2, 3.8));
    receiver.resample_drift();
    stream.extend(receiver.capture_static(Some(&person), 50)?); // 2 busy windows

    std::fs::write(&path, encode_stream(&stream, 0)?)?;
    let size = std::fs::metadata(&path)?.len();
    println!(
        "recorded {} packets ({} antennas × {} subcarriers) → {path} ({size} bytes)",
        stream.len(),
        stream[0].antennas(),
        stream[0].subcarriers(),
    );

    // --- Replay: a fresh process would start here.
    let bytes = std::fs::read(&path)?;
    let mut packets = Vec::new();
    let stats = drain_frames(&bytes, &mut packets);
    if stats.rejects > 0 || stats.consumed != bytes.len() {
        return Err(format!("{path}: not a clean capture ({stats:?})").into());
    }
    assert_eq!(packets, stream, "capture must round-trip exactly");
    let (calibration, monitoring) = packets.split_at(500);
    let detector = Detector::calibrate(
        calibration,
        SubcarrierAndPathWeighting,
        DetectorConfig::default(),
        0.1,
    )?;
    println!("replaying {} monitoring packets:", monitoring.len());
    for (i, d) in detector.decide_stream(monitoring)?.iter().enumerate() {
        let truth = if i < 2 { "empty" } else { "person" };
        println!(
            "  window {i} ({truth:6}) → score {:8.4}  detected: {}",
            d.score, d.detected
        );
    }
    std::fs::remove_file(&path).ok();
    Ok(())
}
