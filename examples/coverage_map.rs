//! Deployment assessment: sweep human positions over a grid and print a
//! detection heat map per scheme — the "guidelines for infrastructure
//! assessment and deployment" use case from the paper's contributions.
//!
//! Run with `cargo run --release --example coverage_map`.

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it shows on stdout"
)]

use mpdf_eval::scenario::{classroom, classroom_room};
use multipath_hd::prelude::*;

const COLS: usize = 24;
const ROWS: usize = 16;

fn glyph(score: f64, threshold: f64) -> char {
    let r = score / threshold;
    match r {
        r if r >= 2.0 => '#',
        r if r >= 1.0 => '+',
        r if r >= 0.5 => '.',
        _ => ' ',
    }
}

fn run_scheme<S: DetectionScheme + Copy>(
    scheme: S,
    name: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    // The evaluation classroom: an 8×6 m room inside a concrete building
    // shell, which supplies the long-delay multipath of a real building.
    let room_rect = classroom_room();
    let room = classroom();
    let tx = Vec2::new(2.0, 3.0);
    let rx = Vec2::new(6.0, 3.0);
    let link = ChannelModel::new(room, tx, rx)?;
    let mut receiver = CsiReceiver::new(link, 99)?;

    let calibration = receiver.capture_sessions(None, 30, 20)?;
    // Decisions below use 10-packet windows (0.2 s), so calibrate the
    // threshold on the same window length.
    let config = DetectorConfig {
        window: 10,
        ..DetectorConfig::default()
    };
    let detector = Detector::calibrate(&calibration, scheme, config, 0.1)?;

    println!("\n=== {name} — detection coverage (#: strong, +: detected, .: weak, ' ': none)");
    let mut detected = 0usize;
    let mut total = 0usize;
    for row in 0..ROWS {
        let mut line = String::with_capacity(COLS);
        for col in 0..COLS {
            let inner = room_rect.shrunk(0.4);
            let x = inner.min().x + inner.width() * col as f64 / (COLS - 1) as f64;
            let y = inner.max().y - inner.height() * row as f64 / (ROWS - 1) as f64;
            let pos = Vec2::new(x, y);
            // Mark the radios themselves.
            if pos.distance(tx) < 0.25 {
                line.push('T');
                continue;
            }
            if pos.distance(rx) < 0.25 {
                line.push('R');
                continue;
            }
            let person = HumanBody::new(pos);
            receiver.resample_drift();
            let window = receiver.capture_static(Some(&person), 10)?;
            let d = detector.decide(&window)?;
            line.push(glyph(d.score, d.threshold));
            total += 1;
            if d.detected {
                detected += 1;
            }
        }
        println!("  |{line}|");
    }
    println!(
        "  coverage: {}/{} grid cells detected ({:.0}%)",
        detected,
        total,
        100.0 * detected as f64 / total as f64
    );
    // The other half of the story: how often does the scheme cry wolf on
    // an *empty* room as the environment drifts between sessions?
    let mut false_alarms = 0usize;
    let empties = 40usize;
    for _ in 0..empties {
        receiver.resample_drift();
        let window = receiver.capture_static(None, 10)?;
        if detector.decide(&window)?.detected {
            false_alarms += 1;
        }
    }
    println!(
        "  false alarms on empty room: {}/{} windows ({:.0}%)",
        false_alarms,
        empties,
        100.0 * false_alarms as f64 / empties as f64
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("coverage maps of a 4 m link in an 8 m x 6 m room (T=transmitter, R=receiver)");
    run_scheme(Baseline, "baseline (CSI amplitude distance)")?;
    run_scheme(SubcarrierWeighting, "subcarrier weighting")?;
    run_scheme(SubcarrierAndPathWeighting, "subcarrier + path weighting")?;
    println!("\nRead coverage *and* false alarms together: raw amplitude distances");
    println!("(baseline) light up everything, drift included; the weighted schemes");
    println!("concentrate on human-shaped change. Campaign-level numbers (fig7/fig9)");
    println!("average this over five links, where the paper's ordering emerges.");
    Ok(())
}
