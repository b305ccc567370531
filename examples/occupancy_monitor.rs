//! Occupancy monitoring: a day-in-the-life simulation of a meeting room.
//!
//! People enter, linger and leave over a two-minute compressed "day";
//! the detector produces a per-interval occupancy log like a smart-
//! building sensor would. Exercises multi-actor scenes (several people
//! present at once) — the regime beyond the paper's single-subject
//! evaluation.
//!
//! Run with `cargo run --release --example occupancy_monitor`.

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it shows on stdout"
)]

use mpdf_propagation::trajectory::{StaticSway, Trajectory, WaypointWalk};
use multipath_hd::prelude::*;

/// A person's schedule: enter, sit somewhere, leave.
struct Visit {
    enter_s: f64,
    leave_s: f64,
    seat: Vec2,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let room = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(room, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0))?;
    let mut receiver = CsiReceiver::new(link, 314)?;

    println!("calibrating the empty meeting room...");
    let calibration = receiver.capture_sessions(None, 50, 12)?;
    let detector = Detector::calibrate(
        &calibration,
        SubcarrierAndPathWeighting,
        DetectorConfig::default(),
        0.1,
    )?;

    // The compressed day: 120 s at 50 pkt/s = 6000 packets.
    let day_s = 120.0;
    let visits = [
        Visit {
            enter_s: 10.0,
            leave_s: 50.0,
            seat: Vec2::new(3.0, 4.5),
        },
        Visit {
            enter_s: 25.0,
            leave_s: 80.0,
            seat: Vec2::new(5.0, 1.8),
        },
        Visit {
            enter_s: 60.0,
            leave_s: 100.0,
            seat: Vec2::new(4.2, 4.0),
        },
    ];
    let door = Vec2::new(7.6, 5.6);

    // Build each visitor's trajectory: door → seat (2 s walk) → sway at
    // the seat → seat → door (2 s walk). Times are absolute.
    let walks: Vec<WaypointWalk> = visits
        .iter()
        .map(|v| {
            WaypointWalk::new(vec![
                (0.0, door),
                (v.enter_s, door),
                (v.enter_s + 2.0, v.seat),
                (v.leave_s - 2.0, v.seat),
                (v.leave_s, door),
                (day_s, door),
            ])
        })
        .collect();
    // Capture the day in 0.5 s windows, assembling the actor set per
    // window from who is inside (people "outside" are removed entirely —
    // the door is a proxy for leaving the monitored area).
    let window = detector.config().window;
    let windows = (day_s * 50.0) as usize / window;
    receiver.resample_drift();
    println!("t[s]   truth  detected  score");
    let mut correct = 0usize;
    for w in 0..windows {
        let t = w as f64 * window as f64 / 50.0;
        let inside: Vec<usize> = visits
            .iter()
            .enumerate()
            .filter(|(_, v)| t >= v.enter_s && t <= v.leave_s)
            .map(|(i, _)| i)
            .collect();
        // Anchor a sway at each visitor's *current* position for this
        // window (walking visitors are mid-stride; seated ones are at
        // their seat — the walk trajectory gives both).
        let window_sways: Vec<StaticSway> = inside
            .iter()
            .map(|&i| StaticSway::new(walks[i].position(t), 0.03))
            .collect();
        let actors: Vec<Actor<'_>> = window_sways
            .iter()
            .map(|sway| Actor {
                body: HumanBody::new(sway.anchor),
                trajectory: sway,
            })
            .collect();
        let packets = receiver.capture_actors(&actors, window)?;
        let d = detector.decide(&packets)?;
        let truth = !inside.is_empty();
        if truth == d.detected {
            correct += 1;
        }
        if w % 10 == 0 {
            println!(
                "{t:5.1}  {:5}  {:8}  {:.3}",
                inside.len(),
                d.detected,
                d.score
            );
        }
    }
    println!(
        "\nwindow-level occupancy accuracy: {}/{} ({:.0}%)",
        correct,
        windows,
        100.0 * correct as f64 / windows as f64
    );
    println!("(occupied spans: 10–50 s, 25–80 s, 60–100 s; up to 3 people at once)");
    Ok(())
}
