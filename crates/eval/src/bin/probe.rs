//! Diagnostic probe: inspect per-subcarrier features and score
//! distributions for the three schemes on case 1.

use mpdf_core::multipath_factor::multipath_factors;
use mpdf_core::profile::CalibrationProfile;
use mpdf_core::scheme::{
    Baseline, DetectionScheme, PreparedWindow, SubcarrierAndPathWeighting, SubcarrierWeighting,
};
use mpdf_core::subcarrier_weight::SubcarrierWeights;
use mpdf_eval::scenario::five_cases;
use mpdf_eval::workload::{case_receiver, CampaignConfig};
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::trajectory::StaticSway;
use mpdf_wifi::receiver::Actor;
use mpdf_wifi::sanitize::sanitize_packet;

fn main() {
    let cfg = CampaignConfig::default();
    let case = &five_cases()[0];
    let mut rx = case_receiver(case, &cfg, 42).unwrap();
    let freqs = cfg.detector.band.frequencies();

    let calibration = rx.capture_static(None, 500).unwrap();
    let profile = CalibrationProfile::build(&calibration, &cfg.detector).unwrap();

    // Static channel frequency profile.
    println!("static per-subcarrier power:");
    for (k, p) in profile.static_power().iter().enumerate() {
        print!("{p:.3} ");
        if k % 10 == 9 {
            println!();
        }
    }

    // μ of a sanitized static packet.
    let mut pkt = calibration[0].clone();
    sanitize_packet(&mut pkt, cfg.detector.band.indices());
    let mus = multipath_factors(&pkt, &freqs);
    println!(
        "\nμ_k (static packet): min {:.3} max {:.3}",
        mus.iter().cloned().fold(f64::MAX, f64::min),
        mus.iter().cloned().fold(f64::MIN, f64::max)
    );

    // One positive window (human near midpoint, 1 m off-link) and one far.
    for (label, pos) in [
        ("human at midpoint", Vec2::new(4.0, 3.0)),
        ("human 1m beside", Vec2::new(4.0, 4.0)),
        ("human far corner", Vec2::new(7.3, 5.3)),
    ] {
        let sway = StaticSway::new(pos, cfg.sway_amplitude);
        let actors = [Actor {
            body: HumanBody::new(pos),
            trajectory: &sway,
        }];
        let window = rx.capture_actors(&actors, 25).unwrap();
        let sanitized: Vec<_> = window
            .iter()
            .map(|p| {
                let mut q = p.clone();
                sanitize_packet(&mut q, cfg.detector.band.indices());
                q
            })
            .collect();
        let monitored = mpdf_wifi::csi::CsiPacket::mean_power_profile(&sanitized);
        let delta: Vec<f64> = monitored
            .iter()
            .zip(profile.static_power())
            .map(|(m, s)| m - s)
            .collect();
        let w = SubcarrierWeights::from_packets(&sanitized, &freqs);
        println!("\n== {label}");
        println!(
            "|Δs| mean {:.4} max {:.4}",
            delta.iter().map(|d| d.abs()).sum::<f64>() / 30.0,
            delta.iter().map(|d| d.abs()).fold(f64::MIN, f64::max)
        );
        // correlation between |Δs| and weight
        let corr = mpdf_rfmath::fit::pearson(
            &delta.iter().map(|d| d.abs()).collect::<Vec<_>>(),
            &w.weights,
        );
        println!("corr(|Δs|, weight) = {corr:.3}");
        let prepared = PreparedWindow::new(&profile, &window, &cfg.detector);
        for scheme in [
            &Baseline as &dyn DetectionScheme,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ] {
            let (s, _) = scheme.score_prepared(&prepared).unwrap();
            println!("  {:28} {s:.5}", scheme.name());
        }
    }

    // Empty windows with/without background.
    for (label, bg) in [
        ("empty quiet", None),
        ("empty + background", Some(Vec2::new(1.0, 5.4))),
    ] {
        let window = match bg {
            None => rx.capture_static(None, 25).unwrap(),
            Some(p) => {
                let sway = StaticSway::new(p, 0.25);
                let actors = [Actor {
                    body: HumanBody::new(p),
                    trajectory: &sway,
                }];
                rx.capture_actors(&actors, 25).unwrap()
            }
        };
        println!("\n== {label}");
        let prepared = PreparedWindow::new(&profile, &window, &cfg.detector);
        for scheme in [
            &Baseline as &dyn DetectionScheme,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ] {
            let (s, _) = scheme.score_prepared(&prepared).unwrap();
            println!("  {:28} {s:.5}", scheme.name());
        }
    }
}
