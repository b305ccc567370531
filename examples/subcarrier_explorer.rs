//! Subcarrier explorer: inspect the multipath factor, the Eq. 15 weights
//! and per-subcarrier RSS changes for a scene — the paper's §III/IV
//! analysis, interactive-style.
//!
//! Run with `cargo run --release --example subcarrier_explorer`.

#![expect(
    clippy::print_stdout,
    reason = "an example prints what it shows on stdout"
)]

use mpdf_core::multipath_factor::multipath_factors;
use mpdf_core::subcarrier_weight::SubcarrierWeights;
use mpdf_wifi::csi::CsiPacket;
use multipath_hd::prelude::*;

fn bar(x: f64, scale: f64) -> String {
    let n = ((x * scale).round().max(0.0) as usize).min(40);
    "█".repeat(n)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let room = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
    let link = ChannelModel::new(room, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0))?;
    let mut receiver = CsiReceiver::new(link, 5)?;
    let config = DetectorConfig::default();
    let indices = config.band.indices();

    // Static profile. Powers need no phase calibration; μ_k and the
    // weights run it themselves.
    let calibration = receiver.capture_sessions(None, 50, 4)?;
    let static_power = CsiPacket::median_power_profile(&calibration);

    // A person well off the link — the regime where weighting matters.
    let person = HumanBody::new(Vec2::new(6.4, 4.8));
    receiver.resample_drift();
    let window = receiver.capture_static(Some(&person), 25)?;
    let monitored = CsiPacket::median_power_profile(&window);
    let mus = multipath_factors(&window[0], &config.band);
    let weights = SubcarrierWeights::from_packets(&window, &config.band);

    println!("slot  idx   μ (1 pkt)  μ̄·r weight  Δs [dB]   |Δs| bar");
    for k in 0..indices.len() {
        let ds = 10.0 * (monitored[k] / static_power[k]).log10();
        println!(
            "{k:>4}  {idx:>4}  {mu:>8.3}  {w:>10.5}  {ds:>7.2}   {bar}",
            idx = indices[k],
            mu = mus[k],
            w = weights.weights[k],
            ds = ds,
            bar = bar(ds.abs(), 8.0),
        );
    }

    // Correlation the weighting scheme relies on: in the paper, sensitive
    // subcarriers (large weight) show large |Δs|. Whether this scene
    // bears that out is read off the sign, not assumed.
    let abs_ds: Vec<f64> = monitored
        .iter()
        .zip(&static_power)
        .map(|(m, s)| (10.0 * (m / s).log10()).abs())
        .collect();
    let corr = mpdf_rfmath::fit::pearson(&abs_ds, &weights.weights);
    println!("\ncorrelation(|Δs|, weight) = {corr:.3}");
    let verdict = if corr > 0.0 {
        "lean towards"
    } else {
        "do not lean towards"
    };
    println!("on this scene the Eq. 15 weights {verdict} the subcarriers the person");
    println!("perturbs most; EXPERIMENTS.md, known deviation 5, records where subcarrier");
    println!("weighting falls short of the paper.");
    Ok(())
}
