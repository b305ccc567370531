//! Invariant checks for every experiment runner at reduced size.
//!
//! These are not performance runs: each experiment executes with a tiny
//! workload and its *structural* guarantees are asserted — monotone CDFs,
//! probability-valued rates, complete tables, paper-shaped relations that
//! must hold even on small samples.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use mpdf_eval::experiments as exp;
use mpdf_eval::workload::CampaignConfig;

fn tiny() -> CampaignConfig {
    CampaignConfig {
        calibration_packets: 120,
        episodes_per_position: 1,
        negative_windows: 9,
        ..Default::default()
    }
}

fn assert_prob(x: f64, what: &str) {
    assert!((0.0..=1.0).contains(&x), "{what} = {x} not a probability");
}

fn assert_monotone_cdf(curve: &[(f64, f64)], what: &str) {
    assert!(!curve.is_empty(), "{what} empty");
    for w in curve.windows(2) {
        assert!(w[1].1 >= w[0].1 - 1e-12, "{what} not monotone");
    }
    let last = curve.last().unwrap().1;
    assert!(
        (last - 1.0).abs() < 1e-9,
        "{what} must end at 1, got {last}"
    );
}

#[test]
fn fig2a_invariants() {
    let r = exp::fig2::run_fig2a(&tiny(), 20).unwrap();
    assert_monotone_cdf(&r.cdf, "fig2a cdf");
    assert_prob(r.drop_fraction, "drop fraction");
    assert_prob(r.rise_fraction, "rise fraction");
    assert!(r.quantiles.0 <= r.quantiles.1 && r.quantiles.1 <= r.quantiles.2);
    // The paper's core observation: both signs occur.
    assert!(r.drop_fraction > 0.0 && r.rise_fraction > 0.0);
}

#[test]
fn fig2b_invariants() {
    let r = exp::fig2::run_fig2b(&tiny(), 200).unwrap();
    assert!(!r.subcarrier_a.is_empty() && !r.subcarrier_b.is_empty());
    assert!(r.slots.0 < 30 && r.slots.1 < 30);
    assert!(r.bidirectional_subcarriers <= r.total_subcarriers);
    assert_eq!(r.total_subcarriers, 30);
}

#[test]
fn fig3_invariants() {
    let r = exp::fig3::run(&tiny(), 30).unwrap();
    assert_monotone_cdf(&r.distribution.cdf, "fig3a cdf");
    assert!(r.distribution.mean_within_location_spread >= 0.0);
    assert_eq!(r.fits.len(), 5);
    assert_prob(r.falling_fraction, "falling fraction");
    for f in &r.fits {
        assert!(f.fit.slope.is_finite());
        assert!(f.points > 0);
    }
}

#[test]
fn fig4_invariants() {
    let r = exp::fig4::run(&tiny(), 300).unwrap();
    assert_eq!(r.locations.len(), 2);
    for loc in &r.locations {
        assert_eq!(loc.mean_mu.len(), 30);
        assert_eq!(loc.std_mu.len(), 30);
        assert!(loc.stability.iter().all(|&s| (0.0..=1.0).contains(&s)));
        assert_prob(loc.argmax_flip_rate, "flip rate");
        assert!(loc.mean_mu.iter().all(|&m| m >= 0.0 && m.is_finite()));
    }
}

#[test]
fn fig5b_invariants() {
    let r = exp::fig5::run_fig5b(&tiny()).unwrap();
    assert!(!r.spectrum.is_empty());
    assert!(!r.peaks.is_empty() && r.peaks.len() <= 2);
    assert_eq!(r.true_angles.len(), 2);
    // Normalized spectrum.
    let max = r.spectrum.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    assert!(max <= 1.0 + 1e-9);
    // One true arrival is the LOS (0°).
    assert!(r.true_angles.iter().any(|a| a.abs() < 1.0));
}

#[test]
fn fig5c_invariants() {
    let r = exp::fig5::run_fig5c(&tiny()).unwrap();
    assert!(r.rss_change_by_angle.len() >= 10);
    assert!(r.rss_change_by_angle.iter().all(|(_, v)| *v >= 0.0));
    assert!(r.peak_angle_deg.abs() <= 90.0);
}

#[test]
fn fig7_and_fig8_invariants() {
    let cfg = tiny();
    let scores = exp::fig7::run_campaign_scores(&cfg).unwrap();
    let f7 = exp::fig7::from_scores(&scores);
    assert_eq!(f7.schemes.len(), 3);
    for s in &f7.schemes {
        assert_prob(s.summary.operating.tp, "tp");
        assert_prob(s.summary.operating.fp, "fp");
        assert!(s.summary.auc >= 0.0 && s.summary.auc <= 1.0);
        // Sampled ROC is monotone in FP.
        for w in s.roc_points.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
    }
    let f8 = exp::fig8::from_scores(&scores);
    assert_eq!(f8.rows.len(), 5);
    for (id, b, s, c) in &f8.rows {
        assert!((1..=5).contains(id));
        assert_prob(b.expect("a clean case has a rate"), "case baseline");
        assert_prob(s.expect("a clean case has a rate"), "case subcarrier");
        assert_prob(c.expect("a clean case has a rate"), "case combined");
    }
}

#[test]
fn fig9_invariants() {
    let r = exp::fig9::run(&tiny()).unwrap();
    assert_eq!(r.rows.len(), 5);
    for (d, b, s, c, abstained) in &r.rows {
        assert!(*d >= 1.0 && *d <= 5.0);
        assert_eq!(*abstained, 0, "a fault-free run never abstains");
        assert_prob(b.expect("a clean cell has a rate"), "fig9 baseline");
        assert_prob(s.expect("a clean cell has a rate"), "fig9 subcarrier");
        assert_prob(c.expect("a clean cell has a rate"), "fig9 combined");
    }
    let (rb, rs, rc) = r.range_at_90;
    for v in [rb, rs, rc] {
        assert!(v == 0.0 || (1.0..=5.0).contains(&v));
    }
}

#[test]
fn fig9_and_fig11_abstain_instead_of_failing_under_chaos_faults() {
    let cfg = CampaignConfig {
        faults: mpdf_wifi::fault::FaultModel::chaos(),
        ..tiny()
    };
    let fig9 = exp::fig9::run(&cfg).expect("fig9 abstains on unscorable windows");
    let fig11 = exp::fig11::run(&cfg).expect("fig11 abstains on unscorable windows");
    let abstained: usize = fig9.rows.iter().map(|r| r.4).sum::<usize>()
        + fig11.rows.iter().map(|r| r.3).sum::<usize>();
    assert!(
        abstained > 0,
        "the chaos preset leaves some window unscorable"
    );
    assert!(exp::fig9::report(&fig9).contains("abstained"));
}

#[test]
fn fig10_invariants() {
    let r = exp::fig10::run(&tiny()).unwrap();
    assert_monotone_cdf(&r.single_packet_cdf, "fig10 single");
    assert_monotone_cdf(&r.averaged_cdf, "fig10 averaged");
    assert!(r.medians.0 >= 0.0 && r.medians.1 >= 0.0);
    assert!(r.p90.0 >= r.medians.0 - 1e-9);
    assert!(r.p90.1 >= r.medians.1 - 1e-9);
}

#[test]
fn fig11_invariants() {
    let r = exp::fig11::run(&tiny()).unwrap();
    assert!(r.rows.len() >= 9);
    for (a, s, c, abstained) in &r.rows {
        assert!(a.abs() <= 90.0);
        assert_eq!(*abstained, 0, "a fault-free run never abstains");
        assert_prob(s.expect("a clean cell has a rate"), "fig11 subcarrier");
        assert_prob(c.expect("a clean cell has a rate"), "fig11 combined");
    }
    assert!(r.gain_large_angles.abs() <= 1.0);
    assert!(r.gain_small_angles.abs() <= 1.0);
}

#[test]
fn ext_hmm_invariants() {
    let r = exp::ext_hmm::run(&tiny()).unwrap();
    assert_prob(r.fp.0, "raw fp");
    assert_prob(r.fp.1, "hmm fp");
    assert_prob(r.tp.0, "raw tp");
    assert_prob(r.tp.1, "hmm tp");
    assert!(r.windows > 0);
    // The extension's purpose: the HMM must not raise the FP rate.
    assert!(
        r.fp.1 <= r.fp.0 + 1e-9,
        "HMM FP {} vs raw {}",
        r.fp.1,
        r.fp.0
    );
}

#[test]
fn ext_sweep_invariants() {
    let r = exp::ext_sweep::run(&tiny()).unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0].channels_probed, 1);
    assert_eq!(r.rows[1].channels_probed, 3);
    assert_eq!(r.rows[2].channels_probed, 1);
    for row in &r.rows {
        assert_prob(row.summary.operating.tp, "sweep tp");
        assert_prob(row.summary.operating.fp, "sweep fp");
        assert!(row.summary.auc.is_finite());
    }
}

#[test]
fn ext_array_invariants() {
    let mut cfg = tiny();
    cfg.episodes_per_position = 1;
    let r = exp::ext_array::run(&cfg).unwrap();
    assert_eq!(r.rows.len(), 4);
    let sizes: Vec<usize> = r.rows.iter().map(|o| o.elements).collect();
    assert_eq!(sizes, vec![3, 4, 6, 8]);
    for o in &r.rows {
        assert!(o.median_angle_error_deg >= 0.0 && o.median_angle_error_deg <= 180.0);
        assert_prob(o.large_angle_tp, "array tp");
    }
}

#[test]
fn ext_ablate_invariants() {
    let r = exp::ext_ablate::run(&tiny()).unwrap();
    assert_eq!(r.rows.len(), 4);
    for row in &r.rows {
        assert_prob(row.summary.operating.tp, "ablate tp");
        assert_prob(row.summary.operating.fp, "ablate fp");
        assert!(row.summary.auc.is_finite());
    }
    assert_eq!(r.rows[0].name, "rssi (wideband power)");
}
