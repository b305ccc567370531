//! Moving-variance detection for mobile targets.
//!
//! §III notes that device-free schemes use the *mean* RSS change for
//! stationary targets and the *variance* for mobile ones (\[18\]). This
//! module implements the variance feature as an extension: a person
//! walking through the area churns the multipath superposition and
//! inflates short-window RSS variance even when the mean change nets out.

use mpdf_rfmath::stats::variance;
use mpdf_wifi::csi::CsiPacket;

/// Mean per-subcarrier RSS variance (dB²) within a packet window — the
/// motion feature.
///
/// # Panics
/// Panics if the window is empty or shapes disagree.
pub fn motion_score(window: &[CsiPacket]) -> f64 {
    assert!(!window.is_empty(), "window must be non-empty");
    let subcarriers = window[0].subcarriers();
    assert!(
        window.iter().all(|p| p.subcarriers() == subcarriers),
        "packets must share shape"
    );
    let mut total = 0.0;
    for k in 0..subcarriers {
        let series: Vec<f64> = window
            .iter()
            .map(|p| {
                let rss = p.rss_db_per_subcarrier();
                rss[k]
            })
            .collect();
        total += variance(&series);
    }
    total / subcarriers as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_rfmath::complex::Complex64;

    fn steady_packets(n: usize) -> Vec<CsiPacket> {
        (0..n)
            .map(|i| {
                let data = vec![Complex64::from_re(1.0); 90];
                CsiPacket::new(3, 30, data, i as u64, 0.0)
            })
            .collect()
    }

    fn churning_packets(n: usize) -> Vec<CsiPacket> {
        (0..n)
            .map(|i| {
                let amp = 1.0 + 0.5 * (i as f64 * 1.3).sin();
                let data = vec![Complex64::from_re(amp); 90];
                CsiPacket::new(3, 30, data, i as u64, 0.0)
            })
            .collect()
    }

    #[test]
    fn steady_scene_scores_zero() {
        assert!(motion_score(&steady_packets(20)) < 1e-12);
    }

    #[test]
    fn churn_scores_high() {
        let s = motion_score(&churning_packets(20));
        assert!(s > 1.0, "churn score {s}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_panics() {
        motion_score(&[]);
    }
}
