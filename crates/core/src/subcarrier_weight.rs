//! Subcarrier weighting (§IV-A2, Eq. 12–15).
//!
//! Subcarriers with consistently large multipath factors are more
//! sensitive to human presence; the weighting scheme boosts them and
//! penalizes unstable or insensitive ones:
//!
//! - Eq. 12 — single-packet weights `|μ_k / Σμ_k|`; the window weights
//!   below replace μ_k with its temporal mean μ̄_k.
//! - Eq. 13/14 — the stability ratio `r_k`: the fraction of packets in
//!   which subcarrier `k`'s factor exceeds that packet's median factor.
//! - Eq. 15 — combined weights `|μ̄_k·r_k / (Σμ̄ · Σr)|` applied to the
//!   per-subcarrier RSS changes `Δs(f_k)`.

use mpdf_rfmath::contract;
use mpdf_rfmath::stats::median_with;
use mpdf_wifi::band::Band;
use mpdf_wifi::csi::CsiPacket;

use crate::multipath_factor::{MuGrid, MuScratch};

/// Multi-packet subcarrier weights (Eq. 13–15).
#[derive(Debug, Clone, PartialEq)]
pub struct SubcarrierWeights {
    /// Temporal mean multipath factor `μ̄_k` (winsorized at
    /// [`SubcarrierWeights::MU_CLIP`]).
    pub mean_mu: Vec<f64>,
    /// Stability ratio `r_k ∈ [0, 1]`.
    pub stability: Vec<f64>,
    /// Final combined weights (Eq. 15's multiplier per subcarrier).
    pub weights: Vec<f64>,
}

impl SubcarrierWeights {
    /// Winsorization bound on per-packet multipath factors. A deep-faded
    /// subcarrier has `|H|² ≈ 0` in Eq. 11's denominator, so one noisy
    /// packet can report `μ` in the hundreds and hijack the temporal
    /// mean `μ̄_k`. Physically meaningful factors stay below ~10 (total
    /// destructive superposition of comparable paths); everything above
    /// is clipped before aggregation.
    pub const MU_CLIP: f64 = 10.0;

    /// Computes the weights from the multipath factors of `M` packets
    /// (one `Vec<f64>` per packet).
    ///
    /// # Panics
    /// Panics when `per_packet_mus` is empty or rows have differing
    /// lengths.
    pub fn from_factors(per_packet_mus: &[Vec<f64>]) -> Self {
        assert!(!per_packet_mus.is_empty(), "need at least one packet");
        let k = per_packet_mus[0].len();
        assert!(
            per_packet_mus.iter().all(|m| m.len() == k),
            "all packets must report the same subcarrier count"
        );
        let flat: Vec<f64> = per_packet_mus
            .iter()
            .flat_map(|row| row.iter().copied())
            .collect();
        SubcarrierWeights::from_flat_factors(&flat, k)
    }

    /// Computes the weights from a flat row-major `[packet][subcarrier]`
    /// factor buffer — the allocation-lean core of
    /// [`SubcarrierWeights::from_factors`], fed directly by the hot
    /// monitoring path so a 25-packet window fills one contiguous buffer
    /// instead of 25 per-packet `Vec`s.
    ///
    /// A zero `subcarriers` count yields the empty weight set (matching
    /// the degenerate behaviour of the row-of-empty-rows input).
    ///
    /// # Panics
    /// Panics when `flat` is empty (with `subcarriers > 0`) or is not a
    /// whole number of packets.
    pub fn from_flat_factors(flat: &[f64], subcarriers: usize) -> Self {
        if subcarriers == 0 {
            return SubcarrierWeights {
                mean_mu: Vec::new(),
                stability: Vec::new(),
                weights: Vec::new(),
            };
        }
        assert!(!flat.is_empty(), "need at least one packet");
        assert_eq!(
            flat.len() % subcarriers,
            0,
            "flat factors must hold whole packets"
        );
        let k = subcarriers;
        let m_count = (flat.len() / k) as f64;

        // Eq. 13/14: per-packet medians and exceedance counts.
        let mut mean_mu = vec![0.0; k];
        let mut exceed = vec![0usize; k];
        let mut keys = Vec::with_capacity(k);
        for mus in flat.chunks_exact(k) {
            let med = median_with(mus, &mut keys);
            for ((mean, count), &mu) in mean_mu.iter_mut().zip(&mut exceed).zip(mus) {
                *mean += mu.min(Self::MU_CLIP);
                *count += usize::from(mu > med);
            }
        }
        for v in &mut mean_mu {
            *v /= m_count;
        }
        let stability: Vec<f64> = exceed.iter().map(|&c| c as f64 / m_count).collect();

        // Eq. 15 normalizer.
        let sum_mu: f64 = mean_mu.iter().sum();
        let sum_r: f64 = stability.iter().sum();
        let denom = sum_mu * sum_r;
        let weights = if denom.abs() <= f64::MIN_POSITIVE {
            vec![1.0 / k as f64; k]
        } else {
            mean_mu
                .iter()
                .zip(&stability)
                .map(|(&mu, &r)| (mu * r / denom).abs())
                .collect()
        };
        contract::assert_non_negative("temporal mean μ̄", &mean_mu);
        contract::assert_unit_interval("stability ratio r (Eq. 14)", &stability);
        contract::assert_non_negative("combined weights (Eq. 15)", &weights);
        SubcarrierWeights {
            mean_mu,
            stability,
            weights,
        }
    }

    /// Computes the weights directly from a window of CSI packets as
    /// captured (the μ_k estimator phase-calibrates each packet).
    ///
    /// # Panics
    /// Panics when the window is empty or the band mismatches.
    pub fn from_packets(window: &[CsiPacket], band: &Band) -> Self {
        SubcarrierWeights::from_packets_on(window, &MuGrid::new(band))
    }

    /// [`SubcarrierWeights::from_packets`] on a prebuilt μ_k grid.
    ///
    /// # Panics
    /// Panics when the window is empty or the grid mismatches.
    pub fn from_packets_on(window: &[CsiPacket], grid: &MuGrid) -> Self {
        let _stage = mpdf_obs::stage!("core.subcarrier_weight");
        assert!(!window.is_empty(), "need at least one packet");
        let k = grid.freqs_hz().len();
        let mut flat = vec![0.0; window.len() * k];
        let mut scratch = MuScratch::default();
        {
            // One μ_k stage per window: the per-packet loop is too hot
            // for per-call spans, but the phase still shows up in traces.
            let _mu_stage = mpdf_obs::stage!("core.mu_k");
            for (p, seg) in window.iter().zip(flat.chunks_exact_mut(k)) {
                grid.packet_factors_into(p, &mut scratch, seg);
            }
        }
        SubcarrierWeights::from_flat_factors(&flat, k)
    }

    /// Number of subcarriers.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when no subcarriers are present (cannot happen via
    /// constructors, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Applies the weights to per-subcarrier RSS changes (Eq. 15's
    /// `Δs̃(f_k) = w_k · Δs(f_k)`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn apply(&self, delta_s: &[f64]) -> Vec<f64> {
        assert_eq!(
            delta_s.len(),
            self.weights.len(),
            "Δs length must match weights"
        );
        delta_s
            .iter()
            .zip(&self.weights)
            .map(|(&d, &w)| w * d)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_ratio_counts_median_exceedances() {
        // 3 subcarriers, 4 packets. Subcarrier 2 always above the median,
        // subcarrier 0 never.
        let mus = vec![
            vec![0.1, 1.0, 2.0],
            vec![0.2, 1.1, 2.2],
            vec![0.1, 0.9, 1.9],
            vec![0.3, 1.2, 2.5],
        ];
        let w = SubcarrierWeights::from_factors(&mus);
        assert_eq!(w.stability[0], 0.0);
        assert_eq!(w.stability[1], 0.0); // equals median ⇒ not greater
        assert_eq!(w.stability[2], 1.0);
        // Mean μ per subcarrier.
        assert!((w.mean_mu[2] - 2.15).abs() < 1e-12);
        // Weight concentrates on the stable, large-μ subcarrier.
        let max_w = w.weights.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(w.weights[2], max_w);
    }

    #[test]
    fn unstable_subcarrier_is_penalized_vs_mean_only() {
        // Two subcarriers with the same temporal mean μ, but one flips
        // above/below the median while the other stays high (the Fig. 4
        // scenario). Weighting must prefer the stable one.
        // Use 4 subcarriers so the median is defined by the others.
        let mus = vec![
            vec![3.0, 0.5, 1.0, 1.2], // sc0 high, sc1 low
            vec![0.2, 3.3, 1.0, 1.2], // sc0 low, sc1 high
            vec![3.0, 0.5, 1.0, 1.2],
            vec![3.0, 0.5, 1.0, 1.2],
        ];
        // sc0 mean = 2.3 exceeds median in 3/4 packets; sc1 mean = 1.2
        // exceeds in 1/4.
        let w = SubcarrierWeights::from_factors(&mus);
        assert!(w.stability[0] > w.stability[1]);
        assert!(w.weights[0] > w.weights[1]);
    }

    #[test]
    fn weights_are_nonnegative_and_apply_elementwise() {
        let mus = vec![vec![1.0, 2.0, 0.5], vec![1.5, 1.8, 0.7]];
        let w = SubcarrierWeights::from_factors(&mus);
        assert!(w.weights.iter().all(|&x| x >= 0.0));
        let ds = vec![-3.0, 5.0, 1.0];
        let weighted = w.apply(&ds);
        for i in 0..3 {
            assert!((weighted[i] - w.weights[i] * ds[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_all_zero_factors_fall_back_to_uniform() {
        let mus = vec![vec![0.0, 0.0, 0.0]];
        let w = SubcarrierWeights::from_factors(&mus);
        for &x in &w.weights {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn from_packets_smoke() {
        use mpdf_rfmath::complex::Complex64;
        let band = Band::wifi_2_4ghz_channel11();
        let data = vec![Complex64::ONE; 3 * 30];
        let packets = vec![
            CsiPacket::new(3, 30, data.clone(), 0, 0.0),
            CsiPacket::new(3, 30, data, 1, 0.02),
        ];
        let w = SubcarrierWeights::from_packets(&packets, &band);
        assert_eq!(w.len(), 30);
        assert!(!w.is_empty());
        assert!(w.weights.iter().all(|&x| x.is_finite() && x >= 0.0));
        // On a flat channel the f⁻² split makes lower-frequency
        // subcarriers report slightly larger μ, so they cannot be
        // weighted below the upper ones.
        assert!(w.weights[0] >= w.weights[29]);
    }

    #[test]
    fn flat_factors_match_nested_factors_bitwise() {
        let mus = vec![
            vec![0.17, 1.01, 2.3, 0.9],
            vec![0.21, 1.13, 2.2, 1.4],
            vec![0.14, 0.92, 1.9, 0.8],
        ];
        let nested = SubcarrierWeights::from_factors(&mus);
        let flat: Vec<f64> = mus.iter().flatten().copied().collect();
        let flattened = SubcarrierWeights::from_flat_factors(&flat, 4);
        assert_eq!(nested, flattened);
        for (a, b) in nested.weights.iter().zip(&flattened.weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn zero_subcarriers_yield_empty_weights() {
        let w = SubcarrierWeights::from_flat_factors(&[], 0);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "whole packets")]
    fn partial_flat_packet_panics() {
        let _ = SubcarrierWeights::from_flat_factors(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn empty_window_panics() {
        let _ = SubcarrierWeights::from_factors(&[]);
    }

    #[test]
    #[should_panic(expected = "same subcarrier count")]
    fn ragged_factors_panic() {
        let _ = SubcarrierWeights::from_factors(&[vec![1.0], vec![1.0, 2.0]]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Random non-negative factor windows satisfy the contracts
            /// wired into the constructor: r_k ∈ [0, 1], Eq. 15 weights
            /// finite non-negative.
            #[test]
            fn random_windows_satisfy_weight_contracts(
                vals in proptest::collection::vec(0.0f64..20.0, 24),
                m in 1usize..5,
            ) {
                let k = 24 / m; // m ∈ {1,2,3,4} all divide 24
                let window: Vec<Vec<f64>> =
                    vals.chunks(k).take(m).map(<[f64]>::to_vec).collect();
                let w = SubcarrierWeights::from_factors(&window);
                prop_assert!(w.stability.iter().all(|r| (0.0..=1.0).contains(r)));
                prop_assert!(w.weights.iter().all(|x| x.is_finite() && *x >= 0.0));
            }
        }
    }
}
