//! The measurable multipath factor `μ_k` (§IV-A1, Eq. 9–11).
//!
//! Per subcarrier `f_k`, `μ_k` is the estimated LOS-power fraction:
//!
//! 1. Approximate the total LOS power by the dominant time-domain tap
//!    `|ĥ(0)|²` (following the paper's refs [11, 21]), computed with a
//!    non-uniform inverse DFT because the Intel 5300 grid has gaps.
//! 2. Split it across subcarriers by the free-space `f⁻²` law (Eq. 10).
//! 3. Divide by the measured per-subcarrier power `|H(f_k)|²` (Eq. 11).
//!
//! Scaling convention: the split is normalized so a perfectly flat
//! (pure-LOS) channel yields `μ_k = 1` on every subcarrier, aligning the
//! estimator with the theoretical `μ` of Eq. 3. The paper's weighting
//! scheme is invariant to this overall scale (weights are normalized),
//! so the convention only affects readability.

use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::contract;
use mpdf_rfmath::dft::nudft_at_delay;
use mpdf_wifi::csi::CsiPacket;

/// Dominant-tap power `|ĥ(0)|²` of one antenna's CFR row.
///
/// `ĥ(0) = (1/K)Σ_k H(f_k)` — the delay-zero tap of the (normalized)
/// inverse non-uniform DFT.
///
/// # Panics
/// Panics if the row and frequency grid lengths differ or are empty.
pub fn dominant_tap_power(csi_row: &[Complex64], freqs_hz: &[f64]) -> f64 {
    nudft_at_delay(csi_row, freqs_hz, 0.0).norm_sqr()
}

/// Per-subcarrier LOS power estimate `P_L(f_k)` (Eq. 10, normalized so a
/// flat channel gives `P_L(f_k) = |ĥ(0)|²` on every subcarrier).
///
/// # Panics
/// Panics if inputs are empty or lengths differ.
pub fn los_power_split(h0_power: f64, freqs_hz: &[f64]) -> Vec<f64> {
    assert!(!freqs_hz.is_empty(), "frequency grid must be non-empty");
    let k = freqs_hz.len() as f64;
    let inv_sq_sum: f64 = freqs_hz.iter().map(|f| f.powi(-2)).sum();
    freqs_hz
        .iter()
        .map(|f| k * f.powi(-2) / inv_sq_sum * h0_power)
        .collect()
}

/// Precomputed per-grid state for the μ_k estimator.
///
/// Eq. 10's LOS split is `P_L(f_k) = (K·f_k⁻²/Σ_j f_j⁻²) · |ĥ(0)|²`:
/// everything left of `|ĥ(0)|²` depends only on the frequency grid, so a
/// monitoring window (25 packets × 3 antennas on the same band plan)
/// recomputed it 75 times. The grid hoists that prefix once; per row the
/// split is one multiply. Factor values are bit-identical to the free
/// functions below — the prefix is the identical left-associated
/// sub-expression of Eq. 10's original formulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MuGrid {
    freqs_hz: Vec<f64>,
    /// `K·f_k⁻²/Σ_j f_j⁻²` per subcarrier.
    split_prefix: Vec<f64>,
}

impl MuGrid {
    /// Precomputes the split prefix for a frequency grid.
    ///
    /// # Panics
    /// Panics if the grid is empty.
    pub fn new(freqs_hz: &[f64]) -> Self {
        assert!(!freqs_hz.is_empty(), "frequency grid must be non-empty");
        let k = freqs_hz.len() as f64;
        let inv_sq_sum: f64 = freqs_hz.iter().map(|f| f.powi(-2)).sum();
        let split_prefix = freqs_hz
            .iter()
            .map(|f| k * f.powi(-2) / inv_sq_sum)
            .collect();
        MuGrid {
            freqs_hz: freqs_hz.to_vec(),
            split_prefix,
        }
    }

    /// The frequency grid the prefix was built for.
    pub fn freqs_hz(&self) -> &[f64] {
        &self.freqs_hz
    }

    /// Multipath factors `μ_k` of one antenna row (Eq. 11), written into
    /// `out` (cleared and refilled) — the allocation-free core of
    /// [`multipath_factors_row`].
    ///
    /// # Panics
    /// Panics if the row length differs from the grid length.
    pub fn row_factors_into(&self, csi_row: &[Complex64], out: &mut Vec<f64>) {
        assert_eq!(
            csi_row.len(),
            self.freqs_hz.len(),
            "CSI row and frequency grid must have equal length"
        );
        let h0 = dominant_tap_power(csi_row, &self.freqs_hz);
        out.clear();
        out.resize(csi_row.len(), 0.0);
        for ((mu, h), &pre) in out.iter_mut().zip(csi_row).zip(&self.split_prefix) {
            let p = pre * h0;
            let power = h.norm_sqr();
            // Divide, then select: the branch-free loop vectorizes, and a
            // dead tone's quotient is discarded, not used.
            let ratio = p / power;
            *mu = if power <= f64::MIN_POSITIVE {
                0.0
            } else {
                ratio
            };
        }
        contract::assert_non_negative("multipath factors μ (row)", out);
    }

    /// Antenna-averaged packet factors (Eq. 11), written into the `out`
    /// slice — the allocation-free core of [`multipath_factors`].
    /// `row_buf` is caller-provided scratch reused across packets.
    ///
    /// # Panics
    /// Panics if the packet's subcarrier count or `out.len()` differs
    /// from the grid length.
    pub fn packet_factors_into(&self, packet: &CsiPacket, row_buf: &mut Vec<f64>, out: &mut [f64]) {
        assert_eq!(
            packet.subcarriers(),
            self.freqs_hz.len(),
            "frequency grid must match packet subcarriers"
        );
        assert_eq!(
            out.len(),
            self.freqs_hz.len(),
            "output length must match the frequency grid"
        );
        for v in out.iter_mut() {
            *v = 0.0;
        }
        for a in 0..packet.antennas() {
            self.row_factors_into(packet.antenna_row(a), row_buf);
            for (slot, &v) in out.iter_mut().zip(row_buf.iter()) {
                *slot += v;
            }
        }
        for v in out.iter_mut() {
            *v /= packet.antennas() as f64;
        }
        contract::assert_non_negative("multipath factors μ (packet)", out);
    }
}

/// Multipath factors `μ_k` for one antenna row (Eq. 11).
///
/// Subcarriers with (numerically) zero power get `μ_k = 0` rather than an
/// infinity — a dead subcarrier carries no usable sensitivity signal.
///
/// # Panics
/// Panics if the row and frequency grid lengths differ or are empty.
pub fn multipath_factors_row(csi_row: &[Complex64], freqs_hz: &[f64]) -> Vec<f64> {
    let grid = MuGrid::new(freqs_hz);
    let mut out = Vec::with_capacity(csi_row.len());
    grid.row_factors_into(csi_row, &mut out);
    out
}

/// Multipath factors for a whole packet, averaged over antennas —
/// the per-packet measurement the weighting scheme consumes (the paper
/// notes μ is "directly measurable at runtime from one packet").
///
/// # Panics
/// Panics if the frequency grid length differs from the packet's
/// subcarrier count.
pub fn multipath_factors(packet: &CsiPacket, freqs_hz: &[f64]) -> Vec<f64> {
    let _stage = mpdf_obs::stage!("core.mu_k");
    let grid = MuGrid::new(freqs_hz);
    let mut out = vec![0.0; packet.subcarriers()];
    let mut row_buf = Vec::with_capacity(packet.subcarriers());
    grid.packet_factors_into(packet, &mut row_buf, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_wifi::band::Band;

    fn band_freqs() -> Vec<f64> {
        Band::wifi_2_4ghz_channel11().frequencies()
    }

    #[test]
    fn flat_channel_has_unit_mu() {
        let freqs = band_freqs();
        let row = vec![Complex64::from_re(2.0); 30];
        let mus = multipath_factors_row(&row, &freqs);
        for (k, &mu) in mus.iter().enumerate() {
            // The f⁻² split leaves a ±0.7 % tilt across the 17.5 MHz band.
            assert!((mu - 1.0).abs() < 0.01, "subcarrier {k}: μ={mu}");
        }
    }

    #[test]
    fn los_split_follows_inverse_square() {
        let freqs = band_freqs();
        let pl = los_power_split(4.0, &freqs);
        // Lower frequency ⇒ more power.
        assert!(pl[0] > pl[29]);
        let ratio = pl[0] / pl[29];
        let expect = (freqs[29] / freqs[0]).powi(2);
        assert!((ratio - expect).abs() < 1e-12);
        // Normalization: mean of the split equals the input power.
        let mean: f64 = pl.iter().sum::<f64>() / 30.0;
        assert!((mean - 4.0).abs() < 1e-9);
    }

    #[test]
    fn destructive_subcarrier_has_large_mu() {
        // Two-path CFR: H(f_k) = 1 + 0.8·e^{-jφ_k} with φ varying across
        // the band. Subcarriers near φ=π (destructive) must show larger μ
        // than those near φ=0 (constructive).
        let freqs = band_freqs();
        let excess = 25.0; // metres — multiple phase wraps across the band
        let row: Vec<Complex64> = freqs
            .iter()
            .map(|&f| {
                let phi =
                    2.0 * std::f64::consts::PI * f * excess / mpdf_propagation::SPEED_OF_LIGHT;
                Complex64::ONE + Complex64::from_polar(0.8, -phi)
            })
            .collect();
        let mus = multipath_factors_row(&row, &freqs);
        let powers: Vec<f64> = row.iter().map(|h| h.norm_sqr()).collect();
        // Find most/least powerful subcarriers.
        let (kmax, _) = powers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        let (kmin, _) = powers
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!(
            mus[kmin] > mus[kmax],
            "destructive subcarrier must have larger μ ({} vs {})",
            mus[kmin],
            mus[kmax]
        );
    }

    #[test]
    fn mu_is_scale_invariant() {
        let freqs = band_freqs();
        let row: Vec<Complex64> = (0..30)
            .map(|i| Complex64::from_polar(1.0 + 0.02 * i as f64, 0.1 * i as f64))
            .collect();
        let scaled: Vec<Complex64> = row.iter().map(|&z| z * 7.0).collect();
        let a = multipath_factors_row(&row, &freqs);
        let b = multipath_factors_row(&scaled, &freqs);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "μ must not depend on AGC scale");
        }
    }

    #[test]
    fn dead_subcarrier_yields_zero() {
        let freqs = band_freqs();
        let mut row = vec![Complex64::ONE; 30];
        row[7] = Complex64::ZERO;
        let mus = multipath_factors_row(&row, &freqs);
        assert_eq!(mus[7], 0.0);
        assert!(mus[8].is_finite());
    }

    #[test]
    fn packet_average_over_antennas() {
        let freqs = band_freqs();
        // Antenna 0 flat ×1, antenna 1 flat ×3: both have μ=1 per
        // subcarrier, so the average is 1.
        let mut data = vec![Complex64::ONE; 60];
        for z in data.iter_mut().skip(30) {
            *z = Complex64::from_re(3.0);
        }
        let p = CsiPacket::new(2, 30, data, 0, 0.0);
        let mus = multipath_factors(&p, &freqs);
        for &mu in &mus {
            assert!((mu - 1.0).abs() < 0.01);
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let _ = multipath_factors_row(&[Complex64::ONE], &[1.0, 2.0]);
    }

    #[test]
    fn grid_factors_are_bitwise_identical_to_direct_formulation() {
        // The hoisted split prefix must not perturb a single bit: it is
        // the same left-associated sub-expression Eq. 10 evaluated
        // per call before the hoist.
        let freqs = band_freqs();
        let grid = MuGrid::new(&freqs);
        let row: Vec<Complex64> = freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let phi = 2.0 * std::f64::consts::PI * f * 11.3 / mpdf_propagation::SPEED_OF_LIGHT;
                Complex64::from_polar(0.9 + 0.01 * i as f64, -phi)
                    + Complex64::from_polar(0.6, 0.37 * i as f64)
            })
            .collect();
        // Row level: grid vs reference split arithmetic.
        let h0 = dominant_tap_power(&row, &freqs);
        let pl = los_power_split(h0, &freqs);
        let mut out = Vec::new();
        grid.row_factors_into(&row, &mut out);
        for (i, (&mu, (h, p))) in out.iter().zip(row.iter().zip(pl)).enumerate() {
            let reference = {
                let power = h.norm_sqr();
                if power <= f64::MIN_POSITIVE {
                    0.0
                } else {
                    p / power
                }
            };
            assert_eq!(mu.to_bits(), reference.to_bits(), "subcarrier {i}");
        }
        // Packet level: buffered path vs the allocating wrapper.
        let mut data = row.clone();
        data.extend(row.iter().map(|&z| z * Complex64::new(0.2, 0.8)));
        let packet = CsiPacket::new(2, 30, data, 0, 0.0);
        let wrapper = multipath_factors(&packet, &freqs);
        let mut row_buf = Vec::new();
        let mut buffered = vec![0.0; 30];
        grid.packet_factors_into(&packet, &mut row_buf, &mut buffered);
        for (i, (a, b)) in wrapper.iter().zip(&buffered).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "subcarrier {i}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The μ ≥ 0 contract wired into `multipath_factors_row`
            /// holds for arbitrary bounded CFRs, including rows with
            /// near-dead subcarriers.
            #[test]
            fn random_rows_yield_finite_nonnegative_mu(
                parts in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 30),
            ) {
                let freqs = band_freqs();
                let row: Vec<Complex64> = parts
                    .iter()
                    .map(|&(re, im)| Complex64::new(re, im))
                    .collect();
                let mus = multipath_factors_row(&row, &freqs);
                prop_assert_eq!(mus.len(), 30);
                prop_assert!(mus.iter().all(|m| m.is_finite() && *m >= 0.0));
            }
        }
    }
}
