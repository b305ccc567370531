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
//!
//! Phase calibration: `ĥ(0)` is the one quantity of the detector that
//! reads CSI phase across subcarriers, so the packet-level estimator
//! owns the paper's linear-phase fit ("as in \[26\]", §IV-C): it fits
//! each packet as captured ([`estimate_linear_phase_with`]) and forms
//! `ĥ(0)` and `|H(f_k)|²` from the rotated samples `h·rot_k` in a row
//! buffer. Packets themselves are never rewritten; the factors are
//! bitwise those of the sanitized copy ([`mpdf_wifi::sanitize`]).

use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::contract;
use mpdf_rfmath::dft::nudft_at_delay;
use mpdf_wifi::band::Band;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::sanitize::{estimate_linear_phase_with, SanitizeScratch};

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
    split_prefix(freqs_hz)
        .into_iter()
        .map(|pre| pre * h0_power)
        .collect()
}

/// Everything of Eq. 10's split left of `|ĥ(0)|²`: `K·f_k⁻²/Σ_j f_j⁻²`
/// per subcarrier.
///
/// # Panics
/// Panics if the grid is empty.
fn split_prefix(freqs_hz: &[f64]) -> Vec<f64> {
    assert!(!freqs_hz.is_empty(), "frequency grid must be non-empty");
    let k = freqs_hz.len() as f64;
    let inv_sq_sum: f64 = freqs_hz.iter().map(|f| f.powi(-2)).sum();
    freqs_hz
        .iter()
        .map(|f| k * f.powi(-2) / inv_sq_sum)
        .collect()
}

/// Multipath factors `μ_k` of one antenna row (Eq. 11) under a
/// precomputed split prefix, written into `out` (cleared and refilled).
///
/// # Panics
/// Panics if the row length differs from the grid length.
fn row_factors_into(
    csi_row: &[Complex64],
    freqs_hz: &[f64],
    split_prefix: &[f64],
    out: &mut Vec<f64>,
) {
    assert_eq!(
        csi_row.len(),
        freqs_hz.len(),
        "CSI row and frequency grid must have equal length"
    );
    let h0 = dominant_tap_power(csi_row, freqs_hz);
    out.clear();
    out.resize(csi_row.len(), 0.0);
    for ((mu, h), &pre) in out.iter_mut().zip(csi_row).zip(split_prefix) {
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

/// Precomputed per-band state for the μ_k estimator.
///
/// Eq. 10's LOS split is `P_L(f_k) = (K·f_k⁻²/Σ_j f_j⁻²) · |ĥ(0)|²`:
/// everything left of `|ĥ(0)|²` depends only on the frequency grid, so a
/// monitoring window (25 packets × 3 antennas on the same band plan)
/// recomputed it 75 times. The grid hoists that prefix once; per row the
/// split is one multiply. Factor values are bit-identical to the free
/// functions below — the prefix is the identical left-associated
/// sub-expression of Eq. 10's original formulation. The band's OFDM
/// indices are the abscissa of the per-packet linear-phase fit.
#[derive(Debug, Clone, PartialEq)]
pub struct MuGrid {
    indices: Vec<i32>,
    freqs_hz: Vec<f64>,
    /// `K·f_k⁻²/Σ_j f_j⁻²` per subcarrier.
    split_prefix: Vec<f64>,
}

/// Reusable buffers of the per-packet μ_k pass (the phase fit's, the
/// rotor `e^{-j(slope·idx_k + intercept)}`, one rotated antenna row and
/// its factors), carried across the packets a grid scores.
#[derive(Debug, Clone, Default)]
pub struct MuScratch {
    fit: SanitizeScratch,
    rots: Vec<Complex64>,
    row: Vec<Complex64>,
    mus: Vec<f64>,
}

impl MuGrid {
    /// Precomputes the split prefix for a band plan.
    ///
    /// # Panics
    /// Panics if the band has no subcarriers.
    pub fn new(band: &Band) -> Self {
        let freqs_hz = band.frequencies();
        MuGrid {
            indices: band.indices().to_vec(),
            split_prefix: split_prefix(&freqs_hz),
            freqs_hz,
        }
    }

    /// The frequency grid the prefix was built for.
    pub fn freqs_hz(&self) -> &[f64] {
        &self.freqs_hz
    }

    /// Antenna-averaged packet factors (Eq. 11) of a packet as captured,
    /// written into the `out` slice — the allocation-free core of
    /// [`multipath_factors`]. The packet's linear phase is fitted and
    /// its rotor applied to each antenna row in `scratch`, so the
    /// factors are bitwise those of the packet's sanitized copy.
    ///
    /// # Panics
    /// Panics if the packet's subcarrier count or `out.len()` differs
    /// from the grid length.
    pub fn packet_factors_into(
        &self,
        packet: &CsiPacket,
        scratch: &mut MuScratch,
        out: &mut [f64],
    ) {
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
        let corr = estimate_linear_phase_with(&mut scratch.fit, packet, &self.indices);
        // The rotor depends only on the subcarrier index: one `cis` per
        // tone, shared by every antenna.
        scratch.rots.clear();
        scratch.rots.extend(
            self.indices
                .iter()
                .map(|&idx| Complex64::cis(-(corr.slope * idx as f64 + corr.intercept))),
        );
        out.fill(0.0);
        scratch.row.resize(self.indices.len(), Complex64::ZERO);
        for a in 0..packet.antennas() {
            let rotated = scratch
                .row
                .iter_mut()
                .zip(packet.antenna_row(a))
                .zip(&scratch.rots);
            for ((slot, &h), &rot) in rotated {
                *slot = h * rot;
            }
            row_factors_into(
                &scratch.row,
                &self.freqs_hz,
                &self.split_prefix,
                &mut scratch.mus,
            );
            for (slot, &v) in out.iter_mut().zip(&scratch.mus) {
                *slot += v;
            }
        }
        for v in out.iter_mut() {
            *v /= packet.antennas() as f64;
        }
        contract::assert_non_negative("multipath factors μ (packet)", out);
    }
}

/// Multipath factors `μ_k` for one antenna row (Eq. 11), taken as given:
/// a single row carries no packet-wide phase fit, so a caller with raw
/// CSI reads [`multipath_factors`].
///
/// Subcarriers with (numerically) zero power get `μ_k = 0` rather than an
/// infinity — a dead subcarrier carries no usable sensitivity signal.
///
/// # Panics
/// Panics if the row and frequency grid lengths differ or are empty.
pub fn multipath_factors_row(csi_row: &[Complex64], freqs_hz: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(csi_row.len());
    row_factors_into(csi_row, freqs_hz, &split_prefix(freqs_hz), &mut out);
    out
}

/// Multipath factors for a whole packet as captured, phase-calibrated
/// and averaged over antennas — the per-packet measurement the weighting
/// scheme consumes (the paper notes μ is "directly measurable at runtime
/// from one packet").
///
/// # Panics
/// Panics if the band's subcarrier count differs from the packet's.
pub fn multipath_factors(packet: &CsiPacket, band: &Band) -> Vec<f64> {
    let _stage = mpdf_obs::stage!("core.mu_k");
    let mut out = vec![0.0; packet.subcarriers()];
    MuGrid::new(band).packet_factors_into(packet, &mut MuScratch::default(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_wifi::sanitize::sanitize_packet;

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
        // Antenna 0 flat ×1, antenna 1 flat ×3: both have μ=1 per
        // subcarrier, so the average is 1.
        let mut data = vec![Complex64::ONE; 60];
        for z in data.iter_mut().skip(30) {
            *z = Complex64::from_re(3.0);
        }
        let p = CsiPacket::new(2, 30, data, 0, 0.0);
        let mus = multipath_factors(&p, &Band::wifi_2_4ghz_channel11());
        for &mu in &mus {
            assert!((mu - 1.0).abs() < 0.01);
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn length_mismatch_panics() {
        let _ = multipath_factors_row(&[Complex64::ONE], &[1.0, 2.0]);
    }

    /// Eq. 10–11 per row as first written: the allocating split, then
    /// `P_L/|H|²` with dead tones at zero.
    fn direct_row_factors(row: &[Complex64], freqs: &[f64]) -> Vec<f64> {
        let pl = los_power_split(dominant_tap_power(row, freqs), freqs);
        row.iter()
            .zip(pl)
            .map(|(h, p)| {
                let power = h.norm_sqr();
                if power <= f64::MIN_POSITIVE {
                    0.0
                } else {
                    p / power
                }
            })
            .collect()
    }

    #[test]
    fn grid_factors_are_bitwise_identical_to_direct_formulation() {
        // The hoisted split prefix and the in-estimator phase fit must not
        // perturb a single bit: the prefix is the same left-associated
        // sub-expression Eq. 10 evaluated per call before the hoist, and
        // the rotor is the one `sanitize_packet` applies.
        let band = Band::wifi_2_4ghz_channel11();
        let freqs = band.frequencies();
        let grid = MuGrid::new(&band);
        let row: Vec<Complex64> = freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let phi = 2.0 * std::f64::consts::PI * f * 11.3 / mpdf_propagation::SPEED_OF_LIGHT;
                Complex64::from_polar(0.9 + 0.01 * i as f64, -phi)
                    + Complex64::from_polar(0.6, 0.37 * i as f64)
            })
            .collect();
        // Row level: hoisted prefix vs reference split arithmetic.
        let direct = direct_row_factors(&row, &freqs);
        for (i, (mu, reference)) in multipath_factors_row(&row, &freqs)
            .iter()
            .zip(&direct)
            .enumerate()
        {
            assert_eq!(mu.to_bits(), reference.to_bits(), "subcarrier {i}");
        }
        // Packet level, as captured and with an injected slope and
        // intercept: grid vs the direct formulation on the sanitized copy.
        let mut data = row.clone();
        data.extend(row.iter().map(|&z| z * Complex64::new(0.2, 0.8)));
        let flat = CsiPacket::new(2, 30, data, 0, 0.0);
        let tilted = CsiPacket::new(
            2,
            30,
            (0..2)
                .flat_map(|a| {
                    let flat = &flat;
                    band.indices().iter().enumerate().map(move |(k, &idx)| {
                        flat.get(a, k) * Complex64::cis(0.043 * f64::from(idx) - 1.7)
                    })
                })
                .collect(),
            1,
            0.0,
        );
        let mut scratch = MuScratch::default();
        for (n, packet) in [flat, tilted].into_iter().enumerate() {
            let mut sanitized = packet.clone();
            sanitize_packet(&mut sanitized, band.indices());
            let mut reference = vec![0.0; 30];
            for a in 0..2 {
                for (slot, v) in reference
                    .iter_mut()
                    .zip(direct_row_factors(sanitized.antenna_row(a), &freqs))
                {
                    *slot += v;
                }
            }
            for v in &mut reference {
                *v /= 2.0;
            }
            let mut buffered = vec![0.0; 30];
            grid.packet_factors_into(&packet, &mut scratch, &mut buffered);
            let wrapper = multipath_factors(&packet, &band);
            for (i, ((a, b), r)) in buffered.iter().zip(&wrapper).zip(&reference).enumerate() {
                assert_eq!(a.to_bits(), r.to_bits(), "packet {n}, subcarrier {i}");
                assert_eq!(b.to_bits(), r.to_bits(), "packet {n}, subcarrier {i}");
            }
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
