//! CSI phase sanitization.
//!
//! Raw CSI phase is useless directly: each packet carries a random common
//! offset (CFO / detection delay) and a linear-in-frequency slope (SFO).
//! The paper calibrates raw CSI "as in \[26\]" (§IV-C) — fit and remove the
//! linear phase trend across subcarriers.
//!
//! Crucially, the fit is computed **once per packet** (on the
//! antenna-averaged phase) and the *same* correction is applied to every
//! antenna: the impairments are common-oscillator artefacts, so a shared
//! correction preserves the inter-antenna phase differences MUSIC needs.
//!
//! That shared rotor leaves amplitudes, powers and every per-subcarrier
//! covariance `Σ u·uᴴ` unchanged, so the one quantity it matters to is
//! the dominant tap `|ĥ(0)|²` of the μ_k estimator (Eq. 10). That
//! estimator (`mpdf_core::multipath_factor`) therefore runs its own fit,
//! on packets as captured, with batched phase angles and a rotor built
//! from one phasor; nothing in the pipeline rotates packets. The fit
//! here, on `f64::atan2` and one `cis` per tone, is its test oracle.

use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::fit::linear_trend;

use crate::csi::CsiPacket;

/// Unwraps a phase sequence so consecutive samples never jump more than
/// π, writing into `out` (cleared and refilled).
pub fn unwrap_phases_into(phases: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let mut offset = 0.0;
    for (i, &p) in phases.iter().enumerate() {
        if i == 0 {
            out.push(p);
            continue;
        }
        let prev = out[i - 1];
        let mut candidate = p + offset;
        while candidate - prev > std::f64::consts::PI {
            candidate -= std::f64::consts::TAU;
            offset -= std::f64::consts::TAU;
        }
        while candidate - prev < -std::f64::consts::PI {
            candidate += std::f64::consts::TAU;
            offset += std::f64::consts::TAU;
        }
        out.push(candidate);
    }
}

/// Unwraps a phase sequence so consecutive samples never jump more than π.
pub fn unwrap_phases(phases: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(phases.len());
    unwrap_phases_into(phases, &mut out);
    out
}

/// The linear phase correction estimated from one packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCorrection {
    /// Phase slope per subcarrier-index unit.
    pub slope: f64,
    /// Phase intercept at index 0.
    pub intercept: f64,
}

/// Estimates the linear phase trend of a packet across subcarriers.
///
/// The per-subcarrier phase is taken from the *sum over antennas* of the
/// CSI (equivalent to an SNR-weighted average), unwrapped, then fit by
/// least squares against the OFDM indices.
///
/// # Panics
/// Panics if the index list length differs from the packet's subcarrier
/// count.
pub fn estimate_linear_phase(packet: &CsiPacket, indices: &[i32]) -> PhaseCorrection {
    assert_eq!(
        indices.len(),
        packet.subcarriers(),
        "index list must match packet subcarriers"
    );
    let mut sums = vec![Complex64::ZERO; packet.subcarriers()];
    for a in 0..packet.antennas() {
        for (s, &h) in sums.iter_mut().zip(packet.antenna_row(a)) {
            *s += h;
        }
    }
    let phases: Vec<f64> = sums.iter().map(|s| s.arg()).collect();
    let xs: Vec<f64> = indices.iter().map(|&i| f64::from(i)).collect();
    let (slope, intercept) = linear_trend(&xs, &unwrap_phases(&phases)).unwrap_or((0.0, 0.0));
    PhaseCorrection { slope, intercept }
}

/// Removes the estimated linear phase from every antenna of a packet,
/// in place, and returns the applied correction.
///
/// No pipeline stage rewrites packets: the μ_k estimator
/// (`mpdf_core::multipath_factor`) fits and applies the same rotor
/// itself, and every other quantity the detector reads is invariant to
/// it. Its factors are within 1e-12 (relative) of those of this
/// sanitized copy.
///
/// # Panics
/// Panics if the index list length differs from the packet's subcarrier
/// count.
pub fn sanitize_packet(packet: &mut CsiPacket, indices: &[i32]) -> PhaseCorrection {
    let corr = estimate_linear_phase(packet, indices);
    for a in 0..packet.antennas() {
        for (h, &idx) in packet.antenna_row_mut(a).iter_mut().zip(indices) {
            *h *= Complex64::cis(-(corr.slope * idx as f64 + corr.intercept));
        }
    }
    corr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::INTEL5300_SUBCARRIER_INDICES;

    fn packet_with_linear_phase(slope: f64, intercept: f64) -> CsiPacket {
        let data: Vec<Complex64> = (0..3)
            .flat_map(|a| {
                INTEL5300_SUBCARRIER_INDICES.iter().map(move |&idx| {
                    // Distinct inter-antenna phase (0.3·a) rides on top.
                    Complex64::from_polar(2.0, slope * idx as f64 + intercept + 0.3 * a as f64)
                })
            })
            .collect();
        CsiPacket::new(3, 30, data, 0, 0.0)
    }

    #[test]
    fn unwrap_handles_jumps() {
        let phases = vec![3.0, -3.0, 2.9, -3.1];
        let un = unwrap_phases(&phases);
        for w in un.windows(2) {
            assert!((w[1] - w[0]).abs() <= std::f64::consts::PI + 1e-9);
        }
        // First sample untouched.
        assert_eq!(un[0], 3.0);
    }

    #[test]
    fn unwrap_of_smooth_sequence_is_identity() {
        let phases: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        assert_eq!(unwrap_phases(&phases), phases);
    }

    #[test]
    fn estimates_injected_slope_and_intercept() {
        let p = packet_with_linear_phase(0.04, 0.9);
        let corr = estimate_linear_phase(&p, &INTEL5300_SUBCARRIER_INDICES);
        assert!((corr.slope - 0.04).abs() < 1e-9, "slope {}", corr.slope);
        // Intercept absorbs the mean inter-antenna term (0.3 avg).
        assert!((corr.intercept - (0.9 + 0.3)).abs() < 0.05);
    }

    #[test]
    fn sanitize_flattens_phase_but_keeps_antenna_differences() {
        let mut p = packet_with_linear_phase(-0.07, 2.0);
        sanitize_packet(&mut p, &INTEL5300_SUBCARRIER_INDICES);
        // Residual phase across subcarriers of one antenna is flat.
        let phases: Vec<f64> = (0..30).map(|k| p.get(0, k).arg()).collect();
        let spread = phases.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - phases.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e-6, "phase spread {spread}");
        // Inter-antenna differences preserved exactly.
        for k in 0..30 {
            let d01 = (p.get(1, k) * p.get(0, k).conj()).arg();
            assert!((d01 - 0.3).abs() < 1e-9);
        }
        // Amplitudes untouched.
        for k in 0..30 {
            assert!((p.get(2, k).norm() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sanitize_is_idempotent() {
        let mut p = packet_with_linear_phase(0.03, -1.0);
        sanitize_packet(&mut p, &INTEL5300_SUBCARRIER_INDICES);
        let first = p.clone();
        let corr2 = sanitize_packet(&mut p, &INTEL5300_SUBCARRIER_INDICES);
        assert!(corr2.slope.abs() < 1e-9);
        for a in 0..3 {
            for k in 0..30 {
                assert!((p.get(a, k) - first.get(a, k)).norm() < 1e-9);
            }
        }
    }

    #[test]
    fn flat_phase_needs_no_correction() {
        let mut p = packet_with_linear_phase(0.0, 0.0);
        let corr = sanitize_packet(&mut p, &INTEL5300_SUBCARRIER_INDICES);
        assert!(corr.slope.abs() < 1e-9);
    }
}
