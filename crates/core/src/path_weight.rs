//! Path weighting (§IV-B2, Eq. 17).
//!
//! The static angular pseudospectrum `Ps(θ)` concentrates power at the LOS
//! direction; reflected (NLOS) directions sit orders lower. Because a
//! single detection threshold applies everywhere, human impacts arriving
//! along NLOS angles drown. The path weights boost them:
//!
//! `w(θ) = 1/Ps(θ)` for `θ_min < θ < θ_max`, `0` otherwise,
//!
//! with the paper's fixed angular gate `(θ_min, θ_max) = (−60°, 60°)`
//! excluding the error-prone large-angle region of a short linear array.

use mpdf_music::music::Pseudospectrum;

/// Angular weights derived from a calibration pseudospectrum.
#[derive(Debug, Clone, PartialEq)]
pub struct PathWeights {
    angles_deg: Vec<f64>,
    weights: Vec<f64>,
}

impl PathWeights {
    /// Lower edge `θ_min` of the paper's angular gate (§IV-B2), exclusive.
    pub const THETA_MIN_DEG: f64 = -60.0;
    /// Upper edge `θ_max` of the paper's angular gate, exclusive.
    pub const THETA_MAX_DEG: f64 = 60.0;
    /// Cap on the inverse-spectrum weights. MUSIC pseudospectra have
    /// deep, noisy nulls; an uncapped `1/Ps(θ)` amplifies exactly the
    /// angles where the estimate is least reliable (the same reliability
    /// concern that motivates the paper's angular gate).
    pub const WEIGHT_CAP: f64 = 30.0;

    /// Builds the Eq. 17 weights from the static-environment
    /// pseudospectrum: normalized `1/Ps(θ)` strictly inside the gate,
    /// capped at [`PathWeights::WEIGHT_CAP`], and 0 outside.
    pub fn from_static_spectrum(spectrum: &Pseudospectrum) -> Self {
        let _stage = mpdf_obs::stage!("core.path_weight");
        // Normalize first so weights are invariant to the pseudospectrum's
        // arbitrary scale.
        let norm = spectrum.normalized();
        let weights = norm
            .angles_deg()
            .iter()
            .zip(norm.values())
            .map(|(&deg, &v)| {
                if deg > Self::THETA_MIN_DEG && deg < Self::THETA_MAX_DEG {
                    (1.0 / v.max(1e-9)).min(Self::WEIGHT_CAP)
                } else {
                    0.0
                }
            })
            .collect();
        PathWeights {
            angles_deg: norm.angles_deg().to_vec(),
            weights,
        }
    }

    /// The angular grid the weights live on (degrees).
    pub fn angles_deg(&self) -> &[f64] {
        &self.angles_deg
    }

    /// The weight values (zero outside the gate).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spectrum_with_peak() -> Pseudospectrum {
        // Peak at 0° (LOS), secondary bump at 40°, floor elsewhere.
        let angles: Vec<f64> = (-90..=90).map(|a| a as f64).collect();
        let values = angles
            .iter()
            .map(|&a| {
                let main = 10.0 * (-((a - 0.0) / 6.0_f64).powi(2)).exp();
                let side = 2.0 * (-((a - 40.0) / 6.0_f64).powi(2)).exp();
                0.05 + main + side
            })
            .collect();
        Pseudospectrum::new(angles, values)
    }

    #[test]
    fn weights_invert_the_spectrum_inside_gate() {
        let spec = spectrum_with_peak();
        let w = PathWeights::from_static_spectrum(&spec);
        // The LOS direction (strongest) receives the smallest non-zero
        // weight inside the gate.
        let w_at = |deg: f64| {
            let idx = w
                .angles_deg()
                .iter()
                .position(|&a| (a - deg).abs() < 1e-9)
                .unwrap();
            w.weights()[idx]
        };
        assert!(w_at(0.0) < w_at(40.0));
        assert!(w_at(40.0) < w_at(55.0));
    }

    #[test]
    fn gate_zeroes_out_of_range_angles() {
        let spec = spectrum_with_peak();
        let w = PathWeights::from_static_spectrum(&spec);
        for (&a, &wt) in w.angles_deg().iter().zip(w.weights()) {
            if a <= -60.0 || a >= 60.0 {
                assert_eq!(wt, 0.0, "angle {a} must be gated out");
            } else {
                assert!(wt > 0.0, "angle {a} must be weighted");
            }
        }
    }

    #[test]
    fn weights_are_scale_invariant() {
        let spec = spectrum_with_peak();
        let scaled = Pseudospectrum::new(
            spec.angles_deg().to_vec(),
            spec.values().iter().map(|v| v * 123.0).collect(),
        );
        let w1 = PathWeights::from_static_spectrum(&spec);
        let w2 = PathWeights::from_static_spectrum(&scaled);
        for (a, b) in w1.weights().iter().zip(w2.weights()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn weights_flatten_the_static_spectrum() {
        // w(θ)·Ps(θ) = 1 inside the gate by construction (on the
        // normalized spectrum), except where the cap bounds the weight
        // (deep spectrum floor).
        let spec = spectrum_with_peak();
        let w = PathWeights::from_static_spectrum(&spec);
        let norm = spec.normalized();
        let cap = PathWeights::WEIGHT_CAP;
        let mut flat = 0;
        for ((&a, &ps), &wt) in spec.angles_deg().iter().zip(norm.values()).zip(w.weights()) {
            let v = ps * wt;
            if wt == 0.0 {
                assert_eq!(v, 0.0);
            } else if (wt - cap).abs() < 1e-9 {
                assert!(v <= 1.0 + 1e-9, "capped angle {a}: {v}");
            } else {
                assert!((v - 1.0).abs() < 1e-9, "angle {a}: {v}");
                flat += 1;
            }
        }
        assert!(flat > 10, "some angles must invert exactly");
    }
}
