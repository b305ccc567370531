//! Fade level — the related-work comparator (§VI, Wilson & Patwari \[12\]).
//!
//! Fade level is the difference between the RSS a link actually measures
//! and the RSS a propagation formula predicts. Deep-faded links
//! (measured ≪ predicted) behave very differently from anti-faded ones.
//! The paper contrasts its multipath factor against this metric: fade
//! level needs a propagation model and channel sweeps, while `μ` comes
//! from a single packet without any formula. Implemented here so
//! `ext-sweep` can compare both as link-state indicators.

use mpdf_rfmath::db::power_to_db;

/// Fade level in dB: `measured − predicted`.
///
/// # Panics
/// Panics if either power is non-positive.
pub fn fade_level_db(measured_power: f64, predicted_power: f64) -> f64 {
    assert!(
        measured_power > 0.0 && predicted_power > 0.0,
        "powers must be positive"
    );
    power_to_db(measured_power / predicted_power)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fade_level_signs() {
        assert!((fade_level_db(0.5, 1.0) + 3.0103).abs() < 1e-3);
        assert!((fade_level_db(2.0, 1.0) - 3.0103).abs() < 1e-3);
        assert_eq!(fade_level_db(1.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "powers must be positive")]
    fn zero_power_panics() {
        let _ = fade_level_db(0.0, 1.0);
    }
}
