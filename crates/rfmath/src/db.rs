//! Decibel conversions.
//!
//! The paper states link sensitivities in dB (Eq. 5, 8): `Δs = 10·lg(P₁/P₀)`.
//! These helpers keep power-ratio bookkeeping explicit and tested.

/// Converts a linear power ratio to decibels: `10·log10(p)`.
///
/// Returns `-inf` for `p == 0` and NaN for negative input, mirroring
/// `f64::log10`.
#[inline]
pub fn power_to_db(p: f64) -> f64 {
    10.0 * p.log10()
}

/// Converts decibels to a linear power ratio: `10^(db/10)`.
#[inline]
pub fn db_to_power(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts decibels to a linear amplitude ratio: `10^(db/20)`.
#[inline]
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_round_trip() {
        for &db in &[-30.0, -3.0, 0.0, 3.0, 20.0] {
            assert!((power_to_db(db_to_power(db)) - db).abs() < 1e-12);
        }
    }

    #[test]
    fn amplitude_is_the_root_of_power() {
        for &db in &[-12.0, 0.0, 6.0] {
            let (a, p) = (db_to_amplitude(db), db_to_power(db));
            assert!((a * a - p).abs() < 1e-12 * p);
        }
    }

    #[test]
    fn known_values() {
        assert!((power_to_db(100.0) - 20.0).abs() < 1e-12);
        assert!((db_to_power(3.0) - 1.9952623149688795).abs() < 1e-12);
    }

    #[test]
    fn zero_power_is_neg_infinity() {
        assert_eq!(power_to_db(0.0), f64::NEG_INFINITY);
        assert!(power_to_db(-1.0).is_nan());
    }
}
