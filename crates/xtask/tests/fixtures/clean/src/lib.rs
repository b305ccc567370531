//! Fixture crate with no violations.

/// Total float ordering, the NaN-safe way.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}
