//! Order statistics for timings and run-to-run spreads.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks. `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Quartiles `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method), so spreads read the same as a Python check of
/// the same numbers. `None` for an empty slice; one value yields three
/// copies of itself, as in Python.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let n = 4usize;
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..n) {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
            }
            Some(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[5.0]), Some([5.0; 3]));
    }
}
