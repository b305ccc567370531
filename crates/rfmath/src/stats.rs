//! Descriptive statistics and empirical distributions.
//!
//! These back the paper's evaluation: CDFs of RSS change (Fig. 2a) and of
//! multipath factor (Fig. 3a), medians for the stability ratio `r_k`
//! (Eq. 13–14), and variances for threshold selection.

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `N`); `0.0` for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (square root of population variance).
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median of a copy (see [`median_in_place`]); average of middle pair
/// for even lengths. Returns `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    median_in_place(&mut xs.to_vec())
}

/// Median under [`f64::total_cmp`] order, reordering `xs`: the middle
/// element for odd lengths, the average of the middle pair for even
/// ones, `0.0` for an empty slice.
///
/// Selects rather than sorts. Elements equal under `total_cmp` have
/// equal bits, so the selected middle pair — the `n/2`-th element and
/// the largest of the partition below it — is bitwise the pair a full
/// sort would put there, NaN, signed zeros and infinities included.
pub fn median_in_place(xs: &mut [f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let (lower, &mut upper, _) = xs.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        return upper;
    }
    // n ≥ 2 here, so the lower partition is never empty.
    let lo = lower
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .unwrap_or(upper);
    0.5 * (lo + upper)
}

/// Median under [`f64::total_cmp`] order through a reusable key buffer,
/// leaving `xs` untouched: bitwise [`median_in_place`].
///
/// Each value maps to the `i64` whose integer order is `total_cmp`
/// order (the map `total_cmp` itself applies per comparison, inverted
/// exactly on the way back), and the keys are sorted as integers — for
/// the 30-value rows the Eq. 13 weights take one median of per packet,
/// about twice as fast as selecting under `total_cmp`.
pub fn median_with(xs: &[f64], keys: &mut Vec<i64>) -> f64 {
    /// `total_cmp`'s key: flips the magnitude bits of negative values.
    /// The same map inverts it (the sign bit is unchanged).
    fn flip(bits: i64) -> i64 {
        bits ^ ((bits >> 63).cast_unsigned() >> 1).cast_signed()
    }
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    keys.clear();
    keys.extend(xs.iter().map(|x| flip(x.to_bits().cast_signed())));
    keys.sort_unstable();
    let value = |key: i64| f64::from_bits(flip(key).cast_unsigned());
    if n % 2 == 1 {
        return value(keys[n / 2]);
    }
    0.5 * (value(keys[n / 2 - 1]) + value(keys[n / 2]))
}

/// Linear-interpolated percentile, `p ∈ [0, 100]`.
///
/// # Panics
/// Panics if `p` is outside `[0, 100]` or the slice is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    assert!(!xs.is_empty(), "percentile of empty slice");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "rank ∈ [0, len-1] by the asserted p range"
    )]
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi {
        v[lo]
    } else {
        let w = rank - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Minimum and maximum of a non-empty slice.
///
/// # Panics
/// Panics on empty input.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "min_max of empty slice");
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// An empirical cumulative distribution function built from samples.
///
/// ```
/// use mpdf_rfmath::stats::Ecdf;
/// let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.eval(2.5), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples (NaNs are dropped).
    pub fn new(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        Ecdf { sorted }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `≤ x`; `0.0` when empty.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Generalized inverse: smallest sample `x` with `F(x) ≥ q`, `q ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics if the ECDF is empty or `q` outside `(0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "q ∈ (0, 1] so the product is bounded by len"
        )]
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).saturating_sub(1);
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Samples the CDF at `n` evenly spaced points spanning the data range,
    /// returning `(x, F(x))` pairs — the series plotted in Fig. 2a / 3a.
    /// The last point is the sample maximum, so the curve ends at `F = 1`.
    ///
    /// A degenerate all-equal sample has zero span; its true CDF is a
    /// single step 0 → 1 at that value, so the vertical step is emitted
    /// explicitly as two points sharing `x` (one point at `F = 1` when
    /// `n == 1`) instead of a flat `F ≡ 1` line with no rise.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().unwrap_or(&lo);
        if hi <= lo {
            return if n == 1 {
                vec![(lo, 1.0)]
            } else {
                vec![(lo, 0.0), (lo, 1.0)]
            };
        }
        let span = hi - lo;
        (0..n)
            .map(|i| {
                // The grid formula can round off the maximum.
                let x = if i + 1 == n {
                    hi
                } else {
                    lo + span * i as f64 / (n - 1) as f64
                };
                (x, self.eval(x))
            })
            .collect()
    }
}

/// A fixed-bin histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds a sample; out-of-range and NaN samples are clamped/dropped.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        let bins = self.counts.len();
        let t = ((x - self.lo) / (self.hi - self.lo) * bins as f64).floor();
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "t ≥ 0 after the max; a saturated cast of a huge t is clamped to the last bin"
        )]
        let idx = (t.max(0.0) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples added.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalized bin densities summing to 1 (all zeros when empty).
    pub fn densities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Center x-coordinate of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_median() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert!((median(&xs) - 4.5).abs() < 1e-12);
        assert!((median(&[1.0, 3.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_graceful() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert!(Ecdf::new(&[]).is_empty());
        assert_eq!(Ecdf::new(&[]).eval(1.0), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&xs, 0.0) - 10.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 40.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_step_behaviour() {
        let e = Ecdf::new(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.quantile(0.75), 2.0);
        assert_eq!(e.quantile(1.0), 3.0);
    }

    #[test]
    fn ecdf_curve_is_monotone() {
        let e = Ecdf::new(&[0.3, -1.0, 2.5, 0.7, 0.7, 1.1]);
        let curve = e.curve(50);
        assert_eq!(curve.len(), 50);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecdf_curve_degenerate_sample_keeps_rising_step() {
        // Regression: all-equal samples used to clamp the span to
        // f64::MIN_POSITIVE, placing every sampled point at F(x)=1 with no
        // rising step in the plotted CDF.
        let e = Ecdf::new(&[4.2; 7]);
        let curve = e.curve(50);
        assert_eq!(curve, vec![(4.2, 0.0), (4.2, 1.0)]);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 && w[1].0 >= w[0].0);
        }
        assert_eq!(e.curve(1), vec![(4.2, 1.0)]);

        // Single-sample ECDFs are degenerate too.
        let single = Ecdf::new(&[-1.5]).curve(10);
        assert_eq!(single, vec![(-1.5, 0.0), (-1.5, 1.0)]);
    }

    #[test]
    fn ecdf_drops_nans() {
        let e = Ecdf::new(&[1.0, f64::NAN, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn histogram_bins_and_density() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 2.6, 9.9, 11.0, -3.0] {
            h.add(x);
        }
        assert_eq!(h.total(), 7);
        // Bins of width 2; -3.0 clamps into bin 0 and 11.0 into bin 4.
        assert_eq!(h.counts(), &[3, 2, 0, 0, 2]);
        let d = h.densities();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_works() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]), (-1.0, 3.0));
    }
}
