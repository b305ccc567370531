//! Batched phase angles.
//!
//! The μ_k estimator's linear-phase fit reads the phase of 30 antenna
//! sums per packet. [`phase_args_into`] evaluates them over the whole
//! tone slice with a branch-free `atan2`: the ratio `min(|x|,|y|) /
//! max(|x|,|y|)` is reduced to `|t| ≤ tan(π/8)` and fed to the Cephes
//! rational approximation of `atan` (the one Go's `math.Atan` uses on
//! `[0, 0.66]`), and the octant is restored as `n·π/4 ± atan(t)` with `π/4`
//! split into its nearest double and the remainder. Every step is a
//! select, so the loop carries no data-dependent branch; the result is
//! within 4 ulp of `f64::atan2` on every input it accepts.
//!
//! The kernel accepts only finite, non-zero components (a zero
//! component turns the ratio into `0/0`); a slice holding any other
//! value is evaluated with `f64::atan2` throughout, so signed zeros,
//! infinities and NaNs come out exactly as the standard library gives
//! them. [`Complex64::arg`] itself stays on `f64::atan2`.

use crate::complex::Complex64;

/// `π/4` rounded to the nearest double.
const PIO4_HI: f64 = std::f64::consts::FRAC_PI_4;
/// `π/4 − PIO4_HI`. `n·PIO4_HI` is exact for `n ≤ 4` (the double has
/// three trailing zero bits), so the octant base carries no rounding.
const PIO4_LO: f64 = 3.061_616_997_868_383e-17;
/// `tan(π/8) = √2 − 1`: ratios above it are reduced through
/// `(a − 1)/(a + 1)`, which maps `(tan(π/8), 1]` onto `(−tan(π/8), 0]`.
const TAN_PI_8: f64 = 0.414_213_562_373_095_03;

/// Numerator of the Cephes `atan` rational in `z = t²`, highest power
/// first.
const P: [f64; 5] = [
    -0.875_060_860_003_190_4,
    -16.157_537_187_333_652,
    -75.008_557_923_147_05,
    -122.886_668_449_013_61,
    -64.850_219_049_420_25,
];
/// Denominator of the same rational (monic; the leading 1 is implied),
/// highest remaining power first.
const Q: [f64; 5] = [
    24.858_464_901_423_062,
    165.027_009_831_698_85,
    432.881_060_491_290_27,
    485.390_399_635_913_7,
    194.550_657_148_261_4,
];

/// `atan2(y, x)` for finite, non-zero `x` and `y`, without branches.
#[inline]
fn atan2_kernel(y: f64, x: f64) -> f64 {
    let (ax, ay) = (x.abs(), y.abs());
    // Fold into the first octant: a = min/max ∈ (0, 1].
    let swap = ay > ax;
    let (num, den) = if swap { (ax, ay) } else { (ay, ax) };
    let a = num / den;
    let reduce = a > TAN_PI_8;
    let t = if reduce { (a - 1.0) / (a + 1.0) } else { a };
    let z = t * t;
    let p = z * ((((P[0] * z + P[1]) * z + P[2]) * z + P[3]) * z + P[4]);
    let q = ((((z + Q[0]) * z + Q[1]) * z + Q[2]) * z + Q[3]) * z + Q[4];
    let atan_t = t + t * (p / q);
    // The angle is n·π/4 + s·atan(t): the reduction adds π/4, the swap
    // reflects about π/4 (θ → π/2 − θ), a negative x about π/2
    // (θ → π − θ).
    let n = if reduce { 1.0 } else { 0.0 };
    let (n, s) = if swap { (2.0 - n, -1.0) } else { (n, 1.0) };
    let (n, s) = if x < 0.0 { (4.0 - n, -s) } else { (n, s) };
    (n * PIO4_HI + (s * atan_t + n * PIO4_LO)).copysign(y)
}

/// The arguments `arg z ∈ (−π, π]` of every `z` in `zs`, written into
/// `out` (cleared and refilled), each within 4 ulp of `z.im.atan2(z.re)`.
///
/// When any `z` has a zero or non-finite component, the whole slice is
/// evaluated with `f64::atan2`, so those inputs read exactly as
/// [`Complex64::arg`] gives them.
pub fn phase_args_into(zs: &[Complex64], out: &mut Vec<f64>) {
    out.clear();
    let regular = zs
        .iter()
        .all(|z| z.re != 0.0 && z.im != 0.0 && z.is_finite());
    if regular {
        out.extend(zs.iter().map(|z| atan2_kernel(z.im, z.re)));
    } else {
        out.extend(zs.iter().map(|z| z.arg()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place; `u64::MAX` across a sign.
    fn ulps(a: f64, b: f64) -> u64 {
        if a.is_sign_negative() != b.is_sign_negative() {
            return if a == b { 0 } else { u64::MAX };
        }
        a.to_bits().abs_diff(b.to_bits())
    }

    /// Evaluates `points` as one slice and returns the worst ulp error
    /// against `f64::atan2` with the point where it occurred.
    fn worst(points: &[Complex64]) -> (u64, Complex64) {
        let mut out = Vec::new();
        phase_args_into(points, &mut out);
        assert_eq!(out.len(), points.len());
        points
            .iter()
            .zip(&out)
            .map(|(z, &got)| (ulps(got, z.im.atan2(z.re)), *z))
            .max_by_key(|e| e.0)
            .unwrap_or((0, Complex64::ZERO))
    }

    /// `steps` neighbours of `v` on each side, `v` included.
    fn around(v: f64, steps: u64) -> impl Iterator<Item = f64> {
        let bits = v.to_bits();
        (bits - steps..=bits + steps).map(f64::from_bits)
    }

    #[test]
    fn dense_sweep_is_within_four_ulp_of_std() {
        let mut points = Vec::new();
        // Every quadrant at magnitudes 1e-300 … 1e300.
        for e in (-300..=300).step_by(20) {
            let r = 10f64.powi(e);
            for i in 0..4001 {
                let theta = -std::f64::consts::PI + std::f64::consts::TAU * f64::from(i) / 4000.0;
                let z = Complex64::from_polar(r, theta);
                if z.re != 0.0 && z.im != 0.0 {
                    points.push(z);
                }
            }
        }
        // Mixed magnitudes: ratios from 1e-600 (underflow) to 1e600.
        for ey in (-300..=300).step_by(25) {
            for ex in (-300..=300).step_by(25) {
                let (y, x) = (10f64.powi(ey), 10f64.powi(ex));
                points.extend([
                    Complex64::new(x, y),
                    Complex64::new(-x, y),
                    Complex64::new(x, -y),
                    Complex64::new(-x, -y),
                ]);
            }
        }
        let (err, at) = worst(&points);
        assert!(err <= 4, "{err} ulp at {at:?}");
    }

    #[test]
    fn reduction_edges_are_within_four_ulp_of_std() {
        let mut points = Vec::new();
        for scale in [1e-300, 3.7e-9, 1.0, 2.5e7, 1e300] {
            // |y| = |x| (the swap) and |y| = tan(π/8)·|x| (the ratio
            // reduction), each side approached ulp by ulp, in all four
            // quadrants and mirrored across the diagonal.
            for ratio in around(1.0, 64).chain(around(TAN_PI_8, 64)) {
                for (sx, sy) in [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)] {
                    let (x, y) = (sx * scale, sy * scale * ratio);
                    points.extend([Complex64::new(x, y), Complex64::new(y, x)]);
                }
            }
        }
        let (err, at) = worst(&points);
        assert!(err <= 4, "{err} ulp at {at:?}");
    }

    #[test]
    fn special_inputs_equal_std_exactly() {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.0,
            -2.5,
            1e-300,
            -1e300,
        ];
        let regular: Vec<Complex64> = (1..=8)
            .map(|i| Complex64::from_polar(f64::from(i), 0.7 * f64::from(i)))
            .collect();
        for &re in &specials {
            for &im in &specials {
                if re.is_finite() && im.is_finite() && re != 0.0 && im != 0.0 {
                    continue;
                }
                let z = Complex64::new(re, im);
                // Alone and amid regular tones: the whole slice falls
                // back, so every element is bitwise std.
                let mut slice = regular.clone();
                slice.insert(3, z);
                for zs in [&[z][..], &slice] {
                    let mut out = Vec::new();
                    phase_args_into(zs, &mut out);
                    for (got, z) in out.iter().zip(zs) {
                        let want = z.im.atan2(z.re);
                        assert_eq!(got.to_bits(), want.to_bits(), "{z:?}");
                    }
                }
            }
        }
    }
}
