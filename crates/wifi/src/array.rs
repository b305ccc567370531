//! Receive antenna arrays.
//!
//! The paper's receiver carries three external omnidirectional antennas in
//! a uniform linear array (ULA) at half-wavelength spacing (§IV-B1,
//! Fig. 5a). The array supplies two things:
//!
//! - physical element offsets, so the channel simulator can evaluate the
//!   CFR each element actually sees;
//! - steering vectors `a(θ)` with per-element phase `e^{-jπ m sinθ}`
//!   (paper Eq. 16's geometry), consumed by the MUSIC estimator.

use mpdf_geom::vec2::Vec2;
use mpdf_rfmath::complex::Complex64;

/// A uniform linear antenna array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformLinearArray {
    elements: usize,
    spacing_m: f64,
    axis: Vec2,
}

impl UniformLinearArray {
    /// The paper's receiver: 3 elements at λ/2 for the given wavelength,
    /// axis along +y (broadside facing +x).
    pub fn three_element(wavelength_m: f64) -> Self {
        UniformLinearArray::new(3, wavelength_m / 2.0, Vec2::new(0.0, 1.0))
    }

    /// Creates a ULA with `elements` antennas spaced `spacing_m` metres
    /// along unit direction `axis`.
    ///
    /// # Panics
    /// Panics if `elements < 2`, spacing is non-positive, or the axis is
    /// (near-)zero.
    pub fn new(elements: usize, spacing_m: f64, axis: Vec2) -> Self {
        assert!(elements >= 2, "an array needs at least two elements");
        assert!(
            spacing_m > 0.0 && spacing_m.is_finite(),
            "element spacing must be positive"
        );
        #[expect(
            clippy::expect_used,
            reason = "validating constructor with a documented `# Panics` contract"
        )]
        let axis = axis.normalized().expect("array axis must be non-zero");
        UniformLinearArray {
            elements,
            spacing_m,
            axis,
        }
    }

    /// Number of elements.
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// Element spacing in metres.
    pub fn spacing_m(&self) -> f64 {
        self.spacing_m
    }

    /// Unit vector along the array axis.
    pub fn axis(&self) -> Vec2 {
        self.axis
    }

    /// Physical offsets of each element from the nominal receiver point,
    /// centred on the array midpoint.
    pub fn offsets(&self) -> Vec<Vec2> {
        let mid = (self.elements as f64 - 1.0) / 2.0;
        (0..self.elements)
            .map(|m| self.axis * ((m as f64 - mid) * self.spacing_m))
            .collect()
    }

    /// Incidence angle (radians, in `[-π/2, π/2]`) of a wave arriving with
    /// unit propagation direction `u`, measured from the array broadside.
    ///
    /// `sin θ = u · axis` — a wave travelling perpendicular to the axis
    /// (broadside) has θ = 0.
    pub fn incidence_angle(&self, propagation_dir: Vec2) -> f64 {
        propagation_dir.dot(self.axis).clamp(-1.0, 1.0).asin()
    }

    /// Steering vector `a(θ)` at the given wavelength: element `m` (centred
    /// like [`UniformLinearArray::offsets`]) has phase
    /// `e^{-j·2π/λ·(m−mid)·d·sinθ}` — matching the extra travel a plane
    /// wave needs to reach that element.
    ///
    /// # Panics
    /// Panics if the wavelength is non-positive.
    pub fn steering_vector(&self, theta: f64, wavelength_m: f64) -> Vec<Complex64> {
        assert!(wavelength_m > 0.0, "wavelength must be positive");
        let mid = (self.elements as f64 - 1.0) / 2.0;
        let k = 2.0 * std::f64::consts::PI / wavelength_m;
        (0..self.elements)
            .map(|m| {
                let extra = (m as f64 - mid) * self.spacing_m * theta.sin();
                Complex64::cis(-k * extra)
            })
            .collect()
    }

    /// The unambiguous angular field of view: with spacing ≤ λ/2 the
    /// full ±90°; wider spacing aliases earlier.
    pub fn unambiguous_fov(&self, wavelength_m: f64) -> f64 {
        let ratio = wavelength_m / (2.0 * self.spacing_m);
        if ratio >= 1.0 {
            std::f64::consts::FRAC_PI_2
        } else {
            ratio.asin()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    const LAMBDA: f64 = 0.1218;

    #[test]
    fn three_element_layout() {
        let a = UniformLinearArray::three_element(LAMBDA);
        assert_eq!(a.elements(), 3);
        assert!((a.spacing_m() - LAMBDA / 2.0).abs() < 1e-12);
        let offs = a.offsets();
        assert_eq!(offs.len(), 3);
        // Centred: middle element at the origin, ends symmetric.
        assert!(offs[1].norm() < 1e-12);
        assert!((offs[0] + offs[2]).norm() < 1e-12);
        assert!((offs[2].norm() - LAMBDA / 2.0).abs() < 1e-12);
    }

    #[test]
    fn incidence_angle_geometry() {
        let a = UniformLinearArray::three_element(LAMBDA); // axis +y
                                                           // Wave travelling +x (broadside): θ = 0.
        assert!(a.incidence_angle(Vec2::new(1.0, 0.0)).abs() < 1e-12);
        // Travelling +y (endfire): θ = +90°.
        assert!((a.incidence_angle(Vec2::new(0.0, 1.0)) - FRAC_PI_2).abs() < 1e-12);
        // Travelling −y: θ = −90°.
        assert!((a.incidence_angle(Vec2::new(0.0, -1.0)) + FRAC_PI_2).abs() < 1e-12);
        // 45°.
        let d = Vec2::new(1.0, 1.0).normalized().unwrap();
        assert!((a.incidence_angle(d) - FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn steering_vector_phases() {
        let a = UniformLinearArray::three_element(LAMBDA);
        // Broadside: all elements in phase.
        let sv0 = a.steering_vector(0.0, LAMBDA);
        for z in &sv0 {
            assert!((*z - Complex64::ONE).norm() < 1e-12);
        }
        // At θ: adjacent-element phase difference = π·sinθ for λ/2 spacing
        // (paper §IV-B1: Δφ = π sin θ).
        let theta = 0.5;
        let sv = a.steering_vector(theta, LAMBDA);
        let dphi = (sv[1] * sv[0].conj()).arg();
        assert!((dphi + PI * theta.sin()).abs() < 1e-9, "got {dphi}");
    }

    #[test]
    fn steering_vectors_decorrelate_with_angle() {
        let a = UniformLinearArray::three_element(LAMBDA);
        let s1 = a.steering_vector(0.0, LAMBDA);
        let s2 = a.steering_vector(0.8, LAMBDA);
        let corr: Complex64 = s1.iter().zip(&s2).map(|(&x, &y)| x.conj() * y).sum();
        assert!(corr.norm() < 3.0 - 1e-3, "distinct angles must decorrelate");
    }

    #[test]
    fn half_wavelength_spacing_has_full_fov() {
        let a = UniformLinearArray::three_element(LAMBDA);
        assert!((a.unambiguous_fov(LAMBDA) - FRAC_PI_2).abs() < 1e-12);
        let wide = UniformLinearArray::new(3, LAMBDA, Vec2::new(0.0, 1.0));
        assert!(wide.unambiguous_fov(LAMBDA) < FRAC_PI_2);
    }

    #[test]
    #[should_panic(expected = "at least two elements")]
    fn single_element_panics() {
        let _ = UniformLinearArray::new(1, 0.06, Vec2::new(0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_axis_panics() {
        let _ = UniformLinearArray::new(3, 0.06, Vec2::ZERO);
    }
}
