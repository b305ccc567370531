//! Propagation paths.
//!
//! A [`PropagationPath`] is a polyline from transmitter to receiver with a
//! frequency-independent amplitude factor (the product of reflection and
//! transmission coefficients collected along the way). Its complex gain at
//! a frequency combines that factor with the path-loss amplitude and the
//! travel phase `e^{-j2πf·d/c}` — exactly the `a_i e^{-jθ_i}` terms of the
//! paper's CIR (Eq. 1).

use serde::{Deserialize, Serialize};

use mpdf_geom::vec2::{Point, Vec2};
use mpdf_rfmath::complex::Complex64;

use crate::pathloss::{PathLossModel, SPEED_OF_LIGHT};

/// What created a path — used by experiments to split LOS/NLOS behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathKind {
    /// The direct transmitter→receiver path.
    LineOfSight,
    /// A wall reflection of the given bounce order (1 or 2 here).
    WallReflection {
        /// Number of wall bounces.
        order: u8,
    },
    /// A single-bounce scatter off a human body (paper Fig. 1e).
    HumanScatter,
}

impl PathKind {
    /// True for any path other than the direct one.
    pub fn is_nlos(self) -> bool {
        !matches!(self, PathKind::LineOfSight)
    }
}

/// A traced propagation path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PropagationPath {
    vertices: Vec<Point>,
    amplitude_factor: f64,
    kind: PathKind,
}

impl PropagationPath {
    /// Creates a path from its polyline vertices (first = TX, last = RX)
    /// and the accumulated amplitude factor.
    ///
    /// # Panics
    /// Panics if fewer than two vertices are given, any vertex is
    /// non-finite, or the amplitude factor is negative/non-finite.
    pub fn new(vertices: Vec<Point>, amplitude_factor: f64, kind: PathKind) -> Self {
        assert!(vertices.len() >= 2, "a path needs at least two vertices");
        assert!(
            vertices.iter().all(|v| v.is_finite()),
            "path vertices must be finite"
        );
        assert!(
            amplitude_factor.is_finite() && amplitude_factor >= 0.0,
            "amplitude factor must be finite and non-negative"
        );
        PropagationPath {
            vertices,
            amplitude_factor,
            kind,
        }
    }

    /// Polyline vertices, transmitter first.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Path classification.
    pub fn kind(&self) -> PathKind {
        self.kind
    }

    /// Frequency-independent amplitude factor (`∏Γ · ∏transmissions`,
    /// possibly scaled by human shadowing).
    pub fn amplitude_factor(&self) -> f64 {
        self.amplitude_factor
    }

    /// Returns a copy with the amplitude factor scaled by `k` (how the
    /// shadowing model applies its attenuation `β`).
    ///
    /// # Panics
    /// Panics if `k` is negative or non-finite.
    pub fn attenuated(&self, k: f64) -> PropagationPath {
        PropagationPath {
            vertices: self.vertices.clone(),
            amplitude_factor: self.attenuated_factor(k),
            kind: self.kind,
        }
    }

    /// The amplitude factor [`PropagationPath::attenuated`] would store,
    /// without copying the vertices.
    ///
    /// # Panics
    /// Panics if `k` is negative or non-finite.
    pub fn attenuated_factor(&self, k: f64) -> f64 {
        assert!(k.is_finite() && k >= 0.0, "attenuation must be >= 0");
        self.amplitude_factor * k
    }

    /// Total geometric length in metres.
    pub fn length(&self) -> f64 {
        self.vertices.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Propagation delay in seconds.
    pub fn delay(&self) -> f64 {
        self.length() / SPEED_OF_LIGHT
    }

    /// Excess length over a reference (usually the LOS path) in metres —
    /// the `Δd` in the paper's phase-shift relation `φ = 2πfΔd/c`.
    pub fn excess_length(&self, reference: &PropagationPath) -> f64 {
        self.length() - reference.length()
    }

    /// Unit vector of the *arrival* direction at the receiver (pointing
    /// from the last intermediate vertex toward the receiver). `None` for
    /// degenerate final legs.
    pub fn arrival_direction(&self) -> Option<Vec2> {
        let n = self.vertices.len();
        (self.vertices[n - 1] - self.vertices[n - 2]).normalized()
    }

    /// Segments of the polyline (TX→v1, v1→v2, …, →RX).
    pub fn legs(&self) -> Vec<mpdf_geom::segment::Segment> {
        self.vertices
            .windows(2)
            .map(|w| mpdf_geom::segment::Segment::new(w[0], w[1]))
            .collect()
    }

    /// Complex path gain `a·e^{-j2πf·d/c}` at frequency `f` under the
    /// given path-loss model.
    ///
    /// # Panics
    /// Panics if the path length is zero (TX and RX coincide) or `f <= 0`.
    pub fn gain(&self, f: f64, model: &PathLossModel) -> Complex64 {
        let d = self.length();
        let amplitude = self.amplitude_factor * model.amplitude_gain(d, f);
        let phase = -2.0 * std::f64::consts::PI * f * d / SPEED_OF_LIGHT;
        Complex64::from_polar(amplitude, phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    const F: f64 = 2.462e9;

    #[test]
    fn straight_path_length_and_delay() {
        let path = PropagationPath::new(vec![p(0.0, 0.0), p(3.0, 4.0)], 1.0, PathKind::LineOfSight);
        assert!((path.length() - 5.0).abs() < 1e-12);
        assert!((path.delay() - 5.0 / SPEED_OF_LIGHT).abs() < 1e-20);
    }

    #[test]
    fn bounced_path_length_sums_legs() {
        let path = PropagationPath::new(
            vec![p(0.0, 0.0), p(2.0, 2.0), p(4.0, 0.0)],
            0.7,
            PathKind::WallReflection { order: 1 },
        );
        assert!((path.length() - 2.0 * 8.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(path.legs().len(), 2);
        assert!(path.kind().is_nlos());
    }

    #[test]
    fn excess_length_vs_los() {
        let los = PropagationPath::new(vec![p(0.0, 0.0), p(4.0, 0.0)], 1.0, PathKind::LineOfSight);
        let refl = PropagationPath::new(
            vec![p(0.0, 0.0), p(2.0, 1.5), p(4.0, 0.0)],
            0.7,
            PathKind::WallReflection { order: 1 },
        );
        assert!(refl.excess_length(&los) > 0.0);
        assert!((los.excess_length(&los)).abs() < 1e-12);
    }

    #[test]
    fn arrival_direction_is_last_leg() {
        let path = PropagationPath::new(
            vec![p(0.0, 0.0), p(2.0, 2.0), p(2.0, 0.0)],
            1.0,
            PathKind::WallReflection { order: 1 },
        );
        let dir = path.arrival_direction().unwrap();
        assert!((dir - Vec2::new(0.0, -1.0)).norm() < 1e-12);
    }

    #[test]
    fn gain_magnitude_and_phase() {
        let model = PathLossModel::FREE_SPACE;
        let path = PropagationPath::new(vec![p(0.0, 0.0), p(4.0, 0.0)], 0.5, PathKind::LineOfSight);
        let g = path.gain(F, &model);
        let expect_amp = 0.5 * model.amplitude_gain(4.0, F);
        assert!((g.norm() - expect_amp).abs() < 1e-15);
        let expect_phase = (-2.0 * std::f64::consts::PI * F * 4.0 / SPEED_OF_LIGHT)
            .rem_euclid(2.0 * std::f64::consts::PI);
        let got_phase = g.arg().rem_euclid(2.0 * std::f64::consts::PI);
        assert!((got_phase - expect_phase).abs() < 1e-6);
    }

    #[test]
    fn longer_paths_are_weaker_and_rotate_phase() {
        let model = PathLossModel::indoor_office();
        let short =
            PropagationPath::new(vec![p(0.0, 0.0), p(2.0, 0.0)], 1.0, PathKind::LineOfSight);
        let long = PropagationPath::new(vec![p(0.0, 0.0), p(6.0, 0.0)], 1.0, PathKind::LineOfSight);
        assert!(short.gain(F, &model).norm() > long.gain(F, &model).norm());
    }

    #[test]
    fn attenuated_scales_amplitude_only() {
        let path = PropagationPath::new(vec![p(0.0, 0.0), p(1.0, 0.0)], 0.8, PathKind::LineOfSight);
        let att = path.attenuated(0.5);
        assert!((att.amplitude_factor() - 0.4).abs() < 1e-15);
        assert_eq!(att.vertices(), path.vertices());
        let model = PathLossModel::FREE_SPACE;
        let g0 = path.gain(F, &model);
        let g1 = att.gain(F, &model);
        assert!((g1.norm() / g0.norm() - 0.5).abs() < 1e-12);
        assert!(
            (g1.arg() - g0.arg()).abs() < 1e-12,
            "phase must be unchanged"
        );
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn single_vertex_panics() {
        let _ = PropagationPath::new(vec![p(0.0, 0.0)], 1.0, PathKind::LineOfSight);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_amplitude_panics() {
        let _ = PropagationPath::new(vec![p(0.0, 0.0), p(1.0, 0.0)], -0.1, PathKind::LineOfSight);
    }
}
