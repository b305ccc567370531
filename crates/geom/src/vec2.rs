//! 2-D points and vectors.
//!
//! The propagation simulator works in a 2-D floor plan (the paper's rooms
//! are analyzed in plan view; antenna heights only shift path lengths by a
//! constant the one-bounce model absorbs into the path-loss constant).

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 2-D point/vector with `f64` coordinates, in metres.
///
/// One type serves both roles (point and displacement), as is common in
/// small geometry kernels; the alias [`Point`] marks intent at API
/// boundaries.
///
/// ```
/// use mpdf_geom::vec2::Vec2;
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// x-coordinate (metres).
    pub x: f64,
    /// y-coordinate (metres).
    pub y: f64,
}

/// Alias used where a location (not a displacement) is meant.
pub type Point = Vec2;

impl Vec2 {
    /// The origin / zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector at `angle` radians from the +x axis.
    #[inline]
    pub fn from_angle(angle: f64) -> Self {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared norm.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Unit vector in the same direction.
    ///
    /// Returns `None` for (near-)zero vectors instead of producing NaNs.
    #[inline]
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Counter-clockwise perpendicular (`rotate 90°`).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Rotates by `angle` radians counter-clockwise.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    /// Angle from the +x axis, in `(-π, π]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Linear interpolation: `self + t·(other − self)`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// True when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, k: f64) -> Vec2 {
        Vec2::new(self.x * k, self.y * k)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, v: Vec2) -> Vec2 {
        v * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, k: f64) -> Vec2 {
        Vec2::new(self.x / k, self.y / k)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Vec2 {
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.dot(a), 1.0);
    }

    #[test]
    fn norms_and_distance() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sqr(), 25.0);
        assert_eq!(Vec2::ZERO.distance(v), 5.0);
    }

    #[test]
    fn normalization() {
        let v = Vec2::new(0.0, -7.0);
        assert_eq!(v.normalized(), Some(Vec2::new(0.0, -1.0)));
        assert_eq!(Vec2::ZERO.normalized(), None);
        assert_eq!(Vec2::new(1e-15, 0.0).normalized(), None);
    }

    #[test]
    fn rotation_and_angles() {
        let v = Vec2::new(1.0, 0.0);
        let r = v.rotated(FRAC_PI_2);
        assert!((r - Vec2::new(0.0, 1.0)).norm() < 1e-12);
        assert!((Vec2::from_angle(PI).x + 1.0).abs() < 1e-12);
        assert!((Vec2::new(-1.0, 0.0).angle() - PI).abs() < 1e-12);
        assert_eq!(v.perp(), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn finite_check() {
        assert!(Vec2::new(1.0, 2.0).is_finite());
        assert!(!Vec2::new(f64::NAN, 0.0).is_finite());
        assert!(!Vec2::new(0.0, f64::INFINITY).is_finite());
    }
}
