//! Convex polygons.
//!
//! Furniture is rarely axis-aligned; a [`ConvexPolygon`] models angled
//! desks, lecterns and cabinets. Only convexity is supported — it keeps
//! containment and occlusion queries O(edges) and matches what the
//! propagation layer needs.

use crate::segment::Segment;
use crate::vec2::{Point, Vec2};

/// A convex polygon with counter-clockwise vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvexPolygon {
    vertices: Vec<Point>,
}

/// Error returned by [`ConvexPolygon::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices.
    TooFewVertices,
    /// The vertex loop is not convex / counter-clockwise.
    NotConvexCcw,
    /// Repeated or collinear-degenerate vertices.
    Degenerate,
}

impl std::fmt::Display for PolygonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolygonError::TooFewVertices => write!(f, "polygon needs at least three vertices"),
            PolygonError::NotConvexCcw => {
                write!(f, "vertices must wind counter-clockwise and be convex")
            }
            PolygonError::Degenerate => write!(f, "polygon has degenerate edges"),
        }
    }
}

impl std::error::Error for PolygonError {}

impl ConvexPolygon {
    /// Creates a convex polygon from counter-clockwise vertices.
    ///
    /// # Errors
    /// See [`PolygonError`].
    pub fn new(vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        let n = vertices.len();
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            let c = vertices[(i + 2) % n];
            if a.distance(b) < 1e-12 {
                return Err(PolygonError::Degenerate);
            }
            let cross = (b - a).cross(c - b);
            if cross <= 0.0 {
                return Err(PolygonError::NotConvexCcw);
            }
        }
        Ok(ConvexPolygon { vertices })
    }

    /// An axis-aligned rectangle as a polygon.
    #[expect(
        clippy::expect_used,
        reason = "four axis-aligned corners in CCW order are always convex"
    )]
    pub fn rectangle(min: Point, max: Point) -> Self {
        ConvexPolygon::new(vec![
            min,
            Point::new(max.x, min.y),
            max,
            Point::new(min.x, max.y),
        ])
        .expect("rectangle corners are convex CCW")
    }

    /// A rectangle rotated by `angle` radians around its centre — the
    /// angled-desk constructor.
    ///
    /// # Panics
    /// Panics if the extents are not positive.
    #[expect(
        clippy::expect_used,
        reason = "rotation preserves convexity; extents asserted positive"
    )]
    pub fn rotated_rectangle(center: Point, width: f64, height: f64, angle: f64) -> Self {
        assert!(width > 0.0 && height > 0.0, "extents must be positive");
        let hx = Vec2::new(width / 2.0, 0.0).rotated(angle);
        let hy = Vec2::new(0.0, height / 2.0).rotated(angle);
        ConvexPolygon::new(vec![
            center - hx - hy,
            center + hx - hy,
            center + hx + hy,
            center - hx + hy,
        ])
        .expect("rotated rectangle is convex CCW")
    }

    /// The vertex loop (counter-clockwise).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// The edge segments.
    pub fn edges(&self) -> Vec<Segment> {
        let n = self.vertices.len();
        (0..n)
            .map(|i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
            .collect()
    }

    /// Polygon area (shoelace formula; positive for CCW).
    pub fn area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.cross(b);
        }
        acc / 2.0
    }

    /// True when `p` is inside or on the boundary (convexity: `p` is on
    /// the left of every CCW edge).
    pub fn contains(&self, p: Point) -> bool {
        let n = self.vertices.len();
        (0..n).all(|i| {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            (b - a).cross(p - a) >= -1e-12
        })
    }

    /// True when the segment touches, crosses or lies inside the polygon.
    pub fn intersects_segment(&self, seg: &Segment) -> bool {
        if self.contains(seg.a) || self.contains(seg.b) {
            return true;
        }
        self.edges().iter().any(|e| e.intersects(seg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn triangle() -> ConvexPolygon {
        ConvexPolygon::new(vec![p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            ConvexPolygon::new(vec![p(0.0, 0.0), p(1.0, 0.0)]),
            Err(PolygonError::TooFewVertices)
        );
        // Clockwise winding rejected.
        assert_eq!(
            ConvexPolygon::new(vec![p(0.0, 0.0), p(0.0, 3.0), p(4.0, 0.0)]),
            Err(PolygonError::NotConvexCcw)
        );
        // Non-convex (dart) rejected.
        assert_eq!(
            ConvexPolygon::new(vec![p(0.0, 0.0), p(4.0, 0.0), p(1.0, 1.0), p(0.0, 4.0)]),
            Err(PolygonError::NotConvexCcw)
        );
        // Repeated vertex rejected.
        assert_eq!(
            ConvexPolygon::new(vec![p(0.0, 0.0), p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)]),
            Err(PolygonError::Degenerate)
        );
    }

    #[test]
    fn area() {
        let t = triangle();
        assert!((t.area() - 6.0).abs() < 1e-12);
        let r = ConvexPolygon::rectangle(p(1.0, 1.0), p(3.0, 2.0));
        assert!((r.area() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn containment() {
        let t = triangle();
        assert!(t.contains(p(1.0, 1.0)));
        assert!(t.contains(p(0.0, 0.0))); // vertex
        assert!(t.contains(p(2.0, 0.0))); // edge
        assert!(!t.contains(p(3.0, 3.0)));
        assert!(!t.contains(p(-0.1, 0.0)));
    }

    #[test]
    fn segment_intersection() {
        let t = triangle();
        // Crossing.
        assert!(t.intersects_segment(&Segment::new(p(-1.0, 1.0), p(5.0, 1.0))));
        // Fully inside.
        assert!(t.intersects_segment(&Segment::new(p(0.5, 0.5), p(1.0, 1.0))));
        // Fully outside.
        assert!(!t.intersects_segment(&Segment::new(p(5.0, 5.0), p(6.0, 6.0))));
        // Grazing a vertex.
        assert!(t.intersects_segment(&Segment::new(p(4.0, 0.0), p(5.0, 0.0))));
    }

    #[test]
    fn rotated_rectangle_geometry() {
        let r =
            ConvexPolygon::rotated_rectangle(p(2.0, 2.0), 2.0, 1.0, std::f64::consts::FRAC_PI_4);
        assert!((r.area() - 2.0).abs() < 1e-9);
        assert!(r.contains(p(2.0, 2.0)));
        // The unrotated corner (3.0, 2.5) is outside after rotation.
        assert!(!r.contains(p(3.0, 2.5)));
        // A point along the rotated long axis is inside.
        let along = Vec2::new(0.8, 0.0).rotated(std::f64::consts::FRAC_PI_4);
        assert!(r.contains(p(2.0, 2.0) + along));
    }

    #[test]
    fn edges_form_closed_ccw_loop() {
        let t = triangle();
        let e = t.edges();
        assert_eq!(e.len(), 3);
        for i in 0..3 {
            assert_eq!(e[i].b, e[(i + 1) % 3].a);
        }
    }
}
