//! Human-body interaction models.
//!
//! The paper models a person as a dielectric elliptic cylinder (\[19\]) that
//! affects a link in two ways (§II-A, Fig. 1):
//!
//! 1. **Shadowing** — amplitude attenuation `β < 1` on any path the body
//!    blocks, with the phase left deterministic (paper's \[20\] assumption,
//!    used to derive Eq. 6).
//! 2. **Reflection** — a new single-bounce path TX→body→RX (Eq. 7).
//!
//! Both are implemented here in plan view with a circular body footprint.

use mpdf_geom::shapes::Circle;
use mpdf_geom::vec2::Point;

use crate::environment::Environment;
use crate::material::Material;
use crate::path::{PathKind, PropagationPath};

/// A human body at a fixed position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HumanBody {
    position: Point,
    radius: f64,
    reflectivity: f64,
    min_shadow: f64,
}

impl HumanBody {
    /// Default body footprint radius (metres): half a typical torso width.
    pub const DEFAULT_RADIUS: f64 = 0.20;
    /// Default amplitude attenuation when the body centrally blocks a path.
    /// `0.35` amplitude ≈ −9.1 dB power — mid-range of reported
    /// human-shadowing losses at 2.4 GHz.
    pub const DEFAULT_MIN_SHADOW: f64 = 0.35;

    /// Creates a body with default radius, reflectivity and shadow depth.
    pub fn new(position: Point) -> Self {
        HumanBody {
            position,
            radius: Self::DEFAULT_RADIUS,
            reflectivity: Material::HUMAN_BODY.reflection(),
            min_shadow: Self::DEFAULT_MIN_SHADOW,
        }
    }

    /// Creates a body with explicit parameters.
    ///
    /// # Panics
    /// Panics if `radius <= 0`, or `reflectivity`/`min_shadow` are outside
    /// `[0, 1]`.
    pub fn with_params(position: Point, radius: f64, reflectivity: f64, min_shadow: f64) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "radius must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&reflectivity),
            "reflectivity must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&min_shadow),
            "min_shadow must be in [0, 1]"
        );
        HumanBody {
            position,
            radius,
            reflectivity,
            min_shadow,
        }
    }

    /// Current position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Returns a copy relocated to `position` (trajectory stepping).
    pub fn at(&self, position: Point) -> HumanBody {
        HumanBody { position, ..*self }
    }

    /// Body footprint radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Body amplitude reflectivity.
    pub fn reflectivity(&self) -> f64 {
        self.reflectivity
    }

    /// Body footprint circle.
    pub fn footprint(&self) -> Circle {
        Circle::new(self.position, self.radius)
    }

    /// Shadowing amplitude factor `β ∈ [min_shadow, 1]` for a path.
    ///
    /// Each leg the body penetrates is attenuated proportionally to the
    /// normalized penetration depth (grazing the rim ≈ no attenuation,
    /// passing through the centre ≈ `min_shadow`); legs multiply. The
    /// phase is untouched, per the paper's shadowing model.
    pub fn shadow_factor(&self, path: &PropagationPath) -> f64 {
        let disk = self.footprint();
        let mut beta = 1.0;
        // Iterate the polyline directly — identical legs to
        // `path.legs()` without materializing the segment vector (this
        // runs once per path per snapshot, the hot loop of a campaign).
        for w in path.vertices().windows(2) {
            let leg = mpdf_geom::segment::Segment::new(w[0], w[1]);
            let pen = disk.penetration(&leg);
            if pen > 0.0 {
                beta *= 1.0 - (1.0 - self.min_shadow) * pen;
            }
        }
        beta
    }

    /// The human-created single-bounce scattered path TX→body→RX
    /// (paper Eq. 7's `a'_R e^{-jφ'_R}` term), if geometrically valid.
    ///
    /// The amplitude factor combines the body reflectivity with the
    /// obstacle transmission of both legs. Returns `None` when the body
    /// sits (numerically) on top of either endpoint.
    pub fn scatter_path(&self, env: &Environment, tx: Point, rx: Point) -> Option<PropagationPath> {
        if self.position.distance(tx) < 1e-6 || self.position.distance(rx) < 1e-6 {
            return None;
        }
        let leg1 = mpdf_geom::segment::Segment::new(tx, self.position);
        let leg2 = mpdf_geom::segment::Segment::new(self.position, rx);
        let factor =
            self.reflectivity * env.leg_transmission(&leg1, &[]) * env.leg_transmission(&leg2, &[]);
        Some(PropagationPath::new(
            vec![tx, self.position, rx],
            factor,
            PathKind::HumanScatter,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_geom::shapes::Rect;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn env() -> Environment {
        Environment::empty_room(Rect::new(p(0.0, 0.0), p(8.0, 6.0)))
    }

    fn los(tx: Point, rx: Point) -> PropagationPath {
        PropagationPath::new(vec![tx, rx], 1.0, PathKind::LineOfSight)
    }

    #[test]
    fn central_blockage_gives_full_shadow() {
        let body = HumanBody::new(p(4.0, 3.0));
        let path = los(p(2.0, 3.0), p(6.0, 3.0));
        let beta = body.shadow_factor(&path);
        assert!((beta - HumanBody::DEFAULT_MIN_SHADOW).abs() < 1e-12);
    }

    #[test]
    fn off_path_body_casts_no_shadow() {
        let body = HumanBody::new(p(4.0, 4.0)); // 1 m off the link
        let path = los(p(2.0, 3.0), p(6.0, 3.0));
        assert_eq!(body.shadow_factor(&path), 1.0);
    }

    #[test]
    fn grazing_blockage_attenuates_mildly() {
        let body = HumanBody::new(p(4.0, 3.15)); // off-centre by 0.15 < r=0.2
        let path = los(p(2.0, 3.0), p(6.0, 3.0));
        let beta = body.shadow_factor(&path);
        assert!(beta > HumanBody::DEFAULT_MIN_SHADOW && beta < 1.0);
    }

    #[test]
    fn shadow_applies_per_leg_of_bounced_path() {
        // Body sits on the reflected leg, not the LOS.
        let body = HumanBody::new(p(3.0, 1.5));
        let bounce = PropagationPath::new(
            vec![p(2.0, 3.0), p(4.0, 0.0), p(6.0, 3.0)],
            0.7,
            PathKind::WallReflection { order: 1 },
        );
        // Leg 1 from (2,3) to (4,0) passes near (3,1.5)?  That leg's
        // midpoint IS (3, 1.5) — body blocks it centrally.
        let beta = body.shadow_factor(&bounce);
        assert!((beta - HumanBody::DEFAULT_MIN_SHADOW).abs() < 1e-9);
        // The same body does not shadow the direct path.
        assert_eq!(body.shadow_factor(&los(p(2.0, 3.0), p(6.0, 3.0))), 1.0);
    }

    #[test]
    fn scatter_path_geometry() {
        let body = HumanBody::new(p(4.0, 4.0));
        let sp = body.scatter_path(&env(), p(2.0, 3.0), p(6.0, 3.0)).unwrap();
        assert_eq!(sp.kind(), PathKind::HumanScatter);
        assert_eq!(sp.vertices().len(), 3);
        assert_eq!(sp.vertices()[1], p(4.0, 4.0));
        assert!((sp.amplitude_factor() - Material::HUMAN_BODY.reflection()).abs() < 1e-12);
        // Longer than the LOS.
        assert!(sp.length() > 4.0);
    }

    #[test]
    fn scatter_on_endpoint_is_rejected() {
        let body = HumanBody::new(p(2.0, 3.0));
        assert!(body
            .scatter_path(&env(), p(2.0, 3.0), p(6.0, 3.0))
            .is_none());
    }

    #[test]
    fn scatter_behind_furniture_is_attenuated() {
        let mut b = Environment::builder(Rect::new(p(0.0, 0.0), p(8.0, 6.0)), Material::CONCRETE);
        // Horizontal strip just below the body: both scatter legs cross it.
        b.furniture(Rect::new(p(3.0, 3.7), p(5.0, 3.9)), Material::METAL);
        let env = b.build();
        let body = HumanBody::new(p(4.0, 4.0));
        let sp = body.scatter_path(&env, p(2.0, 3.0), p(6.0, 3.0)).unwrap();
        // Both legs cross the metal strip.
        let expect = Material::HUMAN_BODY.reflection() * Material::METAL.transmission().powi(2);
        assert!((sp.amplitude_factor() - expect).abs() < 1e-12);
    }

    #[test]
    fn relocation_preserves_parameters() {
        let body = HumanBody::with_params(p(1.0, 1.0), 0.25, 0.5, 0.4);
        let moved = body.at(p(2.0, 2.0));
        assert_eq!(moved.position(), p(2.0, 2.0));
        assert_eq!(moved.radius(), 0.25);
        assert_eq!(moved.reflectivity(), 0.5);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_panics() {
        let _ = HumanBody::with_params(p(0.0, 0.0), 0.0, 0.5, 0.5);
    }
}
