//! Surface materials and their interaction coefficients.
//!
//! Each wall/obstacle carries a [`Material`] with two amplitude-domain
//! coefficients:
//!
//! - `reflection`: fraction of incident *amplitude* preserved by a bounce
//!   (the `Γ` entering the reflected-path gain).
//! - `transmission`: fraction of amplitude preserved when a ray passes
//!   *through* the obstacle (interior walls, furniture).
//!
//! The presets are representative magnitudes for 2.4 GHz indoor materials;
//! the paper's analysis (§III-B) treats them as environmental constants
//! folded into the amplitude ratio `γ`.

/// A propagation surface material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Amplitude reflection coefficient `Γ ∈ [0, 1]`.
    reflection: f64,
    /// Amplitude transmission coefficient `∈ [0, 1]` for rays crossing it.
    transmission: f64,
    /// Short human-readable label. Cosmetic only.
    name: &'static str,
}

impl Material {
    /// Poured concrete / brick: strong reflector, nearly opaque.
    pub const CONCRETE: Material = Material {
        reflection: 0.70,
        transmission: 0.15,
        name: "concrete",
    };
    /// Drywall / plasterboard partition.
    pub const DRYWALL: Material = Material {
        reflection: 0.35,
        transmission: 0.65,
        name: "drywall",
    };
    /// Window glass.
    pub const GLASS: Material = Material {
        reflection: 0.50,
        transmission: 0.70,
        name: "glass",
    };
    /// Metal cabinet / whiteboard backing: near-perfect reflector.
    pub const METAL: Material = Material {
        reflection: 0.95,
        transmission: 0.02,
        name: "metal",
    };
    /// Wooden desks and shelves.
    pub const WOOD: Material = Material {
        reflection: 0.40,
        transmission: 0.55,
        name: "wood",
    };
    /// Human tissue: the paper's dielectric-cylinder body (§III-B, \[19\]).
    pub const HUMAN_BODY: Material = Material {
        reflection: 0.38,
        transmission: 0.25,
        name: "human-body",
    };

    /// Creates a custom material.
    ///
    /// # Panics
    /// Panics unless both coefficients are in `[0, 1]`.
    pub fn new(name: &'static str, reflection: f64, transmission: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&reflection),
            "reflection coefficient must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&transmission),
            "transmission coefficient must be in [0, 1]"
        );
        Material {
            reflection,
            transmission,
            name,
        }
    }

    /// Amplitude reflection coefficient.
    pub fn reflection(&self) -> f64 {
        self.reflection
    }

    /// Amplitude transmission coefficient.
    pub fn transmission(&self) -> f64 {
        self.transmission
    }

    /// Material label.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Default for Material {
    /// Concrete — the typical load-bearing wall of the paper's academic
    /// building testbed.
    fn default() -> Self {
        Material::CONCRETE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_physical() {
        for m in [
            Material::CONCRETE,
            Material::DRYWALL,
            Material::GLASS,
            Material::METAL,
            Material::WOOD,
            Material::HUMAN_BODY,
        ] {
            assert!((0.0..=1.0).contains(&m.reflection()), "{}", m.name());
            assert!((0.0..=1.0).contains(&m.transmission()), "{}", m.name());
            // No material both reflects and transmits perfectly.
            assert!(m.reflection() + m.transmission() < 1.5, "{}", m.name());
        }
    }

    #[test]
    fn metal_reflects_more_than_drywall() {
        assert!(Material::METAL.reflection() > Material::DRYWALL.reflection());
        assert!(Material::METAL.transmission() < Material::DRYWALL.transmission());
    }

    #[test]
    fn custom_material() {
        let m = Material::new("brick", 0.6, 0.2);
        assert_eq!(m.name(), "brick");
        assert_eq!(m.reflection(), 0.6);
        assert_eq!(m.transmission(), 0.2);
    }

    #[test]
    #[should_panic(expected = "reflection coefficient")]
    fn out_of_range_reflection_panics() {
        let _ = Material::new("bad", 1.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "transmission coefficient")]
    fn out_of_range_transmission_panics() {
        let _ = Material::new("bad", 0.5, -0.1);
    }

    #[test]
    fn default_is_concrete() {
        assert_eq!(Material::default(), Material::CONCRETE);
    }
}
