//! Evaluation scenarios (§V-A, Fig. 6).
//!
//! The paper measures 5 TX–RX links ("cases") across two furnished rooms
//! in an academic building, with a 3×3 grid of human test positions per
//! link, plus distance rings (1–5 m from the receiver, Fig. 9) and an
//! angle fan (−90°…90° at fixed radius, Fig. 11).

use mpdf_geom::segment::Segment;
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::{Point, Vec2};
use mpdf_propagation::environment::Environment;
use mpdf_propagation::material::Material;

/// One evaluated TX–RX link.
#[derive(Debug, Clone)]
pub struct LinkCase {
    /// Case number (1–5, matching Fig. 8's x-axis).
    pub id: usize,
    /// Room environment.
    pub environment: Environment,
    /// Transmitter (AP) position.
    pub tx: Point,
    /// Receiver position.
    pub rx: Point,
    /// The interior room the link and test subjects occupy (a subset of
    /// the environment, which extends to the building shell).
    pub room: Rect,
    /// Human-presence test grid (3×3).
    pub grid: Vec<Point>,
}

impl LinkCase {
    /// TX–RX distance in metres.
    pub fn link_length(&self) -> f64 {
        self.tx.distance(self.rx)
    }

    /// Midpoint of the link.
    pub fn midpoint(&self) -> Point {
        self.tx.lerp(self.rx, 0.5)
    }

    /// Positions far from the link (≥ `min_dist` from the TX–RX segment
    /// but inside the room) where background dynamics may occur.
    pub fn background_positions(&self, min_dist: f64) -> Vec<Point> {
        let link = Segment::new(self.tx, self.rx);
        let bounds = self.room.shrunk(0.3);
        let mut out = Vec::new();
        let steps = 12;
        for ix in 0..steps {
            for iy in 0..steps {
                let p = Point::new(
                    bounds.min().x + bounds.width() * ix as f64 / (steps - 1) as f64,
                    bounds.min().y + bounds.height() * iy as f64 / (steps - 1) as f64,
                );
                if link.distance_to_point(p) >= min_dist {
                    out.push(p);
                }
            }
        }
        out
    }
}

/// Builds a 3×3 grid of human positions centred on the link midpoint,
/// spanning `span_along` metres along the link and `span_across` across
/// it (clamped inside the room with a 0.4 m margin).
pub fn grid_3x3(room: Rect, tx: Point, rx: Point, span_along: f64, span_across: f64) -> Vec<Point> {
    let along = (rx - tx).normalized().unwrap_or(Vec2::new(1.0, 0.0));
    let across = along.perp();
    let mid = tx.lerp(rx, 0.5);
    let bounds = room.shrunk(0.4);
    let mut grid = Vec::with_capacity(9);
    for i in -1..=1 {
        for j in -1..=1 {
            let p = mid
                + along * (i as f64 * span_along / 2.0)
                + across * (j as f64 * span_across / 2.0);
            let clamped = Point::new(
                p.x.clamp(bounds.min().x, bounds.max().x),
                p.y.clamp(bounds.min().y, bounds.max().y),
            );
            grid.push(clamped);
        }
    }
    grid
}

/// Adds the four walls of an interior room to a builder.
fn add_room_walls(
    b: &mut mpdf_propagation::environment::EnvironmentBuilder,
    room: Rect,
    material: Material,
) {
    for seg in room.walls() {
        b.interior_wall(seg, material);
    }
}

/// The 6 m × 8 m classroom of §III, modelled *inside* a concrete building
/// shell. Walls beyond the room create the long-delay multipath
/// (excess paths of 10–25 m) that gives indoor WiFi its frequency
/// selectivity — the phenomenon the paper's subcarrier diversity rides on.
/// The room itself has drywall walls signals partially penetrate.
pub fn classroom() -> Environment {
    let shell = Rect::new(Point::new(-4.0, -3.0), Point::new(12.0, 9.0));
    let room = Rect::new(Point::new(0.0, 0.0), Point::new(8.0, 6.0));
    let mut b = Environment::builder(shell, Material::CONCRETE);
    add_room_walls(&mut b, room, Material::DRYWALL);
    // Classroom furniture: a teacher desk and a bookshelf.
    b.furniture(
        Rect::new(Point::new(0.6, 4.8), Point::new(2.2, 5.5)),
        Material::WOOD,
    );
    b.furniture(
        Rect::new(Point::new(7.2, 0.4), Point::new(7.8, 2.4)),
        Material::WOOD,
    );
    b.build()
}

/// Interior rectangle of the classroom (where links and humans live).
pub fn classroom_room() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(8.0, 6.0))
}

/// A furnished office inside the same building shell: drywall partition
/// stub, desks and a metal cabinet.
pub fn office() -> Environment {
    let shell = Rect::new(Point::new(-4.0, -3.5), Point::new(11.0, 8.5));
    let room = Rect::new(Point::new(0.0, 0.0), Point::new(7.0, 5.0));
    let mut b = Environment::builder(shell, Material::CONCRETE);
    add_room_walls(&mut b, room, Material::DRYWALL);
    b.interior_wall(
        Segment::new(Point::new(4.5, 0.0), Point::new(4.5, 1.8)),
        Material::DRYWALL,
    );
    b.furniture(
        Rect::new(Point::new(0.8, 3.6), Point::new(2.4, 4.4)),
        Material::WOOD,
    );
    b.furniture(
        Rect::new(Point::new(5.6, 0.6), Point::new(6.4, 1.4)),
        Material::WOOD,
    );
    b.furniture(
        Rect::new(Point::new(6.4, 4.2), Point::new(6.8, 4.8)),
        Material::METAL,
    );
    // An angled lectern near the partition — real offices are not
    // axis-aligned.
    b.furniture_polygon(
        mpdf_geom::polygon::ConvexPolygon::rotated_rectangle(Point::new(3.2, 3.9), 1.2, 0.5, 0.6),
        Material::WOOD,
    );
    b.build()
}

/// Interior rectangle of the office.
pub fn office_room() -> Rect {
    Rect::new(Point::new(0.0, 0.0), Point::new(7.0, 5.0))
}

/// The five evaluation cases (Fig. 6): three classroom links of different
/// lengths/placements and two office links threading furniture.
pub fn five_cases() -> Vec<LinkCase> {
    let cr = classroom();
    let of = office();
    let mk = |id, env: &Environment, room: Rect, tx: Point, rx: Point| {
        // Wide grids: span past the link ends and 2 m to each side, so
        // positions cover the easy (on-LOS) through hard (distant NLOS)
        // range, as in the paper's campaign.
        let grid = grid_3x3(room, tx, rx, tx.distance(rx) + 1.5, 4.0);
        LinkCase {
            id,
            environment: env.clone(),
            tx,
            rx,
            room,
            grid,
        }
    };
    vec![
        // Case 1: 4 m mid-room link (the §III measurement link).
        mk(
            1,
            &cr,
            classroom_room(),
            Point::new(2.0, 3.0),
            Point::new(6.0, 3.0),
        ),
        // Case 2: 5.5 m diagonal-ish link near a wall.
        mk(
            2,
            &cr,
            classroom_room(),
            Point::new(1.0, 1.2),
            Point::new(6.5, 1.6),
        ),
        // Case 3: short 3 m link in a vacant area (the paper notes case 3
        // is a strong-LOS 3 m link where path weighting helps least).
        mk(
            3,
            &cr,
            classroom_room(),
            Point::new(2.5, 4.5),
            Point::new(5.5, 4.5),
        ),
        // Case 4: office link crossing the room past furniture.
        mk(
            4,
            &of,
            office_room(),
            Point::new(1.0, 2.5),
            Point::new(6.0, 2.8),
        ),
        // Case 5: office link near the drywall stub.
        mk(
            5,
            &of,
            office_room(),
            Point::new(1.5, 0.8),
            Point::new(5.8, 1.0),
        ),
    ]
}

/// Human positions at the given distances (metres) from the receiver,
/// walking back along the link direction and fanning slightly — the
/// Fig. 9 distance sweep.
pub fn distance_ring_positions(case: &LinkCase, distances: &[f64]) -> Vec<(f64, Point)> {
    let toward_tx = (case.tx - case.rx)
        .normalized()
        .unwrap_or(Vec2::new(1.0, 0.0));
    let across = toward_tx.perp();
    let bounds = case.room.shrunk(0.35);
    let mut out = Vec::new();
    for &d in distances {
        for &off in &[-0.5f64, 0.0, 0.5] {
            let p = case.rx + toward_tx * d + across * off;
            if bounds.contains(p) {
                out.push((d, p));
            }
        }
    }
    out
}

/// Human positions on an angle fan around the receiver at `radius`
/// metres: the Fig. 5c / Fig. 11 sweep. Angles are measured against the
/// receiver's array broadside, which faces the transmitter.
pub fn angle_fan_positions(case: &LinkCase, radius: f64, angles_deg: &[f64]) -> Vec<(f64, Point)> {
    let broadside = (case.tx - case.rx)
        .normalized()
        .unwrap_or(Vec2::new(1.0, 0.0));
    let bounds = case.room.shrunk(0.35);
    angles_deg
        .iter()
        .filter_map(|&deg| {
            let dir = broadside.rotated(deg.to_radians());
            let p = case.rx + dir * radius;
            if bounds.contains(p) {
                Some((deg, p))
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_cases_are_valid_links() {
        let cases = five_cases();
        assert_eq!(cases.len(), 5);
        for c in &cases {
            assert!(c.environment.contains(c.tx), "case {} tx", c.id);
            assert!(c.environment.contains(c.rx), "case {} rx", c.id);
            assert!(c.link_length() > 2.0, "case {} too short", c.id);
            assert_eq!(c.grid.len(), 9);
            for p in &c.grid {
                assert!(c.environment.contains(*p), "case {} grid point {p}", c.id);
            }
        }
        // Case 3 is the short strong-LOS link.
        assert!(cases[2].link_length() <= cases[0].link_length());
    }

    #[test]
    fn case_ids_are_one_through_five() {
        let ids: Vec<usize> = five_cases().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn grid_spans_both_sides_of_link() {
        let grid = grid_3x3(
            classroom_room(),
            Point::new(2.0, 3.0),
            Point::new(6.0, 3.0),
            2.4,
            2.0,
        );
        let above = grid.iter().filter(|p| p.y > 3.01).count();
        let below = grid.iter().filter(|p| p.y < 2.99).count();
        let on = grid.iter().filter(|p| (p.y - 3.0).abs() < 0.01).count();
        assert_eq!(above, 3);
        assert_eq!(below, 3);
        assert_eq!(on, 3);
    }

    #[test]
    fn distance_rings_reach_out_to_5m() {
        let case = &five_cases()[1]; // the long link
        let pos = distance_ring_positions(case, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(!pos.is_empty());
        let max_d = pos.iter().map(|(d, _)| *d).fold(f64::MIN, f64::max);
        assert!(max_d >= 5.0, "need positions out to 5 m, got {max_d}");
        for (d, p) in &pos {
            assert!(case.environment.contains(*p));
            assert!((case.rx.distance(*p) - d).abs() < 0.6);
        }
    }

    #[test]
    fn angle_fan_covers_wide_range() {
        let case = &five_cases()[0];
        let angles: Vec<f64> = (-8..=8).map(|i| i as f64 * 11.25).collect();
        let pos = angle_fan_positions(case, 1.0, &angles);
        assert!(pos.len() >= 12, "got only {} fan positions", pos.len());
        let min = pos.iter().map(|(a, _)| *a).fold(f64::MAX, f64::min);
        let max = pos.iter().map(|(a, _)| *a).fold(f64::MIN, f64::max);
        assert!(min <= -60.0 && max >= 60.0);
    }

    #[test]
    fn background_positions_are_far_from_link() {
        let case = &five_cases()[0];
        let link = Segment::new(case.tx, case.rx);
        let bg = case.background_positions(2.2);
        assert!(!bg.is_empty());
        for p in &bg {
            assert!(link.distance_to_point(*p) >= 2.2);
            assert!(case.environment.contains(*p));
        }
    }

    #[test]
    fn office_has_furniture_and_partition() {
        let env = office();
        // 4 shell walls + 4 room walls + partition stub.
        assert_eq!(env.walls().len(), 9);
        assert_eq!(env.furniture().len(), 4);
    }

    #[test]
    fn shell_creates_long_delay_paths() {
        // The building shell must contribute propagation paths with
        // excess lengths beyond ~9 m — the delay spread that makes the
        // 17.5 MHz band frequency selective.
        use mpdf_propagation::tracer::{trace, TraceConfig};
        let env = classroom();
        let paths = trace(
            &env,
            Point::new(2.0, 3.0),
            Point::new(6.0, 3.0),
            &TraceConfig {
                max_order: 2,
                min_amplitude_factor: 1e-3,
            },
        )
        .unwrap();
        let los = paths[0].length();
        let long = paths.iter().filter(|p| p.length() - los > 9.0).count();
        assert!(long >= 2, "need long-delay paths, got {long}");
    }
}
