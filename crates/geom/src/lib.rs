//! # mpdf-geom — 2-D geometry substrate
//!
//! Plan-view geometry for the indoor propagation simulator:
//!
//! - [`vec2`] — points and vectors in metres.
//! - [`segment`] — walls and ray legs: intersection and distance queries.
//! - [`mod@line`] — mirror images (the image-method reflection primitive).
//! - [`shapes`] — rectangles (rooms, furniture) and circles (human body
//!   footprints).
//! - [`polygon`] — convex polygons (angled furniture).
//!
//! ```
//! use mpdf_geom::line::Line;
//! use mpdf_geom::vec2::Vec2;
//!
//! // The transmitter's image across a wall along the x-axis:
//! let wall = Line::new(Vec2::ZERO, Vec2::new(1.0, 0.0)).unwrap();
//! let tx = Vec2::new(1.0, 2.0);
//! assert_eq!(wall.mirror(tx), Vec2::new(1.0, -2.0));
//! ```

#![forbid(unsafe_code)]

pub mod line;
pub mod polygon;
pub mod segment;
pub mod shapes;
pub mod vec2;

pub use polygon::ConvexPolygon;
pub use segment::Segment;
pub use shapes::{Circle, Rect};
pub use vec2::{Point, Vec2};
