//! # mpdf-propagation — ray-bouncing indoor channel simulator
//!
//! The physical substrate replacing the paper's physical testbed: a 2-D
//! image-method ray tracer with material-aware walls and furniture, the
//! paper's dielectric-cylinder human model (shadowing + body scattering),
//! and CFR evaluation with per-antenna phase offsets.
//!
//! Pipeline: [`environment::Environment`] → [`tracer::trace`] →
//! [`channel::ChannelSnapshot`] → CFR samples consumed by `mpdf-wifi`.
//!
//! ```
//! use mpdf_geom::shapes::Rect;
//! use mpdf_geom::vec2::Vec2;
//! use mpdf_propagation::channel::ChannelModel;
//! use mpdf_propagation::environment::Environment;
//! use mpdf_propagation::human::HumanBody;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let room = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
//! let link = ChannelModel::new(room, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0))?;
//! let calm = link.snapshot(None)?;
//! let person = HumanBody::new(Vec2::new(4.0, 3.0));
//! let busy = link.snapshot(Some(&person))?;
//! assert!(busy.power(2.462e9) != calm.power(2.462e9));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod channel;
pub mod environment;
pub mod human;
pub mod material;
pub mod path;
pub mod pathloss;
pub mod tracer;
pub mod trajectory;

pub use channel::{ChannelModel, ChannelSnapshot};
pub use environment::Environment;
pub use human::HumanBody;
pub use material::Material;
pub use path::{PathKind, PropagationPath};
pub use pathloss::{PathLossModel, SPEED_OF_LIGHT};
