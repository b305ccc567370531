//! # mpdf-wifi — 802.11n CSI measurement substrate
//!
//! Emulates the paper's measurement stack (Tenda AP → Intel 5300 NIC →
//! CSI tool) on top of the `mpdf-propagation` channel simulator:
//!
//! - [`band`] — channel 11 band plan and the Intel 5300 30-subcarrier grid.
//! - [`csi`] — per-packet CSI matrices and power/RSS features.
//! - [`mod@array`] — the 3-element λ/2 receive ULA and its steering vectors.
//! - [`impairments`] — AWGN, CFO/SFO phase errors, AGC jitter.
//! - [`fault`] — injected receiver faults: loss bursts, chain dropouts,
//!   AGC clipping, NaN rows, duplicate/out-of-order delivery.
//! - [`quarantine`] — the validation pass classifying each packet
//!   Ok / Degraded / Reject before it reaches the detector.
//! - [`sanitize`] — linear-phase calibration (the paper's \[26\]).
//! - [`receiver`] — the 50 pkt/s campaign driver, fully seeded.
//! - [`wire`] — the one CSI packet codec: zero-copy frame decoding with
//!   typed errors and resync, for untrusted socket-shaped byte streams,
//!   capture files and stored windows.
//!
//! ```
//! use mpdf_geom::shapes::Rect;
//! use mpdf_geom::vec2::Vec2;
//! use mpdf_propagation::channel::ChannelModel;
//! use mpdf_propagation::environment::Environment;
//! use mpdf_wifi::receiver::CsiReceiver;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let room = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
//! let link = ChannelModel::new(room, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0))?;
//! let mut rx = CsiReceiver::new(link, 42)?;
//! let packets = rx.capture_static(None, 10)?;
//! assert_eq!(packets[0].subcarriers(), 30);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod array;
pub mod band;
pub mod csi;
pub mod fault;
pub mod impairments;
pub mod quarantine;
pub mod receiver;
pub mod sanitize;
pub mod wire;

pub use array::UniformLinearArray;
pub use band::{Band, BandError, INTEL5300_SUBCARRIER_INDICES, NUM_SUBCARRIERS};
pub use csi::CsiPacket;
pub use fault::FaultModel;
pub use impairments::ImpairmentModel;
pub use quarantine::{PacketClass, Quarantine, RejectReason};
pub use receiver::{Actor, CsiReceiver, ReceiverConfig};
pub use wire::{FrameSplitter, WireError, WireRecord};
