//! The versioned binary image of session state.
//!
//! An image captures the complete dynamic state of a
//! [`SessionRuntime`](crate::runtime::SessionRuntime) — profile,
//! threshold, HMM state, drift-sentinel state, supervision counters, the
//! null reservoir and shadow buffer, and the seq cursor — so a killed
//! session restores and continues **bit-identically**.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic    b"MPSC"                             4 bytes
//! version  u16                                 2
//! paylen   u64  (payload byte count)           8
//! payload  [paylen bytes]
//! ```
//!
//! The payload packs, in order: cursor, threshold, the calibration
//! profile (shape, amplitudes, powers, per-subcarrier covariances,
//! static spectrum — path weights are *re-derived* at restore, which is
//! bit-identical arithmetic), the HMM parameters and carried posterior,
//! the sentinel snapshot, supervision state (mode, retries, backoff,
//! watchdog strikes), and the reservoir + shadow packet windows, each a
//! `u32` window count followed by that many `mpdf_wifi::wire` windows
//! (a `u32` packet count, then one wire frame per packet). Version 2
//! images stored their packets in a layout of their own and are refused
//! as [`CheckpointError::UnsupportedVersion`].
//!
//! This module is the codec only. [`encode_image_into`] appends an
//! image to any buffer and [`decode_image`] decodes one whose integrity
//! the caller has already checked. Durability — the checksum, the
//! staged write, the `.bak` rotation and the fallback to it — belongs
//! to the store that holds the image: `mpdf-fleet`'s shard log, which
//! frames each image in a record under an XXH64 checksum (log format
//! v4), and whose one-link form is the single-session checkpoint file.

use std::error::Error;
use std::fmt;

use mpdf_core::error::DetectError;
use mpdf_core::hmm::{Gaussian, HmmSmoother};
use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
use mpdf_music::music::Pseudospectrum;
use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::matrix::CMatrix;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::wire::{self, WireError};

use crate::runtime::{SessionMode, SessionSnapshot};
use crate::sentinel::{DriftState, SentinelSnapshot};

/// Image magic.
pub const MAGIC: &[u8; 4] = b"MPSC";
/// Current image format version.
pub const VERSION: u16 = 3;

/// Errors produced when encoding or decoding an image.
#[derive(Debug)]
pub enum CheckpointError {
    /// The image does not start with the `MPSC` magic.
    BadMagic,
    /// The version field is unsupported.
    UnsupportedVersion(u16),
    /// The image ends before its declared payload.
    Truncated,
    /// The payload decodes but is internally inconsistent.
    Corrupt(String),
    /// The decoded state fails semantic validation (profile shapes, HMM
    /// parameters).
    Invalid(DetectError),
    /// Encode-side: a collection exceeds its length field's range, so it
    /// cannot be checkpointed without silent truncation.
    TooLarge {
        /// Which collection overflowed.
        what: &'static str,
        /// Actual length.
        len: usize,
        /// Largest length the field can represent.
        max: u64,
    },
    /// Encode-side: a retained window cannot be wire-encoded (a packet
    /// shape the frame header's `u8` fields cannot carry).
    Wire(WireError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not an MPSC checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint ends before declared length"),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint is corrupt: {what}"),
            CheckpointError::Invalid(e) => write!(f, "checkpoint state is invalid: {e}"),
            CheckpointError::TooLarge { what, len, max } => write!(
                f,
                "cannot checkpoint {what}: {len} entries exceed the format's limit of {max}"
            ),
            CheckpointError::Wire(e) => write!(f, "cannot checkpoint a packet window: {e}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Invalid(e) => Some(e),
            CheckpointError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DetectError> for CheckpointError {
    fn from(e: DetectError) -> Self {
        CheckpointError::Invalid(e)
    }
}

/// Checked conversion of a collection length into a `u32` length field;
/// overflow is a typed error, never a silent truncation.
fn len_u32(what: &'static str, len: usize) -> Result<u32, CheckpointError> {
    u32::try_from(len).map_err(|_| CheckpointError::TooLarge {
        what,
        len,
        max: u64::from(u32::MAX),
    })
}

/// Checked conversion into a `u16` length field.
fn len_u16(what: &'static str, len: usize) -> Result<u16, CheckpointError> {
    u16::try_from(len).map_err(|_| CheckpointError::TooLarge {
        what,
        len,
        max: u64::from(u16::MAX),
    })
}

fn put_windows(buf: &mut Vec<u8>, windows: &[Vec<CsiPacket>]) -> Result<(), CheckpointError> {
    buf.extend_from_slice(&len_u32("packet windows", windows.len())?.to_le_bytes());
    for w in windows {
        wire::encode_window(w, buf).map_err(CheckpointError::Wire)?;
    }
    Ok(())
}

/// Borrowed view of everything a checkpoint image holds, so a running
/// session is encoded without first cloning its state into a
/// [`SessionSnapshot`]. Built by
/// [`SessionRuntime::snapshot_parts`](crate::runtime::SessionRuntime::snapshot_parts)
/// or from a snapshot with `SnapshotParts::from(&snapshot)`.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotParts<'a> {
    pub(crate) cursor: u64,
    pub(crate) threshold: f64,
    pub(crate) profile: &'a CalibrationProfile,
    pub(crate) hmm: HmmSmoother,
    pub(crate) posterior: f64,
    pub(crate) sentinel: SentinelSnapshot,
    pub(crate) mode: SessionMode,
    pub(crate) retries: u32,
    pub(crate) backoff_remaining: u64,
    pub(crate) watchdog_strikes: u32,
    pub(crate) reservoir: &'a [Vec<CsiPacket>],
    pub(crate) shadow: &'a [Vec<CsiPacket>],
}

impl<'a> From<&'a SessionSnapshot> for SnapshotParts<'a> {
    fn from(snapshot: &'a SessionSnapshot) -> Self {
        SnapshotParts {
            cursor: snapshot.cursor,
            threshold: snapshot.threshold,
            profile: &snapshot.profile,
            hmm: snapshot.hmm,
            posterior: snapshot.posterior,
            sentinel: snapshot.sentinel,
            mode: snapshot.mode,
            retries: snapshot.retries,
            backoff_remaining: snapshot.backoff_remaining,
            watchdog_strikes: snapshot.watchdog_strikes,
            reservoir: &snapshot.reservoir,
            shadow: &snapshot.shadow,
        }
    }
}

/// Header bytes before the payload: magic, version, payload length.
const IMAGE_HEADER: usize = 4 + 2 + 8;

/// Appends the checkpoint image of `parts` (header and payload) to
/// `out`, so a session's state is encoded once, straight
/// into the buffer that will hold it.
///
/// All packet windows must share the profile's `(antennas,
/// subcarriers)` shape — the runtime guarantees this (every window
/// passed shape validation before being retained), and the decoder
/// refuses an image that breaks it.
///
/// # Errors
/// [`CheckpointError::TooLarge`] when a collection exceeds its length
/// field's range (the format caps the profile shape at `u16` and
/// window/packet counts at `u32`), [`CheckpointError::Wire`] for a
/// packet shape a wire frame cannot carry. `out` is left as it was.
pub fn encode_image_into(
    parts: &SnapshotParts<'_>,
    out: &mut Vec<u8>,
) -> Result<(), CheckpointError> {
    let start = out.len();
    let written = put_image(parts, out, start);
    if written.is_err() {
        out.truncate(start);
    }
    written
}

fn put_image(
    snapshot: &SnapshotParts<'_>,
    payload: &mut Vec<u8>,
    start: usize,
) -> Result<(), CheckpointError> {
    let antennas = snapshot.profile.antennas();
    let subcarriers = snapshot.profile.subcarriers();
    let packet_bytes = wire::HEADER_LEN + antennas * subcarriers * 16;
    let packets: usize = snapshot
        .reservoir
        .iter()
        .chain(snapshot.shadow)
        .map(Vec::len)
        .sum();
    // The image is built in place: header (length patched below), then
    // payload, with room for the 8-byte record checksum that follows it.
    payload.reserve(IMAGE_HEADER + 4096 + packets * packet_bytes + 8);
    payload.extend_from_slice(MAGIC);
    payload.extend_from_slice(&VERSION.to_le_bytes());
    payload.extend_from_slice(&[0; 8]);
    payload.extend_from_slice(&snapshot.cursor.to_le_bytes());
    payload.extend_from_slice(&snapshot.threshold.to_le_bytes());

    // Profile.
    payload.extend_from_slice(&len_u16("profile antennas", antennas)?.to_le_bytes());
    payload.extend_from_slice(&len_u16("profile subcarriers", subcarriers)?.to_le_bytes());
    for row in snapshot.profile.static_amplitude() {
        for &v in row {
            payload.extend_from_slice(&v.to_le_bytes());
        }
    }
    for &v in snapshot.profile.static_power() {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    for r in snapshot.profile.static_covariances() {
        for z in r.as_slice() {
            payload.extend_from_slice(&z.re.to_le_bytes());
            payload.extend_from_slice(&z.im.to_le_bytes());
        }
    }
    let spectrum = snapshot.profile.static_spectrum();
    payload.extend_from_slice(
        &len_u32("spectrum angle grid", spectrum.angles_deg().len())?.to_le_bytes(),
    );
    for &a in spectrum.angles_deg() {
        payload.extend_from_slice(&a.to_le_bytes());
    }
    for &v in spectrum.values() {
        payload.extend_from_slice(&v.to_le_bytes());
    }

    // HMM + carried posterior.
    for v in [
        snapshot.hmm.absent.mean,
        snapshot.hmm.absent.std,
        snapshot.hmm.present.mean,
        snapshot.hmm.present.std,
        snapshot.hmm.stay_absent,
        snapshot.hmm.stay_present,
        snapshot.hmm.prior_present,
        snapshot.hmm.llr_cap,
        snapshot.posterior,
    ] {
        payload.extend_from_slice(&v.to_le_bytes());
    }

    // Sentinel.
    payload.extend_from_slice(&snapshot.sentinel.baseline_mean.to_le_bytes());
    payload.extend_from_slice(&snapshot.sentinel.baseline_std.to_le_bytes());
    payload.extend_from_slice(&snapshot.sentinel.ewma.to_le_bytes());
    payload.push(snapshot.sentinel.state.as_u8());
    payload.extend_from_slice(&snapshot.sentinel.above_enter.to_le_bytes());
    payload.extend_from_slice(&snapshot.sentinel.below_exit.to_le_bytes());

    // Supervision.
    payload.push(snapshot.mode.as_u8());
    payload.extend_from_slice(&snapshot.retries.to_le_bytes());
    payload.extend_from_slice(&snapshot.backoff_remaining.to_le_bytes());
    payload.extend_from_slice(&snapshot.watchdog_strikes.to_le_bytes());

    // Packet windows.
    put_windows(payload, snapshot.reservoir)?;
    put_windows(payload, snapshot.shadow)?;

    let len = (payload.len() - start - IMAGE_HEADER) as u64;
    payload[start + IMAGE_HEADER - 8..start + IMAGE_HEADER].copy_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Bounds-checked little-endian reader over the payload.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn need(&self, n: usize) -> Result<(), CheckpointError> {
        if self.buf.len() < n {
            return Err(CheckpointError::Truncated);
        }
        Ok(())
    }

    /// The next `n` bytes, consumed.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.need(n)?;
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let mut raw = [0u8; N];
        raw.copy_from_slice(self.take(N)?);
        Ok(raw)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.array()?))
    }
}

/// Reads a window count and that many wire windows, each of whose
/// packets must have the profile's `shape`.
fn get_windows(
    r: &mut Reader<'_>,
    shape: (usize, usize),
) -> Result<Vec<Vec<CsiPacket>>, CheckpointError> {
    let count = r.u32()? as usize;
    // Each window needs at least its packet count; a count larger than
    // the remaining bytes is corruption, not an allocation request.
    if count.saturating_mul(4) > r.buf.len() {
        return Err(CheckpointError::Truncated);
    }
    let mut windows = Vec::with_capacity(count);
    for i in 0..count {
        let (window, used) = wire::decode_window(r.buf).map_err(|e| match e {
            WireError::Truncated { .. } => CheckpointError::Truncated,
            e => CheckpointError::Corrupt(format!("window {i}: {e}")),
        })?;
        if let Some(p) = window
            .iter()
            .find(|p| (p.antennas(), p.subcarriers()) != shape)
        {
            return Err(CheckpointError::Corrupt(format!(
                "window {i} holds a {}×{} packet, the profile is {}×{}",
                p.antennas(),
                p.subcarriers(),
                shape.0,
                shape.1
            )));
        }
        r.take(used)?;
        windows.push(window);
    }
    Ok(windows)
}

/// Decodes a checkpoint image (header and payload) whose
/// integrity the caller has already checked. Total on any input: every
/// length is bounded by the bytes left before anything is allocated,
/// so arbitrary bytes give a typed error, never a panic.
///
/// # Errors
/// [`CheckpointError::BadMagic`], [`CheckpointError::UnsupportedVersion`],
/// [`CheckpointError::Truncated`], [`CheckpointError::Corrupt`] or
/// [`CheckpointError::Invalid`].
pub fn decode_image(
    body: &[u8],
    config: &DetectorConfig,
) -> Result<SessionSnapshot, CheckpointError> {
    let mut r = Reader { buf: body };
    if &r.array::<4>()? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let paylen = r.u64()? as usize;
    if paylen != r.buf.len() {
        return Err(CheckpointError::Truncated);
    }

    let cursor = r.u64()?;
    let threshold = r.f64()?;

    let antennas = r.u16()? as usize;
    let subcarriers = r.u16()? as usize;
    if antennas == 0 || subcarriers == 0 {
        return Err(CheckpointError::Corrupt(
            "profile declares an empty shape".to_string(),
        ));
    }
    // Amplitudes, powers and antennas x antennas covariances, per
    // subcarrier: a shape the remaining bytes cannot hold is corruption,
    // not an allocation request.
    let profile_bytes = subcarriers.saturating_mul(8 + 8 * antennas + 16 * antennas * antennas);
    if profile_bytes > r.buf.len() {
        return Err(CheckpointError::Truncated);
    }
    let mut static_amplitude = Vec::with_capacity(antennas);
    for _ in 0..antennas {
        let mut row = Vec::with_capacity(subcarriers);
        for _ in 0..subcarriers {
            row.push(r.f64()?);
        }
        static_amplitude.push(row);
    }
    let mut static_power = Vec::with_capacity(subcarriers);
    for _ in 0..subcarriers {
        static_power.push(r.f64()?);
    }
    let mut static_covariances = Vec::with_capacity(subcarriers);
    for _ in 0..subcarriers {
        let mut entries = Vec::with_capacity(antennas * antennas);
        for _ in 0..antennas * antennas {
            let re = r.f64()?;
            let im = r.f64()?;
            entries.push(Complex64::new(re, im));
        }
        static_covariances.push(CMatrix::from_rows(antennas, antennas, &entries));
    }
    let grid_len = r.u32()? as usize;
    if grid_len == 0 || grid_len.saturating_mul(16) > r.buf.len() {
        return Err(CheckpointError::Truncated);
    }
    let mut angles = Vec::with_capacity(grid_len);
    for _ in 0..grid_len {
        angles.push(r.f64()?);
    }
    let mut values = Vec::with_capacity(grid_len);
    for _ in 0..grid_len {
        values.push(r.f64()?);
    }
    let static_spectrum = Pseudospectrum::new(angles, values);
    let profile = CalibrationProfile::from_parts(
        antennas,
        subcarriers,
        static_amplitude,
        static_power,
        static_covariances,
        static_spectrum,
        config,
    )?;

    let absent_mean = r.f64()?;
    let absent_std = r.f64()?;
    let present_mean = r.f64()?;
    let present_std = r.f64()?;
    let stay_absent = r.f64()?;
    let stay_present = r.f64()?;
    let prior_present = r.f64()?;
    let llr_cap = r.f64()?;
    if absent_std <= 0.0 || present_std <= 0.0 || absent_std.is_nan() || present_std.is_nan() {
        return Err(CheckpointError::Corrupt(
            "HMM emission std is not positive".to_string(),
        ));
    }
    let hmm = HmmSmoother {
        absent: Gaussian {
            mean: absent_mean,
            std: absent_std,
        },
        present: Gaussian {
            mean: present_mean,
            std: present_std,
        },
        stay_absent,
        stay_present,
        prior_present,
        llr_cap,
    };
    let posterior = r.f64()?;

    let baseline_mean = r.f64()?;
    let baseline_std = r.f64()?;
    let ewma = r.f64()?;
    let state_tag = r.u8()?;
    let state = DriftState::from_u8(state_tag)
        .ok_or_else(|| CheckpointError::Corrupt(format!("unknown drift state tag {state_tag}")))?;
    let above_enter = r.u32()?;
    let below_exit = r.u32()?;
    let sentinel = SentinelSnapshot {
        baseline_mean,
        baseline_std,
        ewma,
        state,
        above_enter,
        below_exit,
    };

    let mode_tag = r.u8()?;
    let mode = SessionMode::from_u8(mode_tag)
        .ok_or_else(|| CheckpointError::Corrupt(format!("unknown session mode tag {mode_tag}")))?;
    let retries = r.u32()?;
    let backoff_remaining = r.u64()?;
    let watchdog_strikes = r.u32()?;

    let reservoir = get_windows(&mut r, (antennas, subcarriers))?;
    let shadow = get_windows(&mut r, (antennas, subcarriers))?;
    if !r.buf.is_empty() {
        return Err(CheckpointError::Corrupt(format!(
            "{} trailing bytes after payload",
            r.buf.len()
        )));
    }

    Ok(SessionSnapshot {
        cursor,
        threshold,
        profile,
        hmm,
        posterior,
        sentinel,
        mode,
        retries,
        backoff_remaining,
        watchdog_strikes,
        reservoir,
        shadow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{RecalPolicy, SessionConfig, SessionRuntime};
    use mpdf_core::scheme::SubcarrierWeighting;
    use mpdf_geom::shapes::Rect;
    use mpdf_geom::vec2::Vec2;
    use mpdf_propagation::channel::ChannelModel;
    use mpdf_propagation::environment::Environment;
    use mpdf_wifi::receiver::CsiReceiver;

    fn runtime() -> SessionRuntime<SubcarrierWeighting> {
        let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
        let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
        let mut rx = CsiReceiver::new(link, 31).unwrap();
        let calibration = rx.capture_static(None, 200).unwrap();
        let session = SessionConfig {
            recalibration: RecalPolicy {
                enabled: true,
                ..RecalPolicy::default()
            },
            ..SessionConfig::default()
        };
        SessionRuntime::calibrate(
            &calibration,
            SubcarrierWeighting,
            DetectorConfig::default(),
            session,
        )
        .unwrap()
    }

    fn image(snapshot: &SessionSnapshot) -> Vec<u8> {
        let mut out = Vec::new();
        encode_image_into(&snapshot.into(), &mut out).unwrap();
        out
    }

    #[test]
    fn runtime_encoding_matches_the_snapshot_encoding_byte_for_byte() {
        let rt = runtime();
        let snap = rt.snapshot();
        // The image is appended after whatever the buffer already holds.
        let mut direct = b"prefix".to_vec();
        encode_image_into(&rt.snapshot_parts(), &mut direct).unwrap();
        let via_snapshot = image(&snap);
        assert_eq!(&direct[..6], b"prefix");
        assert_eq!(&direct[6..], &via_snapshot[..]);
        let decoded = decode_image(&via_snapshot, rt.detector().config()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(image(&decoded), via_snapshot);
    }

    #[test]
    fn oversized_collections_are_a_typed_error_not_a_truncation() {
        // The length fields are u16 (shape) and u32 (window/packet
        // counts); lengths past them must fail loudly — the old `as`
        // casts would silently wrap and write a decodable-but-wrong
        // checkpoint.
        assert_eq!(len_u16("profile antennas", 65_535).unwrap(), u16::MAX);
        let err = len_u16("profile antennas", 65_536).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::TooLarge {
                what: "profile antennas",
                len: 65_536,
                max: 65_535,
            }
        ));
        assert!(err.to_string().contains("profile antennas"));
        assert_eq!(len_u32("packet windows", 7).unwrap(), 7);
        assert!(matches!(
            len_u32("packet windows", u32::MAX as usize + 1),
            Err(CheckpointError::TooLarge { max, .. }) if max == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let bytes = image(&runtime().snapshot());
        let edited = |at: usize, byte: u8| {
            let mut edited = bytes.clone();
            edited[at] = byte;
            decode_image(&edited, &DetectorConfig::default())
        };
        assert!(matches!(edited(0, b'X'), Err(CheckpointError::BadMagic)));
        assert!(matches!(
            edited(4, 9),
            Err(CheckpointError::UnsupportedVersion(9))
        ));
        // Version 2 stored its packets in a layout of its own.
        for old in [1, 2] {
            assert!(matches!(
                edited(4, old),
                Err(CheckpointError::UnsupportedVersion(v)) if v == u16::from(old)
            ));
        }
    }

    #[test]
    fn a_window_packet_whose_shape_disagrees_with_the_profile_is_corrupt() {
        let mut snap = runtime().snapshot();
        assert!(
            !snap.reservoir[0].is_empty(),
            "calibration seeds the reservoir"
        );
        snap.reservoir[0][0] = snap.reservoir[0][0].select_antennas(&[0, 1]);
        let err = decode_image(&image(&snap), &DetectorConfig::default()).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("2×30"), "{err}");
    }

    #[test]
    fn a_packet_the_wire_cannot_carry_is_a_typed_encode_error() {
        let mut snap = runtime().snapshot();
        let wide = CsiPacket::new(1, 300, vec![Complex64::ZERO; 300], 0, 0.0);
        snap.shadow = vec![vec![wide]];
        let mut out = b"kept".to_vec();
        let err = encode_image_into(&(&snap).into(), &mut out).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Wire(WireError::ShapeTooLarge { .. })),
            "{err}"
        );
        assert_eq!(out, b"kept");
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = image(&runtime().snapshot());
        for cut in [0usize, 10, 21, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_image(&bytes[..cut], &DetectorConfig::default()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated),
                "cut {cut}: {err}"
            );
        }
    }
}
