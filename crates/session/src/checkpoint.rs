//! Versioned, checksummed checkpoint files for session state.
//!
//! A checkpoint captures the complete dynamic state of a
//! [`SessionRuntime`](crate::runtime::SessionRuntime) — profile,
//! threshold, HMM state, drift-sentinel state, supervision counters, the
//! null reservoir and shadow buffer, and the seq cursor — so a killed
//! session restores and continues **bit-identically**.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic    b"MPSC"                             4 bytes   image
//! version  u16                                 2
//! paylen   u64  (payload byte count)           8
//! payload  [paylen bytes]
//! checksum u64  CRC-64 over magic..payload     8         trailer
//! ```
//!
//! The payload packs, in order: cursor, threshold, the calibration
//! profile (shape, amplitudes, powers, per-subcarrier covariances,
//! static spectrum — path weights are *re-derived* at restore, which is
//! bit-identical arithmetic), the HMM parameters and carried posterior,
//! the sentinel snapshot, supervision state (mode, retries, backoff,
//! watchdog strikes), and the reservoir + shadow packet windows in the
//! `mpdf_wifi::trace` per-packet encoding.
//!
//! The codec is split at the trailer. [`encode_image_into`] appends the
//! image to any buffer and [`decode_image`] decodes an image whose
//! integrity the caller has already checked: the fleet's shard log
//! stores images inside records whose own CRC-64 frame is their only
//! checksum. Checkpoint files use [`encode_snapshot`] and
//! [`decode_snapshot`], which add and verify the trailer. The checksum
//! is [`crate::durable::crc64`], the one the shard log frames with.
//!
//! [`CheckpointStore`] adds crash-safe file handling: atomic
//! write-rename through a `.tmp` sibling, the previous good checkpoint
//! retained as `.bak`, and corrupt/truncated-file detection on load
//! falling back to the previous good file.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes};

use mpdf_core::error::DetectError;
use mpdf_core::hmm::{Gaussian, HmmSmoother};
use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
use mpdf_music::music::Pseudospectrum;
use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::matrix::CMatrix;
use mpdf_wifi::csi::CsiPacket;

use crate::durable::{crc64, retry_io, sync_parent_dir};
use crate::runtime::{SessionMode, SessionSnapshot};
use crate::sentinel::{DriftState, SentinelSnapshot};

/// Checkpoint file magic.
pub const MAGIC: &[u8; 4] = b"MPSC";
/// Current checkpoint format version. Version 1 files carried an FNV-1a
/// trailer: the CRC-64 check refuses them as
/// [`CheckpointError::ChecksumMismatch`].
pub const VERSION: u16 = 2;

/// Errors produced when loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file does not start with the `MPSC` magic.
    BadMagic,
    /// The version field is unsupported.
    UnsupportedVersion(u16),
    /// The file ends before its declared payload/trailer.
    Truncated,
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the file contents.
        computed: u64,
    },
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
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not an MPSC checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint ends before declared length"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint is corrupt: {what}"),
            CheckpointError::Invalid(e) => write!(f, "checkpoint state is invalid: {e}"),
            CheckpointError::TooLarge { what, len, max } => write!(
                f,
                "cannot checkpoint {what}: {len} entries exceed the format's limit of {max}"
            ),
            CheckpointError::Io(e) => write!(f, "i/o error on checkpoint: {e}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
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

fn put_packets(
    buf: &mut Vec<u8>,
    windows: &[Vec<CsiPacket>],
    antennas: usize,
    subcarriers: usize,
) -> Result<(), CheckpointError> {
    buf.put_u32_le(len_u32("packet windows", windows.len())?);
    for w in windows {
        buf.put_u32_le(len_u32("packets in a window", w.len())?);
        for p in w {
            debug_assert!(
                p.antennas() == antennas && p.subcarriers() == subcarriers,
                "checkpointed packet shape diverges from profile"
            );
            buf.put_u64_le(p.seq);
            buf.put_f64_le(p.timestamp);
            // Each row is written into space sized up front: one length
            // check per row instead of two per entry.
            for a in 0..antennas {
                let row = &p.antenna_row(a)[..subcarriers];
                let start = buf.len();
                buf.resize(start + 16 * row.len(), 0);
                for (dst, z) in buf[start..].chunks_exact_mut(16).zip(row) {
                    dst[..8].copy_from_slice(&z.re.to_le_bytes());
                    dst[8..].copy_from_slice(&z.im.to_le_bytes());
                }
            }
        }
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
/// Trailer bytes after the image: the CRC-64.
const TRAILER: usize = 8;

/// Serializes a session snapshot into a checkpoint file: the image
/// followed by its CRC-64 trailer.
///
/// # Errors
/// See [`encode_image_into`].
pub fn encode_snapshot(snapshot: &SessionSnapshot) -> Result<Bytes, CheckpointError> {
    let mut file = Vec::new();
    encode_image_into(&snapshot.into(), &mut file)?;
    let checksum = crc64(&file);
    file.put_u64_le(checksum);
    Ok(Bytes::from(file))
}

/// Appends the checkpoint image of `parts` (header and payload, no
/// trailer) to `out`, so a session's state is encoded once, straight
/// into the buffer that will hold it.
///
/// All packet windows must share the profile's `(antennas,
/// subcarriers)` shape — the runtime guarantees this (every window
/// passed shape validation before being retained).
///
/// # Errors
/// [`CheckpointError::TooLarge`] when a collection exceeds its length
/// field's range (the format caps shapes at `u16` and window/packet
/// counts at `u32`). `out` is left as it was.
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
    let packet_bytes = 16 + antennas * subcarriers * 16;
    let packets: usize = snapshot
        .reservoir
        .iter()
        .chain(snapshot.shadow)
        .map(Vec::len)
        .sum();
    // The image is built in place: header (length patched below), then
    // payload, with room for the checksum that follows it.
    payload.reserve(IMAGE_HEADER + 4096 + packets * packet_bytes + TRAILER);
    payload.put_slice(MAGIC);
    payload.put_u16_le(VERSION);
    payload.put_u64_le(0);
    payload.put_u64_le(snapshot.cursor);
    payload.put_f64_le(snapshot.threshold);

    // Profile.
    payload.put_u16_le(len_u16("profile antennas", antennas)?);
    payload.put_u16_le(len_u16("profile subcarriers", subcarriers)?);
    for row in snapshot.profile.static_amplitude() {
        for &v in row {
            payload.put_f64_le(v);
        }
    }
    for &v in snapshot.profile.static_power() {
        payload.put_f64_le(v);
    }
    for r in snapshot.profile.static_covariances() {
        for z in r.as_slice() {
            payload.put_f64_le(z.re);
            payload.put_f64_le(z.im);
        }
    }
    let spectrum = snapshot.profile.static_spectrum();
    payload.put_u32_le(len_u32("spectrum angle grid", spectrum.angles_deg().len())?);
    for &a in spectrum.angles_deg() {
        payload.put_f64_le(a);
    }
    for &v in spectrum.values() {
        payload.put_f64_le(v);
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
        payload.put_f64_le(v);
    }

    // Sentinel.
    payload.put_f64_le(snapshot.sentinel.baseline_mean);
    payload.put_f64_le(snapshot.sentinel.baseline_std);
    payload.put_f64_le(snapshot.sentinel.ewma);
    payload.put_u8(snapshot.sentinel.state.as_u8());
    payload.put_u32_le(snapshot.sentinel.above_enter);
    payload.put_u32_le(snapshot.sentinel.below_exit);

    // Supervision.
    payload.put_u8(snapshot.mode.as_u8());
    payload.put_u32_le(snapshot.retries);
    payload.put_u64_le(snapshot.backoff_remaining);
    payload.put_u32_le(snapshot.watchdog_strikes);

    // Packet windows.
    put_packets(payload, snapshot.reservoir, antennas, subcarriers)?;
    put_packets(payload, snapshot.shadow, antennas, subcarriers)?;

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
        if self.buf.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }
}

/// Decodes 8 little-endian bytes (callers pass exactly 8).
fn f64_le(bytes: &[u8]) -> f64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(bytes);
    f64::from_le_bytes(raw)
}

fn read_windows(
    r: &mut Reader<'_>,
    antennas: usize,
    subcarriers: usize,
) -> Result<Vec<Vec<CsiPacket>>, CheckpointError> {
    let count = r.u32()? as usize;
    // Each window needs at least one length field; a count larger than
    // the remaining bytes is corruption, not an allocation request.
    if count > r.buf.remaining() {
        return Err(CheckpointError::Truncated);
    }
    let mut windows = Vec::with_capacity(count);
    for _ in 0..count {
        let n = r.u32()? as usize;
        let entry_bytes = antennas * subcarriers * 16;
        let per_packet = 16 + entry_bytes;
        if n.saturating_mul(per_packet) > r.buf.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut w = Vec::with_capacity(n);
        for _ in 0..n {
            let seq = r.u64()?;
            let timestamp = r.f64()?;
            r.need(entry_bytes)?;
            let (entries, rest) = r.buf.split_at(entry_bytes);
            r.buf = rest;
            let data = entries
                .chunks_exact(16)
                .map(|z| {
                    let (re, im) = z.split_at(8);
                    Complex64::new(f64_le(re), f64_le(im))
                })
                .collect();
            w.push(CsiPacket::new(antennas, subcarriers, data, seq, timestamp));
        }
        windows.push(w);
    }
    Ok(windows)
}

/// Deserializes a checkpoint file: verifies the CRC-64 trailer first,
/// then decodes the image.
///
/// `config` supplies the deployment constants (angular gate) needed to
/// re-derive the profile's path weights — restore must use the same
/// [`DetectorConfig`] the session was calibrated with.
///
/// # Errors
/// See [`CheckpointError`]; any single corrupted byte is caught by the
/// trailing checksum.
pub fn decode_snapshot(
    data: &[u8],
    config: &DetectorConfig,
) -> Result<SessionSnapshot, CheckpointError> {
    if data.len() < IMAGE_HEADER + TRAILER {
        return Err(CheckpointError::Truncated);
    }
    let (body, trailer) = data.split_at(data.len() - TRAILER);
    let stored = (&mut { trailer }).get_u64_le();
    let computed = crc64(body);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    decode_image(body, config)
}

/// Decodes a checkpoint image (header and payload, no trailer) whose
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
    let mut magic = [0u8; 4];
    r.need(4)?;
    r.buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let paylen = r.u64()? as usize;
    if paylen != r.buf.remaining() {
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
    if profile_bytes > r.buf.remaining() {
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
    if grid_len == 0 || grid_len.saturating_mul(16) > r.buf.remaining() {
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

    let reservoir = read_windows(&mut r, antennas, subcarriers)?;
    let shadow = read_windows(&mut r, antennas, subcarriers)?;
    if r.buf.remaining() != 0 {
        return Err(CheckpointError::Corrupt(format!(
            "{} trailing bytes after payload",
            r.buf.remaining()
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

/// Crash-safe checkpoint file handling: atomic write-rename plus a
/// retained previous-good file for corruption fallback.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    path: PathBuf,
}

impl CheckpointStore {
    /// Binds a store to a checkpoint path. `<path>.tmp` and `<path>.bak`
    /// siblings are used for staging and the previous good checkpoint.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointStore { path: path.into() }
    }

    /// The main checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn sibling(&self, suffix: &str) -> PathBuf {
        let mut name = self.path.as_os_str().to_os_string();
        name.push(suffix);
        PathBuf::from(name)
    }

    /// Whether a checkpoint (main or previous-good) exists on disk.
    pub fn exists(&self) -> bool {
        self.path.exists() || self.sibling(".bak").exists()
    }

    /// Atomically saves a snapshot: the image is written to `<path>.tmp`
    /// and fsynced, the current checkpoint (if any) is retained as
    /// `<path>.bak`, the temp file is renamed into place, and the parent
    /// directory is fsynced so the renames themselves are durable. A
    /// crash (or power cut) at any point leaves either the old or the
    /// new checkpoint loadable — the rename can never publish a file
    /// whose data blocks were still in the page cache.
    ///
    /// Transient IO errors (`Interrupted`, `WouldBlock`) are absorbed by
    /// a bounded deterministic retry instead of failing the session on
    /// the first occurrence.
    ///
    /// # Errors
    /// Propagates non-transient (or retry-exhausted) I/O failures.
    pub fn save(&self, snapshot: &SessionSnapshot) -> Result<(), CheckpointError> {
        let _stage = mpdf_obs::stage!("session.checkpoint");
        let bytes = encode_snapshot(snapshot)?;
        let tmp = self.sibling(".tmp");
        let retries = mpdf_obs::counter!("session.checkpoint_io_retries_total");
        retry_io(retries, || {
            let mut f = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut f, &bytes)?;
            f.sync_all()
        })?;
        if self.path.exists() {
            retry_io(retries, || {
                std::fs::rename(&self.path, self.sibling(".bak"))
            })?;
        }
        retry_io(retries, || std::fs::rename(&tmp, &self.path))?;
        retry_io(retries, || sync_parent_dir(&self.path))?;
        mpdf_obs::counter!("session.checkpoint_writes_total").inc();
        Ok(())
    }

    /// Loads the most recent good checkpoint: the main file first, and on
    /// corruption/truncation (or a missing main file) the previous good
    /// `.bak`. Returns the *primary* error when both fail to decode.
    ///
    /// # Errors
    /// See [`CheckpointError`]. A missing store (neither file exists)
    /// surfaces as [`CheckpointError::Io`] with `NotFound`.
    pub fn load(&self, config: &DetectorConfig) -> Result<SessionSnapshot, CheckpointError> {
        let primary = match std::fs::read(&self.path) {
            Ok(data) => match decode_snapshot(&data, config) {
                Ok(snap) => {
                    mpdf_obs::counter!("session.checkpoint_restores_total").inc();
                    return Ok(snap);
                }
                Err(e) => e,
            },
            Err(e) => CheckpointError::Io(e),
        };
        match std::fs::read(self.sibling(".bak")) {
            Ok(data) => match decode_snapshot(&data, config) {
                Ok(snap) => {
                    mpdf_obs::counter!("session.checkpoint_fallbacks_total").inc();
                    mpdf_obs::counter!("session.checkpoint_restores_total").inc();
                    Ok(snap)
                }
                Err(_) => Err(primary),
            },
            Err(_) => Err(primary),
        }
    }
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

    fn snapshot() -> SessionSnapshot {
        runtime().snapshot()
    }

    #[test]
    fn runtime_encoding_matches_the_snapshot_encoding_byte_for_byte() {
        let rt = runtime();
        let snap = rt.snapshot();
        // The image is appended after whatever the buffer already holds.
        let mut direct = b"prefix".to_vec();
        encode_image_into(&rt.snapshot_parts(), &mut direct).unwrap();
        let mut via_snapshot = Vec::new();
        encode_image_into(&(&snap).into(), &mut via_snapshot).unwrap();
        assert_eq!(&direct[..6], b"prefix");
        assert_eq!(&direct[6..], &via_snapshot[..]);
        // A file is the image plus its CRC-64 trailer.
        let file = encode_snapshot(&snap).unwrap();
        let (body, trailer) = file.split_at(file.len() - TRAILER);
        assert_eq!(body, &via_snapshot[..]);
        assert_eq!(trailer, crc64(body).to_le_bytes());
        let decoded = decode_image(&via_snapshot, rt.detector().config()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(&encode_snapshot(&decoded).unwrap()[..], &file[..]);
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
    fn encode_decode_roundtrip_is_exact() {
        let snap = snapshot();
        let bytes = encode_snapshot(&snap).unwrap();
        let decoded = decode_snapshot(&bytes, &DetectorConfig::default()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let snap = snapshot();
        let bytes = encode_snapshot(&snap).unwrap().to_vec();
        // The checksum catches each edit first (it covers the header);
        // fixing the checksum reveals the header check.
        let resealed = |at: usize, byte: u8| {
            let mut edited = bytes.clone();
            edited[at] = byte;
            let body_len = edited.len() - TRAILER;
            assert!(matches!(
                decode_snapshot(&edited, &DetectorConfig::default()),
                Err(CheckpointError::ChecksumMismatch { .. })
            ));
            let fixed = crc64(&edited[..body_len]).to_le_bytes();
            edited[body_len..].copy_from_slice(&fixed);
            decode_snapshot(&edited, &DetectorConfig::default())
        };
        assert!(matches!(resealed(0, b'X'), Err(CheckpointError::BadMagic)));
        assert!(matches!(
            resealed(4, 9),
            Err(CheckpointError::UnsupportedVersion(9))
        ));
        assert!(matches!(
            resealed(4, 1),
            Err(CheckpointError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn any_single_byte_corruption_is_a_checksum_mismatch() {
        let snap = snapshot();
        let bytes = encode_snapshot(&snap).unwrap().to_vec();
        // Probe a spread of positions including the trailer.
        let step = (bytes.len() / 37).max(1);
        for i in (0..bytes.len()).step_by(step) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x5a;
            assert!(
                matches!(
                    decode_snapshot(&corrupt, &DetectorConfig::default()),
                    Err(CheckpointError::ChecksumMismatch { .. })
                ),
                "byte {i} corruption not caught"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let snap = snapshot();
        let bytes = encode_snapshot(&snap).unwrap();
        for cut in [0usize, 10, 21, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_snapshot(&bytes[..cut], &DetectorConfig::default()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::ChecksumMismatch { .. }
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn store_saves_atomically_and_falls_back_to_previous_good() {
        let dir =
            std::env::temp_dir().join(format!("mpdf_ckpt_test_{}_{}", std::process::id(), line!()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("session.ckpt"));
        let cfg = DetectorConfig::default();

        assert!(!store.exists());
        assert!(matches!(
            store.load(&cfg),
            Err(CheckpointError::Io(ref e)) if e.kind() == std::io::ErrorKind::NotFound
        ));

        let mut rt = runtime();
        let first = rt.snapshot();
        store.save(&first).unwrap();
        assert!(store.exists());
        assert_eq!(store.load(&cfg).unwrap(), first);

        // Second save retains the first as previous-good.
        rt.step(&[]).unwrap_or_else(|_| unreachable!());
        let second = rt.snapshot();
        store.save(&second).unwrap();
        assert_eq!(store.load(&cfg).unwrap(), second);

        // Corrupt the main file: load falls back to the previous good.
        let mut data = std::fs::read(store.path()).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        std::fs::write(store.path(), &data).unwrap();
        assert_eq!(store.load(&cfg).unwrap(), first);

        // Corrupt the backup too: the primary (typed) error surfaces.
        let bak = store.sibling(".bak");
        std::fs::write(&bak, b"garbage").unwrap();
        assert!(matches!(
            store.load(&cfg),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        std::fs::remove_dir_all(&dir).ok();
    }
}
