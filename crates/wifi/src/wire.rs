//! Zero-copy binary CSI wire codec for streaming ingestion.
//!
//! The paper's monitoring loop is fed by the Intel 5300 CSI tool, which
//! emits a continuous record stream over a socket: per received frame,
//! a small header (sequence counter, timestamp, antenna/subcarrier
//! dimensions, AGC) followed by the raw I/Q samples. This module defines
//! the equivalent wire format for this stack and a decoder built for the
//! line-rate path:
//!
//! - **zero-copy** — [`WireRecord`] is a validating *view* borrowing the
//!   input buffer; samples are read in place via [`WireRecord::iq`] and
//!   nothing is materialized until the consumer asks for a
//!   [`CsiPacket`].
//! - **zero-alloc** — splitting and validating a frame allocates
//!   nothing (pinned by the `alloc-profile` test and the
//!   `wire/decode_frame` bench).
//! - **total** — wire bytes are untrusted; every malformed input maps to
//!   a typed [`WireError`], never a panic, and [`FrameSplitter`]
//!   resynchronizes on the next sync byte after corruption.
//!
//! Frame layout (all little-endian), modeled on the 5300 record — one
//! sync/code byte, an explicit length for stream splitting, then the
//! header fields the tool reports per frame:
//!
//! ```text
//! offset size field
//! 0      1    sync      0xBB (the CSI tool's record code)
//! 1      1    version   1
//! 2      4    len       u32: byte count of everything after this field
//! 6      8    seq       u64 packet sequence number
//! 14     8    timestamp f64 capture time in seconds
//! 22     1    antennas  u8, non-zero
//! 23     1    subcarriers u8, non-zero
//! 24     1    agc       u8 receiver gain step
//! 25     1    reserved  must be 0
//! 26     …    payload   antennas × subcarriers × (re f64, im f64),
//!                       row-major `[antenna][subcarrier]`, interleaved I/Q
//! ```
//!
//! `len` is always `20 + 16·antennas·subcarriers`; the decoder rejects
//! any frame whose declared length disagrees with its declared shape, so
//! a corrupt length field can never request an unbounded read. There is
//! no stream-level header: every frame is self-describing, so a receiver
//! can join a stream mid-flight and lock on at the next sync byte.
//!
//! The frame is the only byte layout of a [`CsiPacket`] in the
//! workspace. A capture file is a plain frame stream ([`encode_stream`]
//! writes it, [`drain_frames`] reads it back), and a stored window —
//! a shard-log window record, a session image's reservoir and shadow
//! windows — is a `u32` packet count followed by that many frames
//! ([`encode_window`] / [`decode_window`]).

use std::error::Error;
use std::fmt;

use mpdf_rfmath::complex::Complex64;

use crate::csi::CsiPacket;

/// Frame sync byte (the Intel CSI tool's CSI record code).
pub const SYNC: u8 = 0xBB;
/// Current wire format version.
pub const VERSION: u8 = 1;
/// Fixed byte count before the I/Q payload.
pub const HEADER_LEN: usize = 26;
/// Portion of the frame covered by the `len` field but before the
/// payload (seq + timestamp + shape/agc/reserved).
const HEADER_TAIL: usize = HEADER_LEN - 6;

/// Typed decode failures; wire bytes are untrusted, so every malformed
/// input lands here instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame does not start with the sync byte.
    BadSync(u8),
    /// The version field is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The header declares a zero-sized antenna/subcarrier grid.
    BadShape {
        /// Declared antenna count.
        antennas: u8,
        /// Declared subcarrier count.
        subcarriers: u8,
    },
    /// The reserved header byte is non-zero.
    NonZeroReserved(u8),
    /// The declared length disagrees with the declared shape.
    LengthMismatch {
        /// `len` field as read from the wire.
        declared: u32,
        /// Length implied by the declared shape.
        expected: u32,
    },
    /// The buffer ends before the frame does; `needed` bytes (from the
    /// frame start) would complete it. In a stream this is not
    /// corruption but "wait for more bytes".
    Truncated {
        /// Bytes needed from the start of the frame.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// Encode-side: the packet shape does not fit the wire header's
    /// `u8` dimensions.
    ShapeTooLarge {
        /// Packet antenna count.
        antennas: usize,
        /// Packet subcarrier count.
        subcarriers: usize,
    },
    /// Encode-side: a window holds more packets than its `u32` count
    /// field can carry.
    WindowTooLarge {
        /// Packets in the window.
        packets: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadSync(b) => write!(f, "bad sync byte {b:#04x} (expected {SYNC:#04x})"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadShape {
                antennas,
                subcarriers,
            } => write!(f, "frame declares an empty {antennas}×{subcarriers} grid"),
            WireError::NonZeroReserved(b) => write!(f, "reserved header byte is {b:#04x}"),
            WireError::LengthMismatch { declared, expected } => write!(
                f,
                "declared frame length {declared} disagrees with shape-implied {expected}"
            ),
            WireError::Truncated { needed, have } => {
                write!(f, "frame truncated: {have} of {needed} bytes")
            }
            WireError::ShapeTooLarge {
                antennas,
                subcarriers,
            } => write!(
                f,
                "packet shape {antennas}×{subcarriers} exceeds the wire header's u8 dimensions"
            ),
            WireError::WindowTooLarge { packets } => {
                write!(f, "window of {packets} packets exceeds the u32 count field")
            }
        }
    }
}

impl Error for WireError {}

fn read_u32_le(buf: &[u8], off: usize) -> u32 {
    let mut v = [0u8; 4];
    v.copy_from_slice(&buf[off..off + 4]);
    u32::from_le_bytes(v)
}

fn read_u64_le(buf: &[u8], off: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(v)
}

fn read_f64_le(buf: &[u8], off: usize) -> f64 {
    f64::from_bits(read_u64_le(buf, off))
}

/// A validated, zero-copy view of one wire frame.
///
/// Parsing reads only the fixed header; the I/Q payload stays in the
/// borrowed buffer and is decoded sample-by-sample on access, so a
/// consumer that drops a frame (quarantine, shape mismatch) never pays
/// for its payload.
#[derive(Debug, Clone, Copy)]
pub struct WireRecord<'a> {
    seq: u64,
    timestamp: f64,
    antennas: u8,
    subcarriers: u8,
    agc: u8,
    payload: &'a [u8],
}

impl<'a> WireRecord<'a> {
    /// Validates and parses one frame from the front of `buf`. Trailing
    /// bytes after the frame are ignored (use [`Self::frame_len`] to
    /// advance a stream cursor).
    ///
    /// # Errors
    /// Every malformed input maps to a [`WireError`];
    /// [`WireError::Truncated`] means the buffer is a proper prefix of a
    /// valid frame and more bytes may complete it.
    pub fn parse(buf: &'a [u8]) -> Result<WireRecord<'a>, WireError> {
        let have = buf.len();
        if have == 0 {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                have,
            });
        }
        if buf[0] != SYNC {
            return Err(WireError::BadSync(buf[0]));
        }
        if have < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                have,
            });
        }
        if buf[1] != VERSION {
            return Err(WireError::UnsupportedVersion(buf[1]));
        }
        let declared = read_u32_le(buf, 2);
        let antennas = buf[22];
        let subcarriers = buf[23];
        if antennas == 0 || subcarriers == 0 {
            return Err(WireError::BadShape {
                antennas,
                subcarriers,
            });
        }
        if buf[25] != 0 {
            return Err(WireError::NonZeroReserved(buf[25]));
        }
        // Shape is u8×u8, so the expected length is bounded (≈1 MiB) and
        // this comparison caps what a corrupt `len` can ever demand.
        let expected = (HEADER_TAIL + antennas as usize * subcarriers as usize * 16) as u32;
        if declared != expected {
            return Err(WireError::LengthMismatch { declared, expected });
        }
        let total = 6 + declared as usize;
        if have < total {
            return Err(WireError::Truncated {
                needed: total,
                have,
            });
        }
        Ok(WireRecord {
            seq: read_u64_le(buf, 6),
            timestamp: read_f64_le(buf, 14),
            antennas,
            subcarriers,
            agc: buf[24],
            payload: &buf[HEADER_LEN..total],
        })
    }

    /// Packet sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Capture timestamp in seconds.
    pub fn timestamp(&self) -> f64 {
        self.timestamp
    }

    /// Number of receive antennas.
    pub fn antennas(&self) -> usize {
        self.antennas as usize
    }

    /// Number of subcarriers per antenna.
    pub fn subcarriers(&self) -> usize {
        self.subcarriers as usize
    }

    /// Receiver AGC gain step reported for this frame.
    pub fn agc(&self) -> u8 {
        self.agc
    }

    /// Total encoded frame size in bytes (header + payload).
    pub fn frame_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Complex sample for `(antenna, subcarrier)`, decoded in place from
    /// the borrowed payload.
    ///
    /// # Panics
    /// Panics on out-of-range indices (caller bug, not wire input —
    /// every index below the validated dimensions is in range).
    pub fn iq(&self, antenna: usize, subcarrier: usize) -> Complex64 {
        assert!(
            antenna < self.antennas as usize && subcarrier < self.subcarriers as usize,
            "sample index out of the frame's declared shape"
        );
        let off = (antenna * self.subcarriers as usize + subcarrier) * 16;
        Complex64::new(
            read_f64_le(self.payload, off),
            read_f64_le(self.payload, off + 8),
        )
    }

    /// Materializes the frame as an owned [`CsiPacket`] (the one
    /// allocation on the ingest path, paid only for accepted frames).
    pub fn to_packet(&self) -> CsiPacket {
        let data = self
            .payload
            .chunks_exact(16)
            .map(|z| Complex64::new(read_f64_le(z, 0), read_f64_le(z, 8)))
            .collect();
        CsiPacket::new(
            self.antennas as usize,
            self.subcarriers as usize,
            data,
            self.seq,
            self.timestamp,
        )
    }
}

/// The packet's `(antennas, subcarriers)` as the header's `u8` fields:
/// whether [`encode_frame`] accepts it, checked without encoding.
///
/// # Errors
/// [`WireError::ShapeTooLarge`] when the packet dimensions do not fit
/// the header's `u8` fields.
pub fn frame_shape(packet: &CsiPacket) -> Result<(u8, u8), WireError> {
    let too_large = |_| WireError::ShapeTooLarge {
        antennas: packet.antennas(),
        subcarriers: packet.subcarriers(),
    };
    Ok((
        u8::try_from(packet.antennas()).map_err(too_large)?,
        u8::try_from(packet.subcarriers()).map_err(too_large)?,
    ))
}

/// Encodes one packet as a wire frame appended to `out`.
///
/// # Errors
/// [`WireError::ShapeTooLarge`] when the packet dimensions do not fit
/// the header's `u8` fields.
pub fn encode_frame(packet: &CsiPacket, agc: u8, out: &mut Vec<u8>) -> Result<(), WireError> {
    let (antennas, subcarriers) = frame_shape(packet)?;
    let payload = packet.antennas() * packet.subcarriers() * 16;
    let declared = (HEADER_TAIL + payload) as u32;
    out.reserve(6 + HEADER_TAIL + payload);
    out.push(SYNC);
    out.push(VERSION);
    out.extend_from_slice(&declared.to_le_bytes());
    out.extend_from_slice(&packet.seq.to_le_bytes());
    out.extend_from_slice(&packet.timestamp.to_bits().to_le_bytes());
    out.push(antennas);
    out.push(subcarriers);
    out.push(agc);
    out.push(0);
    // The payload is written into space sized up front: one length
    // check per row instead of two per sample.
    for a in 0..packet.antennas() {
        let row = packet.antenna_row(a);
        let start = out.len();
        out.resize(start + 16 * row.len(), 0);
        for (dst, z) in out[start..].chunks_exact_mut(16).zip(row) {
            dst[..8].copy_from_slice(&z.re.to_bits().to_le_bytes());
            dst[8..].copy_from_slice(&z.im.to_bits().to_le_bytes());
        }
    }
    Ok(())
}

/// Encodes a packet sequence as one contiguous wire stream.
///
/// # Errors
/// See [`encode_frame`].
pub fn encode_stream(packets: &[CsiPacket], agc: u8) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    for p in packets {
        encode_frame(p, agc, &mut out)?;
    }
    Ok(out)
}

/// Appends one stored window to `out`: its packet count as a `u32`,
/// then each packet as a frame with AGC 0.
///
/// # Errors
/// [`WireError::ShapeTooLarge`] for a packet the header cannot carry,
/// [`WireError::WindowTooLarge`] for more packets than the count field
/// holds; `out` is left as it was.
pub fn encode_window(packets: &[CsiPacket], out: &mut Vec<u8>) -> Result<(), WireError> {
    let count = u32::try_from(packets.len()).map_err(|_| WireError::WindowTooLarge {
        packets: packets.len(),
    })?;
    let start = out.len();
    out.extend_from_slice(&count.to_le_bytes());
    for p in packets {
        if let Err(e) = encode_frame(p, 0, out) {
            out.truncate(start);
            return Err(e);
        }
    }
    Ok(())
}

/// Decodes the stored window at the front of `buf` (see
/// [`encode_window`]): its packets and the bytes it spans. Total on any
/// input, and every allocation is bounded by the bytes left: a count
/// that many frame headers could not fit in is refused before the
/// packet vector is allocated.
///
/// # Errors
/// The first frame's [`WireError`]. [`WireError::Truncated`] counts
/// from the start of the window; for a count the bytes cannot hold,
/// `needed` is the least the declared frames could occupy.
pub fn decode_window(buf: &[u8]) -> Result<(Vec<CsiPacket>, usize), WireError> {
    let have = buf.len();
    if have < 4 {
        return Err(WireError::Truncated { needed: 4, have });
    }
    let count = read_u32_le(buf, 0) as usize;
    let needed = count.saturating_mul(HEADER_LEN).saturating_add(4);
    if needed > have {
        return Err(WireError::Truncated { needed, have });
    }
    let mut packets = Vec::with_capacity(count);
    let mut at = 4;
    for _ in 0..count {
        let frame = WireRecord::parse(&buf[at..]).map_err(|e| match e {
            WireError::Truncated { needed, have } => WireError::Truncated {
                needed: at + needed,
                have: at + have,
            },
            e => e,
        })?;
        packets.push(frame.to_packet());
        at += frame.frame_len();
    }
    Ok((packets, at))
}

/// One splitter step: a validated frame, or a run of bytes rejected
/// while resynchronizing.
#[derive(Debug)]
pub enum Split<'a> {
    /// A complete, validated frame.
    Frame(WireRecord<'a>),
    /// `skipped` bytes were discarded; `error` is the rejection that
    /// started the resync.
    Garbage {
        /// Bytes discarded before the next sync candidate.
        skipped: usize,
        /// Why the bytes were rejected.
        error: WireError,
    },
}

/// Splits a byte buffer into wire frames, resynchronizing on the next
/// sync byte after corruption.
///
/// The iterator stops (`None`) when the remaining bytes are a proper
/// prefix of a valid frame; [`FrameSplitter::consumed`] then tells the
/// caller how much of the buffer was processed so the partial tail can
/// be carried into the next read.
#[derive(Debug)]
pub struct FrameSplitter<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FrameSplitter<'a> {
    /// Starts splitting at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> FrameSplitter<'a> {
        FrameSplitter { buf, pos: 0 }
    }

    /// Bytes consumed so far (frames plus discarded garbage); after the
    /// iterator returns `None`, `buf[consumed()..]` is the partial tail.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// The unconsumed tail of the buffer.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

impl<'a> Iterator for FrameSplitter<'a> {
    type Item = Split<'a>;

    fn next(&mut self) -> Option<Split<'a>> {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return None;
        }
        if rest[0] != SYNC {
            // Scan to the next sync candidate; everything before it can
            // never start a frame.
            let skipped = rest.iter().position(|&b| b == SYNC).unwrap_or(rest.len());
            self.pos += skipped;
            return Some(Split::Garbage {
                skipped,
                error: WireError::BadSync(rest[0]),
            });
        }
        match WireRecord::parse(rest) {
            Ok(rec) => {
                self.pos += rec.frame_len();
                Some(Split::Frame(rec))
            }
            // A structurally consistent prefix: wait for more bytes.
            Err(WireError::Truncated { .. }) => None,
            // A sync byte starting an invalid header: discard it and
            // resync from the next byte.
            Err(error) => {
                self.pos += 1;
                Some(Split::Garbage { skipped: 1, error })
            }
        }
    }
}

/// Counters-on statistics of one [`drain_frames`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Bytes consumed from the buffer (the tail `buf[consumed..]` is a
    /// partial frame to carry over).
    pub consumed: usize,
    /// Frames decoded into packets.
    pub frames: u64,
    /// Resync events (corrupt frames / garbage runs rejected).
    pub rejects: u64,
}

/// Drains every complete frame in `buf` into `out` as owned packets,
/// updating the `wifi.wire.*` stream counters.
///
/// This is the stream-facing wrapper around [`FrameSplitter`]: corrupt
/// input is counted and skipped (`wifi.wire.rejects_total`), never
/// fatal, matching the quarantine layer's "classify, don't crash"
/// posture at the packet level.
pub fn drain_frames(buf: &[u8], out: &mut Vec<CsiPacket>) -> DrainStats {
    let mut splitter = FrameSplitter::new(buf);
    let mut stats = DrainStats::default();
    for item in &mut splitter {
        match item {
            Split::Frame(rec) => {
                out.push(rec.to_packet());
                stats.frames += 1;
            }
            Split::Garbage { .. } => stats.rejects += 1,
        }
    }
    stats.consumed = splitter.consumed();
    mpdf_obs::counter!("wifi.wire.frames_total").add(stats.frames);
    mpdf_obs::counter!("wifi.wire.rejects_total").add(stats.rejects);
    mpdf_obs::counter!("wifi.wire.bytes_total").add(stats.consumed as u64);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(seq: u64, antennas: usize, subcarriers: usize) -> CsiPacket {
        let data: Vec<Complex64> = (0..antennas * subcarriers)
            .map(|j| Complex64::new(seq as f64 + j as f64 * 0.25, -(j as f64) * 0.5))
            .collect();
        CsiPacket::new(antennas, subcarriers, data, seq, seq as f64 * 0.02)
    }

    #[test]
    fn frame_layout_is_as_documented() {
        let mut buf = Vec::new();
        encode_frame(&packet(3, 3, 30), 40, &mut buf).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 3 * 30 * 16);
        assert_eq!(buf[0], SYNC);
        assert_eq!(buf[1], VERSION);
        assert_eq!(read_u32_le(&buf, 2) as usize, buf.len() - 6);
        assert_eq!(buf[22], 3);
        assert_eq!(buf[23], 30);
        assert_eq!(buf[24], 40);
        assert_eq!(buf[25], 0);
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let original = packet(7, 3, 30);
        let mut buf = Vec::new();
        encode_frame(&original, 12, &mut buf).unwrap();
        let rec = WireRecord::parse(&buf).unwrap();
        assert_eq!(rec.seq(), 7);
        assert_eq!(rec.agc(), 12);
        assert_eq!(rec.antennas(), 3);
        assert_eq!(rec.subcarriers(), 30);
        assert_eq!(rec.frame_len(), buf.len());
        assert!(rec.to_packet().bits_eq(&original));
        assert_eq!(rec.iq(1, 2), original.get(1, 2));
    }

    #[test]
    fn parse_rejects_each_corruption_with_its_typed_error() {
        let mut buf = Vec::new();
        encode_frame(&packet(1, 2, 4), 0, &mut buf).unwrap();

        let mut bad = buf.clone();
        bad[0] = 0x11;
        assert_eq!(
            WireRecord::parse(&bad).unwrap_err(),
            WireError::BadSync(0x11)
        );

        let mut bad = buf.clone();
        bad[1] = 9;
        assert_eq!(
            WireRecord::parse(&bad).unwrap_err(),
            WireError::UnsupportedVersion(9)
        );

        let mut bad = buf.clone();
        bad[23] = 0;
        assert!(matches!(
            WireRecord::parse(&bad),
            Err(WireError::BadShape { .. })
        ));

        let mut bad = buf.clone();
        bad[25] = 5;
        assert_eq!(
            WireRecord::parse(&bad).unwrap_err(),
            WireError::NonZeroReserved(5)
        );

        let mut bad = buf.clone();
        bad[2] ^= 0x40;
        assert!(matches!(
            WireRecord::parse(&bad),
            Err(WireError::LengthMismatch { .. })
        ));

        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, buf.len() - 1] {
            assert!(
                matches!(
                    WireRecord::parse(&buf[..cut]),
                    Err(WireError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_shapes_fail_encoding() {
        let p = CsiPacket::new(1, 300, vec![Complex64::ZERO; 300], 0, 0.0);
        let mut out = Vec::new();
        assert!(matches!(
            encode_frame(&p, 0, &mut out),
            Err(WireError::ShapeTooLarge { .. })
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn splitter_walks_a_clean_stream() {
        let packets: Vec<CsiPacket> = (0..5).map(|i| packet(i, 2, 6)).collect();
        let buf = encode_stream(&packets, 7).unwrap();
        let mut splitter = FrameSplitter::new(&buf);
        let mut seqs = Vec::new();
        for item in &mut splitter {
            match item {
                Split::Frame(rec) => seqs.push(rec.seq()),
                Split::Garbage { .. } => unreachable!("clean stream"),
            }
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(splitter.consumed(), buf.len());
    }

    #[test]
    fn splitter_holds_partial_tails_for_more_bytes() {
        let buf = encode_stream(&[packet(0, 2, 6), packet(1, 2, 6)], 0).unwrap();
        let frame_len = buf.len() / 2;
        for cut in [frame_len + 1, frame_len + HEADER_LEN - 1, buf.len() - 1] {
            let mut splitter = FrameSplitter::new(&buf[..cut]);
            assert_eq!(
                splitter
                    .by_ref()
                    .filter(|s| matches!(s, Split::Frame(_)))
                    .count(),
                1
            );
            assert_eq!(splitter.consumed(), frame_len, "cut at {cut}");
            assert_eq!(splitter.rest().len(), cut - frame_len);
        }
    }

    #[test]
    fn splitter_resyncs_over_garbage_and_corrupt_frames() {
        let mut buf = vec![0x00, 0x01, 0x02]; // leading garbage, no sync
        let mut frames = encode_stream(&[packet(0, 2, 6), packet(1, 2, 6)], 0).unwrap();
        buf.append(&mut frames);
        buf[3 + 1] = 99; // corrupt first frame's version byte
        let mut decoded = Vec::new();
        let stats = drain_frames(&buf, &mut decoded);
        // Frame 0 is lost to the version corruption; frame 1 survives.
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].seq, 1);
        assert!(stats.rejects >= 2, "garbage run + corrupt frame: {stats:?}");
        assert_eq!(stats.consumed, buf.len());
        assert_eq!(stats.frames, 1);
    }

    #[test]
    fn drain_accumulates_across_chunk_boundaries() {
        let packets: Vec<CsiPacket> = (0..9).map(|i| packet(i, 3, 30)).collect();
        let buf = encode_stream(&packets, 0).unwrap();
        let mut tail: Vec<u8> = Vec::new();
        let mut decoded = Vec::new();
        for chunk in buf.chunks(101) {
            tail.extend_from_slice(chunk);
            let stats = drain_frames(&tail, &mut decoded);
            tail.drain(..stats.consumed);
        }
        assert!(tail.is_empty());
        assert_eq!(decoded.len(), packets.len());
        for (d, p) in decoded.iter().zip(&packets) {
            assert!(d.bits_eq(p));
        }
    }

    #[test]
    fn capture_round_trip_is_bit_identical() {
        // A capture file is a frame stream: mixed shapes are fine,
        // because every frame carries its own.
        let packets: Vec<CsiPacket> = (0..6).map(|i| packet(i, 1 + i as usize % 3, 30)).collect();
        let file = encode_stream(&packets, 0).unwrap();
        let mut decoded = Vec::new();
        let stats = drain_frames(&file, &mut decoded);
        assert_eq!(stats.rejects, 0);
        assert_eq!(stats.consumed, file.len());
        assert_eq!(decoded.len(), packets.len());
        for (d, p) in decoded.iter().zip(&packets) {
            assert!(d.bits_eq(p));
        }
    }

    #[test]
    fn window_is_a_count_then_frames_and_round_trips() {
        let packets: Vec<CsiPacket> = (0..4).map(|i| packet(i, 3, 30)).collect();
        let mut buf = b"head".to_vec();
        encode_window(&packets, &mut buf).unwrap();
        let window = &buf[4..];
        assert_eq!(read_u32_le(window, 0), 4);
        assert_eq!(&window[4..], &encode_stream(&packets, 0).unwrap()[..]);
        let mut tail = window.to_vec();
        tail.extend_from_slice(b"next");
        let (decoded, used) = decode_window(&tail).unwrap();
        assert_eq!(used, window.len());
        assert_eq!(decoded.len(), packets.len());
        for (d, p) in decoded.iter().zip(&packets) {
            assert!(d.bits_eq(p));
        }
        assert_eq!(decode_window(&0u32.to_le_bytes()).unwrap(), (vec![], 4));
    }

    #[test]
    fn window_errors_are_typed_and_count_from_the_window_start() {
        let mut buf = Vec::new();
        encode_window(&[packet(0, 2, 6), packet(1, 2, 6)], &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(
                matches!(
                    decode_window(&buf[..cut]),
                    Err(WireError::Truncated { have, .. }) if have == cut
                ),
                "cut at {cut}"
            );
        }
        // A count no byte run could hold is refused before the packet
        // vector is sized from it.
        let mut hostile = u32::MAX.to_le_bytes().to_vec();
        hostile.extend_from_slice(&buf[4..]);
        assert_eq!(
            decode_window(&hostile).unwrap_err(),
            WireError::Truncated {
                needed: 4 + u32::MAX as usize * HEADER_LEN,
                have: hostile.len()
            }
        );
        let mut bad = buf.clone();
        bad[4 + 1] = 9;
        assert_eq!(
            decode_window(&bad).unwrap_err(),
            WireError::UnsupportedVersion(9)
        );
    }

    #[test]
    fn a_window_that_cannot_be_encoded_leaves_the_buffer_alone() {
        let wide = CsiPacket::new(1, 300, vec![Complex64::ZERO; 300], 0, 0.0);
        let mut out = b"kept".to_vec();
        assert!(matches!(
            encode_window(&[packet(0, 2, 6), wide], &mut out),
            Err(WireError::ShapeTooLarge { .. })
        ));
        assert_eq!(out, b"kept");
    }

    #[test]
    fn decoder_is_total_on_handcrafted_hostile_inputs() {
        // A sync byte followed by a length field claiming u32::MAX must
        // be rejected by the shape/length cross-check, not read past the
        // buffer or overflow an offset computation.
        let mut hostile = vec![SYNC, VERSION];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&[0u8; HEADER_LEN]); // seq/ts/shape zeros
        assert!(matches!(
            WireRecord::parse(&hostile),
            Err(WireError::BadShape { .. })
        ));
        // All-sync bytes: every position resyncs by one, terminating.
        let all_sync = vec![SYNC; 64];
        let mut out = Vec::new();
        let stats = drain_frames(&all_sync, &mut out);
        assert_eq!(out.len(), 0);
        assert!(stats.consumed < all_sync.len(), "tail held as partial");
    }

    #[test]
    fn error_messages_name_the_failure() {
        assert!(WireError::BadSync(0x12).to_string().contains("0x12"));
        assert!(WireError::Truncated {
            needed: 26,
            have: 3
        }
        .to_string()
        .contains("3 of 26"));
        assert!(WireError::LengthMismatch {
            declared: 7,
            expected: 500
        }
        .to_string()
        .contains("500"));
        assert!(WireError::WindowTooLarge { packets: 9 }
            .to_string()
            .contains("9 packets"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Any f64 bit pattern the channel could hand us, including the
    /// specials a lossy link corrupts samples into.
    fn wild() -> impl Strategy<Value = f64> {
        (0usize..6, -1e12f64..1e12).prop_map(|(kind, v)| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            _ => v,
        })
    }

    fn arbitrary_packet() -> impl Strategy<Value = CsiPacket> {
        (
            1usize..5,
            1usize..40,
            0u64..=u64::MAX,
            wild(),
            proptest::collection::vec(wild(), 2 * 4 * 39),
        )
            .prop_map(|(antennas, subcarriers, seq, ts, floats)| {
                let data: Vec<Complex64> = floats
                    .chunks_exact(2)
                    .take(antennas * subcarriers)
                    .map(|p| Complex64::new(p[0], p[1]))
                    .collect();
                CsiPacket::new(antennas, subcarriers, data, seq, ts)
            })
    }

    proptest! {
        /// Encode→decode is a bit-identical round trip for any valid
        /// packet, including non-finite samples and timestamps: the wire
        /// carries raw f64 bit patterns, not values.
        #[test]
        fn round_trip_any_valid_packet(p in arbitrary_packet(), agc in 0u8..=255) {
            let mut buf = Vec::new();
            encode_frame(&p, agc, &mut buf).expect("u8-sized shapes encode");
            let rec = WireRecord::parse(&buf).expect("own encoding parses");
            assert_eq!(rec.frame_len(), buf.len());
            assert_eq!(rec.agc(), agc);
            assert!(rec.to_packet().bits_eq(&p));
        }

        /// Totality: the decoder never panics on arbitrary bytes — every
        /// input is Ok or a typed WireError, and the splitter always
        /// terminates with consumed() inside the buffer.
        #[test]
        fn decode_is_total_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
        ) {
            let _ = WireRecord::parse(&bytes);
            let mut splitter = FrameSplitter::new(&bytes);
            let mut steps = 0usize;
            while splitter.next().is_some() {
                steps += 1;
                assert!(steps <= bytes.len() + 1, "splitter must make progress");
            }
            assert!(splitter.consumed() <= bytes.len());
        }

        /// Totality under targeted corruption: flipping any single bit of
        /// a valid stream (or truncating it anywhere) never panics, and
        /// untouched frames after the corruption still decode.
        #[test]
        fn decode_survives_bit_flips_and_truncation(
            seq0 in 0u64..1000,
            flip_byte in 0usize..1000,
            flip_bit in 0u8..8,
            cut in 0usize..1000,
        ) {
            let packets: Vec<CsiPacket> = (0..3)
                .map(|i| {
                    let n = 2 * 6;
                    let data = (0..n)
                        .map(|j| Complex64::new(j as f64, -(j as f64)))
                        .collect();
                    CsiPacket::new(2, 6, data, seq0 + i, i as f64)
                })
                .collect();
            let mut buf = encode_stream(&packets, 1).expect("encodes");
            let idx = flip_byte % buf.len();
            buf[idx] ^= 1 << flip_bit;
            let mut out = Vec::new();
            let stats = drain_frames(&buf[..cut % (buf.len() + 1)], &mut out);
            assert!(stats.consumed <= buf.len());
            assert!(out.len() <= packets.len());
            // Payload flips change samples, never validity; header flips
            // cost at most the frames at and after the corruption.
            for p in &out {
                assert_eq!(p.antennas(), 2);
                assert_eq!(p.subcarriers(), 6);
            }
        }
    }
}
