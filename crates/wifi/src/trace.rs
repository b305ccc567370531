//! Binary CSI capture files.
//!
//! The paper's campaign stores raw CSI tool dumps and post-processes them
//! in MATLAB. This module provides the equivalent for this stack: a
//! compact, versioned binary format for packet captures, so campaigns can
//! be recorded once and replayed through different detectors offline (see
//! the `record`/`replay` examples).
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   b"MPDF"                     4 bytes
//! version u16                         2
//! antennas u16, subcarriers u16       4
//! count   u64                         8
//! per packet:
//!   seq u64, timestamp f64            16
//!   (re f64, im f64) × antennas×subcarriers
//! ```
//!
//! All packets in one capture share a shape — mixed-shape captures are
//! rejected at write time.

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

use mpdf_rfmath::complex::Complex64;

use crate::csi::CsiPacket;

/// File magic.
pub const MAGIC: &[u8; 4] = b"MPDF";
/// Current format version.
pub const VERSION: u16 = 1;

/// Error returned when decoding a capture.
#[derive(Debug)]
pub enum CaptureError {
    /// The stream does not start with the `MPDF` magic.
    BadMagic,
    /// The version field is unsupported.
    UnsupportedVersion(u16),
    /// The stream ended before the declared packet count.
    Truncated,
    /// The header declares a zero-sized shape.
    BadShape,
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::BadMagic => write!(f, "not an MPDF capture (bad magic)"),
            CaptureError::UnsupportedVersion(v) => write!(f, "unsupported capture version {v}"),
            CaptureError::Truncated => write!(f, "capture ends before declared packet count"),
            CaptureError::BadShape => write!(f, "capture declares an empty packet shape"),
            CaptureError::Io(e) => write!(f, "i/o error reading capture: {e}"),
        }
    }
}

impl Error for CaptureError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CaptureError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CaptureError {
    fn from(e: std::io::Error) -> Self {
        CaptureError::Io(e)
    }
}

/// Encodes a capture into a byte buffer.
///
/// # Panics
/// Panics if `packets` is empty or shapes are inconsistent — a capture of
/// nothing is a caller bug, not an I/O condition.
pub fn encode_capture(packets: &[CsiPacket]) -> Vec<u8> {
    assert!(!packets.is_empty(), "cannot encode an empty capture");
    let antennas = packets[0].antennas();
    let subcarriers = packets[0].subcarriers();
    assert!(
        packets
            .iter()
            .all(|p| p.antennas() == antennas && p.subcarriers() == subcarriers),
        "all packets in a capture must share a shape"
    );
    let per_packet = 16 + antennas * subcarriers * 16;
    let mut buf = Vec::with_capacity(18 + packets.len() * per_packet);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(antennas as u16).to_le_bytes());
    buf.extend_from_slice(&(subcarriers as u16).to_le_bytes());
    buf.extend_from_slice(&(packets.len() as u64).to_le_bytes());
    for p in packets {
        buf.extend_from_slice(&p.seq.to_le_bytes());
        buf.extend_from_slice(&p.timestamp.to_le_bytes());
        for a in 0..antennas {
            for k in 0..subcarriers {
                let z = p.get(a, k);
                buf.extend_from_slice(&z.re.to_le_bytes());
                buf.extend_from_slice(&z.im.to_le_bytes());
            }
        }
    }
    buf
}

/// Writes a capture to any writer.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_capture<W: Write>(mut w: W, packets: &[CsiPacket]) -> std::io::Result<()> {
    w.write_all(&encode_capture(packets))
}

/// Decodes a capture from a byte slice.
///
/// # Errors
/// See [`CaptureError`].
pub fn decode_capture(data: &[u8]) -> Result<Vec<CsiPacket>, CaptureError> {
    if data.len() < 18 {
        return Err(CaptureError::Truncated);
    }
    let (header, mut buf) = data.split_at(18);
    if &header[..4] != MAGIC {
        return Err(CaptureError::BadMagic);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(CaptureError::UnsupportedVersion(version));
    }
    let antennas = u16::from_le_bytes([header[6], header[7]]) as usize;
    let subcarriers = u16::from_le_bytes([header[8], header[9]]) as usize;
    if antennas == 0 || subcarriers == 0 {
        return Err(CaptureError::BadShape);
    }
    let count = le_u64(&header[10..]) as usize;
    let per_packet = 16 + antennas * subcarriers * 16;
    let mut packets = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        if buf.len() < per_packet {
            return Err(CaptureError::Truncated);
        }
        let (packet, rest) = buf.split_at(per_packet);
        buf = rest;
        let seq = le_u64(packet);
        let timestamp = f64::from_bits(le_u64(&packet[8..]));
        let data = packet[16..]
            .chunks_exact(16)
            .map(|z| Complex64::new(f64::from_bits(le_u64(z)), f64::from_bits(le_u64(&z[8..]))))
            .collect();
        packets.push(CsiPacket::new(antennas, subcarriers, data, seq, timestamp));
    }
    Ok(packets)
}

/// Decodes the first 8 bytes of `bytes` (callers pass at least 8) as a
/// little-endian `u64`.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(raw)
}

/// Reads a capture from any reader.
///
/// # Errors
/// See [`CaptureError`].
pub fn read_capture<R: Read>(mut r: R) -> Result<Vec<CsiPacket>, CaptureError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    decode_capture(&data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packets(n: usize) -> Vec<CsiPacket> {
        (0..n)
            .map(|i| {
                let data: Vec<Complex64> = (0..90)
                    .map(|j| Complex64::new(i as f64 + j as f64 * 0.01, -(j as f64)))
                    .collect();
                CsiPacket::new(3, 30, data, i as u64, i as f64 * 0.02)
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = packets(7);
        let bytes = encode_capture(&original);
        let decoded = decode_capture(&bytes).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn io_round_trip() {
        let original = packets(3);
        let mut file = Vec::new();
        write_capture(&mut file, &original).unwrap();
        let decoded = read_capture(file.as_slice()).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_capture(&packets(1));
        bytes[0] = b'X';
        assert!(matches!(
            decode_capture(&bytes),
            Err(CaptureError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_capture(&packets(1));
        bytes[4] = 9;
        assert!(matches!(
            decode_capture(&bytes),
            Err(CaptureError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_capture(&packets(4));
        for cut in [3usize, 17, 30, bytes.len() - 1] {
            assert!(
                matches!(decode_capture(&bytes[..cut]), Err(CaptureError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn header_size_is_as_documented() {
        let bytes = encode_capture(&packets(1));
        // 18-byte header + one packet of 16 + 90·16 bytes.
        assert_eq!(bytes.len(), 18 + 16 + 90 * 16);
    }

    #[test]
    #[should_panic(expected = "share a shape")]
    fn mixed_shapes_panic() {
        let mut v = packets(1);
        v.push(CsiPacket::new(2, 30, vec![Complex64::ZERO; 60], 0, 0.0));
        let _ = encode_capture(&v);
    }

    #[test]
    fn error_messages() {
        assert_eq!(
            CaptureError::BadMagic.to_string(),
            "not an MPDF capture (bad magic)"
        );
        assert!(CaptureError::UnsupportedVersion(3)
            .to_string()
            .contains("version 3"));
    }
}
