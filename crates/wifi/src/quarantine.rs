//! Packet quarantine — the validation pass between the receiver and the
//! detector.
//!
//! Real CSI streams contain garbage (see [`crate::fault`]); feeding it to
//! the detection pipeline either panics (NaN poisoning the phase fit) or
//! silently corrupts the calibration profile. The quarantine classifies
//! every packet before it reaches the detector:
//!
//! - [`PacketClass::Ok`] — all antenna rows healthy.
//! - [`PacketClass::Degraded`] — at least one healthy row survives; the
//!   class carries which antennas are usable.
//! - [`PacketClass::Reject`] — unusable (no healthy rows, or a duplicate
//!   sequence number in stream mode).
//!
//! A row is unhealthy when it contains any non-finite sample or is
//! entirely zero (dead RF chain). AGC clipping is not screened: a
//! clipped sample is finite, and unclipped packets of a strong link
//! carry the same amplitudes as the clip level, so no amplitude rail
//! could tell the two apart; an AGC-clipped packet is scored as
//! captured.

use crate::csi::CsiPacket;

/// Why a packet was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// No healthy antenna row.
    NoUsableAntennas,
    /// Same sequence number as the previous packet in the stream.
    DuplicateSeq,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::NoUsableAntennas => write!(f, "no usable antennas"),
            RejectReason::DuplicateSeq => write!(f, "duplicate sequence number"),
        }
    }
}

/// Verdict of the quarantine pass for one packet.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketClass {
    /// Fully healthy.
    Ok,
    /// Usable on a subset of its antennas.
    Degraded {
        /// Healthy antenna rows, ascending.
        usable_antennas: Vec<usize>,
    },
    /// Unusable; drop it.
    Reject {
        /// Why.
        reason: RejectReason,
    },
}

/// True when antenna row `a` of `packet` is finite and not all zero.
fn row_is_healthy(packet: &CsiPacket, a: usize) -> bool {
    let mut power = 0.0;
    for h in packet.antenna_row(a) {
        if !h.re.is_finite() || !h.im.is_finite() {
            return false;
        }
        power += h.norm_sqr();
    }
    power > 0.0
}

/// Classifies a single packet (stateless: duplicate detection needs the
/// streaming [`Quarantine`]).
///
/// Never panics, whatever garbage the packet holds — NaN/Inf samples and
/// all-zero rows are exactly what it screens for.
pub fn classify(packet: &CsiPacket) -> PacketClass {
    let antennas = packet.antennas();
    // The common case is a pristine packet, classified with a single
    // allocation-free pass.
    if antennas >= 1 && (0..antennas).all(|a| row_is_healthy(packet, a)) {
        return PacketClass::Ok;
    }
    let usable: Vec<usize> = (0..antennas)
        .filter(|&a| row_is_healthy(packet, a))
        .collect();
    if usable.is_empty() {
        return PacketClass::Reject {
            reason: RejectReason::NoUsableAntennas,
        };
    }
    PacketClass::Degraded {
        usable_antennas: usable,
    }
}

/// Streaming quarantine: per-packet classification plus duplicate
/// sequence-number detection, with obs counters
/// (`wifi.quarantine_rejects_total`, `wifi.quarantine_degraded_total`).
#[derive(Debug, Clone, Default)]
pub struct Quarantine {
    last_seq: Option<u64>,
}

impl Quarantine {
    /// Creates a stream quarantine that has seen no packet yet.
    pub fn new() -> Self {
        Quarantine::default()
    }

    /// Classifies the next packet in stream order. A packet repeating the
    /// previous sequence number is rejected as a duplicate delivery
    /// (out-of-order packets are *not* rejected — reordering is handled
    /// by seq-sorting downstream).
    pub fn classify(&mut self, packet: &CsiPacket) -> PacketClass {
        if self.last_seq == Some(packet.seq) {
            mpdf_obs::counter!("wifi.quarantine_rejects_total").inc();
            mpdf_obs::counter!("wifi.quarantine_duplicates_total").inc();
            return PacketClass::Reject {
                reason: RejectReason::DuplicateSeq,
            };
        }
        self.last_seq = Some(packet.seq);
        let class = classify(packet);
        match &class {
            PacketClass::Ok => {}
            PacketClass::Degraded { .. } => {
                mpdf_obs::counter!("wifi.quarantine_degraded_total").inc();
            }
            PacketClass::Reject { .. } => {
                mpdf_obs::counter!("wifi.quarantine_rejects_total").inc();
            }
        }
        class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_rfmath::complex::Complex64;

    fn healthy() -> CsiPacket {
        CsiPacket::new(3, 30, vec![Complex64::ONE; 90], 0, 0.0)
    }

    fn with_row(mut p: CsiPacket, a: usize, v: Complex64) -> CsiPacket {
        for k in 0..p.subcarriers() {
            *p.get_mut(a, k) = v;
        }
        p
    }

    #[test]
    fn clean_packet_is_ok() {
        assert_eq!(classify(&healthy()), PacketClass::Ok);
    }

    #[test]
    fn nan_row_degrades_to_surviving_antennas() {
        let p = with_row(healthy(), 1, Complex64::new(f64::NAN, 0.0));
        match classify(&p) {
            PacketClass::Degraded {
                usable_antennas, ..
            } => assert_eq!(usable_antennas, vec![0, 2]),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn zero_row_degrades() {
        let p = with_row(healthy(), 0, Complex64::ZERO);
        match classify(&p) {
            PacketClass::Degraded {
                usable_antennas, ..
            } => assert_eq!(usable_antennas, vec![1, 2]),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn all_rows_corrupt_rejects() {
        let mut p = healthy();
        for a in 0..3 {
            p = with_row(p, a, Complex64::new(f64::INFINITY, 0.0));
        }
        assert_eq!(
            classify(&p),
            PacketClass::Reject {
                reason: RejectReason::NoUsableAntennas
            }
        );
    }

    #[test]
    fn stream_rejects_adjacent_duplicates() {
        let mut q = Quarantine::new();
        let mut a = healthy();
        a.seq = 5;
        let mut b = healthy();
        b.seq = 5;
        let mut c = healthy();
        c.seq = 4; // out of order, but not a duplicate
        assert_eq!(q.classify(&a), PacketClass::Ok);
        assert_eq!(
            q.classify(&b),
            PacketClass::Reject {
                reason: RejectReason::DuplicateSeq
            }
        );
        assert_eq!(q.classify(&c), PacketClass::Ok);
    }

    #[test]
    fn reject_reasons_display() {
        assert_eq!(
            RejectReason::NoUsableAntennas.to_string(),
            "no usable antennas"
        );
        assert_eq!(
            RejectReason::DuplicateSeq.to_string(),
            "duplicate sequence number"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mpdf_rfmath::complex::Complex64;
    use proptest::prelude::*;

    /// Any f64 including NaN/Inf/zero — the garbage classification must
    /// survive.
    fn wild() -> impl Strategy<Value = f64> {
        (0usize..5, -1e12f64..1e12).prop_map(|(kind, v)| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            _ => v,
        })
    }

    proptest! {
        /// Quarantine classification never panics, whatever the packet
        /// holds, and its verdict is internally consistent.
        #[test]
        fn classify_never_panics(
            res in proptest::collection::vec(wild(), 2 * 5),
            ims in proptest::collection::vec(wild(), 2 * 5),
        ) {
            let data: Vec<Complex64> = res
                .iter()
                .zip(&ims)
                .map(|(&re, &im)| Complex64::new(re, im))
                .collect();
            let p = CsiPacket::new(2, 5, data, 0, 0.0);
            match classify(&p) {
                PacketClass::Ok => {}
                PacketClass::Degraded { usable_antennas } => {
                    prop_assert!(!usable_antennas.is_empty());
                    prop_assert!(usable_antennas.len() < 2);
                    prop_assert!(usable_antennas.iter().all(|&a| a < 2));
                }
                PacketClass::Reject { reason } => {
                    prop_assert_eq!(reason, RejectReason::NoUsableAntennas);
                }
            }
        }
    }
}
