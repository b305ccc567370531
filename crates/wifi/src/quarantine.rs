//! Packet quarantine — the validation pass between the receiver and the
//! detector.
//!
//! Real CSI streams contain garbage (see [`crate::fault`]); feeding it to
//! the detection pipeline either panics (NaN poisoning the phase fit) or
//! silently corrupts the calibration profile. The quarantine classifies
//! every packet before it reaches the detector:
//!
//! - [`PacketClass::Ok`] — all antenna rows healthy, no clipping.
//! - [`PacketClass::Degraded`] — at least `min_usable_antennas` healthy
//!   rows survive; the class carries which antennas are usable and which
//!   subcarriers saw AGC clipping so downstream can renormalize.
//! - [`PacketClass::Reject`] — unusable (no healthy rows, or a duplicate
//!   sequence number in stream mode).
//!
//! A row is unhealthy when it contains any non-finite sample, is entirely
//! zero (dead RF chain), or has more than `max_saturated_frac` of its
//! samples pinned at the AGC rail.

use crate::csi::CsiPacket;

/// Quarantine thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinePolicy {
    /// AGC rail amplitude in normalized CSI units; samples at or above
    /// it count as saturated. `f64::INFINITY` (the default) disables
    /// saturation screening.
    pub saturation_amp: f64,
    /// Fraction of saturated samples above which a row is unusable.
    pub max_saturated_frac: f64,
    /// Minimum healthy rows for a packet to be usable at all; below this
    /// the packet is rejected. Clamped to ≥ 1.
    pub min_usable_antennas: usize,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            saturation_amp: f64::INFINITY,
            max_saturated_frac: 0.5,
            min_usable_antennas: 1,
        }
    }
}

/// Why a packet was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Fewer than `min_usable_antennas` healthy rows.
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
    /// Usable with caveats.
    Degraded {
        /// Healthy antenna rows, ascending.
        usable_antennas: Vec<usize>,
        /// Per-subcarrier flag: `true` where a healthy row saw an
        /// AGC-saturated sample.
        clipped_subcarriers: Vec<bool>,
    },
    /// Unusable; drop it.
    Reject {
        /// Why.
        reason: RejectReason,
    },
}

impl PacketClass {
    /// True for [`PacketClass::Reject`].
    pub fn is_reject(&self) -> bool {
        matches!(self, PacketClass::Reject { .. })
    }
}

/// Classifies a single packet against the policy (stateless: duplicate
/// detection needs the streaming [`Quarantine`]).
///
/// Never panics, whatever garbage the packet holds — NaN/Inf samples,
/// all-zero rows and rail-pinned rows are exactly what it screens for.
pub fn classify(packet: &CsiPacket, policy: &QuarantinePolicy) -> PacketClass {
    let antennas = packet.antennas();
    let subcarriers = packet.subcarriers();
    let screen_saturation = policy.saturation_amp.is_finite() && policy.saturation_amp > 0.0;

    // Fast screen with no saturation policy: the common case is a
    // pristine packet, classified with a single allocation-free pass.
    if !screen_saturation {
        let all_rows_healthy = (0..antennas).all(|a| {
            let mut power = 0.0;
            for h in packet.antenna_row(a) {
                if !h.re.is_finite() || !h.im.is_finite() {
                    return false;
                }
                power += h.norm_sqr();
            }
            power > 0.0
        });
        if all_rows_healthy && antennas >= policy.min_usable_antennas.max(1) {
            return PacketClass::Ok;
        }
    }

    let mut usable = Vec::with_capacity(antennas);
    let mut clipped = vec![false; subcarriers];
    let mut row_clipped = vec![false; subcarriers];
    let mut any_clipped = false;

    for a in 0..antennas {
        let mut finite = true;
        let mut power = 0.0;
        let mut saturated = 0usize;
        for (flag, h) in row_clipped.iter_mut().zip(packet.antenna_row(a)) {
            *flag = false;
            if !h.re.is_finite() || !h.im.is_finite() {
                finite = false;
                break;
            }
            power += h.norm_sqr();
            if screen_saturation && h.norm() >= policy.saturation_amp * (1.0 - 1e-9) {
                saturated += 1;
                *flag = true;
            }
        }
        if !finite || power <= 0.0 {
            continue; // corrupt or dead chain
        }
        if saturated as f64 > policy.max_saturated_frac * subcarriers as f64 {
            continue; // rail-stuck chain
        }
        for (dst, &src) in clipped.iter_mut().zip(&row_clipped) {
            if src {
                *dst = true;
                any_clipped = true;
            }
        }
        usable.push(a);
    }

    if usable.len() < policy.min_usable_antennas.max(1) {
        return PacketClass::Reject {
            reason: RejectReason::NoUsableAntennas,
        };
    }
    if usable.len() == antennas && !any_clipped {
        return PacketClass::Ok;
    }
    PacketClass::Degraded {
        usable_antennas: usable,
        clipped_subcarriers: clipped,
    }
}

/// Streaming quarantine: per-packet classification plus duplicate
/// sequence-number detection, with obs counters
/// (`wifi.quarantine_rejects_total`, `wifi.quarantine_degraded_total`).
#[derive(Debug, Clone)]
pub struct Quarantine {
    policy: QuarantinePolicy,
    last_seq: Option<u64>,
}

impl Quarantine {
    /// Creates a stream quarantine with the given policy.
    pub fn new(policy: QuarantinePolicy) -> Self {
        Quarantine {
            policy,
            last_seq: None,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &QuarantinePolicy {
        &self.policy
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
        let class = classify(packet, &self.policy);
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
        assert_eq!(
            classify(&healthy(), &QuarantinePolicy::default()),
            PacketClass::Ok
        );
    }

    #[test]
    fn nan_row_degrades_to_surviving_antennas() {
        let p = with_row(healthy(), 1, Complex64::new(f64::NAN, 0.0));
        match classify(&p, &QuarantinePolicy::default()) {
            PacketClass::Degraded {
                usable_antennas, ..
            } => assert_eq!(usable_antennas, vec![0, 2]),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn zero_row_degrades() {
        let p = with_row(healthy(), 0, Complex64::ZERO);
        match classify(&p, &QuarantinePolicy::default()) {
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
            classify(&p, &QuarantinePolicy::default()),
            PacketClass::Reject {
                reason: RejectReason::NoUsableAntennas
            }
        );
    }

    #[test]
    fn min_usable_antennas_gates_rejection() {
        let p = with_row(healthy(), 0, Complex64::ZERO);
        let strict = QuarantinePolicy {
            min_usable_antennas: 3,
            ..QuarantinePolicy::default()
        };
        assert!(classify(&p, &strict).is_reject());
    }

    #[test]
    fn saturated_subcarriers_are_flagged() {
        let policy = QuarantinePolicy {
            saturation_amp: 0.7,
            ..QuarantinePolicy::default()
        };
        // Calm packet well below the rail.
        let calm = CsiPacket::new(3, 30, vec![Complex64::new(0.5, 0.0); 90], 0, 0.0);
        // A few clipped samples: degraded with a clip mask, rows usable.
        let mut p = calm.clone();
        for k in [3, 4] {
            *p.get_mut(0, k) = Complex64::from_polar(0.7, 0.1);
        }
        match classify(&p, &policy) {
            PacketClass::Degraded {
                usable_antennas,
                clipped_subcarriers,
            } => {
                assert_eq!(usable_antennas, vec![0, 1, 2]);
                assert!(clipped_subcarriers[3] && clipped_subcarriers[4]);
                assert_eq!(clipped_subcarriers.iter().filter(|&&c| c).count(), 2);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        // A fully rail-pinned row is unusable.
        let pinned = with_row(calm.clone(), 2, Complex64::from_polar(0.7, 0.0));
        match classify(&pinned, &policy) {
            PacketClass::Degraded {
                usable_antennas, ..
            } => assert_eq!(usable_antennas, vec![0, 1]),
            other => panic!("expected Degraded, got {other:?}"),
        }
        // Amplitudes below the rail never count as saturated.
        assert_eq!(classify(&calm, &policy), PacketClass::Ok);
    }

    #[test]
    fn stream_rejects_adjacent_duplicates() {
        let mut q = Quarantine::new(QuarantinePolicy::default());
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
            sat_amp in (0usize..2, 0.1f64..10.0)
                .prop_map(|(k, v)| if k == 0 { f64::INFINITY } else { v }),
        ) {
            let data: Vec<Complex64> = res
                .iter()
                .zip(&ims)
                .map(|(&re, &im)| Complex64::new(re, im))
                .collect();
            let p = CsiPacket::new(2, 5, data, 0, 0.0);
            let policy = QuarantinePolicy {
                saturation_amp: sat_amp,
                ..QuarantinePolicy::default()
            };
            match classify(&p, &policy) {
                PacketClass::Ok => {}
                PacketClass::Degraded { usable_antennas, clipped_subcarriers } => {
                    prop_assert!(!usable_antennas.is_empty());
                    prop_assert!(usable_antennas.iter().all(|&a| a < 2));
                    prop_assert_eq!(clipped_subcarriers.len(), 5);
                }
                PacketClass::Reject { reason } => {
                    prop_assert_eq!(reason, RejectReason::NoUsableAntennas);
                }
            }
        }
    }
}
