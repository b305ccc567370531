//! Window-level graceful degradation (fault tolerance).
//!
//! Monitoring windows captured under injected receiver faults (see
//! `mpdf_wifi::fault`) arrive with NaN rows, dead chains, sequence gaps
//! and duplicated packets. [`assess_window`] runs the quarantine pass
//! over a window, drops unusable packets, reduces the survivors to the
//! common usable antenna subset, and reports the damage as a
//! [`WindowHealth`] the detection schemes use to adapt their scoring.
//!
//! On a pristine window the pass is a pure no-op: the returned packets
//! are byte-identical clones in the original order, so fault handling
//! costs the clean pipeline nothing but the classification scan.

use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::quarantine::{PacketClass, Quarantine};

use crate::error::DetectError;
use crate::profile::CalibrationProfile;

/// Most packets a monitoring window may lose (sequence gaps plus
/// quarantine rejects) before scoring aborts with
/// [`DetectError::DegradedBeyondBudget`]: 5 of a 25-packet window.
pub(crate) const GAP_BUDGET: usize = 5;

/// The damage report of one monitoring window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowHealth {
    /// Original antenna indices every surviving packet can still use.
    /// After antenna reduction, row `r` of a returned packet is the
    /// physical chain `usable_antennas[r]`.
    pub usable_antennas: Vec<usize>,
    /// Sequence gaps inside the window (packets lost upstream).
    pub gaps: usize,
    /// Packets rejected by quarantine (duplicates, no usable antennas).
    pub rejects: usize,
    /// True when any packet was dropped or reduced.
    pub degraded: bool,
    /// True when the antenna subset shrank: angle estimates run on a
    /// shorter aperture and carry widened uncertainty.
    pub widened_uncertainty: bool,
}

impl WindowHealth {
    /// A pristine window over `antennas` chains.
    pub fn clean(antennas: usize) -> Self {
        WindowHealth {
            usable_antennas: (0..antennas).collect(),
            gaps: 0,
            rejects: 0,
            degraded: false,
            widened_uncertainty: false,
        }
    }
}

/// Quarantines, orders and reduces one monitoring window.
///
/// Packets are classified in stream order; rejects are dropped, the
/// survivors are sorted by sequence number (stable — the identity on an
/// in-order capture), late duplicates are removed, and every packet is
/// reduced to the antenna subset usable across the whole window.
///
/// # Errors
/// - [`DetectError::EmptyWindow`] with no packets, or none surviving,
/// - [`DetectError::ShapeMismatch`] if packets disagree with the profile,
/// - [`DetectError::DegradedBeyondBudget`] when gaps + rejects exceed
///   the gap budget (5 packets), or no antenna survives every packet.
pub fn assess_window(
    profile: &CalibrationProfile,
    window: &[CsiPacket],
) -> Result<(Vec<CsiPacket>, WindowHealth), DetectError> {
    if window.is_empty() {
        return Err(DetectError::EmptyWindow);
    }
    let expected = (profile.antennas(), profile.subcarriers());
    for p in window {
        let found = (p.antennas(), p.subcarriers());
        if found != expected {
            return Err(DetectError::ShapeMismatch { expected, found });
        }
    }

    let mut quarantine = Quarantine::new();
    let mut kept: Vec<CsiPacket> = Vec::with_capacity(window.len());
    let mut usable: Vec<usize> = (0..profile.antennas()).collect();
    let mut rejects = 0usize;
    let mut any_packet_degraded = false;
    for p in window {
        match quarantine.classify(p) {
            PacketClass::Ok => kept.push(p.clone()),
            PacketClass::Degraded { usable_antennas } => {
                any_packet_degraded = true;
                usable.retain(|a| usable_antennas.contains(a));
                kept.push(p.clone());
            }
            PacketClass::Reject { .. } => rejects += 1,
        }
    }

    // Restore capture order and drop non-adjacent duplicates the
    // stream-level quarantine cannot see.
    kept.sort_by_key(|p| p.seq);
    let before = kept.len();
    kept.dedup_by_key(|p| p.seq);
    rejects += before - kept.len();

    let gaps = match (kept.first(), kept.last()) {
        (Some(first), Some(last)) => {
            let span = (last.seq - first.seq + 1) as usize;
            span.saturating_sub(kept.len())
        }
        _ => 0,
    };
    let lost = gaps + rejects;
    if lost > GAP_BUDGET {
        mpdf_obs::counter!("core.degraded_windows_total").inc();
        return Err(DetectError::DegradedBeyondBudget {
            lost,
            budget: GAP_BUDGET,
        });
    }
    if kept.is_empty() {
        return Err(DetectError::EmptyWindow);
    }
    if usable.is_empty() {
        // Every chain is corrupt in some surviving packet — there is no
        // consistent sub-array to score on.
        mpdf_obs::counter!("core.degraded_windows_total").inc();
        return Err(DetectError::DegradedBeyondBudget {
            lost: window.len(),
            budget: GAP_BUDGET,
        });
    }

    let widened = usable.len() < profile.antennas();
    if widened {
        for p in &mut kept {
            *p = p.select_antennas(&usable);
        }
    }
    let degraded = any_packet_degraded || rejects > 0 || gaps > 0 || widened;
    if degraded {
        mpdf_obs::counter!("core.degraded_windows_total").inc();
    }
    Ok((
        kept,
        WindowHealth {
            usable_antennas: usable,
            gaps,
            rejects,
            degraded,
            widened_uncertainty: widened,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DetectorConfig;
    use mpdf_rfmath::complex::Complex64;

    /// A calm 3×30 packet; `dead_rows` lists antennas overwritten with NaN.
    fn packet_with(seq: u64, dead_rows: &[usize]) -> CsiPacket {
        let mut data = Vec::with_capacity(90);
        for a in 0..3 {
            for k in 0..30 {
                data.push(if dead_rows.contains(&a) {
                    Complex64::new(f64::NAN, 0.0)
                } else {
                    Complex64::from_polar(0.5, 0.01 * (a * 30 + k) as f64)
                });
            }
        }
        CsiPacket::new(3, 30, data, seq, seq as f64 * 0.02)
    }

    fn packet(seq: u64) -> CsiPacket {
        packet_with(seq, &[])
    }

    fn profile() -> CalibrationProfile {
        let packets: Vec<CsiPacket> = (0..20).map(packet).collect();
        CalibrationProfile::build(&packets, &DetectorConfig::default()).unwrap()
    }

    #[test]
    fn clean_window_passes_through_unchanged() {
        let profile = profile();
        let window: Vec<CsiPacket> = (100..110).map(packet).collect();
        let (kept, health) = assess_window(&profile, &window).unwrap();
        assert_eq!(kept, window);
        assert_eq!(health, WindowHealth::clean(3));
        assert!(!health.degraded);
    }

    #[test]
    fn nan_row_shrinks_the_antenna_subset() {
        let profile = profile();
        let mut window: Vec<CsiPacket> = (0..10).map(packet).collect();
        window[3] = packet_with(3, &[1]);
        let (kept, health) = assess_window(&profile, &window).unwrap();
        assert_eq!(health.usable_antennas, vec![0, 2]);
        assert!(health.widened_uncertainty);
        assert!(health.degraded);
        assert_eq!(kept.len(), 10);
        for p in &kept {
            assert_eq!(p.antennas(), 2);
            for a in 0..2 {
                for k in 0..30 {
                    assert!(p.get(a, k).norm().is_finite());
                }
            }
        }
    }

    #[test]
    fn sequence_gaps_within_budget_are_tolerated() {
        let profile = profile();
        // 10 slots, 3 missing: gaps = 3 ≤ budget 5.
        let window: Vec<CsiPacket> = [0u64, 1, 2, 4, 6, 8, 9]
            .iter()
            .map(|&s| packet(s))
            .collect();
        let (kept, health) = assess_window(&profile, &window).unwrap();
        assert_eq!(kept.len(), 7);
        assert_eq!(health.gaps, 3);
        assert!(health.degraded);
        assert!(!health.widened_uncertainty);
    }

    #[test]
    fn gaps_beyond_budget_abort_with_typed_error() {
        let profile = profile();
        // Sequence span 20 with only 5 packets: 16 gaps > budget 5.
        let window: Vec<CsiPacket> = [0u64, 5, 10, 15, 20].iter().map(|&s| packet(s)).collect();
        let err = assess_window(&profile, &window).unwrap_err();
        assert_eq!(
            err,
            DetectError::DegradedBeyondBudget {
                lost: 16,
                budget: GAP_BUDGET
            }
        );
    }

    #[test]
    fn out_of_order_windows_are_resorted_and_deduped() {
        let profile = profile();
        let window: Vec<CsiPacket> = [2u64, 0, 1, 3, 1].iter().map(|&s| packet(s)).collect();
        let (kept, health) = assess_window(&profile, &window).unwrap();
        let seqs: Vec<u64> = kept.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(health.rejects, 1, "late duplicate dropped");
        assert!(health.degraded);
    }

    #[test]
    fn all_chains_corrupt_is_beyond_budget() {
        let profile = profile();
        // A different chain dies in each packet: empty intersection.
        let window = vec![
            packet_with(0, &[0]),
            packet_with(1, &[1]),
            packet_with(2, &[2]),
        ];
        let err = assess_window(&profile, &window).unwrap_err();
        assert!(matches!(err, DetectError::DegradedBeyondBudget { .. }));
    }

    #[test]
    fn empty_window_is_an_error() {
        let profile = profile();
        assert_eq!(assess_window(&profile, &[]), Err(DetectError::EmptyWindow));
    }
}
