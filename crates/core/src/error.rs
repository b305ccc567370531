//! Error type of the detection pipeline.

use std::error::Error;
use std::fmt;

use mpdf_music::music::MusicError;
use mpdf_propagation::tracer::TraceError;

/// Errors produced by calibration and monitoring.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectError {
    /// A packet window was empty.
    EmptyWindow,
    /// Packets disagree with the configured band/array shape.
    ShapeMismatch {
        /// Expected `(antennas, subcarriers)`.
        expected: (usize, usize),
        /// Found `(antennas, subcarriers)`.
        found: (usize, usize),
    },
    /// Too few calibration packets for the requested windowing.
    InsufficientCalibration {
        /// Packets supplied.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// Fault-degraded window lost more packets than the gap budget
    /// allows; the window must be aborted, not scored.
    DegradedBeyondBudget {
        /// Packets lost or rejected within the window.
        lost: usize,
        /// The tolerance: the gap budget of 5 packets per window.
        budget: usize,
    },
    /// Too few receive chains survived quarantine for angle estimation:
    /// the window has no aperture to scan, however few packets it lost.
    ApertureLost {
        /// Antennas usable across the whole window.
        usable: usize,
        /// Antennas the scheme needs.
        needed: usize,
    },
    /// The receive chains that survived quarantine are not equispaced
    /// (a 4-chain array that lost an interior chain), so they form no
    /// uniform sub-array to scan.
    ApertureIrregular {
        /// Physical indices of the surviving chains, ascending.
        usable: Vec<usize>,
    },
    /// A constructor was handed parameters outside its documented domain
    /// (e.g. too few null scores, a non-positive shift, stickiness out of
    /// `[0.5, 1)`).
    InvalidConfig {
        /// What was wrong, in one human-readable clause.
        what: String,
    },
    /// A staged recalibration produced a profile that failed the rollback
    /// guard: scored against the retained null-window reservoir it
    /// realized a false-positive rate beyond the configured tolerance,
    /// so the previous profile stays in effect.
    RecalibrationRejected {
        /// False-positive rate the candidate profile realized on the
        /// reservoir.
        realized_fp: f64,
        /// Maximum tolerated reservoir false-positive rate.
        tolerance: f64,
    },
    /// Angle estimation failed.
    Music(MusicError),
    /// Ray tracing over the link geometry failed.
    Trace(TraceError),
}

impl DetectError {
    /// Whether this error is an abstention — a window the receiver lost
    /// outright ([`EmptyWindow`](DetectError::EmptyWindow)), the gap
    /// budget aborted ([`DegradedBeyondBudget`](DetectError::DegradedBeyondBudget))
    /// or that kept too few chains ([`ApertureLost`](DetectError::ApertureLost))
    /// or no uniform sub-array of them ([`ApertureIrregular`](DetectError::ApertureIrregular))
    /// — which callers skip, rather than a failure they propagate.
    pub fn is_abstention(&self) -> bool {
        matches!(
            self,
            DetectError::EmptyWindow
                | DetectError::DegradedBeyondBudget { .. }
                | DetectError::ApertureLost { .. }
                | DetectError::ApertureIrregular { .. }
        )
    }
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::EmptyWindow => write!(f, "packet window is empty"),
            DetectError::ShapeMismatch { expected, found } => write!(
                f,
                "packet shape {found:?} does not match configured {expected:?}"
            ),
            DetectError::InsufficientCalibration { got, need } => {
                write!(f, "calibration needs at least {need} packets, got {got}")
            }
            DetectError::DegradedBeyondBudget { lost, budget } => write!(
                f,
                "window degraded beyond budget: {lost} packets lost, budget {budget}"
            ),
            DetectError::ApertureLost { usable, needed } => write!(
                f,
                "window lost its aperture: {usable} usable antennas, {needed} needed"
            ),
            DetectError::ApertureIrregular { usable } => write!(
                f,
                "window lost its aperture: antennas {usable:?} are not equispaced"
            ),
            DetectError::InvalidConfig { what } => {
                write!(f, "invalid configuration: {what}")
            }
            DetectError::RecalibrationRejected {
                realized_fp,
                tolerance,
            } => write!(
                f,
                "recalibration rejected by rollback guard: reservoir FP {realized_fp:.4} exceeds tolerance {tolerance:.4}"
            ),
            DetectError::Music(e) => write!(f, "angle estimation failed: {e}"),
            DetectError::Trace(e) => write!(f, "link geometry is untraceable: {e}"),
        }
    }
}

impl Error for DetectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DetectError::Music(e) => Some(e),
            DetectError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MusicError> for DetectError {
    fn from(e: MusicError) -> Self {
        DetectError::Music(e)
    }
}

impl From<TraceError> for DetectError {
    fn from(e: TraceError) -> Self {
        DetectError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            DetectError::EmptyWindow.to_string(),
            "packet window is empty"
        );
        let e = DetectError::ShapeMismatch {
            expected: (3, 30),
            found: (2, 30),
        };
        assert!(e.to_string().contains("(2, 30)"));
        assert!(e.to_string().contains("(3, 30)"));
        let e = DetectError::InsufficientCalibration { got: 3, need: 50 };
        assert!(e.to_string().contains("at least 50"));
        assert!(e.to_string().contains("got 3"));
        let e = DetectError::DegradedBeyondBudget { lost: 7, budget: 5 };
        assert!(e.to_string().contains("7 packets lost"));
        assert!(e.to_string().contains("budget 5"));
        let e = DetectError::ApertureLost {
            usable: 1,
            needed: 2,
        };
        assert!(e.to_string().contains("1 usable antennas, 2 needed"));
        let e = DetectError::InvalidConfig {
            what: "stickiness must be in [0.5, 1)".into(),
        };
        assert!(e.to_string().contains("invalid configuration"));
        assert!(e.to_string().contains("stickiness"));
        let e = DetectError::RecalibrationRejected {
            realized_fp: 0.42,
            tolerance: 0.2,
        };
        assert!(e.to_string().contains("rollback guard"));
        assert!(e.to_string().contains("0.4200"));
        assert!(e.to_string().contains("0.2000"));
    }

    #[test]
    fn only_lost_degraded_and_apertureless_windows_abstain() {
        assert!(DetectError::EmptyWindow.is_abstention());
        assert!(DetectError::DegradedBeyondBudget { lost: 7, budget: 5 }.is_abstention());
        assert!(DetectError::ApertureLost {
            usable: 1,
            needed: 2
        }
        .is_abstention());
        assert!(!DetectError::InsufficientCalibration { got: 0, need: 1 }.is_abstention());
        assert!(!DetectError::ShapeMismatch {
            expected: (3, 30),
            found: (2, 30),
        }
        .is_abstention());
        assert!(!DetectError::Trace(TraceError::TxOutsideRoom).is_abstention());
    }

    #[test]
    fn music_display_embeds_inner_message() {
        let inner = MusicError::SignalDimTooLarge {
            sources: 2,
            elements: 2,
        };
        let e = DetectError::Music(inner.clone());
        let msg = e.to_string();
        assert!(msg.starts_with("angle estimation failed"), "{msg}");
        assert!(msg.contains(&inner.to_string()), "{msg}");
    }

    #[test]
    fn trace_display_embeds_inner_message() {
        let inner = TraceError::TxOutsideRoom;
        let e = DetectError::Trace(inner.clone());
        let msg = e.to_string();
        assert!(msg.starts_with("link geometry is untraceable"), "{msg}");
        assert!(msg.contains(&inner.to_string()), "{msg}");
    }

    #[test]
    fn music_error_is_source() {
        let inner = MusicError::SignalDimTooLarge {
            sources: 3,
            elements: 3,
        };
        let e = DetectError::from(inner.clone());
        assert_eq!(e, DetectError::Music(inner.clone()));
        let src = e.source().expect("wrapped error is the source");
        assert_eq!(src.to_string(), inner.to_string());
    }

    #[test]
    fn trace_error_is_source() {
        let inner = TraceError::UnsupportedOrder(7);
        let e = DetectError::from(inner.clone());
        assert_eq!(e, DetectError::Trace(inner.clone()));
        let src = e.source().expect("wrapped error is the source");
        assert_eq!(src.to_string(), inner.to_string());
    }

    #[test]
    fn leaf_variants_have_no_source() {
        assert!(DetectError::EmptyWindow.source().is_none());
        assert!(DetectError::ShapeMismatch {
            expected: (3, 30),
            found: (1, 30),
        }
        .source()
        .is_none());
        assert!(DetectError::InsufficientCalibration { got: 0, need: 1 }
            .source()
            .is_none());
        assert!(DetectError::DegradedBeyondBudget { lost: 3, budget: 2 }
            .source()
            .is_none());
        assert!(DetectError::ApertureLost {
            usable: 0,
            needed: 2
        }
        .source()
        .is_none());
        assert!(DetectError::InvalidConfig { what: "x".into() }
            .source()
            .is_none());
        assert!(DetectError::RecalibrationRejected {
            realized_fp: 0.5,
            tolerance: 0.1,
        }
        .source()
        .is_none());
    }

    #[test]
    fn question_mark_converts_both_inner_errors() {
        fn via_music() -> Result<(), DetectError> {
            Err(MusicError::SignalDimTooLarge {
                sources: 3,
                elements: 3,
            })?;
            Ok(())
        }
        fn via_trace() -> Result<(), DetectError> {
            Err(TraceError::CoincidentEndpoints)?;
            Ok(())
        }
        assert!(matches!(via_music(), Err(DetectError::Music(_))));
        assert!(matches!(via_trace(), Err(DetectError::Trace(_))));
    }
}
