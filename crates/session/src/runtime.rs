//! The supervised long-running detection loop.
//!
//! [`SessionRuntime`] wraps a calibrated [`Detector`] and runs it window
//! by window for days, adding the lifecycle machinery a deployment needs:
//!
//! 1. every window is scored through the PR-4 quarantine/degradation
//!    stack; windows aborted by the gap budget become *abstentions*, and
//!    a run of consecutive abstentions beyond the watchdog budget
//!    freezes adaptation (the link is too sick to learn from);
//! 2. an HMM forward posterior is carried across windows and gates the
//!    statistics feed: only windows with `P(present) < vacancy_eps` (and
//!    a clean, non-degraded score) reach the drift sentinel, the null
//!    reservoir and the shadow calibration buffer — an occupied room
//!    must never become the new baseline;
//! 3. on sustained [`DriftState::Drifting`] (or `Broken`) the runtime
//!    accumulates vacancy-gated windows into a shadow buffer and stages
//!    a recalibration: rebuild the profile, re-derive the threshold at
//!    the pinned false-positive target, then run the **rollback guard**
//!    — the candidate must keep the retained null-window reservoir's
//!    false-positive rate within tolerance, else the swap is refused
//!    with [`DetectError::RecalibrationRejected`] and retried under
//!    window-counted exponential backoff;
//! 4. after `max_retries` consecutive rejections the session degrades to
//!    frozen-profile mode: it keeps detecting with the last good
//!    profile, it just stops adapting.
//!
//! Everything is deterministic and clock-free, so a session restored
//! from a [`crate::checkpoint`] continues bit-identically.

use mpdf_core::detector::{Decision, Detector};
use mpdf_core::error::DetectError;
use mpdf_core::hmm::HmmSmoother;
use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
use mpdf_core::scheme::DetectionScheme;
use mpdf_core::threshold::{static_score_distribution, threshold_for_fp};
use mpdf_wifi::csi::CsiPacket;

use crate::sentinel::{DriftSentinel, DriftState, SentinelConfig, SentinelSnapshot};

/// Staged-recalibration policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RecalPolicy {
    /// Master switch. Off by default: adaptation is opt-in, and a runtime
    /// with recalibration disabled is arithmetically identical to a bare
    /// frozen-profile `Detector` loop.
    pub enabled: bool,
    /// Vacancy-gated windows accumulated into the shadow buffer before a
    /// recalibration is staged (split half/half into profile-build and
    /// threshold-holdout packets, like initial calibration). At least 2.
    pub shadow_windows: usize,
    /// Rollback guard: maximum false-positive rate the candidate profile
    /// may realize on the retained null-window reservoir.
    pub guard_fp_tolerance: f64,
    /// Consecutive guard rejections tolerated before the session degrades
    /// to frozen-profile mode.
    pub max_retries: u32,
    /// Backoff after the first rejection, counted in windows.
    pub backoff_base_windows: u64,
    /// Backoff ceiling (the exponential doubling saturates here).
    pub backoff_cap_windows: u64,
}

impl Default for RecalPolicy {
    fn default() -> Self {
        RecalPolicy {
            enabled: false,
            shadow_windows: 12,
            guard_fp_tolerance: 0.35,
            max_retries: 3,
            backoff_base_windows: 8,
            backoff_cap_windows: 64,
        }
    }
}

/// Session-level configuration wrapped around a detector.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Pinned false-positive target; both the initial threshold and every
    /// recalibrated threshold are derived at this operating point.
    pub target_fp: f64,
    /// Vacancy gate: a window feeds the baseline statistics only when the
    /// HMM posterior `P(present)` is strictly below this value.
    pub vacancy_eps: f64,
    /// Drift-sentinel tuning.
    pub sentinel: SentinelConfig,
    /// Staged-recalibration policy.
    pub recalibration: RecalPolicy,
    /// Watchdog: consecutive abstained (unscorable) windows tolerated
    /// before adaptation freezes. Deadlines are counted in windows, not
    /// wall time, to keep the runtime deterministic.
    pub watchdog_budget: u32,
    /// Null-window reservoir size retained for the rollback guard.
    pub reservoir_windows: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            target_fp: 0.1,
            vacancy_eps: 0.2,
            sentinel: SentinelConfig::default(),
            recalibration: RecalPolicy::default(),
            watchdog_budget: 8,
            reservoir_windows: 16,
        }
    }
}

impl SessionConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] on out-of-domain parameters.
    pub fn validate(&self) -> Result<(), DetectError> {
        if self.target_fp <= 0.0 || self.target_fp >= 1.0 || self.target_fp.is_nan() {
            return Err(DetectError::InvalidConfig {
                what: format!("target_fp must be in (0, 1), got {}", self.target_fp),
            });
        }
        if self.vacancy_eps <= 0.0 || self.vacancy_eps > 1.0 || self.vacancy_eps.is_nan() {
            return Err(DetectError::InvalidConfig {
                what: format!("vacancy_eps must be in (0, 1], got {}", self.vacancy_eps),
            });
        }
        self.sentinel.validate()?;
        if self.recalibration.shadow_windows < 2 {
            return Err(DetectError::InvalidConfig {
                what: format!(
                    "shadow_windows must be at least 2, got {}",
                    self.recalibration.shadow_windows
                ),
            });
        }
        let tol = self.recalibration.guard_fp_tolerance;
        if !(0.0..1.0).contains(&tol) || tol.is_nan() {
            return Err(DetectError::InvalidConfig {
                what: format!("guard_fp_tolerance must be in [0, 1), got {tol}"),
            });
        }
        if self.recalibration.backoff_base_windows == 0 {
            return Err(DetectError::InvalidConfig {
                what: "backoff_base_windows must be at least 1".to_string(),
            });
        }
        if self.watchdog_budget == 0 {
            return Err(DetectError::InvalidConfig {
                what: "watchdog_budget must be at least 1".to_string(),
            });
        }
        if self.reservoir_windows == 0 {
            return Err(DetectError::InvalidConfig {
                what: "reservoir_windows must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Supervision mode of the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMode {
    /// Adapting normally.
    Normal,
    /// Adaptation disabled (watchdog trip or exhausted recalibration
    /// retries); detection continues on the last good profile.
    Frozen,
}

impl SessionMode {
    /// Stable on-disk encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            SessionMode::Normal => 0,
            SessionMode::Frozen => 1,
        }
    }

    /// Inverse of [`SessionMode::as_u8`].
    pub fn from_u8(tag: u8) -> Option<SessionMode> {
        match tag {
            0 => Some(SessionMode::Normal),
            1 => Some(SessionMode::Frozen),
            _ => None,
        }
    }
}

/// What the recalibration state machine did in a window, if anything.
#[derive(Debug, Clone, PartialEq)]
pub enum RecalOutcome {
    /// A staged recalibration passed the rollback guard and was swapped
    /// in atomically.
    Accepted {
        /// The re-derived threshold at the pinned FP target.
        new_threshold: f64,
    },
    /// The rollback guard refused the candidate profile; the previous
    /// profile stays in effect.
    Rejected {
        /// The typed rejection (or pipeline error) raised.
        error: DetectError,
        /// Windows to wait before the next attempt.
        backoff_windows: u64,
    },
    /// Supervision degraded the session to frozen-profile mode.
    Frozen,
}

/// One supervised session step.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDecision {
    /// Zero-based window index within the session (the seq cursor).
    pub window: u64,
    /// The detector's decision, or `None` when the window was abstained
    /// (degraded beyond the gap budget or fully lost).
    pub decision: Option<Decision>,
    /// HMM posterior `P(present)` after this window.
    pub posterior: f64,
    /// Whether the vacancy gate admitted this window to the baseline
    /// statistics feed.
    pub vacant: bool,
    /// Drift-sentinel classification after this window.
    pub drift: DriftState,
    /// Supervision mode after this window.
    pub mode: SessionMode,
    /// Recalibration activity in this window, if any.
    pub recal: Option<RecalOutcome>,
}

/// Complete dynamic state of a session, as stored in checkpoints.
///
/// The detection scheme and the static [`DetectorConfig`] /
/// [`SessionConfig`] are *not* part of the snapshot — a restore must
/// supply the same ones it was calibrated with (they are compile-time /
/// deployment constants, not runtime state).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Next window index (seq cursor).
    pub cursor: u64,
    /// Decision threshold in effect.
    pub threshold: f64,
    /// Calibration profile in effect.
    pub profile: CalibrationProfile,
    /// HMM smoother in effect (refit on accepted recalibration).
    pub hmm: HmmSmoother,
    /// Carried HMM posterior.
    pub posterior: f64,
    /// Drift-sentinel state.
    pub sentinel: SentinelSnapshot,
    /// Supervision mode.
    pub mode: SessionMode,
    /// Consecutive rollback-guard rejections.
    pub retries: u32,
    /// Windows remaining in the current backoff.
    pub backoff_remaining: u64,
    /// Consecutive abstained windows.
    pub watchdog_strikes: u32,
    /// Retained null-window reservoir (rollback guard input).
    pub reservoir: Vec<Vec<CsiPacket>>,
    /// Shadow calibration buffer accumulated so far.
    pub shadow: Vec<Vec<CsiPacket>>,
}

/// A supervised, drift-aware, checkpointable detection session.
#[derive(Debug, Clone)]
pub struct SessionRuntime<S> {
    detector: Detector<S>,
    scheme: S,
    session: SessionConfig,
    hmm: HmmSmoother,
    posterior: f64,
    sentinel: DriftSentinel,
    mode: SessionMode,
    retries: u32,
    backoff_remaining: u64,
    watchdog_strikes: u32,
    cursor: u64,
    reservoir: Vec<Vec<CsiPacket>>,
    shadow: Vec<Vec<CsiPacket>>,
}

impl<S: DetectionScheme + Clone> SessionRuntime<S> {
    /// Calibrates a session from no-human packets, mirroring
    /// [`Detector::calibrate`] (first half builds the profile, second
    /// half is the threshold holdout) and additionally fitting the HMM
    /// and drift sentinel to the holdout null scores and seeding the
    /// rollback-guard reservoir with the holdout windows.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] on a bad session config,
    /// [`DetectError::InsufficientCalibration`] when the holdout is
    /// shorter than one window or every holdout window abstained, plus
    /// profile/scheme errors.
    pub fn calibrate(
        calibration_packets: &[CsiPacket],
        scheme: S,
        config: DetectorConfig,
        session: SessionConfig,
    ) -> Result<Self, DetectError> {
        session.validate()?;
        let half = calibration_packets.len() / 2;
        if half == 0 || calibration_packets.len() - half < config.window {
            return Err(DetectError::InsufficientCalibration {
                got: calibration_packets.len(),
                need: 2 * config.window,
            });
        }
        let (train, holdout) = calibration_packets.split_at(half);
        let profile = CalibrationProfile::build(train, &config)?;
        let null_scores = static_score_distribution(&profile, holdout, &scheme, &config)?;
        let threshold = threshold_for_fp(&null_scores, session.target_fp);
        let hmm = HmmSmoother::with_defaults(&null_scores)?;
        let sentinel = DriftSentinel::from_null_scores(&null_scores, session.sentinel.clone())?;
        // Seed the rollback-guard reservoir with the newest holdout
        // windows — the best null examples we have on day one.
        let mut reservoir: Vec<Vec<CsiPacket>> = holdout
            .chunks_exact(config.window)
            .map(<[CsiPacket]>::to_vec)
            .collect();
        if reservoir.len() > session.reservoir_windows {
            reservoir.drain(..reservoir.len() - session.reservoir_windows);
        }
        let posterior = hmm.prior_present;
        let detector = Detector::from_parts(profile, scheme.clone(), config, threshold);
        Ok(SessionRuntime {
            detector,
            scheme,
            session,
            hmm,
            posterior,
            sentinel,
            mode: SessionMode::Normal,
            retries: 0,
            backoff_remaining: 0,
            watchdog_strikes: 0,
            cursor: 0,
            reservoir,
            shadow: Vec::new(),
        })
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &Detector<S> {
        &self.detector
    }

    /// Current decision threshold.
    pub fn threshold(&self) -> f64 {
        self.detector.threshold()
    }

    /// Current supervision mode.
    pub fn mode(&self) -> SessionMode {
        self.mode
    }

    /// Current drift classification.
    pub fn drift_state(&self) -> DriftState {
        self.sentinel.state()
    }

    /// Carried HMM posterior `P(present)`.
    pub fn posterior(&self) -> f64 {
        self.posterior
    }

    /// Next window index.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Session configuration.
    pub fn session_config(&self) -> &SessionConfig {
        &self.session
    }

    /// The detection scheme the session was calibrated with. Fleet-level
    /// supervisors clone this (together with [`Self::detector`]'s config
    /// and [`Self::session_config`]) into their per-link constants
    /// registry so a link can be rebuilt from a bare snapshot.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Processes one monitoring window through the supervised loop.
    ///
    /// Recalibration rejections are *handled* (reported in
    /// [`SessionDecision::recal`], counted, backed off), not propagated.
    ///
    /// # Errors
    /// Unexpected pipeline errors only (shape mismatches, angle
    /// estimation failures). Abstentions
    /// ([`DetectError::is_abstention`]) abstain instead of erroring.
    pub fn step(&mut self, window: &[CsiPacket]) -> Result<SessionDecision, DetectError> {
        let _stage = mpdf_obs::stage!("session.step");
        mpdf_obs::trajectory::tick();
        mpdf_obs::counter!("session.windows_total").inc();
        let widx = self.cursor;
        self.cursor += 1;
        let mut recal_outcome = None;

        let decision = match self.detector.decide(window) {
            Ok(d) => {
                self.watchdog_strikes = 0;
                Some(d)
            }
            Err(e) if e.is_abstention() => {
                self.watchdog_strikes += 1;
                mpdf_obs::counter!("session.abstained_total").inc();
                if self.watchdog_strikes >= self.session.watchdog_budget
                    && self.mode == SessionMode::Normal
                {
                    // Watchdog deadline (in windows): the receiver has
                    // been unscorable for a whole budget — freeze
                    // adaptation, keep detecting.
                    self.mode = SessionMode::Frozen;
                    mpdf_obs::counter!("session.watchdog_trips_total").inc();
                    mpdf_obs::counter!("session.frozen_total").inc();
                    recal_outcome = Some(RecalOutcome::Frozen);
                }
                None
            }
            Err(e) => return Err(e),
        };

        let mut vacant = false;
        if let Some(d) = decision {
            let prev = self.posterior;
            self.posterior = self.hmm.step(prev, d.score);
            // The sentinel is gated *causally* (on the pre-window
            // posterior): a catastrophic step change must be seen by the
            // EWMA in its last window before the gate slams shut, or
            // `Broken` would be unreachable. The baseline buffers are
            // gated on both sides — an entry window (vacant before,
            // occupied after) must never become a null example.
            let gate_open = prev < self.session.vacancy_eps;
            vacant = gate_open && self.posterior < self.session.vacancy_eps;
            if gate_open && !d.degraded {
                let before = self.sentinel.state();
                self.sentinel.observe(d.score);
                // Entries, not the state: counters sum across a fleet's
                // links, where a process-global state gauge would hold
                // whichever link wrote last. Only `observe` leaves
                // `Stable` (a recalibration rebases back to it).
                let after = self.sentinel.state();
                if after != before {
                    match after {
                        DriftState::Drifting => {
                            mpdf_obs::counter!("session.drifting_entries_total").inc();
                        }
                        DriftState::Broken => {
                            mpdf_obs::counter!("session.broken_entries_total").inc();
                        }
                        DriftState::Stable => {}
                    }
                }
            }
            // Only clean (non-degraded) strictly-vacant windows feed the
            // baseline: a window that lost packets or antennas is not a
            // trustworthy null example, and an occupied one never is.
            if vacant && !d.degraded {
                mpdf_obs::counter!("session.vacant_windows_total").inc();
                // A full reservoir recycles the evicted window's buffers.
                let mut slot = if self.reservoir.len() >= self.session.reservoir_windows {
                    self.reservoir.remove(0)
                } else {
                    Vec::new()
                };
                window.clone_into(&mut slot);
                self.reservoir.push(slot);
            }
        }

        if self.session.recalibration.enabled && self.mode == SessionMode::Normal {
            if self.backoff_remaining > 0 {
                self.backoff_remaining -= 1;
            } else if self.sentinel.state() != DriftState::Stable {
                if vacant && decision.map(|d| !d.degraded).unwrap_or(false) {
                    self.shadow.push(window.to_vec());
                    mpdf_obs::counter!("session.shadow_windows_total").inc();
                }
                if self.shadow.len() >= self.session.recalibration.shadow_windows {
                    recal_outcome = Some(self.attempt_recalibration()?);
                }
            } else if !self.shadow.is_empty() {
                // Drift subsided on its own; the half-filled shadow
                // buffer describes an environment that no longer exists.
                self.shadow.clear();
            }
        }

        mpdf_obs::gauge!("session.backoff_remaining").set(self.backoff_remaining as i64);
        Ok(SessionDecision {
            window: widx,
            decision,
            posterior: self.posterior,
            vacant,
            drift: self.sentinel.state(),
            mode: self.mode,
            recal: recal_outcome,
        })
    }

    /// Stages a recalibration from the accumulated shadow buffer and
    /// applies the rollback guard. Consumes the shadow buffer either way.
    ///
    /// # Errors
    /// Unexpected pipeline errors only — guard rejections are returned as
    /// [`RecalOutcome::Rejected`]/[`RecalOutcome::Frozen`].
    fn attempt_recalibration(&mut self) -> Result<RecalOutcome, DetectError> {
        let _stage = mpdf_obs::stage!("session.recalibrate");
        mpdf_obs::counter!("session.recal_attempts_total").inc();
        let shadow_windows = std::mem::take(&mut self.shadow);
        let shadow: Vec<CsiPacket> = shadow_windows.into_iter().flatten().collect();
        match self.stage_candidate(&shadow) {
            Ok((profile, threshold, null_scores)) => {
                // Atomic swap: build the replacement detector fully, then
                // move it into place; no observable intermediate state.
                mpdf_obs::counter!("session.recal_accepted_total").inc();
                self.hmm = HmmSmoother::with_defaults(&null_scores)?;
                self.sentinel.rebase(&null_scores)?;
                self.detector = Detector::from_parts(
                    profile,
                    self.scheme.clone(),
                    self.detector.config().clone(),
                    threshold,
                );
                self.retries = 0;
                self.backoff_remaining = 0;
                Ok(RecalOutcome::Accepted {
                    new_threshold: threshold,
                })
            }
            Err(err)
                if err.is_abstention()
                    || matches!(
                        err,
                        DetectError::RecalibrationRejected { .. }
                            | DetectError::InsufficientCalibration { .. }
                    ) =>
            {
                // Bounded retry with window-counted exponential backoff.
                mpdf_obs::counter!("session.recal_rejected_total").inc();
                self.retries += 1;
                if self.retries > self.session.recalibration.max_retries {
                    self.mode = SessionMode::Frozen;
                    mpdf_obs::counter!("session.frozen_total").inc();
                    return Ok(RecalOutcome::Frozen);
                }
                let base = self.session.recalibration.backoff_base_windows;
                let cap = self.session.recalibration.backoff_cap_windows;
                let backoff = base
                    .checked_shl(self.retries - 1)
                    .unwrap_or(u64::MAX)
                    .min(cap.max(base));
                self.backoff_remaining = backoff;
                Ok(RecalOutcome::Rejected {
                    error: err,
                    backoff_windows: backoff,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Builds a candidate (profile, threshold, null scores) from shadow
    /// packets and scores it against the reservoir.
    ///
    /// # Errors
    /// [`DetectError::RecalibrationRejected`] when the candidate fails
    /// the rollback guard, plus pipeline errors.
    fn stage_candidate(
        &self,
        shadow: &[CsiPacket],
    ) -> Result<(CalibrationProfile, f64, Vec<f64>), DetectError> {
        let config = self.detector.config();
        let half = shadow.len() / 2;
        if half == 0 || shadow.len() - half < config.window {
            return Err(DetectError::InsufficientCalibration {
                got: shadow.len(),
                need: 2 * config.window,
            });
        }
        let (train, holdout) = shadow.split_at(half);
        let profile = CalibrationProfile::build(train, config)?;
        let null_scores = static_score_distribution(&profile, holdout, &self.scheme, config)?;
        // Accepting refits the smoother and the sentinel on these scores,
        // which takes two; a holdout that abstained down to fewer is a
        // candidate to retry, not a failure.
        if null_scores.len() < 2 {
            return Err(DetectError::InsufficientCalibration {
                got: null_scores.len() * config.window,
                need: 2 * config.window,
            });
        }
        let threshold = threshold_for_fp(&null_scores, self.session.target_fp);
        // Rollback guard: the candidate operating point must keep the
        // retained null reservoir quiet.
        let mut fired = 0usize;
        let mut scored = 0usize;
        for w in &self.reservoir {
            match self.scheme.score(&profile, w, config) {
                Ok(s) => {
                    scored += 1;
                    if s > threshold {
                        fired += 1;
                    }
                }
                Err(e) if e.is_abstention() => {}
                Err(e) => return Err(e),
            }
        }
        let realized_fp = if scored == 0 {
            0.0
        } else {
            fired as f64 / scored as f64
        };
        if realized_fp > self.session.recalibration.guard_fp_tolerance {
            return Err(DetectError::RecalibrationRejected {
                realized_fp,
                tolerance: self.session.recalibration.guard_fp_tolerance,
            });
        }
        Ok((profile, threshold, null_scores))
    }

    /// Captures the complete dynamic state for checkpointing.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            cursor: self.cursor,
            threshold: self.detector.threshold(),
            profile: self.detector.profile().clone(),
            hmm: self.hmm,
            posterior: self.posterior,
            sentinel: self.sentinel.snapshot(),
            mode: self.mode,
            retries: self.retries,
            backoff_remaining: self.backoff_remaining,
            watchdog_strikes: self.watchdog_strikes,
            reservoir: self.reservoir.clone(),
            shadow: self.shadow.clone(),
        }
    }

    /// Borrows the complete dynamic state for encoding: what
    /// [`Self::snapshot`] captures, without cloning it.
    /// [`crate::checkpoint::encode_image_into`] writes the same bytes from
    /// either.
    pub fn snapshot_parts(&self) -> crate::checkpoint::SnapshotParts<'_> {
        crate::checkpoint::SnapshotParts {
            cursor: self.cursor,
            threshold: self.detector.threshold(),
            profile: self.detector.profile(),
            hmm: self.hmm,
            posterior: self.posterior,
            sentinel: self.sentinel.snapshot(),
            mode: self.mode,
            retries: self.retries,
            backoff_remaining: self.backoff_remaining,
            watchdog_strikes: self.watchdog_strikes,
            reservoir: &self.reservoir,
            shadow: &self.shadow,
        }
    }

    /// Reconstructs a session from a snapshot plus the deployment
    /// constants (scheme, detector config, session config) it was
    /// originally calibrated with. The restored session continues
    /// bit-identically to the one that was snapshotted.
    ///
    /// # Errors
    /// [`DetectError::InvalidConfig`] on a bad config or an internally
    /// inconsistent snapshot.
    pub fn from_snapshot(
        snapshot: SessionSnapshot,
        scheme: S,
        config: DetectorConfig,
        session: SessionConfig,
    ) -> Result<Self, DetectError> {
        session.validate()?;
        if snapshot.posterior.is_nan() || !(0.0..=1.0).contains(&snapshot.posterior) {
            return Err(DetectError::InvalidConfig {
                what: format!(
                    "snapshot posterior {} is not a probability",
                    snapshot.posterior
                ),
            });
        }
        let sentinel = DriftSentinel::from_snapshot(snapshot.sentinel, session.sentinel.clone())?;
        let detector =
            Detector::from_parts(snapshot.profile, scheme.clone(), config, snapshot.threshold);
        Ok(SessionRuntime {
            detector,
            scheme,
            session,
            hmm: snapshot.hmm,
            posterior: snapshot.posterior,
            sentinel,
            mode: snapshot.mode,
            retries: snapshot.retries,
            backoff_remaining: snapshot.backoff_remaining,
            watchdog_strikes: snapshot.watchdog_strikes,
            cursor: snapshot.cursor,
            reservoir: snapshot.reservoir,
            shadow: snapshot.shadow,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_core::scheme::SubcarrierWeighting;
    use mpdf_geom::shapes::Rect;
    use mpdf_geom::vec2::Vec2;
    use mpdf_propagation::channel::ChannelModel;
    use mpdf_propagation::environment::Environment;
    use mpdf_propagation::human::HumanBody;
    use mpdf_wifi::receiver::{CsiReceiver, ReceiverConfig};

    fn receiver(seed: u64) -> CsiReceiver {
        let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
        let link = ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap();
        CsiReceiver::with_config(link, ReceiverConfig::default(), seed).unwrap()
    }

    fn session_cfg(enabled: bool) -> SessionConfig {
        SessionConfig {
            recalibration: RecalPolicy {
                enabled,
                shadow_windows: 4,
                ..RecalPolicy::default()
            },
            reservoir_windows: 6,
            ..SessionConfig::default()
        }
    }

    fn runtime(enabled: bool) -> SessionRuntime<SubcarrierWeighting> {
        let mut rx = receiver(11);
        let calibration = rx.capture_static(None, 200).unwrap();
        SessionRuntime::calibrate(
            &calibration,
            SubcarrierWeighting,
            DetectorConfig::default(),
            session_cfg(enabled),
        )
        .unwrap()
    }

    #[test]
    fn quiet_session_stays_stable() {
        let mut rt = runtime(true);
        let rx = receiver(11);
        for w in 0..10u64 {
            let win = rx.fork(1000 + w).capture_static(None, 25).unwrap();
            let d = rt.step(&win).unwrap();
            assert_eq!(d.window, w);
            assert!(d.decision.is_some());
            assert_eq!(d.mode, SessionMode::Normal);
        }
        assert_eq!(rt.drift_state(), DriftState::Stable);
        assert_eq!(rt.cursor(), 10);
    }

    #[test]
    fn recycled_reservoir_encodes_the_bytes_of_copied_windows() {
        let mut rt = runtime(false);
        let cap = rt.session.reservoir_windows;
        let rx = receiver(11);
        // The reservoir as owned copies, the way `to_vec` filled it.
        let mut copied = rt.snapshot().reservoir;
        let mut admitted = 0usize;
        for w in 0..24u64 {
            // Ragged lengths make a recycled slot grow and shrink.
            let len = [25, 18, 31][(w % 3) as usize];
            let win = rx.fork(3000 + w).capture_static(None, len).unwrap();
            let d = rt.step(&win).unwrap();
            if d.vacant && d.decision.is_some_and(|x| !x.degraded) {
                admitted += 1;
                if copied.len() >= cap {
                    copied.remove(0);
                }
                copied.push(win.clone());
            }
        }
        assert!(admitted > cap + 2, "only {admitted} windows admitted");
        let mut reference = rt.snapshot();
        reference.reservoir = copied;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        crate::checkpoint::encode_image_into(&rt.snapshot_parts(), &mut got).unwrap();
        crate::checkpoint::encode_image_into(&(&reference).into(), &mut want).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn occupied_windows_raise_posterior_and_skip_gate() {
        let mut rt = runtime(true);
        let rx = receiver(11);
        let body = HumanBody::new(Vec2::new(4.0, 3.2));
        let mut saw_occupied = false;
        for w in 0..12u64 {
            let win = rx.fork(2000 + w).capture_static(Some(&body), 25).unwrap();
            let d = rt.step(&win).unwrap();
            if d.posterior > 0.5 {
                saw_occupied = true;
                assert!(!d.vacant, "occupied window admitted to baseline feed");
            }
        }
        assert!(saw_occupied, "posterior never rose on occupied stream");
        assert_eq!(
            rt.drift_state(),
            DriftState::Stable,
            "occupied windows must not read as drift"
        );
    }

    /// Steps the receiver's session drift up by one increment every
    /// `per_block` windows, captured as one *continuous* vacant stream.
    /// (Per-window re-forking is useless here: across-fork score spread
    /// is ~0.7 in log10 — far beyond the HMM's ~1.4 sigma vacancy
    /// crossover — so the posterior saturates on fork noise alone. A
    /// drifting deployment is one radio on one continuous timeline.)
    fn step_drift(rx: &mut CsiReceiver, w: u64, per_block: u64, rel_step: f64, db_step: f64) {
        if w.is_multiple_of(per_block) {
            let block = w / per_block;
            rx.set_drift_magnitude(rel_step * block as f64, db_step * block as f64);
            rx.resample_drift();
        }
    }

    #[test]
    fn gradual_drift_triggers_accepted_recalibration() {
        let mut rx = receiver(11);
        let calibration = rx.capture_static(None, 200).unwrap();
        let mut rt = SessionRuntime::calibrate(
            &calibration,
            SubcarrierWeighting,
            DetectorConfig::default(),
            session_cfg(true),
        )
        .unwrap();
        let before = rt.threshold();
        let mut accepted = false;
        for w in 0..160u64 {
            step_drift(&mut rx, w, 10, 0.004, 0.04);
            let win = rx.capture_static(None, 25).unwrap();
            let d = rt.step(&win).unwrap();
            if let Some(RecalOutcome::Accepted { new_threshold }) = d.recal {
                accepted = true;
                assert_eq!(rt.threshold(), new_threshold);
                assert_ne!(new_threshold, before);
                assert_eq!(rt.drift_state(), DriftState::Stable, "sentinel rebased");
                break;
            }
        }
        assert!(accepted, "gradual drift must drive an accepted recal");
    }

    #[test]
    fn zero_tolerance_guard_rejects_and_backs_off_then_freezes() {
        let mut cfg = session_cfg(true);
        cfg.recalibration.guard_fp_tolerance = 0.0;
        cfg.recalibration.max_retries = 1;
        cfg.recalibration.backoff_base_windows = 2;
        // A reservoir big enough to never evict: candidates must keep
        // *every* drift level since calibration quiet, which a zero
        // tolerance eventually makes impossible.
        cfg.reservoir_windows = 64;
        let mut rx = receiver(11);
        let calibration = rx.capture_static(None, 200).unwrap();
        let mut rt = SessionRuntime::calibrate(
            &calibration,
            SubcarrierWeighting,
            DetectorConfig::default(),
            cfg,
        )
        .unwrap();
        let mut rejected = false;
        let mut frozen = false;
        for w in 0..160u64 {
            step_drift(&mut rx, w, 10, 0.004, 0.04);
            let win = rx.capture_static(None, 25).unwrap();
            let d = rt.step(&win).unwrap();
            match d.recal {
                Some(RecalOutcome::Rejected {
                    ref error,
                    backoff_windows,
                }) => {
                    rejected = true;
                    assert!(
                        matches!(error, DetectError::RecalibrationRejected { .. }),
                        "{error}"
                    );
                    assert!(backoff_windows >= 2);
                }
                Some(RecalOutcome::Frozen) => {
                    frozen = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(rejected, "zero-tolerance guard never rejected");
        assert!(frozen, "exhausted retries must freeze the session");
        assert_eq!(rt.mode(), SessionMode::Frozen);
        // Frozen mode still detects.
        let body = HumanBody::new(Vec2::new(4.0, 3.2));
        let win = rx.capture_static(Some(&body), 25).unwrap();
        assert!(rt.step(&win).unwrap().decision.is_some());
    }

    #[test]
    fn watchdog_freezes_after_budget_of_empty_windows() {
        let mut cfg = session_cfg(true);
        cfg.watchdog_budget = 3;
        let mut rx = receiver(11);
        let calibration = rx.capture_static(None, 200).unwrap();
        let mut rt = SessionRuntime::calibrate(
            &calibration,
            SubcarrierWeighting,
            DetectorConfig::default(),
            cfg,
        )
        .unwrap();
        for i in 0..3 {
            let d = rt.step(&[]).unwrap();
            assert!(d.decision.is_none(), "window {i}");
        }
        assert_eq!(rt.mode(), SessionMode::Frozen);
    }

    #[test]
    fn disabled_recalibration_matches_bare_detector() {
        let mut rt = runtime(false);
        let mut rx = receiver(11);
        rx.set_drift_magnitude(0.6, 2.5);
        rx.resample_drift();
        let bare = rt.detector().clone();
        for w in 0..30u64 {
            let win = rx
                .fork_with_drift(5000 + w)
                .capture_static(None, 25)
                .unwrap();
            let session_d = rt.step(&win).unwrap().decision.unwrap();
            let bare_d = bare.decide(&win).unwrap();
            assert_eq!(session_d.score.to_bits(), bare_d.score.to_bits());
            assert_eq!(session_d.detected, bare_d.detected);
        }
        assert_eq!(rt.threshold(), bare.threshold(), "no adaptation when off");
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let make_stream = |w: u64| {
            let mut rx = receiver(11);
            rx.set_drift_magnitude(0.3, 1.0);
            rx.resample_drift();
            rx.fork_with_drift(6000 + w)
                .capture_static(None, 25)
                .unwrap()
        };
        let mut a = runtime(true);
        // Run A uninterrupted for 40 windows, recording the tail.
        let mut a_tail = Vec::new();
        for w in 0..40u64 {
            let d = a.step(&make_stream(w)).unwrap();
            if w >= 20 {
                a_tail.push(d);
            }
        }
        // Run B: same start, snapshot at 20, restore, continue.
        let mut b = runtime(true);
        for w in 0..20u64 {
            b.step(&make_stream(w)).unwrap();
        }
        let snap = b.snapshot();
        let mut b2 = SessionRuntime::from_snapshot(
            snap,
            SubcarrierWeighting,
            DetectorConfig::default(),
            session_cfg(true),
        )
        .unwrap();
        for (i, w) in (20u64..40).enumerate() {
            let d = b2.step(&make_stream(w)).unwrap();
            let ad = &a_tail[i];
            assert_eq!(d.window, ad.window);
            assert_eq!(
                d.decision.map(|x| (x.score.to_bits(), x.detected)),
                ad.decision.map(|x| (x.score.to_bits(), x.detected)),
                "window {w}"
            );
            assert_eq!(d.posterior.to_bits(), ad.posterior.to_bits(), "window {w}");
            assert_eq!(d.drift, ad.drift, "window {w}");
        }
    }

    #[test]
    fn invalid_session_configs_are_rejected() {
        for cfg in [
            SessionConfig {
                target_fp: 0.0,
                ..SessionConfig::default()
            },
            SessionConfig {
                vacancy_eps: 0.0,
                ..SessionConfig::default()
            },
            SessionConfig {
                watchdog_budget: 0,
                ..SessionConfig::default()
            },
            SessionConfig {
                reservoir_windows: 0,
                ..SessionConfig::default()
            },
            SessionConfig {
                recalibration: RecalPolicy {
                    shadow_windows: 1,
                    ..RecalPolicy::default()
                },
                ..SessionConfig::default()
            },
            SessionConfig {
                recalibration: RecalPolicy {
                    guard_fp_tolerance: 1.0,
                    ..RecalPolicy::default()
                },
                ..SessionConfig::default()
            },
        ] {
            assert!(
                matches!(cfg.validate(), Err(DetectError::InvalidConfig { .. })),
                "{cfg:?}"
            );
        }
    }
}
