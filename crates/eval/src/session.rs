//! Deterministic long-running session demo behind `repro --session`.
//!
//! Drives a [`SessionRuntime`] over a drifting, intermittently occupied
//! monitoring timeline, checkpointing after every window. Each window's
//! packets are a pure function of `(campaign config, window index)` —
//! drift resamples once per session block on a block-keyed fork, windows
//! capture on [`mpdf_wifi::receiver::CsiReceiver::fork_with_drift`]
//! keyed by the window index — so a run killed after `n` windows and
//! restored from its checkpoint emits **byte-identical** output to the
//! uninterrupted run from window `n` on. Scores and posteriors are
//! printed as raw `f64` bit patterns: equality of the transcripts is
//! equality to 0 ULP, not to printing precision.

use std::io::Write;
use std::path::PathBuf;

use mpdf_core::error::DetectError;
use mpdf_core::scheme::SubcarrierWeighting;
use mpdf_fleet::{checkpoint, StdIo};
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::human::HumanBody;
use mpdf_session::runtime::{RecalOutcome, RecalPolicy, SessionConfig, SessionRuntime};
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::CsiReceiver;

use crate::scenario::{five_cases, LinkCase};
use crate::workload::{case_receiver, CampaignConfig};

/// Total windows in the demo session.
pub const SESSION_WINDOWS: u64 = 48;
/// Windows per drift block (drift resamples at block boundaries, one
/// magnitude step larger each time).
const PER_BLOCK: u64 = 8;
/// Clutter-drift relative amplitude added per block.
const REL_STEP: f64 = 0.004;
/// Session gain-drift amplitude (dB) added per block.
const DB_STEP: f64 = 0.04;

/// Options for the session demo.
#[derive(Debug, Clone, Default)]
pub struct SessionDemoOptions {
    /// Checkpoint file; `None` runs without persistence.
    pub checkpoint: Option<PathBuf>,
    /// Exit (successfully) after this many windows *processed in this
    /// run*, leaving the checkpoint behind for a later resume.
    pub kill_after: Option<u64>,
}

fn session_config() -> SessionConfig {
    SessionConfig {
        recalibration: RecalPolicy {
            enabled: true,
            ..RecalPolicy::default()
        },
        ..SessionConfig::default()
    }
}

/// Captures window `w` of the demo timeline — a pure function of the
/// template receiver, the campaign seed and `w`.
fn capture_window(
    template: &CsiReceiver,
    case: &LinkCase,
    cfg: &CampaignConfig,
    w: u64,
) -> Result<Vec<CsiPacket>, DetectError> {
    let block = w / PER_BLOCK;
    let idx = w % PER_BLOCK;
    // Fixed drift-draw seed: every block perturbs the environment in the
    // same direction at growing magnitude (a monotone walk, not a fresh
    // jolt per block).
    let mut session = template.fork(cfg.seed ^ 0x5E55);
    session.set_drift_magnitude(REL_STEP * block as f64, DB_STEP * block as f64);
    session.resample_drift();
    // One noise stream per block; window `w` sits `idx` windows into it.
    // Packet-noise draws are occupancy-independent, so advancing with
    // vacant throwaway captures reproduces the in-block stream position
    // as a pure function of `w` — the property kill-and-restore needs.
    let mut rx = session.fork_with_drift(cfg.seed ^ (0xA11C_E000 + block));
    for _ in 0..idx {
        rx.capture_static(None, cfg.detector.window)
            .map_err(DetectError::from)?;
    }
    // The last quarter of every block is occupied: each block probes
    // both sides of the operating point.
    let occupied = idx >= PER_BLOCK - PER_BLOCK / 4;
    let body = HumanBody::new(case.midpoint() + Vec2::new(0.0, 0.6));
    rx.capture_static(occupied.then_some(&body), cfg.detector.window)
        .map_err(DetectError::from)
}

fn emit(out: &mut dyn Write, line: &str) -> Result<(), String> {
    writeln!(out, "{line}").map_err(|e| format!("write session output: {e}"))
}

/// Runs (or resumes) the demo session, writing one line per processed
/// window to `out`.
///
/// With a checkpoint configured, the runtime state is saved after every
/// window; if the checkpoint already exists the session resumes from its
/// cursor instead of recalibrating, and prints only the windows it
/// processes itself — concatenating a killed run's output with its
/// resumed run's output reproduces the uninterrupted transcript exactly.
///
/// # Errors
/// Returns a rendered error string (the `repro` binary's error currency)
/// on pipeline or checkpoint failures.
pub fn run_session_demo(
    cfg: &CampaignConfig,
    opts: &SessionDemoOptions,
    out: &mut dyn Write,
) -> Result<(), String> {
    let _stage = mpdf_obs::stage!("eval.session_demo");
    let cases = five_cases();
    let case = &cases[0];
    let template = case_receiver(case, cfg, cfg.seed ^ 0xD81F)
        .map_err(|e| format!("session link geometry: {e}"))?;
    let (mut store, restored) = match &opts.checkpoint {
        Some(path) => {
            let (log, snap) = checkpoint::load(StdIo, path, &cfg.detector)
                .map_err(|e| format!("load checkpoint: {e}"))?;
            (Some(log), snap)
        }
        None => (None, None),
    };

    let mut rt = match restored {
        Some(snap) => {
            let rt = SessionRuntime::from_snapshot(
                snap,
                SubcarrierWeighting,
                cfg.detector.clone(),
                session_config(),
            )
            .map_err(|e| format!("restore session: {e}"))?;
            emit(out, &format!("resumed window={}", rt.cursor()))?;
            rt
        }
        None => {
            // Calibration day: drift magnitude zero, one continuous
            // capture (window index space starts after it).
            let mut calib_rx = template.fork(cfg.seed ^ 0xCA11B);
            let calibration = calib_rx
                .capture_static(None, 24 * cfg.detector.window)
                .map_err(|e| format!("calibration capture: {e}"))?;
            let rt = SessionRuntime::calibrate(
                &calibration,
                SubcarrierWeighting,
                cfg.detector.clone(),
                session_config(),
            )
            .map_err(|e| format!("session calibration: {e}"))?;
            emit(
                out,
                &format!("calibrated threshold={:016x}", rt.threshold().to_bits()),
            )?;
            rt
        }
    };

    let mut processed = 0u64;
    while rt.cursor() < SESSION_WINDOWS {
        let w = rt.cursor();
        let window =
            capture_window(&template, case, cfg, w).map_err(|e| format!("window {w}: {e}"))?;
        let d = rt.step(&window).map_err(|e| format!("window {w}: {e}"))?;
        let (score, detected) = match d.decision {
            Some(x) => (format!("{:016x}", x.score.to_bits()), u8::from(x.detected)),
            None => ("abstain".to_string(), 0),
        };
        let recal = match d.recal {
            Some(RecalOutcome::Accepted { .. }) => "accepted",
            Some(RecalOutcome::Rejected { .. }) => "rejected",
            Some(RecalOutcome::Frozen) => "frozen",
            None => "-",
        };
        emit(
            out,
            &format!(
                "window={w} score={score} detected={detected} posterior={:016x} \
                 vacant={} drift={:?} mode={:?} recal={recal} threshold={:016x}",
                d.posterior.to_bits(),
                u8::from(d.vacant),
                d.drift,
                d.mode,
                rt.threshold().to_bits()
            ),
        )?;
        if let Some(log) = &mut store {
            checkpoint::save(log, &rt.snapshot_parts())
                .map_err(|e| format!("checkpoint window {w}: {e}"))?;
        }
        processed += 1;
        if opts.kill_after.is_some_and(|n| processed >= n) && rt.cursor() < SESSION_WINDOWS {
            emit(out, &format!("killed window={}", rt.cursor()))?;
            return Ok(());
        }
    }
    emit(
        out,
        &format!(
            "session complete windows={SESSION_WINDOWS} threshold={:016x} mode={:?}",
            rt.threshold().to_bits(),
            rt.mode()
        ),
    )?;
    Ok(())
}
