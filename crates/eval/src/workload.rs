//! Campaign workloads: generate labeled CSI windows for the evaluation.
//!
//! Mirrors the paper's methodology (§V-A): per link case, capture a
//! no-human calibration session, then windows with a (swaying) person at
//! each grid position and matched empty windows — optionally with
//! background dynamics (people moving far from the link, as the paper
//! allowed during its campaign).

use mpdf_core::error::DetectError;
use mpdf_core::profile::{CalibrationProfile, DetectorConfig};
use mpdf_core::scheme::{
    Baseline, DetectionScheme, PreparedWindow, SubcarrierAndPathWeighting, SubcarrierWeighting,
};
use mpdf_geom::vec2::{Point, Vec2};
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::tracer::TraceError;
use mpdf_propagation::trajectory::StaticSway;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::{Actor, CsiReceiver, ReceiverConfig};
use mpdf_wifi::{FaultModel, ImpairmentModel};

use crate::metrics::LabeledScore;
use crate::scenario::LinkCase;

/// Ground-truth annotation of a window containing a human.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HumanInfo {
    /// Person position.
    pub position: Point,
    /// Distance from the receiver in metres.
    pub distance_to_rx: f64,
    /// Angle from the receiver's broadside (which faces the TX), degrees.
    pub angle_deg: f64,
}

/// One labeled monitoring window.
#[derive(Debug, Clone)]
pub struct WindowRecord {
    /// Captured packets (window length).
    pub packets: Vec<CsiPacket>,
    /// `Some` when a person was inside the monitored area.
    pub human: Option<HumanInfo>,
}

/// Captured data for one link case.
#[derive(Debug, Clone)]
pub struct CaseData {
    /// Case id (1–5).
    pub case_id: usize,
    /// Profile built from the calibration capture.
    pub profile: CalibrationProfile,
    /// Labeled monitoring windows.
    pub windows: Vec<WindowRecord>,
    /// Worker threads [`score_campaign`] scores on: the
    /// [`CampaignConfig::threads`] the campaign ran with (`0` = all
    /// available cores). Any value gives the same scores.
    pub threads: usize,
}

/// Campaign configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Detection pipeline configuration.
    pub detector: DetectorConfig,
    /// Calibration capture length in packets.
    pub calibration_packets: usize,
    /// Windows captured per human grid position.
    pub episodes_per_position: usize,
    /// Empty windows captured per case.
    pub negative_windows: usize,
    /// Per-subcarrier SNR (dB).
    pub snr_db: f64,
    /// Probability a packet is hit by narrowband interference.
    pub interference_prob: f64,
    /// Interference power relative to the signal (dB). Kept below the
    /// decode threshold: stronger bursts would fail the CRC and produce
    /// no CSI at all.
    pub interference_power_db: f64,
    /// Fraction of monitoring windows with background dynamics.
    pub background_rate: f64,
    /// Sway amplitude of the nominally static person (m).
    pub sway_amplitude: f64,
    /// Minimum distance of background walkers from the link (m).
    pub background_distance: f64,
    /// Session-to-session clutter drift relative amplitude (see
    /// `ReceiverConfig::clutter_drift_rel`).
    pub clutter_drift_rel: f64,
    /// Peak session gain drift in dB (see
    /// `ReceiverConfig::session_gain_drift_db`).
    pub session_gain_drift_db: f64,
    /// Injected receiver faults (loss bursts, chain dropouts, AGC
    /// saturation, decoder glitches). [`FaultModel::none`] by default;
    /// a zero-fault model leaves every capture byte-identical to a
    /// fault-free build.
    pub faults: FaultModel,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for the campaign (`0` = all available cores).
    /// The output is bit-for-bit identical for every value: each window
    /// captures on its own [`CsiReceiver::fork`] whose stream is derived
    /// from `(seed, case id, window index)`, never from scheduling order.
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            detector: DetectorConfig::default(),
            calibration_packets: 500,
            episodes_per_position: 3,
            negative_windows: 27,
            snr_db: 25.0,
            interference_prob: 0.35,
            interference_power_db: -4.0,
            background_rate: 0.15,
            sway_amplitude: 0.03,
            background_distance: 3.0,
            clutter_drift_rel: 0.025,
            session_gain_drift_db: 0.3,
            faults: FaultModel::none(),
            seed: 0xC51,
            threads: 0,
        }
    }
}

/// Builds the receiver for a case with the campaign's impairments.
///
/// # Errors
/// Propagates [`TraceError`] for invalid link geometry.
pub fn case_receiver(
    case: &LinkCase,
    cfg: &CampaignConfig,
    seed: u64,
) -> Result<CsiReceiver, TraceError> {
    let channel = ChannelModel::new(case.environment.clone(), case.tx, case.rx)?;
    let mut impairments = ImpairmentModel::commodity_nic().with_snr_db(cfg.snr_db);
    impairments.interference_prob = cfg.interference_prob;
    impairments.interference_power_db = cfg.interference_power_db;
    // Orient the array broadside toward the transmitter (axis ⟂ link), as
    // the paper's receiver is deployed; `annotate`'s angle convention then
    // matches the array's incidence angles.
    let axis = (case.tx - case.rx)
        .normalized()
        .unwrap_or(Vec2::new(1.0, 0.0))
        .perp();
    let band = cfg.detector.band.clone();
    let array = mpdf_wifi::UniformLinearArray::new(3, band.center_wavelength() / 2.0, axis);
    let rx_cfg = ReceiverConfig {
        band,
        array,
        impairments,
        clutter_drift_rel: cfg.clutter_drift_rel,
        session_gain_drift_db: cfg.session_gain_drift_db,
        faults: cfg.faults,
    };
    CsiReceiver::with_config(channel, rx_cfg, seed)
}

/// Annotates a human position relative to the case's receiver.
pub fn annotate(case: &LinkCase, position: Point) -> HumanInfo {
    let broadside = (case.tx - case.rx)
        .normalized()
        .unwrap_or(Vec2::new(1.0, 0.0));
    let to_human = position - case.rx;
    let angle_deg = broadside
        .cross(to_human)
        .atan2(broadside.dot(to_human))
        .to_degrees();
    HumanInfo {
        position,
        distance_to_rx: case.rx.distance(position),
        angle_deg,
    }
}

/// Deterministic pseudo-random stream for workload-level choices
/// (background on/off, background position), independent of the
/// receiver's noise RNG.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(a.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(b.wrapping_mul(0x94D049BB133111EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x
}

fn unit(seed: u64, a: u64, b: u64) -> f64 {
    (mix(seed, a, b) >> 11) as f64 / (1u64 << 53) as f64
}

/// Stream id of the calibration capture within a case (window streams
/// use `(widx << 2) | salt` with salt 1 or 2, so bit 0 set with bit 1
/// clear can never collide with a window).
const CALIBRATION_STREAM: u64 = 1;

/// RNG stream for one monitoring window: a pure function of the campaign
/// seed, the case and the window index, so a window's capture does not
/// depend on which thread runs it or in what order.
fn window_stream(cfg: &CampaignConfig, case: &LinkCase, window_idx: u64, label_salt: u64) -> u64 {
    mix(cfg.seed, case.id as u64, (window_idx << 2) | label_salt)
}

/// Captures one monitoring window with an optional monitored person and
/// campaign-level background dynamics.
///
/// The window runs on a dedicated [`CsiReceiver::fork`] of the case's
/// template receiver, seeded by [`window_stream`]: the result is a pure
/// function of `(template, cfg, monitored, window_idx, label_salt)`, so
/// serial and parallel campaigns produce bit-identical packets.
fn capture_window(
    template: &CsiReceiver,
    case: &LinkCase,
    cfg: &CampaignConfig,
    monitored: Option<Point>,
    window_idx: u64,
    label_salt: u64,
) -> Result<Vec<CsiPacket>, TraceError> {
    let _stage = mpdf_obs::stage!("eval.window");
    // Trajectory sampling is keyed to window counts, not wall-clock, so
    // the sample boundaries are deterministic at any thread count.
    mpdf_obs::trajectory::tick();
    let mut receiver = template.fork(window_stream(cfg, case, window_idx, label_salt));
    // Each monitoring window belongs to a different "session" than the
    // calibration capture: the clutter has drifted.
    receiver.resample_drift();
    let mut sways: Vec<StaticSway> = Vec::new();
    if let Some(pos) = monitored {
        sways.push(StaticSway::new(pos, cfg.sway_amplitude));
    }
    // Background walker, far from the link.
    if unit(cfg.seed, window_idx, label_salt) < cfg.background_rate {
        let candidates = case.background_positions(cfg.background_distance);
        if !candidates.is_empty() {
            let pick = (mix(cfg.seed, window_idx, label_salt ^ 0xB6) as usize) % candidates.len();
            // Background people move more than a standing subject sways.
            sways.push(StaticSway::new(candidates[pick], 0.25));
        }
    }
    let actors: Vec<Actor<'_>> = sways
        .iter()
        .map(|s| Actor {
            body: HumanBody::new(s.anchor),
            trajectory: s,
        })
        .collect();
    receiver.capture_actors(&actors, cfg.detector.window)
}

/// One window capture in the campaign's flat work list.
#[derive(Debug, Clone, Copy)]
struct WindowJob {
    case_idx: usize,
    monitored: Option<Point>,
    widx: u64,
    salt: u64,
}

/// Runs the full campaign over the given cases: calibration plus labeled
/// positive/negative windows per case.
///
/// Work fans out over `cfg.threads` workers (see [`CampaignConfig`]),
/// first across cases (template receiver + calibration profile), then
/// across the flat case × window list so uneven case sizes still balance.
/// Because every window runs on its own seed-derived receiver fork, the
/// result is bit-for-bit identical for any thread count.
///
/// # Errors
/// Propagates capture and calibration errors.
pub fn run_campaign(
    cases: &[LinkCase],
    cfg: &CampaignConfig,
) -> Result<Vec<CaseData>, DetectError> {
    let _stage = mpdf_obs::stage!("eval.campaign");
    // Stage 1: per-case template receiver and calibration profile.
    let calibrated: Vec<(CsiReceiver, CalibrationProfile)> =
        mpdf_par::try_map_indexed(cfg.threads, cases, |_, case| {
            let template = case_receiver(case, cfg, cfg.seed ^ (case.id as u64) << 8)?;
            let calibration = template
                .fork(mix(cfg.seed, case.id as u64, CALIBRATION_STREAM))
                .capture_static(None, cfg.calibration_packets)?;
            let profile = CalibrationProfile::build(&calibration, &cfg.detector)?;
            mpdf_obs::counter!("eval.cases_total").inc();
            Ok::<_, DetectError>((template, profile))
        })?;

    // Stage 2: one flat job list across all cases and windows, grouped by
    // case in declaration order (positives by grid position, then
    // negatives) so reassembly below is a straight split.
    let mut jobs: Vec<WindowJob> = Vec::new();
    for (case_idx, case) in cases.iter().enumerate() {
        let mut widx = 0u64;
        for &pos in &case.grid {
            for _ in 0..cfg.episodes_per_position {
                jobs.push(WindowJob {
                    case_idx,
                    monitored: Some(pos),
                    widx,
                    salt: 1,
                });
                widx += 1;
            }
        }
        for _ in 0..cfg.negative_windows {
            jobs.push(WindowJob {
                case_idx,
                monitored: None,
                widx,
                salt: 2,
            });
            widx += 1;
        }
    }
    let captured: Vec<WindowRecord> = mpdf_par::try_map_indexed(cfg.threads, &jobs, |_, job| {
        let case = &cases[job.case_idx];
        let template = &calibrated[job.case_idx].0;
        let packets = capture_window(template, case, cfg, job.monitored, job.widx, job.salt)?;
        mpdf_obs::counter!("eval.windows_total").inc();
        mpdf_obs::counter!("eval.packets_total").add(packets.len() as u64);
        // Per-case breakdown keyed by the scenario's case id (dynamic
        // name, so it goes through the registry rather than the macro).
        mpdf_obs::metrics::counter(&format!("eval.case{}.windows_total", case.id)).inc();
        Ok::<_, DetectError>(WindowRecord {
            packets,
            human: job.monitored.map(|pos| annotate(case, pos)),
        })
    })?;

    // Reassemble per case; jobs and results share indices.
    let mut out: Vec<CaseData> = calibrated
        .into_iter()
        .zip(cases)
        .map(|((_, profile), case)| CaseData {
            case_id: case.id,
            profile,
            windows: Vec::new(),
            threads: cfg.threads,
        })
        .collect();
    for (job, record) in jobs.iter().zip(captured) {
        out[job.case_idx].windows.push(record);
    }
    Ok(out)
}

/// A scored window with full annotation, for per-case/distance/angle
/// breakdowns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredWindow {
    /// Case the window came from.
    pub case_id: usize,
    /// Scheme score.
    pub score: f64,
    /// Human annotation, `None` for empty windows.
    pub human: Option<HumanInfo>,
}

impl ScoredWindow {
    /// Converts to the metric layer's labeled form.
    pub fn labeled(&self) -> LabeledScore {
        LabeledScore {
            score: self.score,
            positive: self.human.is_some(),
        }
    }
}

/// The paper's three schemes in report order: baseline, subcarrier
/// weighting, subcarrier + path weighting (§V-A).
pub(crate) const PAPER_SCHEMES: [&(dyn DetectionScheme + Sync); 3] =
    [&Baseline, &SubcarrierWeighting, &SubcarrierAndPathWeighting];

/// One window's scheme result as the campaign counts it: the result, `None`
/// for an abstention ([`DetectError::is_abstention`]), or any other
/// scheme error.
pub(crate) fn scored_or_abstained<T>(
    result: Result<T, DetectError>,
) -> Result<Option<T>, DetectError> {
    match result {
        Ok(scored) => Ok(Some(scored)),
        Err(e) if e.is_abstention() => Ok(None),
        Err(e) => Err(e),
    }
}

/// Scores one window with each of `schemes`, in order, from one
/// [`PreparedWindow`]: the front end runs once and the subcarrier
/// weights are computed at most once.
pub(crate) fn score_window<const N: usize>(
    schemes: [&(dyn DetectionScheme + Sync); N],
    profile: &CalibrationProfile,
    packets: &[CsiPacket],
    detector: &DetectorConfig,
) -> [Result<Option<f64>, DetectError>; N] {
    let prepared = PreparedWindow::new(profile, packets, detector);
    schemes
        .map(|scheme| scored_or_abstained(scheme.score_prepared(&prepared).map(|(score, _)| score)))
}

/// Scores every window of a campaign with one scheme:
/// [`score_campaign_schemes`] with a single scheme.
///
/// # Errors
/// As [`score_campaign_schemes`].
pub fn score_campaign<S: DetectionScheme + Sync>(
    data: &[CaseData],
    scheme: &S,
    detector: &DetectorConfig,
) -> Result<Vec<ScoredWindow>, DetectError> {
    let [scored] = score_campaign_schemes(data, [scheme], detector)?;
    Ok(scored)
}

/// Scores every window of a campaign with each of `schemes`, returning
/// one list per scheme in `schemes` order. Each window is prepared once
/// and every scheme scores it from that one preparation
/// ([`PreparedWindow`]), so the front end runs once per window, not once
/// per scheme.
///
/// Windows a scheme abstains on ([`DetectError::is_abstention`]: the
/// graceful-degradation path aborted them, the faulty receiver lost them
/// outright, or they kept too few chains for angle estimation) are
/// skipped: a detector facing a fault burst abstains on that window
/// rather than failing the whole campaign. Abstentions are counted on
/// `eval.aborted_windows_total`. Fault-free campaigns never abort, so
/// this keeps the zero-fault output byte-identical.
///
/// Windows are scored on the pool, one window per job,
/// [`CaseData::threads`] workers wide (the first case's value). A
/// window's score depends only on its case profile and packets, and the
/// outcomes are merged — and counted — scheme by scheme, in window order
/// on the calling thread, so scores, counters and the reported error are
/// those of one call per scheme in turn, at any thread count.
///
/// # Errors
/// Propagates the first scheme error — in scheme order, then window
/// order — other than an abstention.
pub fn score_campaign_schemes<const N: usize>(
    data: &[CaseData],
    schemes: [&(dyn DetectionScheme + Sync); N],
    detector: &DetectorConfig,
) -> Result<[Vec<ScoredWindow>; N], DetectError> {
    let _stage = mpdf_obs::stage!("eval.score");
    let windows: Vec<(&CaseData, &WindowRecord)> = data
        .iter()
        .flat_map(|case| case.windows.iter().map(move |w| (case, w)))
        .collect();
    let threads = data.first().map_or(1, |case| case.threads);
    let outcomes = mpdf_par::map_indexed(threads, &windows, |_, (case, w)| {
        score_window(schemes, &case.profile, &w.packets, detector)
    });
    let mut out: [Vec<ScoredWindow>; N] =
        std::array::from_fn(|_| Vec::with_capacity(windows.len()));
    for (s, scored) in out.iter_mut().enumerate() {
        for ((case, w), outcome) in windows.iter().zip(&outcomes) {
            match &outcome[s] {
                Ok(Some(score)) => {
                    mpdf_obs::counter!("eval.scored_windows_total").inc();
                    scored.push(ScoredWindow {
                        case_id: case.case_id,
                        score: *score,
                        human: w.human,
                    });
                }
                Ok(None) => mpdf_obs::counter!("eval.aborted_windows_total").inc(),
                Err(e) => return Err(e.clone()),
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::five_cases;
    use mpdf_core::scheme::Baseline;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            calibration_packets: 120,
            episodes_per_position: 1,
            negative_windows: 4,
            detector: DetectorConfig {
                window: 10,
                ..DetectorConfig::default()
            },
            // Tests run serial by default; the parallel-equivalence test
            // below compares against explicit multi-threaded runs.
            threads: 1,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn annotate_geometry() {
        let case = &five_cases()[0]; // tx (2,3), rx (6,3): broadside −x
        let on_axis = annotate(case, Point::new(5.0, 3.0));
        assert!((on_axis.distance_to_rx - 1.0).abs() < 1e-12);
        assert!(on_axis.angle_deg.abs() < 1e-9);
        let side = annotate(case, Point::new(6.0, 4.0));
        assert!((side.distance_to_rx - 1.0).abs() < 1e-12);
        assert!((side.angle_deg.abs() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn campaign_produces_labeled_windows() {
        let cases = &five_cases()[..1];
        let cfg = tiny_config();
        let data = run_campaign(cases, &cfg).unwrap();
        assert_eq!(data.len(), 1);
        let case = &data[0];
        assert_eq!(case.windows.len(), 9 + 4);
        let positives = case.windows.iter().filter(|w| w.human.is_some()).count();
        assert_eq!(positives, 9);
        for w in &case.windows {
            assert_eq!(w.packets.len(), 10);
        }
    }

    #[test]
    fn campaign_is_reproducible() {
        let cases = &five_cases()[..1];
        let cfg = tiny_config();
        let d1 = run_campaign(cases, &cfg).unwrap();
        let d2 = run_campaign(cases, &cfg).unwrap();
        let s1 = score_campaign(&d1, &Baseline, &cfg.detector).unwrap();
        let s2 = score_campaign(&d2, &Baseline, &cfg.detector).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn campaign_is_identical_across_thread_counts() {
        let cases = &five_cases()[..2];
        let serial_cfg = tiny_config();
        let serial = run_campaign(cases, &serial_cfg).unwrap();
        for threads in [2, 4] {
            let cfg = CampaignConfig {
                threads,
                ..tiny_config()
            };
            let parallel = run_campaign(cases, &cfg).unwrap();
            assert_eq!(parallel.len(), serial.len(), "threads={threads}");
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.case_id, s.case_id, "threads={threads}");
                assert_eq!(p.windows.len(), s.windows.len(), "threads={threads}");
                for (pw, sw) in p.windows.iter().zip(&s.windows) {
                    // Bit-for-bit: packets, labels, the lot.
                    assert_eq!(pw.packets, sw.packets, "threads={threads}");
                    assert_eq!(pw.human, sw.human, "threads={threads}");
                }
            }
            // Profiles feed thresholds downstream; scores must agree too.
            let ss = score_campaign(&serial, &Baseline, &serial_cfg.detector).unwrap();
            let ps = score_campaign(&parallel, &Baseline, &cfg.detector).unwrap();
            assert_eq!(ss, ps, "threads={threads}");
        }
    }

    #[test]
    fn scoring_separates_classes_on_average() {
        let cases = &five_cases()[..1];
        let cfg = tiny_config();
        let data = run_campaign(cases, &cfg).unwrap();
        let scored = score_campaign(&data, &Baseline, &cfg.detector).unwrap();
        let pos: Vec<f64> = scored
            .iter()
            .filter(|s| s.human.is_some())
            .map(|s| s.score)
            .collect();
        let neg: Vec<f64> = scored
            .iter()
            .filter(|s| s.human.is_none())
            .map(|s| s.score)
            .collect();
        let mp = pos.iter().sum::<f64>() / pos.len() as f64;
        let mn = neg.iter().sum::<f64>() / neg.len() as f64;
        assert!(mp > mn, "positives {mp} must outscore negatives {mn}");
    }

    #[test]
    fn schemes_scored_together_match_one_call_per_scheme() {
        use mpdf_core::scheme::RssiBaseline;
        // Chaos faults make some schemes abstain on windows others score.
        let cfg = CampaignConfig {
            faults: FaultModel::chaos(),
            ..tiny_config()
        };
        let data = run_campaign(&five_cases()[..2], &cfg).unwrap();
        let schemes: [&(dyn DetectionScheme + Sync); 4] = [
            &RssiBaseline,
            &Baseline,
            &SubcarrierWeighting,
            &SubcarrierAndPathWeighting,
        ];
        let together = score_campaign_schemes(&data, schemes, &cfg.detector).unwrap();
        let bits = |scored: &[ScoredWindow]| -> Vec<(usize, u64)> {
            scored
                .iter()
                .map(|w| (w.case_id, w.score.to_bits()))
                .collect()
        };
        for (scheme, scored) in schemes.iter().zip(&together) {
            let [alone] = score_campaign_schemes(&data, [*scheme], &cfg.detector).unwrap();
            assert_eq!(bits(scored), bits(&alone), "{}", scheme.name());
        }
        assert_ne!(
            together[0].len(),
            together[3].len(),
            "no scheme abstained alone"
        );
    }
}
