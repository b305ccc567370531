//! Streaming CSI ingestion: the socket-shaped path from wire bytes to
//! decisions.
//!
//! The paper's monitoring loop is inherently streaming — the Intel 5300
//! CSI tool emits a continuous record stream the detector must consume
//! at line rate. This module replays a *recorded* campaign through that
//! shape: each case's captured windows form one contiguous
//! [`mpdf_wifi::wire`] byte stream, read in MTU-sized chunks,
//! reassembled and split into frames by the zero-copy decoder, batched
//! into `detector.window`-packet epochs, and scored on the
//! [`mpdf_par`] pool. The stream is encoded on demand: a read that needs
//! bytes not yet encoded encodes the next recorded windows first, so
//! encoding overlaps with scoring and the replay never holds a whole
//! case's wire bytes.
//!
//! The ingest state is the pool's claim source, an iterator of epochs:
//! a free worker claims the next one, which reads (encoding as needed)
//! until one epoch is decoded and cuts it, and then scores it outside
//! the claim lock. Back-pressure is structural — bytes are encoded and
//! read only when a worker is free, so with reads shorter than a frame
//! at most one epoch per worker plus one partial frame is decoded
//! ahead. The pool returns the scores in epoch order, so the output is
//! a pure function of the byte stream no matter how many workers race —
//! the contract, pinned by a tier-1 test, is that stream-path scores are
//! **bit-identical** to the offline [`score_campaign_schemes`] pass over the
//! same recording. The first failing epoch, in epoch order, stops the
//! replay: the pool claims no further epochs, so nothing more is read.

use std::slice::Iter;
use std::time::Instant;

use mpdf_core::error::DetectError;
use mpdf_core::profile::DetectorConfig;
use mpdf_wifi::band::Band;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::wire;

use crate::scenario::five_cases;
use crate::workload::{
    run_campaign, score_campaign_schemes, score_window, CampaignConfig, CaseData, ScoredWindow,
    WindowRecord, PAPER_SCHEMES,
};

/// Per-epoch scores in scheme order (baseline, subcarrier, combined);
/// `None` where that scheme abstained (degraded beyond budget / empty),
/// mirroring [`score_campaign_schemes`]'s skip semantics.
pub type EpochScores = [Option<f64>; 3];

/// Knobs of the replay transport.
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Bytes per ingest chunk. The default is an MTU-ish 1460, which is
    /// *smaller* than one 3×30 frame (1466 bytes) — every frame crosses
    /// a chunk boundary, so the replay exercises reassembly constantly.
    pub chunk_bytes: usize,
    /// AGC gain step stamped on every encoded frame.
    pub agc: u8,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            chunk_bytes: 1460,
            agc: 40,
        }
    }
}

/// Transport-level statistics of one case replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseStreamStats {
    /// Case id.
    pub case_id: usize,
    /// Epochs (decision windows) scored.
    pub epochs: usize,
    /// Packets decoded from the wire.
    pub packets: u64,
    /// Wire bytes consumed.
    pub bytes: u64,
    /// Resync events (corrupt/garbage bytes rejected).
    pub rejects: u64,
}

fn invalid(what: String) -> DetectError {
    DetectError::InvalidConfig { what }
}

fn unfit(e: wire::WireError) -> DetectError {
    invalid(format!("recorded packet does not fit the wire: {e}"))
}

/// Validates the configured band at the ingest boundary.
///
/// Config files and wire headers are untrusted inputs; revalidating
/// through [`Band::try_with_indices`] turns a malformed grid into a
/// typed error before any packet is decoded against it.
fn validate_band(band: &Band) -> Result<(), DetectError> {
    Band::try_with_indices(band.center_hz(), band.indices().to_vec())
        .map(|_| ())
        .map_err(|e| invalid(format!("stream ingest band rejected: {e}")))
}

/// The ingest side of one replay: an iterator of epochs, claimed by the
/// scoring workers through the pool, whose claim lock serializes the
/// encoding, reading and decoding.
struct Ingest<'a> {
    /// The socket stand-in: recorded windows not yet encoded, and the
    /// wire bytes encoded so far. `wire[start..read]` has been read but
    /// not decoded (a frame split across reads), `wire[read..]` is
    /// encoded but not yet read. Reads are `chunk_bytes` slices of the
    /// same byte stream an up-front encode would produce.
    recording: Iter<'a, WindowRecord>,
    wire: Vec<u8>,
    start: usize,
    read: usize,
    chunk_bytes: usize,
    agc: u8,
    /// Packets per epoch.
    window: usize,
    /// Epochs in the recording; `stats.epochs` of them are cut.
    epochs: usize,
    /// Decoded packets not yet cut into an epoch.
    pending: Vec<CsiPacket>,
    stats: CaseStreamStats,
}

impl Ingest<'_> {
    /// Reads until `window` packets are pending, then cuts them. A stream
    /// that ends first lost this epoch (corruption ate frames).
    fn cut_epoch(&mut self) -> Result<Vec<CsiPacket>, DetectError> {
        while self.pending.len() < self.window {
            if !self.read_chunk()? {
                return Err(invalid(format!(
                    "stream replay of case {} lost epoch {}",
                    self.stats.case_id, self.stats.epochs
                )));
            }
            let drained = wire::drain_frames(&self.wire[self.start..self.read], &mut self.pending);
            self.start += drained.consumed;
            self.stats.packets += drained.frames;
            self.stats.bytes += drained.consumed as u64;
            self.stats.rejects += drained.rejects;
        }
        Ok(self.pending.drain(..self.window).collect())
    }

    /// Reads the next `chunk_bytes` of the stream, first encoding recorded
    /// windows while fewer than that are encoded but unread. `false` at
    /// end of stream; an error when a packet does not fit the wire
    /// ([`stream_case_scores`] refuses such a recording before any read).
    fn read_chunk(&mut self) -> Result<bool, DetectError> {
        if self.wire.len() - self.read < self.chunk_bytes && self.recording.len() > 0 {
            // Drop the decoded prefix before growing: what moves is at
            // most a partial frame plus less than one read.
            self.wire.drain(..self.start);
            self.read -= self.start;
            self.start = 0;
            while self.wire.len() - self.read < self.chunk_bytes {
                let Some(w) = self.recording.next() else {
                    break;
                };
                for p in &w.packets {
                    wire::encode_frame(p, self.agc, &mut self.wire).map_err(unfit)?;
                }
            }
        }
        if self.read == self.wire.len() {
            return Ok(false);
        }
        self.read = self.wire.len().min(self.read + self.chunk_bytes);
        Ok(true)
    }
}

impl Iterator for Ingest<'_> {
    type Item = Result<Vec<CsiPacket>, DetectError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.stats.epochs == self.epochs {
            return None;
        }
        let _stage = mpdf_obs::stage!("eval.stream.ingest");
        let epoch = self.cut_epoch();
        self.stats.epochs += 1;
        Some(epoch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.epochs - self.stats.epochs;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Ingest<'_> {}

/// Scores one epoch with the three schemes from one [`PreparedWindow`]
/// (`mpdf_core::scheme`): the front end runs once per epoch — one
/// `core.sanitize_memo` miss, then two hits — and the subcarrier weights
/// are computed once. Abstentions are `None`; any other scheme error is
/// returned, the first in scheme order.
///
/// [`PreparedWindow`]: mpdf_core::scheme::PreparedWindow
fn score_epoch(
    case: &CaseData,
    packets: &[CsiPacket],
    detector: &DetectorConfig,
) -> Result<EpochScores, DetectError> {
    let [baseline, subcarrier, combined] =
        score_window(PAPER_SCHEMES, &case.profile, packets, detector);
    Ok([baseline?, subcarrier?, combined?])
}

/// Replays one recorded case through the wire codec, returning
/// per-epoch scheme scores (epoch order) plus transport stats. The
/// epochs are claimed and scored through [`mpdf_par::try_map_indexed`],
/// `threads` workers wide, encoding the recording on demand; no epoch is
/// scored under the claim lock.
///
/// The recording must be *clean*: every window exactly
/// `detector.window` packets, as a fault-free campaign produces. Epoch
/// batching drains a fixed N packets per decision window, so a recording
/// with ragged windows (packet loss already applied) cannot be aligned
/// and is rejected with a typed error, as is a recording with a packet
/// the wire header cannot describe; both checks run before any epoch is
/// scored.
///
/// # Errors
/// [`DetectError::InvalidConfig`] for a malformed band, ragged
/// recording, a packet that does not fit the wire, or a replay that
/// lost an epoch; a scheme error other than the abstention cases stops
/// the replay and propagates. The first failing epoch's error is
/// returned, at any thread count.
pub fn stream_case_scores(
    case: &CaseData,
    detector: &DetectorConfig,
    threads: usize,
    opts: &StreamOptions,
) -> Result<(Vec<EpochScores>, CaseStreamStats), DetectError> {
    validate_band(&detector.band)?;
    let window = detector.window.max(1);
    if let Some(w) = case.windows.iter().find(|w| w.packets.len() != window) {
        return Err(invalid(format!(
            "stream replay needs uniform {window}-packet windows; case {} recorded one with {}",
            case.case_id,
            w.packets.len()
        )));
    }
    for p in case.windows.iter().flat_map(|w| &w.packets) {
        wire::frame_shape(p).map_err(unfit)?;
    }

    let mut ingest = Ingest {
        recording: case.windows.iter(),
        wire: Vec::new(),
        start: 0,
        read: 0,
        chunk_bytes: opts.chunk_bytes.max(1),
        agc: opts.agc,
        window,
        epochs: case.windows.len(),
        pending: Vec::new(),
        stats: CaseStreamStats {
            case_id: case.case_id,
            ..CaseStreamStats::default()
        },
    };
    let scores = mpdf_par::try_map_indexed(threads, &mut ingest, |_, epoch| {
        let scores = score_epoch(case, &epoch?, detector)?;
        mpdf_obs::counter!("eval.stream.windows_total").inc();
        Ok::<_, DetectError>(scores)
    });
    mpdf_obs::counter!("eval.stream.packets_total").add(ingest.stats.packets);
    Ok((scores?, ingest.stats))
}

/// One case's replay outcome, compared against the offline reference.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Transport statistics.
    pub stats: CaseStreamStats,
    /// Per-scheme bit-identity with the offline scoring pass (scheme
    /// order: baseline, subcarrier, combined).
    pub matches_offline: [bool; 3],
}

/// Outcome of a full campaign replay.
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// Per-case reports, in case order.
    pub cases: Vec<CaseReport>,
    /// Total packets pushed through the wire path.
    pub packets_total: u64,
    /// Wall-clock seconds spent in the streaming section (explicitly
    /// nondeterministic — never printed on the deterministic report).
    pub elapsed_seconds: f64,
}

impl StreamRun {
    /// Whether every case matched the offline path bit-for-bit.
    pub fn all_match(&self) -> bool {
        self.cases
            .iter()
            .all(|c| c.matches_offline.iter().all(|&m| m))
    }

    /// Decoded packets per wall-clock second over the streaming section.
    pub fn packets_per_second(&self) -> f64 {
        if self.elapsed_seconds > 0.0 {
            self.packets_total as f64 / self.elapsed_seconds
        } else {
            0.0
        }
    }
}

/// Offline scores of one scheme restricted to one case, as bit patterns.
fn offline_bits(scores: &[ScoredWindow], case_id: usize) -> Vec<u64> {
    scores
        .iter()
        .filter(|s| s.case_id == case_id)
        .map(|s| s.score.to_bits())
        .collect()
}

/// Records the five-case campaign, replays it through the wire codec and
/// the pull-based scoring workers, and verifies the stream scores
/// bit-identical to the offline scoring pass on the same recording.
///
/// # Errors
/// Propagates campaign, scoring and replay errors.
pub fn run_stream(cfg: &CampaignConfig, opts: &StreamOptions) -> Result<StreamRun, DetectError> {
    let _stage = mpdf_obs::stage!("eval.stream");
    let cases = five_cases();
    let data = run_campaign(&cases, cfg)?;
    let offline = score_campaign_schemes(&data, PAPER_SCHEMES, &cfg.detector)?;

    let start = Instant::now();
    let mut reports = Vec::with_capacity(data.len());
    let mut packets_total = 0u64;
    for case in &data {
        let (scores, stats) = stream_case_scores(case, &cfg.detector, cfg.threads, opts)?;
        packets_total += stats.packets;
        let mut matches_offline = [false; 3];
        for (scheme_idx, matched) in matches_offline.iter_mut().enumerate() {
            let streamed: Vec<u64> = scores
                .iter()
                .filter_map(|epoch| epoch[scheme_idx])
                .map(f64::to_bits)
                .collect();
            *matched = streamed == offline_bits(&offline[scheme_idx], case.case_id);
        }
        reports.push(CaseReport {
            stats,
            matches_offline,
        });
    }
    Ok(StreamRun {
        cases: reports,
        packets_total,
        elapsed_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Renders the deterministic replay report (throughput is deliberately
/// excluded — it goes to stderr, keeping stdout byte-stable).
pub fn report(run: &StreamRun) -> String {
    let mut out = String::from("stream — campaign replay over the CSI wire codec\n");
    let rows: Vec<Vec<String>> = run
        .cases
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.stats.case_id),
                format!("{}", c.stats.epochs),
                format!("{}", c.stats.packets),
                format!("{}", c.stats.bytes),
                format!("{}", c.stats.rejects),
                if c.matches_offline.iter().all(|&m| m) {
                    "yes".to_owned()
                } else {
                    "NO".to_owned()
                },
            ]
        })
        .collect();
    out.push_str(&crate::report::table(
        &[
            "case",
            "windows",
            "packets",
            "bytes",
            "rejects",
            "bit-identical",
        ],
        &rows,
    ));
    let matched = run
        .cases
        .iter()
        .filter(|c| c.matches_offline.iter().all(|&m| m))
        .count();
    out.push_str(&format!(
        "{matched}/{} cases score bit-identical to the offline path\n",
        run.cases.len()
    ));
    out
}
