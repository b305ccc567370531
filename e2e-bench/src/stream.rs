//! `stream`: every operation replays all five cases of one recording
//! through `stream_case_scores` — wire encode and decode, bounded queues
//! and three schemes per epoch — the `repro stream` path. The recording
//! (about 1080 windows) and its offline scores are made in set-up, so the
//! timed work excludes channel simulation.

use mpdf_core::scheme::{Baseline, SubcarrierAndPathWeighting, SubcarrierWeighting};
use mpdf_eval::scenario::five_cases;
use mpdf_eval::stream::{stream_case_scores, StreamOptions};
use mpdf_eval::workload::{run_campaign, score_campaign, CampaignConfig, CaseData};

use crate::gen::{mix, Digest};
use crate::spans::Spans;
use crate::{campaign, timed, Bench, Checks, Ctx, Metric, Op, Scale};

/// The stream workload's state.
#[derive(Debug)]
pub struct StreamBench {
    data: Vec<CaseData>,
    config: CampaignConfig,
    /// Offline scores as bit patterns, per case, per scheme (baseline,
    /// subcarrier, combined), in window order.
    offline: Vec<[Vec<u64>; 3]>,
    threads: usize,
    packets: u64,
    checks: Checks,
}

impl StreamBench {
    fn pass(&mut self, spans: &mut Spans) -> (Option<u64>, Op) {
        let opts = StreamOptions::default();
        let detector = &self.config.detector;
        let threads = self.threads;
        let data = &self.data;
        let (results, ms) = timed(spans, |s| {
            s.span("bench.call.stream_case_scores", |_| {
                data.iter()
                    .map(|case| stream_case_scores(case, detector, threads, &opts))
                    .collect::<Vec<_>>()
            })
        });
        let mut digest = Digest::default();
        let mut windows = 0u64;
        let mut failed = false;
        for ((case, result), offline) in self.data.iter().zip(results).zip(&self.offline) {
            let (scores, stats) = match result {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("stream case {}: {e}", case.case_id);
                    failed = true;
                    continue;
                }
            };
            windows += stats.epochs as u64;
            self.packets += stats.packets;
            self.checks.require(stats.rejects == 0, || {
                format!(
                    "case {}: {} wire rejects on a clean replay",
                    case.case_id, stats.rejects
                )
            });
            for (scheme, reference) in offline.iter().enumerate() {
                let streamed: Vec<u64> = scores
                    .iter()
                    .filter_map(|epoch| epoch[scheme])
                    .map(f64::to_bits)
                    .collect();
                self.checks.require(&streamed == reference, || {
                    format!(
                        "case {}: scheme {scheme} stream scores differ from the offline pass",
                        case.case_id
                    )
                });
                for bits in streamed {
                    digest.u64(bits);
                }
            }
        }
        let op = Op {
            ms,
            windows,
            failed,
        };
        ((!failed).then(|| digest.value()), op)
    }
}

/// The configuration of the recording the workload replays: 5 × (9 ×
/// 12 + 108) = 1080 windows at full scale.
pub fn recording_config(ctx: &Ctx) -> CampaignConfig {
    let (episodes, negatives) = match ctx.scale {
        Scale::Full => (12, 108),
        Scale::Smoke => (1, 3),
    };
    CampaignConfig {
        episodes_per_position: episodes,
        negative_windows: negatives,
        seed: mix(ctx.seed, 0x5EED, 0),
        ..campaign::config(ctx.scale, ctx.threads)
    }
}

impl Bench for StreamBench {
    fn setup(ctx: &Ctx, spans: &mut Spans) -> Result<Self, String> {
        let warmups = match ctx.scale {
            Scale::Full => 3,
            Scale::Smoke => 1,
        };
        let config = recording_config(ctx);
        let cases = five_cases();
        let data = spans
            .span("bench.setup.record", |_| run_campaign(&cases, &config))
            .map_err(|e| format!("record the stream campaign: {e}"))?;
        let d = &config.detector;
        let scored = spans
            .span("bench.setup.offline_scores", |_| {
                Ok::<_, mpdf_core::error::DetectError>([
                    score_campaign(&data, &Baseline, d)?,
                    score_campaign(&data, &SubcarrierWeighting, d)?,
                    score_campaign(&data, &SubcarrierAndPathWeighting, d)?,
                ])
            })
            .map_err(|e| format!("offline scores: {e}"))?;
        let offline = data
            .iter()
            .map(|case| {
                std::array::from_fn(|scheme| {
                    scored[scheme]
                        .iter()
                        .filter(|s| s.case_id == case.case_id)
                        .map(|s| s.score.to_bits())
                        .collect()
                })
            })
            .collect();
        let mut bench = StreamBench {
            data,
            config,
            offline,
            threads: ctx.threads,
            packets: 0,
            checks: Checks::default(),
        };
        for i in 0..warmups {
            match bench.pass(&mut Spans::new(false)) {
                (Some(digest), _) => bench.checks.output(digest),
                (None, _) => return Err(format!("warm-up pass {i} failed")),
            }
        }
        bench.packets = 0;
        Ok(bench)
    }

    fn op(&mut self, _index: u64, spans: &mut Spans) -> Op {
        let (digest, op) = self.pass(spans);
        if let Some(digest) = digest {
            self.checks.output(digest);
        }
        op
    }

    fn finish(&mut self, ops: &[Op]) -> Vec<Metric> {
        let seconds: f64 = ops.iter().map(|o| o.ms / 1e3).sum();
        vec![Metric::new(
            "packets_per_s",
            self.packets as f64 / seconds,
            "packets/s",
            ops.len(),
        )]
    }

    fn checks(&self) -> &Checks {
        &self.checks
    }
}
