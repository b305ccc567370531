//! `campaign`: one five-case `run_campaign` (270 windows at the default
//! configuration) scored with the baseline, subcarrier and combined
//! schemes — the `repro fig7` path. Each operation simulates a fresh
//! campaign from a seed derived from the workload seed and its index.

use mpdf_core::error::DetectError;
use mpdf_core::scheme::{Baseline, SubcarrierAndPathWeighting, SubcarrierWeighting};
use mpdf_eval::scenario::{five_cases, LinkCase};
use mpdf_eval::workload::{run_campaign, score_campaign, CampaignConfig, CaseData, ScoredWindow};

use crate::gen::{mix, Digest};
use crate::spans::Spans;
use crate::{timed, Bench, Checks, Ctx, Metric, Op, Scale};

/// Stream tags for [`mix`].
const TIMED: u64 = 0xCA;
const WARMUP: u64 = 0xCA_FE;

/// The campaign workload's state.
#[derive(Debug)]
pub struct CampaignBench {
    cases: Vec<LinkCase>,
    config: CampaignConfig,
    seed: u64,
    first_op: Option<u64>,
    checks: Checks,
}

/// Campaign configuration at `scale` (seed and threads set per call).
pub fn config(scale: Scale, threads: usize) -> CampaignConfig {
    match scale {
        Scale::Full => CampaignConfig {
            threads,
            ..CampaignConfig::default()
        },
        Scale::Smoke => CampaignConfig {
            calibration_packets: 100,
            episodes_per_position: 1,
            negative_windows: 3,
            threads,
            ..CampaignConfig::default()
        },
    }
}

type Scored = [Vec<ScoredWindow>; 3];

fn simulate_and_score(
    cases: &[LinkCase],
    cfg: &CampaignConfig,
    spans: &mut Spans,
) -> Result<(Vec<CaseData>, Scored), DetectError> {
    let data = spans.span("bench.call.run_campaign", |_| run_campaign(cases, cfg))?;
    let d = &cfg.detector;
    let scored = spans.span("bench.call.score_campaign", |_| {
        Ok::<_, DetectError>([
            score_campaign(&data, &Baseline, d)?,
            score_campaign(&data, &SubcarrierWeighting, d)?,
            score_campaign(&data, &SubcarrierAndPathWeighting, d)?,
        ])
    })?;
    Ok((data, scored))
}

impl CampaignBench {
    fn op_config(&self, stream: u64, index: u64) -> CampaignConfig {
        CampaignConfig {
            seed: mix(self.seed, stream, index),
            ..self.config.clone()
        }
    }

    /// Runs one operation; returns its output digest (or `None` on a
    /// typed error) and the op.
    fn run(&mut self, cfg: &CampaignConfig, spans: &mut Spans) -> (Option<u64>, Op) {
        let (result, ms) = timed(spans, |s| simulate_and_score(&self.cases, cfg, s));
        let (data, scored) = match result {
            Ok(out) => out,
            Err(e) => {
                eprintln!("campaign seed {}: {e}", cfg.seed);
                let op = Op {
                    ms,
                    windows: 0,
                    failed: true,
                };
                return (None, op);
            }
        };
        let per_case = self.cases[0].grid.len() * cfg.episodes_per_position + cfg.negative_windows;
        let windows: usize = data.iter().map(|c| c.windows.len()).sum();
        self.checks.require(
            data.len() == self.cases.len() && windows == per_case * self.cases.len(),
            || {
                format!(
                    "campaign {}: {windows} windows in {} cases",
                    cfg.seed,
                    data.len()
                )
            },
        );
        self.checks.require(
            data.iter()
                .flat_map(|c| &c.windows)
                .all(|w| w.packets.len() == cfg.detector.window),
            || format!("campaign {}: a window has the wrong length", cfg.seed),
        );
        let mut digest = Digest::default();
        for (scheme, scores) in scored.iter().enumerate() {
            // A fault-free campaign never abstains: every window scores.
            self.checks.require(scores.len() == windows, || {
                format!(
                    "campaign {}: scheme {scheme} scored {} of {windows} windows",
                    cfg.seed,
                    scores.len()
                )
            });
            self.checks
                .require(scores.iter().all(|s| s.score.is_finite()), || {
                    format!(
                        "campaign {}: scheme {scheme} has a non-finite score",
                        cfg.seed
                    )
                });
            for s in scores {
                digest.u64(s.case_id as u64);
                digest.f64(s.score);
                digest.u64(u64::from(s.human.is_some()));
            }
        }
        let op = Op {
            ms,
            windows: windows as u64,
            failed: false,
        };
        (Some(digest.value()), op)
    }
}

impl Bench for CampaignBench {
    fn setup(ctx: &Ctx, _spans: &mut Spans) -> Result<Self, String> {
        let mut bench = CampaignBench {
            cases: five_cases(),
            config: config(ctx.scale, ctx.threads),
            seed: ctx.seed,
            first_op: None,
            checks: Checks::default(),
        };
        let warmups = match ctx.scale {
            Scale::Full => 2,
            Scale::Smoke => 1,
        };
        for i in 0..warmups {
            let cfg = bench.op_config(WARMUP, i);
            match bench.run(&cfg, &mut Spans::new(false)) {
                (Some(digest), _) => bench.checks.output(digest),
                (None, _) => return Err(format!("warm-up campaign {i} failed")),
            }
        }
        Ok(bench)
    }

    fn op(&mut self, index: u64, spans: &mut Spans) -> Op {
        let cfg = self.op_config(TIMED, index);
        let (digest, op) = self.run(&cfg, spans);
        if let Some(digest) = digest {
            self.checks.output(digest);
            if index == 0 {
                self.first_op = Some(digest);
            }
        }
        op
    }

    fn finish(&mut self, _ops: &[Op]) -> Vec<Metric> {
        // The first timed campaign again on one thread: bit-identical
        // output is the repository's determinism contract.
        let serial = CampaignConfig {
            threads: 1,
            ..self.op_config(TIMED, 0)
        };
        let first = self.first_op;
        let (digest, _) = self.run(&serial, &mut Spans::new(false));
        self.checks
            .require(digest.is_some() && digest == first, || {
                "campaign 0 differs between the configured thread count and one thread".to_owned()
            });
        Vec::new()
    }

    fn checks(&self) -> &Checks {
        &self.checks
    }
}
