//! `score_campaign` scores its windows on the pool, one window per job,
//! as wide as the campaign's `threads`. The scores, their order and the abstention
//! counters must not depend on that width — on a clean campaign and on
//! one whose faults make the detector abstain.
//!
//! One test in this binary, so no other test moves the global counters
//! while it reads their deltas.

use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::{
    Baseline, DetectionScheme, RssiBaseline, SubcarrierAndPathWeighting, SubcarrierWeighting,
};
use mpdf_eval::scenario::five_cases;
use mpdf_eval::workload::{run_campaign, score_campaign, CampaignConfig, CaseData};
use mpdf_wifi::FaultModel;

fn config(faults: FaultModel) -> CampaignConfig {
    CampaignConfig {
        calibration_packets: 120,
        episodes_per_position: 2,
        negative_windows: 6,
        detector: DetectorConfig {
            window: 10,
            ..DetectorConfig::default()
        },
        threads: 1,
        faults,
        ..CampaignConfig::default()
    }
}

/// `(case_id, score bits, human)` per scored window, plus the deltas of
/// the scored and aborted counters over the call.
type Run = (Vec<(usize, u64, Option<[u64; 4]>)>, u64, u64);

fn score_at<S: DetectionScheme + Sync>(
    data: &mut [CaseData],
    threads: usize,
    scheme: &S,
    detector: &DetectorConfig,
) -> Run {
    for case in data.iter_mut() {
        case.threads = threads;
    }
    let scored = mpdf_obs::metrics::counter("eval.scored_windows_total");
    let aborted = mpdf_obs::metrics::counter("eval.aborted_windows_total");
    let (s0, a0) = (scored.get(), aborted.get());
    let windows = score_campaign(data, scheme, detector)
        .expect("score")
        .iter()
        .map(|w| {
            let human = w.human.map(|h| {
                [h.position.x, h.position.y, h.distance_to_rx, h.angle_deg].map(f64::to_bits)
            });
            (w.case_id, w.score.to_bits(), human)
        })
        .collect();
    (windows, scored.get() - s0, aborted.get() - a0)
}

fn assert_thread_invariant<S: DetectionScheme + Sync>(
    data: &mut [CaseData],
    scheme: &S,
    detector: &DetectorConfig,
    label: &str,
) -> Run {
    let serial = score_at(data, 1, scheme, detector);
    for threads in [2, 4] {
        let pooled = score_at(data, threads, scheme, detector);
        assert_eq!(
            pooled,
            serial,
            "{label} {} at {threads} threads",
            scheme.name()
        );
    }
    serial
}

#[test]
fn scores_and_counters_are_the_same_at_any_thread_count() {
    let cases = &five_cases()[..2];

    let clean_cfg = config(FaultModel::none());
    let mut clean = run_campaign(cases, &clean_cfg).expect("clean campaign");
    let windows: usize = clean.iter().map(|c| c.windows.len()).sum();
    assert!(windows > 32, "{windows} windows span too few chunks");

    // Loss bursts long enough to break the gap budget, plus NaN chain
    // dropouts, so some windows abort and the rest degrade.
    let mut faults = FaultModel::packet_loss();
    faults.loss_burst_prob = 0.12;
    faults.loss_burst_len = 4.0;
    faults.chain_dropout_prob = 0.03;
    faults.chain_dropout_len = 8.0;
    faults.dropout_nan = true;
    let faulted_cfg = config(faults);
    let mut faulted = run_campaign(cases, &faulted_cfg).expect("faulted campaign");

    let d = &clean_cfg.detector;
    let mut aborted = 0;
    for (data, label) in [(&mut clean, "clean"), (&mut faulted, "faulted")] {
        let runs = [
            assert_thread_invariant(data, &Baseline, d, label),
            assert_thread_invariant(data, &RssiBaseline, d, label),
            assert_thread_invariant(data, &SubcarrierWeighting, d, label),
            assert_thread_invariant(data, &SubcarrierAndPathWeighting, d, label),
        ];
        for (scores, scored, abstained) in &runs {
            assert_eq!(*scored as usize, scores.len(), "{label}");
            assert_eq!(*scored + *abstained, windows as u64, "{label}");
            if label == "clean" {
                assert_eq!(*abstained, 0, "a clean campaign never abstains");
            }
            aborted += abstained;
        }
    }
    assert!(aborted > 0, "the fault mix never made the detector abstain");
}
