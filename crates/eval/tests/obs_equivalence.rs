//! Observability must be write-only: an instrumented campaign (tracing
//! subscriber installed, stage timing on, multiple worker threads)
//! produces bit-identical data and scores to an uninstrumented serial
//! run, while the metrics registry fills with per-stage histograms and
//! pool telemetry.

use std::sync::Arc;

use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::SubcarrierWeighting;
use mpdf_eval::scenario::five_cases;
use mpdf_eval::workload::{run_campaign, score_campaign, CampaignConfig};

fn tiny_config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        calibration_packets: 120,
        episodes_per_position: 1,
        negative_windows: 4,
        detector: DetectorConfig {
            window: 10,
            ..DetectorConfig::default()
        },
        threads,
        ..CampaignConfig::default()
    }
}

#[test]
fn instrumentation_does_not_perturb_results() {
    let cases = &five_cases()[..2];

    // Reference: no subscriber, no timing, serial.
    let plain = run_campaign(cases, &tiny_config(1)).expect("plain campaign");
    let plain_scores =
        score_campaign(&plain, &SubcarrierWeighting, &tiny_config(1).detector).expect("score");

    // Instrumented: ring-buffer subscriber + stage timing, two workers.
    let ring = Arc::new(mpdf_obs::trace::RingBuffer::new(4096));
    mpdf_obs::trace::install(Arc::clone(&ring) as Arc<dyn mpdf_obs::trace::Subscriber>);
    mpdf_obs::metrics::enable_timing();
    let traced = run_campaign(cases, &tiny_config(2)).expect("instrumented campaign");
    let traced_scores =
        score_campaign(&traced, &SubcarrierWeighting, &tiny_config(2).detector).expect("score");
    mpdf_obs::metrics::disable_timing();
    mpdf_obs::trace::uninstall();

    // Bit-identical pipeline output.
    assert_eq!(plain_scores, traced_scores);
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(p.case_id, t.case_id);
        assert_eq!(p.windows.len(), t.windows.len());
        for (pw, tw) in p.windows.iter().zip(&t.windows) {
            assert_eq!(pw.packets, tw.packets);
        }
    }

    // The instrumented run actually observed the pipeline.
    let snap = mpdf_obs::metrics::snapshot();
    let hist = |name: &str| {
        snap.histograms
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing histogram `{name}`:\n{}", snap.to_json()))
            .1
            .clone()
    };
    for stage in [
        "core.calibration",
        "core.mu_k",
        "core.subcarrier_weight",
        "core.path_weight",
        "music.covariance",
        "music.eig",
        "music.scan",
        "core.score.subcarrier",
        "eval.campaign",
        "eval.window",
        "eval.score",
    ] {
        let h = hist(stage);
        assert!(h.count > 0, "stage `{stage}` recorded no samples");
        assert!(h.max >= h.min);
        assert!(h.p50 <= h.p99);
    }

    // Pool telemetry from the two-worker run.
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert!(counter("par.jobs_total") > 0, "pool jobs not counted");
    assert!(counter("eval.windows_total") > 0);
    assert!(counter("eval.packets_total") > counter("eval.windows_total"));
    assert!(counter("eval.case1.windows_total") > 0, "per-case counter");
    assert!(
        counter("par.workers_spawned_total") >= 2,
        "the two-worker run spawned no pool workers"
    );

    // The span stream saw the detection stages too, properly nested.
    let events = ring.events();
    assert!(
        events
            .iter()
            .any(|e| e.name == "music.scan" && e.kind == mpdf_obs::trace::SpanKind::Exit),
        "no music.scan exits in {} events",
        events.len()
    );
    assert!(events
        .iter()
        .any(|e| e.name == "eval.window" && e.depth >= 1));

    // The captured stream reconstructs into a clean span forest whose
    // stages line up with the histogram registry.
    let trace_events: Vec<mpdf_obs::profile::TraceEvent> = events
        .iter()
        .map(mpdf_obs::profile::TraceEvent::from)
        .collect();
    let prof = mpdf_obs::profile::reconstruct_with_dropped(&trace_events, ring.dropped());
    assert!(prof.stages.iter().any(|s| s.name == "music.scan"));
    assert!(prof.stages.iter().any(|s| s.name == "eval.window"));
    assert!(!prof.critical_path.is_empty(), "no critical path extracted");

    // A trajectory-sampling run is still write-only: identical scores,
    // plus a deterministic window-keyed sample series.
    let recorder = mpdf_obs::trajectory::install(2);
    let sampled = run_campaign(cases, &tiny_config(2)).expect("sampled campaign");
    let sampled_scores =
        score_campaign(&sampled, &SubcarrierWeighting, &tiny_config(2).detector).expect("score");
    mpdf_obs::trajectory::uninstall();
    assert_eq!(plain_scores, sampled_scores);
    let samples = recorder.take_samples();
    assert!(
        !samples.is_empty(),
        "no trajectory samples at every-2 sampling"
    );
    for pair in samples.windows(2) {
        assert!(
            pair[0].windows < pair[1].windows,
            "trajectory samples out of order"
        );
    }
    assert!(
        samples
            .iter()
            .any(|s| s.counters.get("eval.windows_total").copied().unwrap_or(0) > 0),
        "window counter deltas never moved:\n{}",
        mpdf_obs::trajectory::to_ndjson(&samples)
    );
}
