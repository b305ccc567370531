//! A scheme error stops the replay's reads: once an epoch fails the pool
//! claims no further epochs, so nothing is scored and each worker has
//! decoded at most the one epoch it claimed, plus what one read decodes
//! ahead of it.
//!
//! One test in this binary, so no other test moves the global counters
//! while it reads their deltas.

use mpdf_core::error::DetectError;
use mpdf_core::profile::DetectorConfig;
use mpdf_eval::scenario::five_cases;
use mpdf_eval::stream::{stream_case_scores, StreamOptions};
use mpdf_eval::workload::{run_campaign, CampaignConfig};

#[test]
fn a_failing_epoch_stops_scoring_and_reading() {
    let cfg = CampaignConfig {
        calibration_packets: 120,
        episodes_per_position: 1,
        negative_windows: 4,
        detector: DetectorConfig {
            window: 10,
            ..DetectorConfig::default()
        },
        threads: 1,
        ..CampaignConfig::default()
    };
    let mut data = run_campaign(&five_cases()[..1], &cfg).expect("campaign");
    // A three-antenna profile against two-antenna packets: every scheme
    // fails every epoch with `ShapeMismatch`, which is not an abstention.
    for w in &mut data[0].windows {
        for p in &mut w.packets {
            *p = p.select_antennas(&[0, 1]);
        }
    }
    let windows = || mpdf_obs::metrics::counter("eval.stream.windows_total").get();
    let packets = || mpdf_obs::metrics::counter("eval.stream.packets_total").get();
    for threads in [1usize, 4] {
        let workers = threads.min(data[0].windows.len()) as u64;
        let (windows_before, packets_before) = (windows(), packets());
        let err = stream_case_scores(&data[0], &cfg.detector, threads, &StreamOptions::default())
            .expect_err("a shape mismatch must fail the replay");
        assert!(
            matches!(err, DetectError::ShapeMismatch { .. }),
            "{threads} thread(s): {err}"
        );
        assert_eq!(windows() - windows_before, 0, "{threads} thread(s)");
        let decoded = packets() - packets_before;
        assert!(
            decoded <= (workers + 1) * cfg.detector.window as u64,
            "{threads} thread(s): {decoded} packets decoded"
        );
    }
}
