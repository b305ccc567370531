//! A stream replay scores each epoch's three schemes from one prepared
//! window: the front end (quarantine, sanitize) runs once per epoch and
//! the other two schemes reuse it. Scoring each scheme from a window of
//! its own would give the same bytes at three times the front-end cost,
//! so only the counters can catch it: per epoch, one
//! `core.sanitize_memo.misses` (the scheme that built the window) and
//! two `core.sanitize_memo.hits`, at any thread count.
//!
//! One test in this binary, so no other test moves the global counters
//! while it reads their deltas.

use mpdf_core::profile::DetectorConfig;
use mpdf_eval::scenario::five_cases;
use mpdf_eval::stream::{stream_case_scores, StreamOptions};
use mpdf_eval::workload::{run_campaign, CampaignConfig};

#[test]
fn stream_replay_prepares_each_epoch_once() {
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
    let data = run_campaign(&five_cases()[..2], &cfg).expect("campaign");
    let misses = mpdf_obs::metrics::counter("core.sanitize_memo.misses");
    let hits = mpdf_obs::metrics::counter("core.sanitize_memo.hits");
    for threads in [1, 4] {
        let (m0, h0) = (misses.get(), hits.get());
        let mut epochs = 0u64;
        for case in &data {
            let (scores, stats) =
                stream_case_scores(case, &cfg.detector, threads, &StreamOptions::default())
                    .expect("replay");
            assert!(scores.iter().all(|epoch| epoch.iter().all(Option::is_some)));
            epochs += stats.epochs as u64;
        }
        assert!(epochs > 0);
        assert_eq!(misses.get() - m0, epochs, "{threads} threads: preparations");
        assert_eq!(hits.get() - h0, 2 * epochs, "{threads} threads: reuses");
    }
}
