//! The streaming contract: replaying a recorded campaign through the
//! wire codec, with scoring workers that pull and decode their own
//! epochs, must reproduce the offline scoring pass **bit-identically**,
//! at any thread count and any chunk size — the wire format, the
//! splitter reassembly and the epoch batching are all lossless by
//! construction, and this test pins it. A scheme error stops the pull
//! loop and comes back typed.

use mpdf_core::error::DetectError;
use mpdf_core::profile::DetectorConfig;
use mpdf_core::scheme::{Baseline, SubcarrierAndPathWeighting, SubcarrierWeighting};
use mpdf_eval::scenario::five_cases;
use mpdf_eval::stream::{run_stream, stream_case_scores, StreamOptions};
use mpdf_eval::workload::{run_campaign, score_campaign, CampaignConfig, ScoredWindow};
use mpdf_rfmath::complex::Complex64;
use mpdf_wifi::csi::CsiPacket;

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

fn offline_bits(scores: &[ScoredWindow], case_id: usize) -> Vec<u64> {
    scores
        .iter()
        .filter(|s| s.case_id == case_id)
        .map(|s| s.score.to_bits())
        .collect()
}

/// Streams every case at the given thread count and chunk size and
/// compares each scheme's scores bitwise against the offline pass.
fn assert_stream_matches_offline(threads: usize, chunk_bytes: usize) {
    let cfg = tiny_config(threads);
    let cases = &five_cases()[..2];
    let data = run_campaign(cases, &cfg).expect("campaign");
    let offline = [
        score_campaign(&data, &Baseline, &cfg.detector).expect("baseline"),
        score_campaign(&data, &SubcarrierWeighting, &cfg.detector).expect("subcarrier"),
        score_campaign(&data, &SubcarrierAndPathWeighting, &cfg.detector).expect("combined"),
    ];
    let opts = StreamOptions {
        chunk_bytes,
        ..StreamOptions::default()
    };
    for case in &data {
        let (scores, stats) =
            stream_case_scores(case, &cfg.detector, threads, &opts).expect("stream case");
        assert_eq!(stats.epochs, case.windows.len(), "every window scored");
        assert_eq!(stats.rejects, 0, "clean replay has no resyncs");
        for (scheme_idx, reference) in offline.iter().enumerate() {
            let streamed: Vec<u64> = scores
                .iter()
                .filter_map(|epoch| epoch[scheme_idx])
                .map(f64::to_bits)
                .collect();
            assert_eq!(
                streamed,
                offline_bits(reference, case.case_id),
                "scheme {scheme_idx} diverged for case {} at {threads} thread(s), \
                 {chunk_bytes}-byte chunks",
                case.case_id
            );
        }
    }
}

#[test]
fn stream_scores_are_bit_identical_to_offline_serial() {
    assert_stream_matches_offline(1, 1460);
}

#[test]
fn stream_scores_are_bit_identical_to_offline_on_four_threads() {
    assert_stream_matches_offline(4, 1460);
}

#[test]
fn chunk_size_cannot_change_a_single_bit() {
    // A 7-byte chunk shreds every header across several pushes; the
    // splitter's carry-over tail must reassemble them losslessly.
    assert_stream_matches_offline(2, 7);
    // A 64 KiB chunk decodes frames for several epochs in one read; the
    // pending packets must carry over between pulls bit-exactly.
    assert_stream_matches_offline(2, 65_536);
    // A chunk larger than a whole case's recording: the first read
    // encodes and decodes every epoch at once.
    assert_stream_matches_offline(2, 16_777_216);
}

#[test]
fn full_replay_reports_every_case_matching() {
    let cfg = tiny_config(4);
    let run = run_stream(&cfg, &StreamOptions::default()).expect("replay");
    assert_eq!(run.cases.len(), 5);
    assert!(
        run.all_match(),
        "stream path must match offline bit-for-bit"
    );
    assert!(run.packets_total > 0);
    let report = mpdf_eval::stream::report(&run);
    assert!(report.contains("5/5 cases score bit-identical"), "{report}");
}

#[test]
fn ragged_recordings_are_a_typed_error() {
    let cfg = tiny_config(1);
    let cases = &five_cases()[..1];
    let mut data = run_campaign(cases, &cfg).expect("campaign");
    // Drop one packet from one window: the fixed-N epoch batching can no
    // longer align the stream, which must surface as a typed error, not
    // silently shifted windows.
    data[0].windows[1].packets.pop();
    let err = stream_case_scores(&data[0], &cfg.detector, 1, &StreamOptions::default())
        .expect_err("ragged recording must be rejected");
    assert!(matches!(err, DetectError::InvalidConfig { .. }), "{err}");
}

#[test]
fn a_packet_that_does_not_fit_the_wire_is_refused_before_any_epoch_is_scored() {
    let cfg = tiny_config(1);
    let cases = &five_cases()[..1];
    let mut data = run_campaign(cases, &cfg).expect("campaign");
    // Every epoch but the last would fail scoring with `ShapeMismatch`
    // (two-antenna packets against a three-antenna profile), and the last
    // window holds a packet with 256 subcarriers, more than the header's
    // `u8` field can declare. Only a check that runs before any epoch is
    // scored returns the wire error instead of the scheme error.
    for w in &mut data[0].windows {
        for p in &mut w.packets {
            *p = p.select_antennas(&[0, 1]);
        }
    }
    let last = data[0].windows.last_mut().expect("recorded windows");
    last.packets[0] = CsiPacket::new(2, 256, vec![Complex64::ONE; 512], 0, 0.0);
    for threads in [1, 4] {
        let err = stream_case_scores(&data[0], &cfg.detector, threads, &StreamOptions::default())
            .expect_err("an unencodable packet must be refused");
        match err {
            DetectError::InvalidConfig { what } => {
                assert!(what.contains("does not fit the wire"), "{threads}: {what}");
            }
            other => panic!("{threads} thread(s): {other}"),
        }
    }
}

#[test]
fn a_scheme_error_stops_the_replay_as_that_typed_error() {
    let cfg = tiny_config(1);
    let cases = &five_cases()[..1];
    let mut data = run_campaign(cases, &cfg).expect("campaign");
    // A three-antenna profile against two-antenna packets: every scheme
    // fails every epoch with `ShapeMismatch`, which is not an abstention.
    for w in &mut data[0].windows {
        for p in &mut w.packets {
            *p = p.select_antennas(&[0, 1]);
        }
    }
    for threads in [1, 4] {
        let err = stream_case_scores(&data[0], &cfg.detector, threads, &StreamOptions::default())
            .expect_err("a shape mismatch must fail the replay");
        assert!(
            matches!(err, DetectError::ShapeMismatch { .. }),
            "{threads} thread(s): {err}"
        );
    }
}
