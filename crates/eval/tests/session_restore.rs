//! Kill-and-restore determinism for the supervised session demo.
//!
//! A session killed mid-run and restored from its checkpoint must emit a
//! transcript whose concatenation with the killed run's output is
//! byte-identical to the uninterrupted run — at any worker thread count.
//! Scores are printed as raw `f64` bit patterns, so "identical" here
//! means 0 ULP, not printing precision.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use std::path::PathBuf;

use mpdf_eval::session::{run_session_demo, SessionDemoOptions};
use mpdf_eval::workload::CampaignConfig;

fn temp_checkpoint(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mpdf_session_restore_{}_{}.ckpt",
        std::process::id(),
        tag
    ))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let mut bak = path.clone().into_os_string();
    bak.push(".bak");
    let _ = std::fs::remove_file(PathBuf::from(bak));
}

fn run(cfg: &CampaignConfig, opts: &SessionDemoOptions) -> String {
    let mut buf = Vec::new();
    run_session_demo(cfg, opts, &mut buf).expect("session demo");
    String::from_utf8(buf).expect("utf8 transcript")
}

fn window_lines(transcript: &str) -> Vec<&str> {
    transcript
        .lines()
        .filter(|l| l.starts_with("window="))
        .collect()
}

#[test]
fn killed_and_restored_session_matches_uninterrupted_run() {
    let mut transcripts = Vec::new();
    for threads in [1usize, 4] {
        let cfg = CampaignConfig {
            threads,
            ..CampaignConfig::default()
        };
        let full = run(&cfg, &SessionDemoOptions::default());

        let ckpt = temp_checkpoint(&format!("t{threads}"));
        cleanup(&ckpt);
        let killed = run(
            &cfg,
            &SessionDemoOptions {
                checkpoint: Some(ckpt.clone()),
                kill_after: Some(13),
            },
        );
        assert!(
            killed
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("killed")),
            "killed run must end on a killed marker, got:\n{killed}"
        );
        let resumed = run(
            &cfg,
            &SessionDemoOptions {
                checkpoint: Some(ckpt.clone()),
                kill_after: None,
            },
        );
        cleanup(&ckpt);
        assert!(
            resumed.starts_with("resumed window=13"),
            "resume must pick up at the killed cursor, got:\n{resumed}"
        );

        let stitched: Vec<&str> = window_lines(&killed)
            .into_iter()
            .chain(window_lines(&resumed))
            .collect();
        assert_eq!(
            window_lines(&full),
            stitched,
            "threads={threads}: stitched kill+restore transcript diverged"
        );
        transcripts.push(full);
    }
    // The uninterrupted transcript must also be byte-identical across
    // worker thread counts.
    assert_eq!(
        transcripts[0], transcripts[1],
        "session transcript must not depend on threads"
    );
}
