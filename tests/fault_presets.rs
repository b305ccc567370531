//! Every experiment of `repro all` completes under every receiver-fault
//! preset: quarantine, gap budgets and abstention absorb the faults, so
//! each run returns `Ok` — at a tiny scale, in the debug profile, where
//! the numeric contracts are live.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use mpdf_eval::experiments as exp;
use mpdf_eval::workload::CampaignConfig;
use mpdf_wifi::FaultModel;

/// `Ok(())`, or the error as text.
fn outcome<T, E: std::fmt::Display>(run: Result<T, E>) -> Result<(), String> {
    run.map(drop).map_err(|e| e.to_string())
}

/// Runs all eighteen experiments at a tiny scale with `preset` injected.
fn every_experiment_completes(preset: &str) {
    let cfg = CampaignConfig {
        episodes_per_position: 1,
        negative_windows: 5,
        calibration_packets: 150,
        faults: FaultModel::preset(preset).expect("known preset"),
        threads: 2,
        ..Default::default()
    };
    let (locations, packets) = (12, 60);
    let runs: [(&str, Result<(), String>); 18] = [
        ("fig2a", outcome(exp::fig2::run_fig2a(&cfg, locations))),
        ("fig2b", outcome(exp::fig2::run_fig2b(&cfg, packets))),
        ("fig3", outcome(exp::fig3::run(&cfg, locations))),
        ("fig4", outcome(exp::fig4::run(&cfg, 4 * packets))),
        ("fig5b", outcome(exp::fig5::run_fig5b(&cfg))),
        ("fig5c", outcome(exp::fig5::run_fig5c(&cfg))),
        ("fig7", outcome(exp::fig7::run(&cfg))),
        ("fig8", outcome(exp::fig8::run(&cfg))),
        ("fig9", outcome(exp::fig9::run(&cfg))),
        ("fig10", outcome(exp::fig10::run(&cfg))),
        ("fig11", outcome(exp::fig11::run(&cfg))),
        ("fig12", outcome(exp::fig12::run(&cfg))),
        ("ext-hmm", outcome(exp::ext_hmm::run(&cfg))),
        ("ext-array", outcome(exp::ext_array::run(&cfg))),
        ("ext-ablate", outcome(exp::ext_ablate::run(&cfg))),
        ("ext-sweep", outcome(exp::ext_sweep::run(&cfg))),
        ("ext-chaos", outcome(exp::ext_chaos::run(&cfg))),
        ("ext-drift", outcome(exp::ext_drift::run(&cfg))),
    ];
    let failed: Vec<String> = runs
        .into_iter()
        .filter_map(|(name, run)| run.err().map(|e| format!("{name}: {e}")))
        .collect();
    assert!(failed.is_empty(), "--faults {preset}: {failed:?}");
}

#[test]
fn every_experiment_completes_under_packet_loss() {
    every_experiment_completes("loss");
}

#[test]
fn every_experiment_completes_under_chain_dropout() {
    every_experiment_completes("dropout");
}

#[test]
fn every_experiment_completes_under_agc_saturation() {
    every_experiment_completes("agc");
}

#[test]
fn every_experiment_completes_under_decoder_glitches() {
    every_experiment_completes("glitch");
}

#[test]
fn every_experiment_completes_under_chaos() {
    every_experiment_completes("chaos");
}
