//! Micro-benchmarks of the pipeline's building blocks.
//!
//! The paper argues (§V-B4) that "the weighting schemes are low in
//! computation complexity [so] the dominating constraint lies in the
//! number of packets required". These benches quantify that: every
//! per-decision stage must be far below the 0.5 s packet budget.
//!
//! `cargo bench -p mpdf-bench --bench micro` times every bench with
//! [`mpdf_bench::Harness`] and writes `BENCH_micro.json`.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the bench binary reports on stdout and stderr and stops on a setup failure, as clippy.toml's allow-*-in-tests lets test code"
)]

use std::hint::black_box;

use mpdf_bench::{bench_fixture, bench_link, Harness};

// The overhead benches only mean something when every allocation in the
// process actually routes through the counting allocator.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static COUNTING_ALLOC: mpdf_obs::allocs::CountingAllocator = mpdf_obs::allocs::CountingAllocator;
use mpdf_core::multipath_factor::{multipath_factors, MuGrid, MuScratch};
use mpdf_core::scheme::{
    Baseline, DetectionScheme, PreparedWindow, SubcarrierAndPathWeighting, SubcarrierWeighting,
};
use mpdf_core::subcarrier_weight::SubcarrierWeights;
use mpdf_fleet::{Fleet, FleetPolicy, LinkWindow};
use mpdf_music::covariance::sample_covariance;
use mpdf_music::music::{pseudospectrum, AngleGrid, UlaSteering};
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::tracer::{trace, TraceConfig};
use mpdf_rfmath::angle::phase_args_into;
use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::dft::nudft_at_delay;
use mpdf_rfmath::eig::hermitian_eig;
use mpdf_rfmath::matrix::CMatrix;
use mpdf_session::runtime::{SessionConfig, SessionRuntime};
use mpdf_wifi::band::Band;
use mpdf_wifi::csi::CsiPacket;
use mpdf_wifi::receiver::CsiReceiver;
use mpdf_wifi::wire;

fn bench_numerics(h: &mut Harness) {
    let x: Vec<Complex64> = (0..30)
        .map(|i| Complex64::cis(i as f64 * 0.7) * (1.0 + 0.01 * i as f64))
        .collect();
    let band = Band::wifi_2_4ghz_channel11();
    let freqs = band.frequencies();
    h.bench("numerics/nudft_delay0_30", || {
        nudft_at_delay(black_box(&x), black_box(&freqs), 0.0)
    });
    // The phase angles of one packet's 30 antenna sums, as the μ_k
    // estimator's linear-phase fit reads them (no zero component, so
    // the batched kernel runs, not the std fallback).
    let sums: Vec<Complex64> = (0..30)
        .map(|i| Complex64::cis(0.7 * i as f64 + 0.3) * (1.0 + 0.01 * i as f64))
        .collect();
    let mut phases = Vec::with_capacity(30);
    h.bench("numerics/phase_args_30", || {
        phase_args_into(black_box(&sums), &mut phases);
        phases[0]
    });
    let v = [
        Complex64::new(1.0, 0.5),
        Complex64::new(0.0, -1.0),
        Complex64::new(0.7, 0.2),
    ];
    let a = &CMatrix::outer(&v, &v) + &CMatrix::identity(3).scale(0.1);
    h.bench("numerics/hermitian_eig_3x3", || {
        hermitian_eig(black_box(&a), 1e-12).unwrap()
    });
}

fn bench_physics(h: &mut Harness) {
    let link = bench_link();
    let env = link.environment().clone();
    let tx = link.tx();
    let rx = link.rx();
    h.bench("physics/trace_order3_shell_room", || {
        trace(&env, tx, rx, &TraceConfig::default()).unwrap()
    });
    let body = HumanBody::new(mpdf_geom::vec2::Point::new(4.0, 3.5));
    h.bench("physics/snapshot_with_human", || {
        link.snapshot(Some(&body)).unwrap()
    });
    let snap = link.snapshot(Some(&body)).unwrap();
    let freqs = Band::wifi_2_4ghz_channel11().frequencies();
    h.bench("physics/cfr_30_subcarriers", || snap.cfr(black_box(&freqs)));
}

fn bench_detection(h: &mut Harness) {
    let (profile, window, config) = bench_fixture();
    // μ_k of one packet as captured, grid built per call: the
    // linear-phase fit, the rotor and Eq. 9–11 on each antenna row.
    let pkt = &window[0];
    h.bench("detection/multipath_factors_packet", || {
        multipath_factors(black_box(pkt), &config.band)
    });
    // μ_k of a whole window on a prebuilt grid: 25 packets, each turned
    // by its own common phase, as the fleet delivers them.
    let rotated: Vec<CsiPacket> = window
        .iter()
        .enumerate()
        .map(|(p, pkt)| {
            let w = Complex64::cis(0.37 * p as f64 + 0.1);
            let data = (0..pkt.antennas())
                .flat_map(|a| pkt.antenna_row(a).iter().map(move |&h| h * w))
                .collect();
            CsiPacket::new(
                pkt.antennas(),
                pkt.subcarriers(),
                data,
                pkt.seq,
                pkt.timestamp,
            )
        })
        .collect();
    let mu_grid = MuGrid::new(&config.band);
    let mut mu_scratch = MuScratch::default();
    let k = config.band.num_subcarriers();
    let mut mus = vec![0.0; rotated.len() * k];
    h.bench("detection/mu_k_window_25pkt", || {
        for (p, seg) in black_box(&rotated).iter().zip(mus.chunks_exact_mut(k)) {
            mu_grid.packet_factors_into(p, &mut mu_scratch, seg);
        }
        mus[0]
    });
    h.bench("detection/subcarrier_weights_25pkt", || {
        SubcarrierWeights::from_packets(black_box(&window), &config.band)
    });
    let snaps: Vec<Vec<Complex64>> = (0..30).map(|k| pkt.subcarrier_column(k)).collect();
    let r = sample_covariance(&snaps).unwrap();
    let steering = UlaSteering::three_half_wavelength();
    let grid = AngleGrid::full_front(1.0);
    h.bench("detection/music_pseudospectrum_181pt", || {
        pseudospectrum(&r, &steering, 2, &grid).unwrap()
    });
    // The full per-decision AoA pipeline: covariance → eig → angle scan.
    h.bench("detection/music_pipeline_cov_eig_scan", || {
        let r = sample_covariance(black_box(&snaps)).unwrap();
        let fb = mpdf_music::covariance::forward_backward(&r);
        pseudospectrum(&fb, &steering, 2, &grid).unwrap()
    });
    // The shared front end of one window: quarantine and validation of
    // its 25 packets, kept as captured (the subcarrier weights, and with
    // them the phase fit inside μ_k, are computed later, by the first
    // scheme that reads them).
    h.bench("detection/prepare_25pkt", || {
        let prepared = PreparedWindow::new(&profile, black_box(&window), &config);
        prepared.health().is_ok()
    });
    // The three per-window decisions — the §V-B4 latency story. Each
    // bench scores one window prepared outside the loop, so these time
    // the scheme alone: no quarantine, and for the subcarrier and
    // combined schemes no μ_k (phase fit included) or subcarrier weights
    // either (the first call computes them, the rest reuse them).
    let prepared = PreparedWindow::new(&profile, &window, &config);
    h.bench("detection/score_baseline_25pkt", || {
        Baseline.score_prepared(black_box(&prepared)).unwrap()
    });
    h.bench("detection/score_subcarrier_25pkt", || {
        SubcarrierWeighting
            .score_prepared(black_box(&prepared))
            .unwrap()
    });
    h.bench("detection/score_combined_25pkt", || {
        SubcarrierAndPathWeighting
            .score_prepared(black_box(&prepared))
            .unwrap()
    });
}

fn bench_wire(h: &mut Harness) {
    let (_, window, _) = bench_fixture();
    // One 3×30 frame: split + header validation + borrow, no packet
    // materialization — the zero-alloc hot path of the ingest loop.
    let mut frame = Vec::new();
    wire::encode_frame(&window[0], 40, &mut frame).expect("3x30 fits the wire");
    h.bench("wire/decode_frame", || {
        wire::WireRecord::parse(black_box(&frame)).expect("valid frame")
    });

    // End-to-end ingest of one decision window's burst (25 packets of
    // 30 subcarriers): frame splitting plus packet materialization —
    // packets/sec/core is `window.len() / median_ns`.
    let mut burst = Vec::new();
    for packet in &window {
        wire::encode_frame(packet, 40, &mut burst).expect("3x30 fits the wire");
    }
    let mut out = Vec::with_capacity(window.len());
    h.bench("stream/ingest_30sub", || {
        out.clear();
        wire::drain_frames(black_box(&burst), &mut out).frames
    });
}

fn bench_fleet(h: &mut Harness) {
    // One supervisor tick over a thousand calibrated links across eight
    // shards — the fleet-scale hot path (route → shed → step → fuse).
    // A single calibration is cloned per link; a one-window rollback
    // reservoir keeps the clone cost in memory, not in the timed loop.
    let mut rx = CsiReceiver::new(bench_link(), 4321).expect("receiver");
    let calibration = rx.capture_static(None, 150).expect("capture");
    let runtime = SessionRuntime::calibrate(
        &calibration,
        SubcarrierWeighting,
        mpdf_core::profile::DetectorConfig::default(),
        SessionConfig {
            reservoir_windows: 1,
            ..SessionConfig::default()
        },
    )
    .expect("calibrate");
    let mut fleet = Fleet::in_memory(8, FleetPolicy::default(), 1).expect("fleet");
    for link in 0..1000u64 {
        fleet
            .register(link, (link % 8) as u32, runtime.clone())
            .expect("register");
    }
    // Each link sees its own window, captured by a receiver seeded with
    // the link id, so no two links score the same bits.
    let windows: Vec<LinkWindow> = (0..1000u64)
        .map(|link| LinkWindow {
            link,
            packets: rx.fork(link).capture_static(None, 25).expect("capture"),
        })
        .collect();
    h.bench("fleet/step_1k_links", || {
        fleet.step_tick(black_box(&windows)).expect("step")
    });
}

fn bench_obs(h: &mut Harness) {
    // Default state — tracing and timing both off. This is the tax every
    // instrumented stage pays in production, so it must stay negligible
    // next to the per-decision budget above.
    h.bench("obs/span_enter_exit_disabled", || {
        let guard = mpdf_obs::stage!("bench.span.disabled");
        black_box(&guard);
    });
    // Timing on: span durations recorded into a lock-free histogram.
    mpdf_obs::metrics::enable_timing();
    h.bench("obs/span_enter_exit_timed", || {
        let guard = mpdf_obs::stage!("bench.span.timed");
        black_box(&guard);
    });
    mpdf_obs::metrics::disable_timing();
    // Tracing on with a bounded in-memory subscriber: full event emission.
    let ring = std::sync::Arc::new(mpdf_obs::trace::RingBuffer::new(1024));
    mpdf_obs::trace::install(ring as std::sync::Arc<dyn mpdf_obs::trace::Subscriber>);
    h.bench("obs/span_enter_exit_ring", || {
        let guard = mpdf_obs::stage!("bench.span.ring");
        black_box(&guard);
    });
    mpdf_obs::trace::uninstall();
    let counter = mpdf_obs::metrics::counter("bench.counter");
    h.bench("obs/counter_inc", || counter.inc());
    let hist = mpdf_obs::metrics::histogram("bench.histogram");
    h.bench("obs/histogram_record", || hist.record(black_box(1234)));
    // Offline span-tree reconstruction (the `trace-report` hot path):
    // a balanced two-level stream, 256 windows of 4 nested stages.
    let mut events = Vec::new();
    let mut ts = 0u64;
    for _ in 0..256 {
        for name in ["eval.window", "music.covariance", "music.scan"] {
            events.push(mpdf_obs::profile::TraceEvent {
                kind: mpdf_obs::trace::SpanKind::Enter,
                name: name.to_owned(),
                thread: 1,
                ts_ns: ts,
                elapsed_ns: 0,
            });
            ts += 100;
        }
        for (name, elapsed) in [
            ("music.scan", 100),
            ("music.covariance", 300),
            ("eval.window", 500),
        ] {
            ts += 100;
            events.push(mpdf_obs::profile::TraceEvent {
                kind: mpdf_obs::trace::SpanKind::Exit,
                name: name.to_owned(),
                thread: 1,
                ts_ns: ts,
                elapsed_ns: elapsed,
            });
        }
    }
    h.bench("obs/profile_reconstruct_256win", || {
        mpdf_obs::profile::reconstruct(black_box(&events))
    });
    // Allocation churn with the default system allocator: the baseline
    // the `alloc-profile` overhead bench below is compared against.
    h.bench("obs/alloc_churn_baseline", || {
        Vec::<u64>::with_capacity(black_box(64))
    });
    // Same churn through the counting allocator with stage attribution
    // on (only built with `--features alloc-profile`; the committed
    // reference keeps the entry, default runs report it as missing).
    #[cfg(feature = "alloc-profile")]
    {
        mpdf_obs::allocs::enable();
        let _scope = mpdf_obs::allocs::StageScope::enter("bench.alloc");
        h.bench("obs/alloc_churn_counted", || {
            Vec::<u64>::with_capacity(black_box(64))
        });
        mpdf_obs::allocs::disable();
    }
}

fn bench_xtask(h: &mut Harness) {
    // Full-workspace static analysis: lex every first-party file and run
    // every rule. This is the pre-commit/CI latency developers
    // actually feel, so it is pinned alongside the pipeline numbers.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    h.bench("xtask/lint_workspace_full", || {
        xtask::lint::lint_workspace(black_box(root)).unwrap()
    });
}

fn main() {
    let mut h = Harness::default();
    bench_numerics(&mut h);
    bench_physics(&mut h);
    bench_detection(&mut h);
    bench_wire(&mut h);
    bench_fleet(&mut h);
    bench_obs(&mut h);
    bench_xtask(&mut h);
    for record in h.records() {
        println!("{record}");
    }
    match h.write_report("micro") {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_micro.json: {e}");
            std::process::exit(1);
        }
    }
}
