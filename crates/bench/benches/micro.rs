//! Micro-benchmarks of the pipeline's building blocks.
//!
//! The paper argues (§V-B4) that "the weighting schemes are low in
//! computation complexity [so] the dominating constraint lies in the
//! number of packets required". These benches quantify that: every
//! per-decision stage must be far below the 0.5 s packet budget.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mpdf_bench::{bench_fixture, bench_link};

// The overhead benches only mean something when every allocation in the
// process actually routes through the counting allocator.
#[cfg(feature = "alloc-profile")]
#[global_allocator]
static COUNTING_ALLOC: mpdf_obs::allocs::CountingAllocator = mpdf_obs::allocs::CountingAllocator;
use mpdf_core::multipath_factor::multipath_factors;
use mpdf_core::scheme::{
    Baseline, DetectionScheme, PreparedWindow, SubcarrierAndPathWeighting, SubcarrierWeighting,
};
use mpdf_core::subcarrier_weight::SubcarrierWeights;
use mpdf_fleet::{Fleet, FleetPolicy, LinkWindow};
use mpdf_music::covariance::sample_covariance;
use mpdf_music::music::{pseudospectrum, AngleGrid, UlaSteering};
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::tracer::{trace, TraceConfig};
use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::dft::{dft, nudft_at_delay};
use mpdf_rfmath::eig::hermitian_eig;
use mpdf_rfmath::matrix::CMatrix;
use mpdf_session::runtime::{SessionConfig, SessionRuntime};
use mpdf_wifi::band::Band;
use mpdf_wifi::receiver::CsiReceiver;
use mpdf_wifi::sanitize::sanitize_packet;
use mpdf_wifi::wire;

fn bench_numerics(c: &mut Criterion) {
    let mut g = c.benchmark_group("numerics");
    let x: Vec<Complex64> = (0..30)
        .map(|i| Complex64::cis(i as f64 * 0.7) * (1.0 + 0.01 * i as f64))
        .collect();
    let band = Band::wifi_2_4ghz_channel11();
    let freqs = band.frequencies();
    g.bench_function("dft_30", |b| b.iter(|| black_box(dft(black_box(&x)))));
    g.bench_function("nudft_delay0_30", |b| {
        b.iter(|| black_box(nudft_at_delay(black_box(&x), black_box(&freqs), 0.0)));
    });
    let v = [
        Complex64::new(1.0, 0.5),
        Complex64::new(0.0, -1.0),
        Complex64::new(0.7, 0.2),
    ];
    let a = &CMatrix::outer(&v, &v) + &CMatrix::identity(3).scale(0.1);
    g.bench_function("hermitian_eig_3x3", |b| {
        b.iter(|| black_box(hermitian_eig(black_box(&a), 1e-12).unwrap()));
    });
    g.finish();
}

fn bench_physics(c: &mut Criterion) {
    let mut g = c.benchmark_group("physics");
    let link = bench_link();
    let env = link.environment().clone();
    let tx = link.tx();
    let rx = link.rx();
    g.bench_function("trace_order3_shell_room", |b| {
        b.iter(|| black_box(trace(&env, tx, rx, &TraceConfig::default()).unwrap()));
    });
    let body = HumanBody::new(mpdf_geom::vec2::Point::new(4.0, 3.5));
    g.bench_function("snapshot_with_human", |b| {
        b.iter(|| black_box(link.snapshot(Some(&body)).unwrap()));
    });
    let snap = link.snapshot(Some(&body)).unwrap();
    let freqs = Band::wifi_2_4ghz_channel11().frequencies();
    g.bench_function("cfr_30_subcarriers", |b| {
        b.iter(|| black_box(snap.cfr(black_box(&freqs))));
    });
    g.finish();
}

fn bench_detection(c: &mut Criterion) {
    let mut g = c.benchmark_group("detection");
    let (profile, window, config) = bench_fixture();
    let freqs = config.band.frequencies();
    let mut pkt = window[0].clone();
    g.bench_function("sanitize_packet", |b| {
        b.iter(|| {
            let mut q = pkt.clone();
            black_box(sanitize_packet(&mut q, config.band.indices()));
        });
    });
    sanitize_packet(&mut pkt, config.band.indices());
    g.bench_function("multipath_factors_packet", |b| {
        b.iter(|| black_box(multipath_factors(black_box(&pkt), &freqs)));
    });
    g.bench_function("subcarrier_weights_25pkt", |b| {
        b.iter(|| black_box(SubcarrierWeights::from_packets(black_box(&window), &freqs)));
    });
    let snaps: Vec<Vec<Complex64>> = (0..30).map(|k| pkt.subcarrier_column(k)).collect();
    let r = sample_covariance(&snaps).unwrap();
    let steering = UlaSteering::three_half_wavelength();
    let grid = AngleGrid::full_front(1.0);
    g.bench_function("music_pseudospectrum_181pt", |b| {
        b.iter(|| black_box(pseudospectrum(&r, &steering, 2, &grid).unwrap()));
    });
    // The full per-decision AoA pipeline: covariance → eig → angle scan.
    g.bench_function("music_pipeline_cov_eig_scan", |b| {
        b.iter(|| {
            let r = sample_covariance(black_box(&snaps)).unwrap();
            let fb = mpdf_music::covariance::forward_backward(&r);
            black_box(pseudospectrum(&fb, &steering, 2, &grid).unwrap())
        });
    });
    // The shared front end of one window: quarantine, validation and
    // phase sanitization of its 25 packets (the subcarrier weights are
    // computed later, by the first scheme that reads them).
    g.bench_function("prepare_25pkt", |b| {
        b.iter(|| {
            let prepared = PreparedWindow::new(&profile, black_box(&window), &config);
            black_box(prepared.health().is_ok())
        });
    });
    // The three per-window decisions — the §V-B4 latency story. Each
    // bench scores one window prepared outside the loop, so these time
    // the scheme alone: no quarantine or sanitization, and for the
    // subcarrier and combined schemes no μ_k or subcarrier weights
    // either (the first call computes them, the rest reuse them).
    let prepared = PreparedWindow::new(&profile, &window, &config);
    g.bench_function("score_baseline_25pkt", |b| {
        b.iter(|| black_box(Baseline.score_prepared(black_box(&prepared)).unwrap()));
    });
    g.bench_function("score_subcarrier_25pkt", |b| {
        b.iter(|| {
            black_box(
                SubcarrierWeighting
                    .score_prepared(black_box(&prepared))
                    .unwrap(),
            )
        });
    });
    g.bench_function("score_combined_25pkt", |b| {
        b.iter(|| {
            black_box(
                SubcarrierAndPathWeighting
                    .score_prepared(black_box(&prepared))
                    .unwrap(),
            )
        });
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let (_, window, _) = bench_fixture();
    // One 3×30 frame: split + header validation + borrow, no packet
    // materialization — the zero-alloc hot path of the ingest loop.
    let mut g = c.benchmark_group("wire");
    let mut frame = Vec::new();
    // lint: allow(no-panic) — bench fixture; aborting on a broken fixture is the desired behaviour
    wire::encode_frame(&window[0], 40, &mut frame).expect("3x30 fits the wire");
    g.bench_function("decode_frame", |b| {
        b.iter(|| {
            // lint: allow(no-panic) — bench fixture; aborting on a broken fixture is the desired behaviour
            black_box(wire::WireRecord::parse(black_box(&frame)).expect("valid frame"))
        });
    });
    g.finish();

    // End-to-end ingest of one decision window's burst (25 packets of
    // 30 subcarriers): frame splitting plus packet materialization —
    // packets/sec/core is `window.len() / mean_ns_per_iter`.
    let mut g = c.benchmark_group("stream");
    let mut burst = Vec::new();
    for packet in &window {
        // lint: allow(no-panic) — bench fixture; aborting on a broken fixture is the desired behaviour
        wire::encode_frame(packet, 40, &mut burst).expect("3x30 fits the wire");
    }
    g.bench_function("ingest_30sub", |b| {
        let mut out = Vec::with_capacity(window.len());
        b.iter(|| {
            out.clear();
            let stats = wire::drain_frames(black_box(&burst), &mut out);
            black_box(stats.frames)
        });
    });
    g.finish();
}

fn bench_fleet(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet");
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
    let window = rx.capture_static(None, 25).expect("capture");
    let windows: Vec<LinkWindow> = (0..1000u64)
        .map(|link| LinkWindow {
            link,
            packets: window.clone(),
        })
        .collect();
    g.sample_size(10);
    g.bench_function("step_1k_links", |b| {
        b.iter(|| black_box(fleet.step_tick(black_box(&windows)).expect("step")));
    });
    g.finish();
}

fn bench_obs(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    // Default state — tracing and timing both off. This is the tax every
    // instrumented stage pays in production, so it must stay negligible
    // next to the per-decision budget above.
    g.bench_function("span_enter_exit_disabled", |b| {
        b.iter(|| {
            let guard = mpdf_obs::stage!("bench.span.disabled");
            black_box(&guard);
        });
    });
    // Timing on: span durations recorded into a lock-free histogram.
    mpdf_obs::metrics::enable_timing();
    g.bench_function("span_enter_exit_timed", |b| {
        b.iter(|| {
            let guard = mpdf_obs::stage!("bench.span.timed");
            black_box(&guard);
        });
    });
    mpdf_obs::metrics::disable_timing();
    // Tracing on with a bounded in-memory subscriber: full event emission.
    let ring = std::sync::Arc::new(mpdf_obs::trace::RingBuffer::new(1024));
    mpdf_obs::trace::install(ring as std::sync::Arc<dyn mpdf_obs::trace::Subscriber>);
    g.bench_function("span_enter_exit_ring", |b| {
        b.iter(|| {
            let guard = mpdf_obs::stage!("bench.span.ring");
            black_box(&guard);
        });
    });
    mpdf_obs::trace::uninstall();
    let counter = mpdf_obs::metrics::counter("bench.counter");
    g.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    let hist = mpdf_obs::metrics::histogram("bench.histogram");
    g.bench_function("histogram_record", |b| {
        b.iter(|| hist.record(black_box(1234)));
    });
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
    g.bench_function("profile_reconstruct_256win", |b| {
        b.iter(|| black_box(mpdf_obs::profile::reconstruct(black_box(&events))));
    });
    // Allocation churn with the default system allocator: the baseline
    // the `alloc-profile` overhead bench below is compared against.
    g.bench_function("alloc_churn_baseline", |b| {
        b.iter(|| {
            let v: Vec<u64> = Vec::with_capacity(black_box(64));
            black_box(v);
        });
    });
    // Same churn through the counting allocator with stage attribution
    // on (only built with `--features alloc-profile`; the committed
    // reference keeps the entry, default runs report it as missing).
    #[cfg(feature = "alloc-profile")]
    {
        mpdf_obs::allocs::enable();
        let _scope = mpdf_obs::allocs::StageScope::enter("bench.alloc");
        g.bench_function("alloc_churn_counted", |b| {
            b.iter(|| {
                let v: Vec<u64> = Vec::with_capacity(black_box(64));
                black_box(v);
            });
        });
        mpdf_obs::allocs::disable();
    }
    g.finish();
}

fn bench_xtask(c: &mut Criterion) {
    let mut g = c.benchmark_group("xtask");
    // Full-workspace static analysis: lex every first-party file and run
    // all fifteen rules. This is the pre-commit/CI latency developers
    // actually feel, so it is pinned alongside the pipeline numbers.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    g.bench_function("lint_workspace_full", |b| {
        b.iter(|| black_box(xtask::lint::lint_workspace(black_box(root)).unwrap()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_numerics,
    bench_physics,
    bench_detection,
    bench_wire,
    bench_fleet,
    bench_obs,
    bench_xtask
);
criterion_main!(benches);
