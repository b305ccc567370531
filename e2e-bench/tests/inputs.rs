//! Input honesty: the benchmark must not flatter the code it measures
//! with repeated inputs.

use std::collections::HashMap;

use mpdf_e2e::fleet::FleetBench;
use mpdf_e2e::gen::Digest;
use mpdf_e2e::spans::Spans;
use mpdf_e2e::{stream, Bench, Ctx, Scale, Workload};
use mpdf_eval::scenario::five_cases;
use mpdf_eval::workload::run_campaign;
use mpdf_wifi::csi::CsiPacket;

fn ctx(workload: Workload, scale: Scale) -> Ctx {
    Ctx {
        workload,
        seed: 11,
        threads: 2,
        scale,
        io_spans: None,
    }
}

fn bits(window: &[CsiPacket]) -> u64 {
    let mut d = Digest::default();
    for p in window {
        d.u64(p.seq);
        d.f64(p.timestamp);
        for a in 0..p.antennas() {
            for h in p.antenna_row(a) {
                d.f64(h.re);
                d.f64(h.im);
            }
        }
    }
    d.value()
}

/// Panics unless no two windows are equal under `CsiPacket::bits_eq`.
fn assert_distinct(windows: &[Vec<CsiPacket>]) {
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, w) in windows.iter().enumerate() {
        let same_hash = seen.entry(bits(w)).or_default();
        for &j in same_hash.iter() {
            let equal =
                w.len() == windows[j].len() && w.iter().zip(&windows[j]).all(|(p, q)| p.bits_eq(q));
            assert!(!equal, "windows {j} and {i} are bit-identical");
        }
        same_hash.push(i);
    }
}

#[test]
fn fleet_deliveries_are_distinct_and_every_poisoned_window_is_accounted_for() {
    for workload in [Workload::Fleet, Workload::FleetLogged] {
        let mut bench = FleetBench::setup(&ctx(workload, Scale::Smoke), &mut Spans::new(false))
            .expect("set-up");
        let ops: Vec<_> = (0..40)
            .map(|i| bench.op(i, &mut Spans::new(false)))
            .collect();
        bench.finish(&ops);
        assert!(bench.checks().ok(), "{:?}", bench.checks().failures());
        assert!(ops.iter().all(|o| !o.failed));
        let windows = bench.delivered_windows();
        assert!(windows.len() > 200, "{} deliveries", windows.len());
        assert_distinct(&windows);
        let (injected, shape_faults, skipped) = bench.poison_counts();
        assert!(shape_faults > 0, "no poisoned window reached a link");
        assert_eq!(injected, shape_faults + skipped);
    }
}

#[test]
fn the_full_stream_recording_has_1080_distinct_windows() {
    let cfg = stream::recording_config(&ctx(Workload::Stream, Scale::Full));
    let data = run_campaign(&five_cases(), &cfg).expect("recording");
    let windows: Vec<Vec<CsiPacket>> = data
        .into_iter()
        .flat_map(|case| case.windows.into_iter().map(|w| w.packets))
        .collect();
    assert!(windows.len() >= 1080, "{} windows", windows.len());
    assert_distinct(&windows);
}
