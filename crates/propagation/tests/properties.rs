//! Property-based tests for the propagation simulator.

#![expect(
    clippy::unwrap_used,
    clippy::panic,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::path::{PathKind, PropagationPath};
use mpdf_propagation::pathloss::PathLossModel;
use mpdf_propagation::tracer::{trace, TraceConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

use mpdf_eval::scenario::{five_cases, LinkCase};

fn room() -> Environment {
    Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)))
}

/// Points well inside the room.
fn interior() -> impl Strategy<Value = Vec2> {
    (0.5f64..7.5, 0.5f64..5.5).prop_map(|(x, y)| Vec2::new(x, y))
}

fn wifi_freq() -> impl Strategy<Value = f64> {
    2.452e9f64..2.472e9
}

/// The five evaluation links with their traced channels, built once.
fn case_links() -> &'static [(LinkCase, ChannelModel)] {
    static LINKS: OnceLock<Vec<(LinkCase, ChannelModel)>> = OnceLock::new();
    LINKS.get_or_init(|| {
        five_cases()
            .into_iter()
            .map(|case| {
                let model = ChannelModel::new(case.environment.clone(), case.tx, case.rx).unwrap();
                (case, model)
            })
            .collect()
    })
}

/// Where a test body stands: `(kind, u, v)` places it anywhere in the
/// case's room (kind 0), on the LOS (kind 1), within 1e-6 m of an
/// endpoint (kind 2), where no scatter path exists, or on a wall or
/// furniture path it shadows while the LOS stays clear (kind 3).
fn body_spot() -> impl Strategy<Value = (usize, f64, f64)> {
    (0usize..4, 0.0f64..1.0, 0.0f64..1.0)
}

fn place(case: &LinkCase, model: &ChannelModel, (kind, u, v): (usize, f64, f64)) -> Vec2 {
    match kind {
        0 => {
            let (lo, hi) = (case.room.min(), case.room.max());
            Vec2::new(lo.x + u * (hi.x - lo.x), lo.y + v * (hi.y - lo.y))
        }
        1 => case.tx.lerp(case.rx, u),
        2 => {
            let end = if v < 0.5 { case.tx } else { case.rx };
            end + Vec2::from_angle(u * std::f64::consts::TAU) * (0.9e-6 * v)
        }
        _ => off_los_blocker(model, u, v),
    }
}

/// A point on one of `model`'s non-LOS static paths where a body shadows
/// that path but not the LOS; `u` picks the path the search starts from
/// and `v` the fraction along it.
fn off_los_blocker(model: &ChannelModel, u: f64, v: f64) -> Vec2 {
    let snap = model.snapshot(None).unwrap();
    let (los, others) = snap.paths().split_first().unwrap();
    assert_eq!(los.kind(), PathKind::LineOfSight);
    let start = (u * others.len() as f64) as usize;
    for i in 0..others.len() {
        let path = &others[(start + i) % others.len()];
        for j in 0..16 {
            let spot = along(path, (v + j as f64 / 16.0).fract());
            let body = HumanBody::new(spot);
            if body.shadow_factor(los) == 1.0 && body.shadow_factor(path) < 1.0 {
                return spot;
            }
        }
    }
    panic!("no spot shadows a non-LOS path while the LOS stays clear");
}

/// The point a fraction `t` of the way along `path`.
fn along(path: &PropagationPath, t: f64) -> Vec2 {
    let mut left = t * path.length();
    for leg in path.vertices().windows(2) {
        let len = leg[0].distance(leg[1]);
        if left <= len {
            return leg[0].lerp(leg[1], left / len);
        }
        left -= len;
    }
    path.vertices()[path.vertices().len() - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn los_is_always_shortest(tx in interior(), rx in interior()) {
        prop_assume!(tx.distance(rx) > 0.1);
        let paths = trace(&room(), tx, rx, &TraceConfig::default()).unwrap();
        prop_assert_eq!(paths[0].kind(), PathKind::LineOfSight);
        prop_assert!((paths[0].length() - tx.distance(rx)).abs() < 1e-9);
        for p in &paths[1..] {
            prop_assert!(p.length() >= paths[0].length() - 1e-9);
        }
    }

    #[test]
    fn reflection_lengths_respect_triangle_inequality(tx in interior(), rx in interior()) {
        prop_assume!(tx.distance(rx) > 0.1);
        let paths = trace(&room(), tx, rx, &TraceConfig { max_order: 2, min_amplitude_factor: 0.0 }).unwrap();
        for p in paths {
            // Every bounce adds length: total ≥ straight-line distance.
            prop_assert!(p.length() >= tx.distance(rx) - 1e-9);
            // Amplitude factors are physical.
            prop_assert!(p.amplitude_factor() >= 0.0 && p.amplitude_factor() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn first_order_bounces_are_specular(tx in interior(), rx in interior()) {
        prop_assume!(tx.distance(rx) > 0.1);
        let env = room();
        let paths = trace(&env, tx, rx, &TraceConfig { max_order: 1, min_amplitude_factor: 0.0 }).unwrap();
        for p in paths.iter().filter(|p| p.kind() == (PathKind::WallReflection { order: 1 })) {
            // Image-method invariant: bounce length equals |image(tx) − rx|.
            let bounce = p.vertices()[1];
            let v_in = (bounce - tx).normalized().unwrap();
            let v_out = (rx - bounce).normalized().unwrap();
            // Find which wall the bounce point lies on and check angle equality
            // via the wall normal: incidence angle == reflection angle means
            // the normal components flip while tangentials match.
            let wall = env
                .walls()
                .iter()
                .find(|w| w.segment.distance_to_point(bounce) < 1e-6)
                .expect("bounce on a wall");
            let t = wall.segment.direction().normalized().unwrap();
            let n = t.perp();
            prop_assert!((v_in.dot(t) - v_out.dot(t)).abs() < 1e-9);
            prop_assert!((v_in.dot(n) + v_out.dot(n)).abs() < 1e-9);
        }
    }

    #[test]
    fn shadow_factor_bounded_and_monotone_with_radius(
        tx in interior(), rx in interior(), bx in interior(), f in wifi_freq()
    ) {
        prop_assume!(tx.distance(rx) > 0.5);
        prop_assume!(bx.distance(tx) > 0.3 && bx.distance(rx) > 0.3);
        let model = ChannelModel::new(room(), tx, rx).unwrap();
        let small = HumanBody::with_params(bx, 0.15, 0.38, 0.35);
        let big = HumanBody::with_params(bx, 0.45, 0.38, 0.35);
        let base = model.snapshot(None).unwrap();
        for path in base.paths() {
            let bs = small.shadow_factor(path);
            let bb = big.shadow_factor(path);
            prop_assert!((0.0..=1.0).contains(&bs));
            prop_assert!((0.0..=1.0).contains(&bb));
            // A larger body never shadows less.
            prop_assert!(bb <= bs + 1e-12);
        }
        let _ = f;
    }

    #[test]
    fn cfr_is_finite_and_snapshot_deterministic(
        tx in interior(), rx in interior(), bx in interior(), f in wifi_freq()
    ) {
        prop_assume!(tx.distance(rx) > 0.3);
        prop_assume!(bx.distance(tx) > 1e-3 && bx.distance(rx) > 1e-3);
        let model = ChannelModel::new(room(), tx, rx).unwrap();
        let body = HumanBody::new(bx);
        let s1 = model.snapshot(Some(&body)).unwrap();
        let s2 = model.snapshot(Some(&body)).unwrap();
        let h1 = s1.cfr_at(f, Vec2::ZERO);
        let h2 = s2.cfr_at(f, Vec2::ZERO);
        prop_assert!(h1.is_finite());
        prop_assert_eq!(h1, h2);
    }

    #[test]
    fn power_decreases_with_distance_on_average(f in wifi_freq()) {
        // Free-space sanity through the whole stack: average power over
        // several nearby frequencies must decay with link length.
        let env = room();
        let freqs: Vec<f64> = (0..16).map(|i| f + i as f64 * 1e6 - 8e6).collect();
        let tx = Vec2::new(1.0, 3.0);
        let mut last = f64::INFINITY;
        for d in [1.0f64, 2.5, 5.0] {
            let model = ChannelModel::new(env.clone(), tx, Vec2::new(1.0 + d, 3.0))
                .unwrap()
                .with_pathloss(PathLossModel::FREE_SPACE);
            let snap = model.snapshot(None).unwrap();
            let avg: f64 = freqs.iter().map(|&fk| snap.power(fk)).sum::<f64>() / freqs.len() as f64;
            prop_assert!(avg < last, "power must fall with distance");
            last = avg;
        }
    }

    #[test]
    fn human_scatter_increases_path_count(tx in interior(), rx in interior(), bx in interior()) {
        prop_assume!(tx.distance(rx) > 0.3);
        prop_assume!(bx.distance(tx) > 1e-2 && bx.distance(rx) > 1e-2);
        let model = ChannelModel::new(room(), tx, rx).unwrap();
        let calm = model.snapshot(None).unwrap();
        let busy = model.snapshot(Some(&HumanBody::new(bx))).unwrap();
        prop_assert_eq!(busy.paths().len(), calm.paths().len() + 1);
    }

    #[test]
    fn static_table_synthesis_is_bitwise_the_snapshot_cfr(
        a in body_spot(), b in body_spot(), axis in 0.0f64..std::f64::consts::TAU
    ) {
        // A 3-element λ/2 array on a random axis, over a 30-subcarrier grid.
        let freqs: Vec<f64> = (0..30).map(|k| 2.444e9 + k as f64 * 1.25e6).collect();
        let offsets: Vec<Vec2> = (0..3)
            .map(|e| Vec2::from_angle(axis) * ((e as f64 - 1.0) * 0.0609))
            .collect();
        let mut synth = Vec::new();
        for (case, model) in case_links() {
            let table = model.static_cfr_table(&freqs, &offsets);
            let spots = [a, b];
            for n in 0..=2 {
                let bodies: Vec<HumanBody> =
                    spots[..n].iter().map(|&s| HumanBody::new(place(case, model, s))).collect();
                model.synthesize_into(&table, &bodies, &mut synth);
                prop_assert_eq!(synth.len(), offsets.len() * freqs.len());
                let snap = model.snapshot_multi(&bodies).unwrap();
                for (e, &off) in offsets.iter().enumerate() {
                    let reference = snap.cfr_with_offset(&freqs, off);
                    for (k, h) in reference.iter().enumerate() {
                        let got = synth[e * freqs.len() + k];
                        prop_assert_eq!(got.re.to_bits(), h.re.to_bits());
                        prop_assert_eq!(got.im.to_bits(), h.im.to_bits());
                    }
                }
            }
        }
    }
}
