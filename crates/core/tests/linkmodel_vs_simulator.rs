//! Cross-validation: the ray-tracing simulator against the paper's
//! analytic one-bounce link model (Eq. 2–8).
//!
//! A link is staged so that exactly two paths survive — the LOS and one
//! wall bounce — then the simulator's ground-truth LOS power fraction and
//! its shadowing response are compared against `TwoPathLink`'s closed
//! forms, with `γ` and `φ` computed from the traced geometry. If the
//! physics layer and the analysis layer ever drift apart, this test
//! fails.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers stop on a setup failure, as clippy.toml's allow-*-in-tests lets `#[test]` code"
)]

use mpdf_core::linkmodel::TwoPathLink;
use mpdf_geom::shapes::Rect;
use mpdf_geom::vec2::Vec2;
use mpdf_propagation::channel::ChannelModel;
use mpdf_propagation::environment::Environment;
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::path::PathKind;
use mpdf_propagation::tracer::TraceConfig;
use mpdf_propagation::SPEED_OF_LIGHT;

/// An anechoic stage: absorber boundary walls (Γ = 0, pruned by the
/// amplitude filter) plus one reflective interior wall below the link —
/// exactly the LOS + single bounce of the paper's §III-B analysis.
fn two_path_link() -> ChannelModel {
    let absorber = mpdf_propagation::Material::new("absorber", 0.0, 0.0);
    let mut b = Environment::builder(Rect::new(Vec2::ZERO, Vec2::new(40.0, 20.0)), absorber);
    b.interior_wall(
        mpdf_geom::segment::Segment::new(Vec2::new(0.0, 0.1), Vec2::new(40.0, 0.1)),
        mpdf_propagation::Material::CONCRETE,
    );
    ChannelModel::new(b.build(), Vec2::new(18.0, 2.0), Vec2::new(22.0, 2.0))
        .unwrap()
        .with_trace_config(TraceConfig {
            max_order: 1,
            min_amplitude_factor: 0.05,
        })
        .unwrap()
}

/// Extracts `(γ, Δd)` from the traced path set, asserting the two-path
/// premise.
fn gamma_and_excess(model: &ChannelModel) -> (f64, f64) {
    let snap = model.snapshot(None).unwrap();
    let paths = snap.paths();
    assert_eq!(
        paths.len(),
        2,
        "stage must have exactly LOS + one bounce, got {:?}",
        paths
            .iter()
            .map(|p| (p.kind(), p.length()))
            .collect::<Vec<_>>()
    );
    assert_eq!(paths[0].kind(), PathKind::LineOfSight);
    let f = 2.462e9;
    let a_l = paths[0].gain(f, model.pathloss()).norm();
    let a_r = paths[1].gain(f, model.pathloss()).norm();
    (a_l / a_r, paths[1].length() - paths[0].length())
}

#[test]
fn simulator_matches_eq3_multipath_factor() {
    let model = two_path_link();
    let (gamma, excess) = gamma_and_excess(&model);
    assert!(gamma > 1.0, "LOS must dominate, γ = {gamma}");
    let snap = model.snapshot(None).unwrap();
    for i in 0..16 {
        let f = 2.452e9 + i as f64 * 1.25e6;
        let phi = 2.0 * std::f64::consts::PI * f * excess / SPEED_OF_LIGHT;
        // γ varies (negligibly) with f through the path-loss law; the
        // centre-frequency value is accurate to ~1e-4 across the band.
        let theory = TwoPathLink::new(gamma, phi).multipath_factor();
        let simulated = snap.true_multipath_factor(f).unwrap();
        assert!(
            (theory - simulated).abs() < 1e-3 * theory.max(1.0),
            "f = {f}: theory μ {theory} vs simulator μ {simulated}"
        );
    }
}

#[test]
fn simulator_matches_eq5_shadowing_response() {
    let model = two_path_link();
    let (gamma, excess) = gamma_and_excess(&model);
    let calm = model.snapshot(None).unwrap();

    // A pure absorber on the LOS midpoint: reflectivity 0 disables the
    // Eq. 7 scatter term the Eq. 5 analysis does not include, and the
    // bounce legs pass well below the body.
    let beta = 0.35;
    let body = HumanBody::with_params(Vec2::new(20.0, 2.0), 0.2, 0.0, beta);
    let busy = model.snapshot(Some(&body)).unwrap();
    // Confirm the bounce path is untouched.
    assert!(
        (busy.paths()[1].amplitude_factor() - calm.paths()[1].amplitude_factor()).abs() < 1e-12,
        "bounce path must not be shadowed in this stage"
    );

    for i in 0..16 {
        let f = 2.452e9 + i as f64 * 1.25e6;
        let phi = 2.0 * std::f64::consts::PI * f * excess / SPEED_OF_LIGHT;
        let theory = TwoPathLink::new(gamma, phi).shadow_sensitivity_db(beta);
        let simulated = 10.0 * (busy.power(f) / calm.power(f)).log10();
        assert!(
            (theory - simulated).abs() < 0.05,
            "f = {f}: theory Δs {theory:.4} dB vs simulator {simulated:.4} dB"
        );
    }
}

#[test]
fn simulator_matches_eq8_reflection_response() {
    // Now the opposite stage: a body *beside* the link that only adds a
    // scatter path (shadowing nothing), compared against Eq. 8.
    let model = two_path_link();
    let (gamma, excess) = gamma_and_excess(&model);
    let calm = model.snapshot(None).unwrap();

    // Body 1.5 m above the link: clear of both existing paths.
    let body = HumanBody::with_params(Vec2::new(20.0, 3.5), 0.2, 0.38, 0.35);
    let busy = model.snapshot(Some(&body)).unwrap();
    assert_eq!(busy.paths().len(), 3, "scatter path must be added");
    let scatter = busy
        .paths()
        .iter()
        .find(|p| p.kind() == PathKind::HumanScatter)
        .unwrap();

    for i in 0..8 {
        let f = 2.452e9 + i as f64 * 2.5e6;
        let a_l = calm.paths()[0].gain(f, model.pathloss()).norm();
        let a_r = calm.paths()[1].gain(f, model.pathloss()).norm();
        let a_h = scatter.gain(f, model.pathloss()).norm();
        let phi = 2.0 * std::f64::consts::PI * f * excess / SPEED_OF_LIGHT;
        let phi_h = 2.0 * std::f64::consts::PI * f * (scatter.length() - calm.paths()[0].length())
            / SPEED_OF_LIGHT;
        // Eq. 8 parameters: η = a'_R/a_R relative to the *existing*
        // reflection, φ' relative to the LOS.
        let eta = a_h / a_r;
        let link = TwoPathLink::new(a_l / a_r, phi);
        let theory = link.reflection_sensitivity_db(eta, phi_h);
        let simulated = 10.0 * (busy.power(f) / calm.power(f)).log10();
        assert!(
            (theory - simulated).abs() < 0.05,
            "f = {f}: theory Δs {theory:.4} dB vs simulator {simulated:.4} dB (γ={gamma:.2})"
        );
    }
}
