//! The multipath channel: paths → channel frequency response.
//!
//! [`ChannelModel`] binds an environment to a TX–RX link; a
//! [`ChannelSnapshot`] freezes the traced path set for one instant (one
//! human position) and evaluates the CFR the paper's Eq. 1/2 describe:
//!
//! `H(f) = Σ_i a_i·e^{-jθ_i(f)}`
//!
//! Snapshots also expose *ground truth* the physical testbed could never
//! report — the true per-frequency LOS power fraction — which the test
//! suite uses to validate the paper's measurable multipath-factor proxy.
//!
//! A receiver that samples the same link packet after packet does not
//! build snapshots: it keeps a [`StaticCfrTable`] of the static paths'
//! body-invariant terms and calls [`ChannelModel::synthesize_into`],
//! which produces the same bits.

use std::sync::Arc;

use mpdf_geom::vec2::{Point, Vec2};
use mpdf_rfmath::complex::Complex64;

use crate::environment::Environment;
use crate::human::HumanBody;
use crate::path::{PathKind, PropagationPath};
use crate::pathloss::{PathLossModel, SPEED_OF_LIGHT};
use crate::tracer::{trace, TraceConfig, TraceError};

/// A TX–RX link inside an environment.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelModel {
    env: Environment,
    tx: Point,
    rx: Point,
    pathloss: PathLossModel,
    trace_cfg: TraceConfig,
    /// Environment paths, traced once — humans only modulate them.
    /// Behind an `Arc` so that clones of the model (every receiver fork
    /// clones its channel) share one immutable path set.
    static_paths: Arc<Vec<PropagationPath>>,
}

/// Traces the static path set of a link.
fn traced(
    env: &Environment,
    tx: Point,
    rx: Point,
    cfg: &TraceConfig,
) -> Result<Arc<Vec<PropagationPath>>, TraceError> {
    let _stage = mpdf_obs::stage!("physics.trace");
    Ok(Arc::new(trace(env, tx, rx, cfg)?))
}

impl ChannelModel {
    /// Creates a channel model, validating the link geometry eagerly.
    ///
    /// # Errors
    /// Propagates [`TraceError`] for endpoints outside the room or a
    /// degenerate link.
    pub fn new(env: Environment, tx: Point, rx: Point) -> Result<Self, TraceError> {
        let trace_cfg = TraceConfig::default();
        let static_paths = traced(&env, tx, rx, &trace_cfg)?;
        Ok(ChannelModel {
            env,
            tx,
            rx,
            pathloss: PathLossModel::default(),
            trace_cfg,
            static_paths,
        })
    }

    /// Replaces the path-loss model (builder-style).
    pub fn with_pathloss(mut self, pathloss: PathLossModel) -> Self {
        self.pathloss = pathloss;
        self
    }

    /// Replaces the trace configuration (builder-style).
    ///
    /// # Errors
    /// Re-validates the link under the new configuration.
    pub fn with_trace_config(mut self, cfg: TraceConfig) -> Result<Self, TraceError> {
        self.static_paths = traced(&self.env, self.tx, self.rx, &cfg)?;
        self.trace_cfg = cfg;
        Ok(self)
    }

    /// Transmitter position.
    pub fn tx(&self) -> Point {
        self.tx
    }

    /// Receiver position.
    pub fn rx(&self) -> Point {
        self.rx
    }

    /// The environment.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// Path-loss model in effect.
    pub fn pathloss(&self) -> &PathLossModel {
        &self.pathloss
    }

    /// TX–RX distance in metres.
    pub fn link_length(&self) -> f64 {
        self.tx.distance(self.rx)
    }

    /// Traces the channel for an optional human presence and freezes the
    /// result.
    ///
    /// When a human is present every environment path is attenuated by the
    /// body's shadow factor and the single-bounce scatter path is appended
    /// (paper Eq. 4 and Eq. 7).
    ///
    /// # Errors
    /// Propagates [`TraceError`] (can only occur if the model was built
    /// with unchecked mutation, but kept for API honesty).
    pub fn snapshot(&self, human: Option<&HumanBody>) -> Result<ChannelSnapshot, TraceError> {
        match human {
            Some(body) => self.snapshot_multi(std::slice::from_ref(body)),
            None => self.snapshot_multi(&[]),
        }
    }

    /// Traces the channel with any number of simultaneously present
    /// humans (e.g. the monitored person plus background walkers ≥5 m
    /// away, as in the paper's measurement campaign).
    ///
    /// Every environment path is attenuated by the product of all body
    /// shadow factors; each body contributes its own scatter path, itself
    /// shadowed by the *other* bodies.
    ///
    /// # Errors
    /// Propagates [`TraceError`].
    pub fn snapshot_multi(&self, humans: &[HumanBody]) -> Result<ChannelSnapshot, TraceError> {
        let paths = if humans.is_empty() {
            self.static_paths.as_ref().clone()
        } else {
            // One exact-size allocation: attenuate the shared static
            // paths directly instead of cloning and re-collecting.
            let mut paths = Vec::with_capacity(self.static_paths.len() + humans.len());
            for p in self.static_paths.iter() {
                paths.push(p.attenuated(shadowing(humans, p)));
            }
            for (sp, beta) in self.scatter_paths(humans) {
                paths.push(sp.attenuated(beta));
            }
            paths
        };
        Ok(ChannelSnapshot {
            paths,
            pathloss: self.pathloss,
            rx: self.rx,
        })
    }

    /// Builds the [`StaticCfrTable`] of this link's static paths over
    /// `freqs` as seen from each of `offsets` (metres from the nominal
    /// receiver).
    pub fn static_cfr_table(&self, freqs: &[f64], offsets: &[Vec2]) -> StaticCfrTable {
        let _stage = mpdf_obs::stage!("physics.cfr_table");
        let samples = offsets.len() * freqs.len();
        StaticCfrTable {
            freqs: freqs.to_vec(),
            offsets: offsets.to_vec(),
            paths: self
                .static_paths
                .iter()
                .map(|p| {
                    let terms = PathTerms::new(p, &self.pathloss, freqs, offsets);
                    let mut unshadowed = vec![Complex64::ZERO; samples];
                    terms.apply(p.amplitude_factor(), &mut unshadowed, |h, t| *h = t);
                    StaticPathTerms { terms, unshadowed }
                })
                .collect(),
        }
    }

    /// Synthesizes the CFR every element sees with `humans` present into
    /// `out` (cleared and resized; element-major, `[element][frequency]`).
    ///
    /// `table` must come from [`ChannelModel::static_cfr_table`] on this
    /// model (or a clone of it). Bitwise equal, element by element, to
    /// `snapshot_multi(humans)` evaluated with
    /// [`ChannelSnapshot::cfr_with_offset`]: every sample is the same
    /// expression over the same bits, summed in the same path order.
    /// A static path no body shadows (factor exactly 1) adds the table's
    /// stored unshadowed terms; `attenuated_factor(1.0)` is the amplitude
    /// factor itself, so those are the terms recomputation would add.
    ///
    /// # Panics
    /// Panics if a shadowing factor is negative or non-finite, as
    /// [`PropagationPath::attenuated`] does.
    pub fn synthesize_into(
        &self,
        table: &StaticCfrTable,
        humans: &[HumanBody],
        out: &mut Vec<Complex64>,
    ) {
        debug_assert_eq!(table.paths.len(), self.static_paths.len());
        out.clear();
        out.resize(table.offsets.len() * table.freqs.len(), Complex64::ZERO);
        for (p, sp) in self.static_paths.iter().zip(&table.paths) {
            let beta = shadowing(humans, p);
            if beta == 1.0 {
                for (h, &t) in out.iter_mut().zip(&sp.unshadowed) {
                    *h += t;
                }
            } else {
                sp.terms.accumulate(p.attenuated_factor(beta), out);
            }
        }
        for (sp, beta) in self.scatter_paths(humans) {
            PathTerms::new(&sp, &self.pathloss, &table.freqs, &table.offsets)
                .accumulate(sp.attenuated_factor(beta), out);
        }
    }

    /// Each body's scatter path (paper Eq. 7), in body order, with the
    /// shadowing factor of the *other* bodies on it.
    fn scatter_paths<'a>(
        &'a self,
        humans: &'a [HumanBody],
    ) -> impl Iterator<Item = (PropagationPath, f64)> + 'a {
        humans.iter().enumerate().filter_map(move |(i, body)| {
            let sp = body.scatter_path(&self.env, self.tx, self.rx)?;
            let beta = humans
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, other)| other.shadow_factor(&sp))
                .product();
            Some((sp, beta))
        })
    }
}

/// The product of every body's shadowing factor on `path` (1 with no
/// bodies).
fn shadowing(humans: &[HumanBody], path: &PropagationPath) -> f64 {
    humans.iter().map(|b| b.shadow_factor(path)).product()
}

/// A frozen path set with CFR evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSnapshot {
    paths: Vec<PropagationPath>,
    pathloss: PathLossModel,
    rx: Point,
}

impl ChannelSnapshot {
    /// The traced paths, shortest first.
    pub fn paths(&self) -> &[PropagationPath] {
        &self.paths
    }

    /// Complex CFR sample at frequency `f` for an observation point
    /// displaced `offset` metres from the nominal receiver (far-field
    /// plane-wave approximation — how each array element sees a shifted
    /// phase per path).
    pub fn cfr_at(&self, f: f64, offset: Vec2) -> Complex64 {
        self.paths
            .iter()
            .map(|p| {
                let g = p.gain(f, &self.pathloss);
                match p.arrival_direction() {
                    Some(u) => {
                        // Extra travel to the displaced element: u·offset.
                        let extra = u.dot(offset);
                        g * Complex64::cis(-2.0 * std::f64::consts::PI * f * extra / SPEED_OF_LIGHT)
                    }
                    None => g,
                }
            })
            .sum()
    }

    /// CFR over a frequency grid at the nominal receiver.
    pub fn cfr(&self, freqs: &[f64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.cfr_with_offset_into(freqs, Vec2::ZERO, &mut out);
        out
    }

    /// CFR over a frequency grid at a displaced observation point.
    ///
    /// No receiver calls this: it is the straight-line reference that
    /// [`ChannelModel::synthesize_into`] is pinned against bit for bit,
    /// per antenna offset, in this module's tests.
    pub fn cfr_with_offset(&self, freqs: &[f64], offset: Vec2) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.cfr_with_offset_into(freqs, offset, &mut out);
        out
    }

    /// [`ChannelSnapshot::cfr_with_offset`] writing into a
    /// caller-provided buffer (cleared and resized).
    ///
    /// Batch evaluation hoists the per-path invariants — geometric
    /// length, the `(4πd)^n` Friis term and the arrival direction — out
    /// of the frequency loop while evaluating bit-identically the same
    /// expression tree as [`ChannelSnapshot::cfr_at`]: per sample the
    /// amplitude, travel phase, element phase shift and path-order
    /// summation all round exactly as the pointwise form does.
    pub fn cfr_with_offset_into(&self, freqs: &[f64], offset: Vec2, out: &mut Vec<Complex64>) {
        out.clear();
        out.resize(freqs.len(), Complex64::ZERO);
        for p in &self.paths {
            let d = p.length();
            let pd = self.pathloss.distance_term(d);
            let af = p.amplitude_factor();
            match p.arrival_direction() {
                Some(u) => {
                    // Extra travel to the displaced element: u·offset.
                    let extra = u.dot(offset);
                    for (h, &f) in out.iter_mut().zip(freqs) {
                        let amplitude = af * self.pathloss.amplitude_gain_hoisted(pd, f);
                        let phase = -2.0 * std::f64::consts::PI * f * d / SPEED_OF_LIGHT;
                        let g = Complex64::from_polar(amplitude, phase);
                        *h += g * Complex64::cis(
                            -2.0 * std::f64::consts::PI * f * extra / SPEED_OF_LIGHT,
                        );
                    }
                }
                None => {
                    for (h, &f) in out.iter_mut().zip(freqs) {
                        let amplitude = af * self.pathloss.amplitude_gain_hoisted(pd, f);
                        let phase = -2.0 * std::f64::consts::PI * f * d / SPEED_OF_LIGHT;
                        *h += Complex64::from_polar(amplitude, phase);
                    }
                }
            }
        }
    }

    /// **Ground truth** LOS power fraction at frequency `f`: the exact
    /// quantity the paper's multipath factor `μ` (Eq. 3/11) estimates.
    ///
    /// Returns `None` when the snapshot has no LOS path or zero total
    /// power.
    pub fn true_multipath_factor(&self, f: f64) -> Option<f64> {
        let los = self
            .paths
            .iter()
            .find(|p| p.kind() == PathKind::LineOfSight)?;
        let los_power = los.gain(f, &self.pathloss).norm_sqr();
        let total = self.cfr_at(f, Vec2::ZERO).norm_sqr();
        if total <= 0.0 {
            None
        } else {
            Some(los_power / total)
        }
    }

    /// Total received power at frequency `f` (`|H(f)|²`).
    pub fn power(&self, f: f64) -> f64 {
        self.cfr_at(f, Vec2::ZERO).norm_sqr()
    }
}

/// The CFR terms of a link's static paths that no person can change,
/// over a fixed frequency grid and set of array-element offsets.
///
/// A body scales the amplitude of the paths it shadows and adds its own
/// scatter path (paper Eq. 4 and 7); everything else about a static path
/// — its path-loss gain and travel phase per frequency, and the
/// plane-wave phase shift each element sees — is fixed for the life of
/// the link. [`ChannelModel::static_cfr_table`] computes those terms
/// once, together with each path's full CFR term with no body in the
/// way. [`ChannelModel::synthesize_into`] then pays per snapshot only for
/// the shadowing factors, one complex add per (path, frequency, element)
/// of an unshadowed path, one multiply-add per sample of a shadowed one,
/// and the scatter paths.
#[derive(Debug, Clone)]
pub struct StaticCfrTable {
    freqs: Vec<f64>,
    offsets: Vec<Vec2>,
    /// One entry per static path, in trace order.
    paths: Vec<StaticPathTerms>,
}

impl StaticCfrTable {
    /// The frequency grid the table was built for.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// The observation offsets (one per array element) the table was
    /// built for.
    pub fn offsets(&self) -> &[Vec2] {
        &self.offsets
    }
}

/// One static path's entry in a [`StaticCfrTable`].
#[derive(Debug, Clone)]
struct StaticPathTerms {
    terms: PathTerms,
    /// Per (element, frequency), element-major: the term
    /// [`PathTerms::accumulate`] adds at the path's own amplitude factor,
    /// stored as computed (not added into zeros, which would turn a −0
    /// into +0).
    unshadowed: Vec<Complex64>,
}

/// The body-invariant CFR terms of one path.
#[derive(Debug, Clone)]
struct PathTerms {
    /// Per frequency: amplitude gain, `cos θ` and `sin θ` for the travel
    /// phase `θ = −2πf·d/c`.
    phasors: Vec<(f64, f64, f64)>,
    /// Per (element, frequency), element-major: the element's plane-wave
    /// phase shift `cis(−2πf·(u·offset)/c)`. Empty when the arrival
    /// direction is degenerate, in which case no shift applies.
    rotors: Vec<Complex64>,
}

impl PathTerms {
    fn new(
        path: &PropagationPath,
        pathloss: &PathLossModel,
        freqs: &[f64],
        offsets: &[Vec2],
    ) -> Self {
        let d = path.length();
        let pd = pathloss.distance_term(d);
        let phasors = freqs
            .iter()
            .map(|&f| {
                let phase = -2.0 * std::f64::consts::PI * f * d / SPEED_OF_LIGHT;
                (
                    pathloss.amplitude_gain_hoisted(pd, f),
                    phase.cos(),
                    phase.sin(),
                )
            })
            .collect();
        let rotors = match path.arrival_direction() {
            Some(u) => offsets
                .iter()
                .flat_map(|&offset| {
                    // Extra travel to the displaced element: u·offset.
                    let extra = u.dot(offset);
                    freqs.iter().map(move |&f| {
                        Complex64::cis(-2.0 * std::f64::consts::PI * f * extra / SPEED_OF_LIGHT)
                    })
                })
                .collect(),
            None => Vec::new(),
        };
        PathTerms { phasors, rotors }
    }

    /// Adds the path, with (attenuated) amplitude factor `af`, to the
    /// element-major CFR `out`. Each term is bitwise the one
    /// [`ChannelSnapshot::cfr_with_offset_into`] adds: `from_polar`'s own
    /// body over the same amplitude and the hoisted `cos`/`sin`, times
    /// the same rotor.
    fn accumulate(&self, af: f64, out: &mut [Complex64]) {
        self.apply(af, out, |h, t| *h += t);
    }

    /// Combines each element-major sample of `out` with the path's term
    /// at amplitude factor `af` through `op`.
    fn apply(&self, af: f64, out: &mut [Complex64], op: impl Fn(&mut Complex64, Complex64)) {
        let nf = self.phasors.len();
        if nf == 0 {
            return;
        }
        let base = |&(gain, cos, sin): &(f64, f64, f64)| {
            let amplitude = af * gain;
            Complex64::new(amplitude * cos, amplitude * sin)
        };
        if self.rotors.is_empty() {
            for row in out.chunks_exact_mut(nf) {
                for (h, p) in row.iter_mut().zip(&self.phasors) {
                    op(h, base(p));
                }
            }
        } else {
            for (row, rotors) in out.chunks_exact_mut(nf).zip(self.rotors.chunks_exact(nf)) {
                for ((h, p), &r) in row.iter_mut().zip(&self.phasors).zip(rotors) {
                    op(h, base(p) * r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_geom::shapes::Rect;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn classroom() -> Environment {
        Environment::empty_room(Rect::new(p(0.0, 0.0), p(8.0, 6.0)))
    }

    /// Paper §III measurement setup: 4 m link in a 6 m × 8 m classroom.
    fn link() -> ChannelModel {
        ChannelModel::new(classroom(), p(2.0, 3.0), p(6.0, 3.0)).unwrap()
    }

    const F: f64 = 2.462e9;

    #[test]
    fn construction_validates_geometry() {
        assert!(ChannelModel::new(classroom(), p(-1.0, 0.0), p(6.0, 3.0)).is_err());
        assert!(ChannelModel::new(classroom(), p(2.0, 3.0), p(2.0, 3.0)).is_err());
        let m = link();
        assert!((m.link_length() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn static_snapshot_is_multipath() {
        let snap = link().snapshot(None).unwrap();
        assert!(snap.paths().len() > 1, "empty room still has wall bounces");
        assert_eq!(snap.paths()[0].kind(), PathKind::LineOfSight);
        let h = snap.cfr_at(F, Vec2::ZERO);
        assert!(h.norm() > 0.0);
    }

    #[test]
    fn true_multipath_factor_in_unit_range_for_los_dominated_link() {
        let snap = link().snapshot(None).unwrap();
        let mu = snap.true_multipath_factor(F).unwrap();
        // LOS is the strongest single path here; superposition can push the
        // ratio above 1 when paths cancel, but it must be positive & finite.
        assert!(mu > 0.0 && mu.is_finite());
    }

    #[test]
    fn multipath_factor_varies_across_frequency() {
        // The configurability claim of §III-B3: μ is a function of f.
        let snap = link().snapshot(None).unwrap();
        let mus: Vec<f64> = (0..8)
            .map(|i| {
                snap.true_multipath_factor(2.452e9 + i as f64 * 2.5e6)
                    .unwrap()
            })
            .collect();
        let spread = mus.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - mus.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 1e-3, "μ must vary with frequency, spread={spread}");
    }

    #[test]
    fn human_shadowing_changes_cfr() {
        let model = link();
        let calm = model.snapshot(None).unwrap();
        let body = HumanBody::new(p(4.0, 3.0)); // on the LOS
        let shadowed = model.snapshot(Some(&body)).unwrap();
        let dp = (shadowed.power(F) - calm.power(F)).abs() / calm.power(F);
        assert!(dp > 0.05, "blocking the LOS must change power, got {dp}");
        // Scatter path appended.
        assert!(shadowed
            .paths()
            .iter()
            .any(|pp| pp.kind() == PathKind::HumanScatter));
    }

    #[test]
    fn human_near_link_perturbs_via_reflection_only() {
        let model = link();
        let calm = model.snapshot(None).unwrap();
        let body = HumanBody::new(p(4.0, 3.8)); // beside the link (Fig. 1e)
        let near = model.snapshot(Some(&body)).unwrap();
        // LOS untouched...
        let los_calm = calm.paths()[0].amplitude_factor();
        let los_near = near.paths()[0].amplitude_factor();
        assert!((los_calm - los_near).abs() < 1e-12);
        // ...but the CFR still moves thanks to the scattered path.
        let delta = (near.cfr_at(F, Vec2::ZERO) - calm.cfr_at(F, Vec2::ZERO)).norm();
        assert!(delta > 0.0);
    }

    #[test]
    fn rss_change_sign_depends_on_superposition() {
        // The paper's headline §III observation: Δs can be a drop OR a rise.
        let model = link();
        let calm = model.snapshot(None).unwrap();
        let mut signs = std::collections::BTreeSet::new();
        for i in 0..40 {
            let x = 2.2 + 0.09 * i as f64;
            for dy in [-0.6, -0.3, 0.0, 0.3, 0.6] {
                let body = HumanBody::new(p(x, 3.0 + dy));
                let snap = model.snapshot(Some(&body)).unwrap();
                let ds = 10.0 * (snap.power(F) / calm.power(F)).log10();
                if ds > 0.05 {
                    signs.insert("rise");
                } else if ds < -0.05 {
                    signs.insert("drop");
                }
            }
        }
        assert!(
            signs.contains("rise") && signs.contains("drop"),
            "need both RSS rises and drops, got {signs:?}"
        );
    }

    #[test]
    fn displaced_observer_sees_phase_shift() {
        let snap = link().snapshot(None).unwrap();
        let lambda = PathLossModel::wavelength(F);
        let h0 = snap.cfr_at(F, Vec2::ZERO);
        let h1 = snap.cfr_at(F, Vec2::new(0.0, lambda / 2.0));
        // Same order of magnitude but different phase/value.
        assert!((h0 - h1).norm() > 1e-3 * h0.norm());
    }

    #[test]
    fn cfr_grid_matches_pointwise_calls() {
        let snap = link().snapshot(None).unwrap();
        let freqs = [2.452e9, 2.462e9, 2.472e9];
        let grid = snap.cfr(&freqs);
        for (i, &f) in freqs.iter().enumerate() {
            assert_eq!(grid[i], snap.cfr_at(f, Vec2::ZERO));
        }
    }

    #[test]
    fn batch_cfr_bitwise_matches_pointwise_at_offsets() {
        // The perf-critical contract: the hoisted batch evaluation and
        // the static-path table must reproduce `cfr_at` to the bit, for
        // every path kind (LOS, wall bounces, human scatter) and every
        // element offset including the nominal receiver.
        let model = link();
        let body = HumanBody::new(p(4.0, 3.4));
        let snap = model.snapshot(Some(&body)).unwrap();
        let freqs: Vec<f64> = (0..30).map(|k| 2.442e9 + k as f64 * 1.25e6).collect();
        let offsets = [Vec2::ZERO, Vec2::new(0.0, 0.0609), Vec2::new(-0.031, 0.017)];
        let table = model.static_cfr_table(&freqs, &offsets);
        let mut synth = Vec::new();
        model.synthesize_into(&table, &[body], &mut synth);
        assert_eq!(synth.len(), offsets.len() * freqs.len());
        for (e, &off) in offsets.iter().enumerate() {
            let batch = snap.cfr_with_offset(&freqs, off);
            for (k, &f) in freqs.iter().enumerate() {
                let reference = snap.cfr_at(f, off);
                let table_h = synth[e * freqs.len() + k];
                assert_eq!(batch[k].re.to_bits(), reference.re.to_bits());
                assert_eq!(batch[k].im.to_bits(), reference.im.to_bits());
                assert_eq!(table_h.re.to_bits(), reference.re.to_bits());
                assert_eq!(table_h.im.to_bits(), reference.im.to_bits());
            }
        }
    }

    #[test]
    fn synthesis_covers_a_degenerate_arrival_direction() {
        // The tracer never emits a last leg shorter than 1e-9 m, so only a
        // hand-built path set reaches the rotor-free branch, shadowed and
        // unshadowed.
        let mut model = link();
        let (tx, rx) = (model.tx(), model.rx());
        let degenerate = PropagationPath::new(
            vec![tx, p(4.0, 5.0), rx, rx],
            0.3,
            PathKind::WallReflection { order: 2 },
        );
        assert!(degenerate.arrival_direction().is_none());
        let mut paths = model.static_paths.as_ref().clone();
        paths.push(degenerate.clone());
        model.static_paths = Arc::new(paths);
        let freqs: Vec<f64> = (0..30).map(|k| 2.442e9 + k as f64 * 1.25e6).collect();
        let offsets = [Vec2::ZERO, Vec2::new(0.0, 0.0609), Vec2::new(-0.031, 0.017)];
        let table = model.static_cfr_table(&freqs, &offsets);
        let off_los = HumanBody::new(p(4.0, 5.0));
        assert!(off_los.shadow_factor(&degenerate) < 1.0);
        assert_eq!(off_los.shadow_factor(&model.static_paths[0]), 1.0);
        let mut synth = Vec::new();
        for bodies in [vec![], vec![off_los], vec![HumanBody::new(p(4.0, 3.0))]] {
            model.synthesize_into(&table, &bodies, &mut synth);
            let snap = model.snapshot_multi(&bodies).unwrap();
            for (e, &off) in offsets.iter().enumerate() {
                let reference = snap.cfr_with_offset(&freqs, off);
                for (k, h) in reference.iter().enumerate() {
                    let got = synth[e * freqs.len() + k];
                    assert_eq!(got.re.to_bits(), h.re.to_bits());
                    assert_eq!(got.im.to_bits(), h.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_grid_synthesizes_an_empty_cfr() {
        let model = link();
        let table = model.static_cfr_table(&[], &[Vec2::ZERO]);
        let mut out = vec![Complex64::ONE];
        model.synthesize_into(&table, &[HumanBody::new(p(4.0, 3.0))], &mut out);
        assert!(out.is_empty());
    }
}
