//! The CSI receiver simulator — the measurement-campaign driver.
//!
//! Plays the role of the paper's mini-PC + Intel 5300 + CSI tool: it pings
//! the channel at a packet rate (50 pkt/s in the paper), evaluates the
//! clean CFR each array element sees, applies receiver impairments, and
//! hands back [`CsiPacket`]s. All randomness comes from one seeded RNG so
//! campaigns are exactly reproducible.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use mpdf_propagation::channel::{ChannelModel, StaticCfrTable};
use mpdf_propagation::human::HumanBody;
use mpdf_propagation::tracer::TraceError;
use mpdf_propagation::trajectory::Trajectory;

use crate::array::UniformLinearArray;
use crate::band::Band;
use crate::csi::CsiPacket;
use crate::fault::{FaultModel, FaultState};
use crate::impairments::ImpairmentModel;

/// Packet rate used throughout the paper's evaluation (§V-A).
pub const DEFAULT_PACKET_RATE_HZ: f64 = 50.0;

/// Receiver configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceiverConfig {
    /// Band plan (default: channel 11 with the Intel 5300 grid).
    pub band: Band,
    /// Receive array (default: 3-element λ/2 ULA).
    pub array: UniformLinearArray,
    /// Impairment model (default: commodity NIC).
    pub impairments: ImpairmentModel,
    /// Packet rate in Hz (default 50).
    pub packet_rate_hz: f64,
    /// Amplitude of session-to-session clutter drift, relative to the RMS
    /// CSI amplitude (default 0.04). Real campaigns span days: doors,
    /// chairs and equipment move between the calibration and monitoring
    /// sessions, perturbing the static profile. Modelled as one weak
    /// extra path with random delay, arrival angle and phase, resampled
    /// by [`CsiReceiver::resample_drift`]. `0` disables drift.
    pub clutter_drift_rel: f64,
    /// Peak flat gain drift between sessions in dB (uniform in
    /// `±session_gain_drift_db`; default 1.0). Applied by
    /// [`CsiReceiver::resample_drift`] alongside the clutter path.
    pub session_gain_drift_db: f64,
    /// Injected receiver faults (default: none). Applied after the
    /// physical-layer impairments, drawing from a dedicated RNG stream so
    /// a zero-fault model leaves the packet stream byte-identical to a
    /// fault-free receiver.
    pub faults: FaultModel,
}

impl Default for ReceiverConfig {
    fn default() -> Self {
        let band = Band::wifi_2_4ghz_channel11();
        let array = UniformLinearArray::three_element(band.center_wavelength());
        ReceiverConfig {
            band,
            array,
            impairments: ImpairmentModel::commodity_nic(),
            packet_rate_hz: DEFAULT_PACKET_RATE_HZ,
            clutter_drift_rel: 0.025,
            session_gain_drift_db: 0.3,
            faults: FaultModel::none(),
        }
    }
}

/// A simulated CSI receiver bound to one TX–RX link.
#[derive(Debug, Clone)]
pub struct CsiReceiver {
    channel: ChannelModel,
    config: ReceiverConfig,
    /// The static paths' body-invariant CFR terms over the band and the
    /// array, built once in [`CsiReceiver::with_config`] and shared by
    /// every clone and fork. It needs no key: the receiver has no setter
    /// for its channel, band or array, so none can change after
    /// construction.
    table: Arc<StaticCfrTable>,
    /// Fixed front-end gain normalizing CSI amplitudes to O(1).
    gain: f64,
    /// Reference per-sample signal power used to size AWGN (measured on
    /// the static environment, like a real noise floor calibration).
    reference_power: f64,
    /// Current session's clutter-drift CSI, `[antenna][subcarrier]`
    /// row-major; zero until [`CsiReceiver::resample_drift`] is called.
    drift: Vec<mpdf_rfmath::complex::Complex64>,
    /// Current session's flat gain drift (linear amplitude; 1 = none).
    session_gain: f64,
    /// Current session's interferer centre subcarrier.
    interferer_center: usize,
    rng: SmallRng,
    /// Fault-injection state (dedicated RNG stream + burst counters);
    /// untouched while `config.faults.is_none()`.
    faults: FaultState,
    seq: u64,
    time: f64,
}

impl CsiReceiver {
    /// Creates a receiver with default configuration and the given RNG
    /// seed.
    ///
    /// # Errors
    /// Kept for API stability: the link was traced, and validated, when
    /// `channel` was built.
    pub fn new(channel: ChannelModel, seed: u64) -> Result<Self, TraceError> {
        CsiReceiver::with_config(channel, ReceiverConfig::default(), seed)
    }

    /// Creates a receiver with an explicit configuration.
    ///
    /// # Errors
    /// Kept for API stability: the link was traced, and validated, when
    /// `channel` was built.
    ///
    /// # Panics
    /// Panics if the packet rate is not positive.
    pub fn with_config(
        channel: ChannelModel,
        config: ReceiverConfig,
        seed: u64,
    ) -> Result<Self, TraceError> {
        assert!(config.packet_rate_hz > 0.0, "packet rate must be positive");
        // Normalize so a 1 m LOS link has unit amplitude.
        let fc = config.band.center_hz();
        let gain = 1.0 / channel.pathloss().amplitude_gain(1.0, fc);
        let freqs = config.band.frequencies();
        let offsets = config.array.offsets();
        let table = channel.static_cfr_table(&freqs, &offsets);
        let mut cfr = Vec::new();
        channel.synthesize_into(&table, &[], &mut cfr);
        let mut power = 0.0;
        for &h in &cfr {
            power += (h * gain).norm_sqr();
        }
        let reference_power = (power / cfr.len() as f64).max(f64::MIN_POSITIVE);
        let drift = vec![mpdf_rfmath::complex::Complex64::ZERO; cfr.len()];
        Ok(CsiReceiver {
            channel,
            config,
            table: Arc::new(table),
            gain,
            reference_power,
            drift,
            session_gain: 1.0,
            interferer_center: freqs.len() / 2,
            rng: SmallRng::seed_from_u64(seed),
            faults: FaultState::new(seed, offsets.len()),
            seq: 0,
            time: 0.0,
        })
    }

    /// Derives an independent receiver for a parallel work item: same
    /// link, configuration and calibrated gains, but a fresh RNG stream
    /// seeded by `seed`, with the clock, sequence counter and session
    /// drift state reset. Two forks with the same seed produce identical
    /// captures regardless of what the parent (or any sibling fork) has
    /// emitted — the foundation of the campaign's determinism contract:
    /// each monitoring window captures on its own fork, so the result is
    /// a pure function of `(parent link state, seed)` and independent of
    /// scheduling order.
    pub fn fork(&self, seed: u64) -> CsiReceiver {
        let mut rx = self.clone();
        rx.rng = SmallRng::seed_from_u64(seed);
        rx.faults.reset(seed);
        rx.seq = 0;
        rx.time = 0.0;
        rx.session_gain = 1.0;
        rx.interferer_center = self.config.band.num_subcarriers() / 2;
        for d in &mut rx.drift {
            *d = mpdf_rfmath::complex::Complex64::ZERO;
        }
        rx
    }

    /// Like [`CsiReceiver::fork`], but *preserves* the parent's session
    /// drift state (clutter path, flat gain drift, interferer centre)
    /// while still resetting the RNG stream, fault state, clock and
    /// sequence counter. A long-running session resamples drift once per
    /// session block and then captures every window of that block on a
    /// `fork_with_drift` keyed by the window index — each window stays a
    /// pure function of `(link, block drift, seed)` so kill-and-restore
    /// replays bit-identically, while all windows of a block share the
    /// same slowly-moving environment.
    pub fn fork_with_drift(&self, seed: u64) -> CsiReceiver {
        let mut rx = self.clone();
        rx.rng = SmallRng::seed_from_u64(seed);
        rx.faults.reset(seed);
        rx.seq = 0;
        rx.time = 0.0;
        rx
    }

    /// Overrides the drift magnitudes used by the *next*
    /// [`CsiReceiver::resample_drift`] call: relative clutter-path
    /// amplitude and peak flat gain drift in dB. Lets a drift experiment
    /// grow the environment's wander over session blocks without
    /// rebuilding the receiver (which would re-derive gains).
    pub fn set_drift_magnitude(&mut self, clutter_drift_rel: f64, session_gain_drift_db: f64) {
        self.config.clutter_drift_rel = clutter_drift_rel;
        self.config.session_gain_drift_db = session_gain_drift_db;
    }

    /// Resamples the session clutter drift: one weak extra path with
    /// random delay (10–80 ns), arrival angle (±75°) and phase, at the
    /// configured relative amplitude. Call between "sessions" (e.g.
    /// calibration day vs. monitoring day); a no-op when
    /// `clutter_drift_rel == 0`.
    pub fn resample_drift(&mut self) {
        use mpdf_rfmath::complex::Complex64;
        use rand::Rng as _;
        // Flat gain drift: TX power control, AGC reference and thermal
        // effects shift the whole CSI level between sessions.
        self.session_gain = if self.config.session_gain_drift_db > 0.0 {
            let gain_db = self.rng.gen_range(-1.0..1.0) * self.config.session_gain_drift_db;
            mpdf_rfmath::db::db_to_amplitude(gain_db)
        } else {
            1.0
        };
        // The session's narrowband interferer parks on a new frequency.
        self.interferer_center = self.rng.gen_range(0..self.config.band.num_subcarriers());
        let rel = self.config.clutter_drift_rel;
        if rel <= 0.0 {
            for d in &mut self.drift {
                *d = Complex64::ZERO;
            }
            return;
        }
        let amp = rel * self.reference_power.sqrt();
        let tau = self.rng.gen_range(10e-9..80e-9);
        let theta = self.rng.gen_range(-75f64.to_radians()..75f64.to_radians());
        let phi0 = self.rng.gen_range(0.0..std::f64::consts::TAU);
        let freqs = self.config.band.frequencies();
        let lambda = self.config.band.center_wavelength();
        let steer = self.config.array.steering_vector(theta, lambda);
        self.drift.clear();
        for s in &steer {
            for &f in &freqs {
                let phase = phi0 - std::f64::consts::TAU * f * tau;
                self.drift.push(*s * Complex64::from_polar(amp, phase));
            }
        }
    }

    /// The underlying channel model.
    pub fn channel(&self) -> &ChannelModel {
        &self.channel
    }

    /// Receiver configuration.
    pub fn config(&self) -> &ReceiverConfig {
        &self.config
    }

    /// Band plan shortcut.
    pub fn band(&self) -> &Band {
        &self.config.band
    }

    /// Array shortcut.
    pub fn array(&self) -> &UniformLinearArray {
        &self.config.array
    }

    /// Per-sample reference signal power of the empty room.
    pub fn reference_power(&self) -> f64 {
        self.reference_power
    }

    /// Clean (impairment-free) packet from the element-major CFR `cfr`,
    /// including the current session's clutter drift.
    fn clean_packet(&self, cfr: &[mpdf_rfmath::complex::Complex64]) -> CsiPacket {
        let data = cfr
            .iter()
            .zip(&self.drift)
            .map(|(&h, &d)| (h * self.gain + d) * self.session_gain)
            .collect();
        CsiPacket::new(
            self.table.offsets().len(),
            self.table.freqs().len(),
            data,
            self.seq,
            self.time,
        )
    }

    /// Emits one packet slot of the element-major CFR `cfr` into `out`.
    /// With faults disabled this pushes exactly one packet and never
    /// touches the fault RNG stream; with faults enabled the slot may
    /// contribute zero (loss, hold-back), one or two (duplicate, released
    /// hold-back) packets. The sequence number and clock advance once per
    /// slot either way, so lost packets leave visible sequence gaps.
    fn emit_into(&mut self, cfr: &[mpdf_rfmath::complex::Complex64], out: &mut Vec<CsiPacket>) {
        let mut packet = self.clean_packet(cfr);
        self.config.impairments.apply_with_interferer(
            &mut packet,
            self.config.band.indices(),
            self.reference_power,
            Some(self.interferer_center),
            &mut self.rng,
        );
        self.seq += 1;
        self.time += 1.0 / self.config.packet_rate_hz;
        if self.config.faults.is_none() {
            out.push(packet);
        } else {
            let faults = self.config.faults;
            faults.apply(packet, &mut self.faults, out);
        }
    }

    /// Releases a trailing reorder hold-back so a capture never silently
    /// swallows its last packet.
    fn flush_faults(&mut self, out: &mut Vec<CsiPacket>) {
        if let Some(p) = self.faults.take_held() {
            out.push(p);
        }
    }

    /// Captures `n` packet slots with a static scene (optional stationary
    /// human). With faults enabled the returned packet count can differ
    /// from `n` (loss swallows slots, duplication re-delivers).
    ///
    /// # Errors
    /// Kept for API stability; synthesis itself cannot fail.
    pub fn capture_static(
        &mut self,
        human: Option<&HumanBody>,
        n: usize,
    ) -> Result<Vec<CsiPacket>, TraceError> {
        // The scene is frozen, so every packet shares one clean CFR.
        let mut cfr = Vec::new();
        self.channel.synthesize_into(
            &self.table,
            human.map_or(&[], std::slice::from_ref),
            &mut cfr,
        );
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            self.emit_into(&cfr, &mut out);
        }
        self.flush_faults(&mut out);
        Ok(out)
    }

    /// Captures `n` packets while the human follows `trajectory`
    /// (re-synthesizing the channel per packet). Time starts at the
    /// current receiver clock and the trajectory is evaluated on the
    /// *elapsed* time since this call began.
    ///
    /// # Errors
    /// Kept for API stability; synthesis itself cannot fail.
    pub fn capture_moving<T: Trajectory + ?Sized>(
        &mut self,
        body: &HumanBody,
        trajectory: &T,
        n: usize,
    ) -> Result<Vec<CsiPacket>, TraceError> {
        let t0 = self.time;
        let mut cfr = Vec::new();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let pos = trajectory.position(self.time - t0);
            self.channel
                .synthesize_into(&self.table, &[body.at(pos)], &mut cfr);
            self.emit_into(&cfr, &mut out);
        }
        self.flush_faults(&mut out);
        Ok(out)
    }

    /// Current receiver clock in seconds.
    pub fn clock(&self) -> f64 {
        self.time
    }

    /// Captures a multi-session static recording: `sessions` blocks of
    /// `per_session` packets each, resampling clutter/gain drift between
    /// blocks. Real calibration data spans hours or days (the paper's
    /// captures repeat across day/night and after two weeks), so a
    /// threshold derived from a single frozen session underestimates the
    /// environment's variability.
    ///
    /// # Errors
    /// Kept for API stability; synthesis itself cannot fail.
    pub fn capture_sessions(
        &mut self,
        human: Option<&HumanBody>,
        per_session: usize,
        sessions: usize,
    ) -> Result<Vec<CsiPacket>, TraceError> {
        let mut out = Vec::with_capacity(per_session * sessions);
        for _ in 0..sessions {
            self.resample_drift();
            out.extend(self.capture_static(human, per_session)?);
        }
        Ok(out)
    }

    /// Captures `n` packets of a scene with any number of actors, each a
    /// body following its own trajectory (evaluated on the elapsed time
    /// since this call began). This models the paper's measurement
    /// campaign: a monitored person plus background walkers.
    ///
    /// # Errors
    /// Kept for API stability; synthesis itself cannot fail.
    pub fn capture_actors(
        &mut self,
        actors: &[Actor<'_>],
        n: usize,
    ) -> Result<Vec<CsiPacket>, TraceError> {
        if actors.is_empty() {
            return self.capture_static(None, n);
        }
        let t0 = self.time;
        let mut cfr = Vec::new();
        let mut bodies = Vec::with_capacity(actors.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let elapsed = self.time - t0;
            bodies.clear();
            bodies.extend(
                actors
                    .iter()
                    .map(|a| a.body.at(a.trajectory.position(elapsed))),
            );
            self.channel.synthesize_into(&self.table, &bodies, &mut cfr);
            self.emit_into(&cfr, &mut out);
        }
        self.flush_faults(&mut out);
        Ok(out)
    }
}

/// One person in a captured scene: a body following a trajectory.
#[derive(Clone, Copy)]
pub struct Actor<'a> {
    /// Body parameters (radius, reflectivity, shadow depth).
    pub body: HumanBody,
    /// Motion; use [`mpdf_propagation::trajectory::StaticSway`] for a
    /// nominally stationary person.
    pub trajectory: &'a dyn Trajectory,
}

impl std::fmt::Debug for Actor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Actor").field("body", &self.body).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdf_geom::shapes::Rect;
    use mpdf_geom::vec2::Vec2;
    use mpdf_propagation::environment::Environment;
    use mpdf_propagation::trajectory::LinearWalk;

    fn link() -> ChannelModel {
        let env = Environment::empty_room(Rect::new(Vec2::ZERO, Vec2::new(8.0, 6.0)));
        ChannelModel::new(env, Vec2::new(2.0, 3.0), Vec2::new(6.0, 3.0)).unwrap()
    }

    fn ideal_config() -> ReceiverConfig {
        ReceiverConfig {
            impairments: ImpairmentModel::ideal(),
            ..ReceiverConfig::default()
        }
    }

    #[test]
    fn packets_have_paper_shape() {
        let mut rx = CsiReceiver::new(link(), 1).unwrap();
        let packets = rx.capture_static(None, 5).unwrap();
        assert_eq!(packets.len(), 5);
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.antennas(), 3);
            assert_eq!(p.subcarriers(), 30);
            assert_eq!(p.seq, i as u64);
        }
        // 50 Hz spacing.
        assert!((packets[1].timestamp - packets[0].timestamp - 0.02).abs() < 1e-12);
    }

    #[test]
    fn ideal_receiver_is_deterministic_and_noiseless() {
        let mut rx = CsiReceiver::with_config(link(), ideal_config(), 1).unwrap();
        let p = rx.capture_static(None, 2).unwrap();
        for a in 0..3 {
            for k in 0..30 {
                assert_eq!(p[0].get(a, k), p[1].get(a, k));
            }
        }
    }

    #[test]
    fn seeded_capture_is_reproducible() {
        let run = |seed| {
            let mut rx = CsiReceiver::new(link(), seed).unwrap();
            rx.capture_static(None, 3).unwrap()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn csi_amplitudes_are_order_one() {
        let mut rx = CsiReceiver::with_config(link(), ideal_config(), 1).unwrap();
        let p = &rx.capture_static(None, 1).unwrap()[0];
        let amp = p.get(0, 15).norm();
        assert!(amp > 1e-3 && amp < 10.0, "normalized amplitude {amp}");
    }

    #[test]
    fn human_presence_changes_packets() {
        let mut rx = CsiReceiver::with_config(link(), ideal_config(), 1).unwrap();
        let calm = rx.capture_static(None, 1).unwrap();
        let body = HumanBody::new(Vec2::new(4.0, 3.0));
        let busy = rx.capture_static(Some(&body), 1).unwrap();
        let mut delta = 0.0;
        for a in 0..3 {
            for k in 0..30 {
                delta += (calm[0].get(a, k) - busy[0].get(a, k)).norm_sqr();
            }
        }
        assert!(delta > 1e-6, "human must perturb CSI, delta={delta}");
    }

    #[test]
    fn moving_capture_changes_over_time() {
        let mut rx = CsiReceiver::with_config(link(), ideal_config(), 1).unwrap();
        let body = HumanBody::new(Vec2::new(2.0, 1.0));
        let walk = LinearWalk::new(Vec2::new(2.0, 1.0), Vec2::new(6.0, 5.0), 2.0);
        let packets = rx.capture_moving(&body, &walk, 20).unwrap();
        // CSI at the start and end of the walk must differ.
        let first = &packets[0];
        let last = &packets[19];
        let mut delta = 0.0;
        for a in 0..3 {
            for k in 0..30 {
                delta += (first.get(a, k) - last.get(a, k)).norm_sqr();
            }
        }
        assert!(delta > 1e-6);
    }

    #[test]
    fn antenna_elements_see_different_phases() {
        let mut rx = CsiReceiver::with_config(link(), ideal_config(), 1).unwrap();
        // Add an off-axis scatterer so arrival isn't purely broadside.
        let body = HumanBody::new(Vec2::new(4.0, 4.5));
        let p = &rx.capture_static(Some(&body), 1).unwrap()[0];
        let d01 = (p.get(1, 15) * p.get(0, 15).conj()).arg();
        let d12 = (p.get(2, 15) * p.get(1, 15).conj()).arg();
        // Multipath superposition: element phases exist and are not all
        // exactly equal.
        assert!(d01.abs() + d12.abs() > 1e-6);
    }

    #[test]
    fn forks_with_equal_seeds_are_identical() {
        let mut rx = CsiReceiver::new(link(), 7).unwrap();
        // Perturb the parent's RNG/clock/drift state.
        rx.resample_drift();
        let _ = rx.capture_static(None, 4).unwrap();
        let a = rx.fork(42).capture_static(None, 3).unwrap();
        // Perturb the parent again: forks must not care.
        rx.resample_drift();
        let _ = rx.capture_static(None, 2).unwrap();
        let b = rx.fork(42).capture_static(None, 3).unwrap();
        assert_eq!(a, b);
        let c = rx.fork(43).capture_static(None, 3).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn forks_share_one_table_and_capture_independently() {
        let rx = CsiReceiver::new(link(), 7).unwrap();
        let mut a = rx.fork(11);
        let mut b = rx.fork(12);
        assert!(Arc::ptr_eq(&rx.table, &a.table));
        assert!(Arc::ptr_eq(&a.table, &b.table));
        let body = HumanBody::new(Vec2::new(4.0, 3.2));
        let walk = LinearWalk::new(Vec2::new(3.0, 2.0), Vec2::new(5.0, 4.0), 1.0);
        let alone = rx.fork(11).capture_moving(&body, &walk, 6).unwrap();
        // A sibling's captures, static and moving, leave the shared
        // table, and so this fork's capture, untouched.
        let _ = b.capture_static(Some(&body), 4).unwrap();
        let _ = b.capture_moving(&body, &walk, 6).unwrap();
        assert_eq!(a.capture_moving(&body, &walk, 6).unwrap(), alone);
    }

    #[test]
    fn fork_with_drift_preserves_session_state() {
        let mut rx = CsiReceiver::with_config(link(), ideal_config(), 7).unwrap();
        rx.resample_drift();
        // Plain fork zeroes the drift; the drift-preserving fork keeps it,
        // so the two see different channels.
        let plain = rx.fork(5).capture_static(None, 1).unwrap();
        let drifted = rx.fork_with_drift(5).capture_static(None, 1).unwrap();
        assert_ne!(plain, drifted, "drift state must survive the fork");
        // Determinism: same seed, same parent drift → identical capture.
        let again = rx.fork_with_drift(5).capture_static(None, 1).unwrap();
        assert_eq!(drifted, again);
        // Clock and sequence still reset.
        let f = rx.fork_with_drift(5);
        assert_eq!(f.clock(), 0.0);
    }

    #[test]
    fn drift_magnitude_override_takes_effect() {
        let rx = CsiReceiver::with_config(link(), ideal_config(), 7).unwrap();
        let clean = rx.fork(3).capture_static(None, 1).unwrap();
        let mut big = rx.fork(3);
        big.set_drift_magnitude(0.5, 0.0);
        big.resample_drift();
        let drifted = big.capture_static(None, 1).unwrap();
        let mut delta = 0.0;
        for a in 0..3 {
            for k in 0..30 {
                delta += (clean[0].get(a, k) - drifted[0].get(a, k)).norm_sqr();
            }
        }
        assert!(delta > 1e-4, "scaled drift must perturb CSI, delta={delta}");
        // Zero magnitude resamples to a zero drift path.
        let mut none = rx.fork(3);
        none.set_drift_magnitude(0.0, 0.0);
        none.resample_drift();
        assert_eq!(none.capture_static(None, 1).unwrap(), clean);
    }

    #[test]
    fn fork_resets_clock_sequence_and_drift() {
        let mut rx = CsiReceiver::new(link(), 7).unwrap();
        rx.resample_drift();
        let _ = rx.capture_static(None, 10).unwrap();
        let mut f = rx.fork(1);
        assert_eq!(f.clock(), 0.0);
        let p = f.capture_static(None, 1).unwrap();
        assert_eq!(p[0].seq, 0);
    }

    #[test]
    fn zero_fault_model_is_byte_identical_to_default() {
        // The explicit zero-fault config must be indistinguishable from a
        // receiver that never heard of fault injection — same impairment
        // RNG stream, same packets, bit for bit.
        let explicit = ReceiverConfig {
            faults: crate::fault::FaultModel::none(),
            ..ReceiverConfig::default()
        };
        let mut a = CsiReceiver::with_config(link(), ReceiverConfig::default(), 21).unwrap();
        let mut b = CsiReceiver::with_config(link(), explicit, 21).unwrap();
        a.resample_drift();
        b.resample_drift();
        assert_eq!(
            a.capture_sessions(None, 20, 2).unwrap(),
            b.capture_sessions(None, 20, 2).unwrap()
        );
    }

    #[test]
    fn faulted_captures_are_deterministic_across_forks() {
        // Bit-level fingerprint: chaos streams contain NaN rows, which
        // `PartialEq` would declare unequal to themselves.
        let fp = |packets: &[CsiPacket]| -> Vec<(u64, Vec<u64>)> {
            packets
                .iter()
                .map(|p| {
                    let bits = (0..p.antennas())
                        .flat_map(|a| (0..p.subcarriers()).map(move |k| (a, k)))
                        .flat_map(|(a, k)| {
                            let h = p.get(a, k);
                            [h.re.to_bits(), h.im.to_bits()]
                        })
                        .collect();
                    (p.seq, bits)
                })
                .collect()
        };
        let cfg = ReceiverConfig {
            faults: crate::fault::FaultModel::chaos(),
            ..ReceiverConfig::default()
        };
        let mut rx = CsiReceiver::with_config(link(), cfg, 3).unwrap();
        let a = rx.fork(9).capture_static(None, 80).unwrap();
        // Perturb the parent: forks must not care.
        let _ = rx.capture_static(None, 13).unwrap();
        let b = rx.fork(9).capture_static(None, 80).unwrap();
        assert_eq!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&rx.fork(10).capture_static(None, 80).unwrap()));
    }

    #[test]
    fn loss_faults_shorten_captures_but_keep_slot_clock() {
        let cfg = ReceiverConfig {
            faults: crate::fault::FaultModel {
                loss_burst_prob: 0.1,
                loss_burst_len: 4.0,
                ..crate::fault::FaultModel::none()
            },
            ..ReceiverConfig::default()
        };
        let mut rx = CsiReceiver::with_config(link(), cfg, 5).unwrap();
        let packets = rx.capture_static(None, 100).unwrap();
        assert!(packets.len() < 100, "lossy capture returned all packets");
        // The clock still advanced one tick per *slot*, not per packet.
        assert!((rx.clock() - 2.0).abs() < 1e-9);
        // Sequence numbers expose the gaps.
        assert!(packets.last().map(|p| p.seq).unwrap_or(0) >= packets.len() as u64);
    }

    #[test]
    fn clock_advances_with_captures() {
        let mut rx = CsiReceiver::new(link(), 2).unwrap();
        assert_eq!(rx.clock(), 0.0);
        let _ = rx.capture_static(None, 50).unwrap();
        assert!((rx.clock() - 1.0).abs() < 1e-9);
    }
}
