//! Receiver fault injection — the failure modes of a real Intel 5300
//! deployment.
//!
//! The paper's pipeline assumes a pristine 3×30 CSI stream, but long
//! measurement campaigns on commodity hardware see packet-loss bursts
//! (rate adaptation, co-channel contention), whole antenna chains going
//! quiet (connector/calibration faults), AGC saturation clipping strong
//! links, NaN-corrupted rows from decoder glitches, and duplicated or
//! out-of-order delivery through the CSI tool's netlink path. This module
//! injects all of those *after* the physical-layer impairments of
//! [`crate::impairments`], so the quarantine/degradation machinery
//! downstream is exercised against realistic garbage.
//!
//! Faults draw from a dedicated RNG stream owned by [`FaultState`],
//! separate from the receiver's impairment RNG: a zero-fault
//! [`FaultModel`] consumes no randomness at all and leaves the packet
//! stream byte-identical to a fault-free receiver — the equivalence
//! contract the eval suite pins down.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mpdf_rfmath::complex::Complex64;

use crate::csi::CsiPacket;

/// Salt xor-ed into the receiver seed to derive the fault RNG stream, so
/// fault draws never perturb the impairment stream (and vice versa).
pub const FAULT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Names accepted by [`FaultModel::preset`], in presentation order.
pub const PRESET_NAMES: [&str; 6] = ["none", "loss", "dropout", "agc", "glitch", "chaos"];

/// Fault-injection configuration. All probabilities are per packet slot;
/// `FaultModel::none()` (the default) disables everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability that a packet-loss burst starts at this slot.
    pub loss_burst_prob: f64,
    /// Mean burst length in packets (geometric-ish; always ≥ 1).
    pub loss_burst_len: f64,
    /// Probability that an idle antenna chain drops out at this slot.
    pub chain_dropout_prob: f64,
    /// Mean dropout length in packets per chain.
    pub chain_dropout_len: f64,
    /// Dropped chains report NaN rows when `true`, all-zero rows when
    /// `false` (both occur in the wild, depending on where the chain
    /// dies).
    pub dropout_nan: bool,
    /// Probability that the AGC saturates on a packet, clipping
    /// amplitudes.
    pub agc_saturation_prob: f64,
    /// Clip rail amplitude in normalized CSI units (the receiver
    /// front-end normalizes CSI to O(1), so ~0.7 clips fading peaks).
    pub agc_clip_rel: f64,
    /// Probability that a decoder glitch fills one antenna row with NaN.
    pub nan_row_prob: f64,
    /// Probability that a packet is delivered twice (same sequence
    /// number, back to back).
    pub duplicate_prob: f64,
    /// Probability that a packet is held back one slot and delivered
    /// out of order.
    pub reorder_prob: f64,
}

impl FaultModel {
    /// No faults at all — the default, byte-identical to a receiver
    /// without fault injection.
    pub fn none() -> Self {
        FaultModel {
            loss_burst_prob: 0.0,
            loss_burst_len: 0.0,
            chain_dropout_prob: 0.0,
            chain_dropout_len: 0.0,
            dropout_nan: false,
            agc_saturation_prob: 0.0,
            agc_clip_rel: 0.7,
            nan_row_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
        }
    }

    /// Bursty packet loss only (contention / rate-adaptation stalls).
    pub fn packet_loss() -> Self {
        FaultModel {
            loss_burst_prob: 0.02,
            loss_burst_len: 4.0,
            ..FaultModel::none()
        }
    }

    /// Flaky antenna chains: per-chain dropouts averaging ~15 packets.
    pub fn chain_dropout() -> Self {
        FaultModel {
            chain_dropout_prob: 0.01,
            chain_dropout_len: 15.0,
            dropout_nan: false,
            ..FaultModel::none()
        }
    }

    /// AGC saturation clipping amplitude peaks on ~15 % of packets.
    pub fn agc_saturation() -> Self {
        FaultModel {
            agc_saturation_prob: 0.15,
            agc_clip_rel: 0.7,
            ..FaultModel::none()
        }
    }

    /// Decoder glitches: NaN rows, duplicated and reordered delivery.
    pub fn decoder_glitch() -> Self {
        FaultModel {
            nan_row_prob: 0.05,
            duplicate_prob: 0.03,
            reorder_prob: 0.03,
            ..FaultModel::none()
        }
    }

    /// Everything at once — the chaos-campaign workload.
    pub fn chaos() -> Self {
        FaultModel {
            loss_burst_prob: 0.015,
            loss_burst_len: 3.0,
            chain_dropout_prob: 0.008,
            chain_dropout_len: 12.0,
            dropout_nan: true,
            agc_saturation_prob: 0.08,
            agc_clip_rel: 0.7,
            nan_row_prob: 0.02,
            duplicate_prob: 0.02,
            reorder_prob: 0.02,
        }
    }

    /// Looks up a named preset (see [`PRESET_NAMES`]).
    pub fn preset(name: &str) -> Option<FaultModel> {
        match name {
            "none" => Some(FaultModel::none()),
            "loss" => Some(FaultModel::packet_loss()),
            "dropout" => Some(FaultModel::chain_dropout()),
            "agc" => Some(FaultModel::agc_saturation()),
            "glitch" => Some(FaultModel::decoder_glitch()),
            "chaos" => Some(FaultModel::chaos()),
            _ => None,
        }
    }

    /// True when every fault probability is zero — the receiver skips the
    /// fault pass entirely (and consumes no fault randomness).
    pub fn is_none(&self) -> bool {
        self.loss_burst_prob <= 0.0
            && self.chain_dropout_prob <= 0.0
            && self.agc_saturation_prob <= 0.0
            && self.nan_row_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.reorder_prob <= 0.0
    }

    /// Scales every fault *probability* by `intensity` (clamped to
    /// `[0, 1]`), leaving burst lengths untouched — the knob the chaos
    /// campaign sweeps for its degradation curves.
    pub fn scaled(&self, intensity: f64) -> FaultModel {
        let s = intensity.clamp(0.0, 1.0);
        FaultModel {
            loss_burst_prob: self.loss_burst_prob * s,
            chain_dropout_prob: self.chain_dropout_prob * s,
            agc_saturation_prob: self.agc_saturation_prob * s,
            nan_row_prob: self.nan_row_prob * s,
            duplicate_prob: self.duplicate_prob * s,
            reorder_prob: self.reorder_prob * s,
            ..*self
        }
    }

    /// Runs one emitted packet through the fault pass, pushing zero, one
    /// or two packets onto `out` (loss swallows the packet; duplication
    /// and a released hold-back emit extras). Mutating faults are applied
    /// before sequencing faults so a duplicated packet carries its
    /// corruption on both copies, as a real netlink re-delivery would.
    pub(crate) fn apply(
        &self,
        mut packet: CsiPacket,
        state: &mut FaultState,
        out: &mut Vec<CsiPacket>,
    ) {
        let rng = &mut state.rng;

        // 1. Packet-loss bursts (Gilbert-style: a burst start swallows a
        //    geometric run of slots).
        if state.loss_remaining > 0 {
            state.loss_remaining -= 1;
            mpdf_obs::counter!("wifi.faults_lost_total").inc();
            return;
        }
        if self.loss_burst_prob > 0.0 && rng.gen_range(0.0..1.0) < self.loss_burst_prob {
            state.loss_remaining = sample_burst_len(self.loss_burst_len, rng).saturating_sub(1);
            mpdf_obs::counter!("wifi.faults_lost_total").inc();
            return;
        }

        // 2. Per-chain antenna dropout.
        for a in 0..packet.antennas().min(state.dropout_remaining.len()) {
            if state.dropout_remaining[a] > 0 {
                state.dropout_remaining[a] -= 1;
                corrupt_row(&mut packet, a, self.dropout_nan);
                mpdf_obs::counter!("wifi.faults_chain_dropout_total").inc();
            } else if self.chain_dropout_prob > 0.0
                && rng.gen_range(0.0..1.0) < self.chain_dropout_prob
            {
                state.dropout_remaining[a] =
                    sample_burst_len(self.chain_dropout_len, rng).saturating_sub(1);
                corrupt_row(&mut packet, a, self.dropout_nan);
                mpdf_obs::counter!("wifi.faults_chain_dropout_total").inc();
            }
        }

        // 3. Decoder glitch: one antenna row turns NaN.
        if self.nan_row_prob > 0.0 && rng.gen_range(0.0..1.0) < self.nan_row_prob {
            let a = rng.gen_range(0..packet.antennas());
            corrupt_row(&mut packet, a, true);
            mpdf_obs::counter!("wifi.faults_nan_rows_total").inc();
        }

        // 4. AGC saturation: clip amplitudes to the rail, preserving
        //    phase (what a saturated ADC + AGC loop actually reports).
        if self.agc_saturation_prob > 0.0
            && self.agc_clip_rel > 0.0
            && rng.gen_range(0.0..1.0) < self.agc_saturation_prob
        {
            let rail = self.agc_clip_rel;
            for a in 0..packet.antennas() {
                for k in 0..packet.subcarriers() {
                    let h = packet.get_mut(a, k);
                    let amp = h.norm();
                    if amp > rail {
                        *h *= rail / amp;
                    }
                }
            }
            mpdf_obs::counter!("wifi.faults_saturated_total").inc();
        }

        // 5/6. Sequencing faults. A held-back packet is released *after*
        // the current one, producing a decreasing seq pair; duplication
        // re-delivers the current packet back to back.
        let duplicate = self.duplicate_prob > 0.0 && rng.gen_range(0.0..1.0) < self.duplicate_prob;
        if state.held.is_none()
            && self.reorder_prob > 0.0
            && rng.gen_range(0.0..1.0) < self.reorder_prob
        {
            mpdf_obs::counter!("wifi.faults_reordered_total").inc();
            state.held = Some(packet);
            return;
        }
        let released = state.held.take();
        if duplicate {
            mpdf_obs::counter!("wifi.faults_duplicated_total").inc();
            out.push(packet.clone());
        }
        out.push(packet);
        if let Some(p) = released {
            out.push(p);
        }
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// Mutable fault-injection state owned by a receiver: the dedicated RNG
/// stream, active burst counters and the reorder hold-back slot.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    rng: SmallRng,
    /// Packets still to swallow in the current loss burst.
    loss_remaining: u64,
    /// Per-antenna packets still to corrupt in the current dropout.
    dropout_remaining: Vec<u64>,
    /// Packet held back for out-of-order delivery.
    held: Option<CsiPacket>,
}

impl FaultState {
    pub(crate) fn new(seed: u64, antennas: usize) -> Self {
        FaultState {
            rng: SmallRng::seed_from_u64(seed ^ FAULT_SEED_SALT),
            loss_remaining: 0,
            dropout_remaining: vec![0; antennas],
            held: None,
        }
    }

    /// Resets to the state of a freshly built `FaultState` with the given
    /// seed — part of the [`crate::receiver::CsiReceiver::fork`]
    /// determinism contract.
    pub(crate) fn reset(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
        self.loss_remaining = 0;
        for d in &mut self.dropout_remaining {
            *d = 0;
        }
        self.held = None;
    }

    /// Releases the hold-back slot (flushed at the end of a capture so no
    /// packet is silently swallowed by a trailing reorder).
    pub(crate) fn take_held(&mut self) -> Option<CsiPacket> {
        self.held.take()
    }
}

/// Geometric-ish burst length with the given mean, always ≥ 1 and capped
/// at 10× the mean (+10) so a single draw cannot swallow a whole capture.
fn sample_burst_len<R: Rng>(mean: f64, rng: &mut R) -> u64 {
    let mean = mean.max(1.0);
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let len = (-mean * u.ln()).ceil();
    len.clamp(1.0, 10.0 * mean + 10.0) as u64
}

/// Overwrites one antenna row with NaN (dead decoder) or zeros (dead RF
/// chain).
fn corrupt_row(packet: &mut CsiPacket, antenna: usize, nan: bool) {
    let fill = if nan {
        Complex64::new(f64::NAN, f64::NAN)
    } else {
        Complex64::ZERO
    };
    for k in 0..packet.subcarriers() {
        *packet.get_mut(antenna, k) = fill;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_packet(seq: u64) -> CsiPacket {
        CsiPacket::new(3, 30, vec![Complex64::ONE; 90], seq, seq as f64 * 0.02)
    }

    fn run_model(model: &FaultModel, n: u64, seed: u64) -> Vec<CsiPacket> {
        let mut state = FaultState::new(seed, 3);
        let mut out = Vec::new();
        for seq in 0..n {
            model.apply(unit_packet(seq), &mut state, &mut out);
        }
        if let Some(p) = state.take_held() {
            out.push(p);
        }
        out
    }

    #[test]
    fn none_preset_is_identity() {
        let model = FaultModel::none();
        assert!(model.is_none());
        let out = run_model(&model, 10, 1);
        assert_eq!(out.len(), 10);
        for (i, p) in out.iter().enumerate() {
            assert_eq!(p, &unit_packet(i as u64));
        }
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in PRESET_NAMES {
            assert!(FaultModel::preset(name).is_some(), "missing preset {name}");
        }
        assert_eq!(FaultModel::preset("bogus"), None);
        assert!(FaultModel::preset("none").is_some_and(|m| m.is_none()));
        assert!(FaultModel::preset("chaos").is_some_and(|m| !m.is_none()));
    }

    #[test]
    fn loss_creates_sequence_gaps() {
        let model = FaultModel {
            loss_burst_prob: 0.2,
            loss_burst_len: 3.0,
            ..FaultModel::none()
        };
        let out = run_model(&model, 200, 7);
        assert!(out.len() < 200, "no packets lost");
        // Survivors keep their original (gapped) sequence numbers.
        let seqs: Vec<u64> = out.iter().map(|p| p.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() < 200 && !sorted.is_empty());
        assert_eq!(seqs, sorted, "pure loss must preserve order");
    }

    #[test]
    fn dropout_corrupts_whole_rows() {
        let zero_model = FaultModel {
            chain_dropout_prob: 0.1,
            chain_dropout_len: 5.0,
            dropout_nan: false,
            ..FaultModel::none()
        };
        let out = run_model(&zero_model, 100, 3);
        assert_eq!(out.len(), 100);
        let zero_rows = out
            .iter()
            .flat_map(|p| (0..3).map(move |a| (p, a)))
            .filter(|(p, a)| (0..30).all(|k| p.get(*a, k) == Complex64::ZERO))
            .count();
        assert!(zero_rows > 0, "dropout never fired");

        let nan_model = FaultModel {
            dropout_nan: true,
            ..zero_model
        };
        let out = run_model(&nan_model, 100, 3);
        let nan_rows = out
            .iter()
            .flat_map(|p| (0..3).map(move |a| (p, a)))
            .filter(|(p, a)| (0..30).all(|k| p.get(*a, k).re.is_nan()))
            .count();
        assert!(nan_rows > 0, "NaN dropout never fired");
    }

    #[test]
    fn saturation_clips_amplitude_but_keeps_phase() {
        let model = FaultModel {
            agc_saturation_prob: 1.0,
            agc_clip_rel: 0.5,
            ..FaultModel::none()
        };
        let mut state = FaultState::new(1, 3);
        let mut out = Vec::new();
        let big = CsiPacket::new(3, 30, vec![Complex64::from_polar(2.0, 0.4); 90], 0, 0.0);
        model.apply(big, &mut state, &mut out);
        assert_eq!(out.len(), 1);
        for a in 0..3 {
            for k in 0..30 {
                let h = out[0].get(a, k);
                assert!((h.norm() - 0.5).abs() < 1e-12, "amplitude not clipped");
                assert!((h.arg() - 0.4).abs() < 1e-12, "phase not preserved");
            }
        }
    }

    #[test]
    fn duplicates_and_reorders_perturb_sequencing() {
        let model = FaultModel {
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
            ..FaultModel::none()
        };
        let out = run_model(&model, 200, 11);
        let seqs: Vec<u64> = out.iter().map(|p| p.seq).collect();
        let dups = seqs.windows(2).filter(|w| w[0] == w[1]).count();
        let inversions = seqs.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(dups > 0, "no duplicates in {seqs:?}");
        assert!(inversions > 0, "no out-of-order pairs in {seqs:?}");
        // Nothing is lost by sequencing faults: every seq is delivered.
        let mut sorted = seqs;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 200);
    }

    /// Bit-level fingerprint that, unlike `PartialEq`, treats NaN as
    /// equal to itself — chaos streams contain NaN rows by design.
    fn fingerprint(packets: &[CsiPacket]) -> Vec<(u64, Vec<(u64, u64)>)> {
        packets
            .iter()
            .map(|p| {
                let bits = (0..p.antennas())
                    .flat_map(|a| (0..p.subcarriers()).map(move |k| (a, k)))
                    .map(|(a, k)| {
                        let h = p.get(a, k);
                        (h.re.to_bits(), h.im.to_bits())
                    })
                    .collect();
                (p.seq, bits)
            })
            .collect()
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let model = FaultModel::chaos();
        assert_eq!(
            fingerprint(&run_model(&model, 150, 5)),
            fingerprint(&run_model(&model, 150, 5))
        );
        assert_ne!(
            fingerprint(&run_model(&model, 150, 5)),
            fingerprint(&run_model(&model, 150, 6))
        );
    }

    #[test]
    fn scaling_to_zero_disables_everything() {
        let model = FaultModel::chaos();
        assert!(model.scaled(0.0).is_none());
        assert_eq!(model.scaled(1.0), model);
        let half = model.scaled(0.5);
        assert!((half.loss_burst_prob - model.loss_burst_prob * 0.5).abs() < 1e-15);
        assert!((half.loss_burst_len - model.loss_burst_len).abs() < 1e-15);
        // Out-of-range intensities clamp.
        assert_eq!(model.scaled(7.0), model);
        assert!(model.scaled(-3.0).is_none());
    }

    #[test]
    fn burst_lengths_are_positive_and_capped() {
        let mut rng = SmallRng::seed_from_u64(2);
        for mean in [0.0, 1.0, 4.0, 50.0] {
            for _ in 0..200 {
                let len = sample_burst_len(mean, &mut rng);
                assert!(len >= 1);
                assert!(len <= (10.0 * mean.max(1.0) + 10.0) as u64);
            }
        }
    }
}
