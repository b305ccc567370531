//! Receiver impairments.
//!
//! Raw Intel 5300 CSI is corrupted by effects the paper has to work
//! around: additive noise, a random common phase per packet (CFO /
//! packet-detection delay), a linear-in-frequency phase slope (SFO), and
//! AGC gain jitter. This module injects all four — so the sanitization of
//! \[26\] and the stability analysis of the multipath factor (Fig. 4) are
//! exercised against realistic inputs.
//!
//! Phase impairments are *common across antennas* (the 5300's chains share
//! one oscillator), which is why relative inter-antenna phase survives and
//! MUSIC remains possible.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::db::db_to_amplitude;

use crate::csi::CsiPacket;

/// Impairment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImpairmentModel {
    /// Per-subcarrier SNR in dB (signal power / noise power).
    pub snr_db: f64,
    /// Standard deviation of the per-packet linear phase slope across
    /// subcarrier indices (radians per index unit).
    pub sfo_slope_std: f64,
    /// AGC gain jitter standard deviation in dB.
    pub agc_jitter_db: f64,
    /// Whether to apply a uniformly random common phase per packet.
    pub random_common_phase: bool,
    /// Probability that a packet is hit by bursty narrowband
    /// interference (Bluetooth/microwave-style co-channel bursts that
    /// plague 2.4 GHz).
    pub interference_prob: f64,
    /// Interference power relative to the signal, in dB.
    pub interference_power_db: f64,
    /// Number of adjacent subcarriers one burst covers.
    pub interference_width: usize,
}

impl ImpairmentModel {
    /// Representative commodity-NIC impairments: 25 dB SNR, noticeable
    /// SFO slope, 0.5 dB AGC jitter, random common phase, and occasional
    /// narrowband interference bursts.
    pub fn commodity_nic() -> Self {
        ImpairmentModel {
            snr_db: 25.0,
            sfo_slope_std: 0.02,
            agc_jitter_db: 0.5,
            random_common_phase: true,
            interference_prob: 0.35,
            interference_power_db: -4.0,
            interference_width: 5,
        }
    }

    /// No impairments at all (ideal receiver) — useful in unit tests.
    pub fn ideal() -> Self {
        ImpairmentModel {
            snr_db: f64::INFINITY,
            sfo_slope_std: 0.0,
            agc_jitter_db: 0.0,
            random_common_phase: false,
            interference_prob: 0.0,
            interference_power_db: 0.0,
            interference_width: 0,
        }
    }

    /// Returns a copy with a different SNR.
    pub fn with_snr_db(mut self, snr_db: f64) -> Self {
        self.snr_db = snr_db;
        self
    }

    /// Applies this model to a clean packet in place.
    ///
    /// `subcarrier_indices` are the OFDM indices (e.g. the Intel 5300
    /// grid) used to scale the SFO slope; `reference_power` is the mean
    /// per-sample signal power used to size the AWGN.
    ///
    /// # Panics
    /// Panics if the index list length differs from the packet's
    /// subcarrier count, or `reference_power` is not positive/finite.
    pub fn apply<R: Rng>(
        &self,
        packet: &mut CsiPacket,
        subcarrier_indices: &[i32],
        reference_power: f64,
        rng: &mut R,
    ) {
        self.apply_with_interferer(packet, subcarrier_indices, reference_power, None, rng);
    }

    /// Like [`ImpairmentModel::apply`], but with an optional fixed
    /// interferer centre subcarrier. Real 2.4 GHz interferers (ZigBee
    /// nodes, analogue video senders, a neighbour's AP) park on a fixed
    /// frequency for a whole session while bursting on and off per
    /// packet; pass the session's centre to model that. `None` draws a
    /// fresh centre per burst.
    pub fn apply_with_interferer<R: Rng>(
        &self,
        packet: &mut CsiPacket,
        subcarrier_indices: &[i32],
        reference_power: f64,
        interferer_center: Option<usize>,
        rng: &mut R,
    ) {
        assert_eq!(
            subcarrier_indices.len(),
            packet.subcarriers(),
            "index list must match packet subcarriers"
        );
        assert!(
            reference_power > 0.0 && reference_power.is_finite(),
            "reference power must be positive"
        );

        let common_phase = if self.random_common_phase {
            rng.gen_range(0.0..std::f64::consts::TAU)
        } else {
            0.0
        };
        let slope = if self.sfo_slope_std > 0.0 {
            gaussian(rng) * self.sfo_slope_std
        } else {
            0.0
        };
        let gain = if self.agc_jitter_db > 0.0 {
            db_to_amplitude(gaussian(rng) * self.agc_jitter_db)
        } else {
            1.0
        };
        let noise_sigma = if self.snr_db.is_finite() {
            (reference_power / mpdf_rfmath::db::db_to_power(self.snr_db)).sqrt()
        } else {
            0.0
        };

        // Narrowband interference burst covering a run of subcarriers.
        let burst: Option<(usize, usize, f64)> = if self.interference_prob > 0.0
            && self.interference_width > 0
            && rng.gen_range(0.0..1.0) < self.interference_prob
        {
            let k = packet.subcarriers();
            let width = self.interference_width.min(k);
            let start = match interferer_center {
                Some(c) => burst_start_covering(c, width, k),
                None => rng.gen_range(0..=(k - width)),
            };
            let sigma =
                (reference_power * mpdf_rfmath::db::db_to_power(self.interference_power_db)).sqrt();
            Some((start, start + width, sigma))
        } else {
            None
        };

        // The phase impairments are common across antennas: one rotor
        // per subcarrier serves every chain.
        let rotors: Vec<Complex64> = subcarrier_indices
            .iter()
            .map(|&idx| Complex64::cis(common_phase + slope * idx as f64))
            .collect();
        for a in 0..packet.antennas() {
            for (k, &rot) in rotors.iter().enumerate() {
                let mut noise = if noise_sigma > 0.0 {
                    // Complex AWGN: σ²/2 per quadrature.
                    Complex64::new(gaussian(rng), gaussian(rng)) * (noise_sigma / 2f64.sqrt())
                } else {
                    Complex64::ZERO
                };
                if let Some((lo, hi, sigma)) = burst {
                    if k >= lo && k < hi {
                        noise +=
                            Complex64::new(gaussian(rng), gaussian(rng)) * (sigma / 2f64.sqrt());
                    }
                }
                let h = packet.get_mut(a, k);
                *h = *h * rot * gain + noise;
            }
        }
    }
}

impl Default for ImpairmentModel {
    fn default() -> Self {
        ImpairmentModel::commodity_nic()
    }
}

/// Start of a `width`-long burst window that always covers subcarrier
/// `center`, clamped into the band `[0, k)`.
///
/// The window is centred on `center` and then shifted — never shrunk —
/// when it would overhang a band edge, so a fixed interferer parked on an
/// edge subcarrier still hits that subcarrier (an earlier formulation
/// could slide the window off the requested centre).
///
/// Requires `1 ≤ width ≤ k`; an out-of-band `center` is clamped to the
/// nearest edge subcarrier first.
fn burst_start_covering(center: usize, width: usize, k: usize) -> usize {
    debug_assert!(width >= 1 && width <= k);
    let c = center.min(k - 1);
    // Centre, clamp right edge, clamp left edge (saturating).
    let start = c.saturating_sub(width / 2).min(k - width);
    debug_assert!(start <= c && c < start + width, "burst misses its centre");
    start
}

/// Standard normal sample via Box–Muller (keeps us independent of
/// `rand_distr`, which is not in the allowed dependency set).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::INTEL5300_SUBCARRIER_INDICES;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

    fn clean_packet() -> CsiPacket {
        let data = vec![Complex64::ONE; 3 * 30];
        CsiPacket::new(3, 30, data, 0, 0.0)
    }

    #[test]
    fn ideal_model_is_identity() {
        let mut p = clean_packet();
        let mut rng = SmallRng::seed_from_u64(1);
        ImpairmentModel::ideal().apply(&mut p, &INTEL5300_SUBCARRIER_INDICES, 1.0, &mut rng);
        assert_eq!(p, clean_packet());
    }

    #[test]
    fn snr_controls_noise_power() {
        let mut rng = SmallRng::seed_from_u64(7);
        let model = ImpairmentModel {
            snr_db: 20.0,
            sfo_slope_std: 0.0,
            agc_jitter_db: 0.0,
            random_common_phase: false,
            interference_prob: 0.0,
            interference_power_db: 0.0,
            interference_width: 0,
        };
        // Measure noise empirically over many packets.
        let mut err_power = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let mut p = clean_packet();
            model.apply(&mut p, &INTEL5300_SUBCARRIER_INDICES, 1.0, &mut rng);
            for a in 0..3 {
                for k in 0..30 {
                    err_power += (p.get(a, k) - Complex64::ONE).norm_sqr();
                }
            }
        }
        let measured = err_power / (trials * 90) as f64;
        // Expect 10^(−20/10) = 0.01 noise power.
        assert!(
            (measured - 0.01).abs() < 0.002,
            "measured noise power {measured}"
        );
    }

    #[test]
    fn common_phase_preserves_inter_antenna_relations() {
        let mut rng = SmallRng::seed_from_u64(3);
        let model = ImpairmentModel {
            snr_db: f64::INFINITY,
            sfo_slope_std: 0.05,
            agc_jitter_db: 0.0,
            random_common_phase: true,
            interference_prob: 0.0,
            interference_power_db: 0.0,
            interference_width: 0,
        };
        // Give antennas distinct phases to start with.
        let mut p = clean_packet();
        *p.get_mut(1, 0) = Complex64::cis(0.7);
        let before = (p.get(1, 0) * p.get(0, 0).conj()).arg();
        model.apply(&mut p, &INTEL5300_SUBCARRIER_INDICES, 1.0, &mut rng);
        let after = (p.get(1, 0) * p.get(0, 0).conj()).arg();
        assert!(
            (before - after).abs() < 1e-9,
            "relative antenna phase must survive common impairments"
        );
    }

    #[test]
    fn sfo_slope_is_linear_in_index() {
        let mut rng = SmallRng::seed_from_u64(11);
        let model = ImpairmentModel {
            snr_db: f64::INFINITY,
            sfo_slope_std: 0.05,
            agc_jitter_db: 0.0,
            random_common_phase: false,
            interference_prob: 0.0,
            interference_power_db: 0.0,
            interference_width: 0,
        };
        let mut p = clean_packet();
        model.apply(&mut p, &INTEL5300_SUBCARRIER_INDICES, 1.0, &mut rng);
        // φ_k = slope·idx_k ⇒ the phase of two subcarriers determines all.
        let i0 = INTEL5300_SUBCARRIER_INDICES[0] as f64;
        let i1 = INTEL5300_SUBCARRIER_INDICES[1] as f64;
        let phi0 = p.get(0, 0).arg();
        let phi1 = p.get(0, 1).arg();
        let slope = (phi1 - phi0) / (i1 - i0);
        for (k, &idx) in INTEL5300_SUBCARRIER_INDICES.iter().enumerate() {
            let expect = slope * (idx as f64 - i0) + phi0;
            let got = p.get(0, k).arg();
            let diff = (got - expect).rem_euclid(std::f64::consts::TAU);
            let diff = diff.min(std::f64::consts::TAU - diff);
            assert!(diff < 1e-9, "subcarrier {k} off by {diff}");
        }
    }

    #[test]
    fn agc_jitter_scales_amplitude_uniformly() {
        let mut rng = SmallRng::seed_from_u64(5);
        let model = ImpairmentModel {
            snr_db: f64::INFINITY,
            sfo_slope_std: 0.0,
            agc_jitter_db: 2.0,
            random_common_phase: false,
            interference_prob: 0.0,
            interference_power_db: 0.0,
            interference_width: 0,
        };
        let mut p = clean_packet();
        model.apply(&mut p, &INTEL5300_SUBCARRIER_INDICES, 1.0, &mut rng);
        let g = p.get(0, 0).norm();
        assert!(g != 1.0, "gain jitter should change amplitude");
        for a in 0..3 {
            for k in 0..30 {
                assert!((p.get(a, k).norm() - g).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn burst_window_always_covers_center() {
        // Exhaustive: every centre (including out-of-band), every width.
        for k in [1usize, 2, 5, 30] {
            for width in 1..=k {
                for center in 0..k + 3 {
                    let start = burst_start_covering(center, width, k);
                    let c = center.min(k - 1);
                    assert!(
                        start + width <= k,
                        "window [{start}, {}) overhangs band of {k}",
                        start + width
                    );
                    assert!(
                        start <= c && c < start + width,
                        "centre {c} outside burst [{start}, {}) (k={k}, width={width})",
                        start + width
                    );
                }
            }
        }
    }

    #[test]
    fn edge_center_burst_hits_the_requested_subcarrier() {
        // A fixed interferer parked on an edge subcarrier must corrupt
        // that subcarrier whenever it bursts.
        let model = ImpairmentModel {
            snr_db: f64::INFINITY,
            sfo_slope_std: 0.0,
            agc_jitter_db: 0.0,
            random_common_phase: false,
            interference_prob: 1.0,
            interference_power_db: 10.0,
            interference_width: 5,
        };
        for center in [0usize, 1, 29, 100] {
            let mut rng = SmallRng::seed_from_u64(17);
            let mut p = clean_packet();
            model.apply_with_interferer(
                &mut p,
                &INTEL5300_SUBCARRIER_INDICES,
                1.0,
                Some(center),
                &mut rng,
            );
            let hit = center.min(29);
            let delta = (p.get(0, hit) - Complex64::ONE).norm();
            assert!(
                delta > 1e-6,
                "centre subcarrier {hit} untouched by burst (centre {center})"
            );
        }
    }

    #[test]
    fn seeded_rng_makes_impairments_reproducible() {
        let model = ImpairmentModel::commodity_nic();
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut p = clean_packet();
            model.apply(&mut p, &INTEL5300_SUBCARRIER_INDICES, 1.0, &mut rng);
            p
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// The impairment loop as written before the rotors were hoisted out
    /// of the antenna loop: one `cis` per antenna and subcarrier.
    fn apply_per_antenna_rotors<R: Rng>(
        model: &ImpairmentModel,
        packet: &mut CsiPacket,
        subcarrier_indices: &[i32],
        reference_power: f64,
        interferer_center: Option<usize>,
        rng: &mut R,
    ) {
        let common_phase = if model.random_common_phase {
            rng.gen_range(0.0..std::f64::consts::TAU)
        } else {
            0.0
        };
        let slope = if model.sfo_slope_std > 0.0 {
            gaussian(rng) * model.sfo_slope_std
        } else {
            0.0
        };
        let gain = if model.agc_jitter_db > 0.0 {
            db_to_amplitude(gaussian(rng) * model.agc_jitter_db)
        } else {
            1.0
        };
        let noise_sigma = if model.snr_db.is_finite() {
            (reference_power / mpdf_rfmath::db::db_to_power(model.snr_db)).sqrt()
        } else {
            0.0
        };
        let burst: Option<(usize, usize, f64)> = if model.interference_prob > 0.0
            && model.interference_width > 0
            && rng.gen_range(0.0..1.0) < model.interference_prob
        {
            let k = packet.subcarriers();
            let width = model.interference_width.min(k);
            let start = match interferer_center {
                Some(c) => burst_start_covering(c, width, k),
                None => rng.gen_range(0..=(k - width)),
            };
            let sigma = (reference_power
                * mpdf_rfmath::db::db_to_power(model.interference_power_db))
            .sqrt();
            Some((start, start + width, sigma))
        } else {
            None
        };
        for a in 0..packet.antennas() {
            for (k, &idx) in subcarrier_indices.iter().enumerate() {
                let rot = Complex64::cis(common_phase + slope * idx as f64);
                let mut noise = if noise_sigma > 0.0 {
                    Complex64::new(gaussian(rng), gaussian(rng)) * (noise_sigma / 2f64.sqrt())
                } else {
                    Complex64::ZERO
                };
                if let Some((lo, hi, sigma)) = burst {
                    if k >= lo && k < hi {
                        noise +=
                            Complex64::new(gaussian(rng), gaussian(rng)) * (sigma / 2f64.sqrt());
                    }
                }
                let h = packet.get_mut(a, k);
                *h = *h * rot * gain + noise;
            }
        }
    }

    #[test]
    fn one_rotor_per_subcarrier_is_bitwise_the_per_antenna_loop() {
        let varied = || {
            let data = (0..3 * 30)
                .map(|i| Complex64::new(0.3 + 0.01 * i as f64, -0.2 + 0.007 * i as f64))
                .collect();
            CsiPacket::new(3, 30, data, 0, 0.0)
        };
        for random_common_phase in [false, true] {
            for interference_prob in [0.0, 1.0] {
                let model = ImpairmentModel {
                    random_common_phase,
                    interference_prob,
                    ..ImpairmentModel::commodity_nic()
                };
                for center in [None, Some(0), Some(17)] {
                    for seed in 0..16 {
                        let mut hoisted = varied();
                        let mut reference = varied();
                        let mut rng_h = SmallRng::seed_from_u64(seed);
                        let mut rng_r = SmallRng::seed_from_u64(seed);
                        model.apply_with_interferer(
                            &mut hoisted,
                            &INTEL5300_SUBCARRIER_INDICES,
                            0.7,
                            center,
                            &mut rng_h,
                        );
                        apply_per_antenna_rotors(
                            &model,
                            &mut reference,
                            &INTEL5300_SUBCARRIER_INDICES,
                            0.7,
                            center,
                            &mut rng_r,
                        );
                        for a in 0..3 {
                            for k in 0..30 {
                                let (h, r) = (hoisted.get(a, k), reference.get(a, k));
                                assert_eq!(h.re.to_bits(), r.re.to_bits(), "({a}, {k})");
                                assert_eq!(h.im.to_bits(), r.im.to_bits(), "({a}, {k})");
                            }
                        }
                        // Same draws consumed: the streams stay in step.
                        assert_eq!(rng_h.next_u64(), rng_r.next_u64());
                    }
                }
            }
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
