//! Seeded input generation: every input a workload feeds the program is
//! a pure function of `--seed` and the position of the input in the run.

use mpdf_rfmath::complex::Complex64;
use mpdf_wifi::csi::CsiPacket;

/// SplitMix64 finalizer over `(seed, a, b)`, the benchmark's only source
/// of randomness.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from [`mix`].
pub fn unit(seed: u64, a: u64, b: u64) -> f64 {
    (mix(seed, a, b) >> 11) as f64 / (1u64 << 53) as f64
}

/// Multiplies every sample of `packet` by one unit-modulus phase — the
/// common phase offset a commodity NIC adds to each packet, which phase
/// sanitization removes. Two deliveries of one synthesized window thus
/// never compare equal under [`CsiPacket::bits_eq`].
pub fn rotate(packet: &CsiPacket, phase: f64) -> CsiPacket {
    let w = Complex64::from_polar(1.0, phase);
    let (antennas, subcarriers) = (packet.antennas(), packet.subcarriers());
    let mut data = Vec::with_capacity(antennas * subcarriers);
    for a in 0..antennas {
        data.extend(packet.antenna_row(a).iter().map(|&h| h * w));
    }
    CsiPacket::new(antennas, subcarriers, data, packet.seq, packet.timestamp)
}

/// A deliberately mis-shaped window: one packet with 2 antennas where the
/// links expect 3, with seeded unit-modulus samples. The fleet must
/// contain it as a typed `Shape` fault.
pub fn poisoned_window(seed: u64, key: u64, subcarriers: usize) -> Vec<CsiPacket> {
    let data = (0..2 * subcarriers as u64)
        .map(|k| Complex64::from_polar(1.0, std::f64::consts::TAU * unit(seed, key, k)))
        .collect();
    vec![CsiPacket::new(2, subcarriers, data, 0, 0.0)]
}

/// 64-bit FNV-1a, for output digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 2));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
        let u = unit(9, 9, 9);
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn rotation_keeps_shape_and_power_but_changes_bits() {
        let data = (0..6).map(|k| Complex64::new(k as f64, 1.0)).collect();
        let p = CsiPacket::new(2, 3, data, 7, 0.25);
        let r = rotate(&p, 0.7);
        assert_eq!((r.antennas(), r.subcarriers(), r.seq), (2, 3, 7));
        assert!(!r.bits_eq(&p));
        for a in 0..2 {
            for s in 0..3 {
                assert!((r.power(a, s) - p.power(a, s)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn poisoned_windows_are_misshaped_and_distinct() {
        let a = poisoned_window(1, 10, 30);
        let b = poisoned_window(1, 11, 30);
        assert_eq!((a[0].antennas(), a[0].subcarriers()), (2, 30));
        assert!(!a[0].bits_eq(&b[0]));
    }
}
