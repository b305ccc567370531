//! Channel State Information packets.
//!
//! A [`CsiPacket`] is what the CSI tool hands to user space per received
//! frame: one complex `H(f_k)` per (RX antenna, subcarrier) pair, plus a
//! sequence number and timestamp. Helpers convert to the amplitude/power
//! features the detection schemes consume.

use std::borrow::Borrow;

use mpdf_rfmath::complex::Complex64;
use mpdf_rfmath::db::power_to_db;
use mpdf_rfmath::stats::median_in_place;

/// CSI for one received packet: `antennas × subcarriers` complex samples.
#[derive(Debug, PartialEq)]
pub struct CsiPacket {
    antennas: usize,
    subcarriers: usize,
    /// Row-major `[antenna][subcarrier]`.
    data: Vec<Complex64>,
    /// Packet sequence number.
    pub seq: u64,
    /// Capture timestamp in seconds.
    pub timestamp: f64,
}

impl Clone for CsiPacket {
    fn clone(&self) -> Self {
        CsiPacket {
            antennas: self.antennas,
            subcarriers: self.subcarriers,
            data: self.data.clone(),
            seq: self.seq,
            timestamp: self.timestamp,
        }
    }

    /// Copies `source` into `self`, reusing `self`'s sample buffer.
    fn clone_from(&mut self, source: &Self) {
        // Destructured exhaustively so a new field cannot be left stale.
        let CsiPacket {
            antennas,
            subcarriers,
            data,
            seq,
            timestamp,
        } = source;
        self.antennas = *antennas;
        self.subcarriers = *subcarriers;
        self.data.clone_from(data);
        self.seq = *seq;
        self.timestamp = *timestamp;
    }
}

impl CsiPacket {
    /// Creates a packet from row-major samples.
    ///
    /// # Panics
    /// Panics unless `data.len() == antennas * subcarriers` with both
    /// dimensions non-zero.
    pub fn new(
        antennas: usize,
        subcarriers: usize,
        data: Vec<Complex64>,
        seq: u64,
        timestamp: f64,
    ) -> Self {
        assert!(
            antennas > 0 && subcarriers > 0,
            "dimensions must be non-zero"
        );
        assert_eq!(
            data.len(),
            antennas * subcarriers,
            "data length must be antennas × subcarriers"
        );
        CsiPacket {
            antennas,
            subcarriers,
            data,
            seq,
            timestamp,
        }
    }

    /// Number of receive antennas.
    pub fn antennas(&self) -> usize {
        self.antennas
    }

    /// Number of subcarriers.
    pub fn subcarriers(&self) -> usize {
        self.subcarriers
    }

    /// Bitwise equality with another packet: identical shape, metadata
    /// and per-sample bit patterns. Samples compare by representation
    /// (`to_bits`), so `NaN`s equal themselves — IEEE `==` would never
    /// match a poisoned packet and would conflate `±0.0`.
    pub fn bits_eq(&self, other: &Self) -> bool {
        self.antennas == other.antennas
            && self.subcarriers == other.subcarriers
            && self.seq == other.seq
            && self.timestamp.to_bits() == other.timestamp.to_bits()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits())
    }

    /// Complex CSI for `(antenna, subcarrier)`.
    ///
    /// # Panics
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, antenna: usize, subcarrier: usize) -> Complex64 {
        assert!(antenna < self.antennas && subcarrier < self.subcarriers);
        self.data[antenna * self.subcarriers + subcarrier]
    }

    /// Mutable access for impairment/sanitization passes.
    pub(crate) fn get_mut(&mut self, antenna: usize, subcarrier: usize) -> &mut Complex64 {
        assert!(antenna < self.antennas && subcarrier < self.subcarriers);
        &mut self.data[antenna * self.subcarriers + subcarrier]
    }

    /// One antenna's CSI across subcarriers.
    pub fn antenna_row(&self, antenna: usize) -> &[Complex64] {
        assert!(antenna < self.antennas, "antenna index out of range");
        &self.data[antenna * self.subcarriers..(antenna + 1) * self.subcarriers]
    }

    /// Mutable row view for sanitization passes.
    pub(crate) fn antenna_row_mut(&mut self, antenna: usize) -> &mut [Complex64] {
        assert!(antenna < self.antennas, "antenna index out of range");
        &mut self.data[antenna * self.subcarriers..(antenna + 1) * self.subcarriers]
    }

    /// One subcarrier's CSI across antennas — a MUSIC snapshot.
    pub fn subcarrier_column(&self, subcarrier: usize) -> Vec<Complex64> {
        assert!(subcarrier < self.subcarriers, "subcarrier out of range");
        (0..self.antennas)
            .map(|a| self.get(a, subcarrier))
            .collect()
    }

    /// Subcarrier power `|H|²` for one antenna.
    #[inline]
    pub fn power(&self, antenna: usize, subcarrier: usize) -> f64 {
        self.get(antenna, subcarrier).norm_sqr()
    }

    /// Packet restricted to the given antenna rows (in the given order) —
    /// the degraded-mode reduction applied after quarantine marks chains
    /// unusable. Sequence number and timestamp are preserved.
    ///
    /// # Panics
    /// Panics when `rows` is empty or contains an out-of-range antenna.
    pub fn select_antennas(&self, rows: &[usize]) -> CsiPacket {
        assert!(!rows.is_empty(), "cannot select zero antennas");
        let mut data = Vec::with_capacity(rows.len() * self.subcarriers);
        for &a in rows {
            data.extend_from_slice(self.antenna_row(a));
        }
        CsiPacket::new(rows.len(), self.subcarriers, data, self.seq, self.timestamp)
    }

    /// Per-subcarrier power averaged over antennas.
    pub fn mean_power_per_subcarrier(&self) -> Vec<f64> {
        (0..self.subcarriers)
            .map(|k| {
                (0..self.antennas).map(|a| self.power(a, k)).sum::<f64>() / self.antennas as f64
            })
            .collect()
    }

    /// Per-subcarrier RSS in dB, averaged over antennas in the power
    /// domain first (the `s(t)` of §III).
    pub fn rss_db_per_subcarrier(&self) -> Vec<f64> {
        self.mean_power_per_subcarrier()
            .into_iter()
            .map(power_to_db)
            .collect()
    }

    /// Total received power over all antennas and subcarriers.
    pub fn total_power(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Median per-subcarrier *power* profile of a packet collection
    /// (owned or borrowed packets).
    ///
    /// Robust to bursty narrowband interference: a burst present in a
    /// minority of packets inflates the mean but leaves the median
    /// untouched, so the weighted detection schemes profile against it.
    ///
    /// # Panics
    /// Panics when `packets` is empty.
    pub fn median_power_profile<P: Borrow<CsiPacket>>(packets: &[P]) -> Vec<f64> {
        assert!(!packets.is_empty(), "cannot average zero packets");
        let s = packets[0].borrow().subcarriers();
        let mut powers = Vec::with_capacity(packets.len());
        (0..s)
            .map(|k| {
                powers.clear();
                powers.extend(packets.iter().map(|p| {
                    let p = p.borrow();
                    (0..p.antennas).map(|a| p.power(a, k)).sum::<f64>() / p.antennas as f64
                }));
                median_in_place(&mut powers)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn sample_packet() -> CsiPacket {
        // 2 antennas × 3 subcarriers.
        CsiPacket::new(
            2,
            3,
            vec![
                c(1.0, 0.0),
                c(0.0, 2.0),
                c(3.0, 0.0),
                c(0.0, 1.0),
                c(2.0, 0.0),
                c(0.0, 3.0),
            ],
            7,
            0.02,
        )
    }

    #[test]
    fn indexing_layout() {
        let p = sample_packet();
        assert_eq!(p.antennas(), 2);
        assert_eq!(p.subcarriers(), 3);
        assert_eq!(p.get(0, 1), c(0.0, 2.0));
        assert_eq!(p.get(1, 2), c(0.0, 3.0));
        assert_eq!(p.antenna_row(1), &[c(0.0, 1.0), c(2.0, 0.0), c(0.0, 3.0)]);
        assert_eq!(p.subcarrier_column(0), vec![c(1.0, 0.0), c(0.0, 1.0)]);
    }

    #[test]
    fn power_features() {
        let p = sample_packet();
        assert_eq!(p.power(0, 2), 9.0);
        let mp = p.mean_power_per_subcarrier();
        assert_eq!(mp, vec![1.0, 4.0, 9.0]);
        assert_eq!(p.total_power(), 1.0 + 4.0 + 9.0 + 1.0 + 4.0 + 9.0);
        let rss = p.rss_db_per_subcarrier();
        assert!((rss[0] - 0.0).abs() < 1e-12);
        assert!((rss[2] - 10.0 * 9f64.log10()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "antennas × subcarriers")]
    fn shape_mismatch_panics() {
        let _ = CsiPacket::new(2, 3, vec![Complex64::ZERO; 5], 0, 0.0);
    }
}
