//! 802.11n band plan and the Intel 5300 subcarrier layout.
//!
//! The paper's receiver is an Intel 5300 NIC on 2.4 GHz channel 11. The
//! CSI tool (\[16\]) reports 30 of the 56 occupied OFDM subcarriers, at the
//! non-uniform index set listed in the paper's footnote 1. Everything
//! downstream (multipath factor, weights, MUSIC snapshots) is computed on
//! this grid.

use std::error::Error;
use std::fmt;

/// Number of subcarriers the Intel 5300 CSI tool reports per antenna pair.
pub const NUM_SUBCARRIERS: usize = 30;

/// The Intel 5300 subcarrier indices (paper footnote 1).
pub const INTEL5300_SUBCARRIER_INDICES: [i32; NUM_SUBCARRIERS] = [
    -28, -26, -24, -22, -20, -18, -16, -14, -12, -10, -8, -6, -4, -2, -1, 1, 3, 5, 7, 9, 11, 13,
    15, 17, 19, 21, 23, 25, 27, 28,
];

/// OFDM subcarrier spacing for 20 MHz 802.11n (Hz).
pub const SUBCARRIER_SPACING_HZ: f64 = 312_500.0;

/// Centre frequency of a 2.4 GHz channel number (1–14).
///
/// # Panics
/// Panics for channel numbers outside 1–14.
pub fn channel_center_hz(channel: u8) -> f64 {
    assert!((1..=14).contains(&channel), "2.4 GHz channels are 1-14");
    if channel == 14 {
        2.484e9
    } else {
        2.407e9 + channel as f64 * 5e6
    }
}

/// Typed rejection for band parameters arriving from untrusted input
/// (wire headers, config files) — the panicking [`Band::new`] stays for
/// trusted in-process callers.
#[derive(Debug, Clone, PartialEq)]
pub enum BandError {
    /// Centre frequency is NaN, infinite, or not strictly positive.
    BadCenter(f64),
    /// No subcarrier indices were given.
    EmptyIndices,
    /// Indices are not strictly increasing (duplicate or out of order
    /// at slot `at`).
    UnsortedIndices {
        /// Slot where monotonicity breaks (`indices[at] >= indices[at+1]`).
        at: usize,
    },
}

impl fmt::Display for BandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BandError::BadCenter(hz) => {
                write!(f, "centre frequency {hz} Hz is not finite and positive")
            }
            BandError::EmptyIndices => write!(f, "at least one subcarrier index is required"),
            BandError::UnsortedIndices { at } => {
                write!(
                    f,
                    "subcarrier indices must be strictly increasing (slot {at})"
                )
            }
        }
    }
}

impl Error for BandError {}

/// A WiFi band configuration: centre frequency plus the reported
/// subcarrier grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Band {
    center_hz: f64,
    indices: Vec<i32>,
}

impl Band {
    /// The paper's configuration: 2.4 GHz channel 11 (2.462 GHz) with the
    /// Intel 5300 30-subcarrier grid.
    pub fn wifi_2_4ghz_channel11() -> Self {
        Band {
            center_hz: channel_center_hz(11),
            indices: INTEL5300_SUBCARRIER_INDICES.to_vec(),
        }
    }

    /// Creates a band on an arbitrary centre frequency with a custom
    /// subcarrier index set.
    ///
    /// # Panics
    /// Panics if the centre frequency is non-positive or no indices are
    /// given.
    pub fn new(center_hz: f64, indices: Vec<i32>) -> Self {
        assert!(center_hz > 0.0, "centre frequency must be positive");
        assert!(!indices.is_empty(), "at least one subcarrier required");
        Band { center_hz, indices }
    }

    /// Validating constructor for untrusted inputs: the centre frequency
    /// must be finite and positive and the index set non-empty and
    /// strictly increasing (slot order is a layout invariant everything
    /// downstream — μ_k, weights, MUSIC snapshots — relies on).
    ///
    /// # Errors
    /// Returns the first [`BandError`] violated; never panics.
    pub fn try_with_indices(center_hz: f64, indices: Vec<i32>) -> Result<Self, BandError> {
        if !center_hz.is_finite() || center_hz <= 0.0 {
            return Err(BandError::BadCenter(center_hz));
        }
        if indices.is_empty() {
            return Err(BandError::EmptyIndices);
        }
        if let Some(at) = indices.windows(2).position(|w| w[1] <= w[0]) {
            return Err(BandError::UnsortedIndices { at });
        }
        Ok(Band { center_hz, indices })
    }

    /// Centre frequency in Hz.
    pub fn center_hz(&self) -> f64 {
        self.center_hz
    }

    /// Subcarrier indices (relative to the centre).
    pub fn indices(&self) -> &[i32] {
        &self.indices
    }

    /// Number of subcarriers.
    pub fn num_subcarriers(&self) -> usize {
        self.indices.len()
    }

    /// Absolute frequency (Hz) of subcarrier slot `k` (an index into
    /// [`Band::indices`], not the OFDM index itself).
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn subcarrier_hz(&self, k: usize) -> f64 {
        self.center_hz + self.indices[k] as f64 * SUBCARRIER_SPACING_HZ
    }

    /// All subcarrier frequencies in slot order.
    pub fn frequencies(&self) -> Vec<f64> {
        (0..self.indices.len())
            .map(|k| self.subcarrier_hz(k))
            .collect()
    }

    /// Wavelength at the centre frequency (m).
    pub fn center_wavelength(&self) -> f64 {
        mpdf_propagation::pathloss::PathLossModel::wavelength(self.center_hz)
    }
}

impl Default for Band {
    fn default() -> Self {
        Band::wifi_2_4ghz_channel11()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_11_is_2462_mhz() {
        assert_eq!(channel_center_hz(11), 2.462e9);
        assert_eq!(channel_center_hz(1), 2.412e9);
        assert_eq!(channel_center_hz(14), 2.484e9);
    }

    #[test]
    #[should_panic(expected = "channels are 1-14")]
    fn channel_zero_panics() {
        channel_center_hz(0);
    }

    #[test]
    fn intel_grid_matches_paper_footnote() {
        let band = Band::wifi_2_4ghz_channel11();
        assert_eq!(band.num_subcarriers(), 30);
        assert_eq!(band.indices()[0], -28);
        assert_eq!(band.indices()[14], -1);
        assert_eq!(band.indices()[15], 1);
        assert_eq!(band.indices()[29], 28);
        // Strictly increasing and non-uniform.
        assert!(band.indices().windows(2).all(|w| w[1] > w[0]));
        let gaps: Vec<i32> = band.indices().windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.contains(&1) && gaps.contains(&2), "gaps {gaps:?}");
    }

    #[test]
    fn subcarrier_frequencies() {
        let band = Band::wifi_2_4ghz_channel11();
        assert_eq!(band.subcarrier_hz(0), 2.462e9 - 28.0 * 312_500.0);
        assert_eq!(band.subcarrier_hz(29), 2.462e9 + 28.0 * 312_500.0);
        let freqs = band.frequencies();
        assert_eq!(freqs.len(), 30);
        assert!(freqs.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn wavelength_is_about_12cm() {
        let band = Band::wifi_2_4ghz_channel11();
        assert!((band.center_wavelength() - 0.1218).abs() < 1e-3);
    }

    #[test]
    fn custom_band() {
        let band = Band::new(5.18e9, vec![-2, -1, 1, 2]);
        assert_eq!(band.num_subcarriers(), 4);
        assert!((band.subcarrier_hz(0) - (5.18e9 - 625e3)).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one subcarrier")]
    fn empty_band_panics() {
        let _ = Band::new(2.4e9, vec![]);
    }

    #[test]
    fn try_with_indices_validates_untrusted_input() {
        assert!(Band::try_with_indices(2.462e9, vec![-1, 1, 3]).is_ok());
        assert!(matches!(
            Band::try_with_indices(f64::NAN, vec![1]),
            Err(BandError::BadCenter(hz)) if hz.is_nan()
        ));
        assert!(matches!(
            Band::try_with_indices(-2.4e9, vec![1]),
            Err(BandError::BadCenter(_))
        ));
        assert_eq!(
            Band::try_with_indices(2.4e9, vec![]),
            Err(BandError::EmptyIndices)
        );
        assert_eq!(
            Band::try_with_indices(2.4e9, vec![-2, 3, 3, 5]),
            Err(BandError::UnsortedIndices { at: 1 })
        );
        assert_eq!(
            Band::try_with_indices(2.4e9, vec![5, -2]),
            Err(BandError::UnsortedIndices { at: 0 })
        );
    }
}
