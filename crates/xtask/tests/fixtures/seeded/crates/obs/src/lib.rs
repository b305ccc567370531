//! Fixture observability crate: metrics/obs contract seeds — malformed
//! and unregistered metric names, a kind mismatch, registered uses that
//! must stay quiet — plus the obs-side lock-order checks. A metric
//! missing from the registry has no escape hatch: it is registered or
//! it is reported.
//!
//!

use std::sync::{Mutex, PoisonError};
// Lock ranks come from the fixture's LOCK_ORDER.txt.

/// Sink with two ranked locks.
pub struct Sink {
    /// Declared `lock obs.first`.
    pub first: Mutex<u32>,
    /// Declared `lock obs.second`.
    pub second: Mutex<u32>,
}

impl Sink {
    /// Acquisitions in manifest order: quiet.
    pub fn ordered(&self) -> u32 {
        let a = *self.first.lock().unwrap_or_else(PoisonError::into_inner);
        let b = *self.second.lock().unwrap_or_else(PoisonError::into_inner);
        a + b
    }

    /// Rank inversion: `lock-order` must fire on the second acquisition.
    pub fn inverted(&self) -> u32 {
        let b = *self.second.lock().unwrap_or_else(PoisonError::into_inner);
        let a = *self.first.lock().unwrap_or_else(PoisonError::into_inner);
        a + b
    }
}

/// One declared lock, poisoning recovered: quiet.
/// (Wall-clock reads are clippy's concern, not the lexer's.)
pub fn first_only(s: &Sink) -> u32 {
    *s.first.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Registered metric uses: quiet.
pub fn counts() {
    counter!("obs.registered_total");
    stage!("obs.good_stage");
}

/// Malformed name: `metric-name` must fire (and suppress the registry
/// check for this site).
pub fn misnamed() {
    counter!("badName");
}

/// Unregistered name: `metric-registry` must fire.
pub fn unregistered() {
    counter!("obs.unregistered_total");
}

/// Registered as a gauge: `metric-registry` must flag the kind
/// mismatch.
pub fn mismatched() {
    counter!("obs.wrong_kind_total");
}
