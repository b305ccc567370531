//! Fixture parallel-layer crate: concurrency-audit seeds — a
//! `lock-unwrap` (reported once: clippy's `unwrap_used` is not the
//! lexer's business), `lock-order` rank inversions against the fixture
//! `LOCK_ORDER.txt`, and the quiet cases: recovered poisoning,
//! acquisitions in manifest order, and pushes onto plain buffers (no
//! channel declarations exist any more).
//!

use std::sync::{Mutex, PoisonError};

/// `lock-unwrap` must fire here, exactly once for this line.
///
pub fn locks_carelessly(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}

/// Recovered poisoning: quiet.
pub fn locks_deliberately(m: &Mutex<u32>) -> u32 {
    // There is no escape hatch; the fix is to recover.
    *m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Ranked locks plus two plain buffers, mirroring the real pool.
pub struct Pool {
    /// Declared `lock par.a` (ranked before `b`).
    pub a: Mutex<u32>,
    /// Declared `lock par.b`.
    pub b: Mutex<u32>,
    /// Plain buffer.
    pub jobs: Vec<u32>,
    /// Plain buffer.
    pub scratch: Vec<u32>,
}

impl Pool {
    /// Acquisitions in manifest order: quiet.
    pub fn in_order(&self) -> u32 {
        let a = *self.a.lock().unwrap_or_else(PoisonError::into_inner);
        let b = *self.b.lock().unwrap_or_else(PoisonError::into_inner);
        a + b
    }

    /// Rank inversion: `lock-order` must fire on the second acquisition.
    pub fn inverted(&self) -> u32 {
        let b = *self.b.lock().unwrap_or_else(PoisonError::into_inner);
        let a = *self.a.lock().unwrap_or_else(PoisonError::into_inner);
        a + b
    }

    /// Undeclared lock: `lock-order` must fire.
    pub fn rogue(&self, extra: &Mutex<u32>) -> u32 {
        *extra.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes are not lock acquisitions: quiet.
    pub fn feed(&mut self, job: u32) {
        self.jobs.push(job);
        self.scratch.push(job);
    }
}
