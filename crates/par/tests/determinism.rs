//! Regression tests for the determinism contract that the
//! `#[expect(clippy::disallowed_methods)]` on `available_threads` in
//! `src/lib.rs` relies on: the pool's output is a
//! pure, input-order function of `(items, f)` — bit-identical no matter
//! how many worker threads execute, including the
//! `available_parallelism`-derived default (`threads = 0`).
//!
//! If a future change makes job results depend on pop order, thread
//! identity or ambient parallelism, these tests trip before any
//! campaign-level bit-identity test has to.

use mpdf_par::{map_indexed, resolve_threads, try_map_indexed};

/// Uneven, float-heavy per-item work: enough accumulation that any
/// reduction-order change would show up in the low mantissa bits.
fn simulate(i: usize, x: &f64) -> f64 {
    let rounds = 64 + (i % 7) * 96;
    let mut acc = *x;
    for k in 0..rounds {
        acc = (acc * 1.000_000_11 + (k as f64) * 1e-9)
            .sin()
            .mul_add(0.5, acc);
    }
    acc
}

fn inputs() -> Vec<f64> {
    (0..257).map(|i| (i as f64) * 0.125 - 16.0).collect()
}

#[test]
fn results_are_bit_identical_across_thread_counts() {
    let items = inputs();
    let serial = map_indexed(1, &items, simulate);
    for threads in [0, 2, 3, 4, 8] {
        let parallel = map_indexed(threads, &items, simulate);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.to_bits(),
                p.to_bits(),
                "item {i} diverged at threads={threads}"
            );
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let items = inputs();
    let a = map_indexed(4, &items, simulate);
    let b = map_indexed(4, &items, simulate);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&b));
}

#[test]
fn fallible_map_reports_the_input_order_error_regardless_of_threads() {
    let items: Vec<u32> = (0..200).collect();
    let f = |_: usize, x: &u32| {
        if *x % 31 == 5 {
            Err(*x)
        } else {
            Ok(*x * 2)
        }
    };
    // Lowest failing item is 5 in input order; later failures (36, 67,
    // …) may also evaluate but must never win the race.
    for threads in [1, 2, 4, 8] {
        assert_eq!(try_map_indexed(threads, &items, f), Err(5));
    }
}

#[test]
fn resolve_threads_only_defaults_when_asked() {
    assert!(resolve_threads(0) >= 1);
    assert_eq!(resolve_threads(3), 3);
}
