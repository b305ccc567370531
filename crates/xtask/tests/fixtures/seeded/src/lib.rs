//! Fixture umbrella crate: seeds for `nan-ordering`, `db-linear` and
//! `macro-body`. Clippy owns the panic and print bans outside macros.

pub fn panics(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn nan_unsafe(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn unit_confused(gain_db: f64, noise_power: f64) -> f64 {
    gain_db * noise_power
}

/// `macro-body` must fire on each of the three calls below: clippy's
/// `print_stdout`, `panic` and `unwrap_used` do not see them expanded.
macro_rules! seeded {
    ($x:expr) => {{
        println!("expanding");
        if $x.is_none() {
            panic!("seeded");
        }
        $x.unwrap()
    }};
}

pub fn expands(x: Option<u32>) -> u32 {
    seeded!(x)
}

/// Outside a macro body the print is clippy's to report: quiet here.
pub fn prints_status() {
    eprintln!("calibrating");
}

#[cfg(test)]
mod tests {
    macro_rules! test_only {
        ($x:expr) => {
            $x.unwrap()
        };
    }

    #[test]
    fn test_macros_may_panic() {
        assert_eq!(test_only!(Some(1)), 1);
    }
}
