//! Seeded violations of the bans that clippy enforces for the workspace:
//! one line per banned pattern. A line that must fire ends in
//! `// fires: <lint>, …`; `tests/clippy_gate.rs` runs `cargo clippy`
//! here and compares its findings with these markers line for line.
//!
//! The configuration is the workspace's own: clippy finds the root
//! `clippy.toml` by walking up from this package, the test pins this
//! manifest's `[workspace.lints]` equal to the root's, and the cast lints
//! below are the kernel crates' crate-root attribute.

#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

/// Randomized iteration order and per-process hashing.
pub fn unordered() -> usize {
    let m = std::collections::HashMap::<u8, u8>::new(); // fires: clippy::disallowed_types
    let s = std::collections::HashSet::<u8>::new(); // fires: clippy::disallowed_types
    let r = std::hash::RandomState::new(); // fires: clippy::disallowed_types
    let h = std::hash::DefaultHasher::new(); // fires: clippy::disallowed_types
    let _hashing = (r, h);
    m.len() + s.len()
}

/// Wall-clock reads.
pub fn wall_clock() -> bool {
    let t = std::time::Instant::now(); // fires: clippy::disallowed_methods, clippy::disallowed_types
    let s = std::time::SystemTime::now(); // fires: clippy::disallowed_methods, clippy::disallowed_types
    let e = std::time::UNIX_EPOCH.elapsed(); // fires: clippy::disallowed_methods
    let _readings = (t, s);
    e.is_ok()
}

/// Thread identity and ambient parallelism.
pub fn thread_identity(id: std::thread::ThreadId) -> bool { // fires: clippy::disallowed_types
    let me = std::thread::current(); // fires: clippy::disallowed_methods
    let n = std::thread::available_parallelism(); // fires: clippy::disallowed_methods
    me.id() == id && n.is_ok()
}

/// Panics in library code.
pub fn panics(x: Option<u8>, y: Result<u8, ()>, which: u8) -> u8 {
    match which {
        0 => x.unwrap(), // fires: clippy::unwrap_used
        1 => y.expect("seeded"), // fires: clippy::expect_used
        2 => panic!("seeded"), // fires: clippy::panic
        3 => todo!(), // fires: clippy::todo
        _ => unimplemented!(), // fires: clippy::unimplemented
    }
}

/// Library code writing the process streams.
pub fn prints(x: u8) -> u8 {
    println!("seeded"); // fires: clippy::print_stdout
    eprintln!("seeded"); // fires: clippy::print_stderr
    dbg!(x) // fires: clippy::dbg_macro
}

/// Lossy casts in a numeric kernel.
pub fn casts(x: f64, n: usize) -> (f32, u32, usize) {
    let a = x as f32; // fires: clippy::cast_possible_truncation
    let b = n as u32; // fires: clippy::cast_possible_truncation
    let c = x.floor() as usize; // fires: clippy::cast_possible_truncation, clippy::cast_sign_loss
    (a, b, c)
}
