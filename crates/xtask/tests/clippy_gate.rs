//! The bans clippy enforces for the workspace, proved on seeded code.
//!
//! `tests/fixtures/clippy` is a package with a workspace of its own that
//! holds one line per banned pattern, each marked with the lints that
//! must fire on it. It is checked under the repository's real
//! configuration: clippy reaches the root `clippy.toml` by walking up
//! from the fixture, the fixture's `[workspace.lints]` is pinned equal to
//! the root's, and its cast attribute equals the kernel crates'. The
//! last test pins that every workspace member inherits that lint table.
//!
//! These tests need `cargo clippy`; without it they fail, they never
//! skip.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use mpdf_obs::json::{parse_document, Json};

/// The crates whose roots carry the `cast_*` lints.
const KERNEL_CRATES: [&str; 4] = ["rfmath", "music", "propagation", "session"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clippy")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `key = value` lines of a TOML table, comments and blanks
/// dropped, sorted.
fn toml_table(text: &str, header: &str) -> Vec<String> {
    let mut lines: Vec<String> = text
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

/// The first `#![warn(…)]` attribute of a crate root, whitespace dropped.
fn warn_attribute(source: &str) -> String {
    let start = source.find("#![warn(").expect("a #![warn(…)] attribute");
    let end = start + source[start..].find(")]").expect("a closed attribute") + 2;
    source[start..end].split_whitespace().collect()
}

fn field<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn string(value: Option<&Json>) -> Option<&str> {
    match value {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

/// Line → lints, from the fixture's `// fires: …` markers.
fn expected_findings(source: &str) -> BTreeMap<u64, Vec<String>> {
    let mut out = BTreeMap::new();
    for (idx, line) in source.lines().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        if let Some((_, lints)) = line.split_once("// fires: ") {
            let mut lints: Vec<String> = lints.split(',').map(|l| l.trim().to_owned()).collect();
            lints.sort();
            out.insert(idx as u64 + 1, lints);
        }
    }
    out
}

/// Line → lints, from `cargo clippy --message-format=json` on the fixture.
fn clippy_findings() -> BTreeMap<u64, Vec<String>> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .arg("--manifest-path")
        .arg(fixture().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixture"))
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "`cargo clippy` must run on the fixture (is the clippy component installed?):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut found: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let doc = parse_document(line).unwrap_or_else(|e| panic!("bad JSON ({e}): {line}"));
        if string(field(&doc, "reason")) != Some("compiler-message") {
            continue;
        }
        let message = field(&doc, "message").expect("a message");
        let Some(code) = string(field(message, "code").and_then(|c| field(c, "code"))) else {
            continue;
        };
        let Some(Json::Arr(spans)) = field(message, "spans") else {
            panic!("diagnostic without spans: {line}");
        };
        let Some(Json::Num(at)) = spans.first().and_then(|s| field(s, "line_start")) else {
            panic!("diagnostic without a line: {line}");
        };
        let lints = found.entry(*at as u64).or_default();
        if !lints.iter().any(|l| l == code) {
            lints.push(code.to_owned());
            lints.sort();
        }
    }
    found
}

#[test]
fn every_banned_pattern_fires_at_its_seeded_line() {
    let source = read(&fixture().join("src/lib.rs"));
    let expected = expected_findings(&source);
    let covered: Vec<&String> = expected.values().flatten().collect();
    for lint in [
        "clippy::disallowed_types",
        "clippy::disallowed_methods",
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::todo",
        "clippy::unimplemented",
        "clippy::print_stdout",
        "clippy::print_stderr",
        "clippy::dbg_macro",
        "clippy::cast_possible_truncation",
        "clippy::cast_sign_loss",
    ] {
        assert!(
            covered.iter().any(|c| *c == lint),
            "no seeded line for {lint}"
        );
    }
    assert_eq!(clippy_findings(), expected);
}

#[test]
fn the_fixture_runs_under_the_workspace_configuration() {
    let root = repo_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    let fixture_manifest = read(&fixture().join("Cargo.toml"));
    for table in ["[workspace.lints.rust]", "[workspace.lints.clippy]"] {
        let want = toml_table(&root_manifest, table);
        assert!(!want.is_empty(), "root manifest lacks {table}");
        assert_eq!(toml_table(&fixture_manifest, table), want, "{table}");
    }
    assert_eq!(
        toml_table(&fixture_manifest, "[lints]"),
        ["workspace = true"]
    );

    let casts = warn_attribute(&read(&fixture().join("src/lib.rs")));
    assert!(casts.contains("clippy::cast_possible_wrap"), "{casts}");
    for name in KERNEL_CRATES {
        let lib = root.join("crates").join(name).join("src/lib.rs");
        assert_eq!(warn_attribute(&read(&lib)), casts, "{}", lib.display());
    }

    // Clippy reads the nearest clippy.toml above the package: nothing
    // between the fixture and the root may shadow the root's.
    assert!(root.join("clippy.toml").is_file());
    let root = root.canonicalize().expect("repo root");
    let mut dir = fixture().canonicalize().expect("fixture dir");
    while dir != root {
        for name in ["clippy.toml", ".clippy.toml"] {
            assert!(
                !dir.join(name).exists(),
                "{} shadows the root clippy.toml",
                dir.join(name).display()
            );
        }
        assert!(dir.pop(), "the fixture lies inside the repository");
    }
}

#[test]
fn every_member_inherits_the_workspace_lints_and_forbids_unsafe_code() {
    let root = repo_root();
    let mut packages = vec![root.clone()];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    packages.extend(crates);
    assert!(packages.len() > 10, "{packages:?}");
    for package in packages {
        let manifest = read(&package.join("Cargo.toml"));
        assert_eq!(
            toml_table(&manifest, "[lints]"),
            ["workspace = true"],
            "{} must inherit [workspace.lints]",
            package.display()
        );
        // `unsafe_code` is only `deny` in the workspace table (a
        // command-line forbid could not be relaxed for mpdf-obs's
        // opt-in allocator), so each crate root forbids it.
        for root_file in ["src/lib.rs", "src/main.rs"] {
            let path = package.join(root_file);
            if path.is_file() {
                assert!(
                    read(&path)
                        .lines()
                        .any(|l| l.starts_with("#![") && l.contains("forbid(unsafe_code)")),
                    "{} must forbid unsafe code",
                    path.display()
                );
            }
        }
    }
}
