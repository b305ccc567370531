//! End-to-end fixture tests for `cargo xtask lint`: run the real binary
//! against seeded fixture workspaces under `tests/fixtures/` and assert
//! every deliberately planted violation is detected (and nothing else).
//!
//! The seeded fixture carries at least one true positive, one annotated
//! escape hatch and one false-positive guard per rule family, plus its
//! own `LOCK_ORDER.txt` / `OBS_registry.txt` manifests; the expectation
//! list below is the port-parity proof that the token-stream engine
//! still catches everything the original line-oriented scanner did.

use std::path::Path;
use std::process::{Command, Output};

use mpdf_obs::json::{parse_document, Json};

fn fixture_root(fixture: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture)
}

fn run_lint(fixture: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(fixture_root(fixture))
        .args(extra)
        .output()
        .expect("xtask binary runs")
}

#[test]
fn seeded_violations_are_each_detected() {
    let out = run_lint("seeded", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded fixture must fail the gate with the findings exit code:\n{stdout}"
    );

    // One expectation per planted violation: `file:line: [rule]`. The
    // first six files repeat the original scanner's seeds (port
    // parity); core/obs/par carry the new analysis families.
    let expected = [
        (
            "src/lib.rs:1: [crate-root-attrs]",
            "missing forbid(unsafe_code)",
        ),
        (
            "src/lib.rs:1: [crate-root-attrs]",
            "missing warn(missing_docs)",
        ),
        ("src/lib.rs:5: [no-panic]", "unwrap in library code"),
        (
            "src/lib.rs:9: [nan-ordering]",
            "partial_cmp().unwrap() sort",
        ),
        ("src/lib.rs:13: [db-linear]", "dB × linear multiply"),
        (
            "src/lib.rs:22: [no-raw-stderr]",
            "eprintln! in library code",
        ),
        (
            "crates/rfmath/src/lib.rs:8: [lossy-cast]",
            "undocumented f64→f32 truncation",
        ),
        (
            "crates/wifi/src/lib.rs:10: [no-panic]",
            "expect in the fault path",
        ),
        (
            "crates/session/src/lib.rs:11: [no-panic]",
            "expect on the checkpoint header",
        ),
        (
            "crates/session/src/lib.rs:24: [lossy-cast]",
            "length-field narrowing in the session kernel crate",
        ),
        // Determinism taint family.
        (
            "crates/core/src/lib.rs:14: [det-unordered]",
            "HashMap in a result crate",
        ),
        (
            "crates/core/src/lib.rs:20: [det-wall-clock]",
            "Instant::now in a result crate",
        ),
        (
            "crates/core/src/lib.rs:26: [det-thread-id]",
            "thread::current in a result crate",
        ),
        (
            "crates/core/src/lib.rs:31: [det-unseeded-rng]",
            "rand::random in a result crate",
        ),
        // Concurrency audit family.
        (
            "crates/par/src/lib.rs:14: [lock-unwrap]",
            "lock().unwrap() in library code",
        ),
        (
            "crates/par/src/lib.rs:46: [lock-order]",
            "par.a after par.b rank inversion",
        ),
        (
            "crates/par/src/lib.rs:52: [lock-order]",
            "undeclared lock par.extra",
        ),
        (
            "crates/par/src/lib.rs:57: [chan-discipline]",
            "undocumented channel push",
        ),
        (
            "crates/obs/src/lib.rs:31: [lock-order]",
            "obs.first after obs.second rank inversion",
        ),
        // Metrics/obs contract family.
        (
            "crates/obs/src/lib.rs:51: [metric-name]",
            "non-snake-case metric name",
        ),
        (
            "crates/obs/src/lib.rs:56: [metric-registry]",
            "unregistered metric",
        ),
        (
            "crates/obs/src/lib.rs:62: [metric-registry]",
            "counter used where a gauge is registered",
        ),
        (
            "OBS_registry.txt:7: [metric-registry]",
            "stale registry entry",
        ),
    ];
    for (needle, what) in expected {
        assert!(
            stdout.contains(needle),
            "expected {what} at `{needle}`; got:\n{stdout}"
        );
    }

    // Exactly the planted violations — escape-hatched sites, the binary
    // entry point, #[cfg(test)] modules, in-order lock acquisitions,
    // documented sends, registered metrics and obs wall-clock reads
    // must all stay quiet. (crate-root-attrs fires once per missing
    // attribute; the lock-unwrap claim keeps no-panic silent on the
    // same token.)
    assert!(
        stdout.contains(&format!("xtask lint: {} violation(s)", expected.len())),
        "exactly the {} seeded violations should fire:\n{stdout}",
        expected.len()
    );
    assert!(
        !stdout.contains("bin/tool.rs"),
        "binary entry points are exempt:\n{stdout}"
    );
    for suppressed in [
        "src/lib.rs:18:",                // allow(no-panic)
        "src/lib.rs:27:",                // allow(no-raw-stderr)
        "crates/par/src/lib.rs:20:",     // allow(lock-unwrap)
        "crates/par/src/lib.rs:39:",     // in-order locks (a then b)
        "crates/par/src/lib.rs:65:",     // documented push
        "crates/par/src/lib.rs:71:",     // allow(chan-discipline)
        "crates/par/src/lib.rs:76:",     // Vec push false-positive guard
        "crates/session/src/lib.rs:30:", // allow(lossy-cast)
        "crates/core/src/lib.rs:37:",    // allow(det-wall-clock)
        "crates/core/src/lib.rs:43:",    // string/BTreeMap guards
        "crates/obs/src/lib.rs:23:",     // in-order locks (first then second)
        "crates/obs/src/lib.rs:40:",     // obs Instant::now det guard
        "crates/obs/src/lib.rs:44:",     // registered counter
        "crates/obs/src/lib.rs:45:",     // registered stage
        "crates/obs/src/lib.rs:68:",     // allow(metric-registry)
    ] {
        assert!(
            !stdout.contains(suppressed),
            "site `{suppressed}` must stay quiet:\n{stdout}"
        );
    }
    // no-panic must not double-report the claimed lock-unwrap token.
    assert!(
        !stdout.contains("crates/par/src/lib.rs:14: [no-panic]"),
        "lock-unwrap claims its token; no-panic must stay silent:\n{stdout}"
    );
}

#[test]
fn seeded_json_report_matches_findings() {
    let out = run_lint("seeded", &["--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    // --json with no path replaces the human output entirely.
    assert!(
        !stdout.contains("violation(s)"),
        "human summary must be suppressed in JSON mode:\n{stdout}"
    );
    assert!(stdout.contains("\"version\": 1"), "{stdout}");
    assert!(stdout.contains("\"total\": 23"), "{stdout}");
    assert!(stdout.contains("\"no-panic\": 3"), "{stdout}");
    assert!(stdout.contains("\"lossy-cast\": 2"), "{stdout}");
    assert!(stdout.contains("\"lock-order\": 3"), "{stdout}");
    assert!(stdout.contains("\"metric-registry\": 3"), "{stdout}");
    // Paths are forward-slash even on Windows.
    assert!(
        stdout.contains("\"file\": \"crates/par/src/lib.rs\""),
        "{stdout}"
    );
    let Ok(Json::Obj(fields)) = parse_document(&stdout) else {
        panic!("report is not a JSON object:\n{stdout}");
    };
    let findings = fields.iter().find_map(|(k, v)| match v {
        Json::Arr(items) if k == "findings" => Some(items.len()),
        _ => None,
    });
    assert_eq!(findings, Some(23), "{stdout}");
}

#[test]
fn seeded_json_to_file_keeps_human_output() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeded-lint.json");
    let out = run_lint("seeded", &["--json", path.to_str().expect("utf-8 tmpdir")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("xtask lint: 23 violation(s)"),
        "human output stays when JSON goes to a file:\n{stdout}"
    );
    let json = std::fs::read_to_string(&path).expect("report file written");
    assert!(json.contains("\"total\": 23"), "{json}");
    assert!(json.ends_with("}\n"), "report is a complete document");
}

#[test]
fn clean_fixture_passes() {
    let out = run_lint("clean", &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean fixture must pass:\n{stdout}");
    assert!(stdout.contains("xtask lint: clean"), "{stdout}");

    let json_out = run_lint("clean", &["--json"]);
    let json = String::from_utf8_lossy(&json_out.stdout);
    assert!(json_out.status.success(), "{json}");
    assert!(json.contains("\"total\": 0"), "{json}");
    assert!(json.contains("\"findings\": []"), "{json}");
}

#[test]
fn usage_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--bogus"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(2));
    let missing_root = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(missing_root.status.code(), Some(2));
}

#[test]
fn rules_subcommand_lists_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("rules")
        .output()
        .expect("xtask binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    for rule in [
        "no-panic",
        "nan-ordering",
        "lossy-cast",
        "crate-root-attrs",
        "db-linear",
        "no-raw-stderr",
        "det-unordered",
        "det-wall-clock",
        "det-thread-id",
        "det-unseeded-rng",
        "lock-order",
        "lock-unwrap",
        "chan-discipline",
        "metric-name",
        "metric-registry",
    ] {
        assert!(stdout.contains(rule), "missing rule `{rule}`:\n{stdout}");
    }
}
