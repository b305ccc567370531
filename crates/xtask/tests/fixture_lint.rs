//! End-to-end fixture tests for `cargo xtask lint`: run the real binary
//! against seeded fixture workspaces under `tests/fixtures/` and assert
//! every deliberately planted violation is detected (and nothing else).
//!
//! The seeded fixture carries at least one true positive and one
//! false-positive guard per rule family, plus its own `LOCK_ORDER.txt` /
//! `OBS_registry.txt` manifests. The bans clippy enforces are proved on
//! their own fixture by `tests/clippy_gate.rs`.

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

    // One expectation per planted violation: `file:line: [rule]`.
    let expected = [
        (
            "src/lib.rs:9: [nan-ordering]",
            "partial_cmp().unwrap() sort",
        ),
        ("src/lib.rs:13: [db-linear]", "dB × linear multiply"),
        ("src/lib.rs:20: [macro-body]", "println! in a macro body"),
        ("src/lib.rs:22: [macro-body]", "panic! in a macro body"),
        ("src/lib.rs:24: [macro-body]", "unwrap in a macro body"),
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

    // Exactly the planted violations — the binary entry point,
    // #[cfg(test)] modules, recovered poisoning, in-order lock
    // acquisitions, buffer pushes, registered metrics and panics or
    // prints outside macro bodies (clippy's ground) must stay quiet.
    assert!(
        stdout.contains(&format!("xtask lint: {} violation(s)", expected.len())),
        "exactly the {} seeded violations should fire:\n{stdout}",
        expected.len()
    );
    assert!(
        !stdout.contains("bin/tool.rs"),
        "binary entry points are exempt:\n{stdout}"
    );
    for quiet in [
        "src/lib.rs:5:",             // plain unwrap: clippy's unwrap_used
        "src/lib.rs:34:",            // plain eprintln!: clippy's print_stderr
        "src/lib.rs:41:",            // macro body in a test module
        "crates/par/src/lib.rs:20:", // recovered poisoning
        "crates/par/src/lib.rs:39:", // in-order locks (a then b)
        "crates/par/src/lib.rs:57:", // buffer pushes
        "crates/obs/src/lib.rs:23:", // in-order locks (first then second)
        "crates/obs/src/lib.rs:39:", // one declared, recovered lock
        "crates/obs/src/lib.rs:44:", // registered counter
        "crates/obs/src/lib.rs:45:", // registered stage
    ] {
        assert!(
            !stdout.contains(quiet),
            "site `{quiet}` must stay quiet:\n{stdout}"
        );
    }
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
    assert!(stdout.contains("\"total\": 13"), "{stdout}");
    assert!(stdout.contains("\"macro-body\": 3"), "{stdout}");
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
    assert_eq!(findings, Some(13), "{stdout}");
}

#[test]
fn seeded_json_to_file_keeps_human_output() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("seeded-lint.json");
    let out = run_lint("seeded", &["--json", path.to_str().expect("utf-8 tmpdir")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("xtask lint: 13 violation(s)"),
        "human output stays when JSON goes to a file:\n{stdout}"
    );
    let json = std::fs::read_to_string(&path).expect("report file written");
    assert!(json.contains("\"total\": 13"), "{json}");
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
        "nan-ordering",
        "db-linear",
        "macro-body",
        "lock-order",
        "lock-unwrap",
        "metric-name",
        "metric-registry",
    ] {
        assert!(stdout.contains(rule), "missing rule `{rule}`:\n{stdout}");
    }
}
