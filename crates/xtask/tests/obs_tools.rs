//! End-to-end tests for the observability report tools: drives the real
//! `xtask` binary (`trace-report`, `obs-diff`) against fixture files,
//! pinning output determinism and the exit-code contract (0 clean,
//! 1 findings, 2 usage/I/O errors) the CI jobs rely on.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use mpdf_obs::json::parse_document;

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawn xtask")
}

/// Scratch file with a unique name; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn write(name: &str, contents: &str) -> Scratch {
        let path =
            std::env::temp_dir().join(format!("xtask_obs_tools_{}_{name}", std::process::id()));
        fs::write(&path, contents).expect("write fixture");
        Scratch(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// A well-formed two-thread trace: `eval.window` wrapping `music.scan`
/// on thread 1 (scan dominates), a lone `core.mu_k` on thread 2.
const TRACE: &str = "\
{\"ev\":\"enter\",\"span\":\"eval.window\",\"depth\":1,\"thread\":1,\"ts_ns\":0}\n\
{\"ev\":\"enter\",\"span\":\"music.scan\",\"parent\":\"eval.window\",\"depth\":2,\"thread\":1,\"ts_ns\":100}\n\
{\"ev\":\"enter\",\"span\":\"core.mu_k\",\"depth\":1,\"thread\":2,\"ts_ns\":50}\n\
{\"ev\":\"exit\",\"span\":\"core.mu_k\",\"depth\":1,\"thread\":2,\"ts_ns\":250,\"elapsed_ns\":200}\n\
{\"ev\":\"exit\",\"span\":\"music.scan\",\"parent\":\"eval.window\",\"depth\":2,\"thread\":1,\"ts_ns\":800,\"elapsed_ns\":700}\n\
{\"ev\":\"exit\",\"span\":\"eval.window\",\"depth\":1,\"thread\":1,\"ts_ns\":1000,\"elapsed_ns\":1000}\n";

#[test]
fn trace_report_prints_a_deterministic_hotspot_table() {
    let trace = Scratch::write("clean.ndjson", TRACE);
    let first = run(&["trace-report", trace.path()]);
    assert!(first.status.success(), "{first:?}");
    // Clean trace: no warning on stderr.
    assert!(first.stderr.is_empty(), "{first:?}");
    let stdout = String::from_utf8(first.stdout).expect("utf-8");
    assert!(stdout.contains("hotspots"), "{stdout}");
    assert!(stdout.contains("critical path"), "{stdout}");
    // Ranked by self time: scan 700 > window 300 > mu_k 200.
    let scan = stdout.find("music.scan").expect("scan row");
    let window = stdout.find("eval.window").expect("window row");
    let mu_k = stdout.find("core.mu_k").expect("mu_k row");
    assert!(scan < window && window < mu_k, "{stdout}");
    // Byte-identical on a second run.
    let second = run(&["trace-report", trace.path()]);
    assert_eq!(stdout.as_bytes(), second.stdout.as_slice());
}

#[test]
fn trace_report_json_and_collapse_outputs() {
    let trace = Scratch::write("json.ndjson", TRACE);
    let collapse = Scratch::write("collapsed.txt", "");
    let out = run(&[
        "trace-report",
        trace.path(),
        "--json",
        "--top",
        "2",
        "--collapse",
        collapse.path(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("\"hotspots\""), "{stdout}");
    assert!(stdout.contains("\"critical_path\""), "{stdout}");
    // --top 2 truncates the third stage out of the hotspot list.
    assert!(stdout.matches("\"stage\"").count() >= 2, "{stdout}");
    assert!(!stdout.contains("\"stage\": \"core.mu_k\""), "{stdout}");
    assert!(parse_document(&stdout).is_ok(), "{stdout}");
    let stacks = fs::read_to_string(collapse.0.as_path()).expect("collapse file");
    assert!(stacks.contains("eval.window;music.scan 700"), "{stacks}");
    assert!(stacks.contains("core.mu_k 200"), "{stacks}");
}

#[test]
fn trace_report_warns_on_torn_traces_and_strict_gates() {
    let torn = format!("{TRACE}{{\"ev\":\"exit\",\"span\":\"mus"); // torn final line
    let trace = Scratch::write("torn.ndjson", &torn);
    let lax = run(&["trace-report", trace.path()]);
    assert!(lax.status.success(), "incomplete traces report, not fail");
    let stderr = String::from_utf8(lax.stderr).expect("utf-8");
    assert!(stderr.contains("incomplete trace"), "{stderr}");
    assert!(stderr.contains("1 malformed line(s)"), "{stderr}");
    let strict = run(&["trace-report", trace.path(), "--strict"]);
    assert_eq!(strict.status.code(), Some(1), "{strict:?}");
}

#[test]
fn trace_report_usage_and_io_errors_exit_2() {
    assert_eq!(run(&["trace-report"]).status.code(), Some(2));
    assert_eq!(
        run(&["trace-report", "/no/such/file.ndjson"]).status.code(),
        Some(2)
    );
    let trace = Scratch::write("args.ndjson", TRACE);
    assert_eq!(
        run(&["trace-report", trace.path(), "--top", "zero"])
            .status
            .code(),
        Some(2)
    );
    assert_eq!(
        run(&["trace-report", trace.path(), "--bogus"])
            .status
            .code(),
        Some(2)
    );
}

const OLD_METRICS: &str = r#"{
  "counters": { "eval.windows_total": 128, "obs.alloc.bytes_total": 4096 },
  "gauges": { "par.queue_depth_max": 8 },
  "histograms": {
    "eval.window": {"count": 128, "sum_ns": 1280000, "min_ns": 5000,
                    "max_ns": 30000, "p50_ns": 9000.0, "p95_ns": 21000.0, "p99_ns": 28000.0}
  }
}"#;

#[test]
fn obs_diff_passes_within_budgets() {
    let old = Scratch::write("old_ok.json", OLD_METRICS);
    let new = Scratch::write("new_ok.json", OLD_METRICS);
    let budgets = Scratch::write(
        "budgets_ok.txt",
        "counter eval.windows_total max 200\n\
         counter obs.alloc.bytes_total grow 50\n\
         gauge par.queue_depth_max max 64\n\
         hist eval.window p95 max 1000000\n\
         counter not.collected_yet grow 10\n",
    );
    let out = run(&[
        "obs-diff",
        old.path(),
        new.path(),
        "--budgets",
        budgets.path(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("0 over budget"), "{stdout}");
    assert!(stdout.contains("1 skipped"), "{stdout}");
}

#[test]
fn obs_diff_exits_one_on_a_seeded_violation() {
    let old = Scratch::write("old_bad.json", OLD_METRICS);
    // Allocation volume doubles past its growth budget.
    let new = Scratch::write(
        "new_bad.json",
        &OLD_METRICS.replace(
            "\"obs.alloc.bytes_total\": 4096",
            "\"obs.alloc.bytes_total\": 9000",
        ),
    );
    let budgets = Scratch::write(
        "budgets_bad.txt",
        "counter obs.alloc.bytes_total grow 100\n\
         counter eval.windows_total max 200\n",
    );
    let out = run(&[
        "obs-diff",
        old.path(),
        new.path(),
        "--budgets",
        budgets.path(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("OVER BUDGET"), "{stdout}");
    assert!(stdout.contains("obs.alloc.bytes_total"), "{stdout}");
    assert!(stdout.contains("1 over budget, 1 within"), "{stdout}");
}

#[test]
fn obs_diff_usage_and_parse_errors_exit_2() {
    let old = Scratch::write("old_use.json", OLD_METRICS);
    let new = Scratch::write("new_use.json", OLD_METRICS);
    // Missing --budgets entirely.
    assert_eq!(
        run(&["obs-diff", old.path(), new.path()]).status.code(),
        Some(2)
    );
    // Malformed manifest line.
    let bad = Scratch::write("budgets_use.txt", "counter x min 5\n");
    let out = run(&["obs-diff", old.path(), new.path(), "--budgets", bad.path()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("line 1"), "{stderr}");
    // Unreadable snapshot.
    assert_eq!(
        run(&[
            "obs-diff",
            "/no/such.json",
            new.path(),
            "--budgets",
            bad.path()
        ])
        .status
        .code(),
        Some(2)
    );
}
