//! Workspace automation entry point, invoked as `cargo xtask <command>`.
//!
//! The binary is intentionally std-only so it builds and runs without any
//! network access to a crate registry — it is part of the tier-1 gate and
//! must work in the fully offline build container.
//!
//! Commands:
//!
//! - `cargo xtask lint [--root <path>] [--json [<path>]]` — run the
//!   repo-specific static analysis suite over all first-party source
//!   (see [`xtask::lint`] for the engine and [`xtask::report::Rule`]
//!   for the rule table). Exits 1 if any violation is found, 2 on
//!   usage or I/O errors. With `--json` and no path the machine report
//!   replaces the human output on stdout; with `--json <path>` the
//!   report is written to the file and the human lines still print.
//! - `cargo xtask rules` — print the rule names and one-line policies.
//! - `cargo xtask bench-diff <old.json> <new.json> [--threshold <pct>]`
//!   — compare two `BENCH_*.json` reports by benchmark name and exit 1
//!   if any median is worse by more than the threshold (default 25%);
//!   a bench whose interquartile range exceeds the threshold is
//!   reported unresolved and does not fail. CI's bench job diffs freshly
//!   generated numbers against the committed reference so hot-path
//!   regressions fail loudly.
//! - `cargo xtask trace-report <trace.ndjson> [--top <n>] [--json]
//!   [--collapse <path>] [--strict]` — reconstruct the span trees of a
//!   `repro --trace` capture and print the hotspot table and critical
//!   path (or the machine report with `--json`). `--collapse` writes
//!   flamegraph-compatible collapsed stacks. Incomplete traces warn on
//!   stderr; `--strict` turns those warnings into exit 1.
//! - `cargo xtask obs-diff <old.json> <new.json> --budgets <manifest>`
//!   — gate two `OBS_metrics.json` snapshots against the per-metric
//!   latency/allocation budgets in `OBS_budgets.txt`; exit 1 on any
//!   violated budget, mirroring `bench-diff` in CI.
//! - `cargo xtask results --check | --write` — build the release
//!   `repro`, run the exhibits of record ([`xtask::results::EXHIBITS`])
//!   and diff their output against `results/` (exit 1 on any difference,
//!   or on a number in a Measured column of EXPERIMENTS.md that
//!   `results/all.txt` does not print) or rewrite `results/` with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use xtask::benchdiff::{self, Verdict};
use xtask::lint;
use xtask::obsdiff;
use xtask::report::{self, Rule};
use xtask::results;
use xtask::tracereport;

/// Exit code for violations found (distinct from usage/I/O errors).
const EXIT_FINDINGS: u8 = 1;
/// Exit code for usage or I/O errors.
const EXIT_ERROR: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("rules") => {
            print_rules();
            ExitCode::SUCCESS
        }
        Some("bench-diff") => run_bench_diff(&args[1..]),
        Some("trace-report") => run_trace_report(&args[1..]),
        Some("obs-diff") => run_obs_diff(&args[1..]),
        Some("results") => run_results(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask <lint [--root <path>] [--json [<path>]] | rules | \
                 bench-diff <old.json> <new.json> [--threshold <pct>] | \
                 trace-report <trace.ndjson> [--top <n>] [--json] [--collapse <path>] \
                 [--strict] | \
                 obs-diff <old.json> <new.json> --budgets <manifest> | \
                 results --check | --write>"
            );
            ExitCode::from(EXIT_ERROR)
        }
    }
}

fn print_rules() {
    println!("cargo xtask lint enforces:");
    for rule in Rule::all() {
        println!("  {:<18} {}", rule.name(), rule.policy());
    }
    println!("escape hatch: `// lint: allow(<rule>) — <reason>` on or above the line");
}

/// Parsed `lint` subcommand options.
struct LintOpts {
    root: PathBuf,
    /// `None` = no JSON; `Some(None)` = JSON to stdout (replaces human
    /// output); `Some(Some(path))` = JSON to file, human output kept.
    json: Option<Option<PathBuf>>,
}

fn run_lint(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let violations = match lint::lint_workspace(&opts.root) {
        Ok(violations) => violations,
        Err(err) => {
            eprintln!("xtask lint: i/o error: {err}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let json_to_stdout = matches!(opts.json, Some(None));
    if let Some(dest) = &opts.json {
        let json = report::to_json(&violations);
        match dest {
            None => print!("{json}"),
            Some(path) => {
                if let Err(err) = fs::write(path, &json) {
                    eprintln!("xtask lint: cannot write {}: {err}", path.display());
                    return ExitCode::from(EXIT_ERROR);
                }
            }
        }
    }
    if !json_to_stdout {
        if violations.is_empty() {
            println!("xtask lint: clean ({} rules)", Rule::all().len());
        } else {
            for v in &violations {
                println!("{v}");
            }
            println!(
                "xtask lint: {} violation(s); annotate intentional ones with \
                 `// lint: allow(<rule>) — <reason>`",
                violations.len()
            );
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    }
}

/// Runs `bench-diff <old.json> <new.json> [--threshold <pct>]`.
fn run_bench_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut threshold_pct = 25.0;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threshold" {
            let Some(raw) = args.get(i + 1) else {
                eprintln!("--threshold requires a percent argument");
                return ExitCode::from(EXIT_ERROR);
            };
            match raw.parse::<f64>() {
                Ok(pct) if pct.is_finite() && pct >= 0.0 => threshold_pct = pct,
                _ => {
                    eprintln!("--threshold must be a non-negative number, got `{raw}`");
                    return ExitCode::from(EXIT_ERROR);
                }
            }
            i += 2;
        } else {
            paths.push(&args[i]);
            i += 1;
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("usage: cargo xtask bench-diff <old.json> <new.json> [--threshold <pct>]");
        return ExitCode::from(EXIT_ERROR);
    };
    let load = |path: &str| -> Result<Vec<benchdiff::BenchRecord>, String> {
        let text = fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
        benchdiff::parse_report(&text).map_err(|err| format!("{path}: {err}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("xtask bench-diff: {err}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let d = benchdiff::diff(&old, &new, threshold_pct);
    for entry in d.entries.iter().filter(|e| e.verdict != Verdict::Unchanged) {
        println!("{entry}");
    }
    for name in &d.missing {
        println!("missing    {name} (in {old_path} only)");
    }
    for name in &d.added {
        println!("added      {name} (in {new_path} only)");
    }
    let count = |v| d.with(v).count();
    println!(
        "xtask bench-diff: {} worse, {} unresolved, {} improved, {} unchanged at ±{threshold_pct}% \
         of the median ({} missing, {} added)",
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        d.missing.len(),
        d.added.len()
    );
    if count(Verdict::Worse) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    }
}

/// Runs `trace-report <trace.ndjson> [--top <n>] [--json]
/// [--collapse <path>] [--strict]`.
fn run_trace_report(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut top = 15usize;
    let mut json = false;
    let mut strict = false;
    let mut collapse: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--top" => {
                let Some(raw) = args.get(i + 1) else {
                    eprintln!("--top requires a count argument");
                    return ExitCode::from(EXIT_ERROR);
                };
                match raw.parse::<usize>() {
                    Ok(n) if n > 0 => top = n,
                    _ => {
                        eprintln!("--top must be a positive integer, got `{raw}`");
                        return ExitCode::from(EXIT_ERROR);
                    }
                }
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--strict" => {
                strict = true;
                i += 1;
            }
            "--collapse" => {
                let Some(raw) = args.get(i + 1) else {
                    eprintln!("--collapse requires a path argument");
                    return ExitCode::from(EXIT_ERROR);
                };
                collapse = Some(PathBuf::from(raw));
                i += 2;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown trace-report argument `{other}`");
                return ExitCode::from(EXIT_ERROR);
            }
            _ if path.is_none() => {
                path = Some(&args[i]);
                i += 1;
            }
            other => {
                eprintln!("unexpected extra operand `{other}`");
                return ExitCode::from(EXIT_ERROR);
            }
        }
    }
    let Some(path) = path else {
        eprintln!(
            "usage: cargo xtask trace-report <trace.ndjson> [--top <n>] [--json] \
             [--collapse <path>] [--strict]"
        );
        return ExitCode::from(EXIT_ERROR);
    };
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("xtask trace-report: cannot read {path}: {err}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let profile = tracereport::analyze(&text);
    if let Some(warning) = tracereport::anomaly_warning(&profile) {
        eprintln!("xtask trace-report: {warning}");
    }
    if let Some(dest) = &collapse {
        let stacks = mpdf_obs::profile::collapsed_stacks(&profile);
        if let Err(err) = fs::write(dest, stacks) {
            eprintln!("xtask trace-report: cannot write {}: {err}", dest.display());
            return ExitCode::from(EXIT_ERROR);
        }
    }
    if json {
        print!("{}", mpdf_obs::profile::to_json(&profile, top));
    } else {
        print!("{}", tracereport::render_human(&profile, top));
    }
    if strict && profile.anomalies.any() {
        ExitCode::from(EXIT_FINDINGS)
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs `obs-diff <old.json> <new.json> --budgets <manifest>`.
fn run_obs_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut budgets_path: Option<&String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--budgets" {
            let Some(raw) = args.get(i + 1) else {
                eprintln!("--budgets requires a manifest path argument");
                return ExitCode::from(EXIT_ERROR);
            };
            budgets_path = Some(raw);
            i += 2;
        } else {
            paths.push(&args[i]);
            i += 1;
        }
    }
    let ([old_path, new_path], Some(budgets_path)) = (paths.as_slice(), budgets_path) else {
        eprintln!("usage: cargo xtask obs-diff <old.json> <new.json> --budgets <manifest>");
        return ExitCode::from(EXIT_ERROR);
    };
    let load_doc = |path: &str| -> Result<obsdiff::MetricsDoc, String> {
        let text = fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
        obsdiff::parse_metrics(&text).map_err(|err| format!("{path}: {err}"))
    };
    let load_budgets = || -> Result<Vec<obsdiff::Budget>, String> {
        let text = fs::read_to_string(budgets_path)
            .map_err(|err| format!("cannot read {budgets_path}: {err}"))?;
        obsdiff::parse_budgets(&text).map_err(|err| format!("{budgets_path}: {err}"))
    };
    let (old, new, budgets) = match (load_doc(old_path), load_doc(new_path), load_budgets()) {
        (Ok(old), Ok(new), Ok(budgets)) => (old, new, budgets),
        (Err(err), _, _) | (_, Err(err), _) | (_, _, Err(err)) => {
            eprintln!("xtask obs-diff: {err}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let d = obsdiff::check(&old, &new, &budgets);
    for violation in &d.violations {
        println!("OVER BUDGET  {violation}");
    }
    for note in &d.skipped {
        println!("skipped      {note}");
    }
    println!(
        "xtask obs-diff: {} over budget, {} within, {} skipped ({} budget(s) checked)",
        d.violations.len(),
        d.passed,
        d.skipped.len(),
        budgets.len()
    );
    if d.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FINDINGS)
    }
}

/// Runs `results --check | --write`.
fn run_results(args: &[String]) -> ExitCode {
    let write = match args {
        [flag] if flag == "--check" => false,
        [flag] if flag == "--write" => true,
        _ => {
            eprintln!("usage: cargo xtask results --check | --write");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let root = match default_root() {
        Ok(root) => root,
        Err(err) => {
            eprintln!("xtask results: {err}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let cargo = env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let built = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "mpdf-eval",
            "--bin",
            "repro",
        ])
        .current_dir(&root)
        .status();
    if !matches!(built, Ok(status) if status.success()) {
        eprintln!("xtask results: building the release repro failed: {built:?}");
        return ExitCode::from(EXIT_ERROR);
    }
    let target =
        env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |dir| root.join(dir));
    let recorded = root.join("results");
    let out = if write {
        recorded.clone()
    } else {
        target.join("results-check")
    };
    if let Err(err) = results::generate(&target.join("release").join("repro"), &out) {
        eprintln!("xtask results: {err}");
        return ExitCode::from(EXIT_ERROR);
    }
    if write {
        println!("xtask results: wrote {}", recorded.display());
        return ExitCode::SUCCESS;
    }
    let checked = results::compare(&recorded, &out).and_then(|mut diffs| {
        let read = |path: PathBuf| {
            fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        let (doc, all) = (
            read(root.join("EXPERIMENTS.md"))?,
            read(recorded.join("all.txt"))?,
        );
        let stale = results::unrecorded_numbers(&doc, &all)?;
        diffs.extend(stale.iter().map(|s| {
            format!("EXPERIMENTS.md: {s} is in a Measured column but not in results/all.txt")
        }));
        Ok(diffs)
    });
    match checked {
        Ok(diffs) if diffs.is_empty() => {
            println!("xtask results: output matches {}", recorded.display());
            ExitCode::SUCCESS
        }
        Ok(diffs) => {
            for d in &diffs {
                println!("{d}");
            }
            println!(
                "xtask results: {} difference(s) against {}; a change that moves output on \
                 purpose regenerates it with `cargo xtask results --write`, and EXPERIMENTS.md \
                 quotes only what results/all.txt prints",
                diffs.len(),
                recorded.display()
            );
            ExitCode::from(EXIT_FINDINGS)
        }
        Err(err) => {
            eprintln!("xtask results: {err}");
            ExitCode::from(EXIT_ERROR)
        }
    }
}

fn parse_opts(args: &[String]) -> Result<LintOpts, String> {
    let mut root: Option<PathBuf> = None;
    let mut json: Option<Option<PathBuf>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| "--root requires a path argument".to_owned())?;
                root = Some(PathBuf::from(path));
                i += 2;
            }
            "--json" => {
                // Optional path operand: consume the next argument iff
                // it is not a flag.
                match args.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        json = Some(Some(PathBuf::from(next)));
                        i += 2;
                    }
                    _ => {
                        json = Some(None);
                        i += 1;
                    }
                }
            }
            other => return Err(format!("unknown lint argument `{other}`")),
        }
    }
    let root = match root {
        Some(root) => root,
        None => default_root()?,
    };
    Ok(LintOpts { root, json })
}

/// Resolves the workspace root: the `CARGO_MANIFEST_DIR`-derived default
/// when run via `cargo xtask`, or the current directory.
fn default_root() -> Result<PathBuf, String> {
    if let Some(manifest_dir) = env::var_os("CARGO_MANIFEST_DIR") {
        // crates/xtask → workspace root is two levels up.
        let dir = PathBuf::from(manifest_dir);
        if let Some(root) = dir.ancestors().nth(2) {
            return Ok(root.to_path_buf());
        }
    }
    env::current_dir().map_err(|e| format!("cannot resolve workspace root: {e}"))
}
