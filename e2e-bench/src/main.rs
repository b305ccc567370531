//! `e2e` — the end-to-end benchmark's command line.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR]
//!     [--threads N] [--scale full|smoke]
//! e2e compare <runs-A> <runs-B> [--benchmark PATH]
//! ```
//!
//! Without `--workload` every workload runs, each in its own process.
//! The last line of a single workload's output is its result object.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use mpdf_e2e::compare::{self, Verdict};
use mpdf_e2e::runner::{self, Options, Outcome, Trace};
use mpdf_e2e::{Scale, Workload};

const USAGE: &str = "usage: e2e [--workload campaign|stream|fleet|fleet_logged] [--seed N] \
[--seconds S] [--trace 0|1|DIR] [--threads N] [--scale full|smoke]\n       \
e2e compare <runs-A> <runs-B> [--benchmark PATH]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2e: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Parsed run flags; `workload == None` runs all of them.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    threads: usize,
    scale: Scale,
    trace: Trace,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 3153,
        seconds: None,
        threads: 2,
        scale: Scale::Full,
        trace: Trace::Off,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds {v}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {v}"));
                }
                out.seconds = Some(s);
            }
            "--threads" => {
                let v = value()?;
                out.threads = v
                    .parse()
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or(format!("bad thread count {v}"))?;
            }
            "--scale" => {
                out.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    v => return Err(format!("unknown scale {v}")),
                };
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    dir => Trace::Dir(PathBuf::from(dir)),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result object: the last line of a workload's output.
fn result_line(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        threads: args.threads,
        scale: args.scale,
        trace: args.trace.clone(),
    };
    let outcome = match runner::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.correct && outcome.metrics.iter().all(|m| m.value.is_finite());
    for line in &outcome.report {
        println!("{line}");
    }
    println!("{}", result_line(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process (so each reports its own peak
/// memory), forwarding their output.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .arg("--workload")
            .arg(workload.name())
            .args(raw)
            .stdin(Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2e: workload {} exited with {s}", workload.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("e2e: run workload {}: {e}", workload.name());
                ok = false;
            }
        }
    }
    println!(
        "e2e: {} workloads, {}",
        Workload::ALL.len(),
        if ok { "every check ok" } else { "FAILED" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(p) => benchmark = PathBuf::from(p),
                None => return usage("--benchmark needs a value"),
            }
        } else {
            paths.push(PathBuf::from(a));
        }
    }
    let [a, b] = paths.as_slice() else {
        return usage("compare needs two run sets");
    };
    let loaded = std::fs::read_to_string(&benchmark)
        .map_err(|e| format!("read {}: {e}", benchmark.display()))
        .and_then(|text| compare::parse_bounds(&text))
        .and_then(|bounds| Ok((bounds, compare::load_runs(a)?, compare::load_runs(b)?)));
    let (bounds, runs_a, runs_b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("e2e compare: {e}");
            return ExitCode::from(2);
        }
    };
    for (side, runs) in [("A", &runs_a), ("B", &runs_b)] {
        for r in runs.iter().filter(|r| !r.correct) {
            println!(
                "warning: {side} run {} seed {} failed its checks",
                r.workload, r.seed
            );
        }
    }
    let rows = compare::compare(&runs_a, &runs_b, &bounds);
    for row in &rows {
        println!("{}", compare::render(row));
    }
    if rows.is_empty() {
        eprintln!("e2e compare: no (workload, metric) is present on both sides");
        return ExitCode::from(2);
    }
    if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return run_compare(&raw[1..]);
    }
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&raw),
    }
}
