//! Drives the `e2e` binary at `--scale smoke` on every workload: its
//! checks pass, it prints exactly the metric names `BENCHMARK.json`
//! declares, one seed gives one output digest at one and two threads,
//! another seed another digest, and the sanitize-memo hit ratio is the
//! measured one for the workload.

use std::process::Command;

use xtask::json::{parse_document, Json};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

struct Run {
    digest: String,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    match obj {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key}")),
        _ => panic!("not an object"),
    }
}

fn run(workload: &str, seed: u64, threads: u32, trace: &str) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", workload, "--scale", "smoke", "--trace", trace])
        .args([
            "--seed",
            &seed.to_string(),
            "--threads",
            &threads.to_string(),
        ])
        .output()
        .expect("run e2e");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = stdout
        .lines()
        .find(|l| l.starts_with("e2e "))
        .and_then(|l| {
            l.split_whitespace()
                .find_map(|kv| kv.strip_prefix("digest="))
        })
        .expect("header with a digest")
        .to_owned();
    let last = stdout.lines().last().expect("a result line");
    let doc = parse_document(last).expect("result line is JSON");
    let Json::Obj(entries) = field(&doc, "metrics") else {
        panic!("metrics is not an object");
    };
    let metrics = entries
        .iter()
        .map(|(name, m)| match field(m, "value") {
            Json::Num(v) => (name.clone(), *v),
            _ => panic!("{name} has no numeric value"),
        })
        .collect();
    Run {
        digest,
        correct: last.contains("\"correct\": true"),
        metrics,
    }
}

fn declared(list: &str) -> Vec<String> {
    let doc = parse_document(BENCHMARK).expect("BENCHMARK.json parses");
    let Json::Arr(items) = field(&doc, list) else {
        panic!("{list} is not a list");
    };
    let mut names: Vec<String> = items
        .iter()
        .map(|m| match field(m, "name") {
            Json::Str(s) => s.clone(),
            _ => panic!("unnamed metric"),
        })
        .collect();
    names.sort();
    names
}

fn names(run: &Run) -> Vec<String> {
    let mut names: Vec<String> = run.metrics.iter().map(|(n, _)| n.clone()).collect();
    names.sort();
    names
}

fn check(workload: &str, memo_hit_ratio: std::ops::RangeInclusive<f64>) {
    let two = run(workload, 7, 2, "0");
    assert!(two.correct, "{workload}: checks failed");
    assert_eq!(names(&two), declared("end_to_end"), "{workload}");
    assert!(two.metrics.iter().all(|(_, v)| *v > 0.0), "{workload}");

    let one = run(workload, 7, 1, "1");
    assert!(one.correct, "{workload}: traced checks failed");
    assert_eq!(names(&one), declared("per_layer"), "{workload}");
    assert_eq!(
        one.digest, two.digest,
        "{workload}: outputs depend on threads"
    );
    let memo = one
        .metrics
        .iter()
        .find(|(n, _)| n == "core.sanitize_memo.hit_ratio")
        .map(|(_, v)| *v)
        .expect("memo hit ratio");
    assert!(
        memo_hit_ratio.contains(&memo),
        "{workload}: memo hit ratio {memo}"
    );

    let other = run(workload, 8, 2, "0");
    assert!(other.correct, "{workload}: checks failed on seed 8");
    assert_ne!(
        other.digest, two.digest,
        "{workload}: the seed changed nothing"
    );
}

#[test]
fn campaign() {
    check("campaign", 0.0..=0.0);
}

#[test]
fn stream() {
    // Three schemes score each epoch back to back: one miss, two hits.
    check("stream", 0.66..=0.67);
}

#[test]
fn fleet() {
    check("fleet", 0.0..=0.0);
}

#[test]
fn fleet_logged() {
    check("fleet_logged", 0.0..=0.0);
}
