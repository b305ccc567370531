//! Results of record: what `repro` prints, committed under `results/`.
//!
//! [`EXHIBITS`] lists the runs of record: `repro all` with its CSVs, the
//! stream replay, the fleet chaos demo, the supervised session and
//! `repro all` under each fault preset, all at four threads. [`generate`]
//! runs a `repro` binary for each into a directory; [`compare`] diffs two
//! such directories file by file. `cargo xtask results --write`
//! regenerates `results/` with the release build; `cargo xtask results
//! --check` generates into the target directory and fails on any
//! difference, so a refactor that moves one output byte shows, and a
//! change that moves output on purpose carries the regenerated files.
//! `--check` also runs [`unrecorded_numbers`]: every number a Measured
//! column of EXPERIMENTS.md quotes must appear in `results/all.txt`, so
//! the document cannot drift from the output.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where `repro all` writes its CSVs, relative to the output directory.
const CSV_DIR: &str = "csv";

/// The runs of record: the file their stdout goes to and `repro`'s
/// arguments (the `all` run also writes its CSVs into [`CSV_DIR`]).
pub const EXHIBITS: [(&str, &[&str]); 9] = [
    ("all.txt", &["--threads", "4", "--csvdir", CSV_DIR, "all"]),
    ("stream.txt", &["--threads", "4", "stream"]),
    ("fleet_chaos.txt", &["--threads", "4", "fleet", "--chaos"]),
    ("session.txt", &["--threads", "4", "--session"]),
    (
        "faults_loss.txt",
        &["--threads", "4", "--faults", "loss", "all"],
    ),
    (
        "faults_dropout.txt",
        &["--threads", "4", "--faults", "dropout", "all"],
    ),
    (
        "faults_agc.txt",
        &["--threads", "4", "--faults", "agc", "all"],
    ),
    (
        "faults_glitch.txt",
        &["--threads", "4", "--faults", "glitch", "all"],
    ),
    (
        "faults_chaos.txt",
        &["--threads", "4", "--faults", "chaos", "all"],
    ),
];

/// Runs `repro` for every exhibit with `out` (emptied first) as the
/// working directory, writing each stdout into its file there.
///
/// # Errors
/// `out` cannot be reset or written, or a run cannot start or exits
/// non-zero (with the tail of its stderr).
pub fn generate(repro: &Path, out: &Path) -> Result<(), String> {
    let io = |what: &str, path: &Path, e: std::io::Error| format!("{what} {}: {e}", path.display());
    if out.exists() {
        fs::remove_dir_all(out).map_err(|e| io("cannot clear", out, e))?;
    }
    fs::create_dir_all(out).map_err(|e| io("cannot create", out, e))?;
    for (file, args) in EXHIBITS {
        let run = Command::new(repro)
            .args(args)
            .current_dir(out)
            .output()
            .map_err(|e| io("cannot run", repro, e))?;
        if !run.status.success() {
            let stderr = String::from_utf8_lossy(&run.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            return Err(format!(
                "repro {} exited with {}: {}",
                args.join(" "),
                run.status,
                tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
            ));
        }
        let path = out.join(file);
        fs::write(&path, run.stdout).map_err(|e| io("cannot write", &path, e))?;
    }
    Ok(())
}

/// Every file under `dir`, as sorted paths relative to it.
fn files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    out.sort();
    Ok(out)
}

/// Differences between the recorded directory `expected` and a fresh
/// `actual` one: files only one side has, and for each file both have
/// and that differs, its first differing line. Empty when they match
/// byte for byte.
///
/// # Errors
/// A directory or file cannot be read.
pub fn compare(expected: &Path, actual: &Path) -> Result<Vec<String>, String> {
    let (want, got) = (files(expected)?, files(actual)?);
    let read =
        |path: PathBuf| fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()));
    let mut out = Vec::new();
    for rel in &want {
        let shown = rel.display();
        if !got.contains(rel) {
            out.push(format!("{shown}: recorded but no longer produced"));
            continue;
        }
        let (old, new) = (read(expected.join(rel))?, read(actual.join(rel))?);
        if old == new {
            continue;
        }
        let (old, new) = (String::from_utf8_lossy(&old), String::from_utf8_lossy(&new));
        let (mut old_lines, mut new_lines) = (old.lines(), new.lines());
        for line in 1.. {
            match (old_lines.next(), new_lines.next()) {
                (Some(a), Some(b)) if a == b => continue,
                (None, None) => out.push(format!("{shown}: line endings differ")),
                (a, b) => out.push(format!(
                    "{shown}:{line}: recorded {:?}, now {:?}",
                    a.unwrap_or("<end of file>"),
                    b.unwrap_or("<end of file>")
                )),
            }
            break;
        }
    }
    for rel in got.iter().filter(|rel| !want.contains(rel)) {
        out.push(format!("{}: produced but not recorded", rel.display()));
    }
    Ok(out)
}

/// The numbers in `text` as printed: digits with an optional fraction,
/// negative when a minus sign (`-` or U+2212) comes right before them. A
/// bare fraction such as `.863` reads as `0.863`.
fn numbers(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let digit_at = |i: usize| chars.get(i).is_some_and(char::is_ascii_digit);
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let starts = digit_at(i) || (chars[i] == '.' && digit_at(i + 1));
        if !starts {
            i += 1;
            continue;
        }
        let negative = i > 0 && matches!(chars[i - 1], '-' | '\u{2212}');
        let mut number = String::from(if negative { "-" } else { "" });
        if chars[i] == '.' {
            number.push('0');
        }
        let mut seen_point = false;
        while i < chars.len()
            && (digit_at(i) || (chars[i] == '.' && !seen_point && digit_at(i + 1)))
        {
            seen_point |= chars[i] == '.';
            number.push(chars[i]);
            i += 1;
        }
        out.push(number);
    }
    out
}

/// Every number in a Measured column of `experiments` (a Markdown table
/// column whose header starts with "Measured") that `all` does not
/// print, as `exhibit: number` lines. Numbers are compared as printed,
/// so `83.3` does not match a printed `83.30`.
///
/// # Errors
/// `experiments` has no Measured column.
pub fn unrecorded_numbers(experiments: &str, all: &str) -> Result<Vec<String>, String> {
    let printed = numbers(all);
    let mut tables = 0;
    let mut out = Vec::new();
    // `None` until the current table's header row is read, then the
    // index of its Measured column (`Some(None)` when it has none).
    let mut column: Option<Option<usize>> = None;
    for line in experiments.lines() {
        if !line.trim_start().starts_with('|') {
            column = None;
            continue;
        }
        let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
        let cells: Vec<&str> = inner.split('|').map(str::trim).collect();
        let Some(measured) = column else {
            let at = cells.iter().position(|c| c.starts_with("Measured"));
            tables += usize::from(at.is_some());
            column = Some(at);
            continue;
        };
        let (Some(exhibit), Some(cell)) = (cells.first(), measured.and_then(|m| cells.get(m)))
        else {
            continue;
        };
        for number in numbers(cell) {
            if !printed.contains(&number) {
                out.push(format!("{exhibit}: {number}"));
            }
        }
    }
    if tables == 0 {
        return Err("EXPERIMENTS.md has no Measured column".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory holding `files` (relative path, contents).
    fn dir(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("xtask-results-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for (rel, text) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        }
        root
    }

    #[test]
    fn identical_directories_match() {
        let files = [("all.txt", "a\nb\n"), ("csv/fig7.csv", "x,y\n1,2\n")];
        let (a, b) = (dir("same-a", &files), dir("same-b", &files));
        assert_eq!(compare(&a, &b).unwrap(), Vec::<String>::new());
        for d in [a, b] {
            fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn differences_name_the_file_and_the_first_differing_line() {
        let a = dir(
            "diff-a",
            &[
                ("all.txt", "a\nb\nc\n"),
                ("gone.txt", "x\n"),
                ("short.txt", "1\n2\n"),
            ],
        );
        let b = dir(
            "diff-b",
            &[
                ("all.txt", "a\nB\nc\n"),
                ("new.txt", "y\n"),
                ("short.txt", "1\n"),
            ],
        );
        assert_eq!(
            compare(&a, &b).unwrap(),
            [
                "all.txt:2: recorded \"b\", now \"B\"",
                "gone.txt: recorded but no longer produced",
                "short.txt:2: recorded \"2\", now \"<end of file>\"",
                "new.txt: produced but not recorded",
            ]
        );
        for d in [a, b] {
            fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn numbers_are_read_as_printed() {
        assert_eq!(
            numbers("p10 \u{2212}1.55 dB, 56.3% @ 3.7 % (AUC .863); 1\u{2192}5 m, v2.0. -0.0"),
            ["10", "-1.55", "56.3", "3.7", "0.863", "1", "5", "2.0", "-0.0"]
        );
    }

    #[test]
    fn every_measured_number_must_be_printed() {
        let doc = "intro 99.9\n\n\
                   | Exhibit | Paper | Measured | Verdict |\n\
                   |---|---|---|---|\n\
                   | Fig. 7 | 70 % | baseline 56.3 % (AUC .863) | ok 12 |\n\
                   | Fig. 9 | 60 % | 83.3 % at 5 m, \u{2212}2.5 dB | ok |\n\
                   \n\
                   | Id | Command |\n|---|---|\n| fig7 | repro 4242 |\n\
                   \n\
                   | Extension | Hook | Measured |\n|---|---|---|\n| ext | 5 | FP 9.6 % |\n";
        let all = "baseline 56.3% 0.863 9.6\n| 5 m | 83.3% | -2.5 |\n";
        assert_eq!(unrecorded_numbers(doc, all).unwrap(), Vec::<String>::new());
        let drifted = all.replace("83.3%", "83.4%").replace("9.6", "9.7");
        assert_eq!(
            unrecorded_numbers(doc, &drifted).unwrap(),
            ["Fig. 9: 83.3", "ext: 9.6"]
        );
        assert!(unrecorded_numbers("no table here", all).is_err());
    }

    #[test]
    fn a_missing_directory_is_an_error() {
        let missing = std::env::temp_dir().join("xtask-results-does-not-exist");
        assert!(compare(&missing, &missing).is_err());
    }
}
