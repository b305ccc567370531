//! Results of record: what `repro` prints, committed under `results/`.
//!
//! [`EXHIBITS`] lists the runs of record: `repro all` with its CSVs, the
//! stream replay, the fleet chaos demo and the supervised session, all at
//! four threads. [`generate`] runs a `repro` binary for each into a
//! directory; [`compare`] diffs two such directories file by file.
//! `cargo xtask results --write` regenerates `results/` with the release
//! build; `cargo xtask results --check` generates into the target
//! directory and fails on any difference, so a refactor that moves one
//! output byte shows, and a change that moves output on purpose carries
//! the regenerated files.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where `repro all` writes its CSVs, relative to the output directory.
const CSV_DIR: &str = "csv";

/// The runs of record: the file their stdout goes to and `repro`'s
/// arguments (the `all` run also writes its CSVs into [`CSV_DIR`]).
pub const EXHIBITS: [(&str, &[&str]); 4] = [
    ("all.txt", &["--threads", "4", "--csvdir", CSV_DIR, "all"]),
    ("stream.txt", &["--threads", "4", "stream"]),
    ("fleet_chaos.txt", &["--threads", "4", "fleet", "--chaos"]),
    ("session.txt", &["--threads", "4", "--session"]),
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
    fn a_missing_directory_is_an_error() {
        let missing = std::env::temp_dir().join("xtask-results-does-not-exist");
        assert!(compare(&missing, &missing).is_err());
    }
}
