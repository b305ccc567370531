//! Lint engine: walks the workspace's first-party source trees, lexes
//! every file once ([`crate::lexer`]), and runs all rule passes over the
//! shared token stream.
//!
//! Clippy is the workspace's lint gate: the root `clippy.toml` bans
//! ambient nondeterminism, `[workspace.lints]` bans panics and process
//! output in library code, and the kernel crates warn on lossy casts.
//! The rules here are the ones clippy cannot express: NaN-swallowing
//! ordering across wrapped method chains, dB/linear unit confusion read
//! from identifier suffixes, panics and prints inside local
//! `macro_rules!` bodies, lock-order drift against `LOCK_ORDER.txt`,
//! poisoned-lock unwraps, and metric namespace rot against
//! `OBS_registry.txt`. See [`crate::report::Rule`] for the rule set and
//! the per-family modules ([`crate::rules`], [`crate::concurrency`],
//! [`crate::metrics`]) for the policies.
//!
//! Library code means files under a crate's `src/` tree minus binary
//! entry points (`src/bin/`, `main.rs`) and `#[cfg(test)]` modules;
//! integration tests, benches and examples are never walked, and
//! third-party stand-ins under `vendor/` are not visited. No rule has
//! an escape hatch: a finding is fixed, or the manifest it checks
//! against is edited.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::concurrency::{self, Manifest};
use crate::lexer::SourceFile;
use crate::metrics::{self, MetricUse, Registry};
use crate::report::{self, Rule, Violation};
use crate::rules::{self, FileCtx};

/// Workspace-root file declaring lock acquisition order.
pub const LOCK_MANIFEST: &str = "LOCK_ORDER.txt";
/// Workspace-root file registering every metric name and kind.
pub const METRIC_REGISTRY: &str = "OBS_registry.txt";

/// Lints one file's source text against every per-file pass, appending
/// this file's metric uses to `uses` for the workspace-level registry
/// reconciliation. Pure function of its inputs, so unit and fixture
/// tests can drive it without touching the filesystem.
#[must_use]
pub fn lint_source(
    rel: &Path,
    source: &str,
    ctx: FileCtx<'_>,
    manifest: Option<&Manifest>,
    uses: &mut Vec<MetricUse>,
) -> Vec<Violation> {
    let file = SourceFile::lex(source);
    let mut out = Vec::new();
    rules::check(&file, rel, ctx, &mut out);
    concurrency::check(&file, rel, ctx, manifest, &mut out);
    metrics::collect(&file, rel, uses, &mut out);
    out
}

/// Walks the workspace and lints every first-party file, then runs the
/// workspace-level passes (metric registry reconciliation). Findings
/// come back in stable (file, line, col, rule) order.
///
/// # Errors
/// Propagates I/O failures from directory walking or file reads.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    if !root.is_dir() {
        // A missing root would otherwise fall through every "tree is
        // absent, skip it" branch below and report a hollow "clean".
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("workspace root `{}` is not a directory", root.display()),
        ));
    }
    let mut violations = Vec::new();
    let manifest = load_lock_manifest(root, &mut violations)?;
    let registry = load_metric_registry(root, &mut violations)?;
    let mut uses: Vec<MetricUse> = Vec::new();

    // Umbrella crate.
    lint_src_tree(
        root,
        &root.join("src"),
        "workspace",
        manifest.as_ref(),
        &mut uses,
        &mut violations,
    )?;

    // Member crates (a root without a `crates/` tree is fine — e.g. a
    // single-crate fixture workspace).
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_owned();
            lint_src_tree(
                root,
                &dir.join("src"),
                &name,
                manifest.as_ref(),
                &mut uses,
                &mut violations,
            )?;
        }
    }

    metrics::check_registry(
        &uses,
        registry.as_ref(),
        Path::new(METRIC_REGISTRY),
        &mut violations,
    );
    report::sort(&mut violations);
    Ok(violations)
}

/// Reads and parses `LOCK_ORDER.txt`; `None` when absent. Parse errors
/// become `lock-order` findings anchored at the manifest file.
fn load_lock_manifest(root: &Path, out: &mut Vec<Violation>) -> io::Result<Option<Manifest>> {
    let path = root.join(LOCK_MANIFEST);
    if !path.is_file() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path)?;
    let (manifest, errors) = Manifest::parse(&text);
    for (line, message) in errors {
        out.push(Violation {
            file: PathBuf::from(LOCK_MANIFEST),
            line,
            col: 0,
            rule: Rule::LockOrder,
            message,
        });
    }
    Ok(Some(manifest))
}

/// Reads and parses `OBS_registry.txt`; `None` when absent. Parse
/// errors become `metric-registry` findings anchored at the registry.
fn load_metric_registry(root: &Path, out: &mut Vec<Violation>) -> io::Result<Option<Registry>> {
    let path = root.join(METRIC_REGISTRY);
    if !path.is_file() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path)?;
    let (registry, errors) = Registry::parse(&text);
    for (line, message) in errors {
        out.push(Violation {
            file: PathBuf::from(METRIC_REGISTRY),
            line,
            col: 0,
            rule: Rule::MetricRegistry,
            message,
        });
    }
    Ok(Some(registry))
}

fn lint_src_tree(
    root: &Path,
    src: &Path,
    crate_name: &str,
    manifest: Option<&Manifest>,
    uses: &mut Vec<MetricUse>,
    out: &mut Vec<Violation>,
) -> io::Result<()> {
    if !src.is_dir() {
        return Ok(());
    }
    let mut files = Vec::new();
    collect_rs_files(src, &mut files)?;
    files.sort();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let source = fs::read_to_string(&file)?;
        let file_name = file
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let in_bin_dir = file.components().any(|c| c.as_os_str() == "bin");
        let ctx = FileCtx {
            crate_name,
            is_library: !in_bin_dir && file_name != "main.rs",
        };
        out.extend(lint_source(&rel, &source, ctx, manifest, uses));
    }
    Ok(())
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::lint_source;
    use crate::concurrency::Manifest;
    use crate::report::Rule;
    use crate::rules::FileCtx;
    use std::path::Path;

    fn lib_ctx(crate_name: &'static str) -> FileCtx<'static> {
        FileCtx {
            crate_name,
            is_library: true,
        }
    }

    #[test]
    fn all_families_run_from_one_lex() {
        let (manifest, errs) = Manifest::parse("lock par.state\n");
        assert!(errs.is_empty());
        let src = "fn f(&self) {\n\
                   \x20   let g = self.state.lock().unwrap();\n\
                   \x20   let o = a.partial_cmp(&b).unwrap();\n\
                   \x20   counter!(\"badName\");\n\
                   \x20   drop((g, o));\n\
                   }\n";
        let mut uses = Vec::new();
        let v = lint_source(
            Path::new("x.rs"),
            src,
            lib_ctx("par"),
            Some(&manifest),
            &mut uses,
        );
        let rules: Vec<Rule> = v.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            [Rule::NanOrdering, Rule::LockUnwrap, Rule::MetricName],
            "{v:?}"
        );
        assert!(
            uses.is_empty(),
            "malformed names are not registry candidates"
        );
    }

    #[test]
    fn clean_file_reports_nothing_and_collects_uses() {
        let (manifest, errs) = Manifest::parse("lock par.state\n");
        assert!(errs.is_empty());
        let src = "fn f(&self) {\n\
                   \x20   let g = self.state.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   \x20   counter!(\"par.jobs_total\");\n\
                   \x20   drop(g);\n\
                   }\n";
        let mut uses = Vec::new();
        let v = lint_source(
            Path::new("x.rs"),
            src,
            lib_ctx("par"),
            Some(&manifest),
            &mut uses,
        );
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(uses.len(), 1);
        assert_eq!(uses[0].name, "par.jobs_total");
    }
}
