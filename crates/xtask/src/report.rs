//! Rule registry, violation type, and the machine-readable findings
//! report emitted by `cargo xtask lint --json`.

use std::fmt;
use std::path::{Path, PathBuf};

use mpdf_obs::json;

/// The rules clippy cannot express. Clippy enforces the rest of the
/// workspace policy (panics, prints, lossy casts and ambient
/// nondeterminism) through the root `clippy.toml` and
/// `[workspace.lints]`; these read identifier suffixes, method chains
/// across lines, the lock and metric manifests, and the bodies of local
/// macros, which clippy's lints do not see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No NaN-unsafe float ordering.
    NanOrdering,
    /// No `*`/`/` arithmetic mixing dB and linear-power identifiers.
    DbLinear,
    /// No panicking or printing call inside a library `macro_rules!`
    /// body, where clippy's `panic`, `unwrap_used`, `expect_used` and
    /// `print_*` lints stay silent on every expansion.
    MacroBody,
    /// Every lock in the concurrency-audited crates must be declared in
    /// `LOCK_ORDER.txt` and acquired in manifest order.
    LockOrder,
    /// `.lock()` results must not be `unwrap`ped/`expect`ed in library
    /// code — recover poisoning (`PoisonError::into_inner`) or return a
    /// typed error.
    LockUnwrap,
    /// `counter!`/`gauge!`/`stage!` names must be snake-case dotted
    /// paths.
    MetricName,
    /// Metric names must be registered (with the right kind) in
    /// `OBS_registry.txt`, which must hold no stale entries.
    MetricRegistry,
}

impl Rule {
    /// All rules, in reporting order.
    #[must_use]
    pub const fn all() -> &'static [Rule] {
        &[
            Rule::NanOrdering,
            Rule::DbLinear,
            Rule::MacroBody,
            Rule::LockOrder,
            Rule::LockUnwrap,
            Rule::MetricName,
            Rule::MetricRegistry,
        ]
    }

    /// Stable kebab-case name used in reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Rule::NanOrdering => "nan-ordering",
            Rule::DbLinear => "db-linear",
            Rule::MacroBody => "macro-body",
            Rule::LockOrder => "lock-order",
            Rule::LockUnwrap => "lock-unwrap",
            Rule::MetricName => "metric-name",
            Rule::MetricRegistry => "metric-registry",
        }
    }

    /// One-line policy statement, shown by `cargo xtask rules`.
    #[must_use]
    pub const fn policy(self) -> &'static str {
        match self {
            Rule::NanOrdering => "no partial_cmp().unwrap() or Ordering::Equal fallback; total_cmp",
            Rule::DbLinear => "no *// arithmetic mixing dB identifiers with linear-power ones",
            Rule::MacroBody => {
                "library macro_rules! bodies: no unwrap/expect/panic!/todo!/unimplemented!/print"
            }
            Rule::LockOrder => {
                "audited crates: locks declared in LOCK_ORDER.txt, acquired in order"
            }
            Rule::LockUnwrap => "library code: recover lock poisoning, never unwrap()/expect() it",
            Rule::MetricName => "metric names are snake-case dotted paths (domain.metric_name)",
            Rule::MetricRegistry => "metric names registered in OBS_registry.txt with their kind",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File the violation is in, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column of the offending token (0 for file-level findings).
    pub col: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Sorts violations into stable report order: file, line, column, rule.
pub fn sort(violations: &mut [Violation]) {
    violations
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
}

/// Renders the findings as the machine-readable JSON report CI consumes.
///
/// Schema (version 1):
///
/// ```json
/// {
///   "version": 1,
///   "rules": ["nan-ordering", "..."],
///   "total": 2,
///   "counts": {"nan-ordering": 1, "lock-unwrap": 1},
///   "findings": [
///     {"file": "crates/x/src/lib.rs", "line": 3, "col": 7,
///      "rule": "nan-ordering", "message": "..."}
///   ]
/// }
/// ```
///
/// Ordering is deterministic (findings pre-sorted, counts in rule
/// order), so the report is byte-stable for a given tree.
#[must_use]
pub fn to_json(violations: &[Violation]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"version\": 1,\n  \"rules\": [");
    for (i, rule) in Rule::all().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push('"');
        s.push_str(rule.name());
        s.push('"');
    }
    s.push_str("],\n");
    let total = violations.len();
    s.push_str(&format!("  \"total\": {total},\n"));
    s.push_str("  \"counts\": {");
    let mut first = true;
    for rule in Rule::all() {
        let n = violations.iter().filter(|v| v.rule == *rule).count();
        if n == 0 {
            continue;
        }
        if !first {
            s.push_str(", ");
        }
        first = false;
        s.push_str(&format!("\"{}\": {n}", rule.name()));
    }
    s.push_str("},\n  \"findings\": [");
    for (i, v) in violations.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str("    {\"file\": ");
        json::push_string(&mut s, &path_str(&v.file));
        s.push_str(&format!(
            ", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": ",
            v.line,
            v.col,
            v.rule.name()
        ));
        json::push_string(&mut s, &v.message);
        s.push('}');
    }
    if !violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

/// Renders a path with forward slashes so reports are OS-independent.
fn path_str(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::{sort, to_json, Rule, Violation};
    use std::path::PathBuf;

    fn v(file: &str, line: u32, rule: Rule) -> Violation {
        Violation {
            file: PathBuf::from(file),
            line,
            col: 1,
            rule,
            message: "msg with \"quotes\" and \\slash".to_owned(),
        }
    }

    #[test]
    fn json_report_is_stable_and_escaped() {
        let mut vs = vec![
            v("b.rs", 2, Rule::LockUnwrap),
            v("a.rs", 9, Rule::MetricName),
            v("a.rs", 3, Rule::LockUnwrap),
        ];
        sort(&mut vs);
        let json = to_json(&vs);
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"total\": 3"));
        assert!(json.contains("\"lock-unwrap\": 2"));
        assert!(json.contains("\\\"quotes\\\""));
        let a3 = json.find("a.rs\", \"line\": 3").unwrap_or(usize::MAX);
        let a9 = json.find("a.rs\", \"line\": 9").unwrap_or(usize::MAX);
        assert!(a3 < a9, "{json}");
    }

    #[test]
    fn empty_report_has_empty_findings_array() {
        let json = to_json(&[]);
        assert!(json.contains("\"total\": 0"));
        assert!(json.contains("\"findings\": []"));
    }

    #[test]
    fn every_rule_has_name_and_policy() {
        assert_eq!(Rule::all().len(), 7);
        for rule in Rule::all() {
            assert!(!rule.name().is_empty());
            assert!(!rule.policy().is_empty());
        }
    }
}
