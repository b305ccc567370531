//! Metrics/observability contract: every `counter!`/`gauge!`/`stage!`
//! invocation in the workspace must use a well-formed, registered name.
//!
//! Two policies:
//!
//! - `metric-name` — the literal name passed to a metric macro must be a
//!   snake-case dotted path: at least two `.`-separated segments, each
//!   matching `[a-z][a-z0-9_]*`. Dashboards and alert routes key on
//!   these names; a camelCase or single-segment name silently forks the
//!   namespace.
//! - `metric-registry` — the name must appear in the checked-in registry
//!   (`OBS_registry.txt`) under the same kind, the registry must not
//!   list any name twice, and every registry entry must correspond to at
//!   least one call site (no stale entries). The registry is the review
//!   surface: adding a metric means touching a file a human reads.
//!
//! Registry format: one `counter <name>`, `gauge <name>` or
//! `stage <name>` declaration per line; `#` comments and blank lines are
//! ignored. Only string-literal names are checked — a computed name
//! cannot be verified statically and is reported as a `metric-name`
//! violation so it gets rewritten or annotated.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer::{SourceFile, TokenKind};
use crate::report::{Rule, Violation};
use crate::rules::emit;
use crate::stream::matching_close;

/// A metric macro family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// `counter!` — monotone event counts.
    Counter,
    /// `gauge!` — point-in-time levels.
    Gauge,
    /// `stage!` — pipeline stage spans.
    Stage,
}

impl MetricKind {
    fn from_ident(name: &str) -> Option<MetricKind> {
        match name {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "stage" => Some(MetricKind::Stage),
            _ => None,
        }
    }

    /// The registry keyword / macro name for this kind.
    #[must_use]
    pub const fn keyword(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Stage => "stage",
        }
    }
}

/// One metric-macro call site with a literal name.
#[derive(Debug, Clone)]
pub struct MetricUse {
    /// Metric name with the surrounding quotes stripped.
    pub name: String,
    /// Which macro family invoked it.
    pub kind: MetricKind,
    /// File of the call site (workspace-relative).
    pub file: PathBuf,
    /// 1-based line of the call site.
    pub line: u32,
}

/// Parsed `OBS_registry.txt`: name → (kind, registry line).
#[derive(Debug, Default)]
pub struct Registry {
    entries: BTreeMap<String, (MetricKind, u32)>,
}

impl Registry {
    /// Parses registry text; malformed or duplicate lines come back as
    /// `(line, message)` errors to report against the registry file.
    #[must_use]
    pub fn parse(text: &str) -> (Registry, Vec<(u32, String)>) {
        let mut reg = Registry::default();
        let mut errors = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = (idx + 1) as u32;
            let mut parts = line.split_whitespace();
            let kind = parts.next().and_then(MetricKind::from_ident);
            match (kind, parts.next(), parts.next()) {
                (Some(kind), Some(name), None) => {
                    if reg
                        .entries
                        .insert(name.to_owned(), (kind, lineno))
                        .is_some()
                    {
                        errors.push((lineno, format!("metric `{name}` registered twice")));
                    }
                }
                _ => errors.push((
                    lineno,
                    format!(
                        "unrecognized registry line `{line}` (want `counter|gauge|stage <name>`)"
                    ),
                )),
            }
        }
        (reg, errors)
    }
}

/// True when `name` is a snake-case dotted path with ≥ 2 segments.
#[must_use]
pub fn well_formed(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|seg| {
            let mut chars = seg.chars();
            chars.next().is_some_and(|c| c.is_ascii_lowercase())
                && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Scans one file for metric-macro call sites. Checks name style
/// inline; well-formed literal uses are appended to `uses` for the
/// workspace-level registry pass (a style violation suppresses the
/// registry check for that site, so one bad name yields one finding).
pub fn collect(file: &SourceFile, rel: &Path, uses: &mut Vec<MetricUse>, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || file.in_test(t.line) {
            continue;
        }
        let Some(kind) = MetricKind::from_ident(&t.text) else {
            continue;
        };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            continue;
        }
        let open = i + 2;
        if matching_close(toks, open).is_none() {
            continue;
        }
        let Some(first_arg) = toks.get(open + 1) else {
            continue;
        };
        if first_arg.kind != TokenKind::Str {
            emit(
                rel,
                t,
                Rule::MetricName,
                format!(
                    "`{}!` invoked with a non-literal name — metric names must \
                     be string literals so the registry check can see them",
                    kind.keyword()
                ),
                out,
            );
            continue;
        }
        // The lexer stores the unquoted literal body for every string
        // flavour, so the token text is the metric name itself.
        let name = first_arg.text.clone();
        if !well_formed(&name) {
            emit(
                rel,
                t,
                Rule::MetricName,
                format!(
                    "metric name `{name}` is not a snake-case dotted path — \
                     use at least two `.`-separated `[a-z][a-z0-9_]*` segments \
                     (e.g. `par.jobs_total`)"
                ),
                out,
            );
            continue;
        }
        uses.push(MetricUse {
            name,
            kind,
            file: rel.to_path_buf(),
            line: t.line,
        });
    }
}

/// Workspace-level registry reconciliation: every collected use must be
/// registered with the right kind, and every registry entry must have a
/// call site. `registry` is `None` when the registry file is missing.
pub fn check_registry(
    uses: &[MetricUse],
    registry: Option<&Registry>,
    registry_path: &Path,
    out: &mut Vec<Violation>,
) {
    let Some(registry) = registry else {
        if let Some(u) = uses.first() {
            out.push(Violation {
                file: u.file.clone(),
                line: u.line,
                col: 0,
                rule: Rule::MetricRegistry,
                message: format!(
                    "metric `{}` used but the workspace has no {} registry — \
                     create it and declare every metric",
                    u.name,
                    registry_path.display()
                ),
            });
        }
        return;
    };
    for u in uses {
        match registry.entries.get(&u.name) {
            None => out.push(Violation {
                file: u.file.clone(),
                line: u.line,
                col: 0,
                rule: Rule::MetricRegistry,
                message: format!(
                    "metric `{}` ({}) is not declared in {} — register it so \
                     dashboards and reviewers see the full namespace",
                    u.name,
                    u.kind.keyword(),
                    registry_path.display()
                ),
            }),
            Some((kind, reg_line)) if *kind != u.kind => out.push(Violation {
                file: u.file.clone(),
                line: u.line,
                col: 0,
                rule: Rule::MetricRegistry,
                message: format!(
                    "metric `{}` used as {} but registered as {} ({}:{})",
                    u.name,
                    u.kind.keyword(),
                    kind.keyword(),
                    registry_path.display(),
                    reg_line
                ),
            }),
            Some(_) => {}
        }
    }
    for (name, (kind, reg_line)) in &registry.entries {
        if !uses.iter().any(|u| &u.name == name) {
            out.push(Violation {
                file: registry_path.to_path_buf(),
                line: *reg_line,
                col: 0,
                rule: Rule::MetricRegistry,
                message: format!(
                    "registry entry `{name}` ({}) has no call site — remove \
                     the stale entry or restore the metric",
                    kind.keyword()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{check_registry, collect, well_formed, MetricKind, Registry};
    use crate::lexer::SourceFile;
    use crate::report::{Rule, Violation};
    use std::path::Path;

    fn run(source: &str, registry: Option<&str>) -> Vec<(Rule, String)> {
        let file = SourceFile::lex(source);
        let mut uses = Vec::new();
        let mut out: Vec<Violation> = Vec::new();
        collect(&file, Path::new("x.rs"), &mut uses, &mut out);
        let parsed = registry.map(|text| {
            let (reg, errs) = Registry::parse(text);
            assert!(errs.is_empty(), "{errs:?}");
            reg
        });
        check_registry(
            &uses,
            parsed.as_ref(),
            Path::new("OBS_registry.txt"),
            &mut out,
        );
        out.into_iter().map(|v| (v.rule, v.message)).collect()
    }

    #[test]
    fn name_style_is_enforced() {
        assert!(well_formed("core.decisions_total"));
        assert!(well_formed("core.score.baseline"));
        assert!(!well_formed("decisions"));
        assert!(!well_formed("core.Decisions"));
        assert!(!well_formed("core.9lives"));
        assert!(!well_formed("core..x"));
        // A style failure suppresses the registry pass for that site,
        // so one bad name yields exactly one finding.
        let bad = "fn f() { counter!(\"justOneWord\"); }\n";
        let out = run(bad, Some(""));
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].0, Rule::MetricName);
    }

    #[test]
    fn registry_reconciliation() {
        let src = "fn f() { counter!(\"par.jobs_total\"); gauge!(\"par.queue_depth\", 3); }\n";
        // All registered: clean.
        assert!(run(src, Some("counter par.jobs_total\ngauge par.queue_depth\n")).is_empty());
        // Unregistered use.
        let out = run(src, Some("counter par.jobs_total\n"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Rule::MetricRegistry);
        assert!(out[0].1.contains("par.queue_depth"));
        // Kind mismatch.
        let out = run(
            src,
            Some("counter par.jobs_total\ncounter par.queue_depth\n"),
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].1.contains("registered as counter"), "{out:?}");
        // Stale entry.
        let out = run(
            src,
            Some("counter par.jobs_total\ngauge par.queue_depth\nstage ghost.stage\n"),
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].1.contains("no call site"), "{out:?}");
        // Missing registry entirely.
        let out = run(src, None);
        assert_eq!(out.len(), 1);
        assert!(out[0].1.contains("no OBS_registry.txt registry"), "{out:?}");
    }

    #[test]
    fn non_literal_names_and_raw_strings() {
        let computed = "fn f(name: &str) { counter!(name); }\n";
        let out = run(computed, Some(""));
        assert_eq!(out.len(), 1);
        assert!(out[0].1.contains("non-literal"), "{out:?}");
        let raw = "fn f() { stage!(r\"music.scan\"); }\n";
        assert!(run(raw, Some("stage music.scan\n")).is_empty());
    }

    #[test]
    fn tests_comments_and_unrelated_idents_are_exempt() {
        let test_mod = "#[cfg(test)]\nmod tests {\n fn t() { counter!(\"x.y\"); }\n}\n";
        assert!(run(test_mod, Some("")).is_empty());
        // `counter` as a variable, no `!`: not a metric call.
        assert!(run("fn f() { let counter = 3; drop(counter); }\n", Some("")).is_empty());
        // macro_rules! definition site: `counter` followed by `{`.
        assert!(run("macro_rules! counter { ($n:expr) => {} }\n", Some("")).is_empty());
        // Doc/comment mentions never fire.
        assert!(run("// counter!(\"a.b\") increments a.b\n", Some("")).is_empty());
    }

    #[test]
    fn registry_rejects_duplicates_and_garbage() {
        let (reg, errs) = Registry::parse("counter a.b\ncounter a.b\nnonsense\n");
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(reg.entries.contains_key("a.b"));
        assert_eq!(reg.entries["a.b"].0, MetricKind::Counter);
    }
}
