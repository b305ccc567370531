//! The token-level rules of the original set that clippy cannot say:
//! `nan-ordering` (a NaN-unsafe terminal any number of rustfmt-wrapped
//! lines after a `partial_cmp`), `db-linear` (unit confusion read from
//! identifier suffixes) and `macro-body` (panicking and printing calls in
//! library `macro_rules!` bodies: clippy's `panic`, `unwrap_used`,
//! `expect_used` and `print_*` lints stay silent on code expanded from a
//! local macro). Strings are single opaque tokens, so a pattern inside a
//! literal never fires.

use std::path::Path;

use crate::lexer::{SourceFile, Token, TokenKind};
use crate::report::{Rule, Violation};
use crate::stream::{after_call, is_method_call, matching_close};

/// How a file is classified before rules run.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx<'a> {
    /// Crate directory name (`rfmath`, `core`, …) or `"workspace"` for
    /// the umbrella crate.
    pub crate_name: &'a str,
    /// Library code (`macro-body` and `lock-unwrap` apply) vs binary
    /// entry point.
    pub is_library: bool,
}

/// Pushes a violation at a token.
pub fn emit(rel: &Path, tok: &Token, rule: Rule, message: String, out: &mut Vec<Violation>) {
    out.push(Violation {
        file: rel.to_path_buf(),
        line: tok.line,
        col: tok.col,
        rule,
        message,
    });
}

/// Runs `nan-ordering`, `db-linear` and, in library code, `macro-body`.
pub fn check(file: &SourceFile, rel: &Path, ctx: FileCtx<'_>, out: &mut Vec<Violation>) {
    check_nan_ordering(file, rel, out);
    if ctx.is_library {
        check_macro_bodies(file, rel, out);
    }
    for i in 0..file.tokens.len() {
        if !file.in_test(file.tokens[i].line) {
            check_db_linear(file, rel, i, out);
        }
    }
}

fn next_is_bang(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
}

/// Macros whose call panics or writes a process stream.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];
const PRINT_MACROS: &[&str] = &["print", "println", "eprint", "eprintln"];

/// Flags `.unwrap()`, `.expect(…)`, the panic macros and the print
/// macros inside each `macro_rules!` body outside `#[cfg(test)]`.
fn check_macro_bodies(file: &SourceFile, rel: &Path, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    let mut i = 0;
    while i < toks.len() {
        // `macro_rules ! name {…}`: the body opens three tokens on.
        let body = (toks[i].is_ident("macro_rules")
            && next_is_bang(toks, i)
            && !file.in_test(toks[i].line))
        .then(|| matching_close(toks, i + 3))
        .flatten();
        let Some(close) = body else {
            i += 1;
            continue;
        };
        for (j, t) in toks.iter().enumerate().take(close).skip(i + 4) {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let name = t.text.as_str();
            let shown = if matches!(name, "unwrap" | "expect") && is_method_call(toks, j) {
                format!(".{name}()")
            } else if (PANIC_MACROS.contains(&name) || PRINT_MACROS.contains(&name))
                && next_is_bang(toks, j)
            {
                format!("{name}!")
            } else {
                continue;
            };
            emit(
                rel,
                t,
                Rule::MacroBody,
                format!(
                    "`{shown}` in a library `macro_rules!` body, where clippy \
                     does not see it — return an error, or call a function \
                     that carries `#[expect(clippy::…, reason = \"…\")]`"
                ),
                out,
            );
        }
        i = close + 1;
    }
}

/// Walks `.partial_cmp(..)` result chains for a NaN-unsafe terminal:
/// `.unwrap()` or `.unwrap_or(…Ordering::Equal)`, any number of
/// intermediate combinators and lines away.
fn check_nan_ordering(file: &SourceFile, rel: &Path, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("partial_cmp") && is_method_call(toks, i)) {
            continue;
        }
        if file.in_test(toks[i].line) {
            continue;
        }
        // Walk the method chain hanging off the partial_cmp call.
        let mut cur = after_call(toks, i);
        while let Some(j) = cur {
            if !toks.get(j).is_some_and(|t| t.is_punct('.')) {
                break;
            }
            let m = j + 1;
            if !toks.get(m).is_some_and(|t| t.kind == TokenKind::Ident)
                || !toks.get(m + 1).is_some_and(|t| t.is_punct('('))
            {
                break;
            }
            let name = toks[m].text.as_str();
            let unsafe_terminal = match name {
                "unwrap" => true,
                "unwrap_or" => {
                    let close = matching_close(toks, m + 1).unwrap_or(m + 1);
                    toks[m + 1..close].iter().any(|t| t.is_ident("Equal"))
                }
                _ => false,
            };
            if unsafe_terminal {
                emit(
                    rel,
                    &toks[i],
                    Rule::NanOrdering,
                    "NaN-unsafe float ordering — use `f64::total_cmp` \
                     (a NaN here silently reorders or panics the sort)"
                        .to_owned(),
                    out,
                );
                break;
            }
            cur = after_call(toks, m);
        }
    }
}

/// Identifier suffixes treated as logarithmic quantities.
const DB_SUFFIXES: &[&str] = &["_db", "_dbm"];
/// Identifier suffixes treated as linear power/amplitude quantities.
const LINEAR_SUFFIXES: &[&str] = &[
    "_mw",
    "_watts",
    "_lin",
    "_linear",
    "_power",
    "_pow",
    "_amp",
    "_amplitude",
    "_mag",
    "_magnitude",
];

fn has_suffix(ident: &str, suffixes: &[&str]) -> bool {
    let lower = ident.to_ascii_lowercase();
    suffixes.iter().any(|s| lower.ends_with(s))
}

fn check_db_linear(file: &SourceFile, rel: &Path, i: usize, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    let t = &toks[i];
    if !(t.is_punct('*') || t.is_punct('/')) {
        return;
    }
    let Some(lhs) = i.checked_sub(1).map(|p| &toks[p]) else {
        return;
    };
    let Some(rhs) = toks.get(i + 1) else {
        return;
    };
    if lhs.kind != TokenKind::Ident || rhs.kind != TokenKind::Ident {
        return;
    }
    let mixes = (has_suffix(&lhs.text, DB_SUFFIXES) && has_suffix(&rhs.text, LINEAR_SUFFIXES))
        || (has_suffix(&lhs.text, LINEAR_SUFFIXES) && has_suffix(&rhs.text, DB_SUFFIXES));
    if mixes {
        emit(
            rel,
            t,
            Rule::DbLinear,
            format!(
                "`{} {} {}` multiplies/divides a dB quantity with a linear \
                 one — convert with `db_to_linear`/`linear_to_db` first",
                lhs.text, t.text, rhs.text
            ),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::{check, FileCtx};
    use crate::lexer::SourceFile;
    use crate::report::Rule;
    use std::path::Path;

    fn lib_ctx() -> FileCtx<'static> {
        FileCtx {
            crate_name: "core",
            is_library: true,
        }
    }

    fn rules_of(source: &str, ctx: FileCtx<'_>) -> Vec<Rule> {
        let file = SourceFile::lex(source);
        let mut out = Vec::new();
        check(&file, Path::new("x.rs"), ctx, &mut out);
        out.into_iter().map(|v| v.rule).collect()
    }

    // ---- macro-body ----

    #[test]
    fn macro_body_flags_panics_and_prints_clippy_cannot_see() {
        for body in [
            "$x.unwrap()",
            "$x.expect(\"boom\")",
            "panic!(\"boom\")",
            "todo!()",
            "unimplemented!()",
            "println!(\"{}\", $x)",
            "eprint!(\"x\")",
        ] {
            let src = format!("macro_rules! m {{\n    ($x:expr) => {{ {body} }};\n}}\n");
            assert_eq!(rules_of(&src, lib_ctx()), vec![Rule::MacroBody], "{src}");
        }
        // Every site in a body is reported, at its own line.
        let src = "macro_rules! m {\n    ($x:expr) => {{\n        println!(\"in\");\n        $x.unwrap()\n    }};\n}\n";
        let file = SourceFile::lex(src);
        let mut out = Vec::new();
        check(&file, Path::new("x.rs"), lib_ctx(), &mut out);
        let lines: Vec<u32> = out.iter().map(|v| v.line).collect();
        assert_eq!(lines, [3, 4], "{out:?}");
    }

    #[test]
    fn macro_body_leaves_clippys_ground_and_exempt_code_alone() {
        for src in [
            // Outside a macro body clippy's own lints apply.
            "fn f() { x.unwrap(); panic!(\"x\"); println!(\"x\"); }\n",
            // Total methods, strings and comments.
            "macro_rules! m { ($x:expr) => { $x.unwrap_or(0) }; }\n",
            "macro_rules! m { () => { \"x.unwrap()\" }; }\n",
            "macro_rules! m { () => { 1 // panic!()\n }; }\n",
            // A test-only macro.
            "#[cfg(test)]\nmod tests {\n macro_rules! m { ($x:expr) => { $x.unwrap() }; }\n}\n",
        ] {
            assert!(rules_of(src, lib_ctx()).is_empty(), "{src}");
        }
        let binary = FileCtx {
            is_library: false,
            ..lib_ctx()
        };
        let src = "macro_rules! m { ($x:expr) => { $x.unwrap() }; }\n";
        assert!(rules_of(src, binary).is_empty());
    }

    // ---- nan-ordering ----

    #[test]
    fn nan_ordering_flags_partial_cmp_unwrap_and_equal_fallback() {
        let unwrap = "fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert_eq!(rules_of(unwrap, lib_ctx()), vec![Rule::NanOrdering]);
        let fallback =
            "fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal)); }\n";
        assert_eq!(rules_of(fallback, lib_ctx()), vec![Rule::NanOrdering]);
        let qualified =
            "fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }\n";
        assert_eq!(rules_of(qualified, lib_ctx()), vec![Rule::NanOrdering]);
    }

    #[test]
    fn nan_ordering_catches_distant_multiline_unwrap() {
        // Four wrapped lines between partial_cmp and unwrap: outside the
        // old scanner's 3-line window, trivial for the chain walk.
        let src = "fn f() {\n    v.sort_by(|a, b| {\n        a.score\n            .partial_cmp(&b.score)\n            .map(core::convert::identity)\n            .map(core::convert::identity)\n            .map(core::convert::identity)\n            .unwrap()\n    });\n}\n";
        assert_eq!(rules_of(src, lib_ctx()), vec![Rule::NanOrdering]);
    }

    #[test]
    fn nan_ordering_accepts_total_cmp_and_handled_partial_cmp() {
        let total = "fn f() { v.sort_by(f64::total_cmp); }\n";
        assert!(rules_of(total, lib_ctx()).is_empty());
        let handled = "fn f() -> Option<Ordering> { a.partial_cmp(&b) }\n";
        assert!(rules_of(handled, lib_ctx()).is_empty());
        let less = "fn f() { let o = a.partial_cmp(&b).unwrap_or(Ordering::Less); drop(o); }\n";
        assert!(rules_of(less, lib_ctx()).is_empty());
    }

    // ---- db-linear ----

    #[test]
    fn db_linear_flags_mixed_arithmetic() {
        for src in [
            "fn f() { let x = gain_db * noise_power; }\n",
            "fn f() { let x = signal_mw / loss_db; }\n",
            "fn f() { let x = rssi_dbm * amplitude_mag; }\n",
        ] {
            assert_eq!(rules_of(src, lib_ctx()), vec![Rule::DbLinear], "{src}");
        }
    }

    #[test]
    fn db_linear_accepts_scalars_and_same_unit_math() {
        for src in [
            "fn f() { let x = gain_db * 0.5; }\n",
            "fn f() { let x = gain_db - other_db; }\n",
            "fn f() { let x = signal_mw * path_gain_lin; }\n",
            "fn f() { let x = gain_db / 10.0; }\n",
        ] {
            assert!(rules_of(src, lib_ctx()).is_empty(), "{src}");
        }
    }
}
