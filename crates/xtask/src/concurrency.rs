//! Concurrency audit for the crates that own threads and locks
//! (`mpdf-par`, `mpdf-obs`, `mpdf-session`).
//!
//! Two policies:
//!
//! - `lock-order` — every syntactic `.lock()` acquisition in an audited
//!   crate must name a lock declared in the workspace manifest
//!   (`LOCK_ORDER.txt`), and two acquisitions inside one function must
//!   appear in manifest rank order. The check is syntactic and
//!   conservative: it sees acquisition *sites*, not guard lifetimes, so
//!   a function that sequentially takes a high-rank then a low-rank lock
//!   is flagged even if the first guard was dropped — reorder the code
//!   or annotate why the guards never overlap.
//! - `lock-unwrap` — a `.lock()` result must never be `unwrap`ped or
//!   `expect`ed in library code (any crate): poisoning must be recovered
//!   (`PoisonError::into_inner`) or surfaced as a typed error, because a
//!   panicking worker must not cascade into every sibling that touches
//!   the same mutex.
//!
//! Manifest format (`LOCK_ORDER.txt` at the workspace root): one
//! declaration per line, `lock <crate>.<receiver-ident>` in acquisition
//! order (rank = line position); `#` comments and blank lines are
//! ignored.

use std::path::Path;

use crate::lexer::{SourceFile, TokenKind};
use crate::report::{Rule, Violation};
use crate::rules::{emit, FileCtx};
use crate::stream::{after_call, is_method_call, receiver_of};

/// Crates subject to the `lock-order` audit.
pub const AUDIT_CRATES: &[&str] = &["par", "obs", "session"];

/// Parsed `LOCK_ORDER.txt`.
#[derive(Debug, Default)]
pub struct Manifest {
    /// Qualified lock names (`crate.receiver`) in acquisition order.
    locks: Vec<String>,
}

impl Manifest {
    /// Parses manifest text. Unrecognized lines are returned as errors
    /// (reported against the manifest file) rather than ignored, so a
    /// typo cannot silently un-declare a lock.
    #[must_use]
    pub fn parse(text: &str) -> (Manifest, Vec<(u32, String)>) {
        let mut m = Manifest::default();
        let mut errors = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = (idx + 1) as u32;
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some("lock"), Some(name), None) if name.contains('.') => {
                    if m.locks.iter().any(|l| l == name) {
                        errors.push((lineno, format!("duplicate lock `{name}`")));
                    } else {
                        m.locks.push(name.to_owned());
                    }
                }
                _ => errors.push((
                    lineno,
                    format!("unrecognized manifest line `{line}` (want `lock crate.name`)"),
                )),
            }
        }
        (m, errors)
    }

    /// Rank of a qualified lock name, if declared.
    #[must_use]
    pub fn lock_rank(&self, qualified: &str) -> Option<usize> {
        self.locks.iter().position(|l| l == qualified)
    }
}

/// Runs the concurrency audit over one file.
pub fn check(
    file: &SourceFile,
    rel: &Path,
    ctx: FileCtx<'_>,
    manifest: Option<&Manifest>,
    out: &mut Vec<Violation>,
) {
    let audited = AUDIT_CRATES.contains(&ctx.crate_name);
    let toks = &file.tokens;
    // Acquisition ranks seen in the current function, for order checks.
    let mut fn_acquisitions: Vec<(usize, usize)> = Vec::new(); // (rank, token idx)
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.is_ident("fn") {
            fn_acquisitions.clear();
            continue;
        }
        if file.in_test(t.line) {
            continue;
        }
        if t.is_ident("lock") && is_method_call(toks, i) {
            if ctx.is_library {
                check_lock_unwrap(file, rel, i, out);
            }
            if audited {
                check_lock_order(file, rel, ctx, manifest, i, &mut fn_acquisitions, out);
            }
        }
    }
}

fn check_lock_unwrap(file: &SourceFile, rel: &Path, i: usize, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    let Some(after) = after_call(toks, i) else {
        return;
    };
    if !toks.get(after).is_some_and(|t| t.is_punct('.')) {
        return;
    }
    let m = after + 1;
    let Some(term) = toks.get(m) else {
        return;
    };
    if (term.is_ident("unwrap") || term.is_ident("expect"))
        && toks.get(m + 1).is_some_and(|t| t.is_punct('('))
    {
        emit(
            rel,
            term,
            Rule::LockUnwrap,
            format!(
                "`.lock().{}(…)` in library code — recover poisoning with \
                 `unwrap_or_else(PoisonError::into_inner)` or return a typed \
                 error; a panicking sibling must not cascade",
                term.text
            ),
            out,
        );
    }
}

fn check_lock_order(
    file: &SourceFile,
    rel: &Path,
    ctx: FileCtx<'_>,
    manifest: Option<&Manifest>,
    i: usize,
    fn_acquisitions: &mut Vec<(usize, usize)>,
    out: &mut Vec<Violation>,
) {
    let toks = &file.tokens;
    let receiver = receiver_of(toks, i).map(|r| toks[r].text.clone());
    let Some(receiver) = receiver else {
        emit(
            rel,
            &toks[i],
            Rule::LockOrder,
            "cannot resolve this `.lock()` receiver to a named lock — bind \
             the lock to a named field/static so it can be declared in \
             LOCK_ORDER.txt"
                .to_owned(),
            out,
        );
        return;
    };
    let qualified = format!("{}.{receiver}", ctx.crate_name);
    let Some(manifest) = manifest else {
        emit(
            rel,
            &toks[i],
            Rule::LockOrder,
            format!(
                "lock `{qualified}` acquired but the workspace has no \
                 LOCK_ORDER.txt manifest — declare every audited lock there"
            ),
            out,
        );
        return;
    };
    let Some(rank) = manifest.lock_rank(&qualified) else {
        emit(
            rel,
            &toks[i],
            Rule::LockOrder,
            format!("lock `{qualified}` is not declared in LOCK_ORDER.txt"),
            out,
        );
        return;
    };
    if let Some(&(prev_rank, prev_idx)) = fn_acquisitions.last() {
        if rank < prev_rank {
            let prev = &toks[prev_idx];
            emit(
                rel,
                &toks[i],
                Rule::LockOrder,
                format!(
                    "lock `{qualified}` acquired after `{}` (line {}) against \
                     LOCK_ORDER.txt rank order — deadlock hazard; acquire in \
                     manifest order",
                    manifest.locks[prev_rank], prev.line
                ),
                out,
            );
        }
    }
    fn_acquisitions.push((rank, i));
}

#[cfg(test)]
mod tests {
    use super::{check, Manifest};
    use crate::lexer::SourceFile;
    use crate::report::Rule;
    use crate::rules::FileCtx;
    use std::path::Path;

    fn manifest() -> Manifest {
        let (m, errs) =
            Manifest::parse("# order matters\nlock par.state\nlock par.slots\nlock obs.out\n");
        assert!(errs.is_empty(), "{errs:?}");
        m
    }

    fn rules_of(source: &str, crate_name: &'static str, m: Option<&Manifest>) -> Vec<Rule> {
        let file = SourceFile::lex(source);
        let ctx = FileCtx {
            crate_name,
            is_library: true,
        };
        let mut out = Vec::new();
        check(&file, Path::new("x.rs"), ctx, m, &mut out);
        out.into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn manifest_parses_and_rejects_garbage() {
        let (m, errs) =
            Manifest::parse("lock par.state\nchannel par.work\nbogus line\nlock par.state\n");
        assert_eq!(m.lock_rank("par.state"), Some(0));
        // Channels are no longer declared: the line is refused.
        let lines: Vec<u32> = errs.iter().map(|e| e.0).collect();
        assert_eq!(lines, [2, 3, 4], "{errs:?}");
    }

    #[test]
    fn declared_in_order_locks_pass() {
        let m = manifest();
        let src = "fn f(&self) {\n let a = self.state.lock();\n let b = self.slots.lock();\n drop((a, b));\n}\n";
        assert!(rules_of(src, "par", Some(&m)).is_empty());
    }

    #[test]
    fn out_of_order_and_undeclared_locks_fire() {
        let m = manifest();
        let out_of_order =
            "fn f(&self) {\n let b = self.slots.lock();\n let a = self.state.lock();\n drop((a, b));\n}\n";
        assert_eq!(
            rules_of(out_of_order, "par", Some(&m)),
            vec![Rule::LockOrder]
        );
        // Same ranks in different functions: no violation.
        let two_fns =
            "fn g(&self) { let b = self.slots.lock(); drop(b); }\nfn h(&self) { let a = self.state.lock(); drop(a); }\n";
        assert!(rules_of(two_fns, "par", Some(&m)).is_empty());
        let undeclared = "fn f(&self) { let g = self.rogue.lock(); drop(g); }\n";
        assert_eq!(rules_of(undeclared, "par", Some(&m)), vec![Rule::LockOrder]);
        // No manifest at all: every audited acquisition fires.
        assert_eq!(rules_of(undeclared, "par", None), vec![Rule::LockOrder]);
        // Outside the audit scope, lock-order does not apply.
        assert!(rules_of(undeclared, "music", Some(&m)).is_empty());
    }

    #[test]
    fn lock_unwrap_fires_everywhere_in_library_code() {
        let m = manifest();
        let unwrap = "fn f(&self) { let g = self.state.lock().unwrap(); drop(g); }\n";
        assert_eq!(rules_of(unwrap, "par", Some(&m)), vec![Rule::LockUnwrap]);
        // Also outside audited crates (music keeps a steering cache).
        let expect = "fn f(&self) { let g = CACHE.lock().expect(\"poisoned\"); drop(g); }\n";
        assert_eq!(rules_of(expect, "music", Some(&m)), vec![Rule::LockUnwrap]);
        let recovered =
            "fn f(&self) { let g = self.state.lock().unwrap_or_else(PoisonError::into_inner); drop(g); }\n";
        assert!(rules_of(recovered, "par", Some(&m)).is_empty());
    }
}
