//! The shared scanning entry point for the lint engine: a std-only Rust
//! lexer producing a flat token stream with line/column spans.
//!
//! Every rule pass consumes [`SourceFile`], never raw text, so string
//! literals, char literals, raw strings and comments can never produce
//! false positives, and multi-line constructs (a `partial_cmp` whose
//! `.unwrap()` lands four rustfmt-wrapped lines later) can never produce
//! false negatives. The lexer also derives the one side table the rules
//! need: the line ranges covered by `#[cfg(test)]` items.
//!
//! The grammar subset is deliberately small — identifiers, lifetimes,
//! string/raw-string/byte-string/char/numeric literals, single-character
//! punctuation, line and (nested) block comments. Multi-character
//! operators arrive as adjacent punct tokens (`::` is `:` `:`), which is
//! sufficient for every rule and keeps the lexer total: any input lexes.

/// Token classification. The lint rules only branch on this plus the
/// token text, so the set is intentionally coarse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#raw_ident` minus `r#`).
    Ident,
    /// Lifetime (`'a`), text excludes the quote.
    Lifetime,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`); text is
    /// the literal contents without quotes/hashes/prefix, escapes kept
    /// verbatim.
    Str,
    /// Char or byte literal; contents are not preserved.
    Char,
    /// Numeric literal (integers, floats; exponent signs lex separately).
    Num,
    /// A single punctuation character.
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Coarse classification.
    pub kind: TokenKind,
    /// Token text (see [`TokenKind`] for per-kind conventions).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based character column of the token's first character.
    pub col: u32,
}

impl Token {
    /// True when the token is the given single punctuation character.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True when the token is an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }
}

/// A lexed source file: the token stream plus the `#[cfg(test)]` line
/// ranges every rule pass shares.
#[derive(Debug)]
pub struct SourceFile {
    /// All tokens in source order. Comments are skipped.
    pub tokens: Vec<Token>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes `source`. Total: malformed input degrades to punct tokens,
    /// it never fails.
    #[must_use]
    pub fn lex(source: &str) -> SourceFile {
        let mut lx = Lexer::new(source);
        lx.run();
        let test_ranges = cfg_test_ranges(&lx.tokens);
        SourceFile {
            tokens: lx.tokens,
            test_ranges,
        }
    }

    /// Whether `line` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
}

impl Lexer {
    fn new(source: &str) -> Lexer {
        Lexer {
            chars: source.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Consumes one char, maintaining the line/col cursor.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        self.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line, col),
                'r' | 'b' if self.raw_or_byte_prefix() => {}
                '\'' => self.char_or_lifetime(line, col),
                c if c.is_alphabetic() || c == '_' => self.ident(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                c => {
                    self.bump();
                    self.push(TokenKind::Punct, c.to_string(), line, col);
                }
            }
        }
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// Cooked string literal: `"…"` with backslash escapes, may span
    /// lines. The opening quote is already at the cursor.
    fn string(&mut self, line: u32, col: u32) {
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '"' {
                self.bump();
                break;
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::Str, text, line, col);
    }

    /// Handles the `r`/`b` prefixed literal family (`r"…"`, `r#"…"#`,
    /// `b"…"`, `br#"…"#`, `b'…'`, `r#ident`). Returns true when it
    /// consumed something; false means the caller should lex a plain
    /// identifier starting at the cursor.
    fn raw_or_byte_prefix(&mut self) -> bool {
        let (line, col) = (self.line, self.col);
        let first = self.peek(0);
        let mut j = 1usize;
        if first == Some('b') && self.peek(1) == Some('r') {
            j = 2;
        }
        // Count hashes after the prefix.
        let mut hashes = 0usize;
        while self.peek(j + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(j + hashes) {
            Some('"') if first == Some('r') || j == 2 || hashes == 0 => {
                // Raw/byte string. (`b"…"` has j=1, hashes=0.)
                for _ in 0..j + hashes + 1 {
                    self.bump();
                }
                let mut text = String::new();
                while let Some(c) = self.peek(0) {
                    if c == '"' && (1..=hashes).all(|k| self.peek(k) == Some('#')) {
                        for _ in 0..=hashes {
                            self.bump();
                        }
                        break;
                    }
                    text.push(c);
                    self.bump();
                }
                self.push(TokenKind::Str, text, line, col);
                true
            }
            Some('\'') if first == Some('b') && j == 1 && hashes == 0 => {
                // Byte char literal `b'x'`.
                self.bump();
                self.char_or_lifetime(line, col);
                true
            }
            Some(c) if first == Some('r') && j == 1 && hashes == 1 && is_ident_start(c) => {
                // Raw identifier `r#ident`: token text is the bare name.
                self.bump();
                self.bump();
                self.ident(line, col);
                true
            }
            _ => false,
        }
    }

    /// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal).
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        self.bump(); // the opening quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume to the closing quote.
                self.bump();
                self.bump();
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokenKind::Char, String::new(), line, col);
            }
            Some(c) if is_ident_start(c) && self.peek(1) != Some('\'') => {
                // Lifetime: `'` followed by an ident not closed by `'`.
                let mut name = String::new();
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        name.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokenKind::Lifetime, name, line, col);
            }
            Some(_) => {
                // Plain char literal `'x'` (any single char, incl. `'''`).
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokenKind::Char, String::new(), line, col);
            }
            None => self.push(TokenKind::Punct, "'".to_owned(), line, col),
        }
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line, col);
    }

    /// Numeric literal. Exponent signs and type suffixes split into
    /// separate tokens (`1.0e-3` → `1.0e` `-` `3`), which no rule cares
    /// about; what matters is that `1.0` never lexes `.` as punct (that
    /// would confuse method-call detection).
    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let in_number = c.is_alphanumeric()
                || c == '_'
                || (c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()));
            if in_number {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Num, text, line, col);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// Finds the inclusive line ranges of items behind a `#[cfg(test)]`
/// attribute: from the attribute line through the matching close brace
/// of the next `{…}` block (an attribute followed by `;` before any
/// brace opens no region).
fn cfg_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Match the attribute's closing bracket.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut saw_cfg = false;
        let mut saw_test = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("cfg") {
                saw_cfg = true;
            } else if t.is_ident("test") {
                saw_test = true;
            }
            j += 1;
        }
        if !(saw_cfg && saw_test) || j >= tokens.len() {
            i = j.max(i + 1);
            continue;
        }
        // Attribute matched: find the item's block (or bail at `;`).
        let mut k = j + 1;
        while k < tokens.len() && !(tokens[k].is_punct('{') || tokens[k].is_punct(';')) {
            k += 1;
        }
        if k < tokens.len() && tokens[k].is_punct('{') {
            let mut braces = 0i32;
            let mut m = k;
            while m < tokens.len() {
                if tokens[m].is_punct('{') {
                    braces += 1;
                } else if tokens[m].is_punct('}') {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                }
                m += 1;
            }
            let end_line = tokens.get(m).map_or(u32::MAX, |t| t.line);
            out.push((start_line, end_line));
            i = m.max(i + 1);
        } else {
            i = k.max(i + 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{SourceFile, TokenKind};

    fn idents(src: &str) -> Vec<String> {
        SourceFile::lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_are_not_tokens() {
        let ids = idents("let x = \"a.unwrap()\"; // trailing .unwrap()\nlet y = 1;\n");
        assert_eq!(ids, ["let", "x", "let", "y"]);
    }

    #[test]
    fn multi_line_strings_are_one_token() {
        let f = SourceFile::lex("let s = \"line one\n  panic!() two\";\nlet t = 1;\n");
        assert!(!f.tokens.iter().any(|t| t.is_ident("panic")));
        assert!(f.tokens.iter().any(|t| t.is_ident("t") && t.line == 3));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let f = SourceFile::lex("let s = r#\"panic!(\"x\")\"#; let r#fn = 1;\n");
        assert!(!f.tokens.iter().any(|t| t.is_ident("panic")));
        assert!(f.tokens.iter().any(|t| t.is_ident("fn")));
        let g = SourceFile::lex("let b = br#\"todo!()\"#; let c = b\"expect\";\n");
        assert!(!g.tokens.iter().any(|t| t.is_ident("todo")));
        assert!(!g.tokens.iter().any(|t| t.is_ident("expect")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let f = SourceFile::lex("fn f<'a>(x: &'a str) -> char { 'x' }\n");
        assert_eq!(
            f.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(
            f.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            1
        );
        let g = SourceFile::lex("let c = '\\''; let q = '\"'; let d = 2;\n");
        assert!(g.tokens.iter().any(|t| t.is_ident("d")));
        assert_eq!(
            g.tokens.iter().filter(|t| t.kind == TokenKind::Str).count(),
            0
        );
    }

    #[test]
    fn nested_block_comments() {
        let f = SourceFile::lex("a /* one /* two */ still */ b\n/* open\nunwrap()\n*/ c\n");
        assert!(f.tokens.iter().any(|t| t.is_ident("a")));
        assert!(f.tokens.iter().any(|t| t.is_ident("b")));
        assert!(f.tokens.iter().any(|t| t.is_ident("c")));
        assert!(!f.tokens.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn float_literals_do_not_emit_dot_puncts() {
        let f = SourceFile::lex("let x = 1.5 + v.norm();\n");
        let dots: Vec<_> = f.tokens.iter().filter(|t| t.is_punct('.')).collect();
        assert_eq!(dots.len(), 1, "only the method-call dot: {dots:?}");
    }

    #[test]
    fn spans_are_one_based_and_accurate() {
        let f = SourceFile::lex("fn main() {\n    x.unwrap();\n}\n");
        let unwrap = f.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!((unwrap.line, unwrap.col), (2, 7));
    }

    #[test]
    fn cfg_test_ranges_cover_the_braced_item() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::lex(src);
        assert!(!f.in_test(1));
        assert!(f.in_test(2) && f.in_test(4) && f.in_test(5));
        assert!(!f.in_test(6));
    }

    #[test]
    fn cfg_test_on_use_statement_opens_no_region() {
        let f = SourceFile::lex("#[cfg(test)]\nuse foo::bar;\nfn f() {}\n");
        assert!(!f.in_test(3));
    }

    #[test]
    fn cfg_all_test_counts_as_test() {
        let f = SourceFile::lex("#[cfg(all(test, feature = \"x\"))]\nmod t {\n fn a() {}\n}\n");
        assert!(f.in_test(3));
    }
}
