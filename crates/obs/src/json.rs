//! The workspace's one JSON format module: a string writer for every
//! exporter and a minimal tree reader for every tool that reads JSON back.
//!
//! Everything the workspace emits as JSON — metric snapshots
//! ([`crate::metrics`]), trajectories ([`crate::trajectory`]), span
//! events ([`crate::trace`]), trace reports ([`crate::profile`]) and the
//! `xtask lint --json` report — escapes its strings with [`push_string`],
//! and everything that reads JSON — the NDJSON span reader, `bench-diff`,
//! `obs-diff` — goes through [`parse_string`] / [`parse_document`]. One
//! writer and one reader means the repo can always read back what it
//! writes. Std-only, so the offline xtask gate can use it too.
//!
//! The reader is for the repo's own artifacts and for untrusted files
//! alike: it never panics, and nesting deeper than [`MAX_DEPTH`] is an
//! error rather than unbounded recursion. Values the tools don't need
//! (booleans, null) collapse to [`Json::Other`].

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse_value`] accepts. The repo's own
/// documents nest at most four levels; the cap keeps a hostile input
/// such as `[[[[…` from overflowing the stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
pub enum Json {
    /// A number (all JSON numbers read as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
    /// `true` / `false` / `null` — present but uninteresting.
    Other,
}

/// Appends `s` to `out` as a quoted JSON string literal. Escapes `"`,
/// `\`, `\n`, `\r` and `\t`, and writes every other C0 control
/// character as `\u00xx`; everything else is copied as is.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // Writing into a `String` cannot fail.
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON value at the start of `s`, returning it and the
/// unconsumed remainder.
///
/// # Errors
/// A description of the first malformed construct, or nesting deeper
/// than [`MAX_DEPTH`].
pub fn parse_value(s: &str) -> Result<(Json, &str), String> {
    parse_nested(s, 0)
}

/// Parses a whole document: one top-level value with nothing after it.
///
/// # Errors
/// Malformed JSON or trailing data.
pub fn parse_document(text: &str) -> Result<Json, String> {
    let (value, rest) = parse_value(text.trim_start())?;
    if !rest.trim_start().is_empty() {
        return Err("trailing data after top-level JSON value".to_owned());
    }
    Ok(value)
}

/// [`parse_value`] inside `depth` enclosing arrays/objects.
fn parse_nested(s: &str, depth: usize) -> Result<(Json, &str), String> {
    let s = s.trim_start();
    match s.as_bytes().first() {
        Some(b'[' | b'{') if depth >= MAX_DEPTH => {
            Err(format!("JSON nested deeper than {MAX_DEPTH} levels"))
        }
        Some(b'[') => parse_array(s, depth + 1),
        Some(b'{') => parse_object(s, depth + 1),
        Some(b'"') => {
            let (string, rest) = parse_string(s)?;
            Ok((Json::Str(string), rest))
        }
        Some(b't') => parse_literal(s, "true"),
        Some(b'f') => parse_literal(s, "false"),
        Some(b'n') => parse_literal(s, "null"),
        Some(_) => parse_number(s),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_literal<'a>(s: &'a str, lit: &str) -> Result<(Json, &'a str), String> {
    s.strip_prefix(lit)
        .map(|rest| (Json::Other, rest))
        .ok_or_else(|| format!("invalid literal near `{}`", truncated(s)))
}

fn parse_array(s: &str, depth: usize) -> Result<(Json, &str), String> {
    let mut rest = skip_expected(s, '[')?;
    let mut items = Vec::new();
    loop {
        rest = rest.trim_start();
        if let Ok(after) = skip_expected(rest, ']') {
            return Ok((Json::Arr(items), after));
        }
        if !items.is_empty() {
            rest = skip_expected(rest, ',')?;
        }
        let (value, after) = parse_nested(rest, depth)?;
        items.push(value);
        rest = after;
    }
}

fn parse_object(s: &str, depth: usize) -> Result<(Json, &str), String> {
    let mut rest = skip_expected(s, '{')?;
    let mut fields = Vec::new();
    loop {
        rest = rest.trim_start();
        if let Ok(after) = skip_expected(rest, '}') {
            return Ok((Json::Obj(fields), after));
        }
        if !fields.is_empty() {
            rest = skip_expected(rest, ',')?;
        }
        let (key, after) = parse_string(rest.trim_start())?;
        rest = skip_expected(after.trim_start(), ':')?;
        let (value, after) = parse_nested(rest, depth)?;
        fields.push((key, value));
        rest = after;
    }
}

/// Parses a leading JSON string literal, returning the unescaped body
/// and the remainder after the closing quote. Reads every escape
/// [`push_string`] writes plus `\/`, `\b` and `\f`; a `\uXXXX` escape
/// must name a scalar value (surrogates are refused).
///
/// # Errors
/// Unterminated strings, unknown escapes, bad hex digits or a
/// surrogate code point.
pub fn parse_string(s: &str) -> Result<(String, &str), String> {
    let rest = skip_expected(s, '"')?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &rest[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let digit = chars.next().and_then(|(_, h)| h.to_digit(16));
                        code = code * 16 + digit.ok_or("bad hex digit in `\\u` escape")?;
                    }
                    let c = char::from_u32(code)
                        .ok_or_else(|| format!("surrogate `\\u{code:04x}` in string"))?;
                    out.push(c);
                }
                Some((_, other)) => {
                    return Err(format!("unsupported string escape `\\{other}`"));
                }
                None => return Err("unterminated string escape".to_owned()),
            },
            _ => out.push(c),
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_number(s: &str) -> Result<(Json, &str), String> {
    let end = s
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(s.len());
    let (num, rest) = s.split_at(end);
    num.parse::<f64>()
        .map(|n| (Json::Num(n), rest))
        .map_err(|_| format!("invalid number near `{}`", truncated(s)))
}

fn skip_expected(s: &str, c: char) -> Result<&str, String> {
    s.trim_start()
        .strip_prefix(c)
        .ok_or_else(|| format!("expected `{c}` near `{}`", truncated(s)))
}

fn truncated(s: &str) -> &str {
    let end = s.char_indices().nth(24).map_or_else(|| s.len(), |(i, _)| i);
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_handles_special_chars() {
        let mut out = String::new();
        push_string(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, format!("\"{}\"", "a\\\"b\\\\c\\nd\\te\\u0001"));
    }

    #[test]
    fn every_escape_parses_back() {
        let (s, rest) = parse_string(r#""\"\\\/\n\t\r\b\fA\u00e9" tail"#).expect("valid");
        assert_eq!(s, "\"\\/\n\t\r\u{8}\u{c}Aé");
        assert_eq!(rest, " tail");
    }

    #[test]
    fn bad_escapes_are_errors_not_panics() {
        for bad in [
            r#""\u12""#,
            r#""\u12g4""#,
            r#""\u+123""#,
            r#""\ud800""#,
            r#""\udfff""#,
            r#""\x""#,
            r#""\u00é9""#,
            "\"\\u",
            "\"\\",
            "\"open",
        ] {
            assert!(parse_string(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_document(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_document(&nest(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse_document(&objects).is_err());
        assert!(parse_document(&"[".repeat(100_000)).is_err());
    }
}
