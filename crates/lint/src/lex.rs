//! A small lexical front-end: scrub comments and literals out of Rust
//! source (preserving byte offsets and line structure) and collect
//! `// diesel-lint: allow(...)` suppression directives along the way.
//!
//! Every comment, string, char and lifetime quirk is blanked to spaces,
//! which makes the token scans immune to `".lock()"`-in-a-string false
//! positives while keeping line numbers exact; the build stays
//! dependency-free.

use crate::Rule;

/// One `// diesel-lint: allow(<rules>) <reason>` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// 1-based line the comment sits on. It suppresses findings on this
    /// line and on the following line (so it can trail the offending
    /// expression or sit on its own line above it).
    pub line: usize,
    /// Rules named inside `allow(...)`.
    pub rules: Vec<Rule>,
    /// Whether any justification text follows the closing paren.
    /// Reason-free suppressions are themselves reported.
    pub has_reason: bool,
}

/// Source with comments/strings blanked, plus the directives found.
#[derive(Debug)]
pub struct Scrubbed {
    /// Same length and line structure as the input; comment and literal
    /// bodies replaced by spaces.
    pub code: String,
    /// All suppression directives, in line order.
    pub suppressions: Vec<Suppression>,
}

/// Scrub `src`. Never fails: malformed source degrades to blanking the
/// rest of the file, which can only hide findings in unparseable code.
pub fn scrub(src: &str) -> Scrubbed {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut suppressions = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Keep newlines so line numbers survive scrubbing.
    macro_rules! keep_nl {
        ($idx:expr) => {
            if b[$idx] == b'\n' {
                out[$idx] = b'\n';
                line += 1;
            }
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                if let Some(s) = parse_directive(text, line) {
                    suppressions.push(s);
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        keep_nl!(i);
                        i += 1;
                    }
                }
            }
            b'"' => {
                out[i] = b'"';
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        keep_nl!(i + 1);
                        i += 2;
                        continue;
                    }
                    if b[i] == b'"' {
                        out[i] = b'"';
                        i += 1;
                        break;
                    }
                    keep_nl!(i);
                    i += 1;
                }
            }
            b'r' | b'b' if is_literal_prefix(b, i) => {
                i = scrub_prefixed_literal(b, i, &mut out, &mut line);
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes with `'`
                // within a couple of characters; a lifetime never closes.
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    // Escaped char literal: skip to the closing quote.
                    out[i] = b'\'';
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        keep_nl!(i);
                        i += 1;
                    }
                    if i < b.len() {
                        out[i] = b'\'';
                        i += 1;
                    }
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    out[i] = b'\'';
                    out[i + 2] = b'\'';
                    keep_nl!(i + 1);
                    i += 3;
                } else {
                    // Lifetime (or stray quote): drop the quote only.
                    i += 1;
                }
            }
            _ => {
                if c == b'\n' {
                    out[i] = b'\n';
                    line += 1;
                } else {
                    out[i] = c;
                }
                i += 1;
            }
        }
    }

    // `out` was built from ASCII-safe edits of valid UTF-8: multi-byte
    // characters are either copied verbatim or blanked byte-by-byte, and
    // blanking a continuation byte alone can't happen because we always
    // blank whole literal/comment spans.
    let code = String::from_utf8_lossy(&out).into_owned();
    Scrubbed { code, suppressions }
}

/// Does `b[i]` start a raw/byte string or byte-char prefix (`r"`, `r#"`,
/// `b"`, `b'`, `br"`, `rb` is not a thing)?
fn is_literal_prefix(b: &[u8], i: usize) -> bool {
    // Must not be the tail of a longer identifier (`attr"x"` etc.).
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
    }
    j < b.len() && (b[j] == b'"' || (b[j] == b'\'' && j == i + 1)) && j > i
}

/// Scrub a `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` or `b'…'` literal
/// starting at `i`; returns the index just past it.
fn scrub_prefixed_literal(b: &[u8], mut i: usize, out: &mut [u8], line: &mut usize) -> usize {
    let mut raw = false;
    if b[i] == b'b' {
        i += 1;
    }
    let mut hashes = 0usize;
    if i < b.len() && b[i] == b'r' {
        raw = true;
        i += 1;
        while i < b.len() && b[i] == b'#' {
            hashes += 1;
            i += 1;
        }
    }
    if i >= b.len() {
        return i;
    }
    let quote = b[i];
    out[i] = quote;
    i += 1;
    while i < b.len() {
        if !raw && b[i] == b'\\' && i + 1 < b.len() {
            if b[i + 1] == b'\n' {
                out[i + 1] = b'\n';
                *line += 1;
            }
            i += 2;
            continue;
        }
        if b[i] == quote {
            if raw {
                // Need `quote` followed by `hashes` #'s.
                let mut j = i + 1;
                let mut seen = 0usize;
                while j < b.len() && b[j] == b'#' && seen < hashes {
                    j += 1;
                    seen += 1;
                }
                if seen == hashes {
                    out[i] = quote;
                    return j;
                }
            } else {
                out[i] = quote;
                return i + 1;
            }
        }
        if b[i] == b'\n' {
            out[i] = b'\n';
            *line += 1;
        }
        i += 1;
    }
    i
}

/// Parse a `// diesel-lint: allow(R3, R5) reason…` comment.
fn parse_directive(comment: &str, line: usize) -> Option<Suppression> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("diesel-lint:")?.trim();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let mut rules = Vec::new();
    for name in rest[..close].split(',') {
        rules.push(Rule::parse(name.trim())?);
    }
    if rules.is_empty() {
        return None;
    }
    let has_reason = !rest[close + 1..].trim().is_empty();
    Some(Suppression { line, rules, has_reason })
}

/// 1-based line spans (inclusive) of `#[cfg(test)]`-gated items and
/// `#[test]` functions, computed by brace matching on scrubbed code.
pub fn test_regions(code: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0usize;
        while let Some(pos) = code[from..].find(marker) {
            let at = from + pos;
            from = at + marker.len();
            let start_line = 1 + code[..at].matches('\n').count();
            if let Some(end) = item_end(code, at + marker.len()) {
                let end_line = 1 + code[..end].matches('\n').count();
                regions.push((start_line, end_line));
            } else {
                // Unterminated item: exempt the rest of the file.
                regions.push((start_line, usize::MAX));
            }
        }
    }
    regions
}

/// Byte offset of the `}` closing the first brace block at or after
/// `from` (skipping over further attributes and the item header).
fn item_end(code: &str, from: usize) -> Option<usize> {
    let b = code.as_bytes();
    let open = b[from..].iter().position(|&c| c == b'{' || c == b';')? + from;
    if b[open] == b';' {
        return Some(open); // e.g. `#[cfg(test)] mod tests;`
    }
    let mut depth = 0usize;
    for (off, &c) in b[open..].iter().enumerate() {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let s = scrub("let x = \".call(\"; // .call()\nlet y = 1;");
        assert!(!s.code.contains("call"));
        assert!(s.code.contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let s = scrub(r####"let a = r#"to_vec()"#; let c = '{'; let l: &'static str = "x";"####);
        assert!(!s.code.contains("to_vec"));
        assert!(!s.code.contains('{'));
        assert!(s.code.contains("static"));
    }

    #[test]
    fn line_numbers_survive() {
        let s = scrub("a\n\"two\nthree\"\nb /* c\nd */ e\nf");
        assert_eq!(s.code.matches('\n').count(), 5);
    }

    #[test]
    fn directives_parse() {
        let s = scrub("x(); // diesel-lint: allow(R6) metadata string, not payload\ny();");
        assert_eq!(
            s.suppressions,
            vec![Suppression { line: 1, rules: vec![Rule::R6], has_reason: true }]
        );
        let s = scrub("// diesel-lint: allow(R3, R5)\n");
        assert_eq!(s.suppressions[0].rules, vec![Rule::R3, Rule::R5]);
        assert!(!s.suppressions[0].has_reason);
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let s = scrub(src);
        let regions = test_regions(&s.code);
        assert_eq!(regions, vec![(2, 5)]);
    }
}
