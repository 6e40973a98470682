//! Exporters for recorded [`Span`]s: chrome-trace JSON (loadable in
//! `chrome://tracing` / Perfetto) and a text critical-path summary.
//!
//! The JSON writer is hand-rolled and fully deterministic: spans are
//! sorted by `(trace, id)`, timestamps are fixed-point microseconds
//! (`ns/1000` with three decimals — no float formatting noise), and
//! label order is preserved. Two identical runs therefore export
//! byte-identical documents, which `tests/determinism.rs` relies on.
//!
//! The unit tests carry a minimal JSON reader so they can validate an
//! emitted document and walk its parent/child structure without any
//! external JSON dependency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::fmt_ns;
use crate::trace::Span;

/// Render spans as a chrome-trace ("Trace Event Format") JSON document.
///
/// Each span becomes one complete (`ph:"X"`) event. Traces map to
/// `tid` tracks (densely renumbered so ids stay small); the full
/// trace/span/parent ids ride in `args` as strings, alongside the
/// span's labels.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.trace, s.id));
    let mut tids: BTreeMap<u64, usize> = BTreeMap::new();
    for s in &sorted {
        let next = tids.len() + 1;
        tids.entry(s.trace).or_insert(next);
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(&s.name, &mut out);
        out.push_str("\",\"cat\":\"diesel\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{}", tids.get(&s.trace).copied().unwrap_or(0));
        out.push_str(",\"ts\":");
        push_us(s.start_ns, &mut out);
        out.push_str(",\"dur\":");
        push_us(s.duration_ns(), &mut out);
        out.push_str(",\"args\":{");
        let _ = write!(out, "\"trace\":\"{}\",\"span\":\"{}\"", s.trace, s.id);
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":\"{p}\"");
        }
        for (k, v) in &s.labels {
            out.push_str(",\"");
            escape_json(k, &mut out);
            out.push_str("\":\"");
            escape_json(v, &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Fixed-point microseconds: `ns/1000` with exactly three decimals.
fn push_us(ns: u64, out: &mut String) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A text "critical path" summary: for every trace, the chain formed
/// by repeatedly descending into the longest child span — the answer
/// to "where did this request spend its time".
pub fn critical_path(spans: &[Span]) -> String {
    let mut by_trace: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    let mut out = String::new();
    let _ = writeln!(out, "{} spans across {} traces", spans.len(), by_trace.len());
    for (trace, members) in &by_trace {
        let ids: std::collections::BTreeSet<u64> = members.iter().map(|s| s.id).collect();
        // Roots: no parent, or a parent recorded elsewhere (e.g. the
        // client half of a trace drained from only the server side).
        let mut roots: Vec<&&Span> = members
            .iter()
            .filter(|s| s.parent.map(|p| !ids.contains(&p)).unwrap_or(true))
            .collect();
        roots.sort_by_key(|s| s.id);
        for root in roots {
            let _ = writeln!(
                out,
                "trace {trace}: {} ({} spans, {})",
                root.display_name(),
                members.len(),
                fmt_ns(root.duration_ns())
            );
            let mut depth = 1usize;
            let mut cursor = *root;
            loop {
                let mut children: Vec<&&Span> =
                    members.iter().filter(|s| s.parent == Some(cursor.id)).collect();
                // Longest child wins; ties break on id for determinism.
                children.sort_by_key(|s| (std::cmp::Reverse(s.duration_ns()), s.id));
                let Some(next) = children.first() else { break };
                let _ = writeln!(
                    out,
                    "{:indent$}-> {:<44} {}",
                    "",
                    next.display_name(),
                    fmt_ns(next.duration_ns()),
                    indent = depth * 2
                );
                cursor = **next;
                depth += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event read back out of a chrome-trace document.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct ExportedSpan {
        /// Event name (the span name).
        name: String,
        /// Trace id from `args.trace`.
        trace: u64,
        /// Span id from `args.span`.
        span: u64,
        /// Parent span id from `args.parent`, when present.
        parent: Option<u64>,
        /// Duration in nanoseconds, reconstructed from the `dur` field.
        dur_ns: u64,
    }

    impl ExportedSpan {
        /// Is `self` a descendant of `of` within `all` (same trace,
        /// following parent links)?
        fn is_descendant_of(&self, of: &ExportedSpan, all: &[ExportedSpan]) -> bool {
            if self.trace != of.trace {
                return false;
            }
            let mut cursor = self.parent;
            // Bounded walk: parent chains are acyclic, but cap anyway.
            for _ in 0..all.len() + 1 {
                match cursor {
                    None => return false,
                    Some(p) if p == of.span => return true,
                    Some(p) => {
                        cursor = all
                            .iter()
                            .find(|s| s.trace == self.trace && s.span == p)
                            .and_then(|s| s.parent);
                    }
                }
            }
            false
        }
    }

    /// Parse a chrome-trace document produced by [`chrome_trace_json`]
    /// (or any structurally valid trace-event JSON whose events carry
    /// `args.trace`/`args.span`). Returns `None` on malformed JSON or a
    /// missing `traceEvents` array.
    fn parse_chrome_trace(json: &str) -> Option<Vec<ExportedSpan>> {
        let value = Parser { b: json.as_bytes(), i: 0 }.document()?;
        let events = value.get("traceEvents")?.as_array()?;
        let mut out = Vec::with_capacity(events.len());
        for ev in events {
            let name = ev.get("name")?.as_str()?.to_owned();
            let args = ev.get("args")?;
            let trace = args.get("trace")?.as_str()?.parse::<u64>().ok()?;
            let span = args.get("span")?.as_str()?.parse::<u64>().ok()?;
            let parent = match args.get("parent") {
                Some(p) => Some(p.as_str()?.parse::<u64>().ok()?),
                None => None,
            };
            let dur_ns = ev.get("dur").and_then(Json::as_us_ns).unwrap_or(0);
            out.push(ExportedSpan { name, trace, span, parent, dur_ns });
        }
        Some(out)
    }

    /// A parsed JSON value — only what the trace reader needs.
    enum Json {
        Null,
        Bool,
        /// Numbers are kept as their source text (we only ever need the
        /// fixed-point µs fields, parsed losslessly as integers).
        Num(String),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }

        fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// A fixed-point microsecond number (`123.456`) as nanoseconds.
        fn as_us_ns(&self) -> Option<u64> {
            let text = match self {
                Json::Num(n) => n.as_str(),
                _ => return None,
            };
            let (whole, frac) = match text.split_once('.') {
                Some((w, f)) => (w, f),
                None => (text, ""),
            };
            let us = whole.parse::<u64>().ok()?;
            let mut ns = 0u64;
            let mut scale = 100;
            for c in frac.chars().take(3) {
                ns += (c.to_digit(10)? as u64) * scale;
                scale /= 10;
            }
            Some(us.saturating_mul(1_000).saturating_add(ns))
        }
    }

    /// Minimal recursive-descent JSON parser. Depth-limited, allocation
    /// conscious, and panic-free (clippy's `indexing_slicing` and
    /// `unwrap_used` apply to this crate).
    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    const MAX_DEPTH: usize = 64;

    impl<'a> Parser<'a> {
        fn document(mut self) -> Option<Json> {
            let v = self.value(0)?;
            self.skip_ws();
            if self.i == self.b.len() {
                Some(v)
            } else {
                None
            }
        }

        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let c = self.peek()?;
            self.i += 1;
            Some(c)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Option<()> {
            self.skip_ws();
            if self.peek() == Some(c) {
                self.i += 1;
                Some(())
            } else {
                None
            }
        }

        fn eat_literal(&mut self, lit: &str) -> Option<()> {
            if self.b.get(self.i..self.i + lit.len()) == Some(lit.as_bytes()) {
                self.i += lit.len();
                Some(())
            } else {
                None
            }
        }

        fn value(&mut self, depth: usize) -> Option<Json> {
            if depth > MAX_DEPTH {
                return None;
            }
            self.skip_ws();
            match self.peek()? {
                b'{' => self.object(depth),
                b'[' => self.array(depth),
                b'"' => Some(Json::Str(self.string()?)),
                b't' => self.eat_literal("true").map(|()| Json::Bool),
                b'f' => self.eat_literal("false").map(|()| Json::Bool),
                b'n' => self.eat_literal("null").map(|()| Json::Null),
                _ => self.number(),
            }
        }

        fn object(&mut self, depth: usize) -> Option<Json> {
            self.eat(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Some(Json::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.eat(b':')?;
                let val = self.value(depth + 1)?;
                fields.push((key, val));
                self.skip_ws();
                match self.bump()? {
                    b',' => continue,
                    b'}' => return Some(Json::Obj(fields)),
                    _ => return None,
                }
            }
        }

        fn array(&mut self, depth: usize) -> Option<Json> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(self.value(depth + 1)?);
                self.skip_ws();
                match self.bump()? {
                    b',' => continue,
                    b']' => return Some(Json::Arr(items)),
                    _ => return None,
                }
            }
        }

        fn string(&mut self) -> Option<String> {
            if self.bump()? != b'"' {
                return None;
            }
            let mut out = String::new();
            loop {
                match self.bump()? {
                    b'"' => return Some(out),
                    b'\\' => match self.bump()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            self.i += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return None,
                    },
                    c if c < 0x20 => return None,
                    c => {
                        // Re-assemble multi-byte UTF-8 sequences byte-wise.
                        let start = self.i - 1;
                        let len = utf8_len(c);
                        let chunk = self.b.get(start..start + len)?;
                        out.push_str(std::str::from_utf8(chunk).ok()?);
                        self.i = start + len;
                    }
                }
            }
        }

        fn number(&mut self) -> Option<Json> {
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
                self.i += 1;
            }
            if self.i == start {
                return None;
            }
            let text = std::str::from_utf8(self.b.get(start..self.i)?).ok()?;
            Some(Json::Num(text.to_owned()))
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }

    fn span(trace: u64, id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Span {
        Span {
            trace,
            id,
            parent,
            name: name.into(),
            labels: Vec::new(),
            start_ns: start,
            end_ns: end,
        }
    }

    fn tree() -> Vec<Span> {
        vec![
            span(1, 1, None, "client.read", 0, 48_200_000),
            span(1, 2, Some(1), "net.attempt", 100_000, 48_000_000),
            span(1, 3, Some(2), "server.handle", 200_000, 40_100_000),
            span(1, 4, Some(3), "store.get_range", 300_000, 39_000_000),
        ]
    }

    #[test]
    fn export_parse_roundtrip_preserves_structure() {
        let json = chrome_trace_json(&tree());
        let parsed = parse_chrome_trace(&json).expect("emitted JSON must parse");
        assert_eq!(parsed.len(), 4);
        let client = parsed.iter().find(|s| s.name == "client.read").unwrap();
        let handle = parsed.iter().find(|s| s.name == "server.handle").unwrap();
        assert_eq!(client.parent, None);
        assert!(handle.is_descendant_of(client, &parsed));
        assert!(!client.is_descendant_of(handle, &parsed));
        assert_eq!(client.dur_ns, 48_200_000);
    }

    #[test]
    fn export_is_deterministic_and_order_insensitive() {
        let a = chrome_trace_json(&tree());
        let mut shuffled = tree();
        shuffled.reverse();
        assert_eq!(a, chrome_trace_json(&shuffled), "writer sorts spans itself");
    }

    #[test]
    fn timestamps_are_fixed_point_microseconds() {
        let spans = vec![span(1, 1, None, "t", 1_234, 2_468)];
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"ts\":1.234"), "{json}");
        assert!(json.contains("\"dur\":1.234"), "{json}");
    }

    #[test]
    fn labels_and_escaping_survive() {
        let mut s = span(1, 1, None, "odd\"name", 0, 10);
        s.labels.push(("path".into(), "a/b\\c".into()));
        let json = chrome_trace_json(&[s]);
        assert!(json.contains("odd\\\"name"), "{json}");
        assert!(json.contains("a/b\\\\c"), "{json}");
        let parsed = parse_chrome_trace(&json).unwrap();
        assert_eq!(parsed.first().map(|e| e.name.as_str()), Some("odd\"name"));
    }

    #[test]
    fn malformed_json_is_rejected_not_panicked() {
        for bad in ["", "{", "[1,2", "{\"traceEvents\":}", "{\"traceEvents\":[{]}]}", "nul"] {
            assert!(parse_chrome_trace(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn critical_path_follows_longest_children() {
        let mut spans = tree();
        // A short sibling that must NOT be on the path.
        spans.push(span(1, 5, Some(1), "client.stat", 0, 1_000));
        let text = critical_path(&spans);
        assert!(text.contains("trace 1: client.read"), "{text}");
        assert!(text.contains("-> net.attempt"), "{text}");
        assert!(text.contains("-> server.handle"), "{text}");
        assert!(text.contains("-> store.get_range"), "{text}");
        assert!(!text.contains("-> client.stat"), "{text}");
        assert!(text.contains("48.20ms"), "{text}");
    }

    #[test]
    fn orphan_parents_are_treated_as_roots() {
        // Server-side drain only: parent points at a client span that
        // is not in the set.
        let spans = vec![span(9, 20, Some(11), "server.handle", 0, 5_000)];
        let text = critical_path(&spans);
        assert!(text.contains("trace 9: server.handle"), "{text}");
    }
}
