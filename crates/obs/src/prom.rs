//! Prometheus text exposition for [`RegistrySnapshot`]s.
//!
//! Renders any snapshot — one registry's or a merged one — in the
//! Prometheus text format (version 0.0.4), so the fleet can be scraped
//! by stock tooling via `dlcmd scrape` / `ServerRequest::Scrape`:
//!
//! * metric ids `name{k=v,…}` split back into name + labels; dots in
//!   names become underscores (`cache.chunk_hits` →
//!   `cache_chunk_hits`), label values are escaped per the spec
//!   (backslash, double-quote, newline).
//! * counters and gauges render as one sample per label set under a
//!   shared `# TYPE` header.
//! * histograms render as cumulative `_bucket{le="…"}` samples (only
//!   occupied buckets plus `+Inf` — the fixed geometry of
//!   [`crate::histogram`] makes sparse `le` sets exact), plus `_sum`
//!   and `_count`. Values stay in nanoseconds; names already carry
//!   their unit (`…_ns`, `…_latency`).
//!
//! [`parse_prometheus`] is the round-trip half: it reads the rendered
//! text back into samples so tests (and `scripts/ci.sh`) can assert
//! that exposition loses nothing.

use std::collections::BTreeMap;

use crate::registry::RegistrySnapshot;

/// One parsed exposition line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Mangled metric name (dots already replaced by underscores).
    pub name: String,
    /// Label pairs in rendered order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl PromSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// `cache.chunk_hits` → `cache_chunk_hits`. Any character outside
/// `[a-zA-Z0-9_:]` becomes an underscore, and a leading digit gets a
/// `_` prefix, per the exposition grammar.
fn mangle_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escape a label value per the exposition spec.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Unescape a label value (inverse of [`escape_label`]).
fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Split a full metric id `name{k=v,…}` into (name, label pairs).
/// Shared with `dlcmd`'s per-dataset slicing so both sides agree on
/// what a label is.
pub fn split_metric_id(id: &str) -> (&str, Vec<(&str, &str)>) {
    let Some((name, rest)) = id.split_once('{') else {
        return (id, Vec::new());
    };
    let body = rest.strip_suffix('}').unwrap_or(rest);
    let labels = body
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k, v),
            None => (pair, ""),
        })
        .collect();
    (name, labels)
}

fn render_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&mangle_name(k));
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out.push('}');
}

fn render_labels_with(out: &mut String, labels: &[(&str, &str)], extra: (&str, &str)) {
    out.push('{');
    for (k, v) in labels {
        out.push_str(&mangle_name(k));
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push_str("\",");
    }
    out.push_str(extra.0);
    out.push_str("=\"");
    out.push_str(&escape_label(extra.1));
    out.push_str("\"}");
}

/// One family's cells: (label pairs, value) in metric-id order.
type FamilyCells<'a, V> = Vec<(Vec<(&'a str, &'a str)>, V)>;

/// Group ids of one metric family by mangled name, keeping label sets
/// in deterministic (id-sorted) order.
fn group_by_name<'a, V>(
    cells: impl Iterator<Item = (&'a String, V)>,
) -> BTreeMap<String, FamilyCells<'a, V>> {
    let mut grouped: BTreeMap<String, FamilyCells<'a, V>> = BTreeMap::new();
    for (id, v) in cells {
        let (name, labels) = split_metric_id(id);
        grouped.entry(mangle_name(name)).or_default().push((labels, v));
    }
    grouped
}

/// Render a snapshot in the Prometheus text exposition format.
/// Deterministic: families sorted by mangled name within each type
/// section (counters, then gauges, then histograms), label sets in
/// metric-id order.
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, cells) in group_by_name(snap.counters.iter().map(|(id, v)| (id, *v))) {
        let _ = writeln!(out, "# TYPE {name} counter");
        for (labels, v) in cells {
            out.push_str(&name);
            render_labels(&mut out, &labels);
            let _ = writeln!(out, " {v}");
        }
    }
    for (name, cells) in group_by_name(snap.gauges.iter().map(|(id, v)| (id, *v))) {
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (labels, v) in cells {
            out.push_str(&name);
            render_labels(&mut out, &labels);
            let _ = writeln!(out, " {v}");
        }
    }
    for (name, cells) in group_by_name(snap.histograms.iter()) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (labels, h) in cells {
            let mut cumulative = 0u64;
            for (idx, &c) in h.bucket_counts().iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                out.push_str(&name);
                out.push_str("_bucket");
                let le = crate::histogram::Histogram::bucket_floor_ns(idx + 1).to_string();
                render_labels_with(&mut out, &labels, ("le", &le));
                let _ = writeln!(out, " {cumulative}");
            }
            out.push_str(&name);
            out.push_str("_bucket");
            render_labels_with(&mut out, &labels, ("le", "+Inf"));
            let _ = writeln!(out, " {}", h.count());
            out.push_str(&name);
            out.push_str("_sum");
            render_labels(&mut out, &labels);
            let _ = writeln!(out, " {}", h.sum_ns());
            out.push_str(&name);
            out.push_str("_count");
            render_labels(&mut out, &labels);
            let _ = writeln!(out, " {}", h.count());
        }
    }
    out
}

/// Parse exposition text back into samples. Comment (`#`) and blank
/// lines are skipped; any other malformed line is an error naming the
/// offending content — what lets CI validate an archived scrape.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line)?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let name_end = line.find(['{', ' ']).ok_or_else(|| format!("missing value: {line}"))?;
    let name = line.get(..name_end).unwrap_or_default().to_owned();
    let mut rest = line.get(name_end..).unwrap_or_default();
    if name.is_empty() {
        return Err(format!("empty metric name: {line}"));
    }
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        rest = body;
        loop {
            if rest.is_empty() {
                return Err(format!("unclosed label braces: {line}"));
            }
            if let Some(after) = rest.strip_prefix('}') {
                rest = after;
                break;
            }
            let eq = rest.find('=').ok_or_else(|| format!("bad label pair: {line}"))?;
            let key = rest.get(..eq).unwrap_or_default().to_owned();
            let val = rest
                .get(eq + 1..)
                .unwrap_or_default()
                .strip_prefix('"')
                .ok_or_else(|| format!("unquoted label value: {line}"))?;
            // Scan to the closing quote, honouring escapes — a label
            // value may legitimately contain `}` or `,`.
            let bytes = val.as_bytes();
            let mut j = 0;
            while let Some(&b) = bytes.get(j) {
                match b {
                    b'\\' => j += 2,
                    b'"' => break,
                    _ => j += 1,
                }
            }
            if bytes.get(j) != Some(&b'"') {
                return Err(format!("unterminated label value: {line}"));
            }
            labels.push((key, unescape_label(val.get(..j).unwrap_or_default())));
            rest = val.get(j + 1..).unwrap_or_default();
            rest = rest.strip_prefix(',').unwrap_or(rest);
        }
    }
    let value_str = rest.trim();
    let value: f64 = if value_str == "+Inf" {
        f64::INFINITY
    } else {
        value_str.parse().map_err(|_| format!("bad sample value: {line}"))?
    };
    Ok(PromSample { name, labels, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use diesel_util::MockClock;
    use std::sync::Arc;

    fn snapshot() -> RegistrySnapshot {
        let reg = Registry::new(Arc::new(MockClock::new()));
        reg.counter("cache.chunk_hits", &[("dataset", "imagenet")]).add(42);
        reg.counter("cache.chunk_hits", &[("dataset", "laion")]).add(7);
        reg.counter("kv.gets", &[]).add(1000);
        reg.gauge("server.tenant.qps_ceiling", &[("dataset", "imagenet")]).set(500);
        let h = reg.histogram("server.read_latency", &[("dataset", "imagenet")]);
        h.record_ns(1_000);
        h.record_ns(1_000);
        h.record_ns(900_000);
        reg.snapshot()
    }

    #[test]
    fn renders_counters_gauges_and_histogram_families() {
        let text = render_prometheus(&snapshot());
        assert!(text.contains("# TYPE cache_chunk_hits counter"), "{text}");
        assert!(text.contains("cache_chunk_hits{dataset=\"imagenet\"} 42"), "{text}");
        assert!(text.contains("cache_chunk_hits{dataset=\"laion\"} 7"), "{text}");
        assert!(text.contains("kv_gets 1000"), "{text}");
        assert!(text.contains("# TYPE server_tenant_qps_ceiling gauge"), "{text}");
        assert!(text.contains("# TYPE server_read_latency histogram"), "{text}");
        assert!(
            text.contains("server_read_latency_bucket{dataset=\"imagenet\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("server_read_latency_sum{dataset=\"imagenet\"} 902000"), "{text}");
        assert!(text.contains("server_read_latency_count{dataset=\"imagenet\"} 3"), "{text}");
        // Bucket samples are cumulative: the low-latency bucket holds 2,
        // the +Inf family total 3.
        let two_then_three = text
            .lines()
            .filter(|l| l.starts_with("server_read_latency_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().to_owned())
            .collect::<Vec<_>>();
        assert_eq!(two_then_three, vec!["2", "3", "3"], "{text}");
    }

    #[test]
    fn round_trip_preserves_values_and_labels() {
        let snap = snapshot();
        let text = render_prometheus(&snap);
        let samples = parse_prometheus(&text).expect("rendered text parses");
        let find = |name: &str, dataset: Option<&str>| -> f64 {
            samples
                .iter()
                .find(|s| s.name == name && s.label("dataset") == dataset)
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
        };
        assert_eq!(find("cache_chunk_hits", Some("imagenet")), 42.0);
        assert_eq!(find("cache_chunk_hits", Some("laion")), 7.0);
        assert_eq!(find("kv_gets", None), 1000.0);
        assert_eq!(find("server_read_latency_count", Some("imagenet")), 3.0);
        assert_eq!(find("server_read_latency_sum", Some("imagenet")), 902_000.0);
        // The +Inf bucket equals _count.
        let inf = samples
            .iter()
            .find(|s| s.name == "server_read_latency_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 3.0);
    }

    #[test]
    fn label_escaping_round_trips() {
        // Note: `,` can't appear in a label value — the registry's
        // metric-id format uses it as the pair separator.
        let hostile = "a\\b\"c\nd}e";
        let reg = Registry::new(Arc::new(MockClock::new()));
        reg.counter("x.ops", &[("path", hostile)]).inc();
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("x_ops{path=\"a\\\\b\\\"c\\nd}e\"} 1"), "{text}");
        let samples = parse_prometheus(&text).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].label("path"), Some(hostile));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("name_only").is_err());
        assert!(parse_prometheus("x{unclosed=\"v\" 1").is_err());
        assert!(parse_prometheus("x{k=unquoted} 1").is_err());
        assert!(parse_prometheus("x nan-ish-garbage").is_err());
        // Comments and blanks are fine.
        assert_eq!(parse_prometheus("# HELP x\n\n# TYPE x counter\nx 1\n").unwrap().len(), 1);
    }

    #[test]
    fn name_mangling_covers_dots_and_leading_digits() {
        assert_eq!(mangle_name("cache.chunk_hits"), "cache_chunk_hits");
        assert_eq!(mangle_name("9lives"), "_9lives");
        assert_eq!(mangle_name("a-b c"), "a_b_c");
    }

    #[test]
    fn split_metric_id_handles_bare_and_labelled_ids() {
        assert_eq!(split_metric_id("kv.gets"), ("kv.gets", vec![]));
        let (name, labels) = split_metric_id("net.requests{endpoint=s@0,node=1}");
        assert_eq!(name, "net.requests");
        assert_eq!(labels, vec![("endpoint", "s@0"), ("node", "1")]);
    }
}
