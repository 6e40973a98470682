//! The two-section JSON ledger behind the `BENCH_*.json` gates.
//!
//! Every gated suite (`payload_bench`, `elastic_bench`, `mixed_tenants`,
//! `obs_plane`) takes the same flags — `--json <path>`, `--check`,
//! `--tolerance <x>` — and writes the same file: the first ever run
//! seeds `baseline` (kept verbatim forever), every later run rewrites
//! `current`. With `--check`, each ratcheted key must satisfy
//! `current <= baseline * tolerance` or the process exits 1.

/// One suite's ledger file and gate settings, as given on the command
/// line.
#[derive(Debug)]
pub struct Ledger {
    suite: &'static str,
    json_path: String,
    check: bool,
    tolerance: f64,
}

impl Ledger {
    /// Parse `--json`, `--check` and `--tolerance` from the process
    /// arguments (panicking on anything else, before the suite spends
    /// time measuring). `default_json` is the ledger path when `--json`
    /// is absent.
    pub fn from_args(suite: &'static str, default_json: &str) -> Self {
        let mut ledger =
            Ledger { suite, json_path: default_json.to_string(), check: false, tolerance: 2.0 };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => ledger.json_path = args.next().expect("--json needs a path"),
                "--check" => ledger.check = true,
                "--tolerance" => {
                    ledger.tolerance = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--tolerance needs a number")
                }
                other => panic!("unknown argument {other:?}"),
            }
        }
        ledger
    }

    /// Write `current` into the ledger (seeding `baseline` on the first
    /// run), print each key beside its baseline in a `key_width`-wide
    /// column, and under `--check` exit 1 if any key for which
    /// `ratcheted` holds exceeds `tolerance`× its baseline.
    pub fn record(
        &self,
        current: &[(&str, f64)],
        key_width: usize,
        ratcheted: impl Fn(&str) -> bool,
    ) {
        let current: Vec<(String, f64)> =
            current.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        // First run seeds the baseline; later runs keep it verbatim.
        let baseline = std::fs::read_to_string(&self.json_path)
            .ok()
            .and_then(|t| parse_section(&t, "baseline"))
            .unwrap_or_else(|| current.clone());
        std::fs::write(&self.json_path, render(self.suite, &baseline, &current))
            .expect("write json");

        let base_of = |key: &str| baseline.iter().find(|(bk, _)| bk == key).map(|(_, bv)| *bv);
        println!("{} -> {}", self.suite, self.json_path);
        for (k, v) in &current {
            match base_of(k) {
                Some(b) if b > 0.0 => println!(
                    "  {k:<key_width$} {v:>12.3}  (baseline {b:.3}, {:+.1}%)",
                    (v / b - 1.0) * 100.0
                ),
                _ => println!("  {k:<key_width$} {v:>12.3}"),
            }
        }

        if self.check {
            let tolerance = self.tolerance;
            let mut failed = false;
            for (k, v) in current.iter().filter(|(k, _)| ratcheted(k)) {
                if let Some(b) = base_of(k).filter(|&b| b > 0.0 && *v > b * tolerance) {
                    eprintln!(
                        "REGRESSION: {k} = {v:.3} exceeds baseline {b:.3} x tolerance {tolerance}"
                    );
                    failed = true;
                }
            }
            if failed {
                std::process::exit(1);
            }
            println!("{} --check: all keys within {tolerance}x of baseline", self.suite);
        }
    }
}

/// Flat `"key": number` pairs of one named JSON section, as written by
/// [`render`]. Returns `None` if the section is absent or malformed.
fn parse_section(text: &str, name: &str) -> Option<Vec<(String, f64)>> {
    let start = text.find(&format!("\"{name}\""))?;
    let open = start + text[start..].find('{')?;
    let close = open + text[open..].find('}')?;
    let mut out = Vec::new();
    for part in text[open + 1..close].split(',') {
        let (k, v) = part.split_once(':')?;
        out.push((k.trim().trim_matches('"').to_string(), v.trim().parse().ok()?));
    }
    Some(out)
}

fn render_section(pairs: &[(String, f64)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("    \"{k}\": {v:.3}")).collect();
    format!("{{\n{}\n  }}", body.join(",\n"))
}

fn render(suite: &str, baseline: &[(String, f64)], current: &[(String, f64)]) -> String {
    format!(
        "{{\n  \"schema\": 1,\n  \"suite\": \"{suite}\",\n  \"baseline\": {},\n  \"current\": {}\n}}\n",
        render_section(baseline),
        render_section(current)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rendered_ledger_parses_back_and_keeps_its_baseline_text() {
        let baseline = vec![("a_ns".to_string(), 118.25), ("b_ms".to_string(), 0.105)];
        let current = vec![("a_ns".to_string(), 120.0), ("b_ms".to_string(), 0.2)];
        let text = render("payload_bench", &baseline, &current);
        assert!(text.starts_with("{\n  \"schema\": 1,\n  \"suite\": \"payload_bench\",\n"));
        assert_eq!(parse_section(&text, "baseline").unwrap(), baseline);
        assert_eq!(parse_section(&text, "current").unwrap(), current);
        // Re-rendering from the parsed baseline leaves that section
        // byte-identical: the ratchet's reference never drifts.
        let again = render("payload_bench", &parse_section(&text, "baseline").unwrap(), &baseline);
        let section = |t: &str| {
            t[t.find("\"baseline\"").unwrap()..t.find("\"current\"").unwrap()].to_string()
        };
        assert_eq!(section(&text), section(&again));
        assert_eq!(parse_section("{}", "baseline"), None);
    }
}
