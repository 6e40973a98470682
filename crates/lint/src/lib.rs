//! # diesel-lint — lock and copy invariants the compiler cannot see
//!
//! Panic-freedom, determinism and chunk-format hygiene are checked by the
//! compiler: clippy's lints in the root `Cargo.toml`, `clippy.toml`'s
//! `disallowed-methods`, and the privacy of `diesel_chunk::format`'s
//! constants (DESIGN.md §7). This crate checks the three repo-specific
//! rules nothing upstream does:
//!
//! * **R3 lock discipline** — no blocking `.call(…)` RPC or simulated
//!   `sleep_ns(…)` in a scope holding a lock guard (scope-level
//!   approximation of the cache peer fan-out deadlock hazard).
//! * **R5 lock order** — a nested `.lock()`/`.read()`/`.write()` under a
//!   live guard must follow the declared rank manifest
//!   (`rules::LOCK_RANKS`): strictly rank-upward, no unranked nesting.
//!   The static half of the deadlock-freedom invariant; the runtime half
//!   is `diesel_util::lockdep` (DESIGN.md §12).
//! * **R6 copy hygiene** — payload byte copies (`.to_vec()`,
//!   `.into_vec()`, `Vec::from`) in serving-crate library code outside
//!   `util::bytes` must sit beside a `record_copy(…)` ledger call,
//!   keeping the zero-copy read path (DESIGN.md §11) shrink-only.
//!
//! Findings can be suppressed in place with
//! `// diesel-lint: allow(R6) <reason>` (the reason is mandatory).
//!
//! The rules run over a comment- and literal-scrubbed view of the source
//! (see [`lex`]) — cruder than an AST, but exact about line numbers and
//! immune to tokens hiding in strings.

pub mod lex;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

/// The rule a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Lock discipline: no blocking calls under a guard.
    R3,
    /// Lock order: nested acquisition follows the rank manifest.
    R5,
    /// Copy hygiene: payload byte copies are ledgered.
    R6,
}

impl Rule {
    /// Short code, e.g. `"R3"`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::R3 => "R3",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
        }
    }

    /// Parse `"R3"`, `"R5"` or `"R6"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim().to_ascii_uppercase().as_str() {
            "R3" => Some(Rule::R3),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            _ => None,
        }
    }

    /// A paragraph of context for `--explain`: what the rule protects,
    /// why it exists, and how to satisfy it.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::R3 => {
                "R3 lock discipline: no blocking .call(…) RPC or simulated sleep_ns(…) \
                 while a lock guard is live in the scope. Blocking under a lock turns one \
                 slow peer into a wedged shard; drop or scope the guard first."
            }
            Rule::R5 => {
                "R5 lock order: acquiring a second lock while holding one is allowed only \
                 when both receivers appear in the LOCK_RANKS manifest \
                 (crates/lint/src/rules.rs) and rank strictly increases inward. This is \
                 the static half of deadlock-freedom; the runtime half is the \
                 diesel_util::lockdep witness (DIESEL_LOCKDEP=off|warn|fail). To bless a \
                 new nesting, add both receivers to the manifest with ranks matching the \
                 global order — never invert an existing pair."
            }
            Rule::R6 => {
                "R6 copy hygiene: .to_vec()/.into_vec()/Vec::from on bytes outside \
                 util::bytes must sit within 3 lines of a record_copy(…) call, so every \
                 payload copy lands in the bytes.copied{site=…} ledger and the zero-copy \
                 read path stays shrink-only. Non-payload copies (paths, ids, test \
                 fixtures) are suppressed in place with a reason."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Violated rule.
    pub rule: Rule,
    /// Workspace-relative path (set by the scanner; rule passes leave it
    /// empty).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// A finding with the path still unset.
    pub fn new(rule: Rule, line: usize, message: String) -> Self {
        Finding { rule, path: String::new(), line, message }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}:{}: {}", self.rule, self.path, self.line, self.message)
    }
}

/// How a file participates in each rule, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Targets {
    /// R3 and R5 apply (library code).
    pub locks: bool,
    /// R6 applies (serving-crate library code outside `util::bytes`).
    pub copies: bool,
}

/// Classify a workspace-relative path (`crates/net/src/rpc.rs`).
///
/// Test targets (`tests/`, `benches/`, `*_test.rs`) and bin targets
/// (`src/bin/`, `main.rs`) are exempt; `#[cfg(test)]` regions inside
/// library files are handled separately during scanning.
pub fn classify(rel: &str) -> Targets {
    let rel = rel.replace('\\', "/");
    let test_target = rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.ends_with("_test.rs");
    let bin_target = rel.contains("/bin/") || rel.ends_with("/main.rs") || rel == "src/main.rs";
    let lib_code = !test_target && !bin_target;
    let serving = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .is_some_and(|c| rules::SERVING_CRATES.contains(&c));
    Targets { locks: lib_code, copies: lib_code && serving && rel != rules::R6_HOME }
}

/// Lint one file's source. `rel` is the workspace-relative path used in
/// findings and for target classification.
pub fn scan_source(rel: &str, src: &str) -> Vec<Finding> {
    let targets = classify(rel);
    let scrubbed = lex::scrub(src);
    let test_regions = lex::test_regions(&scrubbed.code);
    let in_test = |line: usize| test_regions.iter().any(|&(lo, hi)| lo <= line && line <= hi);

    let mut raw = Vec::new();
    if targets.locks {
        rules::lock_rules(&scrubbed.code, &mut raw);
    }
    if targets.copies {
        rules::r6_copy_hygiene(&scrubbed.code, &mut raw);
    }

    let mut out = Vec::new();
    for mut f in raw {
        if in_test(f.line) {
            continue;
        }
        if let Some(sup) = scrubbed
            .suppressions
            .iter()
            .find(|s| s.rules.contains(&f.rule) && (s.line == f.line || s.line + 1 == f.line))
        {
            if sup.has_reason {
                continue;
            }
            f.message = format!(
                "suppression for {} is missing a reason (\"// diesel-lint: allow({}) <why>\")",
                f.rule, f.rule
            );
        }
        f.path = rel.to_owned();
        out.push(f);
    }
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// Recursively collect the workspace `.rs` files to lint, relative to
/// `root`: `crates/*/…` plus the root package's `src/` and `tests/`.
/// Skips `target/`, the offline dependency stand-ins in `.devstubs/`,
/// and diesel-lint's own rule corpus (which violates on purpose).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut out)?;
        }
    }
    let mut rel: Vec<PathBuf> = out
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(Path::to_path_buf))
        .filter(|p| {
            let s = p.to_string_lossy().replace('\\', "/");
            !s.starts_with(".devstubs/")
                && !s.contains("/target/")
                && !s.starts_with("crates/lint/tests/corpus/")
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == ".devstubs" || name == ".git" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint `files` (relative to `root`, or absolute). Findings carry the
/// paths as given.
pub fn scan(root: &Path, files: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let mut out = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(rel))?;
        out.extend(scan_source(&rel.to_string_lossy().replace('\\', "/"), &src));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_exemptions() {
        assert_eq!(classify("crates/net/src/rpc.rs"), Targets { locks: true, copies: true });
        assert!(!classify("crates/bench/src/report.rs").copies, "bench tooling may copy");
        assert!(classify("crates/bench/src/report.rs").locks);
        assert!(!classify("crates/util/src/bytes.rs").copies, "Bytes owns its copies");
        let none = Targets { locks: false, copies: false };
        assert_eq!(classify("crates/net/tests/integration.rs"), none);
        assert_eq!(classify("crates/core/src/bin/dlcmd.rs"), none);
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "pub fn f(d: &[u8]) -> Vec<u8> { d.to_vec() }\n\
                   #[cfg(test)]\nmod tests {\n  fn g(d: &[u8]) { d.to_vec(); }\n}\n";
        let found = scan_source("crates/kv/src/lib.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn tokens_in_strings_and_comments_never_fire() {
        let src = "pub fn f(m: &Mutex<u8>) -> usize {\n  let g = m.lock();\n  \
                   let s = \".call() sleep_ns( d.to_vec() b.lock()\"; // chan.call(x) d.to_vec()\n  \
                   s.len() + *g as usize\n}\n";
        assert!(scan_source("crates/kv/src/lib.rs", src).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "fn f() { d.to_vec(); // diesel-lint: allow(R6) metadata, not payload\n}\n";
        assert!(scan_source("crates/kv/src/lib.rs", src).is_empty());
    }

    #[test]
    fn suppression_without_reason_or_for_another_rule_is_reported() {
        let src = "fn f() {\n  // diesel-lint: allow(R6)\n  d.to_vec();\n  // diesel-lint: allow(R5) wrong rule\n  d.to_vec();\n}\n";
        let found = scan_source("crates/kv/src/lib.rs", src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].message.contains("missing a reason"), "{}", found[0].message);
        assert!(found[1].message.contains("ledger"), "{}", found[1].message);
    }
}
