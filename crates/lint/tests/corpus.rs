//! The rule corpus: one known-positive and one known-negative fixture
//! per rule (R3, R5, R6) under `tests/corpus/`, asserted down to exact
//! `(rule, line)` pairs — so a rule that drifts (new false positive,
//! lost true positive) fails here before it ever touches the tree.
//!
//! Fixtures are scanned under a *pretend* workspace path chosen to put
//! them in scope for the rule under test (serving-crate library code);
//! `workspace_files` skips the corpus directory, so the snippets never
//! leak into a real `--workspace` run.
//!
//! A proptest at the bottom fuzzes `guard_binding` — the one rule
//! helper that slices strings by byte position — with adversarial
//! lexeme soup to pin down that it never panics.

use diesel_lint::rules::guard_binding;
use diesel_lint::{scan_source, workspace_files, Rule};
use proptest::prelude::*;

/// Scan a corpus fixture as if it lived at `fake_rel` in the tree.
fn scan(file: &str, fake_rel: &str) -> Vec<(Rule, usize)> {
    let path = format!("{}/tests/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    scan_source(fake_rel, &src).into_iter().map(|f| (f.rule, f.line)).collect()
}

const LIB: &str = "crates/kv/src/corpus.rs";

#[test]
fn r3_positive_counts_and_lines() {
    assert_eq!(scan("r3_pos.rs", LIB), vec![(Rule::R3, 3), (Rule::R3, 4)]);
}

#[test]
fn r3_negative_is_clean() {
    assert_eq!(scan("r3_neg.rs", LIB), vec![]);
}

#[test]
fn r5_positive_inversion_then_unranked() {
    let found = scan("r5_pos.rs", LIB);
    assert_eq!(found, vec![(Rule::R5, 3), (Rule::R5, 4)]);
}

#[test]
fn r5_negative_rank_upward_and_sequential_are_clean() {
    assert_eq!(scan("r5_neg.rs", LIB), vec![]);
}

#[test]
fn r6_positive_counts_and_lines() {
    assert_eq!(scan("r6_pos.rs", LIB), vec![(Rule::R6, 2), (Rule::R6, 3), (Rule::R6, 4)]);
}

#[test]
fn r6_negative_ledgered_and_clone_are_clean() {
    assert_eq!(scan("r6_neg.rs", LIB), vec![]);
}

#[test]
fn corpus_is_invisible_to_workspace_scans() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = workspace_files(&root).unwrap();
    assert!(
        files.iter().all(|p| !p.to_string_lossy().contains("tests/corpus/")),
        "corpus fixtures must not be linted as workspace files"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `guard_binding` slices the statement by byte offsets around `=`
    /// and the lock-call suffixes; feed it lexeme soup (including
    /// multibyte UTF-8, stray `=`, unbalanced braces) and require it
    /// never panics.
    #[test]
    fn guard_binding_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        const PALETTE: &[&str] = &[
            "let ", "mut ", "=", ".lock()", ".read()", ".write()", "*", "{", "}",
            "(", ")", "[", "]", " ", "g", "_", ";", "é", "→", "\"", "'", "\n", ".",
        ];
        let mut stmt = String::new();
        for b in &bytes {
            stmt.push_str(PALETTE[*b as usize % PALETTE.len()]);
        }
        let _ = guard_binding(&stmt);
        // And the raw bytes as lossy UTF-8, for good measure.
        let _ = guard_binding(&String::from_utf8_lossy(&bytes));
    }
}
