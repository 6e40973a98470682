//! Whole-tree checks: the workspace is clean, and the serving-crate set
//! diesel-lint holds to R6 is the set that opts into clippy's
//! panic-freedom lints.

use std::path::{Path, PathBuf};

use diesel_lint::rules::SERVING_CRATES;

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/lint; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root").to_path_buf()
}

#[test]
fn the_repo_tree_has_no_findings() {
    let root = workspace_root();
    let files = diesel_lint::workspace_files(&root).expect("list workspace");
    let findings = diesel_lint::scan(&root, &files).expect("scan workspace");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn serving_crates_are_the_crates_that_opt_into_the_workspace_lints() {
    let mut opted_in = Vec::new();
    for entry in std::fs::read_dir(workspace_root().join("crates")).expect("crates/") {
        let dir = entry.expect("dir entry").path();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        if manifest.contains("[lints]\nworkspace = true") {
            opted_in.push(dir.file_name().expect("name").to_string_lossy().into_owned());
        }
    }
    opted_in.sort();
    let mut serving: Vec<_> = SERVING_CRATES.iter().map(|c| c.to_string()).collect();
    serving.sort();
    assert_eq!(opted_in, serving);
}
