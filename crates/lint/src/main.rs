//! The `diesel-lint` command-line front end.
//!
//! ```text
//! diesel-lint --workspace [--root DIR]
//! diesel-lint [--root DIR] FILE…
//! diesel-lint --explain RULE
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use diesel_lint::{scan, workspace_files, Rule};

struct Options {
    explain: Option<Rule>,
    workspace: bool,
    root: PathBuf,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: diesel-lint (--workspace | FILE... | --explain RULE) [--root DIR]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { explain: None, workspace: false, root: PathBuf::from("."), files: Vec::new() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--explain" => {
                let code = it.next().ok_or("--explain needs a rule code (R3, R5, R6)")?;
                opts.explain = Some(
                    Rule::parse(code)
                        .ok_or_else(|| format!("unknown rule {code:?} (R3, R5, R6)"))?,
                );
            }
            "--root" => opts.root = it.next().map(PathBuf::from).ok_or("--root needs a value")?,
            "--help" | "-h" => return Err(usage().to_owned()),
            f if !f.starts_with('-') => opts.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if opts.explain.is_none() && opts.workspace != opts.files.is_empty() {
        return Err(format!("pass exactly one of --workspace or file paths\n{}", usage()));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("diesel-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = opts.explain {
        println!("{rule}: {}", rule.explain());
        return ExitCode::SUCCESS;
    }
    let files = if opts.workspace { workspace_files(&opts.root) } else { Ok(opts.files) };
    let findings = match files.and_then(|files| scan(&opts.root, &files)) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("diesel-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("diesel-lint: {} finding(s)", findings.len());
        ExitCode::from(1)
    }
}
