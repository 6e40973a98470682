//! # diesel-benchmark — the end-to-end read/ingest benchmark
//!
//! One binary drives a generated dataset through the whole DIESEL stack
//! (`loader → client → meta snapshot → cache → net → admission → server
//! → kv → store`) in four closed-loop workloads, checks every byte it
//! is handed, and prints the metrics `BENCHMARK.json` declares. See the
//! crate README for the glossary, the layer → end-to-end predictions
//! and the reference numbers.
//!
//! ```text
//! diesel-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! diesel-benchmark --all [--runs <n>] [--seed <n>] [--seconds <s>] [--out <file>]
//! diesel-benchmark --smoke
//! diesel-benchmark --compare <a.json> <b.json> [--spec <BENCHMARK.json>]
//! ```

mod compare;
mod decor;
mod gen;
mod json;
mod probe;
mod report;
mod run;
mod spans;
mod stack;
mod stats;
mod workloads;

use std::process::ExitCode;

use json::Json;
use report::{Outcome, END_TO_END, PER_LAYER};
use run::{Budget, Plan};
use stack::{Scale, Workload};

const USAGE: &str = "usage:
  diesel-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
  diesel-benchmark --all [--runs <n>] [--seed <n>] [--seconds <s>] [--out <file>]
  diesel-benchmark --smoke
  diesel-benchmark --compare <a.json> <b.json> [--spec <BENCHMARK.json>]
workloads: warm_get constrained_loader server_merged ingest_beside_reads";

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
    spec: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { seed: 11, seconds: 18.0, runs: 1, spec: "BENCHMARK.json".into(), ..Args::default() };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| {
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite() && *n >= 0.0)
            .ok_or(format!("{flag}: bad number {text:?}"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => args.seed = number(value(&mut it, flag)?, flag)? as u64,
            "--seconds" => args.seconds = number(value(&mut it, flag)?, flag)?,
            "--runs" => args.runs = number(value(&mut it, flag)?, flag)? as usize,
            "--trace" => args.trace = number(value(&mut it, flag)?, flag)? != 0.0,
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--spec" => args.spec = value(&mut it, flag)?,
            "--all" => {}
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn catalogue(trace: bool) -> &'static [report::MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Run one workload in this process and print its table and result
/// line.
fn one(
    workload: Workload,
    scale: Scale,
    seed: u64,
    budget: Budget,
    trace: bool,
) -> Result<Outcome, String> {
    let outcome = run::run(&Plan { workload, scale, seed, budget, trace })?;
    let mode = if trace { "per-layer, traced run" } else { "end-to-end, untraced run" };
    print!(
        "{}",
        outcome.table(catalogue(trace), &format!("{} ({mode}, seed {seed})", workload.name()))
    );
    Ok(outcome)
}

/// `--smoke`: every workload in both modes at ≈1 % sizes.
fn smoke() -> Result<(), String> {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = one(workload, Scale::smoke(), 11, Budget::Epochs(2), trace)?;
            if outcome.failed > 0 {
                return Err(format!("{}: {} operations failed", workload.name(), outcome.failed));
            }
        }
    }
    Ok(())
}

/// `--all`: one child process per (workload, mode, run), results
/// collected into one file for `--compare`.
fn all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for run in 0..args.runs.max(1) {
        for workload in Workload::ALL {
            for trace in [0, 1] {
                let output = std::process::Command::new(&exe)
                    .args(["--workload", workload.name()])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let (table, line) =
                    stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
                if !output.status.success() {
                    return Err(format!(
                        "{} (trace {trace}) failed: {}",
                        workload.name(),
                        output.status
                    ));
                }
                println!("{table}");
                let result = json::parse(line)?;
                let field = |key: &str| result.get(key).cloned().unwrap_or(Json::Null);
                runs.push(Json::Obj(vec![
                    ("workload".into(), Json::Str(workload.name().into())),
                    ("trace".into(), Json::Num(f64::from(trace))),
                    ("run".into(), Json::Num(run as f64)),
                    ("correct".into(), field("correct")),
                    ("attempted".into(), field("attempted")),
                    ("failed".into(), field("failed")),
                    ("metrics".into(), field("metrics")),
                ]));
            }
        }
    }
    let file = Json::Obj(vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    let out = match &args.out {
        Some(path) => std::path::PathBuf::from(path),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/results.json"),
    };
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    // One run per line keeps the file greppable.
    std::fs::write(&out, file.render().replace("{\"workload\"", "\n{\"workload\""))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(())
}

fn compare_files(a: &str, b: &str, spec: &str) -> Result<usize, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare::compare(&load(spec)?, &load(a)?, &load(b)?)?;
    let (table, regressed) = compare::render(&rows);
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("diesel-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = if let Some((a, b)) = &args.compare {
        compare_files(a, b, &args.spec).and_then(|regressed| {
            if regressed == 0 {
                Ok(())
            } else {
                Err(format!("{regressed} (metric, workload) pairs regressed"))
            }
        })
    } else if args.smoke {
        smoke()
    } else if let Some(name) = &args.workload {
        match Workload::parse(name) {
            Some(workload) => {
                one(workload, Scale::full(), args.seed, Budget::Seconds(args.seconds), args.trace)
                    .map(|outcome| {
                        // The contract: the result object is the last line.
                        println!("{}", outcome.result_json(catalogue(args.trace)).render());
                    })
            }
            None => Err(format!("unknown workload {name:?}\n{USAGE}")),
        }
    } else {
        all(&args)
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("diesel-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
