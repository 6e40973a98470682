//! `--compare a.json b.json`: judge two result files (as written by
//! `--all`) against the bounds in `BENCHMARK.json`, per
//! (end-to-end metric, workload).

use crate::json::Json;
use crate::stats::{median, quartile_spread};

/// The judgement on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Pass,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// A side's own run-to-run spread exceeds the bound, so the
    /// comparison cannot tell.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of side `a`.
    pub a: f64,
    /// Median of side `b`.
    pub b: f64,
    /// How much worse `b` is, as a share of `a` (negative = better).
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judge one pair of samples.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a).value, median(b).value);
    let worse_by = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    };
    (worse_by, spread, verdict)
}

/// Untraced values of `metric` on `workload` in a result file.
fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Compare every (end-to-end metric, workload) pair `spec` declares.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let list = |key: &str| {
        spec.get(key).and_then(Json::as_arr).ok_or_else(|| format!("BENCHMARK.json has no {key}"))
    };
    let mut rows = Vec::new();
    for workload in list("workloads")? {
        let workload =
            workload.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        for metric in list("end_to_end")? {
            let field = |key: &str| metric.get(key).ok_or_else(|| format!("metric without {key}"));
            let name = field("name")?.as_str().ok_or("metric name is not a string")?;
            let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
            let higher = field("better")?.as_str() == Some("higher");
            let (va, vb) = (values(a, workload, name), values(b, workload, name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name} @ {workload}: missing from a result file"));
            }
            let (worse_by, spread, verdict) = judge(&va, &vb, higher, bound);
            rows.push(Row {
                workload: workload.to_owned(),
                metric: name.to_owned(),
                a: median(&va).value,
                b: median(&vb).value,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Render the rows as a table; returns it with the regression count.
pub fn render(rows: &[Row]) -> (String, usize) {
    let mut out = format!(
        "{:<22} {:<20} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:<20} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Pass => "pass",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    let regressed = rows.iter().filter(|r| r.verdict == Verdict::Regressed).count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    out.push_str(&format!(
        "{} pairs: {} pass, {regressed} regressed, {unresolved} unresolved\n",
        rows.len(),
        rows.len() - regressed - unresolved
    ));
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn direction_bound_and_spread_decide_the_verdict() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [88.0, 89.0, 87.5, 88.5, 88.2];
        assert_eq!(judge(&steady, &slower, true, 0.10).2, Verdict::Regressed);
        assert_eq!(judge(&steady, &slower, true, 0.15).2, Verdict::Pass);
        // The same numbers as a latency got *better*.
        assert_eq!(judge(&steady, &slower, false, 0.10).2, Verdict::Pass);
        assert_eq!(judge(&slower, &steady, false, 0.10).2, Verdict::Regressed);
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&steady, &noisy, true, 0.10).2, Verdict::Unresolved);
    }

    #[test]
    fn compares_result_files_per_metric_and_workload() {
        let spec = parse(
            r#"{"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let file = |rates: &[f64]| {
            let runs: Vec<String> = rates
                .iter()
                .map(|r| format!(r#"{{"workload": "w", "trace": 0, "metrics": {{"rate": {{"value": {r}, "unit": "1/s"}}}}}}"#))
                .collect();
            parse(&format!(r#"{{"runs": [{}]}}"#, runs.join(","))).unwrap()
        };
        let rows =
            compare(&spec, &file(&[100.0, 102.0, 98.0]), &file(&[80.0, 81.0, 79.0])).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!((rows[0].worse_by - 0.2).abs() < 1e-9);
        let (text, regressed) = render(&rows);
        assert_eq!(regressed, 1);
        assert!(text.contains("REGRESSED"));
        assert!(compare(&spec, &file(&[1.0]), &file(&[])).is_err(), "a missing side is an error");
    }
}
