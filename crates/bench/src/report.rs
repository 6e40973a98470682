//! Fixed-width table printing and result persistence for the
//! experiment binaries.

use std::fmt::Write as _;

/// A simple fixed-width table that prints like the paper's tables.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (cells are pre-formatted strings).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut parts = Vec::with_capacity(ncols);
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!("{:>width$}", c, width = widths[i]));
            }
            let _ = writeln!(out, "| {} |", parts.join(" | "));
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 3 * ncols + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Print to stdout and persist when `DIESEL_RESULTS_DIR` is set.
    pub fn emit(&self, experiment: &str) {
        let rendered = self.render();
        println!("{rendered}");
        persist(experiment, &rendered);
    }
}

/// Append free text to the experiment's result file (and stdout).
pub fn note(experiment: &str, text: &str) {
    println!("{text}");
    persist(experiment, text);
}

fn persist(experiment: &str, text: &str) {
    if let Ok(dir) = std::env::var("DIESEL_RESULTS_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let path = std::path::Path::new(&dir).join(format!("{experiment}.txt"));
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(f, "{text}");
        }
    }
}

/// Format a float with thousands grouping for readability.
pub fn fmt_count(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "12345".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("| long-name | 12345 |"));
        assert!(r.contains("|         a |     1 |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(1_234_567.0), "1.23M");
        assert_eq!(fmt_count(45_600.0), "45.6k");
        assert_eq!(fmt_count(12.34), "12.3");
    }
}
