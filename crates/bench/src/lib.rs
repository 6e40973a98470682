//! # diesel-bench — the paper-shape regenerators
//!
//! One binary per table/figure of the paper's evaluation (§6), fifteen
//! in all (`table2`, `fig6`…`fig15`, `ablation_*`), each over the
//! calibrated simulation and nothing else: wall-clock measurement of
//! the real stack lives in `diesel-benchmark` (BENCHMARK.json). Run e.g.
//!
//! ```text
//! cargo run -p diesel-bench --release --bin fig11a
//! ```
//!
//! Each binary prints the paper's reported numbers next to the
//! reproduction's, and appends its output to `results/` when the
//! `DIESEL_RESULTS_DIR` environment variable is set. EXPERIMENTS.md
//! indexes all of them.
//!
//! Shared infrastructure:
//!
//! * [`model::DieselClusterModel`] — the calibrated timing model of the
//!   DIESEL read path (local / one-hop remote / FUSE) used by the
//!   cluster-scale figures.
//! * [`driver`] — deterministic simulated-client drivers.
//! * [`report`] — fixed-width table printing and result persistence.

pub mod driver;
pub mod model;
pub mod report;

pub use driver::{run_uniform_clients, ClientOutcome};
pub use model::DieselClusterModel;
pub use report::Table;
