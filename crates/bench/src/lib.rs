//! # diesel-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§6); run e.g.
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
//! * [`ledger`] — the `BENCH_*.json` baseline/current ledger and its
//!   `--json --check --tolerance` gate, shared by the four gated suites.
//! * [`report`] — fixed-width table printing and result persistence.

pub mod driver;
pub mod ledger;
pub mod model;
pub mod report;

pub use driver::{run_uniform_clients, ClientOutcome};
pub use model::DieselClusterModel;
pub use report::Table;
