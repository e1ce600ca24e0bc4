//! Experiment harness for reproducing every table and figure of the paper.
//!
//! Each binary under `src/bin/` regenerates one experiment (see DESIGN.md and
//! EXPERIMENTS.md for the index); the benches under `benches/` write the
//! deterministic `BENCH_*.json` trajectories and run the in-bench
//! assertions (timing is measured by the `benchmark/` harness). This
//! library crate holds the small
//! report-formatting helpers those targets share, plus the bench-regression
//! gate ([`check`]) that keeps the committed `BENCH_*.json` trajectories
//! honest in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod report;

pub use report::Table;
