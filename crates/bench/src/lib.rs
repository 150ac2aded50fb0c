//! # bench
//!
//! The experiment library regenerating every table and figure of the
//! paper's evaluation (§3–§4), at laptop scale (see DESIGN.md §3 for
//! the substitutions and §4 for the experiment index).
//!
//! Each experiment is a function producing a [`report::Report`]
//! (markdown table + CSV series) written under `target/repro/`, listed
//! by id in [`experiments::ALL`]. The root binary `repro` is the one
//! experiment CLI:
//!
//! ```text
//! cargo run --release --bin repro -- list       # the experiment ids
//! cargo run --release --bin repro -- all        # everything
//! cargo run --release --bin repro -- table3     # one experiment
//! cargo run --release --bin repro -- table3 --full   # paper-scale runs
//! ```
//!
//! The failure-handling and telemetry behaviour of the distributed
//! solver is not an experiment here: its contracts are the `distclk`
//! test suites (`churn`, `faults`, `telemetry_live`).

pub mod calibrate;
pub mod experiments;
pub mod report;
pub mod testbed;

pub use report::Report;
pub use testbed::{Reference, Scale, TestInstance};
