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
//! The experiments share one runner ([`experiments::common`]) and take
//! their instances from [`Scale::stand_in`]. Table 2's comparators, the
//! stand-ins for LKH, multilevel CLK and tour merging, are
//! [`baselines`]: yardsticks, not engines the system runs.
//!
//! The failure-handling behaviour of the distributed solver is not an
//! experiment here: its contracts are the `distclk` test suites
//! (`churn`, `faults`).

pub mod baselines;
pub mod calibrate;
pub mod experiments;
pub mod report;
pub mod testbed;

pub use report::Report;
pub use testbed::{Reference, Scale, TestInstance};
