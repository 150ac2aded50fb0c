//! One module per paper table/figure (see DESIGN.md §4 for the index).

pub mod ablation;
pub mod churn;
pub mod common;
pub mod faults;
pub mod figure2;
pub mod figure3;
pub mod hub_failover;
pub mod messages;
pub mod monitor;
pub mod profile;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod tune;
pub mod variator;

use crate::report::Report;
use crate::testbed::Scale;

/// Run one experiment by id; `None` for unknown ids.
pub fn run(id: &str, scale: &Scale) -> Option<Report> {
    let report = match id {
        "table1" => table1::run(scale),
        "table2" => table2::run(scale),
        "table3" => table3::run(scale),
        "table4" => table4::run(scale),
        "table5" => table5::run(scale),
        "figure2" => figure2::run(scale),
        "figure3" => figure3::run(scale),
        "messages" => messages::run(scale),
        "variator" => variator::run(scale),
        "tune" => tune::run(scale),
        "ablation" => ablation::run(scale),
        "faults" => faults::run(scale),
        "churn" => churn::run(scale),
        "hub-failover" => hub_failover::run(scale),
        "monitor" => monitor::run(scale),
        "profile" => profile::run(scale),
        _ => return None,
    };
    Some(report)
}

/// All experiment ids in suggested execution order.
pub const ALL: [&str; 15] = [
    "table3", "table4", "table5", "table1", "table2", "figure2", "figure3", "messages",
    "variator", "ablation", "faults", "churn", "hub-failover", "monitor", "profile",
];
