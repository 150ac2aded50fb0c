//! One module per paper table/figure (see DESIGN.md §4 for the index).

pub mod ablation;
pub mod common;
pub mod figure2;
pub mod figure3;
pub mod messages;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod tune;
pub mod variator;

use crate::report::Report;
use crate::testbed::Scale;

type Experiment = fn(&Scale) -> Report;

/// Every experiment, by id, in suggested execution order.
pub const ALL: [(&str, Experiment); 11] = [
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("table1", table1::run),
    ("table2", table2::run),
    ("figure2", figure2::run),
    ("figure3", figure3::run),
    ("messages", messages::run),
    ("variator", variator::run),
    ("ablation", ablation::run),
    ("tune", tune::run),
];

/// Run one experiment by id; `None` for unknown ids.
pub fn run(id: &str, scale: &Scale) -> Option<Report> {
    ALL.iter()
        .find(|(name, _)| *name == id)
        .map(|(_, run)| run(scale))
}
