//! **Table 5** — distance of DistCLK's average tour from the reference
//! after short and long per-node budgets (each one tenth of Table 4's
//! CLK budgets, as in the paper).
//!
//! Paper shape: at every budget point DistCLK's excess is far below
//! CLK's from Table 4; many small instances are solved outright
//! ("OPT" cells).

use lk::KickStrategy;
use tsp_core::Instance;

use crate::experiments::common::{dist_config, run_dist_many, short_long_excess};
use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "table5",
        "Table 5: DistCLK (8 nodes) average excess after short/long per-node budgets",
    );
    let long_calls = scale.dist_calls_per_node();
    let short_calls = (long_calls / 10).max(1);
    report.para(&format!(
        "{} runs; short = {} CLK calls/node (paper: 10 s), long = {} calls/node \
         (paper: 10^3 s); {} internal kicks per call; hypercube of {} nodes.",
        scale.runs, short_calls, long_calls, scale.kicks_per_call, scale.nodes
    ));
    // Separate short and long runs; the reference comes from both.
    let run = |inst: &Instance, i: u64, strategy: KickStrategy| {
        let best_lengths = |calls, seed| {
            let mut cfg = dist_config(scale, strategy, scale.nodes, 0);
            cfg.budget = lk::Budget::kicks(calls);
            let runs = run_dist_many(inst, &cfg, scale.runs, seed, None);
            runs.iter().map(|r| r.best_length).collect()
        };
        (
            best_lengths(short_calls, 0x5a + i * 131),
            best_lengths(long_calls, 0x5b + i * 131),
        )
    };
    short_long_excess(&mut report, scale, run, |short, long| {
        [short, long].concat()
    });
    report
}
