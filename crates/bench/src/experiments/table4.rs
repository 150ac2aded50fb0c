//! **Table 4** — distance of CLK's average tour from the reference
//! after a short and a long budget, per kicking strategy.
//!
//! Paper shape: Geometric kicking worst on small instances; Random
//! worst on the larger structured ones; Random-walk the best
//! all-rounder at the long budget.

use lk::KickStrategy;
use tsp_core::Instance;

use crate::experiments::common::{length_at_kicks, run_clk_many, short_long_excess};
use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "table4",
        "Table 4: CLK average excess over reference after short/long budgets",
    );
    let short = (scale.clk_kicks / 100).max(10);
    report.para(&format!(
        "{} runs; short budget = {} kicks (paper: 100 s), long = {} kicks \
         (paper: 10^4 s). Excess relative to known optimum or surrogate best-known.",
        scale.runs, short, scale.clk_kicks
    ));
    // One set of runs per strategy: the short length is read off the
    // long run's trace. The reference comes from the long runs.
    let run = |inst: &Instance, i: u64, strategy: KickStrategy| {
        let runs = run_clk_many(
            inst,
            strategy,
            scale.clk_kicks,
            scale.runs,
            0x4a + i * 7777,
            None,
        );
        let short_lens = runs
            .iter()
            .map(|r| length_at_kicks(&r.trace, short).unwrap_or(r.length))
            .collect();
        (short_lens, runs.iter().map(|r| r.length).collect())
    };
    short_long_excess(&mut report, scale, run, |_, long| long.to_vec());
    report
}
