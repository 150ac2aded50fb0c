//! **Table 4** — distance of CLK's average tour from the reference
//! after a short and a long budget, per kicking strategy.
//!
//! Paper shape: Geometric kicking worst on small instances; Random
//! worst on the larger structured ones; Random-walk the best
//! all-rounder at the long budget.

use lk::KickStrategy;

use crate::experiments::common::{length_at_kicks, mean_excess, reference_for, run_clk_many};
use crate::report::{fmt_excess, Report};
use crate::testbed::{small_testbed, Scale};

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

    let header = vec![
        "Instance",
        "Random short",
        "Random long",
        "Geometric short",
        "Geometric long",
        "Close short",
        "Close long",
        "Random-Walk short",
        "Random-Walk long",
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();

    let mut testbed = small_testbed(scale);
    if scale.runs <= 3 {
        testbed.truncate(4);
    }

    for t in &testbed {
        let inst = &t.inst;
        let mut per_strategy = Vec::new();
        let mut all: Vec<i64> = Vec::new();
        for (i, strategy) in KickStrategy::ALL.into_iter().enumerate() {
            let runs = run_clk_many(
                inst,
                strategy,
                scale.clk_kicks,
                scale.runs,
                0x4a + i as u64 * 7777,
                None,
            );
            let short_lens: Vec<i64> = runs
                .iter()
                .map(|r| length_at_kicks(&r.trace, short).unwrap_or(r.length))
                .collect();
            let long_lens: Vec<i64> = runs.iter().map(|r| r.length).collect();
            all.extend(&long_lens);
            per_strategy.push((strategy, short_lens, long_lens));
        }
        let reference = reference_for(inst, all.iter().copied());
        let mut row = vec![t.paper_name.to_string()];
        for (s, short_lens, long_lens) in &per_strategy {
            let es = mean_excess(&reference, short_lens);
            let el = mean_excess(&reference, long_lens);
            row.push(fmt_excess(es));
            row.push(fmt_excess(el));
            csv.push(format!(
                "{},{},{:.6},{:.6},{}",
                t.paper_name,
                s.name(),
                es,
                el,
                reference.label()
            ));
        }
        rows.push(row);
    }

    let header_refs: Vec<&str> = header.iter().map(|s| &**s).collect();
    report.table(&header_refs, &rows);
    report.series(
        "excess",
        "instance,strategy,short_excess,long_excess,reference",
        csv,
    );
    report
}
