//! **Table 5** — distance of DistCLK's average tour from the reference
//! after short and long per-node budgets (each one tenth of Table 4's
//! CLK budgets, as in the paper).
//!
//! Paper shape: at every budget point DistCLK's excess is far below
//! CLK's from Table 4; many small instances are solved outright
//! ("OPT" cells).

use lk::KickStrategy;

use crate::experiments::common::{dist_config, mean_excess, reference_for, run_dist_many};
use crate::report::{fmt_excess, Report};
use crate::testbed::{small_testbed, Scale};

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
            let mut short_cfg = dist_config(scale, strategy, scale.nodes, 0);
            short_cfg.budget = lk::Budget::kicks(short_calls);
            let short_runs =
                run_dist_many(inst, &short_cfg, scale.runs, 0x5a + i as u64 * 131, None);

            let mut long_cfg = dist_config(scale, strategy, scale.nodes, 0);
            long_cfg.budget = lk::Budget::kicks(long_calls);
            let long_runs = run_dist_many(inst, &long_cfg, scale.runs, 0x5b + i as u64 * 131, None);

            let short_lens: Vec<i64> = short_runs.iter().map(|r| r.best_length).collect();
            let long_lens: Vec<i64> = long_runs.iter().map(|r| r.best_length).collect();
            all.extend(&short_lens);
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
