//! **Table 3** — number of runs (out of `scale.runs`) that found the
//! optimum, per kicking strategy, for standalone CLK vs. the 8-node
//! distributed algorithm with one tenth of the per-node budget.
//!
//! Paper shape to reproduce: DistCLK succeeds on (almost) every
//! instance/strategy where CLK does, and solves the drill-plate
//! (`fl…`) instances that CLK fails on in 0/10 runs; Random kicking is
//! competitive on the small/easy instances but falls behind on
//! structured ones.

use lk::KickStrategy;

use crate::experiments::common::{dist_config, reference_for, run_clk_many, run_dist_many};
use crate::report::Report;
use crate::testbed::{small_testbed, Scale};

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "table3",
        "Table 3: runs that found the optimum (CLK vs DistCLK, per kicking strategy)",
    );
    report.para(&format!(
        "{} runs per cell; CLK budget {} kicks; DistCLK: {} nodes x {} kicks/node \
         (paper's 10:1 per-node budget ratio). 'Optimum' = known optimum for the \
         grid instance (matched exactly); other instances use the surrogate \
         best-known over all runs with a 0.03% acceptance band (EXPERIMENTS.md).",
        scale.runs,
        scale.clk_kicks,
        scale.nodes,
        scale.dist_kicks_per_node(),
    ));

    let header = vec![
        "Instance",
        "n",
        "Random CLK",
        "Random Dist",
        "Geometric CLK",
        "Geometric Dist",
        "Close CLK",
        "Close Dist",
        "Random-Walk CLK",
        "Random-Walk Dist",
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();

    // Quick mode trims the testbed to keep the suite fast.
    let mut testbed = small_testbed(scale);
    if scale.runs <= 3 {
        testbed.truncate(4);
    }

    for t in &testbed {
        let inst = &t.inst;
        let target = inst.known_optimum();
        let mut cells: Vec<(KickStrategy, usize, usize)> = Vec::new();
        let mut all_lengths: Vec<i64> = Vec::new();
        let mut per_strategy: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();

        for strategy in KickStrategy::ALL {
            let clk_runs = run_clk_many(
                inst,
                strategy,
                scale.clk_kicks,
                scale.runs,
                0xC1 + strategy_ix(strategy) as u64 * 1000,
                target,
            );
            let dist_cfg = dist_config(scale, strategy, scale.nodes, 0);
            let dist_runs = run_dist_many(
                inst,
                &dist_cfg,
                scale.runs,
                0xD1 + strategy_ix(strategy) as u64 * 1000,
                target,
            );
            let clk_lens: Vec<i64> = clk_runs.iter().map(|r| r.length).collect();
            let dist_lens: Vec<i64> = dist_runs.iter().map(|r| r.best_length).collect();
            all_lengths.extend(&clk_lens);
            all_lengths.extend(&dist_lens);
            per_strategy.push((clk_lens, dist_lens));
            cells.push((strategy, 0, 0)); // success counts filled below
        }

        let reference = reference_for(inst, all_lengths.iter().copied());
        let opt = reference.value();
        // Known optima are matched exactly (as in the paper). Surrogate
        // references (= the single best run over all 24 runs of this
        // instance) get a 0.03% acceptance band: demanding an exact
        // match to the global best would just reward whichever
        // configuration produced that one run.
        let threshold = match reference {
            crate::testbed::Reference::Optimum(v) => v,
            _ => opt + (opt as f64 * 0.0003) as i64,
        };
        for (i, (clk_lens, dist_lens)) in per_strategy.iter().enumerate() {
            cells[i].1 = clk_lens.iter().filter(|&&l| l <= threshold).count();
            cells[i].2 = dist_lens.iter().filter(|&&l| l <= threshold).count();
        }

        let mut row = vec![t.paper_name.to_string(), inst.len().to_string()];
        for &(_, clk_ok, dist_ok) in &cells {
            row.push(format!("{clk_ok}/{}", scale.runs));
            row.push(format!("{dist_ok}/{}", scale.runs));
        }
        rows.push(row);
        for &(s, clk_ok, dist_ok) in &cells {
            csv.push(format!(
                "{},{},{},{},{},{}",
                t.paper_name,
                inst.len(),
                s.name(),
                clk_ok,
                dist_ok,
                scale.runs
            ));
        }
    }

    let header_refs: Vec<&str> = header.iter().map(|s| &**s).collect();
    report.table(&header_refs, &rows);
    report.series(
        "successes",
        "instance,n,strategy,clk_success,dist_success,runs",
        csv,
    );
    report
}

fn strategy_ix(s: KickStrategy) -> usize {
    KickStrategy::ALL
        .iter()
        .position(|&x| x == s)
        .expect("strategy in ALL")
}
