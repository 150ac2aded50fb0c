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

use crate::experiments::common::{
    dist_config, reference_for, run_clk_many, run_dist_many, strategy_header,
};
use crate::report::Report;
use crate::testbed::{small_testbed, Reference, Scale};

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

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for t in &small_testbed(scale) {
        let inst = &t.inst;
        let target = inst.known_optimum();
        // Per strategy: the final lengths of the CLK and the DistCLK runs.
        let per_strategy: Vec<(Vec<i64>, Vec<i64>)> = (0..)
            .zip(KickStrategy::ALL)
            .map(|(i, strategy): (u64, _)| {
                let (kicks, runs) = (scale.clk_kicks, scale.runs);
                let clk = run_clk_many(inst, strategy, kicks, runs, 0xC1 + i * 1000, target);
                let dist_cfg = dist_config(scale, strategy, scale.nodes, 0);
                let dist = run_dist_many(inst, &dist_cfg, runs, 0xD1 + i * 1000, target);
                (
                    clk.iter().map(|r| r.length).collect(),
                    dist.iter().map(|r| r.best_length).collect(),
                )
            })
            .collect();

        let all = per_strategy.iter().flat_map(|(c, d)| c.iter().chain(d));
        // Known optima are matched exactly (as in the paper). Surrogate
        // references (= the single best run over all 24 runs of this
        // instance) get a 0.03% acceptance band: demanding an exact
        // match to the global best would just reward whichever
        // configuration produced that one run.
        let threshold = match reference_for(inst, all.copied()) {
            Reference::Optimum(v) => v,
            Reference::Surrogate(v) => v + (v as f64 * 0.0003) as i64,
        };
        let successes = |lens: &[i64]| lens.iter().filter(|&&l| l <= threshold).count();

        let mut row = vec![t.paper_name.to_string(), inst.len().to_string()];
        for (strategy, (clk, dist)) in KickStrategy::ALL.iter().zip(&per_strategy) {
            let (clk_ok, dist_ok) = (successes(clk), successes(dist));
            row.push(format!("{clk_ok}/{}", scale.runs));
            row.push(format!("{dist_ok}/{}", scale.runs));
            csv.push(format!(
                "{},{},{},{clk_ok},{dist_ok},{}",
                t.paper_name,
                inst.len(),
                strategy.name(),
                scale.runs
            ));
        }
        rows.push(row);
    }

    report.table(&strategy_header(&["Instance", "n"], ["CLK", "Dist"]), &rows);
    report.series(
        "successes",
        "instance,n,strategy,clk_success,dist_success,runs",
        csv,
    );
    report
}
