//! Internal diagnostic (not a paper experiment): where does the
//! cooperative advantage kick in as the budget grows? Used to pick the
//! quick-scale budgets; kept because it regenerates the tuning data in
//! EXPERIMENTS.md.

use lk::KickStrategy;

use crate::experiments::common::{dist_config, mean, run_clk_many, run_dist_many};
use crate::report::Report;
use crate::testbed::Scale;
use tsp_core::generate;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new("tune", "Budget maturity: CLK vs DistCLK across budgets");
    let sized = |b: usize| ((b as f64 * scale.size_factor) as usize).max(128);
    let instances = [
        ("fl1577*", generate::drill_plate(sized(1577), 13)),
        ("E1k*", generate::uniform(sized(1000), 1_000_000.0, 12)),
    ];
    let kick = KickStrategy::RandomWalk(50);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, inst) in &instances {
        for clk_kicks in [500u64, 1500, 4000] {
            let clk = run_clk_many(inst, kick, clk_kicks, scale.runs, 0xE1, None);
            let clk_mean = mean(&clk.iter().map(|r| r.length as f64).collect::<Vec<_>>());
            let mut cfg = dist_config(scale, kick, scale.nodes, 0);
            cfg.clk_kicks_per_call = 5;
            cfg.budget = lk::Budget::kicks((clk_kicks / 10 / 5).max(1));
            let dist = run_dist_many(inst, &cfg, scale.runs, 0xE2, None);
            let dist_mean = mean(
                &dist
                    .iter()
                    .map(|r| r.best_length as f64)
                    .collect::<Vec<_>>(),
            );
            rows.push(vec![
                name.to_string(),
                clk_kicks.to_string(),
                format!("{clk_mean:.0}"),
                format!("{dist_mean:.0}"),
                format!("{:+.3}%", (dist_mean - clk_mean) / clk_mean * 100.0),
            ]);
            csv.push(format!("{name},{clk_kicks},{clk_mean:.1},{dist_mean:.1}"));
        }
    }
    report.table(
        &[
            "Instance",
            "CLK kicks",
            "CLK mean",
            "Dist mean (1/10 per node)",
            "Dist vs CLK",
        ],
        &rows,
    );
    report.series("tune", "instance,clk_kicks,clk_mean,dist_mean", csv);
    report
}
