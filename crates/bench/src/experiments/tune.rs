//! Internal diagnostic (not a paper experiment): where does the
//! cooperative advantage kick in as the budget grows? Used to pick the
//! quick-scale budgets; kept because it regenerates the tuning data in
//! EXPERIMENTS.md.

use lk::KickStrategy;

use crate::experiments::common::{dist_config, mean, mean_best, run_clk_many, run_dist_many};
use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new("tune", "Budget maturity: CLK vs DistCLK across budgets");
    let instances = [
        scale.stand_in("fl1577*", 1577, 128, 13),
        scale.stand_in("E1k*", 1000, 128, 12),
    ];
    let kick = KickStrategy::RandomWalk(50);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for t in &instances {
        let (name, inst) = (t.paper_name, &t.inst);
        for clk_kicks in [500u64, 1500, 4000] {
            let clk = run_clk_many(inst, kick, clk_kicks, scale.runs, 0xE1, None);
            let clk_mean = mean(&clk.iter().map(|r| r.length as f64).collect::<Vec<_>>());
            let mut cfg = dist_config(scale, kick, scale.nodes, 0);
            cfg.clk_kicks_per_call = 5;
            cfg.budget = lk::Budget::kicks((clk_kicks / 10 / 5).max(1));
            let dist_mean = mean_best(&run_dist_many(inst, &cfg, scale.runs, 0xE2, None));
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
