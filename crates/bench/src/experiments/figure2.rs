//! **Figure 2** — convergence traces.
//!
//! (a, b): tour length vs. CPU time for standalone CLK under each of
//! the four kicking strategies (fl1577 and sw24978 stand-ins).
//! (c, d): DistCLK (8 nodes) vs. ABCC-CLK on the same instances with
//! the Random-walk kick.
//!
//! Paper shape: on the drill instance CLK flat-lines in a local optimum
//! while DistCLK keeps improving; on the road instance DistCLK reaches
//! CLK's final level in a small fraction of the per-node time.

use lk::KickStrategy;

use crate::experiments::common::{dist_config, run_clk_many, run_dist_many, trace_series};
use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new("figure2", "Figure 2: convergence traces (CSV series)");
    report.para(
        "Series are written as CSV (seconds, kicks, best length); plot length vs. \
         seconds to reproduce the figure. One representative run per configuration.",
    );

    let instances = [
        scale.stand_in("fl1577", 1577, 128, 13),
        scale.stand_in("sw24978", 4000, 128, 19),
    ];

    let mut summary_rows = Vec::new();
    for t in &instances {
        let (name, inst) = (t.paper_name, &t.inst);
        // Panels (a)/(b): CLK per strategy.
        for strategy in KickStrategy::ALL {
            let run = run_clk_many(inst, strategy, scale.clk_kicks, 1, 0xF2, None).remove(0);
            summary_rows.push(vec![
                name.to_string(),
                format!("CLK {}", strategy.name()),
                run.length.to_string(),
                format!("{:.2}", run.seconds),
            ]);
            let label = strategy.name().to_lowercase().replace('-', "");
            trace_series(&mut report, format!("{name}_clk_{label}"), &run.trace);
        }
        // Panels (c)/(d): DistCLK 8 nodes, Random-walk.
        let cfg = dist_config(scale, KickStrategy::RandomWalk(50), scale.nodes, 0xF3);
        let dist = run_dist_many(inst, &cfg, 1, 0xF3, None).remove(0);
        summary_rows.push(vec![
            name.to_string(),
            "DistCLK 8 nodes".into(),
            dist.best_length.to_string(),
            format!("{:.2}", dist.wall_seconds),
        ]);
        trace_series(&mut report, format!("{name}_dist8"), &dist.network_trace);
    }

    report.table(
        &["Instance", "Configuration", "Final length", "Seconds"],
        &summary_rows,
    );
    report
}
