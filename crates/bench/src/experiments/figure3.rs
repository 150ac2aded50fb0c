//! **Figure 3** — effect of parallelization: convergence of DistCLK
//! with 8 nodes vs. 1 node vs. standalone ABCC-CLK, on the fl3795 and
//! fi10639 stand-ins.
//!
//! Paper shape: the 8-node curve dominates the 1-node curve, which
//! dominates plain CLK; on the drill instance only the distributed
//! variants escape the plateau.

use lk::KickStrategy;

use crate::experiments::common::{dist_config, run_clk_many, run_dist_many, trace_series};
use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new("figure3", "Figure 3: parallelization effect (CSV series)");
    report.para(
        "Per-configuration best-so-far series (seconds, kicks, length). The 8-node \
         series uses the network-best trace; per-node time is the x-axis as in the \
         paper.",
    );

    let instances = [
        scale.stand_in("fl3795", 3795, 128, 16),
        scale.stand_in("fi10639", 2600, 128, 18),
    ];
    let kick = KickStrategy::RandomWalk(50);

    let mut rows = Vec::new();
    for t in &instances {
        let (name, inst) = (t.paper_name, &t.inst);
        let clk = run_clk_many(inst, kick, scale.clk_kicks, 1, 0x31, None).remove(0);
        trace_series(&mut report, format!("{name}_clk"), &clk.trace);
        rows.push(vec![
            name.to_string(),
            "ABCC-CLK".into(),
            clk.length.to_string(),
        ]);

        for nodes in [1usize, scale.nodes] {
            let cfg = dist_config(scale, kick, nodes, 0x32);
            let dist = run_dist_many(inst, &cfg, 1, 0x32, None).remove(0);
            trace_series(
                &mut report,
                format!("{name}_dist{nodes}"),
                &dist.network_trace,
            );
            rows.push(vec![
                name.to_string(),
                format!("DistCLK {nodes} node(s)"),
                dist.best_length.to_string(),
            ]);
        }
    }

    report.table(&["Instance", "Configuration", "Final length"], &rows);
    report
}
