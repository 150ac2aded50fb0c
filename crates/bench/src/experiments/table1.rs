//! **Table 1** — speed-up of the distributed algorithm: per-node effort
//! for ABCC-CLK, DistCLK(1 node) and DistCLK(8 nodes) to reach fixed
//! quality levels, plus the 1-node/8-node speed-up factor.
//!
//! Paper shape: the 8-node variant reaches each level several times —
//! often *more than 8 times* — faster than the 1-node variant
//! (super-linear cooperation), and reaches levels plain CLK never
//! attains within its (10×) budget.
//!
//! Effort unit: kicks (CLK) / kick-equivalents (DistCLK: CLK calls ×
//! internal kicks per call). Wall time is not used: the lockstep driver
//! spreads the nodes over however many cores the host has, so per-node
//! wall time across different node counts is incomparable (DESIGN.md
//! §3). Quality levels are
//! placed relative to the best length over *all* runs of the instance
//! (surrogate optimum), so they discriminate at any scale — the paper
//! used fixed percentages over known optima, which our scaled stand-ins
//! reach either instantly or never.

use distclk::DistResult;
use lk::KickStrategy;

use crate::experiments::common::{dist_config, mean_kicks_to, run_clk_many, run_dist_many};
use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "table1",
        "Table 1: per-node effort to reach quality levels (CLK vs DistCLK 1/8 nodes)",
    );
    report.para(&format!(
        "{} runs per configuration; CLK budget {} kicks; DistCLK per-node budget {} \
         kick-equivalents (1/10). Levels are % above the best length over all runs of \
         the instance. Entries: mean kicks per node to first reach the level; '-' = \
         not reached by every run of that configuration.",
        scale.runs,
        scale.clk_kicks,
        scale.dist_kicks_per_node()
    ));

    let kick = KickStrategy::RandomWalk(50);
    // Distributed traces record CLK calls; convert to kick-equivalents.
    let per_call = scale.kicks_per_call as f64;
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for t in [
        scale.stand_in("pr2392*", 2392, 200, 14),
        scale.stand_in("fi10639*", 2600, 200, 18),
    ] {
        let (name, inst) = (t.paper_name, &t.inst);
        let clk = run_clk_many(inst, kick, scale.clk_kicks, scale.runs, 0x11, None);
        let one_cfg = dist_config(scale, kick, 1, 0);
        let one = run_dist_many(inst, &one_cfg, scale.runs, 0x12, None);
        let eight_cfg = dist_config(scale, kick, scale.nodes, 0);
        let eight = run_dist_many(inst, &eight_cfg, scale.runs, 0x13, None);

        let clk_traces: Vec<_> = clk.iter().map(|r| r.trace.clone()).collect();
        let traces = |runs: &[DistResult]| -> Vec<_> {
            runs.iter().map(|r| r.network_trace.clone()).collect()
        };
        let (one_traces, eight_traces) = (traces(&one), traces(&eight));
        // Surrogate reference: best final length over every run.
        let dist_best = one.iter().chain(&eight).map(|r| r.best_length);
        let best = clk.iter().map(|r| r.length).chain(dist_best).min();
        let best = best.expect("runs exist");

        for (frac, label) in [(0.01, "1%"), (0.005, "0.5%"), (0.002, "0.2%")] {
            let target = best + (best as f64 * frac) as i64;
            let e_clk = mean_kicks_to(&clk_traces, target);
            let e_one = mean_kicks_to(&one_traces, target).map(|c| c * per_call);
            let e_eight = mean_kicks_to(&eight_traces, target).map(|c| c * per_call);
            let factor = match (e_one, e_eight) {
                (Some(a), Some(b)) if b > 0.0 => format!("{:.2}", a / b),
                (Some(_), Some(_)) => ">1 (8n instant)".into(),
                _ => "-".into(),
            };
            let efforts = [e_clk, e_one, e_eight];
            let raw = efforts.map(|e| e.map(|v| v.to_string()).unwrap_or_default());
            csv.push(format!("{name},{label},{},{factor}", raw.join(",")));
            let mut row = vec![name.to_string(), label.to_string()];
            row.extend(efforts.map(|e| e.map_or("-".into(), |v| format!("{v:.0}"))));
            row.push(factor);
            rows.push(row);
        }
    }

    let header = [
        "Instance",
        "Level",
        "ABCC-CLK",
        "1 node",
        "8 nodes",
        "Factor(1v8)",
    ];
    report.table(&header, &rows);
    report.series(
        "speedup",
        "instance,level,clk_kicks,one_node_kicks,eight_node_kicks,factor",
        csv,
    );
    report
}
