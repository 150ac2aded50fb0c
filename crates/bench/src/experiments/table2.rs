//! **Table 2** — comparison with other heuristic TSP solver families,
//! normalized by the machine calibration factor (§4.3):
//!
//! - **LKH** → our `lkh_lite` (α-nearness LK): better final tours,
//!   much longer time.
//! - **Walshaw's multilevel CLK** → our `multilevel`: fast, final
//!   quality below DistCLK's first-iteration quality.
//! - **Cook & Seymour tour merging** → our `tour_merge` over 10 CLK
//!   tours: excellent quality, mid-range time.
//! - **DistCLK** — per the paper: time is per-node CPU time × nodes.
//!
//! Paper shape: DistCLK needs more time on small instances but the
//! ratio shifts in its favour as instances grow.

use lk::lkh_lite::{lkh_lite, LkhLiteConfig};
use lk::multilevel::{multilevel_clk, MultilevelConfig};
use lk::tour_merge::merge_tours;
use lk::KickStrategy;

use crate::calibrate::normalization_factor;
use crate::experiments::common::{dist_config, reference_for, run_clk_many, run_dist_many};
use crate::report::{fmt_excess, fmt_secs, Report};
use crate::testbed::Scale;
use tsp_core::generate;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new(
        "table2",
        "Table 2: normalized comparison with LKH-lite / multilevel CLK / tour merging",
    );
    let factor = normalization_factor();
    report.para(&format!(
        "Machine normalization factor {factor:.3} (fixed CLK workload vs. the recorded \
         reference; the DIMACS methodology in miniature). DistCLK time = per-node \
         busy seconds summed over {} nodes, as in the paper.",
        scale.nodes
    ));

    let header = [
        "Instance",
        "LKH-lite dist / time",
        "Multilevel dist / time",
        "TourMerge dist / time",
        "DistCLK dist / time",
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();

    let sized = |base: usize| ((base as f64 * scale.size_factor) as usize).max(128);
    let instances = vec![
        ("pr2392*", generate::pcb_like(sized(1200), 14)),
        ("fl3795*", generate::drill_plate(sized(1900), 16)),
        ("fnl4461*", generate::uniform(sized(2200), 1_000_000.0, 17)),
    ];

    for (name, inst) in &instances {
        // LKH-lite.
        let lkh_cfg = LkhLiteConfig {
            trials: (scale.clk_kicks / 4).max(50),
            seed: 21,
            ..Default::default()
        };
        let lkh_start = std::time::Instant::now();
        let lkh = lkh_lite(inst, &lkh_cfg, &lk::Budget::kicks(lkh_cfg.trials));
        let lkh_secs = lkh_start.elapsed().as_secs_f64();

        // Multilevel.
        let ml_start = std::time::Instant::now();
        let ml = multilevel_clk(inst, &MultilevelConfig::default(), 22);
        let ml_secs = ml_start.elapsed().as_secs_f64();

        // Tour merging over 10 independent CLK tours.
        let tm_start = std::time::Instant::now();
        let parents = run_clk_many(
            inst,
            KickStrategy::Geometric(12),
            (scale.clk_kicks / 10).max(20),
            10,
            23,
            None,
        );
        let parent_tours: Vec<_> = parents.into_iter().map(|r| r.tour).collect();
        let tm_tour = merge_tours(inst, &parent_tours);
        let tm_len = tm_tour.length(inst);
        let tm_secs = tm_start.elapsed().as_secs_f64();

        // DistCLK.
        let cfg = dist_config(scale, KickStrategy::RandomWalk(50), scale.nodes, 24);
        let dist = run_dist_many(inst, &cfg, 1, 24, None).remove(0);
        // The nodes' busy time summed — the paper's "per-node CPU time
        // x 8" quantity, however many nodes shared a core.
        let dist_secs = dist.total_node_seconds();

        let reference = reference_for(inst, [lkh.clk.length, ml.length, tm_len, dist.best_length]);
        let cell = |len: i64, secs: f64| {
            format!(
                "{} / {}",
                fmt_excess(reference.excess(len)),
                fmt_secs(secs * factor)
            )
        };
        rows.push(vec![
            name.to_string(),
            cell(lkh.clk.length, lkh_secs),
            cell(ml.length, ml_secs),
            cell(tm_len, tm_secs),
            cell(dist.best_length, dist_secs),
        ]);
        csv.push(format!(
            "{},{},{:.4},{},{:.4},{},{:.4},{},{:.4}",
            name,
            lkh.clk.length,
            lkh_secs * factor,
            ml.length,
            ml_secs * factor,
            tm_len,
            tm_secs * factor,
            dist.best_length,
            dist_secs * factor
        ));
    }

    report.table(&header, &rows);
    report.series(
        "comparison",
        "instance,lkh_len,lkh_nsecs,ml_len,ml_nsecs,tm_len,tm_nsecs,dist_len,dist_nsecs",
        csv,
    );
    report
}
