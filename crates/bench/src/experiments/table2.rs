//! **Table 2** — comparison with other heuristic TSP solver families,
//! normalized by the machine calibration factor (§4.3):
//!
//! - **LKH** → our [`lkh_lite`](crate::baselines::lkh_lite)
//!   (α-nearness LK): better final tours, much longer time.
//! - **Walshaw's multilevel CLK** → our
//!   [`multilevel`](crate::baselines::multilevel): fast, final quality
//!   below DistCLK's first-iteration quality.
//! - **Cook & Seymour tour merging** → our
//!   [`tour_merge`](crate::baselines::tour_merge) over 10 CLK tours:
//!   excellent quality, mid-range time.
//! - **DistCLK** — per the paper: time is per-node CPU time × nodes.
//!
//! Paper shape: DistCLK needs more time on small instances but the
//! ratio shifts in its favour as instances grow.

use lk::{Budget, KickStrategy};

use crate::baselines::lkh_lite::{lkh_lite, LkhLiteConfig};
use crate::baselines::multilevel::{multilevel_clk, MultilevelConfig};
use crate::baselines::tour_merge::merge_tours;
use crate::calibrate::normalization_factor;
use crate::experiments::common::{dist_config, reference_for, run_clk_many, run_dist_many};
use crate::report::{fmt_excess, fmt_secs, Report};
use crate::testbed::Scale;

/// Run `f` and return its output with its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

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

    for t in [
        scale.stand_in("pr2392*", 1200, 128, 14),
        scale.stand_in("fl3795*", 1900, 128, 16),
        scale.stand_in("fnl4461*", 2200, 128, 17),
    ] {
        let (name, inst) = (t.paper_name, &t.inst);
        let lkh_cfg = LkhLiteConfig {
            trials: (scale.clk_kicks / 4).max(50),
            seed: 21,
            ..Default::default()
        };
        let (lkh, lkh_secs) = timed(|| lkh_lite(inst, &lkh_cfg, &Budget::kicks(lkh_cfg.trials)));
        let (ml, ml_secs) = timed(|| multilevel_clk(inst, &MultilevelConfig::default(), 22));
        // Tour merging over 10 independent CLK tours.
        let (tm_len, tm_secs) = timed(|| {
            let parent_kicks = (scale.clk_kicks / 10).max(20);
            let parents = run_clk_many(
                inst,
                KickStrategy::Geometric(12),
                parent_kicks,
                10,
                23,
                None,
            );
            let parent_tours: Vec<_> = parents.into_iter().map(|r| r.tour).collect();
            merge_tours(inst, &parent_tours).length(inst)
        });
        let cfg = dist_config(scale, KickStrategy::RandomWalk(50), scale.nodes, 24);
        let dist = run_dist_many(inst, &cfg, 1, 24, None).remove(0);
        // The nodes' busy time summed — the paper's "per-node CPU time
        // x 8" quantity, however many nodes shared a core.
        let dist_secs = dist.total_node_seconds();

        let results = [
            (lkh.clk.length, lkh_secs),
            (ml.length, ml_secs),
            (tm_len, tm_secs),
            (dist.best_length, dist_secs),
        ];
        let reference = reference_for(inst, results.map(|(len, _)| len));
        let mut row = vec![name.to_string()];
        row.extend(results.map(|(len, secs)| {
            let excess = fmt_excess(reference.excess(len));
            format!("{excess} / {}", fmt_secs(secs * factor))
        }));
        rows.push(row);
        let cols = results.map(|(len, secs)| format!("{len},{:.4}", secs * factor));
        csv.push(format!("{name},{}", cols.join(",")));
    }

    report.table(&header, &rows);
    report.series(
        "comparison",
        "instance,lkh_len,lkh_nsecs,ml_len,ml_nsecs,tm_len,tm_nsecs,dist_len,dist_nsecs",
        csv,
    );
    report
}
