//! The Table 2 comparator family side by side: plain CLK, LKH-lite
//! (α-nearness), multilevel CLK, and tour merging, on one instance.
//!
//! ```text
//! cargo run --release --example baselines
//! ```

use dist_clk::bench::baselines::lkh_lite::{lkh_lite, LkhLiteConfig};
use dist_clk::bench::baselines::multilevel::{multilevel_clk, MultilevelConfig};
use dist_clk::bench::baselines::tour_merge::merge_tours;
use dist_clk::lk::{Budget, ChainedLk, ChainedLkConfig, KickStrategy};
use dist_clk::tsp_core::{generate, NeighborLists};

fn main() {
    let inst = generate::uniform(1200, 1_000_000.0, 5);
    let neighbors = NeighborLists::build(&inst, 10);
    println!("instance: {} ({} cities)\n", inst.name(), inst.len());
    println!("{:<22} {:>12} {:>10}", "method", "length", "secs");

    // Plain CLK, 800 kicks.
    let t = std::time::Instant::now();
    let mut engine = ChainedLk::new(&inst, &neighbors, ChainedLkConfig::default());
    let clk = engine.run(&Budget::kicks(800));
    println!(
        "{:<22} {:>12} {:>9.2}s",
        "CLK (800 kicks)",
        clk.length,
        t.elapsed().as_secs_f64()
    );

    // LKH-lite: α-nearness candidates, deeper search, fewer trials.
    let t = std::time::Instant::now();
    let lkh = lkh_lite(&inst, &LkhLiteConfig::default(), &Budget::kicks(200));
    println!(
        "{:<22} {:>12} {:>9.2}s (incl. {:.2}s ascent)",
        "LKH-lite (200 trials)",
        lkh.clk.length,
        t.elapsed().as_secs_f64(),
        lkh.preprocess_seconds
    );

    // Multilevel CLK.
    let t = std::time::Instant::now();
    let ml = multilevel_clk(&inst, &MultilevelConfig::default(), 1);
    println!(
        "{:<22} {:>12} {:>9.2}s ({} levels)",
        "Multilevel CLK",
        ml.length,
        t.elapsed().as_secs_f64(),
        ml.levels
    );

    // Tour merging over 10 independent CLK runs.
    let t = std::time::Instant::now();
    let parents: Vec<_> = (0..10)
        .map(|seed| {
            let mut e = ChainedLk::new(
                &inst,
                &neighbors,
                ChainedLkConfig {
                    kick: KickStrategy::Geometric(12),
                    seed,
                    ..Default::default()
                },
            );
            e.run(&Budget::kicks(80)).tour
        })
        .collect();
    let merged = merge_tours(&inst, &parents);
    let best_parent = parents.iter().map(|p| p.length(&inst)).min().unwrap();
    println!(
        "{:<22} {:>12} {:>9.2}s (best parent {})",
        "TourMerge (10x CLK)",
        merged.length(&inst),
        t.elapsed().as_secs_f64(),
        best_parent
    );
}
