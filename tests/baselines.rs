//! Integration tests for the Table 2 comparator family.

use dist_clk::bench::baselines::lkh_lite::{lkh_lite, LkhLiteConfig};
use dist_clk::bench::baselines::multilevel::{multilevel_clk, MultilevelConfig};
use dist_clk::bench::baselines::tour_merge::merge_tours;
use dist_clk::heldkarp::{held_karp_bound, AscentConfig};
use dist_clk::lk::{Budget, ChainedLk, ChainedLkConfig, KickStrategy};
use dist_clk::tsp_core::{generate, NeighborLists};

/// Every solver family stays above the Held-Karp bound and below the
/// construction tour — the sandwich every correct TSP heuristic obeys.
#[test]
fn solvers_sandwiched_between_bound_and_construction() {
    let inst = generate::uniform(300, 100_000.0, 11);
    let hk = held_karp_bound(
        &inst,
        &AscentConfig {
            max_iterations: 80,
            ..Default::default()
        },
    )
    .bound;
    let qb = dist_clk::lk::construct::quick_boruvka(&inst, None)
        .0
        .length(&inst);

    let nl = NeighborLists::build(&inst, 10);
    let mut engine = ChainedLk::new(&inst, &nl, ChainedLkConfig::default());
    let clk = engine.run(&Budget::kicks(200)).length;

    let lkh = lkh_lite(
        &inst,
        &LkhLiteConfig {
            trials: 50,
            ascent: AscentConfig {
                max_iterations: 40,
                ..Default::default()
            },
            ..Default::default()
        },
        &Budget::kicks(50),
    )
    .clk
    .length;

    let ml = multilevel_clk(&inst, &MultilevelConfig::default(), 2).length;

    for (name, len) in [("CLK", clk), ("LKH-lite", lkh), ("multilevel", ml)] {
        assert!(len >= hk, "{name} {len} below HK bound {hk}");
        assert!(len <= qb, "{name} {len} worse than bare construction {qb}");
    }
}

/// Tour merging over diverse parents never loses to the best parent
/// and respects the HK bound.
#[test]
fn tour_merge_dominates_parents() {
    let inst = generate::clustered_dimacs(250, 12);
    let nl = NeighborLists::build(&inst, 10);
    let parents: Vec<_> = (0..8)
        .map(|seed| {
            let mut e = ChainedLk::new(
                &inst,
                &nl,
                ChainedLkConfig {
                    kick: KickStrategy::Geometric(12),
                    seed,
                    ..Default::default()
                },
            );
            e.run(&Budget::kicks(20)).tour
        })
        .collect();
    let merged = merge_tours(&inst, &parents);
    let best_parent = parents.iter().map(|p| p.length(&inst)).min().unwrap();
    assert!(merged.is_valid());
    assert!(merged.length(&inst) <= best_parent);
}

/// The α-nearness pipeline runs end to end on every generator family.
#[test]
fn alpha_pipeline_on_all_generators() {
    for inst in [
        generate::uniform(120, 100_000.0, 1),
        generate::clustered_dimacs(120, 2),
        generate::drill_plate(120, 3),
        generate::pcb_like(120, 4),
        generate::road_like(120, 5),
    ] {
        let cfg = LkhLiteConfig {
            trials: 10,
            ascent: AscentConfig {
                max_iterations: 25,
                ..Default::default()
            },
            ..Default::default()
        };
        let res = lkh_lite(&inst, &cfg, &Budget::kicks(10));
        assert!(res.clk.tour.is_valid(), "{}", inst.name());
    }
}

/// Multilevel and plain CLK agree within a small factor; multilevel
/// does not produce garbage on clustered data (the coarsening edge
/// case the paper's related-work section flags for Bachem/Wottawa).
#[test]
fn multilevel_quality_sane_on_clusters() {
    let inst = generate::clustered(400, 1_000_000.0, 6, 10_000.0, 12);
    let nl = NeighborLists::build(&inst, 10);
    let ml = multilevel_clk(&inst, &MultilevelConfig::default(), 5);
    let mut engine = ChainedLk::new(
        &inst,
        &nl,
        ChainedLkConfig {
            seed: 5,
            ..Default::default()
        },
    );
    let clk = engine.run(&Budget::kicks(100));
    assert!(
        (ml.length as f64) < 1.2 * clk.length as f64,
        "multilevel {} vs CLK {}",
        ml.length,
        clk.length
    );
}
