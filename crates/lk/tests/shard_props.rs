//! Property tests for the divide-and-optimize pipeline: partition →
//! per-shard CLK → stitch → seam refinement must always yield a valid
//! permutation whose reported length recomputes exactly under the
//! metric, the whole pipeline must be bit-stable under a fixed seed,
//! the one-shard configuration must collapse to the unsharded engine
//! bit-for-bit, and dividing must cost at most 5 % of tour length at
//! equal total kicks.

use obs::Obs;
use proptest::prelude::*;
use tsp_core::{generate, Partition};

use lk::shard::{shard_solve, solve_one_shard, stitch_and_refine, ShardConfig, ShardStats};
use lk::{Budget, ClkEngine};

/// A fast pipeline config: tiny kick budgets, small refinement windows.
fn cfg(shards: usize, seed: u64) -> ShardConfig {
    let mut c = ShardConfig {
        shards,
        kicks_per_shard: 5,
        window: 48,
        ..ShardConfig::default()
    };
    c.clk.seed = seed;
    c
}

/// Recompute a cyclic order's length directly from the metric.
fn cycle_length(inst: &tsp_core::Instance, order: &[u32]) -> i64 {
    let mut len = 0i64;
    for i in 0..order.len() {
        len += inst.dist(order[i] as usize, order[(i + 1) % order.len()] as usize);
    }
    len
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Partition → solve → stitch yields a valid permutation and the
    /// reported length is exactly the recomputed cycle length.
    #[test]
    fn pipeline_yields_valid_permutation_with_exact_length(
        n in 16usize..400,
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        let inst = generate::uniform(n, 10_000.0, seed);
        let res = shard_solve(&inst, &cfg(shards, seed));
        prop_assert!(res.tour.is_valid(), "not a permutation");
        prop_assert_eq!(res.length, cycle_length(&inst, res.tour.order()));
        prop_assert_eq!(res.length, res.stats.stitched_length - res.stats.refine_gain);
    }

    /// The pipeline is a pure function of (instance, config).
    #[test]
    fn fixed_seed_rerun_is_bit_identical(
        n in 16usize..300,
        shards in 2usize..7,
        seed in any::<u64>(),
    ) {
        let inst = generate::uniform(n, 10_000.0, seed);
        let c = cfg(shards, seed);
        let a = shard_solve(&inst, &c);
        let b = shard_solve(&inst, &c);
        prop_assert_eq!(a.tour.order(), b.tour.order());
        prop_assert_eq!(a.length, b.length);
    }

    /// One shard means no partition, no stitch, no seams: exactly the
    /// plain engine under the same seed and budget.
    #[test]
    fn one_shard_is_bit_identical_to_unsharded_engine(
        n in 16usize..300,
        seed in any::<u64>(),
    ) {
        let inst = generate::uniform(n, 10_000.0, seed);
        let c = cfg(1, seed);
        let sharded = shard_solve(&inst, &c);
        let nl = c.clk.build_neighbors(&inst);
        let mut engine = ClkEngine::auto(&inst, &nl, c.clk.clone());
        let plain = engine.run(&Budget::kicks(c.kicks_per_shard));
        prop_assert_eq!(sharded.tour.order(), plain.tour.order());
        prop_assert_eq!(sharded.length, plain.length);
    }
}

/// What dividing costs: at equal total kicks (8 shards × 10 against one
/// engine × 80) the stitched and refined tour is at most 5 % longer
/// than the unsharded one.
#[test]
fn sharded_within_five_percent_of_unsharded_at_equal_total_kicks() {
    let inst = generate::uniform(6_000, 1e6, 4242);
    let mut sharded = ShardConfig {
        shards: 8,
        kicks_per_shard: 10,
        ..ShardConfig::default()
    };
    sharded.clk.seed = 4242;
    let unsharded = ShardConfig {
        shards: 1,
        kicks_per_shard: 80,
        ..sharded.clone()
    };
    let divided = shard_solve(&inst, &sharded).length;
    let whole = shard_solve(&inst, &unsharded).length;
    let gap = (divided - whole) as f64 / whole as f64;
    assert!(
        gap <= 0.05,
        "sharded {divided} vs unsharded {whole}: {:+.2} % (bound 5 %)",
        gap * 100.0
    );
}

/// `shard_solve` solves its shards in parallel; the outcome must be the
/// serial composition of its public stages: `solve_one_shard` for each
/// shard in order, then `stitch_and_refine`. With 13 shards on fewer
/// cores, threads claim several shards each.
#[test]
fn parallel_pipeline_equals_serial_composition() {
    let inst = generate::uniform(2_500, 10_000.0, 99);
    for shards in [2, 3, 8, 13] {
        let c = cfg(shards, 31 + shards as u64);
        let got = shard_solve(&inst, &c);

        let part = Partition::build(&inst, c.shards);
        assert_eq!(part.shard_count(), shards);
        let mut want = ShardStats::default();
        let mut cycles = Vec::new();
        for s in 0..part.shard_count() {
            let (order, length) = solve_one_shard(&inst, &part, s, &c);
            want.shard_lengths.push(length);
            cycles.push(Some(order));
        }
        let tour = stitch_and_refine(&inst, &part, cycles, &c, &Obs::disabled(), &mut want);

        assert_eq!(got.tour.order(), tour.order(), "shards={shards}");
        let summary = |s: &ShardStats| {
            (
                s.shard_lengths.clone(),
                s.stitched_length,
                s.refine_gain,
                s.refine_rounds,
                s.seam_cities,
            )
        };
        assert_eq!(summary(&got.stats), summary(&want), "shards={shards}");
    }
}

/// The benchmark's shape, 100 000 cities in 8 shards, pinned to what
/// the pipeline returned before seam refinement learned to skip
/// windows it had already found nothing in: the skip is exact, so
/// tour length, refinement gain and round count may not move.
#[test]
fn hundred_thousand_cities_in_eight_shards_refine_as_before() {
    let inst = generate::uniform(100_000, 1e6, 4242);
    let mut c = ShardConfig {
        shards: 8,
        kicks_per_shard: 30,
        ..ShardConfig::default()
    };
    c.clk.seed = 7;
    let res = shard_solve(&inst, &c);
    assert_eq!(res.length, 232_886_586);
    assert_eq!(res.length, cycle_length(&inst, res.tour.order()));
    assert_eq!(
        (
            res.stats.refine_gain,
            res.stats.refine_rounds,
            res.stats.seam_cities
        ),
        (38_122, 2, 28)
    );
}
