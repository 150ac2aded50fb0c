//! Cross-crate property tests: the optimizer stack preserves tour
//! validity and exact length bookkeeping under arbitrary seeds and
//! sizes.

use dist_clk::distclk::{run_lockstep, DistConfig};
use dist_clk::lk::{Budget, ChainedLk, ChainedLkConfig, KickStrategy, Optimizer};
use dist_clk::tsp_core::{generate, NeighborLists, Tour};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CLK always returns a valid tour whose recomputed length matches
    /// the reported one, under any seed / kick strategy / size.
    #[test]
    fn clk_invariants(seed in any::<u64>(), n in 40usize..150, which in 0usize..4) {
        let inst = generate::uniform(n, 100_000.0, seed);
        let nl = NeighborLists::build(&inst, 8);
        let cfg = ChainedLkConfig {
            kick: KickStrategy::ALL[which],
            seed,
            ..Default::default()
        };
        let mut engine = ChainedLk::new(&inst, &nl, cfg);
        let res = engine.run(&Budget::kicks(15));
        prop_assert!(res.tour.is_valid());
        prop_assert_eq!(res.tour.length(&inst), res.length);
        // CLK result is never worse than its own construction.
        let qb = dist_clk::lk::construct::quick_boruvka(&inst, None).0.length(&inst);
        prop_assert!(res.length <= qb);
    }

    /// LK never worsens a tour and accounts gains exactly, from any
    /// random start.
    #[test]
    fn lk_gain_exactness(seed in any::<u64>(), n in 30usize..120) {
        use dist_clk::lk::lin_kernighan::{lin_kernighan, LinKernighan, LkConfig};
        use rand::{rngs::SmallRng, SeedableRng};
        let inst = generate::clustered(n, 100_000.0, 4, 3_000.0, seed);
        let nl = NeighborLists::build(&inst, 8);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tour = Tour::random(n, &mut rng);
        let before = tour.length(&inst);
        let mut opt = Optimizer::new(&inst, &nl);
        let mut lk = LinKernighan::new(LkConfig::default());
        let gain = lin_kernighan(&mut lk, &mut opt, &mut tour);
        prop_assert!(gain >= 0);
        prop_assert!(tour.is_valid());
        prop_assert_eq!(tour.length(&inst), before - gain);
    }

    /// The distributed network's reported best equals the recomputed
    /// length of its best tour, for any node count and topology.
    #[test]
    fn distributed_reporting_is_truthful(
        seed in any::<u64>(),
        nodes in 1usize..6,
        topo_ix in 0usize..4,
    ) {
        use dist_clk::p2p::Topology;
        let topo = [Topology::Hypercube, Topology::Ring, Topology::Complete, Topology::Star][topo_ix];
        let inst = generate::uniform(60, 100_000.0, seed % 1000);
        let nl = NeighborLists::build(&inst, 8);
        let cfg = DistConfig {
            nodes,
            topology: topo,
            clk_kicks_per_call: 2,
            budget: Budget::kicks(2),
            seed,
            ..Default::default()
        };
        let res = run_lockstep(&inst, &nl, &cfg);
        prop_assert!(res.best_tour.is_valid());
        prop_assert_eq!(res.best_tour.length(&inst), res.best_length);
        // Every node's best is at least the network best.
        for nr in &res.nodes {
            prop_assert!(nr.best_length >= res.best_length);
        }
    }
}
