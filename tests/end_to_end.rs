//! Cross-crate integration tests: the full pipeline from instance
//! generation through the distributed algorithm, over both transports.

use dist_clk::distclk::{run_lockstep, run_threads, DistConfig};
use dist_clk::lk::{Budget, ChainedLk, ChainedLkConfig, KickStrategy};
use dist_clk::p2p::Topology;
use dist_clk::tsp_core::{generate, NeighborLists};

/// The headline claim, statistical miniature: with the same total kick
/// budget, the 8-node cooperative runs are on average at least as good
/// as the standalone CLK runs on a structured instance (the paper's
/// effect is statistical over 10 runs; we average 3 deterministic
/// seeds and allow 0.1% slack).
#[test]
fn distributed_not_worse_at_equal_total_effort() {
    let inst = generate::drill_plate(400, 7);
    let nl = NeighborLists::build(&inst, 10);

    let mut clk_total = 0f64;
    let mut dist_total = 0f64;
    for seed in 1..=3u64 {
        // Standalone: 800 kicks.
        let mut engine = ChainedLk::new(
            &inst,
            &nl,
            ChainedLkConfig {
                seed,
                ..Default::default()
            },
        );
        clk_total += engine.run(&Budget::kicks(800)).length as f64;

        // Distributed: 8 nodes x 100 kicks = same total effort.
        let cfg = DistConfig {
            nodes: 8,
            clk_kicks_per_call: 20,
            budget: Budget::kicks(5), // 5 calls x 20 kicks = 100 kicks/node
            seed,
            ..Default::default()
        };
        dist_total += run_lockstep(&inst, &nl, &cfg).best_length as f64;
    }
    assert!(
        dist_total <= clk_total * 1.001,
        "distributed mean {} worse than standalone mean {}",
        dist_total / 3.0,
        clk_total / 3.0
    );
}

/// A small grid is solved to its provable optimum by the network, and
/// the optimum-found notification shuts everyone down early.
#[test]
fn network_solves_grid_and_terminates() {
    let inst = generate::grid_known_optimum(8, 8, 100.0);
    let nl = NeighborLists::build(&inst, 8);
    let cfg = DistConfig {
        nodes: 4,
        clk_kicks_per_call: 40,
        budget: Budget::kicks(500).with_target(inst.known_optimum().unwrap()),
        seed: 3,
        ..Default::default()
    };
    let res = run_lockstep(&inst, &nl, &cfg);
    assert_eq!(res.best_length, inst.known_optimum().unwrap());
    for n in &res.nodes {
        assert!(n.clk_calls < 500, "node {} did not terminate early", n.id);
    }
}

/// Thread-per-node driver over the in-memory transport works with every
/// kicking strategy and topology.
#[test]
fn threads_all_strategies_and_topologies() {
    let inst = generate::uniform(150, 100_000.0, 5);
    let nl = NeighborLists::build(&inst, 8);
    for (strategy, topology) in [
        (KickStrategy::Random, Topology::Ring),
        (KickStrategy::Geometric(12), Topology::Complete),
        (KickStrategy::Close(100), Topology::Star),
        (KickStrategy::RandomWalk(30), Topology::Hypercube),
    ] {
        let mut cfg = DistConfig {
            nodes: 4,
            topology,
            clk_kicks_per_call: 5,
            budget: Budget::kicks(3),
            seed: 4,
            ..Default::default()
        };
        cfg.clk.kick = strategy;
        let res = run_threads(&inst, &nl, &cfg);
        assert!(res.best_tour.is_valid(), "{strategy:?}/{topology:?}");
        assert_eq!(res.best_tour.length(&inst), res.best_length);
    }
}

/// Real TCP loopback: hub bootstrap + hypercube + the node loop.
#[test]
fn tcp_cluster_end_to_end() {
    use dist_clk::distclk::driver::run_over_transports;
    use dist_clk::p2p::hub::bootstrap_local;
    use dist_clk::p2p::Transport;

    let inst = generate::uniform(120, 100_000.0, 6);
    let nl = NeighborLists::build(&inst, 8);
    let nodes = 4;
    let endpoints = bootstrap_local(nodes, Topology::Hypercube).expect("bootstrap");
    // Wait for reverse edges.
    dist_clk::p2p::wait_until(
        || {
            endpoints
                .iter()
                .enumerate()
                .all(|(i, e)| e.neighbors().len() >= Topology::Hypercube.neighbors(i, nodes).len())
        },
        std::time::Duration::from_secs(5),
    );
    let cfg = DistConfig {
        nodes,
        clk_kicks_per_call: 5,
        budget: Budget::kicks(3),
        seed: 7,
        ..Default::default()
    };
    let result = run_over_transports(&inst, &nl, &cfg, endpoints);
    assert_eq!(result.nodes.len(), nodes);
    for r in &result.nodes {
        assert!(r.best_tour.is_valid());
        assert!(r.clk_calls >= 3);
        assert!(!r.aborted);
    }
}

/// The lockstep driver is exactly reproducible across invocations —
/// the property every effort-budgeted experiment rests on.
#[test]
fn lockstep_reproducibility_across_configs() {
    let inst = generate::clustered_dimacs(200, 8);
    let nl = NeighborLists::build(&inst, 8);
    for nodes in [1usize, 2, 8] {
        let cfg = DistConfig {
            nodes,
            clk_kicks_per_call: 4,
            budget: Budget::kicks(4),
            seed: 9,
            ..Default::default()
        };
        let a = run_lockstep(&inst, &nl, &cfg);
        let b = run_lockstep(&inst, &nl, &cfg);
        assert_eq!(a.best_length, b.best_length, "nodes={nodes}");
        assert_eq!(a.total_broadcasts(), b.total_broadcasts(), "nodes={nodes}");
    }
}
