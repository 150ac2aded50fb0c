//! distclk integration tests: the deterministic lockstep driver as a
//! test harness for the algorithm's cooperative semantics.

use std::collections::{BTreeMap, BTreeSet};

use distclk::{run_lockstep, run_lockstep_over, DistConfig, NodeDriver, NodeEvent, NodeResult};
use lk::{Budget, KickStrategy};
use p2p::{InMemoryNetwork, Topology};
use tsp_core::{generate, Instance, NeighborLists};

fn base_cfg(nodes: usize, calls: u64, seed: u64) -> DistConfig {
    DistConfig {
        nodes,
        clk_kicks_per_call: 4,
        budget: Budget::kicks(calls),
        seed,
        ..Default::default()
    }
}

/// Tours received from peers are marked non-local in the event log and
/// are never re-broadcast (Fig. 1's `else if s_best = s` guard) —
/// verified over a full run by cross-checking message counts.
#[test]
fn broadcast_discipline() {
    let inst = generate::uniform(150, 100_000.0, 21);
    let nl = NeighborLists::build(&inst, 8);
    let res = run_lockstep(&inst, &nl, &base_cfg(8, 8, 3));
    // In a hypercube of 8 every node has 3 neighbors: total tour
    // messages = 3 * broadcasts (minus sends to already-left nodes at
    // the very end).
    let (_, _, tour_msgs) = res.messages;
    let broadcasts = res.total_broadcasts();
    assert!(broadcasts > 0);
    assert!(
        tour_msgs <= broadcasts * 3,
        "{tour_msgs} tour messages for {broadcasts} broadcasts"
    );
    assert!(
        tour_msgs >= broadcasts, // at least one neighbor reachable
        "{tour_msgs} tour messages for {broadcasts} broadcasts"
    );
    // Received improvements exist and are flagged non-local.
    let any_received = res.nodes.iter().any(|n| {
        n.events
            .iter()
            .any(|e| matches!(e, NodeEvent::Improved { local: false, .. }))
    });
    assert!(any_received, "nobody adopted a received tour");
}

/// Changing only the topology changes message flow but every topology
/// still converges and reports truthfully.
#[test]
fn topologies_all_converge() {
    let inst = generate::clustered_dimacs(150, 22);
    let nl = NeighborLists::build(&inst, 8);
    let mut lengths = Vec::new();
    for topo in [
        Topology::Hypercube,
        Topology::Ring,
        Topology::Complete,
        Topology::Star,
    ] {
        let mut cfg = base_cfg(8, 6, 5);
        cfg.topology = topo;
        let res = run_lockstep(&inst, &nl, &cfg);
        assert_eq!(res.best_tour.length(&inst), res.best_length, "{topo:?}");
        lengths.push(res.best_length);
    }
    // All topologies land in the same quality ballpark (within 5%).
    let (min, max) = (
        *lengths.iter().min().unwrap(),
        *lengths.iter().max().unwrap(),
    );
    assert!(
        (max - min) as f64 <= 0.05 * min as f64,
        "topology spread too wide: {lengths:?}"
    );
}

/// The no-DBM ablation runs and the default variant is not worse on
/// average (the paper's §4.2 finding, statistically).
#[test]
fn dbm_ablation_shape() {
    let inst = generate::drill_plate(200, 23);
    let nl = NeighborLists::build(&inst, 8);
    let mut with_dbm = 0i64;
    let mut without_dbm = 0i64;
    for seed in 0..3u64 {
        let mut cfg = base_cfg(4, 8, seed);
        cfg.use_dbm = true;
        with_dbm += run_lockstep(&inst, &nl, &cfg).best_length;
        cfg.use_dbm = false;
        without_dbm += run_lockstep(&inst, &nl, &cfg).best_length;
    }
    assert!(
        with_dbm <= without_dbm,
        "DBM variant {with_dbm} worse than no-DBM {without_dbm}"
    );
}

/// Every kicking strategy works through the whole distributed stack.
#[test]
fn all_kicks_through_distributed_stack() {
    let inst = generate::uniform(120, 100_000.0, 24);
    let nl = NeighborLists::build(&inst, 8);
    for strategy in KickStrategy::ALL {
        let mut cfg = base_cfg(4, 4, 7);
        cfg.clk.kick = strategy;
        let res = run_lockstep(&inst, &nl, &cfg);
        assert!(res.best_tour.is_valid(), "{strategy:?}");
    }
}

/// The candidate-kind knob is plumbed through the distributed stack:
/// every kind runs end-to-end on lists built from the shared config,
/// and the choice is part of the deterministic run fingerprint.
#[test]
fn candidate_kinds_through_distributed_stack() {
    let inst = generate::uniform(100, 100_000.0, 29);
    for kind in lk::CandidateKind::ALL {
        let mut cfg = base_cfg(4, 3, 7);
        cfg.clk.candidates = kind;
        cfg.clk.neighbor_k = 8;
        let nl = distclk::build_neighbors(&inst, &cfg);
        assert_eq!(nl.k(), 8, "{kind:?}");
        let a = run_lockstep(&inst, &nl, &cfg);
        let b = run_lockstep(&inst, &nl, &cfg);
        assert!(a.best_tour.is_valid(), "{kind:?}");
        assert_eq!(a.best_length, b.best_length, "{kind:?} not deterministic");
        assert_eq!(a.best_tour.order(), b.best_tour.order(), "{kind:?}");
    }
}

/// Node results carry complete bookkeeping: traces are monotone, CLK
/// call counts respect budgets, event logs start with the initial
/// improvement.
#[test]
fn node_bookkeeping_complete() {
    let inst = generate::uniform(100, 100_000.0, 25);
    let nl = NeighborLists::build(&inst, 8);
    let res = run_lockstep(&inst, &nl, &base_cfg(4, 5, 9));
    for n in &res.nodes {
        assert!(n.clk_calls >= 5);
        let lens: Vec<i64> = n.trace.points().iter().map(|&(_, _, l)| l).collect();
        for w in lens.windows(2) {
            assert!(w[1] < w[0], "node {} trace not improving", n.id);
        }
        assert!(matches!(
            n.events.first(),
            Some(NodeEvent::Improved { local: true, .. })
        ));
        assert_eq!(n.best_tour.len(), 100);
    }
}

/// The lockstep schedule written out with the public API, one node
/// after another: `new` plus the preamble step per node, then
/// round-robin steps until every node has stopped.
fn round_robin(
    inst: &Instance,
    nl: &NeighborLists,
    cfg: &DistConfig,
) -> (Vec<NodeResult>, (u64, u64, u64)) {
    let (endpoints, stats) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
    let mut live: Vec<Option<NodeDriver<'_, _>>> = endpoints
        .into_iter()
        .map(|ep| {
            let mut node = NodeDriver::new(inst, nl, cfg, ep);
            node.step();
            Some(node)
        })
        .collect();
    let mut results = Vec::new();
    while live.iter().any(Option::is_some) {
        for slot in live.iter_mut() {
            let Some(node) = slot else { continue };
            if !node.step() {
                results.push(slot.take().expect("just matched Some").finish());
            }
        }
    }
    results.sort_by_key(|n| n.id);
    (results, stats.snapshot())
}

/// A node's event log with the clock readings zeroed.
fn without_secs(events: &[NodeEvent]) -> Vec<NodeEvent> {
    let mut events = events.to_vec();
    for e in &mut events {
        match e {
            NodeEvent::Improved { secs, .. }
            | NodeEvent::StrengthChanged { secs, .. }
            | NodeEvent::Restart { secs }
            | NodeEvent::FoundOptimum { secs, .. }
            | NodeEvent::PeerFoundOptimum { secs, .. } => *secs = 0.0,
        }
    }
    events
}

/// `run_lockstep` runs each round's CLK calls in parallel and settles
/// the nodes in id order; that must be the serial round-robin schedule
/// exactly: the same tours, counters, event logs and message triple,
/// for every topology and a target-terminated run.
#[test]
fn lockstep_rounds_equal_round_robin_steps() {
    let uniform = generate::uniform(120, 100_000.0, 31);
    let uniform_nl = NeighborLists::build(&uniform, 8);
    let grid = generate::grid_known_optimum(6, 6, 100.0);
    let grid_nl = NeighborLists::build(&grid, 8);
    let optimum = grid.known_optimum().expect("grid optimum");

    let mut cases: Vec<(&str, &Instance, &NeighborLists, DistConfig)> = Vec::new();
    for (topology, seed) in [
        (Topology::Hypercube, 1),
        (Topology::Ring, 3),
        (Topology::Complete, 5),
        (Topology::Star, 7),
    ] {
        let mut cfg = base_cfg(8, 5, seed);
        cfg.topology = topology;
        cases.push(("topology", &uniform, &uniform_nl, cfg));
    }
    let mut target = base_cfg(4, 10_000, 10);
    target.clk_kicks_per_call = 30;
    target.budget = Budget::kicks(10_000).with_target(optimum);
    cases.push(("target", &grid, &grid_nl, target));

    for (name, inst, nl, cfg) in cases {
        let what = format!("{name} {:?} seed {}", cfg.topology, cfg.seed);
        let (endpoints, stats) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
        let got = run_lockstep_over(inst, nl, &cfg, endpoints, Some(stats));
        let (want, messages) = round_robin(inst, nl, &cfg);
        assert_eq!(got.messages, messages, "{what}: message triple");
        assert_eq!(got.nodes.len(), want.len(), "{what}");
        for (g, w) in got.nodes.iter().zip(&want) {
            let node = format!("{what}, node {}", w.id);
            assert_eq!(g.id, w.id, "{node}");
            assert_eq!(g.best_tour.order(), w.best_tour.order(), "{node}: tour");
            assert_eq!(
                (
                    g.best_length,
                    g.clk_calls,
                    g.broadcasts,
                    g.received,
                    g.rejected
                ),
                (
                    w.best_length,
                    w.clk_calls,
                    w.broadcasts,
                    w.received,
                    w.rejected
                ),
                "{node}: length and counters"
            );
            assert_eq!(
                without_secs(&g.events),
                without_secs(&w.events),
                "{node}: events"
            );
        }
        if name == "target" {
            assert_eq!(
                got.best_length, optimum,
                "{what}: the target run must reach the optimum"
            );
            assert!(
                got.nodes.iter().all(|n| n.clk_calls < 10_000),
                "{what}: a node ran to its budget instead of stopping at the target"
            );
        }
    }
}

/// A tour migration shows in the merged event timelines as `node.round`
/// spans of several nodes sharing one broadcast id. Checked on a seeded
/// lockstep run, where it is deterministic: on a small grid every node
/// can reach the optimum by itself and nothing migrates.
#[test]
fn adopted_broadcasts_correlate_round_spans_across_nodes() {
    let inst = generate::uniform(300, 100_000.0, 7);
    let nl = NeighborLists::build(&inst, 8);
    let cfg = DistConfig {
        nodes: 4,
        budget: Budget::kicks(40),
        clk_kicks_per_call: 2,
        seed: 1,
        ..Default::default()
    };
    let res = run_lockstep(&inst, &nl, &cfg);
    let per_node: Vec<_> = res.nodes.iter().map(|n| n.obs_events.clone()).collect();
    let events = obs::merge_timelines(&per_node);

    let mut by_bcast: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "node.round") {
        if let Some(b) = e.field_u64("bcast") {
            by_bcast.entry(b).or_default().insert(e.node);
        }
    }
    assert!(
        by_bcast.values().any(|nodes| nodes.len() >= 2),
        "no broadcast id on the round spans of two nodes: {by_bcast:?}"
    );
}
