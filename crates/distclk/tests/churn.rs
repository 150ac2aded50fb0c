//! Chaos harness: the distributed algorithm must survive crash-stop
//! churn — nodes that die without goodbye and never come back, as in a
//! TCP deployment whose node process died.
//!
//! In-memory churn runs under the deterministic lockstep driver, so
//! every kill schedule is exactly reproducible from its seed.
//! The TCP side injects a mid-run panic into one node's transport and
//! asserts the run still completes with a degraded result.

use distclk::{
    run_lockstep, run_lockstep_churn, run_over_transports, ChurnAction, ChurnSchedule, DistConfig,
};
use lk::Budget;
use p2p::{Message, NetError, NodeId, Topology, Transport};
use tsp_core::{generate, NeighborLists};

fn chaos_cfg(seed: u64, calls: u64) -> DistConfig {
    DistConfig {
        nodes: 8,
        topology: Topology::Hypercube,
        budget: Budget::kicks(calls),
        clk_kicks_per_call: 3,
        seed,
        ..Default::default()
    }
}

/// 10/10 seeds — 2 of 8 nodes killed — terminate, surviving tours
/// validate, and the best length is deterministic for a fixed
/// (seed, schedule).
#[test]
fn churn_schedules_terminate_validate_and_reproduce() {
    let inst = generate::uniform(80, 10_000.0, 501);
    let nl = NeighborLists::build(&inst, 8);
    for seed in 0..10u64 {
        let schedule = ChurnSchedule::seeded(seed, 8, 2);
        let cfg = chaos_cfg(seed, 14);
        assert!(
            schedule.last_round() < 14,
            "schedule outlives the budget; events would never fire"
        );
        let a = run_lockstep_churn(&inst, &nl, &cfg, &schedule);
        let b = run_lockstep_churn(&inst, &nl, &cfg, &schedule);

        // Deterministic: same seed + schedule → bit-identical outcome.
        assert_eq!(a.best_length, b.best_length, "seed {seed}");
        assert_eq!(a.best_tour.order(), b.best_tour.order(), "seed {seed}");
        assert_eq!(a.total_broadcasts(), b.total_broadcasts(), "seed {seed}");

        // One record per node, 2 of them aborted.
        assert_eq!(a.nodes.len(), 8, "seed {seed}");
        let aborted: Vec<NodeId> = a.nodes.iter().filter(|n| n.aborted).map(|n| n.id).collect();
        assert_eq!(aborted.len(), 2, "seed {seed}: kills {aborted:?}");

        // Every clean finisher holds a valid tour whose recorded length
        // is the recomputed ground truth, and nobody adopted garbage.
        for n in a.nodes.iter().filter(|n| !n.aborted) {
            assert!(n.best_tour.is_valid(), "seed {seed} node {}", n.id);
            assert_eq!(
                n.best_tour.length(&inst),
                n.best_length,
                "seed {seed} node {}",
                n.id
            );
        }
        assert!(a.best_tour.is_valid());
        assert_eq!(a.best_tour.length(&inst), a.best_length);
    }
}

/// Crash-stop, as over TCP: after `Kill(v)` each static hypercube
/// neighbor of `v` logs exactly one `node.peer_down` for it (nobody
/// else logs one), and every tour any node receives comes from one of
/// its static neighbors — no node adopts a replacement edge.
#[test]
fn crash_stop_matches_tcp() {
    let inst = generate::uniform(80, 10_000.0, 502);
    let nl = NeighborLists::build(&inst, 8);
    // The node id a node's `kind` events name in their `key` field.
    let named = |n: &distclk::NodeResult, kind: &str, key: &str| -> Vec<NodeId> {
        n.obs_events
            .iter()
            .filter(|e| e.kind.as_ref() == kind)
            .map(|e| match e.fields.iter().find(|(k, _)| *k == key) {
                Some((_, obs::Value::U(id))) => *id as NodeId,
                other => panic!("{kind} without a {key} id: {other:?}"),
            })
            .collect()
    };
    let mut received = 0;
    for victim in 0..8 {
        let schedule = ChurnSchedule {
            events: vec![(1, ChurnAction::Kill(victim))],
        };
        let res = run_lockstep_churn(&inst, &nl, &chaos_cfg(victim as u64, 12), &schedule);
        assert_eq!(res.nodes.len(), 8, "victim {victim}");
        for n in &res.nodes {
            let static_nb = Topology::Hypercube.neighbors(n.id, 8);
            let expected = if static_nb.contains(&victim) {
                vec![victim]
            } else {
                vec![]
            };
            let downs = named(n, "node.peer_down", "peer");
            assert_eq!(downs, expected, "victim {victim} node {}", n.id);
            for from in named(n, "node.recv", "from") {
                assert!(
                    static_nb.contains(&from),
                    "victim {victim}: node {} received from {from}, not a static neighbor",
                    n.id
                );
                received += 1;
            }
        }
    }
    assert!(received > 0, "no tour was ever received");
}

/// ISSUE acceptance criterion: zero churn changes nothing — an empty
/// schedule reproduces `run_lockstep` bit for bit.
#[test]
fn empty_schedule_is_identical_to_run_lockstep() {
    let inst = generate::uniform(100, 10_000.0, 503);
    let nl = NeighborLists::build(&inst, 8);
    for seed in [1u64, 9] {
        let cfg = chaos_cfg(seed, 8);
        let plain = run_lockstep(&inst, &nl, &cfg);
        let churned = run_lockstep_churn(&inst, &nl, &cfg, &ChurnSchedule::default());
        assert_eq!(plain.best_length, churned.best_length);
        assert_eq!(plain.best_tour.order(), churned.best_tour.order());
        assert_eq!(plain.messages, churned.messages);
        assert_eq!(plain.nodes.len(), churned.nodes.len());
        for (p, c) in plain.nodes.iter().zip(churned.nodes.iter()) {
            assert_eq!(p.id, c.id);
            assert_eq!(p.best_length, c.best_length);
            assert_eq!(p.clk_calls, c.clk_calls);
            assert_eq!(p.broadcasts, c.broadcasts);
            assert_eq!(p.received, c.received);
            assert!(!c.aborted);
        }
    }
}

/// Node 0 — the bootstrap hub's position — dies, and so does a second
/// node: frames addressed to the dead nodes are dropped, the run still
/// terminates, every clean finisher holds a validated tour and a fixed
/// (seed, schedule) reproduces, message statistics included.
#[test]
fn node_zero_death_terminates_and_reproduces() {
    let inst = generate::uniform(80, 10_000.0, 507);
    let nl = NeighborLists::build(&inst, 8);
    for seed in 0..4u64 {
        let v: NodeId = 1 + (seed as usize * 3) % 7;
        let schedule = ChurnSchedule {
            events: vec![(1, ChurnAction::Kill(0)), (3, ChurnAction::Kill(v))],
        };
        let cfg = chaos_cfg(seed, 14);
        let a = run_lockstep_churn(&inst, &nl, &cfg, &schedule);
        let b = run_lockstep_churn(&inst, &nl, &cfg, &schedule);

        assert_eq!(a.best_length, b.best_length, "seed {seed}");
        assert_eq!(a.best_tour.order(), b.best_tour.order(), "seed {seed}");
        assert_eq!(a.total_broadcasts(), b.total_broadcasts(), "seed {seed}");
        assert_eq!(
            a.messages, b.messages,
            "seed {seed}: messages, bytes and tour messages"
        );

        // One record per node, 0 and v aborted.
        assert_eq!(a.nodes.len(), 8, "seed {seed}");
        let mut aborted: Vec<NodeId> = a.nodes.iter().filter(|n| n.aborted).map(|n| n.id).collect();
        aborted.sort_unstable();
        assert_eq!(aborted, vec![0, v], "seed {seed}");

        for n in a.nodes.iter().filter(|n| !n.aborted) {
            assert!(n.best_tour.is_valid(), "seed {seed} node {}", n.id);
            assert_eq!(
                n.best_tour.length(&inst),
                n.best_length,
                "seed {seed} node {}",
                n.id
            );
        }
        assert!(a.best_tour.is_valid());
        assert_eq!(a.best_tour.length(&inst), a.best_length);
    }
}

/// ISSUE acceptance criterion: the churn-capable driver costs ≤ 2% over
/// `run_lockstep` when no churn happens. Min-of-N with alternating
/// order, same pattern as the lk obs-overhead bound. An empty schedule
/// short-circuits into `run_lockstep` itself, so this measures two
/// calls of the same code and guards that fast path: the bound only
/// fires again if someone routes zero-churn runs back through the
/// churn loop.
#[test]
fn zero_churn_overhead_under_two_percent() {
    use std::time::{Duration, Instant};
    let inst = generate::uniform(350, 100_000.0, 504);
    let nl = NeighborLists::build(&inst, 10);
    let cfg = DistConfig {
        nodes: 8,
        budget: Budget::kicks(25),
        clk_kicks_per_call: 12,
        seed: 21,
        ..Default::default()
    };
    let empty = ChurnSchedule::default();

    // Warm-up: page in code, build caches.
    run_lockstep(&inst, &nl, &cfg);
    run_lockstep_churn(&inst, &nl, &cfg, &empty);

    // Per-pair overhead ratios, then take the *minimum* over pairs:
    // systematic overhead taxes every pair, while one-sided scheduler
    // noise (the suite's other tests share this core) cannot survive
    // the min unless it hits the same side of all five pairs.
    let mut overhead = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        run_lockstep(&inst, &nl, &cfg);
        let plain = t.elapsed();
        let t = Instant::now();
        run_lockstep_churn(&inst, &nl, &cfg, &empty);
        let churn = t.elapsed();
        // Keep the workload long enough that 2% clears timer
        // resolution; if this fires, raise the budget rather than
        // loosening the bound.
        assert!(
            plain > Duration::from_millis(50),
            "baseline too short to measure a 2% bound ({plain:?})"
        );
        let pair = (churn.as_secs_f64() - plain.as_secs_f64()) / plain.as_secs_f64();
        overhead = overhead.min(pair);
    }
    assert!(
        overhead <= 0.02,
        "zero-churn overhead {:.2}% exceeds 2% in every pair",
        overhead * 100.0
    );
}

/// A transport decorator that panics after a fixed number of receive
/// polls — simulating a node process dying mid-run.
struct PanicAfter<T: Transport> {
    inner: T,
    remaining: u64,
}

impl<T: Transport> Transport for PanicAfter<T> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn neighbors(&self) -> Vec<NodeId> {
        self.inner.neighbors()
    }
    fn send(&mut self, to: NodeId, msg: Message) -> Result<(), NetError> {
        self.inner.send(to, msg)
    }
    fn try_recv(&mut self) -> Option<Message> {
        if self.remaining == 0 {
            panic!("injected chaos: node {} dies now", self.inner.node_id());
        }
        self.remaining -= 1;
        self.inner.try_recv()
    }
    fn leave(&mut self) {
        self.inner.leave();
    }
    fn take_peer_downs(&mut self) -> Vec<NodeId> {
        self.inner.take_peer_downs()
    }
}

/// Satellite bugfix: a panicking node thread must not poison the whole
/// run — `run_over_transports` joins every thread and reports the dead
/// node as an aborted placeholder (in-memory transports).
#[test]
fn panicked_node_yields_degraded_result_in_memory() {
    use p2p::memory::InMemoryNetwork;
    let inst = generate::uniform(80, 10_000.0, 505);
    let nl = NeighborLists::build(&inst, 8);
    let cfg = chaos_cfg(11, 4);
    let (eps, _) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
    let wrapped: Vec<_> = eps
        .into_iter()
        .map(|e| {
            let remaining = if e.node_id() == 5 { 2 } else { u64::MAX };
            PanicAfter {
                inner: e,
                remaining,
            }
        })
        .collect();
    let res = run_over_transports(&inst, &nl, &cfg, wrapped);
    assert_eq!(res.nodes.len(), 8);
    let dead: Vec<NodeId> = res
        .nodes
        .iter()
        .filter(|n| n.aborted)
        .map(|n| n.id)
        .collect();
    assert_eq!(dead, vec![5]);
    for n in res.nodes.iter().filter(|n| !n.aborted) {
        assert!(n.best_tour.is_valid());
        assert_eq!(n.best_tour.length(&inst), n.best_length);
        assert!(n.clk_calls >= 4, "node {} stalled at {}", n.id, n.clk_calls);
    }
    // The aggregate best must come from a survivor, never the corpse.
    assert!(res.best_tour.is_valid());
    assert_eq!(res.best_tour.length(&inst), res.best_length);
}

/// Same property over real TCP sockets: one node dies mid-run, the
/// survivors' links tear down cleanly and the run still completes.
#[test]
fn panicked_node_yields_degraded_result_over_tcp() {
    use p2p::hub::bootstrap_local;
    let inst = generate::uniform(80, 10_000.0, 506);
    let nl = NeighborLists::build(&inst, 8);
    let nodes = 4;
    let endpoints = bootstrap_local(nodes, Topology::Hypercube).expect("bootstrap");
    p2p::wait_until(
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
        budget: Budget::kicks(4),
        clk_kicks_per_call: 3,
        seed: 13,
        ..Default::default()
    };
    let wrapped: Vec<_> = endpoints
        .into_iter()
        .map(|e| {
            let remaining = if e.node_id() == 2 { 2 } else { u64::MAX };
            PanicAfter {
                inner: e,
                remaining,
            }
        })
        .collect();
    let res = run_over_transports(&inst, &nl, &cfg, wrapped);
    assert_eq!(res.nodes.len(), nodes);
    let dead: Vec<NodeId> = res
        .nodes
        .iter()
        .filter(|n| n.aborted)
        .map(|n| n.id)
        .collect();
    assert_eq!(dead, vec![2]);
    for n in res.nodes.iter().filter(|n| !n.aborted) {
        assert!(n.best_tour.is_valid());
        assert!(n.clk_calls >= 4);
    }
}
