//! Lockstep conformance suite for hub failover (ISSUE: migratable
//! lifecycle hub). Kill the elected hub mid-run and assert that a
//! survivor promotes itself deterministically, that DOWN / REJOIN /
//! REPAIR keep healing the topology afterwards, that results stay
//! bit-deterministic across seeds — and that an empty hub-failure
//! schedule reproduces `run_lockstep` exactly.

use distclk::{
    run_lockstep, run_lockstep_churn, ChurnAction, ChurnSchedule, DistConfig, DistResult,
};
use lk::Budget;
use obs_api::kinds;
use p2p::{NodeId, Topology};
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

/// Sum of a counter over all clean (non-aborted) node records.
fn total(res: &DistResult, counter: &str) -> u64 {
    res.nodes
        .iter()
        .filter(|n| !n.aborted)
        .map(|n| n.metrics.counter(counter))
        .sum()
}

/// ISSUE acceptance criterion: killing the elected hub yields a
/// completed run on every one of 10 seeds — the election winner is
/// identical across all nodes (hub consensus), the winner served at
/// least one successful REJOIN, tours stay valid, and a fixed
/// (seed, schedule) reproduces bit for bit.
#[test]
fn hub_failover_ten_seeds_elect_heal_and_reproduce() {
    let inst = generate::uniform(80, 10_000.0, 601);
    let nl = NeighborLists::build(&inst, 8);
    for seed in 0..10u64 {
        let schedule = ChurnSchedule::seeded_hub_failover(seed, 8);
        let cfg = chaos_cfg(seed, 14);
        assert!(
            schedule.last_round() < 14,
            "schedule outlives the budget; events would never fire"
        );
        let a = run_lockstep_churn(&inst, &nl, &cfg, &schedule);
        let b = run_lockstep_churn(&inst, &nl, &cfg, &schedule);

        // Bit-determinism under hub failure.
        assert_eq!(a.best_length, b.best_length, "seed {seed}");
        assert_eq!(a.best_tour.order(), b.best_tour.order(), "seed {seed}");
        assert_eq!(a.total_broadcasts(), b.total_broadcasts(), "seed {seed}");
        assert_eq!(a.hub_consensus(), b.hub_consensus(), "seed {seed}");

        // 8 originals (hub + one victim aborted) + both revived.
        assert_eq!(a.nodes.len(), 10, "seed {seed}");
        let mut aborted: Vec<NodeId> =
            a.nodes.iter().filter(|n| n.aborted).map(|n| n.id).collect();
        aborted.sort_unstable();
        assert_eq!(aborted.len(), 2, "seed {seed}: aborted {aborted:?}");
        assert_eq!(aborted[0], 0, "seed {seed}: the bootstrap hub must die");

        // Every clean finisher holds a validated tour.
        for n in a.nodes.iter().filter(|n| !n.aborted) {
            assert!(n.best_tour.is_valid(), "seed {seed} node {}", n.id);
            assert_eq!(n.best_tour.length(&inst), n.best_length, "seed {seed}");
        }
        assert!(a.best_tour.is_valid());
        assert_eq!(a.best_tour.length(&inst), a.best_length);

        // Hub consensus: every clean node — including both rejoiners,
        // which reconstructed their replicas from a gossiped snapshot —
        // names the same winner at the same epoch, and the bootstrap
        // hub (node 0, killed and revived as a regular member) is
        // never that winner.
        let (hub, epoch) = a.hub_consensus().unwrap_or_else(|| {
            panic!(
                "seed {seed}: no hub consensus: {:?}",
                a.nodes
                    .iter()
                    .filter(|n| !n.aborted)
                    .map(|n| (n.id, n.hub, n.hub_epoch))
                    .collect::<Vec<_>>()
            )
        });
        let winner = hub.expect("consensus names no hub at all");
        assert_ne!(winner, 0, "seed {seed}: dead bootstrap hub still in force");
        assert!(epoch >= 1, "seed {seed}: election never bumped the epoch");

        // The winner actually won an election (promotion counter) and
        // served at least one successful REJOIN while holding the role.
        let winner_rec = a
            .nodes
            .iter()
            .find(|n| !n.aborted && n.id == winner)
            .expect("winner record");
        assert!(
            winner_rec.metrics.counter(kinds::C_PROMOTIONS) >= 1,
            "seed {seed}: winner {winner} never promoted itself"
        );
        assert!(
            total(&a, kinds::C_HUB_REJOINS_SERVED) >= 1,
            "seed {seed}: no survivor served a REJOIN"
        );

        // (a) The promotion happened in time: both rejoiners resynced
        // successfully within the resync patience, which requires a
        // healed topology and a live lifecycle service at rejoin time.
        for n in a.nodes.iter().filter(|n| !n.aborted && n.received > 0) {
            if aborted.contains(&n.id) {
                assert_eq!(
                    n.metrics.counter("node.resyncs"),
                    1,
                    "seed {seed}: rejoiner {} never adopted the neighborhood best",
                    n.id
                );
            }
        }
    }
}

/// (b) After the election, the *new* hub keeps the lifecycle service
/// alive: a subsequent DOWN is observed and gossiped, the REJOIN is
/// served by the elected winner, and the event stream shows the whole
/// causal chain on one fixed schedule.
#[test]
fn elected_hub_serves_subsequent_down_and_rejoin() {
    let inst = generate::uniform(80, 10_000.0, 602);
    let nl = NeighborLists::build(&inst, 8);
    let victim: NodeId = 5;
    let schedule = ChurnSchedule {
        events: vec![
            (1, ChurnAction::KillHub),
            (3, ChurnAction::Kill(victim)),
            (6, ChurnAction::Revive(victim)),
        ],
    };
    let cfg = chaos_cfg(7, 14);
    let res = run_lockstep_churn(&inst, &nl, &cfg, &schedule);

    // Node 1 is the minimum alive id after the hub died, so it must
    // hold the role at epoch 1 on every clean node's view.
    assert_eq!(res.hub_consensus(), Some((Some(1), 1)));
    let winner = res.nodes.iter().find(|n| !n.aborted && n.id == 1).unwrap();
    assert_eq!(winner.metrics.counter(kinds::C_PROMOTIONS), 1);
    assert!(
        winner.metrics.counter(kinds::C_HUB_REJOINS_SERVED) >= 1,
        "the elected hub never served the victim's rejoin"
    );

    // The victim's second incarnation came back clean and resynced.
    let revived = res
        .nodes
        .iter()
        .find(|n| n.id == victim && !n.aborted)
        .expect("revived incarnation");
    assert_eq!(revived.metrics.counter("node.resyncs"), 1);

    if obs_api::ENABLED {
        let kinds_of = |id: NodeId| -> Vec<String> {
            res.nodes
                .iter()
                .filter(|n| n.id == id && !n.aborted)
                .flat_map(|n| n.obs_events.iter().map(|e| e.kind.to_string()))
                .collect()
        };
        let w = kinds_of(1);
        assert!(w.iter().any(|k| k == kinds::NODE_PROMOTE), "{w:?}");
        assert!(w.iter().any(|k| k == kinds::NODE_HUB_REJOIN_SERVED), "{w:?}");
        // Some survivor gossiped membership facts to its peers.
        assert!(
            res.nodes
                .iter()
                .filter(|n| !n.aborted)
                .flat_map(|n| n.obs_events.iter())
                .any(|e| e.kind.as_ref() == kinds::NODE_GOSSIP),
            "no membership gossip in the event stream"
        );
    }
}

/// Satellite bugfix regression, end-to-end: when the hub dies there is
/// *no* lifecycle service left, so the death can only be learned from
/// the transport's locally observed peer-down notices
/// (`take_peer_downs`). The survivors must still converge on a repair
/// and a winner — purely from local observation plus gossip.
#[test]
fn hubless_death_is_repaired_from_local_peer_downs() {
    let inst = generate::uniform(80, 10_000.0, 603);
    let nl = NeighborLists::build(&inst, 8);
    let schedule = ChurnSchedule {
        events: vec![(2, ChurnAction::KillHub)],
    };
    let cfg = chaos_cfg(19, 10);
    let res = run_lockstep_churn(&inst, &nl, &cfg, &schedule);

    // All 7 survivors agree node 1 won epoch 1 — which is only
    // possible if the hub's death was observed locally, folded into
    // each replica, and the election fired without any hub's help.
    assert_eq!(res.hub_consensus(), Some((Some(1), 1)));
    assert_eq!(total(&res, kinds::C_PROMOTIONS), 1);
    for n in res.nodes.iter().filter(|n| !n.aborted) {
        assert!(n.best_tour.is_valid());
    }
}

/// Orderly migration: `MigrateHub` promotes a successor while the old
/// hub is still alive — the old hub must observe the newer claim and
/// step down (epoch fencing), with no node aborting.
#[test]
fn migrate_hub_steps_down_the_live_predecessor() {
    let inst = generate::uniform(80, 10_000.0, 604);
    let nl = NeighborLists::build(&inst, 8);
    let schedule = ChurnSchedule {
        events: vec![(2, ChurnAction::MigrateHub)],
    };
    let cfg = chaos_cfg(23, 10);
    let res = run_lockstep_churn(&inst, &nl, &cfg, &schedule);

    assert!(res.nodes.iter().all(|n| !n.aborted));
    // The driver picks the lowest alive non-hub node: node 1, epoch 1.
    assert_eq!(res.hub_consensus(), Some((Some(1), 1)));
    let old = res.nodes.iter().find(|n| n.id == 0).unwrap();
    assert_eq!(old.metrics.counter(kinds::C_STEP_DOWNS), 1);
    let new = res.nodes.iter().find(|n| n.id == 1).unwrap();
    assert_eq!(new.metrics.counter(kinds::C_PROMOTIONS), 1);
    if obs_api::ENABLED {
        assert!(old
            .obs_events
            .iter()
            .any(|e| e.kind.as_ref() == kinds::NODE_STEP_DOWN));
    }
}

/// (d) ISSUE acceptance criterion: with no hub failure scheduled the
/// churn driver — election machinery and all — reproduces
/// `run_lockstep` bit for bit, and every node still reports the
/// bootstrap hub (node 0, epoch 0).
#[test]
fn empty_hub_failure_schedule_is_bit_identical_to_run_lockstep() {
    let inst = generate::uniform(100, 10_000.0, 605);
    let nl = NeighborLists::build(&inst, 8);
    for seed in [2u64, 17] {
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
            assert_eq!(p.broadcasts, c.broadcasts);
            assert_eq!(p.received, c.received);
            // Quiet network: the bootstrap convention stays in force
            // and no election-related counter ever moved.
            assert_eq!((c.hub, c.hub_epoch), (Some(0), 0));
            assert_eq!(c.metrics.counter(kinds::C_PROMOTIONS), 0);
            assert_eq!(c.metrics.counter(kinds::C_STEP_DOWNS), 0);
            assert_eq!(c.metrics.counter(kinds::C_STALE_CLAIMS), 0);
        }
        assert_eq!(plain.hub_consensus(), Some((Some(0), 0)));
        assert_eq!(churned.hub_consensus(), Some((Some(0), 0)));
    }
}
