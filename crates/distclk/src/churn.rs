//! Deterministic node churn for the in-memory lockstep driver.
//!
//! A [`ChurnSchedule`] kills and revives nodes at fixed lockstep
//! rounds. Kills are *crashes*: the victim sends no `Leave`; survivors
//! observe the death through the transport's peer-down channel (the
//! in-memory analogue of the TCP liveness timeout) and the topology is
//! repaired with the same [`Membership`] rule the TCP lifecycle hub
//! uses — the dead node's surviving neighbors adopt each other. A
//! revived node rejoins through [`Membership::rejoin`] and resyncs
//! state from its neighborhood via `BestRequest`/`BestReply` before
//! its first CLK iteration (see [`NodeDriver::new_rejoining`]).
//!
//! [`ChurnAction::KillHub`] and [`ChurnAction::MigrateHub`] exercise
//! the hub-failover path: killing the current hub makes the survivors
//! elect the lowest alive id over their replicated membership logs
//! (see `p2p::election`), while a migration promotes a successor with
//! the next epoch and forces the still-running hub to step down.
//!
//! Everything is keyed by round number and seeded RNG, so a fixed
//! `(seed, schedule)` pair reproduces the run bit-for-bit — the chaos
//! tests assert exactly that.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use p2p::memory::InMemoryNetwork;
use p2p::{Membership, NodeId, Transport};
use tsp_core::{Instance, NeighborLists};

use crate::driver::{lockstep_round, started_nodes, DistResult};
use crate::node::{DistConfig, NodeDriver, NodeResult};

/// One scheduled churn action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// Crash the node: its endpoint is unregistered without a `Leave`;
    /// peers only learn of the death through failure detection.
    Kill(NodeId),
    /// Restart a previously killed node: fresh (empty) inbox, rejoin
    /// via the membership rule, state resync from the neighborhood.
    Revive(NodeId),
    /// Crash whoever currently holds the lifecycle-hub role (node 0 at
    /// bootstrap, the latest election winner afterwards). Survivors
    /// detect the silence, elect the lowest alive id, and the winner
    /// announces `HUB_CLAIM(epoch)` — the distributed failover path.
    KillHub,
    /// Orderly hub handover: the lowest alive non-hub node promotes
    /// itself with the next epoch while the old hub is still running,
    /// which must step down on seeing the newer claim (epoch fencing).
    MigrateHub,
}

/// A kill/revive schedule keyed by lockstep round.
#[derive(Debug, Clone, Default)]
pub struct ChurnSchedule {
    /// `(round, action)` pairs, applied in list order immediately
    /// before the given round executes. Actions scheduled past the end
    /// of the run (everyone already terminated) never fire.
    pub events: Vec<(u64, ChurnAction)>,
}

impl ChurnSchedule {
    /// Seeded schedule for the standard chaos scenario: `kills`
    /// distinct victims crash at staggered early rounds, then the
    /// first `revives` of them come back a few rounds later.
    pub fn seeded(seed: u64, nodes: usize, kills: usize, revives: usize) -> Self {
        assert!(kills <= nodes, "cannot kill more nodes than exist");
        let mut rng = SmallRng::seed_from_u64(seed);
        // Partial Fisher-Yates: the first `kills` entries are the
        // victims, distinct by construction.
        let mut ids: Vec<NodeId> = (0..nodes).collect();
        for i in 0..kills {
            let j = rng.gen_range(i..nodes);
            ids.swap(i, j);
        }
        let mut events = Vec::new();
        let mut round = 0u64;
        for &victim in ids.iter().take(kills) {
            round += rng.gen_range(1..=2u64);
            events.push((round, ChurnAction::Kill(victim)));
        }
        for &back in ids.iter().take(revives.min(kills)) {
            round += rng.gen_range(2..=3u64);
            events.push((round, ChurnAction::Revive(back)));
        }
        ChurnSchedule { events }
    }

    /// Largest round any event is scheduled for (0 when empty).
    pub fn last_round(&self) -> u64 {
        self.events.iter().map(|&(r, _)| r).max().unwrap_or(0)
    }

    /// Seeded hub-failover scenario: crash the hub early, then crash a
    /// second (non-hub) node so the *elected* hub serves a DOWN, then
    /// revive that node so the elected hub serves a REJOIN, and
    /// finally revive the old hub — which comes back as a regular
    /// member and must accept the newer claim (epoch fencing).
    pub fn seeded_hub_failover(seed: u64, nodes: usize) -> Self {
        assert!(nodes >= 4, "hub failover needs at least 4 nodes");
        let mut rng = SmallRng::seed_from_u64(seed);
        // Victim from 1..nodes: distinct from the bootstrap hub. It
        // may coincide with the election winner, in which case the
        // schedule exercises a *chained* failover — also worth having.
        let victim = rng.gen_range(1..nodes);
        let mut round = rng.gen_range(1..=2u64);
        let mut events = vec![(round, ChurnAction::KillHub)];
        round += rng.gen_range(2..=3u64);
        events.push((round, ChurnAction::Kill(victim)));
        round += rng.gen_range(2..=3u64);
        events.push((round, ChurnAction::Revive(victim)));
        round += rng.gen_range(2..=3u64);
        events.push((round, ChurnAction::Revive(0)));
        ChurnSchedule { events }
    }
}

/// [`crate::run_lockstep`] under a churn schedule. With an empty
/// schedule this is *exactly* `run_lockstep` — same endpoints, same
/// stepping order, bit-identical results for a fixed seed.
///
/// A killed node contributes an aborted [`NodeResult`] (crash
/// semantics: its partial record is kept but excluded from the
/// aggregate best-tour selection); if it is later revived, the new
/// incarnation contributes a second, clean record under the same id,
/// so `result.nodes` can hold more entries than `cfg.nodes`.
pub fn run_lockstep_churn(
    inst: &Instance,
    neighbors: &NeighborLists,
    cfg: &DistConfig,
    schedule: &ChurnSchedule,
) -> DistResult {
    if schedule.events.is_empty() {
        // Nothing for the churn machinery to do: take the plain
        // lockstep path, so zero-churn runs pay literally nothing for
        // the churn capability (the ≤2% overhead bound and the
        // bit-identity conformance tests hold by construction).
        return crate::run_lockstep(inst, neighbors, cfg);
    }
    let start = std::time::Instant::now();
    let (net, endpoints) = InMemoryNetwork::create(cfg.nodes, cfg.topology);
    let mut membership = Membership::new(cfg.topology, cfg.nodes);
    let mut drivers = started_nodes(inst, neighbors, cfg, endpoints);
    let mut results: Vec<NodeResult> = Vec::with_capacity(cfg.nodes);
    // Driver-side mirror of the hub role, used to resolve `KillHub`
    // targets and pick `MigrateHub` successors. It tracks the outcome
    // the distributed election must converge on (lowest alive id, next
    // epoch); the conformance tests assert the nodes' own views agree.
    let mut hub: NodeId = 0;
    let mut hub_epoch: u64 = 0;
    let mut round: u64 = 0;
    loop {
        for &(r, action) in &schedule.events {
            if r != round {
                continue;
            }
            match action {
                ChurnAction::Kill(_) | ChurnAction::KillHub => {
                    let id = match action {
                        ChurnAction::Kill(id) => id,
                        _ => hub,
                    };
                    if !membership.is_alive(id) {
                        continue;
                    }
                    net.kill(id);
                    let group = membership.fail(id);
                    if let Some(driver) = drivers[id].take() {
                        results.push(driver.abort());
                    }
                    // Every survivor that bordered the victim loses the
                    // link and gets a peer-down notice — the same two
                    // signals the TCP liveness prober would deliver.
                    for slot in drivers.iter_mut().flatten() {
                        let t = slot.transport_mut();
                        if t.neighbors().contains(&id) {
                            t.note_peer_down(id);
                        }
                    }
                    // Self-healing: the victim's surviving neighbors
                    // adopt each other (clique repair, same rule as the
                    // lifecycle hub's REPAIR assignments).
                    for &a in &group {
                        if let Some(driver) = drivers[a].as_mut() {
                            for &b in &group {
                                if b != a {
                                    driver.transport_mut().add_neighbor(b);
                                }
                            }
                        }
                    }
                    // The hub role dies with its holder: mirror the
                    // outcome the distributed election converges on.
                    if id == hub {
                        if let Some(&succ) = membership.alive_nodes().first() {
                            hub = succ;
                            hub_epoch += 1;
                        }
                    }
                }
                ChurnAction::Revive(id) => {
                    if membership.is_alive(id) {
                        continue;
                    }
                    let back = membership.rejoin(id);
                    let ep = net.revive(id, back.clone());
                    for &b in &back {
                        if let Some(driver) = drivers[b].as_mut() {
                            driver.transport_mut().add_neighbor(id);
                        }
                    }
                    drivers[id] = Some(NodeDriver::new_rejoining(inst, neighbors, cfg, ep));
                }
                ChurnAction::MigrateHub => {
                    // Orderly handover: the lowest alive non-hub node
                    // with a running driver claims the next epoch; the
                    // old hub (still alive) steps down on seeing it.
                    let succ = membership
                        .alive_nodes()
                        .into_iter()
                        .find(|&v| v != hub && drivers[v].is_some());
                    let Some(succ) = succ else {
                        continue;
                    };
                    let epoch = drivers[succ]
                        .as_ref()
                        .map(|d| d.hub_epoch() + 1)
                        .unwrap_or(hub_epoch + 1);
                    if let Some(driver) = drivers[succ].as_mut() {
                        driver.promote(epoch);
                    }
                    hub = succ;
                    hub_epoch = hub_epoch.max(epoch);
                }
            }
        }
        let any_live = lockstep_round(&mut drivers, &mut results);
        round += 1;
        if !any_live {
            break;
        }
    }
    let messages = net.stats().snapshot();
    DistResult::assemble(inst, results, messages, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_deterministic_and_distinct_victims() {
        for seed in 0..20 {
            let a = ChurnSchedule::seeded(seed, 8, 2, 1);
            let b = ChurnSchedule::seeded(seed, 8, 2, 1);
            assert_eq!(a.events, b.events);
            assert_eq!(a.events.len(), 3);
            let (kills, revives): (Vec<_>, Vec<_>) =
                a.events.iter().partition(|(_, e)| matches!(e, ChurnAction::Kill(_)));
            let victims: Vec<NodeId> = kills
                .iter()
                .map(|&&(_, a)| match a {
                    ChurnAction::Kill(id) => id,
                    _ => unreachable!(),
                })
                .collect();
            assert_ne!(victims[0], victims[1], "victims must be distinct");
            // The revived node is one of the victims, and comes back
            // strictly after every kill.
            let (revive_round, revived) = match revives[0] {
                &(r, ChurnAction::Revive(id)) => (r, id),
                _ => unreachable!(),
            };
            assert!(victims.contains(&revived));
            assert!(kills.iter().all(|&&(r, _)| r < revive_round));
            assert!(a.last_round() == revive_round);
        }
    }

    #[test]
    fn seeded_hub_failover_shape() {
        for seed in 0..20 {
            let a = ChurnSchedule::seeded_hub_failover(seed, 8);
            let b = ChurnSchedule::seeded_hub_failover(seed, 8);
            assert_eq!(a.events, b.events, "seed {seed} not deterministic");
            assert_eq!(a.events.len(), 4);
            assert!(matches!(a.events[0].1, ChurnAction::KillHub));
            let (kill_round, ChurnAction::Kill(victim)) = a.events[1] else {
                panic!("second event must be a Kill: {:?}", a.events);
            };
            assert!(victim >= 1, "victim must not be the bootstrap hub");
            assert!(kill_round > a.events[0].0);
            assert_eq!(a.events[2].1, ChurnAction::Revive(victim));
            assert_eq!(a.events[3].1, ChurnAction::Revive(0));
            let rounds: Vec<u64> = a.events.iter().map(|&(r, _)| r).collect();
            let mut sorted = rounds.clone();
            sorted.sort_unstable();
            assert_eq!(rounds, sorted);
        }
    }

    #[test]
    fn rounds_are_monotonic() {
        let s = ChurnSchedule::seeded(7, 8, 3, 2);
        let rounds: Vec<u64> = s.events.iter().map(|&(r, _)| r).collect();
        let mut sorted = rounds.clone();
        sorted.sort_unstable();
        assert_eq!(rounds, sorted);
    }
}
