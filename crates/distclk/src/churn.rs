//! Deterministic node churn for the in-memory lockstep driver.
//!
//! A [`ChurnSchedule`] kills and revives nodes at fixed lockstep
//! rounds. Kills are *crashes*: the victim sends no `Leave`; survivors
//! observe the death through the transport's peer-down channel (the
//! in-memory analogue of the TCP liveness timeout) and the topology is
//! repaired with the [`Membership`] rule — the dead node's surviving
//! neighbors adopt each other. A revived node rejoins through
//! [`Membership::rejoin`] and resyncs state from its neighborhood via
//! `BestRequest`/`BestReply` before its first CLK iteration (see
//! [`NodeDriver::new_rejoining`]).
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
    let mut round: u64 = 0;
    loop {
        for &(r, action) in &schedule.events {
            if r != round {
                continue;
            }
            match action {
                ChurnAction::Kill(id) => {
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
                    // adopt each other (clique repair).
                    for &a in &group {
                        if let Some(driver) = drivers[a].as_mut() {
                            for &b in &group {
                                if b != a {
                                    driver.transport_mut().add_neighbor(b);
                                }
                            }
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
            let (kills, revives): (Vec<_>, Vec<_>) = a
                .events
                .iter()
                .partition(|(_, e)| matches!(e, ChurnAction::Kill(_)));
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
    fn rounds_are_monotonic() {
        let s = ChurnSchedule::seeded(7, 8, 3, 2);
        let rounds: Vec<u64> = s.events.iter().map(|&(r, _)| r).collect();
        let mut sorted = rounds.clone();
        sorted.sort_unstable();
        assert_eq!(rounds, sorted);
    }
}
