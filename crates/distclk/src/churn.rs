//! Deterministic crash-stop churn for the in-memory lockstep driver.
//!
//! A [`ChurnSchedule`] kills nodes at fixed lockstep rounds. Kills are
//! *crashes*, and they are final, as in a TCP deployment whose node
//! process died: the victim sends no `Leave`, its links drop, and each
//! survivor that bordered it gets one peer-down notice (the in-memory
//! analogue of the TCP liveness timeout). Nobody adopts a replacement
//! edge and nobody comes back.
//!
//! Everything is keyed by round number and seeded RNG, so a fixed
//! `(seed, schedule)` pair reproduces the run bit-for-bit — the chaos
//! tests assert exactly that.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use p2p::memory::InMemoryNetwork;
use p2p::{NodeId, Transport};
use tsp_core::{Instance, NeighborLists};

use crate::driver::{lockstep_round, started_nodes, DistResult};
use crate::node::{DistConfig, NodeResult};

/// One scheduled churn action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// Crash the node: its endpoint is unregistered without a `Leave`;
    /// peers only learn of the death through failure detection.
    Kill(NodeId),
}

/// A kill schedule keyed by lockstep round.
#[derive(Debug, Clone, Default)]
pub struct ChurnSchedule {
    /// `(round, action)` pairs, applied in list order immediately
    /// before the given round executes. Actions scheduled past the end
    /// of the run (everyone already terminated) never fire.
    pub events: Vec<(u64, ChurnAction)>,
}

impl ChurnSchedule {
    /// Seeded schedule for the standard chaos scenario: `kills`
    /// distinct victims crash at staggered early rounds.
    pub fn seeded(seed: u64, nodes: usize, kills: usize) -> Self {
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
/// aggregate best-tour selection), so `result.nodes` holds one record
/// per node.
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
    let mut drivers = started_nodes(inst, neighbors, cfg, endpoints);
    let mut results: Vec<NodeResult> = Vec::with_capacity(cfg.nodes);
    let mut round: u64 = 0;
    loop {
        for &(r, ChurnAction::Kill(id)) in &schedule.events {
            if r != round {
                continue;
            }
            // A node that already crashed or terminated is left alone.
            let Some(driver) = drivers[id].take() else {
                continue;
            };
            net.kill(id);
            results.push(driver.abort());
            // Every survivor that bordered the victim loses the link
            // and gets a peer-down notice — the same two signals the
            // TCP liveness prober would deliver.
            for slot in drivers.iter_mut().flatten() {
                let t = slot.transport_mut();
                if t.neighbors().contains(&id) {
                    t.note_peer_down(id);
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
            let a = ChurnSchedule::seeded(seed, 8, 2);
            let b = ChurnSchedule::seeded(seed, 8, 2);
            assert_eq!(a.events, b.events);
            assert_eq!(a.events.len(), 2);
            let victims: Vec<NodeId> = a
                .events
                .iter()
                .map(|&(_, ChurnAction::Kill(id))| id)
                .collect();
            assert_ne!(victims[0], victims[1], "victims must be distinct");
            assert!(a.last_round() == a.events[1].0);
        }
    }

    #[test]
    fn rounds_are_monotonic() {
        let s = ChurnSchedule::seeded(7, 8, 3);
        let rounds: Vec<u64> = s.events.iter().map(|&(r, _)| r).collect();
        let mut sorted = rounds.clone();
        sorted.sort_unstable();
        assert_eq!(rounds, sorted);
    }
}
