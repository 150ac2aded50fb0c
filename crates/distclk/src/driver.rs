//! Drivers that schedule the node loop.

use std::sync::Arc;

use lk::Trace;
use obs::MetricsSnapshot;
use p2p::memory::{InMemoryNetwork, NetStats};
use p2p::Transport;
use tsp_core::{fan_out, Instance, NeighborLists, Tour};

use crate::node::{DistConfig, NodeDriver, NodeResult, Searched};

/// Aggregate outcome of a distributed run.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// Per-node results.
    pub nodes: Vec<NodeResult>,
    /// Best tour over the whole network.
    pub best_tour: Tour,
    /// Its length.
    pub best_length: i64,
    /// Network-best convergence trace (min over node traces).
    pub network_trace: Trace,
    /// `(messages, wire bytes, tour broadcasts)` for the §4 message
    /// statistics.
    pub messages: (u64, u64, u64),
    /// Wall-clock duration of the whole run.
    pub wall_seconds: f64,
    /// Merge of every node's metrics registry: counters, gauges, and
    /// histogram buckets all sum across nodes. Network-wide totals
    /// (CLK calls, broadcasts, kick-strength distribution) read from
    /// here.
    pub metrics: MetricsSnapshot,
}

impl DistResult {
    pub(crate) fn assemble(
        inst: &Instance,
        mut nodes: Vec<NodeResult>,
        messages: (u64, u64, u64),
        secs: f64,
    ) -> Self {
        nodes.sort_by_key(|n| n.id);
        // Aborted nodes (killed by churn, or panicked threads) carry no
        // trustworthy tour; pick the best among clean finishers. Only
        // when *everything* aborted does the degraded record fall back
        // to whatever partial state survives.
        let best = nodes
            .iter()
            .filter(|n| !n.aborted)
            .min_by_key(|n| n.best_length)
            .or_else(|| nodes.iter().min_by_key(|n| n.best_length))
            .expect("at least one node");
        let network_trace =
            Trace::network_best(&nodes.iter().map(|n| n.trace.clone()).collect::<Vec<_>>());
        let best_tour = best.best_tour.clone();
        // Recompute on the instance: node results may carry lengths
        // claimed by peers; the aggregate reports ground truth.
        let best_length = best_tour.length(inst);
        let mut metrics = MetricsSnapshot::default();
        for n in &nodes {
            metrics.merge(&n.metrics);
        }
        DistResult {
            best_tour,
            best_length,
            network_trace,
            messages,
            wall_seconds: secs,
            metrics,
            nodes,
        }
    }

    /// Total CPU time proxy: the sum of every node's busy time (the
    /// paper's "total CPU time summed over all CPU nodes" for speed-up
    /// factors), however many nodes shared a core.
    pub fn total_node_seconds(&self) -> f64 {
        self.nodes.iter().map(|n| n.busy_seconds).sum()
    }

    /// Total broadcasts initiated (paper §4: "84.9 broadcasts per run").
    pub fn total_broadcasts(&self) -> u64 {
        self.nodes.iter().map(|n| n.broadcasts).sum()
    }
}

/// Run the distributed algorithm with one OS thread per node over an
/// in-memory network — the wall-clock-faithful driver (the paper's
/// cluster shape, minus the physical Ethernet; see DESIGN.md §3).
///
/// This is [`run_over_transports`] over in-memory endpoints (a panicked
/// node thread degrades the result instead of aborting the run), plus
/// the network's message counters.
pub fn run_threads(inst: &Instance, neighbors: &NeighborLists, cfg: &DistConfig) -> DistResult {
    let (endpoints, stats) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
    let mut result = run_over_transports(inst, neighbors, cfg, endpoints);
    result.messages = stats.snapshot();
    result
}

/// Fresh nodes with their Fig. 1 preamble behind them, one per
/// transport, for the lockstep drivers: their rounds count iterations
/// of the Fig. 1 loop (churn schedules are keyed by them), and a node's
/// clock should run through its own construction and first LK pass, as
/// on a processor of its own. The preamble neither sends nor reads, so
/// the nodes are built through [`fan_out`], one per core.
pub(crate) fn started_nodes<'a, T: Transport>(
    inst: &'a Instance,
    neighbors: &'a NeighborLists,
    cfg: &DistConfig,
    transports: Vec<T>,
) -> Vec<Option<NodeDriver<'a, T>>> {
    let mut slots: Vec<(Option<T>, Option<NodeDriver<'a, T>>)> =
        transports.into_iter().map(|ep| (Some(ep), None)).collect();
    fan_out(&mut slots, |_, (ep, node)| {
        let ep = ep.take().expect("each transport builds one node");
        let mut started = NodeDriver::new(inst, neighbors, cfg, ep);
        started.step();
        *node = Some(started);
    });
    slots.into_iter().map(|(_, node)| node).collect()
}

/// One lockstep round: the searches of every live driver run through
/// [`fan_out`], then each driver settles — reads its inbox, selects,
/// sends — in id order. A driver that terminated is finished into
/// `results` and its slot emptied. Returns whether any driver is still
/// running.
///
/// A search touches only its own node (the inbox is read in `settle`),
/// so this delivers the same messages in the same order as stepping the
/// drivers one after another, at any thread count.
pub(crate) fn lockstep_round<T: Transport>(
    drivers: &mut [Option<NodeDriver<'_, T>>],
    results: &mut Vec<NodeResult>,
) -> bool {
    let mut searches: Vec<(&mut NodeDriver<'_, T>, Option<Searched>)> = drivers
        .iter_mut()
        .flatten()
        .map(|node| (node, None))
        .collect();
    fan_out(&mut searches, |_, (node, searched)| {
        *searched = Some(node.search());
    });
    // Collected first: the settles below need the slots `searches`
    // borrows.
    let mut outcomes = searches
        .into_iter()
        .map(|(_, searched)| searched.expect("fan_out fills every slot"))
        .collect::<Vec<_>>()
        .into_iter();
    let mut any_live = false;
    for slot in drivers.iter_mut() {
        let Some(node) = slot else { continue };
        let searched = outcomes.next().expect("one search per live driver");
        if node.settle(searched) {
            any_live = true;
        } else if let Some(done) = slot.take() {
            results.push(done.finish());
        }
    }
    any_live
}

/// Run the distributed algorithm in deterministic lockstep: every
/// round, each live node executes exactly one iteration. The node-local
/// halves (perturbation and CLK call) run in parallel, one node per
/// core; then each node, in id order, reads its inbox, selects and
/// sends. So node `i` sees in round `r` what nodes `< i` sent in round
/// `r` and what nodes `≥ i` sent in round `r − 1`, exactly as if the
/// nodes were stepped one after another, whatever the thread count.
/// Budgets should be effort-based (`Budget::kicks`) for full
/// determinism.
///
/// ```
/// use tsp_core::{generate, NeighborLists};
/// use distclk::{run_lockstep, DistConfig};
/// use lk::Budget;
///
/// let inst = generate::uniform(100, 100_000.0, 3);
/// let neighbors = NeighborLists::build(&inst, 8);
/// let cfg = DistConfig {
///     nodes: 4,
///     budget: Budget::kicks(2),
///     clk_kicks_per_call: 3,
///     ..Default::default()
/// };
/// let result = run_lockstep(&inst, &neighbors, &cfg);
/// assert_eq!(result.nodes.len(), 4);
/// assert_eq!(result.best_tour.length(&inst), result.best_length);
/// ```
pub fn run_lockstep(inst: &Instance, neighbors: &NeighborLists, cfg: &DistConfig) -> DistResult {
    let (endpoints, stats) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
    run_lockstep_over(inst, neighbors, cfg, endpoints, Some(stats))
}

/// [`run_lockstep`] over caller-supplied transports — e.g. in-memory
/// endpoints wrapped in [`p2p::fault::FaultyTransport`] or
/// [`p2p::delay::DelayedTransport`] for the robustness experiments.
/// Pass the network's [`NetStats`] handle to populate the message
/// counters of the result (zeros otherwise).
pub fn run_lockstep_over<T: Transport>(
    inst: &Instance,
    neighbors: &NeighborLists,
    cfg: &DistConfig,
    transports: Vec<T>,
    stats: Option<Arc<NetStats>>,
) -> DistResult {
    let start = std::time::Instant::now();
    let mut drivers = started_nodes(inst, neighbors, cfg, transports);
    let mut results: Vec<NodeResult> = Vec::with_capacity(drivers.len());
    while lockstep_round(&mut drivers, &mut results) {}
    let messages = stats.map_or((0, 0, 0), |s| s.snapshot());
    DistResult::assemble(inst, results, messages, start.elapsed().as_secs_f64())
}

/// Run the distributed algorithm over pre-built transports (e.g. the
/// TCP endpoints from [`p2p::hub::bootstrap_local`] or a real cluster).
/// One thread per endpoint.
///
/// A node thread that panics (poisoned transport, bug, injected chaos)
/// does **not** bring the run down: its slot is recorded as an aborted
/// [`NodeResult`] placeholder and every other join still completes, so
/// the caller always gets a degraded-but-complete [`DistResult`].
pub fn run_over_transports<T: Transport + 'static>(
    inst: &Instance,
    neighbors: &NeighborLists,
    cfg: &DistConfig,
    transports: Vec<T>,
) -> DistResult {
    let start = std::time::Instant::now();
    let results: Vec<NodeResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .map(|ep| {
                let id = ep.node_id();
                let cfg = cfg.clone();
                let h = scope
                    .spawn(move || NodeDriver::new(inst, neighbors, &cfg, ep).run_to_completion());
                (id, h)
            })
            .collect();
        handles
            .into_iter()
            .map(|(id, h)| {
                h.join()
                    .unwrap_or_else(|_| NodeResult::aborted_placeholder(id, inst.len()))
            })
            .collect()
    });
    DistResult::assemble(inst, results, (0, 0, 0), start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lk::Budget;
    use tsp_core::generate;

    fn small_cfg(nodes: usize, calls: u64, seed: u64) -> DistConfig {
        DistConfig {
            nodes,
            budget: Budget::kicks(calls),
            clk_kicks_per_call: 3,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn lockstep_is_deterministic() {
        let inst = generate::uniform(80, 10_000.0, 301);
        let nl = NeighborLists::build(&inst, 8);
        let cfg = small_cfg(4, 4, 7);
        let a = run_lockstep(&inst, &nl, &cfg);
        let b = run_lockstep(&inst, &nl, &cfg);
        assert_eq!(a.best_length, b.best_length);
        assert_eq!(a.best_tour.order(), b.best_tour.order());
        assert_eq!(a.total_broadcasts(), b.total_broadcasts());
    }

    #[test]
    fn cooperation_spreads_improvements() {
        let inst = generate::uniform(100, 10_000.0, 302);
        let nl = NeighborLists::build(&inst, 8);
        let cfg = small_cfg(8, 6, 3);
        let res = run_lockstep(&inst, &nl, &cfg);
        assert_eq!(res.nodes.len(), 8);
        // Someone must have broadcast and someone must have received.
        assert!(res.total_broadcasts() > 0);
        let received: u64 = res.nodes.iter().map(|n| n.received).sum();
        assert!(received > 0, "no tours were exchanged");
        // Message stats flow through the shared counters.
        assert!(res.messages.0 > 0 && res.messages.1 > 0);
        assert!(res.best_tour.is_valid());
    }

    #[test]
    fn threads_driver_produces_consistent_results() {
        let inst = generate::uniform(80, 10_000.0, 303);
        let nl = NeighborLists::build(&inst, 8);
        let cfg = small_cfg(4, 3, 11);
        let res = run_threads(&inst, &nl, &cfg);
        assert_eq!(res.nodes.len(), 4);
        assert_eq!(res.best_tour.length(&inst), res.best_length);
        for n in &res.nodes {
            assert!(n.clk_calls >= 3);
        }
        assert!(res.total_node_seconds() > 0.0);
    }

    #[test]
    fn target_stops_whole_network() {
        let inst = generate::grid_known_optimum(6, 6, 100.0);
        let nl = NeighborLists::build(&inst, 8);
        let mut cfg = small_cfg(4, 10_000, 5);
        cfg.clk_kicks_per_call = 30;
        cfg.budget = Budget::kicks(10_000).with_target(inst.known_optimum().unwrap());
        let res = run_lockstep(&inst, &nl, &cfg);
        assert_eq!(res.best_length, inst.known_optimum().unwrap());
        // Termination propagated: no node burned the full budget.
        for n in &res.nodes {
            assert!(n.clk_calls < 10_000, "node {} ran to budget", n.id);
        }
    }

    #[test]
    fn total_node_seconds_covers_every_clk_call() {
        // Busy time includes each node's CLK calls, wherever the
        // lockstep round ran them.
        let inst = generate::uniform(150, 10_000.0, 310);
        let nl = NeighborLists::build(&inst, 8);
        let res = run_lockstep(&inst, &nl, &small_cfg(4, 5, 23));
        let clk_ns: u64 = res
            .nodes
            .iter()
            .map(|n| n.metrics.histogram("clk.call.ns").map_or(0, |h| h.sum))
            .sum();
        assert!(clk_ns > 0, "no CLK call was timed");
        let clk_secs = clk_ns as f64 * 1e-9;
        assert!(
            res.total_node_seconds() >= 0.9 * clk_secs,
            "total_node_seconds {} < 0.9 x CLK call time {clk_secs}",
            res.total_node_seconds()
        );
    }

    #[test]
    fn node_counters_agree_with_metrics_registry() {
        // The NodeResult counter fields are *read from* the registry,
        // so equality here is the no-drift guarantee of satellite #2;
        // also check the aggregate snapshot is the sum over nodes.
        let inst = generate::uniform(100, 10_000.0, 305);
        let nl = NeighborLists::build(&inst, 8);
        let res = run_lockstep(&inst, &nl, &small_cfg(8, 6, 13));
        for n in &res.nodes {
            assert_eq!(n.clk_calls, n.metrics.counter("node.clk_calls"));
            assert_eq!(n.broadcasts, n.metrics.counter("node.broadcasts"));
            assert_eq!(n.received, n.metrics.counter("node.received"));
            assert_eq!(n.rejected, n.metrics.counter("node.rejected"));
        }
        let sum_calls: u64 = res.nodes.iter().map(|n| n.clk_calls).sum();
        assert_eq!(res.metrics.counter("node.clk_calls"), sum_calls);
        assert_eq!(
            res.metrics.counter("node.broadcasts"),
            res.total_broadcasts()
        );
    }

    #[test]
    fn broadcast_ids_trace_hub_to_leaf() {
        use obs::Value;
        use p2p::Topology;

        // Adoption is one hop: a node adopts only tours its neighbors
        // found themselves (Fig. 1 broadcasts local improvements only),
        // so every adopted broadcast id must name the node it came
        // from, that node must have broadcast it, and it must be a
        // static neighbor of the adopter.
        let inst = generate::uniform(100, 10_000.0, 306);
        let nl = NeighborLists::build(&inst, 8);
        let mut cfg = small_cfg(6, 6, 17);
        cfg.topology = Topology::Ring;
        let res = run_lockstep(&inst, &nl, &cfg);

        let field = |ev: &obs::Event, key: &str| -> Option<u64> {
            ev.fields.iter().find_map(|(k, v)| match v {
                Value::U(u) if k == key => Some(*u),
                _ => None,
            })
        };

        // Every adoption `(tour_id, sender, adopter)` and every
        // broadcast `(tour_id, node)`.
        let mut adopted: Vec<(u64, u64, usize)> = Vec::new();
        let mut originated: Vec<(u64, usize)> = Vec::new();
        for n in &res.nodes {
            for ev in &n.obs_events {
                let id = || field(ev, "tour_id").expect("event has a tour id");
                match ev.kind.as_ref() {
                    "node.adopt" => {
                        let from = field(ev, "from").expect("adopt has a sender");
                        adopted.push((id(), from, n.id));
                    }
                    "node.broadcast" => originated.push((id(), n.id)),
                    _ => {}
                }
            }
        }
        assert!(!adopted.is_empty(), "cooperation produced no adoptions");
        for &(id, from, adopter) in &adopted {
            let sender = from as usize;
            assert_eq!(id >> 32, from, "id {id:#x} adopted from node {from}");
            assert!(
                originated.contains(&(id, sender)),
                "adopted id {id:#x} was never broadcast by node {from}"
            );
            assert!(
                cfg.topology.neighbors(adopter, cfg.nodes).contains(&sender),
                "node {adopter} adopted from node {from}, not a neighbor"
            );
        }
    }

    #[test]
    fn more_nodes_never_hurt_best_quality_in_expectation() {
        // Not a strict theorem, but with the same per-node effort an
        // 8-node network should find a tour at least as good as a
        // 1-node run almost always; use a fixed seed pair that holds.
        let inst = generate::uniform(150, 10_000.0, 304);
        let nl = NeighborLists::build(&inst, 8);
        let one = run_lockstep(&inst, &nl, &small_cfg(1, 8, 9));
        let eight = run_lockstep(&inst, &nl, &small_cfg(8, 8, 9));
        assert!(
            eight.best_length <= one.best_length,
            "8 nodes {} worse than 1 node {}",
            eight.best_length,
            one.best_length
        );
    }
}
