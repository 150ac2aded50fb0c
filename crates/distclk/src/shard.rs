//! Distributed divide-and-optimize: shard assignment, result
//! collection over the wire protocol, and deterministic reassembly.
//!
//! Unlike the replicated-search driver (every node holds the full
//! instance and races on kicks), the sharded driver gives each node a
//! *slice* of the data: shard `s` of the deterministic
//! [`Partition`] is assigned to node `s % nodes`, each node runs the
//! full CLK engine on its sub-instances only, and the solved sub-tours
//! travel to the collector (node 0) as [`Message::ShardResult`] frames
//! — the shard analog of the broadcast-id-tagged `TourFound` tours.
//!
//! There is no shard-assignment message: the partition is a pure
//! function of `(instance, shard count)` and the assignment a pure
//! function of `(shard, nodes)`, so every node derives the same plan
//! locally, exactly like candidate lists in the replicated driver.
//!
//! The collector validates every incoming result against its own
//! partition (shard id in range, the order is a permutation of the
//! shard's membership, the length recomputes) and winner-merges
//! duplicates by `(length, sender)`. Missing shards — worker death,
//! dropped frames — are re-solved locally after `COLLECT_TIMEOUT`;
//! because shard solves are deterministic ([`lk::shard::shard_seed`]),
//! the recovery path produces bit-identical sub-tours, so the final
//! tour does not depend on node count, arrival order, or which
//! failures occurred.

use std::time::{Duration, Instant};

use lk::shard::{solve_one_shard, stitch_and_refine, ShardConfig, ShardStats};
use obs::Obs;
use p2p::memory::InMemoryNetwork;
use p2p::{Message, NodeId, Topology, Transport};
use tsp_core::partition::Partition;
use tsp_core::{Instance, Tour};

/// Configuration of a distributed sharded run.
#[derive(Debug, Clone)]
pub struct ShardDistConfig {
    /// Worker count (node 0 doubles as the collector).
    pub nodes: usize,
    /// The pipeline configuration shared by every node.
    pub shard: ShardConfig,
}

impl Default for ShardDistConfig {
    fn default() -> Self {
        ShardDistConfig {
            nodes: 4,
            shard: ShardConfig::default(),
        }
    }
}

/// Outcome of a distributed sharded run.
#[derive(Debug, Clone)]
pub struct ShardDistResult {
    /// The stitched and refined global tour.
    pub tour: Tour,
    /// Its length under the instance metric.
    pub length: i64,
    /// Pipeline counters (solve timings are collector wall time).
    pub stats: ShardStats,
    /// Winning solver per shard. [`RESOLVED_LOCALLY`] marks shards the
    /// collector re-solved after the timeout.
    pub solver_of: Vec<NodeId>,
    /// Shard results rejected by validation.
    pub rejected: u64,
    /// `(messages, wire bytes, tour broadcasts)` from the transport.
    pub messages: (u64, u64, u64),
    /// Wall-clock duration of the whole run.
    pub wall_seconds: f64,
}

/// Sentinel solver id for shards the collector re-solved itself after
/// the collect timeout.
pub const RESOLVED_LOCALLY: NodeId = NodeId::MAX;

/// The deterministic shard→node assignment rule.
#[inline]
pub fn node_of_shard(shard: usize, nodes: usize) -> NodeId {
    shard % nodes
}

/// Validate a received shard result against the local partition:
/// shard id in range, `order` a permutation of the shard's membership,
/// and `length` recomputable on the instance. Returns the recomputed
/// length on success.
pub fn validate_shard_result(
    inst: &Instance,
    part: &Partition,
    shard: u32,
    length: i64,
    order: &[u32],
) -> Option<i64> {
    let members = part.shards().get(shard as usize)?;
    if order.len() != members.len() {
        return None;
    }
    let mut sorted = order.to_vec();
    sorted.sort_unstable();
    if &sorted != members {
        return None;
    }
    let mut true_len = 0i64;
    for i in 0..order.len() {
        let a = order[i] as usize;
        let b = order[(i + 1) % order.len()] as usize;
        true_len += inst.dist(a, b);
    }
    (true_len == length).then_some(true_len)
}

/// Run the sharded pipeline with one OS thread per node over an
/// in-memory star network (workers talk only to the collector).
///
/// Data-locality note: in-process, the instance is shared by reference
/// like the replicated driver's candidate lists; the per-node *working
/// set* — sub-instance, neighbor lists, engine state — is bounded by
/// the largest assigned shard, which is what caps deployment memory.
pub fn run_sharded_threads(inst: &Instance, cfg: &ShardDistConfig) -> ShardDistResult {
    run_sharded_threads_with_obs(inst, cfg, &Obs::disabled())
}

/// [`run_sharded_threads`] with observability probes on the collector.
pub fn run_sharded_threads_with_obs(
    inst: &Instance,
    cfg: &ShardDistConfig,
    obs: &Obs,
) -> ShardDistResult {
    assert!(cfg.nodes >= 1, "need at least one node");
    let start = Instant::now();

    // Degenerate configurations collapse to the local pipeline (which
    // itself collapses to the bit-identical unsharded engine at <= 1
    // shard).
    if cfg.shard.shards <= 1 || !inst.metric().is_geometric() {
        let res = lk::shard::shard_solve_with_obs(inst, &cfg.shard, obs);
        return ShardDistResult {
            tour: res.tour,
            length: res.length,
            stats: res.stats,
            solver_of: vec![0],
            rejected: 0,
            messages: (0, 0, 0),
            wall_seconds: start.elapsed().as_secs_f64(),
        };
    }

    let part = Partition::build(inst, cfg.shard.shards);
    let shard_count = part.shard_count();
    let (mut endpoints, net_stats) = InMemoryNetwork::build(cfg.nodes, Topology::Star);
    let collector_ep = endpoints.remove(0);

    let (cycles, solver_of, rejected, solve_secs) = std::thread::scope(|scope| {
        // Workers: solve assigned shards in ascending order, ship each
        // to the collector, exit.
        for mut ep in endpoints {
            let part = &part;
            let shard_cfg = &cfg.shard;
            scope.spawn(move || {
                let me = ep.node_id();
                for s in 0..part.shard_count() {
                    if node_of_shard(s, cfg.nodes) != me {
                        continue;
                    }
                    let (order, length) = solve_one_shard(inst, part, s, shard_cfg);
                    // Send failures are survivable: the collector
                    // re-solves missing shards after its timeout.
                    let _ = ep.send(
                        0,
                        Message::ShardResult {
                            from: me,
                            shard: s as u32,
                            length,
                            order,
                        },
                    );
                }
            });
        }
        collect(inst, &part, cfg, collector_ep, obs, COLLECT_TIMEOUT)
    });

    let mut stats = ShardStats {
        shard_count,
        max_shard_cities: part.max_shard_len(),
        solve_seconds: solve_secs,
        ..ShardStats::default()
    };
    let cycles: Vec<Option<Vec<u32>>> = cycles
        .into_iter()
        .map(|c| {
            let (len, order) = c.expect("collector guarantees every shard");
            stats.shard_lengths.push(len);
            Some(order)
        })
        .collect();
    let tour = stitch_and_refine(inst, &part, cycles, &cfg.shard, obs, &mut stats);
    let length = tour.length(inst);
    ShardDistResult {
        tour,
        length,
        stats,
        solver_of,
        rejected,
        messages: net_stats.snapshot(),
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

type Collected = Vec<Option<(i64, Vec<u32>)>>;

/// How long the collector waits for outstanding shard results before
/// re-solving them locally.
const COLLECT_TIMEOUT: Duration = Duration::from_secs(120);

/// Collector loop on node 0: solve its own shards, drain worker
/// results with validation and winner-merge, re-solve whatever is
/// still missing after `patience`.
fn collect<T: Transport>(
    inst: &Instance,
    part: &Partition,
    cfg: &ShardDistConfig,
    mut ep: T,
    obs: &Obs,
    patience: Duration,
) -> (Collected, Vec<NodeId>, u64, f64) {
    let t0 = Instant::now();
    let shard_count = part.shard_count();
    let mut cycles: Collected = vec![None; shard_count];
    let mut solver_of = vec![RESOLVED_LOCALLY; shard_count];
    let mut rejected = 0u64;
    let me = ep.node_id();

    let install = |cycles: &mut Collected,
                   solver_of: &mut Vec<NodeId>,
                   shard: usize,
                   length: i64,
                   order: Vec<u32>,
                   from: NodeId| {
        // Winner merge by (length, sender): deterministic even if a
        // shard is ever solved twice.
        let incumbent = (cycles[shard].as_ref().map(|(l, _)| *l), solver_of[shard]);
        if incumbent.0.is_none() || (Some(length), from) < incumbent {
            cycles[shard] = Some((length, order));
            solver_of[shard] = from;
        }
    };

    for s in 0..shard_count {
        if node_of_shard(s, cfg.nodes) == me {
            let (order, length) = solve_one_shard(inst, part, s, &cfg.shard);
            obs.counter(obs::kinds::C_SHARDS_SOLVED).incr();
            install(&mut cycles, &mut solver_of, s, length, order, me);
        }
    }

    let deadline = t0 + patience;
    let mut outstanding = cycles.iter().filter(|c| c.is_none()).count();
    while outstanding > 0 && Instant::now() < deadline {
        match ep.try_recv() {
            Some(Message::ShardResult {
                from,
                shard,
                length,
                order,
            }) => match validate_shard_result(inst, part, shard, length, &order) {
                Some(true_len) => {
                    let s = shard as usize;
                    if cycles[s].is_none() {
                        outstanding -= 1;
                    }
                    install(&mut cycles, &mut solver_of, s, true_len, order, from);
                }
                None => {
                    rejected += 1;
                    obs.counter(obs::kinds::C_SHARD_REJECTS).incr();
                }
            },
            Some(_) => {}
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    }

    // Deterministic recovery: solving shard `s` locally yields the
    // exact sub-tour the missing worker would have sent.
    for (s, cycle) in cycles.iter_mut().enumerate() {
        if cycle.is_none() {
            let (order, length) = solve_one_shard(inst, part, s, &cfg.shard);
            obs.counter(obs::kinds::C_SHARDS_SOLVED).incr();
            *cycle = Some((length, order));
        }
    }
    (cycles, solver_of, rejected, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    fn cfg(nodes: usize, shards: usize, seed: u64) -> ShardDistConfig {
        let mut c = ShardDistConfig {
            nodes,
            ..ShardDistConfig::default()
        };
        c.shard.shards = shards;
        c.shard.kicks_per_shard = 8;
        c.shard.window = 48;
        c.shard.clk.seed = seed;
        c
    }

    #[test]
    fn result_invariant_to_node_count() {
        let inst = generate::uniform(400, 10_000.0, 13);
        let local = lk::shard::shard_solve(&inst, &cfg(1, 4, 5).shard);
        for nodes in [1, 2, 4] {
            let dist = run_sharded_threads(&inst, &cfg(nodes, 4, 5));
            assert_eq!(dist.length, local.length, "nodes={nodes}");
            assert_eq!(dist.tour.order(), local.tour.order(), "nodes={nodes}");
            assert_eq!(dist.rejected, 0);
            assert!(dist.tour.is_valid());
        }
    }

    #[test]
    fn every_shard_reports_a_solver() {
        let inst = generate::uniform(300, 10_000.0, 2);
        let dist = run_sharded_threads(&inst, &cfg(3, 5, 1));
        assert_eq!(dist.solver_of.len(), 5);
        for (s, &solver) in dist.solver_of.iter().enumerate() {
            assert!(
                solver == node_of_shard(s, 3) || solver == RESOLVED_LOCALLY,
                "shard {s} solved by {solver}"
            );
        }
        assert_eq!(dist.stats.shard_lengths.len(), 5);
    }

    #[test]
    fn zero_patience_recovers_deterministically() {
        // With no collect patience the collector re-solves every
        // non-local shard itself; the tour must still be bit-identical.
        let inst = generate::uniform(350, 10_000.0, 23);
        let local = lk::shard::shard_solve(&inst, &cfg(1, 4, 9).shard);
        let cfg = cfg(3, 4, 9);
        let part = Partition::build(&inst, cfg.shard.shards);
        let (mut endpoints, _) = InMemoryNetwork::build(cfg.nodes, Topology::Star);
        let obs = Obs::disabled();
        let (cycles, solver_of, rejected, _) = collect(
            &inst,
            &part,
            &cfg,
            endpoints.remove(0),
            &obs,
            Duration::ZERO,
        );
        assert_eq!(rejected, 0);
        for (s, &solver) in solver_of.iter().enumerate() {
            let want = if node_of_shard(s, cfg.nodes) == 0 {
                0
            } else {
                RESOLVED_LOCALLY
            };
            assert_eq!(solver, want, "shard {s}");
        }
        let cycles = cycles
            .into_iter()
            .map(|c| c.map(|(_, order)| order))
            .collect();
        let mut stats = ShardStats::default();
        let tour = stitch_and_refine(&inst, &part, cycles, &cfg.shard, &obs, &mut stats);
        assert_eq!(tour.order(), local.tour.order());
    }

    #[test]
    fn one_shard_config_collapses_to_unsharded_engine() {
        let inst = generate::uniform(200, 10_000.0, 4);
        let dist = run_sharded_threads(&inst, &cfg(4, 1, 77));
        let local = lk::shard::shard_solve(&inst, &cfg(1, 1, 77).shard);
        assert_eq!(dist.tour.order(), local.tour.order());
        assert_eq!(dist.messages.0, 0, "no frames for a local solve");
    }

    #[test]
    fn validation_rejects_corrupt_results() {
        let inst = generate::uniform(100, 1_000.0, 6);
        let part = Partition::build(&inst, 3);
        let members = part.shard(1).to_vec();
        let mut true_len = 0i64;
        for i in 0..members.len() {
            true_len += inst.dist(
                members[i] as usize,
                members[(i + 1) % members.len()] as usize,
            );
        }
        // Honest result accepted.
        assert_eq!(
            validate_shard_result(&inst, &part, 1, true_len, &members),
            Some(true_len)
        );
        // Shard id out of range.
        assert!(validate_shard_result(&inst, &part, 9, true_len, &members).is_none());
        // Claimed length wrong.
        assert!(validate_shard_result(&inst, &part, 1, true_len - 1, &members).is_none());
        // Not this shard's membership.
        let other = part.shard(0).to_vec();
        assert!(validate_shard_result(&inst, &part, 1, 0, &other).is_none());
        // Duplicate city.
        let mut dup = members.clone();
        dup[0] = dup[1];
        assert!(validate_shard_result(&inst, &part, 1, true_len, &dup).is_none());
        // Wrong cardinality.
        assert!(validate_shard_result(&inst, &part, 1, true_len, &members[1..]).is_none());
    }
}
