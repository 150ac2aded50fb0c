//! Integration tests: the distributed algorithm must degrade
//! gracefully on a faulty network (ISSUE: harden the P2P substrate).
//!
//! Faults are injected with [`p2p::fault::FaultyTransport`] on the
//! inbound side of the deterministic lockstep driver, so every run
//! here is exactly reproducible from its seed.

use distclk::{run_lockstep, run_lockstep_over, DistConfig};
use lk::Budget;
use p2p::fault::{FaultConfig, FaultyTransport};
use p2p::memory::InMemoryNetwork;
use p2p::Topology;
use tsp_core::{generate, NeighborLists};

fn cfg_8_hypercube(seed: u64, calls: u64) -> DistConfig {
    DistConfig {
        nodes: 8,
        topology: Topology::Hypercube,
        budget: Budget::kicks(calls),
        clk_kicks_per_call: 3,
        seed,
        ..Default::default()
    }
}

fn run_with_faults(
    inst: &tsp_core::Instance,
    nl: &NeighborLists,
    cfg: &DistConfig,
    fcfg: FaultConfig,
) -> distclk::DistResult {
    let (eps, stats) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
    let wrapped: Vec<_> = eps
        .into_iter()
        .map(|e| FaultyTransport::new(e, fcfg))
        .collect();
    run_lockstep_over(inst, nl, cfg, wrapped, Some(stats))
}

/// ISSUE acceptance criterion: at a 20% message drop rate on the
/// 8-node hypercube, the lockstep run still terminates and lands
/// within 2% of the fault-free run on the same seed.
#[test]
fn twenty_percent_drop_stays_within_two_percent() {
    let inst = generate::uniform(200, 100_000.0, 71);
    let nl = NeighborLists::build(&inst, 8);
    let cfg = cfg_8_hypercube(9, 8);

    let clean = run_lockstep(&inst, &nl, &cfg);
    let faulty = run_with_faults(&inst, &nl, &cfg, FaultConfig::drop_rate(0.2, cfg.seed));

    assert!(faulty.best_tour.is_valid());
    assert_eq!(faulty.best_length, faulty.best_tour.length(&inst));
    let ratio = faulty.best_length as f64 / clean.best_length as f64;
    assert!(
        ratio <= 1.02,
        "20% drop degraded quality beyond 2%: faulty {} vs clean {} (ratio {ratio:.4})",
        faulty.best_length,
        clean.best_length
    );
}

/// A fault-free FaultyTransport wrapper is an identity: same seed,
/// same result as the bare lockstep driver.
#[test]
fn fault_free_wrapper_matches_bare_driver() {
    let inst = generate::uniform(120, 50_000.0, 33);
    let nl = NeighborLists::build(&inst, 8);
    let cfg = cfg_8_hypercube(4, 5);

    let bare = run_lockstep(&inst, &nl, &cfg);
    let wrapped = run_with_faults(&inst, &nl, &cfg, FaultConfig::none(cfg.seed));

    assert_eq!(bare.best_length, wrapped.best_length);
    assert_eq!(bare.best_tour.order(), wrapped.best_tour.order());
    assert_eq!(bare.total_broadcasts(), wrapped.total_broadcasts());
}

/// Fault injection is deterministic: same seed, same faulty result.
#[test]
fn faulty_runs_reproduce_from_seed() {
    let inst = generate::uniform(120, 50_000.0, 55);
    let nl = NeighborLists::build(&inst, 8);
    let cfg = cfg_8_hypercube(6, 5);
    let fcfg = FaultConfig {
        drop: 0.2,
        duplicate: 0.1,
        reorder: 0.3,
        corrupt: 0.2,
        seed: cfg.seed,
    };

    let a = run_with_faults(&inst, &nl, &cfg, fcfg);
    let b = run_with_faults(&inst, &nl, &cfg, fcfg);

    assert_eq!(a.best_length, b.best_length);
    assert_eq!(a.best_tour.order(), b.best_tour.order());
    let rej =
        |r: &distclk::DistResult| -> Vec<u64> { r.nodes.iter().map(|n| n.rejected).collect() };
    assert_eq!(rej(&a), rej(&b));
}

/// ISSUE acceptance criterion: corrupted `TourFound` messages never
/// change any node's best length — every adopted tour is re-validated
/// (city count, permutation, recomputed length) before adoption, so a
/// node's reported best always equals the true length of its tour.
#[test]
fn heavy_corruption_never_pollutes_best_lengths() {
    let inst = generate::uniform(150, 100_000.0, 88);
    let nl = NeighborLists::build(&inst, 8);
    let cfg = cfg_8_hypercube(12, 6);

    let res = run_with_faults(&inst, &nl, &cfg, FaultConfig::corrupt_rate(0.9, cfg.seed));

    assert!(res.best_tour.is_valid());
    for n in &res.nodes {
        assert_eq!(
            n.best_length,
            n.best_tour.length(&inst),
            "node {} reports a best length that is not the true length of its tour",
            n.id
        );
        assert!(
            n.best_tour.is_valid(),
            "node {} holds an invalid tour",
            n.id
        );
    }
    // With 90% corruption and cooperating nodes, validation must have
    // turned at least one damaged tour away (deterministic under the
    // fixed seed).
    let rejected: u64 = res.nodes.iter().map(|n| n.rejected).sum();
    assert!(
        rejected > 0,
        "expected the validation layer to reject at least one corrupted tour"
    );
}

/// Even a severely lossy ring (sparsest topology, 40% drop) terminates
/// and produces a valid, truthfully-reported tour.
#[test]
fn lossy_ring_terminates_with_valid_result() {
    let inst = generate::uniform(100, 50_000.0, 44);
    let nl = NeighborLists::build(&inst, 8);
    let mut cfg = cfg_8_hypercube(3, 4);
    cfg.topology = Topology::Ring;

    let res = run_with_faults(&inst, &nl, &cfg, FaultConfig::drop_rate(0.4, cfg.seed));

    assert!(res.best_tour.is_valid());
    assert_eq!(res.best_length, res.best_tour.length(&inst));
    assert_eq!(res.nodes.len(), 8);
}
