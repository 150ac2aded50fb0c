//! Shared machinery for the experiment drivers.

use distclk::{run_lockstep, DistConfig, DistResult};
use lk::{Budget, ChainedLk, ChainedLkConfig, ClkResult, KickStrategy, Trace};
use p2p::Topology;
use tsp_core::{Instance, NeighborLists};

use crate::testbed::{Reference, Scale};

/// Run standalone CLK `runs` times with distinct seeds.
pub fn run_clk_many(
    inst: &Instance,
    kick: KickStrategy,
    kicks: u64,
    runs: usize,
    seed0: u64,
    target: Option<i64>,
) -> Vec<ClkResult> {
    let nl = NeighborLists::build(inst, 10);
    (0..runs)
        .map(|r| {
            let cfg = ChainedLkConfig {
                kick,
                seed: seed0 + r as u64,
                ..Default::default()
            };
            let mut engine = ChainedLk::new(inst, &nl, cfg);
            let mut budget = Budget::kicks(kicks);
            if let Some(t) = target {
                budget = budget.with_target(t);
            }
            engine.run(&budget)
        })
        .collect()
}

/// Build a `DistConfig` from the scale knobs.
pub fn dist_config(scale: &Scale, kick: KickStrategy, nodes: usize, seed: u64) -> DistConfig {
    DistConfig {
        nodes,
        topology: Topology::Hypercube,
        clk: ChainedLkConfig {
            kick,
            ..Default::default()
        },
        clk_kicks_per_call: scale.kicks_per_call,
        budget: Budget::kicks(scale.dist_calls_per_node()),
        seed,
        ..Default::default()
    }
}

/// Run the distributed algorithm `runs` times with distinct seeds.
///
/// Uses the deterministic lockstep driver, which runs a round's CLK
/// calls on every core and returns the same result at any core count.
/// Wall time then depends on how many cores the nodes shared, so effort
/// (CLK calls / kicks) is the time axis for every experiment (see
/// DESIGN.md §3).
pub fn run_dist_many(
    inst: &Instance,
    base: &DistConfig,
    runs: usize,
    seed0: u64,
    target: Option<i64>,
) -> Vec<DistResult> {
    // Lists must come from the shared wire config (candidate kind +
    // width), not a hardcoded builder — see `distclk::build_neighbors`.
    let nl = distclk::build_neighbors(inst, base);
    (0..runs)
        .map(|r| {
            let mut cfg = base.clone();
            cfg.seed = seed0 + r as u64;
            if let Some(t) = target {
                cfg.budget = cfg.budget.clone().with_target(t);
            }
            run_lockstep(inst, &nl, &cfg)
        })
        .collect()
}

/// The quality reference for an instance: the true optimum when known,
/// otherwise the best length observed across the supplied runs
/// (surrogate, as documented in EXPERIMENTS.md).
pub fn reference_for(inst: &Instance, observed: impl IntoIterator<Item = i64>) -> Reference {
    if let Some(opt) = inst.known_optimum() {
        Reference::Optimum(opt)
    } else {
        let best = observed.into_iter().min().expect("at least one run");
        Reference::Surrogate(best)
    }
}

/// Mean of a float series.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Mean excess of a set of lengths over a reference.
pub fn mean_excess(reference: &Reference, lengths: &[i64]) -> f64 {
    mean(
        &lengths
            .iter()
            .map(|&l| reference.excess(l))
            .collect::<Vec<_>>(),
    )
}

/// Best-so-far length at an effort point (kicks) from a trace.
pub fn length_at_kicks(trace: &Trace, kicks: u64) -> Option<i64> {
    trace
        .points()
        .iter()
        .take_while(|&&(_, k, _)| k <= kicks)
        .map(|&(_, _, l)| l)
        .last()
}

/// Mean effort (kicks / CLK calls) at which each trace first reached
/// `length`; `None` if any run never reached it.
pub fn mean_kicks_to(traces: &[Trace], length: i64) -> Option<f64> {
    let mut efforts = Vec::with_capacity(traces.len());
    for t in traces {
        efforts.push(t.kicks_to_reach(length)? as f64);
    }
    Some(mean(&efforts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    #[test]
    fn clk_many_distinct_seeds() {
        let inst = generate::uniform(80, 10_000.0, 401);
        let runs = run_clk_many(&inst, KickStrategy::Random, 5, 3, 100, None);
        assert_eq!(runs.len(), 3);
        for r in &runs {
            assert!(r.tour.is_valid());
        }
    }

    #[test]
    fn reference_prefers_known_optimum() {
        let grid = generate::grid_known_optimum(4, 4, 100.0);
        let r = reference_for(&grid, [99999]);
        assert!(matches!(r, Reference::Optimum(1600)));
        let uni = generate::uniform(64, 1000.0, 1);
        let r = reference_for(&uni, [500, 400, 450]);
        assert!(matches!(r, Reference::Surrogate(400)));
    }

    #[test]
    fn length_at_kicks_walks_trace() {
        let mut t = Trace::new();
        t.record(0.0, 0, 100);
        t.record(0.1, 5, 90);
        t.record(0.2, 9, 80);
        assert_eq!(length_at_kicks(&t, 0), Some(100));
        assert_eq!(length_at_kicks(&t, 5), Some(90));
        assert_eq!(length_at_kicks(&t, 7), Some(90));
        assert_eq!(length_at_kicks(&t, 100), Some(80));
    }
}
