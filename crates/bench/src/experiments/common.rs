//! Shared machinery for the experiment drivers.

use distclk::{run_lockstep, DistConfig, DistResult};
use lk::{Budget, ChainedLk, ChainedLkConfig, ClkResult, KickStrategy, Trace};
use p2p::Topology;
use tsp_core::{Instance, NeighborLists};

use crate::report::{fmt_excess, Report};
use crate::testbed::{small_testbed, Reference, Scale};

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

/// Mean best length of distributed runs.
pub fn mean_best(runs: &[DistResult]) -> f64 {
    mean(
        &runs
            .iter()
            .map(|r| r.best_length as f64)
            .collect::<Vec<_>>(),
    )
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

/// Attach a best-so-far trace to `report` as the CSV series `name`, one
/// `secs,kicks,length` row per improvement.
pub fn trace_series(report: &mut Report, name: String, trace: &Trace) {
    let rows = trace
        .points()
        .iter()
        .map(|&(s, k, l)| format!("{s},{k},{l}"))
        .collect();
    report.series(name, "secs,kicks,length", rows);
}

/// A table header: the `lead` columns, then one column per kick strategy
/// of [`KickStrategy::ALL`] and suffix (`Random short`, `Random long`, …).
pub fn strategy_header(lead: &[&str], suffixes: [&str; 2]) -> Vec<String> {
    let per_strategy = KickStrategy::ALL
        .iter()
        .flat_map(|k| suffixes.map(|s| format!("{} {s}", k.name())));
    lead.iter()
        .map(|s| s.to_string())
        .chain(per_strategy)
        .collect()
}

/// Mean excess per small-testbed instance and kick strategy after a
/// short and a long budget, as a table and the CSV series `excess`.
/// `run(inst, i, strategy)` returns the short and the long lengths of
/// strategy `i` of [`KickStrategy::ALL`]; `pool(short, long)` returns
/// the lengths among them that the instance's reference is drawn from.
pub fn short_long_excess(
    report: &mut Report,
    scale: &Scale,
    run: impl Fn(&Instance, u64, KickStrategy) -> (Vec<i64>, Vec<i64>),
    pool: impl Fn(&[i64], &[i64]) -> Vec<i64>,
) {
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for t in &small_testbed(scale) {
        let per_strategy: Vec<_> = (0..)
            .zip(KickStrategy::ALL)
            .map(|(i, strategy)| (strategy, run(&t.inst, i, strategy)))
            .collect();
        let observed = per_strategy.iter().flat_map(|(_, (s, l))| pool(s, l));
        let reference = reference_for(&t.inst, observed);
        let mut row = vec![t.paper_name.to_string()];
        for (strategy, (short, long)) in &per_strategy {
            let es = mean_excess(&reference, short);
            let el = mean_excess(&reference, long);
            row.extend([fmt_excess(es), fmt_excess(el)]);
            csv.push(format!(
                "{},{},{es:.6},{el:.6},{}",
                t.paper_name,
                strategy.name(),
                reference.label()
            ));
        }
        rows.push(row);
    }
    report.table(&strategy_header(&["Instance"], ["short", "long"]), &rows);
    report.series(
        "excess",
        "instance,strategy,short_excess,long_excess,reference",
        csv,
    );
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
