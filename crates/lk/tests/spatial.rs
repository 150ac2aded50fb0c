//! The search on spatial labels takes every decision the search on the
//! caller's labels takes.
//!
//! `tl_threshold: 0` sends every geometric instance through
//! `ClkEngine::auto`'s spatial path (the array tour over Hilbert-ordered
//! cities), so small instances exercise it. Each case runs the same seed
//! on the caller-label array, the caller-label two-level list and the
//! spatial array, and demands the same tour order, length, kicks, trace
//! points, `clk.step.flips` and exact work counters (`clk.pass.flips`
//! among them, and construction's k-d tree searches and row answers)
//! from all three. The spatial array runs its full passes
//! and its kick loop on as many lanes as there are cores (up to the
//! engine's limit), the other two on one, so the counters are also held
//! equal across lane counts.

use distclk::{run_lockstep, DistConfig};
use lk::{
    shard_solve, Budget, CandidateKind, ChainedLkConfig, ClkEngine, KickStrategy, ShardConfig,
};
use obs::{kinds, Obs};
use rand::{rngs::SmallRng, SeedableRng};
use tsp_core::{generate, Instance, Metric, NeighborLists, Point, Tour};

/// Everything a run decides, minus wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    order: Vec<u32>,
    length: i64,
    kicks: u64,
    trace: Vec<(u64, i64)>,
    flips: u64,
    work: [u64; 6],
    construct: [u64; 2],
}

/// The flip total and the six exact work counters an engine's obs
/// handle has seen.
fn counts(obs: &Obs) -> (u64, [u64; 6]) {
    let snap = obs.snapshot();
    let flips = obs.histogram("clk.step.flips").snapshot().sum;
    let work = [
        kinds::C_LK_ANCHORS,
        kinds::C_LK_PROBES,
        kinds::C_LK_STEPS,
        kinds::C_OROPT_PROBES,
        kinds::C_FLIPS,
        kinds::C_PASS_FLIPS,
    ]
    .map(|name| snap.counter(name));
    (flips, work)
}

/// Construction's k-d tree searches and row answers.
fn construct_counts(obs: &Obs) -> [u64; 2] {
    let snap = obs.snapshot();
    [
        kinds::C_CONSTRUCT_TREE_SEARCHES,
        kinds::C_CONSTRUCT_ROW_ANSWERS,
    ]
    .map(|name| snap.counter(name))
}

/// The three engines: spatial (through `auto` at threshold 0), array,
/// two-level. The label names the one that diverged.
fn engines<'a>(
    inst: &'a Instance,
    nl: &'a NeighborLists,
    cfg: &ChainedLkConfig,
) -> [(&'static str, ClkEngine<'a>); 3] {
    let spatial = ChainedLkConfig {
        tl_threshold: 0,
        ..cfg.clone()
    };
    let auto = ClkEngine::auto(inst, nl, spatial);
    assert_eq!(auto.representation(), "spatial");
    [
        ("spatial", auto),
        (
            "array",
            ClkEngine::with_representation(inst, nl, cfg.clone(), false),
        ),
        (
            "twolevel",
            ClkEngine::with_representation(inst, nl, cfg.clone(), true),
        ),
    ]
}

fn run(mut engine: ClkEngine<'_>, kicks: u64) -> Outcome {
    let obs = Obs::for_node(0);
    engine.attach_obs(obs.clone());
    let res = engine.run(&Budget::kicks(kicks));
    assert_eq!(res.tour.length(engine.instance()), res.length);
    let (flips, work) = counts(&obs);
    Outcome {
        order: res.tour.order().to_vec(),
        length: res.length,
        kicks: res.kicks,
        trace: res.trace.points().iter().map(|&(_, k, l)| (k, l)).collect(),
        flips,
        work,
        construct: construct_counts(&obs),
    }
}

/// Run `cfg` on all three engines and demand one outcome.
fn assert_runs_agree(inst: &Instance, nl: &NeighborLists, cfg: &ChainedLkConfig, kicks: u64) {
    let outcomes = engines(inst, nl, cfg).map(|(name, e)| (name, run(e, kicks)));
    let want = &outcomes[1].1;
    assert!(
        want.work.iter().all(|&w| w > 0),
        "nothing counted: {:?}",
        want.work
    );
    for (name, got) in &outcomes {
        assert_eq!(
            got,
            want,
            "{name} diverged: {} n={} {:?} {:?} seed {}",
            inst.name(),
            inst.len(),
            cfg.candidates,
            cfg.kick,
            cfg.seed
        );
    }
}

fn cfg(candidates: CandidateKind, kick: KickStrategy, seed: u64) -> ChainedLkConfig {
    ChainedLkConfig {
        candidates,
        kick,
        seed,
        ..Default::default()
    }
}

#[test]
fn spatial_runs_equal_both_caller_label_representations() {
    for (n, kicks) in [(301, 40), (2000, 12)] {
        let inst = generate::uniform(n, 1e6, 4242 + n as u64);
        for kind in [
            CandidateKind::Knn,
            CandidateKind::Alpha,
            CandidateKind::Hybrid,
        ] {
            let nl = cfg(kind, KickStrategy::Random, 0).build_neighbors(&inst);
            for strategy in KickStrategy::ALL {
                for seed in 1..=3 {
                    assert_runs_agree(&inst, &nl, &cfg(kind, strategy, seed), kicks);
                }
            }
        }
    }
}

/// Distance ties (a grid), Hilbert-key ties (every point twice) and a
/// `GEO` instance, whose coordinates are degrees and minutes.
#[test]
fn spatial_runs_agree_on_ties_and_geo() {
    let grid = generate::grid_known_optimum(16, 14, 100.0);
    let base = generate::uniform(150, 1e4, 9);
    let twice: Vec<Point> = base.points().iter().chain(base.points()).copied().collect();
    let dups = Instance::new("dups", twice, Metric::Euc2d);
    let geo_points = generate::uniform(400, 1.0, 10)
        .points()
        .iter()
        .map(|p| Point::new(35.0 + 20.0 * p.x, -10.0 + 40.0 * p.y))
        .collect();
    let geo = Instance::new("geo", geo_points, Metric::Geo);
    for inst in [&grid, &dups, &geo] {
        let nl = NeighborLists::build(inst, 8);
        for strategy in KickStrategy::ALL {
            for seed in 1..=3 {
                assert_runs_agree(inst, &nl, &cfg(CandidateKind::Knn, strategy, seed), 40);
            }
        }
    }
}

/// Construction's query counts are exact: equal on every engine and on
/// a second run. k-NN rows answer most queries; hybrid rows, which are
/// not the nearest cities, answer none, so every query is a tree search
/// there, and the k-NN run asks exactly as many queries.
#[test]
fn construction_query_counts_are_exact() {
    let inst = generate::uniform(2000, 1e6, 77);
    let [knn, hybrid] = [CandidateKind::Knn, CandidateKind::Hybrid].map(|kind| {
        let c = cfg(kind, KickStrategy::RandomWalk(50), 5);
        let nl = c.build_neighbors(&inst);
        let runs: Vec<[u64; 2]> = (0..2)
            .flat_map(|_| engines(&inst, &nl, &c))
            .map(|(_, e)| run(e, 2).construct)
            .collect();
        assert!(runs.iter().all(|r| *r == runs[0]), "{kind:?}: {runs:?}");
        runs[0]
    });
    let ([tree, rows], [all, none]) = (knn, hybrid);
    assert!(rows > 9 * tree && tree > 0, "k-NN: {knn:?}");
    assert_eq!(none, 0, "hybrid: {hybrid:?}");
    assert_eq!(tree + rows, all, "k-NN {knn:?}, hybrid {hybrid:?}");
}

/// `clk_call` and `optimize_tour` from a tour the caller perturbated.
#[test]
fn clk_call_and_optimize_tour_agree_on_a_perturbed_tour() {
    let inst = generate::clustered_dimacs(1200, 5);
    for kind in [CandidateKind::Knn, CandidateKind::Hybrid] {
        let c = cfg(kind, KickStrategy::RandomWalk(50), 17);
        let nl = c.build_neighbors(&inst);
        let mut start = lk::construct::quick_boruvka(&inst, None).0;
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            start.random_double_bridge(&mut rng);
        }
        let mut calls = Vec::new();
        let mut optimized = Vec::new();
        for (name, mut engine) in engines(&inst, &nl, &c) {
            let obs = Obs::for_node(0);
            engine.attach_obs(obs.clone());
            let mut tour = start.clone();
            let len = engine.clk_call(&mut tour, 30, &mut |_| false);
            assert_eq!(tour.length(&inst), len, "{name}");
            calls.push((len, tour.order().to_vec(), counts(&obs)));

            let mut tour = start.clone();
            let len = engine.optimize_tour(&mut tour);
            assert_eq!(tour.length(&inst), len, "{name}");
            optimized.push((len, tour));
        }
        assert!(calls.iter().all(|c| *c == calls[0]), "{kind:?} clk_call");
        // Both arrays leave every city at the same position; the
        // two-level list returns the same cycle from another start.
        assert_eq!(optimized[0], optimized[1], "{kind:?} optimize_tour");
        let cycles: Vec<_> = optimized
            .iter()
            .map(|(len, t)| (*len, canonical(t)))
            .collect();
        assert!(
            cycles.iter().all(|c| *c == cycles[0]),
            "{kind:?} optimize_tour"
        );
    }
}

fn canonical(tour: &Tour) -> Vec<u32> {
    tsp_core::TourOps::to_order(tour)
}

#[test]
fn lockstep_run_is_unchanged_on_spatial_labels() {
    let inst = generate::drill_plate(600, 11);
    let clk = ChainedLkConfig {
        candidates: CandidateKind::Hybrid,
        ..Default::default()
    };
    let nl = clk.build_neighbors(&inst);
    let run = |tl_threshold| {
        let cfg = DistConfig {
            nodes: 8,
            clk: ChainedLkConfig {
                tl_threshold,
                ..clk.clone()
            },
            budget: Budget::kicks(4),
            ..Default::default()
        };
        let res = run_lockstep(&inst, &nl, &cfg);
        (res.best_length, res.best_tour, res.messages)
    };
    assert_eq!(run(0), run(usize::MAX));
}

/// A matrix instance at threshold 0 runs on the two-level list: its
/// nodes must perturb and exchange exactly the tours the array's do,
/// which holds only if every tour leaves the engine in the canonical
/// rotation (`ClkEngine::optimize_tour` included).
#[test]
fn lockstep_run_on_a_matrix_is_the_same_on_both_representations() {
    let plate = generate::drill_plate(300, 14);
    let n = plate.len();
    let matrix = (0..n * n).map(|i| plate.dist(i / n, i % n)).collect();
    let inst = Instance::explicit("plate300-matrix", matrix, n);
    let clk = ChainedLkConfig::default();
    let nl = clk.build_neighbors(&inst);
    let run = |tl_threshold| {
        let clk = ChainedLkConfig {
            tl_threshold,
            ..clk.clone()
        };
        assert_eq!(
            ClkEngine::auto(&inst, &nl, clk.clone()).representation(),
            if tl_threshold == 0 {
                "twolevel"
            } else {
                "array"
            }
        );
        let cfg = DistConfig {
            nodes: 8,
            clk,
            budget: Budget::kicks(4),
            ..Default::default()
        };
        let res = run_lockstep(&inst, &nl, &cfg);
        (res.best_length, canonical(&res.best_tour), res.messages)
    };
    assert_eq!(run(0), run(usize::MAX));
}

#[test]
fn shard_solve_is_unchanged_on_spatial_labels() {
    let inst = generate::uniform(6000, 1e6, 12);
    for shards in [1, 4] {
        let run = |tl_threshold| {
            let mut cfg = ShardConfig {
                shards,
                kicks_per_shard: 30,
                ..Default::default()
            };
            cfg.clk.tl_threshold = tl_threshold;
            let res = shard_solve(&inst, &cfg);
            (res.length, res.tour)
        };
        assert_eq!(run(0), run(usize::MAX), "shards = {shards}");
    }
}

/// The counters count work, not wall time: a second run reads the same.
#[test]
fn work_counters_repeat_across_runs() {
    let inst = generate::uniform(800, 1e6, 13);
    let c = cfg(CandidateKind::Knn, KickStrategy::RandomWalk(50), 5);
    let nl = c.build_neighbors(&inst);
    let twice: Vec<_> = (0..2)
        .map(|_| {
            let [(_, spatial), _, _] = engines(&inst, &nl, &c);
            run(spatial, 50).work
        })
        .collect();
    assert_eq!(twice[0], twice[1]);
}
