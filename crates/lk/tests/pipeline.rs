//! lk-crate integration tests: construction → local search → chained
//! kicks as one pipeline, across all generator families.

use lk::construct::{construct, nearest_neighbor};
use lk::lin_kernighan::{lin_kernighan, LinKernighan, LkConfig};
use lk::{Budget, CandidateKind, ChainedLk, ChainedLkConfig, KickStrategy, Optimizer};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use tsp_core::{generate, Instance, Metric, NeighborLists, Point, Tour};

fn families() -> Vec<Instance> {
    vec![
        generate::uniform(200, 100_000.0, 1),
        generate::clustered_dimacs(200, 2),
        generate::drill_plate(200, 3),
        generate::pcb_like(200, 4),
        generate::road_like(200, 5),
        generate::grid_known_optimum(14, 14, 100.0),
    ]
}

/// LK improves every construction on every family, with exact
/// accounting.
#[test]
fn lk_improves_every_construction_on_every_family() {
    for inst in families() {
        let nl = NeighborLists::build(&inst, 8);
        let mut rng = SmallRng::seed_from_u64(7);
        let start = rng.gen_range(0..inst.len());
        let constructions = [
            ("QuickBoruvka", construct(&inst, None, &mut rng).0),
            ("NearestNeighbor", nearest_neighbor(&inst, start)),
            ("Random", Tour::random(inst.len(), &mut rng)),
        ];
        for (which, mut tour) in constructions {
            let before = tour.length(&inst);
            let mut opt = Optimizer::new(&inst, &nl);
            let mut lk = LinKernighan::new(LkConfig::default());
            let gain = lin_kernighan(&mut lk, &mut opt, &mut tour);
            assert!(tour.is_valid(), "{} / {which}", inst.name());
            assert_eq!(
                tour.length(&inst),
                before - gain,
                "{} / {which}: gain accounting broken",
                inst.name()
            );
            assert!(gain >= 0);
        }
    }
}

/// Chained LK's best length is monotone in the kick budget (same
/// seed): more kicks never end worse, because worse trials are
/// rejected.
#[test]
fn clk_monotone_in_kick_budget() {
    let inst = generate::clustered_dimacs(300, 9);
    let nl = NeighborLists::build(&inst, 10);
    let mut prev = i64::MAX;
    for kicks in [0u64, 50, 200, 800] {
        let cfg = ChainedLkConfig {
            seed: 4,
            ..Default::default()
        };
        let mut engine = ChainedLk::new(&inst, &nl, cfg);
        let len = engine.run(&Budget::kicks(kicks)).length;
        assert!(
            len <= prev,
            "budget {kicks}: {len} worse than smaller budget's {prev}"
        );
        prev = len;
    }
}

/// CLK solves a family of grids to optimality within generous kick
/// budgets (the Table 3 mechanism at unit scale).
#[test]
fn clk_solves_grids() {
    for (w, h) in [(6usize, 6usize), (8, 8), (10, 10)] {
        let inst = generate::grid_known_optimum(w, h, 100.0);
        let nl = NeighborLists::build(&inst, 8);
        let opt = inst.known_optimum().unwrap();
        let mut solved = false;
        for seed in 0..3u64 {
            let cfg = ChainedLkConfig {
                seed,
                ..Default::default()
            };
            let mut engine = ChainedLk::new(&inst, &nl, cfg);
            let res = engine.run(&Budget::kicks(4000).with_target(opt));
            if res.length == opt {
                solved = true;
                break;
            }
        }
        assert!(solved, "no seed solved the {w}x{h} grid");
    }
}

/// The four kick strategies all keep the accept/revert contract: the
/// running best never worsens across chained iterations.
#[test]
fn chain_step_never_worsens() {
    let inst = generate::uniform(250, 100_000.0, 10);
    let nl = NeighborLists::build(&inst, 10);
    for strategy in KickStrategy::ALL {
        let cfg = ChainedLkConfig {
            kick: strategy,
            seed: 11,
            ..Default::default()
        };
        let mut engine = ChainedLk::new(&inst, &nl, cfg);
        let mut tour = engine.construct_tour();
        engine.optimize(&mut tour);
        let mut best = tour.length(&inst);
        for _ in 0..40 {
            let new_best = engine.chain_step(&mut tour, best);
            assert!(new_best <= best, "{strategy:?} worsened the best");
            assert_eq!(tour.length(&inst), new_best, "{strategy:?} misreported");
            best = new_best;
        }
    }
}

/// The ascent behind the α lists returns a valid bound on every family:
/// the complete graph's `w(π)` at its potentials, below a CLK tour.
#[test]
fn sparse_ascent_bound_is_valid_on_every_family() {
    for inst in families() {
        let res = heldkarp::sparse_ascent(&inst, &heldkarp::AscentConfig::default());
        let dense = heldkarp::OneTree::build(&inst, &res.pi, 0);
        assert_eq!(res.bound, dense.dual_value(&res.pi), "{}", inst.name());
        let cfg = ChainedLkConfig {
            candidates: lk::CandidateKind::Hybrid,
            ..Default::default()
        };
        let nl = cfg.build_neighbors(&inst);
        let tour = ChainedLk::new(&inst, &nl, cfg).run(&Budget::kicks(100));
        assert!(
            res.bound <= tour.length,
            "{}: bound {} above a tour of {}",
            inst.name(),
            res.bound,
            tour.length
        );
        if let Some(opt) = inst.known_optimum() {
            assert!(res.bound <= opt, "{}: bound above the optimum", inst.name());
        }
    }
}

/// An instance just inside `Instance::check_length_range` — 12 cities
/// at `(a·s, b·s)` with `n × (w + h + 1)` a hair under 2⁶⁰ — solves on
/// k-NN and hybrid candidate lists with every length exact. The test
/// profile keeps overflow checks on, so a sum that wrapped anywhere in
/// the construction, the ascent, the α pass or the search would panic
/// here instead of returning a wrong length.
#[test]
fn instance_just_under_the_length_limit_solves_without_overflow() {
    let s = 1.9e16;
    let pts: Vec<Point> = (0..12)
        .map(|i| Point::new((i % 4) as f64 * s, (i / 4) as f64 * s))
        .collect();
    let inst = Instance::new("near-limit", pts, Metric::Euc2d);
    inst.check_length_range().expect("inside the limit");
    let scale = 12.0 * (5.0 * s + 1.0);
    assert!(scale > 0.98 * tsp_core::instance::MAX_LENGTH_SCALE);
    for kind in [CandidateKind::Knn, CandidateKind::Hybrid] {
        let nl = kind.build(&inst, 8);
        let cfg = ChainedLkConfig {
            seed: 3,
            ..Default::default()
        };
        let res = ChainedLk::new(&inst, &nl, cfg).run(&Budget::kicks(50));
        assert!(res.tour.is_valid(), "{kind:?}");
        assert!(res.length > 0, "{kind:?}: length {}", res.length);
        assert_eq!(res.length, res.tour.length(&inst), "{kind:?}");
    }
}
