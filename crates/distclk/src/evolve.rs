//! Adversarial instance evolution (van Hemert, cs/0502096): breed TSP
//! instances that are *hard for the solver*, not just large.
//!
//! Van Hemert showed that a simple evolutionary loop — mutate city
//! coordinates, keep the variant that makes a fixed-budget solver work
//! hardest — reliably finds instances an order of magnitude harder
//! than uniform random ones of the same size. The service layer's
//! stress suite wants exactly such fixtures: regressions should
//! surface on hard inputs, not friendly grids.
//!
//! This is a deliberately small (1+λ) evolution strategy. Fitness of
//! an instance is the *relative excess* of a fixed-kick Chained-LK run
//! over the instance's Held-Karp lower bound: a solver that, given the
//! same effort, ends up further from the bound is working harder.
//! Using the bound (rather than raw length) normalizes away the
//! coordinate scale, so mutation cannot cheat by inflating distances.
//!
//! Everything is deterministic under a fixed seed — fitness evaluation
//! uses a seeded engine and the mutation RNG is a [`SmallRng`] — so
//! the standing fixture set ([`hard_suite`]) is reproducible across
//! hosts and CI runs.

use heldkarp::{held_karp_bound, AscentConfig};
use lk::{Budget, ChainedLkConfig, ClkEngine};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tsp_core::{Instance, Metric, Point};

/// Configuration of the mini evolver.
#[derive(Debug, Clone)]
pub struct EvolveConfig {
    /// Cities per instance.
    pub cities: usize,
    /// Coordinate square side (positions are uniform in `[0, side)`).
    pub side: f64,
    /// Generations of the (1+λ) loop.
    pub generations: usize,
    /// Offspring per generation (λ).
    pub offspring: usize,
    /// Fixed solve budget (CLK kicks) used by the fitness evaluation.
    pub kicks: u64,
    /// Master seed: drives the initial layout, every mutation, and the
    /// solver seed of every evaluation.
    pub seed: u64,
}

impl Default for EvolveConfig {
    fn default() -> Self {
        EvolveConfig {
            cities: 48,
            side: 1000.0,
            generations: 8,
            offspring: 3,
            kicks: 8,
            seed: 0,
        }
    }
}

/// Fitness: how hard a fixed-budget solve has to work on `inst`,
/// measured as the relative excess of the found tour over the
/// Held-Karp bound (`(len - bound) / bound`). Deterministic in
/// `(inst, kicks, seed)`.
pub fn solve_effort(inst: &Instance, kicks: u64, seed: u64) -> f64 {
    let bound = held_karp_bound(
        inst,
        &AscentConfig {
            max_iterations: 60,
            ..Default::default()
        },
    )
    .bound
    .max(1);
    let cfg = ChainedLkConfig {
        seed,
        ..Default::default()
    };
    let neighbors = cfg.build_neighbors(inst);
    let mut engine = ClkEngine::auto(inst, &neighbors, cfg);
    let result = engine.run(&Budget::kicks(kicks));
    (result.length - bound) as f64 / bound as f64
}

fn random_points(rng: &mut SmallRng, n: usize, side: f64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

fn instance_of(name: String, points: Vec<Point>) -> Instance {
    Instance::new(name, points, Metric::Euc2d)
}

/// Fraction of cities re-positioned per mutation.
const MUTATE_FRAC: f64 = 0.1;

/// Evolve one adversarially hard instance: start uniform, then for
/// each generation spawn [`EvolveConfig::offspring`] mutants (each
/// re-positions `MUTATE_FRAC` of the cities uniformly) and keep the
/// variant maximizing [`solve_effort`] — ties to the parent, so the
/// trajectory is monotone in fitness. Returns the instance and its
/// final fitness.
pub fn evolve_hard(cfg: &EvolveConfig) -> (Instance, f64) {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut points = random_points(&mut rng, cfg.cities, cfg.side);
    let parent = instance_of(format!("evolved-{}-g0", cfg.seed), points.clone());
    let mut fitness = solve_effort(&parent, cfg.kicks, cfg.seed);
    let mut champion = parent;
    let moves = ((cfg.cities as f64 * MUTATE_FRAC).ceil() as usize).max(1);
    for generation in 1..=cfg.generations {
        for _ in 0..cfg.offspring {
            let mut mutant = points.clone();
            for _ in 0..moves {
                let city = rng.gen_range(0..mutant.len());
                mutant[city] =
                    Point::new(rng.gen_range(0.0..cfg.side), rng.gen_range(0.0..cfg.side));
            }
            let candidate = instance_of(
                format!("evolved-{}-g{generation}", cfg.seed),
                mutant.clone(),
            );
            let effort = solve_effort(&candidate, cfg.kicks, cfg.seed);
            if effort > fitness {
                fitness = effort;
                points = mutant;
                champion = candidate;
            }
        }
    }
    (champion, fitness)
}

/// The standing adversarial fixture set: `count` instances evolved
/// from consecutive seeds (`base_seed..base_seed+count`). Used by the
/// service stress test and the `service` bench experiment.
pub fn hard_suite(cfg: &EvolveConfig, base_seed: u64, count: usize) -> Vec<(Instance, f64)> {
    (0..count as u64)
        .map(|i| {
            evolve_hard(&EvolveConfig {
                seed: base_seed + i,
                ..cfg.clone()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> EvolveConfig {
        EvolveConfig {
            cities: 24,
            generations: 3,
            offspring: 2,
            kicks: 4,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (a, fa) = evolve_hard(&small_cfg(7));
        let (b, fb) = evolve_hard(&small_cfg(7));
        assert_eq!(fa, fb);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.point(i).x, b.point(i).x);
            assert_eq!(a.point(i).y, b.point(i).y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = evolve_hard(&small_cfg(1));
        let (b, _) = evolve_hard(&small_cfg(2));
        let same = (0..a.len()).all(|i| a.point(i).x == b.point(i).x);
        assert!(!same, "distinct seeds evolved identical layouts");
    }

    #[test]
    fn evolution_never_loses_fitness() {
        let cfg = small_cfg(3);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let start = instance_of(
            "baseline".into(),
            random_points(&mut rng, cfg.cities, cfg.side),
        );
        let baseline = solve_effort(&start, cfg.kicks, cfg.seed);
        let (_, evolved) = evolve_hard(&cfg);
        // (1+λ) selection keeps the parent on ties: fitness is
        // monotone from the seed layout.
        assert!(
            evolved >= baseline,
            "evolved fitness {evolved} below baseline {baseline}"
        );
    }

    #[test]
    fn hard_suite_is_seeded_and_sized() {
        let suite = hard_suite(&small_cfg(0), 10, 2);
        assert_eq!(suite.len(), 2);
        let again = hard_suite(&small_cfg(0), 10, 2);
        assert_eq!(suite[0].1, again[0].1);
        assert_eq!(suite[1].1, again[1].1);
    }
}
