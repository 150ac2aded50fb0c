//! LKH-lite: Lin-Kernighan steered by α-nearness candidate lists.
//!
//! Stand-in for Helsgaun's LKH in the paper's Table 2 comparison. Like
//! LKH it (a) builds candidate lists from Held-Karp 1-trees (α-nearness)
//! rather than geometric distance, (b) searches deeper chains with wider
//! backtracking, and (c) trades much longer running time for better
//! final tours — exactly the profile the paper compares against
//! ("LKH is known for good tour qualities, but requires long running
//! times", §4.3).

use heldkarp::{alpha_candidate_lists, AscentConfig};
use lk::{Budget, ChainedLk, ChainedLkConfig, ClkResult, KickStrategy, LkConfig};
use tsp_core::{Instance, NeighborLists};

/// Configuration for LKH-lite.
#[derive(Debug, Clone)]
pub struct LkhLiteConfig {
    /// Held-Karp ascent effort.
    pub ascent: AscentConfig,
    /// Chain depth / breadth (deeper & wider than plain CLK).
    pub lk: LkConfig,
    /// Number of kicked restarts ("trials" in LKH terms).
    pub trials: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LkhLiteConfig {
    fn default() -> Self {
        LkhLiteConfig {
            ascent: AscentConfig::default(),
            lk: LkConfig {
                max_depth: 64,
                breadth: vec![8, 6, 4, 2],
            },
            trials: 100,
            seed: 0,
        }
    }
}

/// Result of an LKH-lite run, including the α-list preprocessing time.
#[derive(Debug, Clone)]
pub struct LkhLiteResult {
    /// The underlying chained-search result.
    pub clk: ClkResult,
    /// Seconds spent on the Held-Karp ascent + α lists.
    pub preprocess_seconds: f64,
}

/// α-candidate list width (LKH's default is 5).
const ALPHA_K: usize = 6;

/// Build the α-nearness lists for an instance (exposed for reuse).
pub fn alpha_lists(inst: &Instance, cfg: &LkhLiteConfig) -> NeighborLists {
    alpha_candidate_lists(inst, ALPHA_K, &cfg.ascent)
}

/// Run LKH-lite under a budget (the budget applies to the search phase;
/// preprocessing is reported separately, as the DIMACS normalization
/// does).
pub fn lkh_lite(inst: &Instance, cfg: &LkhLiteConfig, budget: &Budget) -> LkhLiteResult {
    let pre = std::time::Instant::now();
    let neighbors = alpha_lists(inst, cfg);
    let preprocess_seconds = pre.elapsed().as_secs_f64();

    let clk_cfg = ChainedLkConfig {
        kick: KickStrategy::RandomWalk(50),
        lk: cfg.lk.clone(),
        neighbor_k: ALPHA_K,
        seed: cfg.seed,
        ..Default::default()
    };
    let mut engine = ChainedLk::new(inst, &neighbors, clk_cfg);
    let budget = if budget.max_kicks.is_none() && budget.time_limit.is_none() {
        budget.clone().with_max_kicks(cfg.trials)
    } else {
        budget.clone()
    };
    let clk = engine.run(&budget);
    LkhLiteResult {
        clk,
        preprocess_seconds,
    }
}

/// Compare-style helper: returns the final tour quality of LKH-lite.
pub fn final_length(inst: &Instance, cfg: &LkhLiteConfig, budget: &Budget) -> i64 {
    lkh_lite(inst, cfg, budget).clk.length
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    #[test]
    fn produces_valid_good_tours() {
        let inst = generate::uniform(100, 10_000.0, 81);
        let cfg = LkhLiteConfig {
            trials: 20,
            ascent: AscentConfig {
                max_iterations: 40,
                ..Default::default()
            },
            ..Default::default()
        };
        let res = lkh_lite(&inst, &cfg, &Budget::kicks(20));
        assert!(res.clk.tour.is_valid());
        assert_eq!(res.clk.tour.length(&inst), res.clk.length);
        assert!(res.preprocess_seconds >= 0.0);
    }

    #[test]
    fn solves_grid_like_clk_does() {
        let inst = generate::grid_known_optimum(6, 6, 100.0);
        let cfg = LkhLiteConfig {
            ascent: AscentConfig {
                max_iterations: 60,
                ..Default::default()
            },
            seed: 2,
            ..Default::default()
        };
        let budget = Budget::kicks(1500).with_target(inst.known_optimum().unwrap());
        let res = lkh_lite(&inst, &cfg, &budget);
        assert_eq!(res.clk.length, inst.known_optimum().unwrap());
    }

    #[test]
    fn alpha_lists_differ_from_geometric() {
        // On clustered data the α ordering re-ranks candidates for at
        // least some cities (bridging edges get low α despite length).
        let inst = generate::clustered(80, 100_000.0, 4, 2_000.0, 3);
        let cfg = LkhLiteConfig {
            ascent: AscentConfig {
                max_iterations: 50,
                ..Default::default()
            },
            ..Default::default()
        };
        let alpha = alpha_lists(&inst, &cfg);
        let geo = NeighborLists::build(&inst, ALPHA_K);
        let mut differs = false;
        for c in 0..inst.len() {
            if alpha.of(c) != geo.of(c) {
                differs = true;
                break;
            }
        }
        assert!(differs, "α lists identical to geometric lists");
    }
}
