//! Multilevel Chained Lin-Kernighan (Walshaw 2000/2002).
//!
//! Stand-in for Walshaw's `MLC_N LK` in the paper's Table 2: the
//! instance is recursively *coarsened* by matching each city with its
//! nearest unmatched neighbor and merging the pair into their midpoint;
//! the coarsest instance is solved with CLK; then each level is
//! *uncoarsened* (merged nodes expand back into their two children,
//! inserted adjacently with the cheaper orientation) and refined with a
//! kick-limited CLK. Walshaw's headline: slightly better tours than
//! plain CLK, several times faster to a given quality.

use lk::{Budget, ChainedLk, ChainedLkConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tsp_core::kdtree::KdTree;
use tsp_core::{Instance, NeighborLists, Point, Tour};

/// Configuration of the multilevel scheme.
#[derive(Debug, Clone, Default)]
pub struct MultilevelConfig {
    /// Underlying CLK configuration.
    pub clk: ChainedLkConfig,
}

/// One coarsening level: the coarse instance plus, per coarse node, its
/// one or two constituent fine nodes.
struct Level {
    inst: Instance,
    groups: Vec<(u32, Option<u32>)>,
}

/// Match nearest unmatched pairs and merge to midpoints.
fn coarsen(inst: &Instance, rng: &mut SmallRng) -> Level {
    let n = inst.len();
    let tree = KdTree::build(inst);
    let mut matched = vec![false; n];
    let mut groups: Vec<(u32, Option<u32>)> = Vec::with_capacity(n / 2 + 1);
    // Random sweep order avoids systematic matching bias.
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for &v in &order {
        let v = v as usize;
        if matched[v] {
            continue;
        }
        matched[v] = true;
        let mate = tree.nearest_filtered(inst.point(v), |c| matched[c] || c == v);
        match mate {
            Some(m) => {
                matched[m] = true;
                groups.push((v as u32, Some(m as u32)));
            }
            None => groups.push((v as u32, None)),
        }
    }
    let pts: Vec<Point> = groups
        .iter()
        .map(|&(a, b)| {
            let pa = inst.point(a as usize);
            match b {
                Some(b) => {
                    let pb = inst.point(b as usize);
                    Point::new((pa.x + pb.x) / 2.0, (pa.y + pb.y) / 2.0)
                }
                None => pa,
            }
        })
        .collect();
    let coarse = Instance::new(
        format!("{}-c{}", inst.name(), groups.len()),
        pts,
        inst.metric().clone(),
    );
    Level {
        inst: coarse,
        groups,
    }
}

/// Expand a coarse tour one level: merged nodes become their two
/// children in the orientation that connects more cheaply to the
/// already-expanded prefix.
fn uncoarsen_tour(fine: &Instance, level: &Level, coarse_tour: &Tour) -> Tour {
    let mut order: Vec<u32> = Vec::with_capacity(fine.len());
    for p in 0..coarse_tour.len() {
        let cnode = coarse_tour.city_at(p);
        let (a, b) = level.groups[cnode];
        match b {
            None => order.push(a),
            Some(b) => {
                if let Some(&prev) = order.last() {
                    let da = fine.dist(prev as usize, a as usize);
                    let db = fine.dist(prev as usize, b as usize);
                    if da <= db {
                        order.push(a);
                        order.push(b);
                    } else {
                        order.push(b);
                        order.push(a);
                    }
                } else {
                    order.push(a);
                    order.push(b);
                }
            }
        }
    }
    Tour::from_order(order)
}

/// Result of a multilevel run.
#[derive(Debug, Clone)]
pub struct MultilevelResult {
    /// Final refined tour on the original instance.
    pub tour: Tour,
    /// Its length.
    pub length: i64,
    /// Number of levels (including the original).
    pub levels: usize,
    /// Total wall time.
    pub seconds: f64,
}

/// Stop coarsening at or below this many cities.
const COARSEST_SIZE: usize = 32;

/// Cities per kick during each refinement (Walshaw's `N/10` rule).
const CITIES_PER_KICK: u64 = 10;

/// Run multilevel CLK on `inst`.
pub fn multilevel_clk(inst: &Instance, cfg: &MultilevelConfig, seed: u64) -> MultilevelResult {
    let start = std::time::Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed);

    // Build the level hierarchy, finest first.
    let mut levels: Vec<Level> = Vec::new();
    loop {
        let cur: &Instance = levels.last().map(|l| &l.inst).unwrap_or(inst);
        if cur.len() <= COARSEST_SIZE {
            break;
        }
        let lvl = coarsen(cur, &mut rng);
        if lvl.inst.len() >= cur.len() {
            break; // no progress (degenerate data)
        }
        levels.push(lvl);
    }

    // Solve the coarsest instance outright.
    let coarsest: &Instance = levels.last().map(|l| &l.inst).unwrap_or(inst);
    let nl = NeighborLists::build(coarsest, cfg.clk.neighbor_k.min(coarsest.len() - 1));
    let mut clk_cfg = cfg.clk.clone();
    clk_cfg.seed = rng.gen();
    let mut engine = ChainedLk::new(coarsest, &nl, clk_cfg);
    let kicks = coarsest.len() as u64 / CITIES_PER_KICK + 10;
    let mut tour = engine.run(&Budget::kicks(kicks)).tour;

    // Uncoarsen + refine level by level.
    for i in (0..levels.len()).rev() {
        let fine: &Instance = if i == 0 { inst } else { &levels[i - 1].inst };
        tour = uncoarsen_tour(fine, &levels[i], &tour);
        let nl = NeighborLists::build(fine, cfg.clk.neighbor_k.min(fine.len() - 1));
        let mut clk_cfg = cfg.clk.clone();
        clk_cfg.seed = rng.gen();
        let mut engine = ChainedLk::new(fine, &nl, clk_cfg);
        engine.optimize(&mut tour);
        let kicks = fine.len() as u64 / CITIES_PER_KICK;
        let mut best = tour.length(fine);
        for _ in 0..kicks {
            best = engine.chain_step(&mut tour, best);
        }
    }

    let length = tour.length(inst);
    MultilevelResult {
        tour,
        length,
        levels: levels.len() + 1,
        seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    #[test]
    fn coarsening_halves_roughly() {
        let inst = generate::uniform(200, 10_000.0, 91);
        let mut rng = SmallRng::seed_from_u64(1);
        let lvl = coarsen(&inst, &mut rng);
        assert!(lvl.inst.len() <= 101 && lvl.inst.len() >= 100);
        // Every fine node appears in exactly one group.
        let mut seen = [false; 200];
        for &(a, b) in &lvl.groups {
            assert!(!seen[a as usize]);
            seen[a as usize] = true;
            if let Some(b) = b {
                assert!(!seen[b as usize]);
                seen[b as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uncoarsening_produces_valid_tours() {
        let inst = generate::uniform(120, 10_000.0, 92);
        let mut rng = SmallRng::seed_from_u64(2);
        let lvl = coarsen(&inst, &mut rng);
        let coarse_tour = Tour::identity(lvl.inst.len());
        let fine_tour = uncoarsen_tour(&inst, &lvl, &coarse_tour);
        assert!(fine_tour.is_valid());
        assert_eq!(fine_tour.len(), 120);
    }

    #[test]
    fn end_to_end_beats_construction() {
        let inst = generate::uniform(300, 10_000.0, 93);
        let res = multilevel_clk(&inst, &MultilevelConfig::default(), 7);
        assert!(res.tour.is_valid());
        assert_eq!(res.tour.length(&inst), res.length);
        assert!(res.levels >= 3);
        let qb = lk::construct::quick_boruvka(&inst, None).0.length(&inst);
        assert!(
            res.length < qb,
            "multilevel {} not better than QB {}",
            res.length,
            qb
        );
    }

    #[test]
    fn solves_small_grid_well() {
        let inst = generate::grid_known_optimum(8, 8, 100.0);
        let res = multilevel_clk(&inst, &MultilevelConfig::default(), 3);
        let opt = inst.known_optimum().unwrap();
        assert!(
            (res.length as f64) <= 1.05 * opt as f64,
            "multilevel got {} vs optimum {}",
            res.length,
            opt
        );
    }
}
