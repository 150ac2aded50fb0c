//! Subgradient ascent on the Held-Karp Lagrangian dual.
//!
//! Maximizes `w(π) = len(T_π) − 2·Σπ` where `T_π` is the minimum 1-tree
//! under costs `d(i,j) + π_i + π_j`. The subgradient at π is
//! `(deg_v − 2)_v`; the classic schedule increases π on high-degree
//! nodes and decreases it on leaves, with a step size halved every
//! period (Held & Karp 1971; the integer-π variant follows Helsgaun's
//! LKH ascent).
//!
//! Potentials are plain `i64` like the distances, so every bound value
//! is exact.
//!
//! There is one loop, [`ascend`], over a 1-tree oracle. Its first tree
//! (π = 0) and its last (at the best π found) are always minimum 1-trees
//! of the **complete** graph: the last one must be, because only a
//! minimum over *all* 1-trees makes `w(π)` a lower bound on every tour,
//! and it is the tree the α pass measures edges against. The trees in
//! between only supply a subgradient. [`held_karp_bound`] takes them
//! from the complete graph too, at O(n²) each; [`sparse_ascent`] takes
//! them from a sparse graph at O(n·K·log n) each (LKH likewise leaves
//! the dense graph after its first trees), which moves π as far for a
//! fraction of the cost — what the α candidate lists are built on.

use tsp_core::{Instance, NeighborLists};

use crate::alpha::alpha_nearest;
use crate::mst::SparseGraph;
use crate::onetree::{Complete, OneTree, Sparse};

/// Tuning knobs for the ascent.
#[derive(Debug, Clone)]
pub struct AscentConfig {
    /// Maximum number of 1-tree constructions.
    pub max_iterations: usize,
    /// Special node for the 1-trees.
    pub special: usize,
}

impl Default for AscentConfig {
    fn default() -> Self {
        AscentConfig {
            max_iterations: 200,
            special: 0,
        }
    }
}

/// Outcome of the ascent.
#[derive(Debug, Clone)]
pub struct AscentResult {
    /// `w(π)` of the complete graph at the best potentials found — a
    /// valid lower bound on the optimal tour length.
    pub bound: i64,
    /// Potentials achieving the bound.
    pub pi: Vec<i64>,
    /// The minimum 1-tree of the complete graph at those potentials.
    pub one_tree: OneTree,
    /// Number of 1-trees the subgradient loop built (the closing tree
    /// at `pi` is not counted).
    pub iterations: usize,
    /// True when a 1-tree became a tour of length `bound` (the bound is
    /// optimal).
    pub tight: bool,
}

/// Run subgradient ascent on the complete graph, returning the best
/// lower bound found. Every iteration is one O(n²) Prim.
///
/// ```
/// use tsp_core::generate;
/// use heldkarp::{held_karp_bound, AscentConfig};
///
/// let inst = generate::grid_known_optimum(6, 6, 100.0);
/// let res = held_karp_bound(&inst, &AscentConfig::default());
/// assert!(res.bound <= inst.known_optimum().unwrap());
/// ```
pub fn held_karp_bound(inst: &Instance, cfg: &AscentConfig) -> AscentResult {
    let mut complete = Complete::new(inst, cfg.special);
    let first = complete.build(&vec![0; inst.len()]);
    ascend(inst, cfg, first, |pi, t| complete.one_tree(pi, t))
}

/// Nearest and α-nearest neighbours per city in [`sparse_ascent`]'s
/// graph. Ten of each is as far down as the reached bound stays level
/// across the generator families (EXPERIMENTS.md, "Sparse ascent").
const SPARSE_DEGREE: usize = 10;

/// The ascent behind the α candidate lists: the iterations between the
/// first and the last 1-tree run on a sparse graph instead of the
/// complete one. `bound` is the complete graph's `w(π)` at the
/// potentials reached, so it is a valid lower bound; at equal
/// iterations it lands within a few per cent of [`held_karp_bound`]'s,
/// on either side.
///
/// The graph is, per city, its [`SPARSE_DEGREE`] nearest neighbours
/// (the edges small π keep cheap), its as many α-nearest ones at π = 0
/// (the edges that all but made it into the first tree, which are the
/// ones a shifted tree swaps in — between clusters nothing else offers
/// them; LKH picks its ascent candidates the same way) and the first
/// tree's own edges, which keep it connected on any geometry.
pub fn sparse_ascent(inst: &Instance, cfg: &AscentConfig) -> AscentResult {
    let first = OneTree::build(inst, &vec![0; inst.len()], cfg.special);
    let mut sparse = Sparse::new(sparse_graph(inst, &first));
    ascend(inst, cfg, first, |pi, t| sparse.one_tree(pi, t))
}

/// [`sparse_ascent`]'s graph around `first`, the minimum 1-tree at π = 0.
fn sparse_graph(inst: &Instance, first: &OneTree) -> SparseGraph {
    let n = inst.len();
    let degree = SPARSE_DEGREE.min(n - 1);
    let near = NeighborLists::build(inst, degree);
    let alpha_near = alpha_nearest(inst, &vec![0; n], first, degree);
    let tree_edges = first.edges();
    SparseGraph::from_edges(inst, || {
        (0..n)
            .flat_map(|v| {
                let row = near
                    .of(v)
                    .iter()
                    .chain(&alpha_near[v * degree..(v + 1) * degree]);
                row.map(move |&u| (v, u as usize))
            })
            .chain(tree_edges.iter().copied())
    })
}

/// Non-improving iterations before the step halves.
const PERIOD: usize = 20;

/// The subgradient loop. `t` is the complete graph's minimum 1-tree at
/// π = 0; `next_tree` rebuilds it for new potentials.
fn ascend(
    inst: &Instance,
    cfg: &AscentConfig,
    mut t: OneTree,
    mut next_tree: impl FnMut(&[i64], &mut OneTree),
) -> AscentResult {
    let n = inst.len();
    let mut pi = vec![0i64; n];
    let mut best_w = t.dual_value(&pi);
    let mut best_pi = pi.clone();
    let mut iterations = 1;
    let mut on_tour = t.is_tour();

    // The initial step comes from the first 1-tree.
    let mut step = (best_w / (2 * n as i64)).max(1);
    let mut since_improve = 0usize;
    // Previous subgradient for the momentum term (Helsgaun's 0.7/0.3 mix
    // stabilizes zig-zagging; we use integer halves).
    let mut prev_grad: Vec<i64> = vec![0; n];

    while !on_tour && iterations < cfg.max_iterations && step > 0 {
        // Subgradient with momentum.
        let mut moved = false;
        for v in 0..n {
            let g = t.degree[v] as i64 - 2;
            let delta = step * g + (step * prev_grad[v]) / 2;
            if delta != 0 {
                pi[v] += delta;
                moved = true;
            }
            prev_grad[v] = g;
        }
        if !moved {
            break;
        }
        next_tree(&pi, &mut t);
        iterations += 1;
        let w = t.dual_value(&pi);
        if w > best_w {
            best_w = w;
            best_pi.copy_from_slice(&pi);
            since_improve = 0;
        } else {
            since_improve += 1;
        }
        on_tour = t.is_tour();
        if since_improve >= PERIOD {
            step /= 2;
            since_improve = 0;
        }
    }

    // Only the best π was kept; its tree is a deterministic function of
    // it. On a sparse oracle `best_w` is a minimum over too few trees,
    // so the bound has to come from this one.
    let one_tree = OneTree::build(inst, &best_pi, cfg.special);
    let bound = one_tree.dual_value(&best_pi);
    AscentResult {
        bound,
        pi: best_pi,
        one_tree,
        iterations,
        tight: on_tour && bound == best_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    #[test]
    fn bound_improves_over_plain_one_tree() {
        let inst = generate::uniform(60, 10_000.0, 5);
        let plain = OneTree::build(&inst, &vec![0; 60], 0).shifted_len;
        let res = held_karp_bound(&inst, &AscentConfig::default());
        assert!(res.bound >= plain, "ascent must not lose to π = 0");
        assert!(res.iterations > 1);
    }

    #[test]
    fn bound_below_known_optimum() {
        let inst = generate::grid_known_optimum(6, 6, 100.0);
        let res = held_karp_bound(&inst, &AscentConfig::default());
        let opt = inst.known_optimum().unwrap();
        assert!(
            res.bound <= opt,
            "bound {} above optimum {}",
            res.bound,
            opt
        );
        // HK is usually within ~1-2% on geometric instances; the grid is
        // benign, expect at least 95%.
        assert!(
            res.bound as f64 >= 0.95 * opt as f64,
            "bound {} too weak vs {}",
            res.bound,
            opt
        );
    }

    #[test]
    fn circle_is_tight() {
        let pts: Vec<tsp_core::Point> = (0..16)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 16.0;
                tsp_core::Point::new(10_000.0 * a.cos(), 10_000.0 * a.sin())
            })
            .collect();
        let inst = tsp_core::Instance::new("circle16", pts, tsp_core::Metric::Euc2d);
        let res = held_karp_bound(&inst, &AscentConfig::default());
        assert!(res.tight, "circle 1-tree should become a tour");
    }

    #[test]
    fn respects_iteration_budget() {
        let inst = generate::uniform(50, 10_000.0, 6);
        let cfg = AscentConfig {
            max_iterations: 5,
            ..AscentConfig::default()
        };
        let res = held_karp_bound(&inst, &cfg);
        assert!(res.iterations <= 5);
    }

    #[test]
    fn deterministic() {
        let inst = generate::uniform(40, 10_000.0, 8);
        let a = held_karp_bound(&inst, &AscentConfig::default());
        let b = held_karp_bound(&inst, &AscentConfig::default());
        assert_eq!(a.bound, b.bound);
        assert_eq!(a.pi, b.pi);
    }

    /// Geometry on which nearest neighbours alone do not connect the
    /// cities: two far clusters each larger than the graph's degree, a
    /// block of coincident points beside a few others, and one line.
    fn hostile() -> Vec<Instance> {
        let p = tsp_core::Point::new;
        let clusters = (0..60).map(|i| {
            let far = if i % 2 == 0 { 0.0 } else { 5_000_000.0 };
            p(far + (i * 37 % 50) as f64, (i * 91 % 50) as f64)
        });
        let coincident = (0..40).map(|i| {
            if i < 34 {
                p(500.0, 500.0)
            } else {
                p(i as f64 * 900.0, 0.0)
            }
        });
        let line = (0..50).map(|i| p((i * i) as f64, 0.0));
        [
            ("clusters", clusters.collect()),
            ("coincident", coincident.collect()),
            ("line", line.collect::<Vec<_>>()),
        ]
        .into_iter()
        .map(|(name, pts)| Instance::new(name, pts, tsp_core::Metric::Euc2d))
        .collect()
    }

    #[test]
    fn sparse_one_trees_span_hostile_geometry() {
        for inst in hostile() {
            let n = inst.len();
            for special in [0, n / 2] {
                let mut t = OneTree::build(&inst, &vec![0; n], special);
                let mut sparse = Sparse::new(sparse_graph(&inst, &t));
                // Potentials of growing size, as an ascent would visit.
                for round in 0..12i64 {
                    let pi: Vec<i64> = (0..n as i64)
                        .map(|v| (v * 7919 % 201 - 100) * round * 40)
                        .collect();
                    sparse.one_tree(&pi, &mut t);
                    assert_eq!(t.edges().len(), n, "{} round {round}", inst.name());
                    assert_eq!(
                        t.degree.iter().sum::<u32>(),
                        2 * n as u32,
                        "{}",
                        inst.name()
                    );
                    assert_eq!(t.degree[special], 2);
                    let dense = OneTree::build(&inst, &pi, special);
                    assert!(
                        t.shifted_len >= dense.shifted_len,
                        "a sparse tree beat the minimum"
                    );
                }
                let cfg = AscentConfig {
                    special,
                    ..AscentConfig::default()
                };
                let res = sparse_ascent(&inst, &cfg);
                assert_eq!(
                    res.bound,
                    OneTree::build(&inst, &res.pi, special).dual_value(&res.pi)
                );
            }
        }
    }

    /// Work guard: a sparse iteration touches a number of arcs
    /// proportional to n — at most the nearest and the α-nearest
    /// neighbours of every city and the first tree, each in both
    /// directions — where a dense one touches n².
    #[test]
    fn sparse_graph_arcs_stay_linear_in_n() {
        for n in [500, 2000, 8000] {
            let inst = generate::clustered_dimacs(n, 4242);
            let first = OneTree::build(&inst, &vec![0; n], 0);
            let arcs = sparse_graph(&inst, &first).arcs();
            assert!(arcs >= 2 * (n - 1), "n = {n}: {arcs} arcs cannot span");
            assert!(
                arcs <= (4 * SPARSE_DEGREE + 2) * n,
                "n = {n}: {arcs} arcs in the sparse graph"
            );
        }
    }

    #[test]
    fn sparse_ascent_is_deterministic_and_respects_the_budget() {
        let inst = generate::drill_plate(300, 8);
        let cfg = AscentConfig {
            max_iterations: 30,
            ..AscentConfig::default()
        };
        let a = sparse_ascent(&inst, &cfg);
        let b = sparse_ascent(&inst, &cfg);
        assert_eq!(
            (a.bound, &a.pi, &a.one_tree.parent),
            (b.bound, &b.pi, &b.one_tree.parent)
        );
        assert!(a.iterations <= 30);
    }
}
