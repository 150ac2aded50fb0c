//! Property tests for the Held-Karp machinery: the bound is always a
//! true lower bound, is deterministic, and the α-lists are well-formed
//! on every generator family.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use heldkarp::mst::{prim_sparse, shifted_dist, PrimScratch, SparseGraph};
use heldkarp::{
    alpha_candidate_lists, alpha_lists_from_tree, held_karp_bound, sparse_ascent, AscentConfig,
    OneTree,
};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};
use tsp_core::{fan_out, generate, Instance, Metric, Point, Tour};

/// The six generator families at about 80 cities.
fn families() -> [Instance; 6] {
    [
        generate::uniform(80, 100_000.0, 1),
        generate::clustered_dimacs(80, 2),
        generate::drill_plate(80, 3),
        generate::pcb_like(80, 4),
        generate::road_like(80, 5),
        generate::grid_known_optimum(8, 10, 100.0),
    ]
}

/// `n` cities on a coarse 6 × 6 lattice, every site used twice or more
/// once `n` passes 72: coincident points and many equal distances.
fn duplicated_points(n: usize, seed: u64) -> Instance {
    use rand::Rng;
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts = (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(0..6) as f64 * 100.0,
                rng.gen_range(0..6) as f64 * 100.0,
            )
        })
        .collect();
    Instance::new("dup", pts, Metric::Euc2d)
}

/// Brute-force β(i,j): the costliest shifted edge on the MST path from
/// `i` to `j`, found by a fresh DFS per pair — O(n) per query, O(n³)
/// over all pairs, against which the production one-DFS-per-row sweep
/// is checked.
fn beta_by_dfs(adj: &[Vec<(usize, i64)>], i: usize, j: usize) -> i64 {
    let mut stack = vec![(i, usize::MAX, i64::MIN)];
    while let Some((v, from, max_w)) = stack.pop() {
        if v == j {
            return max_w;
        }
        for &(u, w) in &adj[v] {
            if u != from {
                stack.push((u, v, max_w.max(w)));
            }
        }
    }
    panic!("MST (excluding the special node) is disconnected: no path {i} -> {j}");
}

/// Reference α-lists computed the slow, obvious way.
fn alpha_reference(inst: &Instance, pi: &[i64], tree: &OneTree, k: usize) -> Vec<Vec<u32>> {
    let n = inst.len();
    let s = tree.special;
    // MST adjacency over V \ {s}: one (v, parent) edge per non-special
    // vertex whose parent is neither itself (root) nor s.
    let mut adj: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    for v in 0..n {
        if v == s {
            continue;
        }
        let p = tree.parent[v] as usize;
        if p != v && p != s {
            let w = shifted_dist(inst, pi, v, p);
            adj[v].push((p, w));
            adj[p].push((v, w));
        }
    }
    // Second-cheapest shifted edge at the special node.
    let mut at_s: Vec<i64> = (0..n)
        .filter(|&v| v != s)
        .map(|v| shifted_dist(inst, pi, s, v))
        .collect();
    at_s.sort_unstable();
    let c2 = at_s[1];

    (0..n)
        .map(|i| {
            let mut cand: Vec<(i64, i64, u32)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| {
                    let c = shifted_dist(inst, pi, i, j);
                    let a = if i == s || j == s {
                        (c - c2).max(0)
                    } else {
                        (c - beta_by_dfs(&adj, i, j)).max(0)
                    };
                    (a, c, j as u32)
                })
                .collect();
            cand.sort_unstable();
            cand.into_iter().take(k).map(|(_, _, j)| j).collect()
        })
        .collect()
}

/// The sparse Prim as it stood before its indexed heap: a binary heap
/// of `(shifted cost, city, parent)` with lazy deletion, pushing only on
/// strict improvement. The reference the production Prim must equal
/// edge for edge, ties included: `(parent, shifted length)`.
fn prim_sparse_lazy(graph: &SparseGraph, pi: &[i64], root: usize, skip: usize) -> (Vec<u32>, i64) {
    let n = graph.cities();
    let mut best = vec![i64::MAX; n];
    let mut in_tree = vec![false; n];
    let mut parent = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    in_tree[skip] = true;
    let mut shifted_len = 0i64;
    heap.push(Reverse((0i64, root as u32, root as u32)));
    while let Some(Reverse((cost, v, from))) = heap.pop() {
        let v = v as usize;
        if in_tree[v] {
            continue;
        }
        in_tree[v] = true;
        parent[v] = from;
        shifted_len += cost;
        for (u, d) in graph.row(v) {
            if !in_tree[u] {
                let c = d + pi[v] + pi[u];
                if c < best[u] {
                    best[u] = c;
                    heap.push(Reverse((c, u as u32, v as u32)));
                }
            }
        }
    }
    (parent, shifted_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// w(π) from the ascent never exceeds any tour's length — the
    /// defining property of a Lagrangian lower bound.
    #[test]
    fn bound_below_every_tour(n in 10usize..80, seed in any::<u64>()) {
        let inst = generate::uniform(n, 100_000.0, seed);
        let cfg = AscentConfig { max_iterations: 40, ..Default::default() };
        let res = held_karp_bound(&inst, &cfg);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        for _ in 0..5 {
            let tour = Tour::random(n, &mut rng);
            prop_assert!(
                res.bound <= tour.length(&inst),
                "bound {} exceeds a tour of length {}",
                res.bound,
                tour.length(&inst)
            );
        }
    }

    /// More ascent iterations never lower the best bound.
    #[test]
    fn bound_monotone_in_iterations(seed in any::<u64>()) {
        let inst = generate::clustered(60, 100_000.0, 4, 3_000.0, seed);
        let mut prev = i64::MIN;
        for iters in [1usize, 10, 50, 150] {
            let cfg = AscentConfig { max_iterations: iters, ..Default::default() };
            let res = held_karp_bound(&inst, &cfg);
            prop_assert!(res.bound >= prev, "bound dropped: {} < {prev} at {iters} iterations", res.bound);
            prev = res.bound;
        }
    }

    /// The production α-lists (one root-first sweep per row over the
    /// MST) match a brute-force O(n³) reference that recomputes β(i,j)
    /// as the max-cost MST-path edge via a fresh DFS per pair — including
    /// the special node's `α(s,j) = (c(s,j) − c₂)⁺` row, in both
    /// directions (row of `s`, and `s` as a candidate of other rows).
    /// The drill plate and the coincident points put equal α and equal
    /// costs in most rows, so the `(α, cost, id)` tie order is covered,
    /// at the trees of both ascents and at a special node other than 0.
    #[test]
    fn alpha_lists_match_bruteforce_beta_reference(
        n in 8usize..28,
        seed in any::<u64>(),
        family in 0usize..3,
        sparse in any::<bool>(),
    ) {
        let inst = match family {
            0 => generate::uniform(n, 10_000.0, seed),
            1 => generate::drill_plate(n, seed),
            _ => duplicated_points(n, seed),
        };
        let cfg = AscentConfig {
            max_iterations: 25,
            special: seed as usize % n,
        };
        let res = if sparse { sparse_ascent(&inst, &cfg) } else { held_karp_bound(&inst, &cfg) };
        let k = 5.min(n - 1);
        let got = alpha_lists_from_tree(&inst, &res.pi, &res.one_tree, k);
        let want = alpha_reference(&inst, &res.pi, &res.one_tree, k);
        for (i, row) in want.iter().enumerate() {
            prop_assert_eq!(
                got.of(i), &row[..],
                "α row {} diverges (special node {})", i, res.one_tree.special
            );
        }
    }

    /// The indexed-heap Prim returns the lazy-deletion reference's tree
    /// — same parent array, same length — on a coarse integer lattice
    /// full of equal distances and coincident points, under random
    /// potentials, with and without a skipped city. The graph holds every city's 5 nearest neighbours
    /// and the edges `(v, v + 1)` and `(v, v + 2)`, so it stays
    /// connected without any one city.
    #[test]
    fn sparse_prim_equals_the_lazy_heap_reference(
        n in 6usize..120,
        seed in any::<u64>(),
        pi_scale in 0i64..4,
        skip_one in any::<bool>(),
    ) {
        use rand::Rng;
        // One city more than `n`; without a skipped city it carries no
        // edge and is the one passed as `skip`, so the tree spans all
        // the others.
        let inst = duplicated_points(n + 1, seed);
        let m = if skip_one { n + 1 } else { n };
        let knn = tsp_core::NeighborLists::build(&inst, 5);
        let graph = SparseGraph::from_edges(&inst, || {
            (0..m)
                .flat_map(|v| knn.of(v).iter().map(move |&u| (v, u as usize)))
                .filter(|&(_, u)| u < m)
                .chain((1..m).map(|v| (v - 1, v)))
                .chain((2..m).map(|v| (v - 2, v)))
        });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let pi: Vec<i64> = (0..=n).map(|_| rng.gen_range(-pi_scale..=pi_scale)).collect();
        let skip = if skip_one { rng.gen_range(0..=n) } else { n };
        let root = usize::from(skip == 0);
        let mut parent = Vec::new();
        let mut scratch = PrimScratch::default();
        // Twice on one scratch: a second tree must not see the first.
        for _ in 0..2 {
            let len = prim_sparse(&graph, &pi, root, skip, &mut parent, &mut scratch);
            let (want_parent, want_len) = prim_sparse_lazy(&graph, &pi, root, skip);
            prop_assert_eq!(len, want_len);
            prop_assert_eq!(&parent, &want_parent);
        }
    }

    /// 1-trees have exactly n edges and total degree 2n under any
    /// potentials.
    #[test]
    fn one_tree_shape(seed in any::<u64>(), pi_scale in 0i64..100) {
        let inst = generate::uniform(40, 100_000.0, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        use rand::Rng;
        let pi: Vec<i64> = (0..40).map(|_| rng.gen_range(-pi_scale..=pi_scale)).collect();
        let t = OneTree::build(&inst, &pi, 0);
        prop_assert_eq!(t.edges().len(), 40);
        prop_assert_eq!(t.degree.iter().sum::<u32>(), 80);
        prop_assert_eq!(t.degree[0], 2);
    }
}

/// α-lists are well-formed on every generator family.
#[test]
fn alpha_lists_on_all_families() {
    let cfg = AscentConfig {
        max_iterations: 25,
        ..Default::default()
    };
    for inst in families() {
        let nl = alpha_candidate_lists(&inst, 5, &cfg);
        assert_eq!(nl.len(), inst.len(), "{}", inst.name());
        assert_eq!(nl.k(), 5);
        for c in 0..inst.len() {
            assert!(!nl.of(c).contains(&(c as u32)), "{} self-loop", inst.name());
            let unique: std::collections::HashSet<_> = nl.of(c).iter().collect();
            assert_eq!(unique.len(), 5, "{} duplicate candidates", inst.name());
        }
    }
}

/// The grid's HK bound sandwiches tightly under the known optimum.
#[test]
fn grid_bound_tight() {
    let inst = generate::grid_known_optimum(10, 10, 100.0);
    let res = held_karp_bound(&inst, &AscentConfig::default());
    let opt = inst.known_optimum().unwrap();
    assert!(res.bound <= opt);
    assert!(
        res.bound as f64 >= 0.95 * opt as f64,
        "bound {} weak vs {opt}",
        res.bound
    );
}

/// The sparse ascent's bound is the complete graph's `w(π)` at the
/// potentials it returns — so a valid lower bound — its tree is that
/// 1-tree, and it never loses to π = 0.
#[test]
fn sparse_ascent_returns_the_dense_dual_on_all_families() {
    let cfg = AscentConfig {
        max_iterations: 25,
        ..Default::default()
    };
    for inst in families() {
        let res = sparse_ascent(&inst, &cfg);
        let dense = OneTree::build(&inst, &res.pi, cfg.special);
        assert_eq!(res.bound, dense.dual_value(&res.pi), "{}", inst.name());
        assert_eq!(res.one_tree.parent, dense.parent, "{}", inst.name());
        assert_eq!(res.one_tree.second, dense.second, "{}", inst.name());
        assert!(res.iterations <= 25);
        let plain = OneTree::build(&inst, &vec![0; inst.len()], cfg.special);
        assert!(
            res.bound >= plain.shifted_len,
            "{} lost to π = 0",
            inst.name()
        );
        let mut rng = SmallRng::seed_from_u64(9);
        let tour = Tour::random(inst.len(), &mut rng);
        assert!(res.bound <= tour.length(&inst));
    }
}

/// Quality guard: potentials found on the sparse graph are, measured
/// on the complete graph, as good as potentials found there at equal
/// iterations — 0.995 to 1.012 of them on these six; the step-halving
/// rule makes either ascent wander by a few per cent, hence 0.97.
#[test]
fn sparse_potentials_reach_97_percent_of_the_dense_bound() {
    let cfg = AscentConfig {
        max_iterations: 100,
        ..Default::default()
    };
    for n in [500, 2000] {
        for inst in [
            generate::uniform(n, 1_000_000.0, 7),
            generate::clustered_dimacs(n, 8),
            generate::drill_plate(n, 9),
        ] {
            let dense = held_karp_bound(&inst, &cfg).bound;
            let sparse = sparse_ascent(&inst, &cfg).bound;
            assert!(
                sparse as f64 >= 0.97 * dense as f64,
                "{} n = {n}: sparse ascent's bound {sparse} below 97 % of the dense {dense}",
                inst.name()
            );
        }
    }
}

/// The benchmark's and the service's yardstick: the complete-graph
/// ascent on the `distclk-drill2k-8n` instance (benchmark/src/workloads/
/// distclk.rs commits the same number).
#[test]
fn drill_plate_2000_yardstick_is_pinned() {
    let inst = generate::drill_plate(2000, 4242);
    assert_eq!(
        held_karp_bound(&inst, &AscentConfig::default()).bound,
        1_783_102
    );
}

/// α rows computed inside a fan-out item, where a nested fan-out runs
/// inline on the item's thread, equal those of a call from outside any
/// fan-out: the lists do not depend on how many threads built them.
#[test]
fn alpha_lists_inside_a_fan_out_item_equal_the_outer_call() {
    let inst = generate::drill_plate(300, 8);
    let cfg = AscentConfig {
        max_iterations: 40,
        special: 150,
    };
    let res = sparse_ascent(&inst, &cfg);
    let outer = alpha_lists_from_tree(&inst, &res.pi, &res.one_tree, 8);
    let mut inner = vec![None; 2];
    fan_out(&mut inner, |_, slot| {
        *slot = Some(alpha_lists_from_tree(&inst, &res.pi, &res.one_tree, 8));
    });
    for nl in inner {
        let nl = nl.expect("fan-out item ran");
        for c in 0..inst.len() {
            assert_eq!(nl.of(c), outer.of(c), "row {c}");
        }
    }
}
