//! α-nearness candidate lists (Helsgaun, EJOR 2000).
//!
//! `α(i,j)` is the increase of the minimum 1-tree length when the edge
//! `(i,j)` is required to be in the 1-tree. Edges with small α are
//! likely to be in good tours — Helsgaun showed candidate lists sorted
//! by α dominate plain nearest-neighbor lists for Lin-Kernighan moves.
//! The CLK engine's α and hybrid candidate kinds consume these lists,
//! and so does the `bench` crate's LKH-lite baseline (standing in for
//! LKH in the paper's Table 2).
//!
//! For `i, j` both different from the special node `s`:
//! `α(i,j) = c(i,j) − β(i,j)` where `β(i,j)` is the costliest edge on
//! the MST path between `i` and `j`. For edges at `s`:
//! `α(s,j) = c(s,j) − c₂` with `c₂` the second-cheapest edge at `s`.
//! All costs are the π-shifted costs from the ascent.
//!
//! Each row reads only the shared tree and writes only its own `k`
//! slots, so the rows run in fixed blocks through [`fan_out()`], one
//! block per item: the lists do not depend on how many threads built
//! them.

use tsp_core::{fan_out, Instance, NeighborLists};

use crate::ascent::{sparse_ascent, AscentConfig};
use crate::mst::shifted_dist;
use crate::onetree::{two_cheapest, OneTree};

/// Build α-nearness candidate lists of width `k`.
///
/// Runs a Held-Karp ascent first ([`sparse_ascent`] with `cfg`: two
/// 1-trees on the complete graph, the iterations between them on a
/// sparse one), then computes α values against the closing 1-tree in
/// O(n²) time, spread over the cores, and O(n) memory per thread.
///
/// # Panics
///
/// Panics if `k == 0` ([`NeighborLists::assert_k`]), before the ascent.
pub fn alpha_candidate_lists(inst: &Instance, k: usize, cfg: &AscentConfig) -> NeighborLists {
    NeighborLists::assert_k(k, inst.len());
    let res = sparse_ascent(inst, cfg);
    alpha_lists_from_tree(inst, &res.pi, &res.one_tree, k)
}

/// α-candidate lists from an existing 1-tree and potentials.
///
/// # Panics
///
/// Panics if `k == 0` ([`NeighborLists::assert_k`]).
pub fn alpha_lists_from_tree(
    inst: &Instance,
    pi: &[i64],
    tree: &OneTree,
    k: usize,
) -> NeighborLists {
    NeighborLists::assert_k(k, inst.len());
    let k = k.min(inst.len() - 1);
    NeighborLists::from_flat(inst, k, alpha_nearest(inst, pi, tree, k))
}

/// Rows of α per [`fan_out()`] item: enough to amortize a block's
/// scratch, few enough that blocks balance over the threads.
const ROWS: usize = 64;

/// The `k ≤ n − 1` α-nearest cities of every city, `k` ids per row, by
/// `(α, shifted cost, id)`.
pub(crate) fn alpha_nearest(inst: &Instance, pi: &[i64], tree: &OneTree, k: usize) -> Vec<u32> {
    let n = inst.len();
    let s = tree.special;
    // The MST part of the 1-tree: `dad[v]` for v ≠ s, the root its own
    // dad. (`dad[s]` is an attachment point, not an MST edge.)
    let dad = &tree.parent;

    // Shifted weight of every MST edge (v, dad[v]), computed once.
    let weight: Vec<i64> = (0..n)
        .map(|v| match dad[v] as usize {
            p if v == s || p == v => 0,
            p => shifted_dist(inst, pi, v, p),
        })
        .collect();
    // V \ {s} with every city after its dad: walk up from each city to
    // the first one already placed and lay the walked path down from
    // its top.
    let mut order: Vec<u32> = Vec::with_capacity(n - 1);
    let mut placed = vec![false; n];
    placed[s] = true;
    let mut path: Vec<u32> = Vec::new();
    for v in 0..n {
        let mut x = v;
        while !placed[x] {
            placed[x] = true;
            path.push(x as u32);
            x = dad[x] as usize;
        }
        order.extend(path.drain(..).rev());
    }

    // Second-cheapest shifted edge at the special node: forcing (s,j)
    // in evicts the pricier of the two attachment edges, so
    // α(s,j) = (c(s,j) − c₂)⁺ — 0 for the two tree edges.
    let others = (0..n).filter(|&v| v != s);
    let c2 = two_cheapest(others.map(|v| (v, shifted_dist(inst, pi, s, v))))[1].1;

    let mut flat = vec![0u32; n * k];
    if k == 0 {
        return flat;
    }
    let mut blocks: Vec<&mut [u32]> = flat.chunks_mut(ROWS * k).collect();
    fan_out(&mut blocks, |b, out| {
        // β(i, j) of the current row i, with c₂ standing in at j = s;
        // `on_path[j] == i` marks the cities between i and the root,
        // whose β is set on the way up.
        let mut beta = vec![c2; n];
        let mut on_path = vec![u32::MAX; n];
        let mut cand: Vec<(i64, i64, u32)> = Vec::with_capacity(n);
        for (r, row) in out.chunks_mut(k).enumerate() {
            let i = b * ROWS + r;
            if i == s {
                beta.fill(c2);
            } else {
                // β(i, ·) over the MST as in LKH: up the path from i to
                // the root first, then one root-first sweep in which
                // every other city extends its dad's value by its own
                // edge.
                beta[i] = i64::MIN;
                on_path[i] = i as u32;
                let mut x = i;
                while dad[x] as usize != x {
                    let p = dad[x] as usize;
                    beta[p] = beta[x].max(weight[x]);
                    on_path[p] = i as u32;
                    x = p;
                }
                for &j in &order {
                    let j = j as usize;
                    if on_path[j] != i as u32 {
                        beta[j] = beta[dad[j] as usize].max(weight[j]);
                    }
                }
            }
            cand.clear();
            for (j, &bj) in beta.iter().enumerate() {
                if j != i {
                    let c = shifted_dist(inst, pi, i, j);
                    cand.push(((c - bj).max(0), c, j as u32));
                }
            }
            // k smallest by (α, shifted cost, index).
            if k < cand.len() {
                cand.select_nth_unstable(k - 1);
            }
            cand[..k].sort_unstable();
            for (slot, &(_, _, j)) in row.iter_mut().zip(&cand[..k]) {
                *slot = j;
            }
        }
    });

    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ascent::held_karp_bound;
    use tsp_core::generate;

    #[test]
    #[should_panic(expected = "candidate lists need k >= 1, got k = 0 for n = 12 cities")]
    fn alpha_lists_of_width_zero_are_refused() {
        let inst = generate::uniform(12, 1_000.0, 2);
        alpha_candidate_lists(&inst, 0, &AscentConfig::default());
    }

    #[test]
    fn tree_edges_have_alpha_zero_and_come_first() {
        let inst = generate::uniform(40, 10_000.0, 3);
        let cfg = AscentConfig {
            max_iterations: 30,
            ..Default::default()
        };
        let res = held_karp_bound(&inst, &cfg);
        let nl = alpha_lists_from_tree(&inst, &res.pi, &res.one_tree, 8);
        // Every 1-tree edge endpoint should list its tree partner among
        // the candidates (α = 0 ranks first or near-first).
        for (a, b) in res.one_tree.edges() {
            assert!(
                nl.of(a).contains(&(b as u32)) || nl.of(b).contains(&(a as u32)),
                "tree edge ({a},{b}) missing from both candidate lists"
            );
        }
    }

    #[test]
    fn lists_have_requested_width() {
        let inst = generate::uniform(30, 10_000.0, 4);
        let nl = alpha_candidate_lists(
            &inst,
            5,
            &AscentConfig {
                max_iterations: 20,
                ..Default::default()
            },
        );
        assert_eq!(nl.k(), 5);
        assert_eq!(nl.len(), 30);
        for c in 0..30 {
            assert!(!nl.of(c).contains(&(c as u32)));
        }
    }

    #[test]
    fn alpha_prefers_short_structural_edges() {
        // Two clusters joined by a bridge: α-lists inside a cluster must
        // stay inside the cluster except for the bridge endpoints.
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(tsp_core::Point::new(i as f64 * 10.0, 0.0));
        }
        for i in 0..10 {
            pts.push(tsp_core::Point::new(5_000.0 + i as f64 * 10.0, 0.0));
        }
        let inst = tsp_core::Instance::new("bridge", pts, tsp_core::Metric::Euc2d);
        let nl = alpha_candidate_lists(
            &inst,
            3,
            &AscentConfig {
                max_iterations: 30,
                ..Default::default()
            },
        );
        // City 3 (interior of cluster 0) should only have cluster-0
        // candidates.
        for &c in nl.of(3) {
            assert!(
                (c as usize) < 10,
                "interior city candidate crossed the bridge"
            );
        }
    }
}
