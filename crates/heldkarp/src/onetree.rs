//! Minimum 1-trees.
//!
//! A *1-tree* rooted at a special node `s` is a spanning tree over
//! `V \ {s}` plus the two cheapest edges incident to `s`. Every tour is
//! a 1-tree, so the minimum 1-tree length is a lower bound on the
//! optimal tour; Held & Karp sharpen it with node potentials (see
//! [`crate::ascent`]).
//!
//! Two oracles build them into a tree the caller keeps: [`Complete`]
//! over all n(n−1)/2 edges — the one whose dual value is a lower bound
//! — and [`Sparse`] over a [`SparseGraph`], whose tree is minimum only
//! among the edges it was given and so serves to steer the ascent, not
//! to bound anything.

use tsp_core::Instance;

use crate::mst::{prim, prim_sparse, shifted_dist, PrimScratch, SparseGraph};

/// A minimum 1-tree under shifted costs.
#[derive(Debug, Clone)]
pub struct OneTree {
    /// Special node (excluded from the MST, reattached by its two
    /// cheapest edges).
    pub special: usize,
    /// MST parent array over `V \ {special}` (parent[special] is one of
    /// its two attachment points).
    pub parent: Vec<u32>,
    /// The second attachment edge endpoint of the special node.
    pub second: usize,
    /// Degree of every node in the 1-tree.
    pub degree: Vec<u32>,
    /// Total 1-tree length under shifted costs.
    pub shifted_len: i64,
}

/// The two cheapest of `edges` as `[(city, cost); 2]`, cheapest first;
/// among equal costs the earlier one wins.
pub(crate) fn two_cheapest(edges: impl Iterator<Item = (usize, i64)>) -> [(usize, i64); 2] {
    let mut two = [(usize::MAX, i64::MAX); 2];
    for (v, d) in edges {
        if d < two[0].1 {
            two = [(v, d), two[0]];
        } else if d < two[1].1 {
            two[1] = (v, d);
        }
    }
    two
}

/// The 1-tree oracle of the complete graph: dense Prim, its buffers
/// kept across calls.
pub(crate) struct Complete<'a> {
    inst: &'a Instance,
    special: usize,
    /// `V \ {special}`.
    verts: Vec<u32>,
    scratch: PrimScratch,
}

impl<'a> Complete<'a> {
    /// # Panics
    ///
    /// Panics if the instance has fewer than 3 cities.
    pub(crate) fn new(inst: &'a Instance, special: usize) -> Self {
        let n = inst.len();
        assert!(n >= 3);
        Complete {
            inst,
            special,
            verts: (0..n as u32).filter(|&v| v as usize != special).collect(),
            scratch: PrimScratch::default(),
        }
    }

    /// A new minimum 1-tree under `pi`.
    pub(crate) fn build(&mut self, pi: &[i64]) -> OneTree {
        let mut t = OneTree {
            special: self.special,
            parent: Vec::new(),
            second: usize::MAX,
            degree: Vec::new(),
            shifted_len: 0,
        };
        self.one_tree(pi, &mut t);
        t
    }

    /// Make `t` the minimum 1-tree under `pi`.
    pub(crate) fn one_tree(&mut self, pi: &[i64], t: &mut OneTree) {
        let mst_len = prim(self.inst, pi, &self.verts, &mut t.parent, &mut self.scratch);
        let s = self.special;
        debug_assert_eq!(t.special, s);
        let at_special = self.verts.iter().map(|&v| v as usize);
        t.attach(
            mst_len,
            two_cheapest(at_special.map(|v| (v, shifted_dist(self.inst, pi, s, v)))),
        );
    }
}

/// The 1-tree oracle of a sparse graph: heap Prim. The graph must keep
/// `V \ {special}` connected and the special node at two edges or more
/// — any graph that holds the edges of one 1-tree does.
pub(crate) struct Sparse {
    graph: SparseGraph,
    scratch: PrimScratch,
}

impl Sparse {
    pub(crate) fn new(graph: SparseGraph) -> Self {
        Sparse {
            graph,
            scratch: PrimScratch::default(),
        }
    }

    /// Make `t` the minimum 1-tree under `pi` among the graph's edges.
    pub(crate) fn one_tree(&mut self, pi: &[i64], t: &mut OneTree) {
        let s = t.special;
        let root = usize::from(s == 0);
        let mst_len = prim_sparse(&self.graph, pi, root, s, &mut t.parent, &mut self.scratch);
        t.attach(
            mst_len,
            two_cheapest(self.graph.row(s).map(|(v, d)| (v, d + pi[s] + pi[v]))),
        );
    }
}

impl OneTree {
    /// Build the minimum 1-tree with special node `special` under the
    /// potentials `pi`.
    ///
    /// # Panics
    ///
    /// Panics if the instance has fewer than 3 cities.
    pub fn build(inst: &Instance, pi: &[i64], special: usize) -> OneTree {
        Complete::new(inst, special).build(pi)
    }

    /// Finish a 1-tree whose `parent` holds an MST of length `mst_len`
    /// over `V \ {special}`: attach the special node by `two` and count
    /// the degrees.
    fn attach(&mut self, mst_len: i64, two: [(usize, i64); 2]) {
        let [(b1, d1), (b2, d2)] = two;
        let s = self.special;
        self.parent[s] = b1 as u32;
        self.second = b2;
        self.degree.clear();
        self.degree.resize(self.parent.len(), 0);
        for v in 0..self.parent.len() {
            let p = self.parent[v] as usize;
            if v == s || p == v {
                continue;
            }
            self.degree[v] += 1;
            self.degree[p] += 1;
        }
        self.degree[s] += 2;
        self.degree[b1] += 1;
        self.degree[b2] += 1;
        self.shifted_len = mst_len + d1 + d2;
    }

    /// The Held-Karp dual value `w(π) = len(T_π) − 2·Σπ` for the
    /// potentials this tree was built with.
    pub fn dual_value(&self, pi: &[i64]) -> i64 {
        self.shifted_len - 2 * pi.iter().sum::<i64>()
    }

    /// Whether every node has degree 2 — i.e. the 1-tree *is* a tour
    /// (the ascent can stop: the bound is tight).
    pub fn is_tour(&self) -> bool {
        self.degree.iter().all(|&d| d == 2)
    }

    /// All 1-tree edges `(v, parent[v])` for non-root vertices plus the
    /// special node's two edges.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let n = self.parent.len();
        let mut out = Vec::with_capacity(n);
        // Find the MST root: the non-special vertex whose parent is itself.
        for v in 0..n {
            if v == self.special {
                continue;
            }
            let p = self.parent[v] as usize;
            if p != v {
                out.push((v, p));
            }
        }
        out.push((self.special, self.parent[self.special] as usize));
        out.push((self.special, self.second));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    #[test]
    fn one_tree_has_n_edges_and_degree_sum() {
        let inst = generate::uniform(30, 1000.0, 3);
        let pi = vec![0i64; 30];
        let t = OneTree::build(&inst, &pi, 0);
        let edges = t.edges();
        assert_eq!(edges.len(), 30); // n-2 MST edges + 2 special edges = n
        assert_eq!(t.degree.iter().sum::<u32>(), 60);
        assert_eq!(t.degree[0], 2);
    }

    #[test]
    fn one_tree_is_lower_bound() {
        let inst = generate::uniform(40, 1000.0, 7);
        let pi = vec![0i64; 40];
        let t = OneTree::build(&inst, &pi, 0);
        // Any tour is a 1-tree, so min 1-tree <= any tour length.
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..5 {
            let tour = tsp_core::Tour::random(40, &mut rng);
            assert!(t.shifted_len <= tour.length(&inst));
        }
    }

    #[test]
    fn dual_value_accounts_for_potentials() {
        let inst = generate::uniform(20, 1000.0, 9);
        let pi = vec![5i64; 20];
        let t = OneTree::build(&inst, &pi, 0);
        // Shifted length counts each node's pi once per incident edge
        // (sum deg * pi = 2 sum pi when tree is degree-2 everywhere); the
        // dual subtracts 2 sum pi, so for uniform pi the dual equals the
        // unshifted 1-tree length plus (sum_v (deg_v - 2) * pi_v) = same
        // uniform value only when degrees are all 2. Just pin the formula.
        assert_eq!(t.dual_value(&pi), t.shifted_len - 2 * 5 * 20);
    }

    #[test]
    fn tour_shaped_one_tree_detected() {
        // Cities on a circle: the minimum 1-tree is the tour itself.
        let pts: Vec<tsp_core::Point> = (0..12)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 12.0;
                tsp_core::Point::new(1000.0 * a.cos(), 1000.0 * a.sin())
            })
            .collect();
        let inst = tsp_core::Instance::new("circle", pts, tsp_core::Metric::Euc2d);
        let t = OneTree::build(&inst, &[0; 12], 0);
        assert!(t.is_tour());
    }
}
