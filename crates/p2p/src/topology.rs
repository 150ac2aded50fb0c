//! Static network topologies.
//!
//! The paper arranges 8 nodes in a **hypercube** (§2.2); ring, complete
//! and star variants are provided for the topology ablation
//! experiments. The node set is fixed: a node that crashes leaves its
//! neighbors with one edge fewer, and nothing rewires around it.

use crate::message::NodeId;

/// Static network topologies over `n` nodes with ids `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Binary hypercube: node `i` is adjacent to `i ^ (1 << b)` for
    /// every bit `b` with `i ^ (1 << b) < n` (for non-power-of-two `n`
    /// this is the induced subgraph, which stays connected).
    Hypercube,
    /// Cycle `0 — 1 — … — n-1 — 0`.
    Ring,
    /// Every node adjacent to every other.
    Complete,
    /// Node 0 is the center; all others connect only to it.
    Star,
}

impl Topology {
    /// Neighbor list of `node` in a `n`-node network.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n`.
    pub fn neighbors(&self, node: NodeId, n: usize) -> Vec<NodeId> {
        assert!(node < n, "node {node} out of 0..{n}");
        if n <= 1 {
            return Vec::new();
        }
        match self {
            Topology::Hypercube => {
                let bits = usize::BITS - (n - 1).leading_zeros();
                (0..bits)
                    .map(|b| node ^ (1usize << b))
                    .filter(|&m| m < n && m != node)
                    .collect()
            }
            Topology::Ring => {
                if n == 2 {
                    vec![1 - node]
                } else {
                    vec![(node + n - 1) % n, (node + 1) % n]
                }
            }
            Topology::Complete => (0..n).filter(|&m| m != node).collect(),
            Topology::Star => {
                if node == 0 {
                    (1..n).collect()
                } else {
                    vec![0]
                }
            }
        }
    }

    /// Parse by name (for the experiment CLI).
    pub fn by_name(name: &str) -> Option<Topology> {
        match name.to_ascii_lowercase().as_str() {
            "hypercube" | "cube" => Some(Topology::Hypercube),
            "ring" => Some(Topology::Ring),
            "complete" | "full" => Some(Topology::Complete),
            "star" => Some(Topology::Star),
            _ => None,
        }
    }
}

/// Verify a topology is connected (used in tests).
pub fn is_connected(topo: Topology, n: usize) -> bool {
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(v) = stack.pop() {
        for m in topo.neighbors(v, n) {
            if !seen[m] {
                seen[m] = true;
                count += 1;
                stack.push(m);
            }
        }
    }
    count == n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercube_8_nodes_matches_paper() {
        // 8 nodes: 3-regular cube.
        for node in 0..8 {
            let nb = Topology::Hypercube.neighbors(node, 8);
            assert_eq!(nb.len(), 3, "node {node}");
            for m in nb {
                // Adjacent nodes differ in exactly one bit.
                assert_eq!((node ^ m).count_ones(), 1);
            }
        }
    }

    #[test]
    fn hypercube_symmetry() {
        for n in [2usize, 5, 8, 13, 16] {
            for a in 0..n {
                for b in Topology::Hypercube.neighbors(a, n) {
                    assert!(
                        Topology::Hypercube.neighbors(b, n).contains(&a),
                        "asymmetric edge {a}-{b} at n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_topologies_connected() {
        for n in [2usize, 3, 7, 8, 9, 16] {
            for t in [
                Topology::Hypercube,
                Topology::Ring,
                Topology::Complete,
                Topology::Star,
            ] {
                assert!(is_connected(t, n), "{t:?} disconnected at n={n}");
            }
        }
    }

    #[test]
    fn ring_has_degree_two() {
        for node in 0..6 {
            assert_eq!(Topology::Ring.neighbors(node, 6).len(), 2);
        }
        assert_eq!(Topology::Ring.neighbors(0, 2), vec![1]);
    }

    #[test]
    fn complete_and_star_shapes() {
        assert_eq!(Topology::Complete.neighbors(2, 5).len(), 4);
        assert_eq!(Topology::Star.neighbors(0, 5).len(), 4);
        assert_eq!(Topology::Star.neighbors(3, 5), vec![0]);
    }

    #[test]
    fn parsing() {
        assert_eq!(Topology::by_name("Hypercube"), Some(Topology::Hypercube));
        assert_eq!(Topology::by_name("ring"), Some(Topology::Ring));
        assert_eq!(Topology::by_name("bogus"), None);
    }

    #[test]
    fn single_node_has_no_neighbors() {
        assert!(Topology::Hypercube.neighbors(0, 1).is_empty());
    }
}
