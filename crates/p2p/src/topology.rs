//! Network topologies and live membership.
//!
//! The paper arranges 8 nodes in a **hypercube** (§2.2); ring, complete
//! and star variants are provided for the topology ablation
//! experiments. [`Membership`] tracks which nodes are alive in a
//! long-running network and computes the self-healing repair edges
//! that keep the topology connected when a node dies (the
//! dimension-neighbor fallback). The lockstep churn driver applies it
//! between rounds.

use std::collections::BTreeSet;

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

/// Dynamic membership over a static topology: which nodes are alive
/// and who is wired to whom right now.
///
/// The repair rule for a death is the **dimension-neighbor fallback**:
/// the dead node's surviving neighbors (the nodes that each lost one
/// edge — in a hypercube, the edge along one dimension) are wired into
/// a clique among themselves. Every path that used to route through
/// the dead node can then take the direct repair edge instead, so the
/// cube degrades to a connected sub-cube rather than partitioning.
/// On rejoin the node is reconnected to its *alive* static-topology
/// neighbors; stale repair edges are left in place (extra edges never
/// hurt connectivity and keeping them makes repairs idempotent).
///
/// All sets are `BTreeSet`s so iteration order — and therefore every
/// repair assignment the lockstep churn driver derives — is
/// deterministic.
#[derive(Debug, Clone)]
pub struct Membership {
    topo: Topology,
    n: usize,
    alive: Vec<bool>,
    adj: Vec<BTreeSet<NodeId>>,
}

impl Membership {
    /// Full static topology, everyone alive.
    pub fn new(topo: Topology, n: usize) -> Self {
        let adj = (0..n)
            .map(|v| topo.neighbors(v, n).into_iter().collect())
            .collect();
        Membership {
            topo,
            n,
            alive: vec![true; n],
            adj,
        }
    }

    /// Number of member slots (alive or dead).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no member slots at all.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Is `id` currently alive?
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive.get(id).copied().unwrap_or(false)
    }

    /// Ids of currently alive nodes, ascending.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.n).filter(|&v| self.alive[v]).collect()
    }

    /// Current (repaired) neighbor list of `id`, restricted to alive
    /// nodes, ascending.
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        self.adj[id]
            .iter()
            .copied()
            .filter(|&v| self.alive[v])
            .collect()
    }

    /// Declare `dead` down and rewire around it.
    ///
    /// Returns the repair group — the dead node's alive neighbors, now
    /// wired into a clique — so the caller (the churn driver) can
    /// push `connect` assignments to exactly those nodes. Idempotent:
    /// reporting the same death twice returns an empty group.
    pub fn fail(&mut self, dead: NodeId) -> Vec<NodeId> {
        if !self.is_alive(dead) {
            return Vec::new();
        }
        self.alive[dead] = false;
        let group: Vec<NodeId> = self.neighbors(dead);
        for &a in &group {
            for &b in &group {
                if a != b {
                    self.adj[a].insert(b);
                }
            }
        }
        group
    }

    /// Bring `id` back and reconnect it to its alive static-topology
    /// neighbors — or, if every static neighbor is also dead, to the
    /// lowest-id alive node so the rejoiner is never isolated. Returns
    /// the nodes that must accept the rejoiner; empty if `id` was
    /// already alive.
    pub fn rejoin(&mut self, id: NodeId) -> Vec<NodeId> {
        if self.is_alive(id) {
            return Vec::new();
        }
        self.alive[id] = true;
        let mut back: Vec<NodeId> = self
            .topo
            .neighbors(id, self.n)
            .into_iter()
            .filter(|&v| self.alive[v])
            .collect();
        if back.is_empty() {
            back = (0..self.n)
                .find(|&v| self.alive[v] && v != id)
                .into_iter()
                .collect();
        }
        back.sort_unstable();
        self.adj[id] = back.iter().copied().collect();
        for &v in &back {
            self.adj[v].insert(id);
        }
        back
    }

    /// Is the alive subgraph (with repair edges) connected?
    pub fn alive_connected(&self) -> bool {
        let alive = self.alive_nodes();
        let Some(&start) = alive.first() else {
            return true;
        };
        let mut seen = vec![false; self.n];
        let mut stack = vec![start];
        seen[start] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for m in self.neighbors(v) {
                if !seen[m] {
                    seen[m] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == alive.len()
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

    #[test]
    fn membership_kill_keeps_hypercube_connected() {
        let mut m = Membership::new(Topology::Hypercube, 8);
        let group = m.fail(3);
        // Node 3's hypercube neighbors: 2, 1, 7.
        assert_eq!(group, vec![1, 2, 7]);
        assert!(!m.is_alive(3));
        assert!(m.alive_connected());
        // Repair clique: 1, 2 and 7 are now pairwise adjacent.
        assert!(m.neighbors(1).contains(&2));
        assert!(m.neighbors(2).contains(&7));
        assert!(m.neighbors(7).contains(&1));
        // Dead node no longer appears in anyone's neighbor list.
        for v in m.alive_nodes() {
            assert!(!m.neighbors(v).contains(&3));
        }
    }

    #[test]
    fn membership_ring_kill_bridges_the_gap() {
        let mut m = Membership::new(Topology::Ring, 6);
        let group = m.fail(2);
        assert_eq!(group, vec![1, 3]);
        assert!(m.neighbors(1).contains(&3));
        assert!(m.alive_connected());
    }

    #[test]
    fn membership_chained_failures_stay_connected() {
        let mut m = Membership::new(Topology::Hypercube, 8);
        for dead in [5, 2, 7, 0] {
            m.fail(dead);
            assert!(m.alive_connected(), "disconnected after killing {dead}");
        }
        assert_eq!(m.alive_nodes(), vec![1, 3, 4, 6]);
    }

    #[test]
    fn membership_fail_is_idempotent() {
        let mut m = Membership::new(Topology::Hypercube, 8);
        assert!(!m.fail(6).is_empty());
        assert!(m.fail(6).is_empty());
    }

    #[test]
    fn membership_rejoin_restores_static_edges() {
        let mut m = Membership::new(Topology::Hypercube, 8);
        m.fail(3);
        let back = m.rejoin(3);
        assert_eq!(back, vec![1, 2, 7]);
        assert!(m.is_alive(3));
        assert!(m.alive_connected());
        for &v in &back {
            assert!(m.neighbors(v).contains(&3));
            assert!(m.neighbors(3).contains(&v));
        }
        // Rejoining an alive node is a no-op.
        assert!(m.rejoin(3).is_empty());
    }

    #[test]
    fn membership_rejoin_with_all_static_neighbors_dead_falls_back() {
        let mut m = Membership::new(Topology::Star, 5);
        m.fail(0); // center
        m.fail(3);
        // 3's only static neighbor (0) is dead → fall back to the
        // lowest-id alive node.
        assert_eq!(m.rejoin(3), vec![1]);
        assert!(m.alive_connected());
    }

    #[test]
    fn membership_rejoin_skips_dead_static_neighbors() {
        let mut m = Membership::new(Topology::Hypercube, 8);
        m.fail(1);
        m.fail(3);
        // 3's static neighbors are 1 (dead), 2, 7.
        assert_eq!(m.rejoin(3), vec![2, 7]);
        assert!(m.alive_connected());
    }
}
