//! Prim's minimum spanning tree under π-shifted costs, on the complete
//! graph and on a sparse one.
//!
//! For complete graphs the array-based O(n²) Prim is optimal — no
//! priority queue needed (perf-book idiom: flat arrays beat heaps when
//! every node is adjacent to every other). The ascent builds only its
//! first and last tree that way; the iterations in between run
//! [`prim_sparse`], a heap Prim over a [`SparseGraph`] of a few
//! neighbours per city, at O(n·K·log n) a tree. Its heap holds each
//! fringe city once, keyed by its cheapest connection, and lowers the
//! key in place when a cheaper one turns up.
//!
//! Both write a parent array the caller owns and keep their working
//! arrays in a [`PrimScratch`], so the 100–200 trees of one ascent
//! allocate once.

use tsp_core::Instance;

/// Cost of edge `(i, j)` shifted by node potentials:
/// `d(i,j) + π_i + π_j`. Potentials are kept in fixed-point `i64`
/// (scaled by the caller) so bound computations stay exact.
#[inline(always)]
pub fn shifted_dist(inst: &Instance, pi: &[i64], i: usize, j: usize) -> i64 {
    inst.dist(i, j) + pi[i] + pi[j]
}

/// Prim's working arrays, owned by the caller so consecutive trees
/// reuse them.
#[derive(Debug, Default)]
pub struct PrimScratch {
    /// Cheapest known connection cost into the tree; on the sparse
    /// path [`IN_TREE`] once a city is spanned (or skipped).
    best: Vec<i64>,
    /// The tree endpoint realizing `best`: the first city to offer it.
    who: Vec<u32>,
    /// Whether a city is spanned (dense Prim only).
    in_tree: Vec<bool>,
    /// Fringe of the sparse Prim: a binary min-heap of `(best[u], u)`,
    /// one slot per city, a total order, so equal costs pop in one
    /// fixed sequence.
    heap: Vec<(i64, u32)>,
    /// `pos[u]`: the slot of fringe city `u` in `heap`.
    pos: Vec<u32>,
}

/// `best` of a city the sparse Prim has spanned or skipped: below every
/// cost, so no edge can improve it.
const IN_TREE: i64 = i64::MIN;

impl PrimScratch {
    fn reset(&mut self, len: usize) {
        self.best.clear();
        self.best.resize(len, i64::MAX);
        self.who.clear();
        self.who.resize(len, 0);
        self.in_tree.clear();
        self.in_tree.resize(len, false);
        self.heap.clear();
        // Read only at fringe cities, each written when it joins.
        self.pos.resize(len, 0);
    }
}

/// Prim MST over the vertex subset `verts` (all distinct) of the
/// complete graph, under shifted costs. O(|verts|²) time.
///
/// The tree is written as a parent array over all cities: `parent[v]`
/// is `v`'s neighbor on the path to the root `verts[0]`, the root is
/// its own parent, cities outside `verts` get `u32::MAX`. Returns the
/// tree's total length under the shifted costs.
///
/// # Panics
///
/// Panics if `verts.len() < 1`.
pub fn prim(
    inst: &Instance,
    pi: &[i64],
    verts: &[u32],
    parent: &mut Vec<u32>,
    scratch: &mut PrimScratch,
) -> i64 {
    let m = verts.len();
    assert!(m >= 1, "MST needs at least one vertex");
    let root = verts[0] as usize;
    // best[k]: cheapest connection cost of verts[k] into the tree;
    // who[k]: the tree endpoint realizing it.
    scratch.reset(m);
    let PrimScratch {
        best, who, in_tree, ..
    } = scratch;
    parent.clear();
    parent.resize(inst.len(), u32::MAX);
    parent[root] = root as u32;
    in_tree[0] = true;
    let mut shifted_len = 0i64;
    for k in 1..m {
        let v = verts[k] as usize;
        best[k] = shifted_dist(inst, pi, root, v);
        who[k] = root as u32;
    }
    for _ in 1..m {
        // Pick the cheapest fringe vertex.
        let mut kmin = usize::MAX;
        let mut dmin = i64::MAX;
        for k in 1..m {
            if !in_tree[k] && best[k] < dmin {
                dmin = best[k];
                kmin = k;
            }
        }
        let v = verts[kmin] as usize;
        in_tree[kmin] = true;
        parent[v] = who[kmin];
        shifted_len += dmin;
        // Relax.
        for k in 1..m {
            if !in_tree[k] {
                let u = verts[k] as usize;
                let d = shifted_dist(inst, pi, v, u);
                if d < best[k] {
                    best[k] = d;
                    who[k] = v as u32;
                }
            }
        }
    }
    shifted_len
}

/// A symmetric sparse graph over the cities in CSR form, the metric
/// distance of every arc cached beside its target. Rows are sorted by
/// city id and hold no duplicates, so the graph — and every tree grown
/// on it — is a function of the edge *set* alone.
#[derive(Debug)]
pub struct SparseGraph {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    dists: Vec<i64>,
}

impl SparseGraph {
    /// The graph of `edges` — pairs of distinct cities, in any order
    /// and multiplicity — symmetrised. `edges` is called twice, to
    /// size the rows and to fill them, so no pair list is ever stored.
    pub fn from_edges<I>(inst: &Instance, edges: impl Fn() -> I) -> SparseGraph
    where
        I: Iterator<Item = (usize, usize)>,
    {
        let n = inst.len();
        // Every pair lands in both endpoints' rows; size the rows, fill
        // them, then sort and dedup each one, compacting leftwards in
        // the same array.
        let mut offsets = vec![0u32; n + 1];
        for (a, b) in edges() {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        let mut next = offsets[..n].to_vec();
        for (a, b) in edges() {
            targets[next[a] as usize] = b as u32;
            next[a] += 1;
            targets[next[b] as usize] = a as u32;
            next[b] += 1;
        }
        drop(next);
        let mut write = 0usize;
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[lo..hi].sort_unstable();
            offsets[v] = write as u32;
            let mut prev = None;
            for e in lo..hi {
                let u = targets[e];
                if prev != Some(u) {
                    targets[write] = u;
                    write += 1;
                    prev = Some(u);
                }
            }
        }
        offsets[n] = write as u32;
        targets.truncate(write);
        targets.shrink_to_fit();
        let mut graph = SparseGraph {
            offsets,
            targets,
            dists: Vec::with_capacity(write),
        };
        for v in 0..n {
            for e in graph.offsets[v] as usize..graph.offsets[v + 1] as usize {
                graph.dists.push(inst.dist(v, graph.targets[e] as usize));
            }
        }
        graph
    }

    /// Number of cities.
    pub fn cities(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs (twice the number of edges).
    pub fn arcs(&self) -> usize {
        self.targets.len()
    }

    /// The neighbours of `v`, ascending by city id, with the metric
    /// distance to each.
    #[inline]
    pub fn row(&self, v: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
        self.targets[lo..hi]
            .iter()
            .zip(&self.dists[lo..hi])
            .map(|(&u, &d)| (u as usize, d))
    }
}

/// Prim MST over `graph` without the city `skip`, rooted at `root`,
/// under shifted costs: an indexed binary heap of fringe cities with
/// decrease-key, O(arcs · log n). Cities leave the fringe by
/// `(shifted cost, city)`, each attached to the first tree city that
/// offered that cost. Parent array and return value as for [`prim`]
/// (`parent[skip]` is `u32::MAX`).
///
/// # Panics
///
/// Panics if `graph` minus `skip` is not connected.
pub fn prim_sparse(
    graph: &SparseGraph,
    pi: &[i64],
    root: usize,
    skip: usize,
    parent: &mut Vec<u32>,
    scratch: &mut PrimScratch,
) -> i64 {
    let n = graph.cities();
    scratch.reset(n);
    let PrimScratch {
        best,
        who,
        heap,
        pos,
        ..
    } = scratch;
    parent.clear();
    parent.resize(n, u32::MAX);
    best[skip] = IN_TREE;
    who[root] = root as u32;
    let mut shifted_len = 0i64;
    let mut spanned = 0usize;
    let (mut v, mut cost) = (root, 0);
    loop {
        best[v] = IN_TREE;
        parent[v] = who[v];
        shifted_len += cost;
        spanned += 1;
        for (u, d) in graph.row(v) {
            let c = d + pi[v] + pi[u];
            if c < best[u] {
                let at = if best[u] == i64::MAX {
                    heap.push((c, u as u32));
                    heap.len() - 1
                } else {
                    pos[u] as usize
                };
                best[u] = c;
                who[u] = v as u32;
                sift_up(heap, pos, at, (c, u as u32));
            }
        }
        let Some((c, u)) = pop_min(heap, pos) else {
            break;
        };
        (v, cost) = (u as usize, c);
    }
    assert_eq!(spanned, n - 1, "sparse graph is not connected");
    shifted_len
}

/// Put `item` into slot `at` of the min-heap, whose key there may only
/// have dropped, and move it up to where it belongs.
fn sift_up(heap: &mut [(i64, u32)], pos: &mut [u32], mut at: usize, item: (i64, u32)) {
    while at > 0 {
        let up = (at - 1) / 2;
        if heap[up] <= item {
            break;
        }
        heap[at] = heap[up];
        pos[heap[at].1 as usize] = at as u32;
        at = up;
    }
    heap[at] = item;
    pos[item.1 as usize] = at as u32;
}

/// Take the least item off the min-heap.
fn pop_min(heap: &mut Vec<(i64, u32)>, pos: &mut [u32]) -> Option<(i64, u32)> {
    let last = heap.pop()?;
    if heap.is_empty() {
        return Some(last);
    }
    let top = heap[0];
    // Move `last` down from the root along the lesser children.
    let mut at = 0;
    loop {
        let mut child = 2 * at + 1;
        if child >= heap.len() {
            break;
        }
        if child + 1 < heap.len() && heap[child + 1] < heap[child] {
            child += 1;
        }
        if last <= heap[child] {
            break;
        }
        heap[at] = heap[child];
        pos[heap[at].1 as usize] = at as u32;
        at = child;
    }
    heap[at] = last;
    pos[last.1 as usize] = at as u32;
    Some(top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::{generate, Instance};

    /// `prim` with throw-away buffers: `(parent, shifted_len)`.
    fn mst(inst: &Instance, pi: &[i64], verts: &[u32]) -> (Vec<u32>, i64) {
        let mut parent = Vec::new();
        let len = prim(inst, pi, verts, &mut parent, &mut PrimScratch::default());
        (parent, len)
    }

    fn mst_len_brute(inst: &Instance, verts: &[u32]) -> i64 {
        // Kruskal by sorting all edges (test-only reference).
        let m = verts.len();
        let mut edges = Vec::new();
        for a in 0..m {
            for b in (a + 1)..m {
                edges.push((
                    inst.dist(verts[a] as usize, verts[b] as usize),
                    a as u32,
                    b as u32,
                ));
            }
        }
        edges.sort();
        let mut uf: Vec<u32> = (0..m as u32).collect();
        fn find(uf: &mut Vec<u32>, x: u32) -> u32 {
            if uf[x as usize] != x {
                let r = find(uf, uf[x as usize]);
                uf[x as usize] = r;
            }
            uf[x as usize]
        }
        let mut total = 0i64;
        let mut used = 0;
        for (d, a, b) in edges {
            let (ra, rb) = (find(&mut uf, a), find(&mut uf, b));
            if ra != rb {
                uf[ra as usize] = rb;
                total += d;
                used += 1;
                if used == m - 1 {
                    break;
                }
            }
        }
        total
    }

    #[test]
    fn prim_matches_kruskal() {
        let inst = generate::uniform(60, 1000.0, 42);
        let pi = vec![0i64; 60];
        let verts: Vec<u32> = (0..60).collect();
        let (_, len) = mst(&inst, &pi, &verts);
        assert_eq!(len, mst_len_brute(&inst, &verts));
    }

    #[test]
    fn prim_on_subset() {
        let inst = generate::uniform(50, 1000.0, 1);
        let pi = vec![0i64; 50];
        let verts: Vec<u32> = (10..50).collect();
        let (parent, len) = mst(&inst, &pi, &verts);
        assert_eq!(len, mst_len_brute(&inst, &verts));
        // Vertices outside the subset keep no parent.
        assert_eq!(parent[0], u32::MAX);
    }

    #[test]
    fn parent_structure_is_a_tree() {
        let inst = generate::uniform(40, 1000.0, 9);
        let pi = vec![0i64; 40];
        let verts: Vec<u32> = (0..40).collect();
        let (parent, _) = mst(&inst, &pi, &verts);
        let root = verts[0] as usize;
        assert_eq!(parent[root], root as u32);
        // Every vertex reaches the root.
        for v in 0..40usize {
            let mut cur = v;
            let mut steps = 0;
            while cur != root {
                cur = parent[cur] as usize;
                steps += 1;
                assert!(steps <= 40, "cycle in parent array");
            }
        }
    }

    #[test]
    fn potentials_shift_choice() {
        // Three collinear points; a huge potential on the middle point
        // forces the MST to connect the endpoints directly.
        let inst = Instance::new(
            "line3",
            vec![
                tsp_core::Point::new(0.0, 0.0),
                tsp_core::Point::new(1.0, 0.0),
                tsp_core::Point::new(2.0, 0.0),
            ],
            tsp_core::Metric::Euc2d,
        );
        let verts: Vec<u32> = vec![0, 1, 2];
        let (_, no_pi) = mst(&inst, &[0, 0, 0], &verts);
        assert_eq!(no_pi, 2); // 0-1, 1-2
        let (_, heavy_mid) = mst(&inst, &[0, 100, 0], &verts);
        // Tree must still span, but 0-2 (cost 2) replaces one mid edge.
        assert_eq!(heavy_mid, 2 + 101);
    }

    #[test]
    fn scratch_reuse_leaves_no_state_behind() {
        let inst = generate::clustered(70, 10_000.0, 4, 300.0, 5);
        let mut scratch = PrimScratch::default();
        let mut parent = Vec::new();
        let verts: Vec<u32> = (0..70).collect();
        let pis: [Vec<i64>; 2] = [vec![0; 70], (0..70).map(|v| (v % 7) * 40 - 100).collect()];
        for pi in pis.iter().chain(pis.iter()) {
            let len = prim(&inst, pi, &verts, &mut parent, &mut scratch);
            assert_eq!((parent.clone(), len), mst(&inst, pi, &verts));
        }
    }

    /// On a graph that holds every edge, the heap Prim finds a tree of
    /// the dense Prim's length, with and without a skipped city.
    #[test]
    fn sparse_prim_on_the_complete_graph_matches_dense() {
        let n = 45;
        let inst = generate::uniform(n, 1000.0, 17);
        // Every edge once in each direction and once more: duplicates
        // and both orientations must collapse.
        let graph = SparseGraph::from_edges(&inst, || {
            (0..n)
                .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)))
                .chain((1..n).map(|b| (b, 0)))
        });
        assert_eq!(graph.arcs(), n * (n - 1));
        let pi: Vec<i64> = (0..n as i64).map(|v| (v * 37) % 90 - 45).collect();
        let mut parent = Vec::new();
        let mut scratch = PrimScratch::default();
        let verts: Vec<u32> = (1..n as u32).collect();
        let (_, dense) = mst(&inst, &pi, &verts);
        let sparse = prim_sparse(&graph, &pi, 1, 0, &mut parent, &mut scratch);
        assert_eq!(sparse, dense);
        assert_eq!(parent[0], u32::MAX);
        assert_eq!(parent[1], 1);
        assert!(parent[2..].iter().all(|&p| p != u32::MAX && p != 0));
    }

    #[test]
    fn sparse_rows_are_sorted_symmetric_and_duplicate_free() {
        let inst = generate::clustered(200, 10_000.0, 5, 200.0, 3);
        // 6-NN edges plus a path, most of whose edges are 6-NN edges too.
        let knn = tsp_core::NeighborLists::build(&inst, 6);
        let extra: Vec<(usize, usize)> = (1..200).map(|v| (v - 1, v)).collect();
        let graph = SparseGraph::from_edges(&inst, || {
            (0..200)
                .flat_map(|v| knn.of(v).iter().map(move |&u| (v, u as usize)))
                .chain(extra.iter().copied())
        });
        for v in 0..200 {
            let row: Vec<(usize, i64)> = graph.row(v).collect();
            assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "row {v} unsorted or duplicated"
            );
            for &(u, d) in &row {
                assert_ne!(u, v);
                assert_eq!(d, inst.dist(v, u));
                assert!(
                    graph.row(u).any(|(b, _)| b == v),
                    "arc {v}->{u} has no reverse"
                );
            }
        }
        for &(a, b) in &extra {
            assert!(graph.row(a).any(|(u, _)| u == b));
        }
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn sparse_prim_rejects_a_disconnected_graph() {
        // Two clusters of four, 3-NN edges only: no edge crosses.
        let mut pts = Vec::new();
        for c in 0..2 {
            for i in 0..4 {
                pts.push(tsp_core::Point::new(c as f64 * 1e6 + i as f64, 0.0));
            }
        }
        let inst = Instance::new("split", pts, tsp_core::Metric::Euc2d);
        let knn = tsp_core::NeighborLists::build(&inst, 3);
        let graph = SparseGraph::from_edges(&inst, || {
            (0..8).flat_map(|v| knn.of(v).iter().map(move |&u| (v, u as usize)))
        });
        prim_sparse(
            &graph,
            &[0; 8],
            0,
            7,
            &mut Vec::new(),
            &mut PrimScratch::default(),
        );
    }
}
