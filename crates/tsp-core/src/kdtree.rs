//! A 2-D k-d tree over city coordinates.
//!
//! Used for the k-nearest-neighbor queries behind the candidate lists
//! (robust on clustered `C`-style and drill-plate `fl`-style data), and
//! by the Quick-Borůvka and nearest-neighbor tour constructions, which
//! need *filtered* nearest-neighbor queries ("nearest city that still
//! has tour degree < 2").
//!
//! The tree is built once over flat arrays (no per-node allocation,
//! perf-book idiom) and is immutable; deletions needed by constructions
//! are handled by caller-supplied `skip` predicates.

use crate::instance::{Instance, Point};

/// Flat k-d tree node. Leaves hold a range of the slot array.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Splitting coordinate value.
    split: f64,
    /// Splitting axis: 0 = x, 1 = y. Leaves use `u8::MAX`.
    axis: u8,
    /// Left/lo child index in `nodes`, or start of leaf range.
    lo: u32,
    /// Right/hi child index in `nodes`, or end of leaf range.
    hi: u32,
}

const LEAF: u8 = u8::MAX;
const LEAF_SIZE: usize = 8;

/// A city in a leaf, next to its coordinates so a leaf scan reads one
/// contiguous range.
#[derive(Debug, Clone, Copy)]
struct Slot {
    p: Point,
    c: u32,
}

/// An immutable 2-D k-d tree over the cities of a geometric instance.
#[derive(Debug)]
pub struct KdTree {
    nodes: Vec<Node>,
    /// The cities in leaf order; leaves reference contiguous ranges.
    slots: Vec<Slot>,
    /// The slot of each city.
    slot_of: Vec<u32>,
}

impl KdTree {
    /// Build the tree over all cities.
    ///
    /// # Panics
    ///
    /// Panics if the instance metric is not geometric.
    pub fn build(inst: &Instance) -> Self {
        assert!(
            inst.metric().is_geometric(),
            "k-d tree requires coordinates"
        );
        let mut slots: Vec<Slot> = (0u32..)
            .zip(inst.points())
            .map(|(c, &p)| Slot { p, c })
            .collect();
        let n = slots.len();
        let mut nodes = Vec::with_capacity(2 * n / LEAF_SIZE + 2);
        Self::build_rec(&mut slots, 0, n, &mut nodes);
        let mut slot_of = vec![0u32; n];
        for (i, s) in (0u32..).zip(&slots) {
            slot_of[s.c as usize] = i;
        }
        KdTree {
            nodes,
            slots,
            slot_of,
        }
    }

    /// The cities of leaf `n`, in build order.
    #[inline(always)]
    fn leaf_slots(&self, n: Node) -> &[Slot] {
        &self.slots[n.lo as usize..n.hi as usize]
    }

    fn build_rec(slots: &mut [Slot], start: usize, end: usize, nodes: &mut Vec<Node>) -> u32 {
        let me = nodes.len() as u32;
        if end - start <= LEAF_SIZE {
            nodes.push(Node {
                split: 0.0,
                axis: LEAF,
                lo: start as u32,
                hi: end as u32,
            });
            return me;
        }
        // Split on the wider axis at the median.
        let slice = &mut slots[start..end];
        let (mut min_x, mut max_x, mut min_y, mut max_y) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for s in slice.iter() {
            min_x = min_x.min(s.p.x);
            max_x = max_x.max(s.p.x);
            min_y = min_y.min(s.p.y);
            max_y = max_y.max(s.p.y);
        }
        let mid = slice.len() / 2;
        let (axis, split) = if max_x - min_x >= max_y - min_y {
            slice.select_nth_unstable_by(mid, |a, b| a.p.x.partial_cmp(&b.p.x).unwrap());
            (0u8, slice[mid].p.x)
        } else {
            slice.select_nth_unstable_by(mid, |a, b| a.p.y.partial_cmp(&b.p.y).unwrap());
            (1u8, slice[mid].p.y)
        };
        nodes.push(Node {
            split,
            axis,
            lo: 0,
            hi: 0,
        });
        let lo = Self::build_rec(slots, start, start + mid, nodes);
        let hi = Self::build_rec(slots, start + mid, end, nodes);
        nodes[me as usize].lo = lo;
        nodes[me as usize].hi = hi;
        me
    }

    /// The nearest city to `q` for which `skip` returns `false`
    /// (squared-Euclidean metric); of several at the same distance, the
    /// first the search visits. Returns `None` when every city is
    /// skipped. `skip` is asked only about cities nearer than the best
    /// one found so far.
    ///
    /// Typical uses: `skip = |c| c == query` for plain NN, or
    /// `skip = |c| degree[c] >= 2 || c == query` inside Quick-Borůvka.
    pub fn nearest_filtered<F: FnMut(usize) -> bool>(
        &self,
        q: Point,
        mut skip: F,
    ) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        self.search(0, q, &mut best, &mut skip);
        best.map(|(_, c)| c)
    }

    /// The nearest city to the point `q` excluding city `exclude`.
    pub fn nearest_excluding(&self, q: Point, exclude: usize) -> Option<usize> {
        self.nearest_filtered(q, |c| c == exclude)
    }

    fn search<F: FnMut(usize) -> bool>(
        &self,
        node: u32,
        q: Point,
        best: &mut Option<(f64, usize)>,
        skip: &mut F,
    ) {
        let n = self.nodes[node as usize];
        if n.axis == LEAF {
            for s in self.leaf_slots(n) {
                let d = s.p.sq_dist(&q);
                if best.is_none_or(|(bd, _)| d < bd) && !skip(s.c as usize) {
                    *best = Some((d, s.c as usize));
                }
            }
            return;
        }
        let qv = if n.axis == 0 { q.x } else { q.y };
        let (near, far) = if qv <= n.split {
            (n.lo, n.hi)
        } else {
            (n.hi, n.lo)
        };
        self.search(near, q, best, skip);
        let plane = qv - n.split;
        if best.is_none_or(|(bd, _)| plane * plane < bd) {
            self.search(far, q, best, skip);
        }
    }

    /// The `k` nearest cities to city `query` (excluding itself),
    /// closest first. Exact, with ties broken by city id: the result is
    /// the first `k` entries of all cities sorted by `(distance, id)` —
    /// the same order every candidate-list builder uses, so fixed-seed
    /// runs do not depend on which spatial index built the lists.
    pub fn k_nearest(&self, query: usize, k: usize) -> Vec<u32> {
        let q = self.slots[self.slot_of[query] as usize].p;
        // Max-heap of (dist, city) capped at k.
        let mut heap: std::collections::BinaryHeap<(OrdF64, u32)> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        self.knn_search(0, q, query, k, &mut heap);
        let mut out: Vec<(OrdF64, u32)> = heap.into_vec();
        out.sort();
        out.into_iter().map(|(_, c)| c).collect()
    }

    fn knn_search(
        &self,
        node: u32,
        q: Point,
        query: usize,
        k: usize,
        heap: &mut std::collections::BinaryHeap<(OrdF64, u32)>,
    ) {
        let n = self.nodes[node as usize];
        if n.axis == LEAF {
            for s in self.leaf_slots(n) {
                if s.c as usize == query {
                    continue;
                }
                let cand = (OrdF64(s.p.sq_dist(&q)), s.c);
                if heap.len() < k {
                    heap.push(cand);
                } else if let Some(&top) = heap.peek() {
                    // Full-tuple comparison: at equal distance the lower
                    // id wins, independent of traversal order.
                    if cand < top {
                        heap.pop();
                        heap.push(cand);
                    }
                }
            }
            return;
        }
        let qv = if n.axis == 0 { q.x } else { q.y };
        let (near, far) = if qv <= n.split {
            (n.lo, n.hi)
        } else {
            (n.hi, n.lo)
        };
        self.knn_search(near, q, query, k, heap);
        let plane = qv - n.split;
        // `<=`: a far-side city at exactly the current worst distance can
        // still displace it on id, so equality must not prune.
        let need_far = heap.len() < k
            || heap
                .peek()
                .is_none_or(|&(OrdF64(worst), _)| plane * plane <= worst);
        if need_far {
            self.knn_search(far, q, query, k, heap);
        }
    }
}

/// Total-ordered f64 wrapper for heap use (distances are never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("distance is never NaN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Metric;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn random_instance(n: usize, seed: u64) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        Instance::new("rand", pts, Metric::Euc2d)
    }

    #[test]
    fn nearest_matches_brute_force() {
        let inst = random_instance(300, 11);
        let tree = KdTree::build(&inst);
        for q in [0usize, 13, 150, 299] {
            let got = tree.nearest_excluding(inst.point(q), q).unwrap();
            let qp = inst.point(q);
            let brute = (0..300)
                .filter(|&c| c != q)
                .min_by(|&a, &b| {
                    inst.point(a)
                        .sq_dist(&qp)
                        .partial_cmp(&inst.point(b).sq_dist(&qp))
                        .unwrap()
                })
                .unwrap();
            assert_eq!(
                inst.point(got).sq_dist(&qp),
                inst.point(brute).sq_dist(&qp),
                "query {q}"
            );
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let inst = random_instance(250, 22);
        let tree = KdTree::build(&inst);
        for q in [0usize, 42, 249] {
            let got = tree.k_nearest(q, 10);
            let qp = inst.point(q);
            let mut brute: Vec<u32> = (0..250u32).filter(|&c| c as usize != q).collect();
            brute.sort_by(|&a, &b| {
                inst.point(a as usize)
                    .sq_dist(&qp)
                    .partial_cmp(&inst.point(b as usize).sq_dist(&qp))
                    .unwrap()
            });
            brute.truncate(10);
            let gd: Vec<f64> = got
                .iter()
                .map(|&c| inst.point(c as usize).sq_dist(&qp))
                .collect();
            let bd: Vec<f64> = brute
                .iter()
                .map(|&c| inst.point(c as usize).sq_dist(&qp))
                .collect();
            assert_eq!(gd, bd, "query {q}");
        }
    }

    #[test]
    fn knn_ties_broken_by_city_id() {
        // A lattice has massive distance ties (4 cities at d, 4 at d√2,
        // ...); the ids returned must be exactly the (dist, id)-sorted
        // prefix, not whatever order the tree traversal happened to
        // find them in.
        let mut pts = Vec::new();
        for y in 0..12 {
            for x in 0..12 {
                pts.push(Point::new(x as f64 * 10.0, y as f64 * 10.0));
            }
        }
        let inst = Instance::new("lattice", pts, Metric::Euc2d);
        let tree = KdTree::build(&inst);
        for q in 0..144usize {
            let qp = inst.point(q);
            let mut brute: Vec<u32> = (0..144u32).filter(|&c| c as usize != q).collect();
            brute.sort_by(|&a, &b| {
                inst.point(a as usize)
                    .sq_dist(&qp)
                    .partial_cmp(&inst.point(b as usize).sq_dist(&qp))
                    .unwrap()
                    .then(a.cmp(&b))
            });
            brute.truncate(6);
            assert_eq!(tree.k_nearest(q, 6), brute, "query {q}");
        }
    }

    #[test]
    fn filtered_search_skips() {
        let inst = random_instance(100, 3);
        let tree = KdTree::build(&inst);
        let q = inst.point(0);
        let first = tree.nearest_excluding(q, 0).unwrap();
        let second = tree.nearest_filtered(q, |c| c == 0 || c == first).unwrap();
        assert_ne!(first, second);
        let qd1 = inst.point(first).sq_dist(&q);
        let qd2 = inst.point(second).sq_dist(&q);
        assert!(qd2 >= qd1);
    }

    #[test]
    fn all_skipped_returns_none() {
        let inst = random_instance(50, 4);
        let tree = KdTree::build(&inst);
        assert!(tree.nearest_filtered(inst.point(0), |_| true).is_none());
    }

    #[test]
    fn clustered_data() {
        // Two tight clusters far apart; nearest neighbors stay in-cluster.
        let mut pts = Vec::new();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            pts.push(Point::new(
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.0..10.0),
            ));
        }
        for _ in 0..50 {
            pts.push(Point::new(
                rng.gen_range(10_000.0..10_010.0),
                rng.gen_range(0.0..10.0),
            ));
        }
        let inst = Instance::new("two-clusters", pts, Metric::Euc2d);
        let tree = KdTree::build(&inst);
        for q in 0..50 {
            for c in tree.k_nearest(q, 5) {
                assert!((c as usize) < 50, "neighbor of cluster-0 city in cluster 1");
            }
        }
    }
}
