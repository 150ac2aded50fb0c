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
//!
//! The k-nearest lists come from one batch kernel,
//! `KdTree::k_nearest_rows`, which answers a run of consecutive
//! *slots* — the cities in leaf order — in one walk of the tree:
//! leaf-mates share the root path, the scanned leaves stay warm, and
//! one sorted buffer of `k` best serves every query.

use std::ops::Range;

use crate::fan_out::fan_out;
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
/// Cities from which the root's two halves are built on two threads.
const PARALLEL_MIN_SLOTS: usize = 4_096;

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
        let mut nodes = Vec::with_capacity(node_count(n));
        if n < PARALLEL_MIN_SLOTS {
            Self::build_rec(&mut slots, 0, &mut nodes);
            return KdTree { nodes, slots };
        }
        // The root's halves are independent: build them side by side,
        // the lower one in place right after the root, where the serial
        // build puts it, the upper one apart, then append it. (Halves
        // grown from empty vectors and then merged fragmented the heap
        // enough to raise a sharded 100k run's peak RSS by 8 %.)
        let (axis, split) = split_at_median(&mut slots);
        nodes.push(Node {
            split,
            axis,
            lo: 1,
            hi: 0,
        });
        let mid = median(0, n);
        let (lo, hi) = slots.split_at_mut(mid);
        let mut upper = Vec::with_capacity(node_count(hi.len()));
        let mut halves = [(lo, 0, &mut nodes), (hi, mid, &mut upper)];
        fan_out(&mut halves, |_, (part, start, nodes)| {
            Self::build_rec(part, *start, nodes);
        });
        let offset = nodes.len() as u32;
        nodes[0].hi = offset;
        nodes.extend(upper.iter().map(|&n| match n.axis {
            LEAF => n,
            _ => Node {
                lo: n.lo + offset,
                hi: n.hi + offset,
                ..n
            },
        }));
        KdTree { nodes, slots }
    }

    /// The cities of leaf `n`, in build order.
    #[inline(always)]
    fn leaf_slots(&self, n: Node) -> &[Slot] {
        &self.slots[n.lo as usize..n.hi as usize]
    }

    /// Append the subtree over `slots`, the tree's slots from `start`
    /// on, to `nodes` in depth-first order; child indices count from
    /// the start of `nodes`. Returns the subtree's root.
    fn build_rec(slots: &mut [Slot], start: usize, nodes: &mut Vec<Node>) -> u32 {
        let me = nodes.len() as u32;
        if slots.len() <= LEAF_SIZE {
            nodes.push(Node {
                split: 0.0,
                axis: LEAF,
                lo: start as u32,
                hi: (start + slots.len()) as u32,
            });
            return me;
        }
        let (axis, split) = split_at_median(slots);
        nodes.push(Node {
            split,
            axis,
            lo: 0,
            hi: 0,
        });
        let (lo_part, hi_part) = slots.split_at_mut(median(0, slots.len()));
        let lo = Self::build_rec(lo_part, start, nodes);
        let hi = Self::build_rec(hi_part, start + lo_part.len(), nodes);
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

    /// Cities in the tree: one slot each.
    #[inline]
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// The city in slot `s`. Slots run in leaf order: a leaf's cities
    /// are consecutive slots, and so are the leaves of a subtree.
    #[inline]
    pub(crate) fn city_in_slot(&self, s: usize) -> usize {
        self.slots[s].c as usize
    }

    /// The `k` nearest other cities of the cities in slots `first ..`,
    /// one row of `k` ids per slot in `rows`, closest first. Exact,
    /// with ties broken by city id: a row is the first `k` entries of
    /// all other cities sorted by `(squared distance, id)` — the order
    /// every candidate-list builder uses, so fixed-seed runs do not
    /// depend on which builder made the lists.
    ///
    /// One batch kernel: it walks the tree once, and at each leaf
    /// answers the leaf's slots in order. A query scans its own leaf
    /// first, then climbs the path it shares with its leaf-mates,
    /// searching each ancestor's other side that the `k` best so far
    /// do not rule out; one buffer of `k` best serves every query.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k < self.len()`, or if `rows` runs past the
    /// last slot.
    pub(crate) fn k_nearest_rows(&self, first: usize, k: usize, rows: &mut [u32]) {
        assert!(
            (1..self.len()).contains(&k),
            "k = {k} nearest of {} cities",
            self.len()
        );
        let end = first + rows.len() / k;
        assert!(end <= self.len(), "rows run past the last slot");
        let mut batch = Batch {
            slots: first..end,
            rows,
            best: KBest::new(k),
            path: Vec::new(),
        };
        self.walk(0, 0..self.len(), &mut batch);
    }

    /// Answer the queries of `batch` in the subtree `node`, which holds
    /// the slots `span`.
    fn walk(&self, node: u32, span: Range<usize>, batch: &mut Batch) {
        if span.end <= batch.slots.start || span.start >= batch.slots.end {
            return;
        }
        let n = self.nodes[node as usize];
        if n.axis == LEAF {
            let k = batch.best.items.len();
            let first = batch.slots.start;
            for s in span.start.max(first)..span.end.min(batch.slots.end) {
                let q = self.slots[s].p;
                batch.best.clear();
                self.scan_leaf(n, q, s, &mut batch.best);
                for &(other, axis, split) in batch.path.iter().rev() {
                    let plane = if axis == 0 { q.x } else { q.y } - split;
                    // `<=`: a city across the plane at exactly the worst
                    // distance can still displace it on id.
                    if plane * plane <= batch.best.worst() {
                        self.knn_search(other, q, s, &mut batch.best);
                    }
                }
                let row = &mut batch.rows[(s - first) * k..(s - first + 1) * k];
                for (o, near) in row.iter_mut().zip(&batch.best.items) {
                    *o = near.c;
                }
            }
            return;
        }
        let mid = median(span.start, span.end);
        batch.path.push((n.hi, n.axis, n.split));
        self.walk(n.lo, span.start..mid, batch);
        batch.path.pop();
        batch.path.push((n.lo, n.axis, n.split));
        self.walk(n.hi, mid..span.end, batch);
        batch.path.pop();
    }

    /// Offer every city of leaf `n` but the query's own slot to `best`.
    #[inline(always)]
    fn scan_leaf(&self, n: Node, q: Point, query: usize, best: &mut KBest) {
        for (s, slot) in (n.lo as usize..).zip(self.leaf_slots(n)) {
            let d = slot.p.sq_dist(&q);
            if d <= best.worst() && s != query {
                best.offer(Near { d, c: slot.c });
            }
        }
    }

    /// Top-down k-nearest search of the subtree `node`.
    fn knn_search(&self, node: u32, q: Point, query: usize, best: &mut KBest) {
        let n = self.nodes[node as usize];
        if n.axis == LEAF {
            self.scan_leaf(n, q, query, best);
            return;
        }
        let qv = if n.axis == 0 { q.x } else { q.y };
        let (near, far) = if qv <= n.split {
            (n.lo, n.hi)
        } else {
            (n.hi, n.lo)
        };
        self.knn_search(near, q, query, best);
        let plane = qv - n.split;
        // `<=` for the reason given in `walk`.
        if plane * plane <= best.worst() {
            self.knn_search(far, q, query, best);
        }
    }
}

/// Split `slots` on the wider axis at the median: the lower half gets
/// the cities up to the split value, the upper half those from it on.
/// Returns the axis and the split value.
fn split_at_median(slots: &mut [Slot]) -> (u8, f64) {
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
    );
    for s in slots.iter() {
        min_x = min_x.min(s.p.x);
        max_x = max_x.max(s.p.x);
        min_y = min_y.min(s.p.y);
        max_y = max_y.max(s.p.y);
    }
    let mid = median(0, slots.len());
    if max_x - min_x >= max_y - min_y {
        slots.select_nth_unstable_by(mid, |a, b| a.p.x.partial_cmp(&b.p.x).unwrap());
        (0, slots[mid].p.x)
    } else {
        slots.select_nth_unstable_by(mid, |a, b| a.p.y.partial_cmp(&b.p.y).unwrap());
        (1, slots[mid].p.y)
    }
}

/// Nodes of the tree that [`KdTree::build_rec`] builds over `len`
/// slots: median splits down to leaves of at most `LEAF_SIZE`.
fn node_count(len: usize) -> usize {
    if len <= LEAF_SIZE {
        return 1;
    }
    let mid = median(0, len);
    1 + node_count(mid) + node_count(len - mid)
}

/// Where a subtree of the slots `start..end` splits: its lower child
/// holds `start..median`, its upper child `median..end`.
#[inline]
fn median(start: usize, end: usize) -> usize {
    start + (end - start) / 2
}

/// The state of one [`KdTree::k_nearest_rows`] call.
struct Batch<'a> {
    /// The slots to answer; row `i` of `rows` belongs to slot
    /// `slots.start + i`.
    slots: Range<usize>,
    rows: &'a mut [u32],
    best: KBest,
    /// The ancestors of the node being walked, root first: each one's
    /// child off the path, split axis and split value.
    path: Vec<(u32, u8, f64)>,
}

/// A city found by a k-nearest query: squared distance and id.
#[derive(Clone, Copy)]
struct Near {
    d: f64,
    c: u32,
}

impl Near {
    /// Held by an empty buffer: every city sorts before it.
    const NONE: Near = Near {
        d: f64::INFINITY,
        c: u32::MAX,
    };

    /// The `(squared distance, id)` order of the rows.
    #[inline(always)]
    fn before(&self, other: &Near) -> bool {
        self.d < other.d || (self.d == other.d && self.c < other.c)
    }
}

/// The `k` best cities seen so far, sorted by [`Near::before`] and
/// padded with [`Near::NONE`]; a newcomer is inserted in place and the
/// last one falls off.
struct KBest {
    items: Vec<Near>,
}

impl KBest {
    fn new(k: usize) -> KBest {
        KBest {
            items: vec![Near::NONE; k],
        }
    }

    fn clear(&mut self) {
        self.items.fill(Near::NONE);
    }

    /// The squared distance a city must not exceed to get in.
    #[inline(always)]
    fn worst(&self) -> f64 {
        self.items[self.items.len() - 1].d
    }

    /// Keep `near` if it sorts before the last held city; at equal
    /// distance the lower id wins, independent of traversal order.
    #[inline(always)]
    fn offer(&mut self, near: Near) {
        let mut i = self.items.len() - 1;
        if !near.before(&self.items[i]) {
            return;
        }
        while i > 0 && near.before(&self.items[i - 1]) {
            self.items[i] = self.items[i - 1];
            i -= 1;
        }
        self.items[i] = near;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Metric;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Every city's row from the batch kernel, in city order.
    fn rows_by_city(tree: &KdTree, k: usize) -> Vec<Vec<u32>> {
        let mut rows = vec![0u32; tree.len() * k];
        tree.k_nearest_rows(0, k, &mut rows);
        let mut by_city = vec![Vec::new(); tree.len()];
        for (s, row) in rows.chunks(k).enumerate() {
            by_city[tree.city_in_slot(s)] = row.to_vec();
        }
        by_city
    }

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
        let rows = rows_by_city(&KdTree::build(&inst), 10);
        for q in [0usize, 42, 249] {
            let got = &rows[q];
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
        let rows = rows_by_city(&KdTree::build(&inst), 6);
        for (q, row) in rows.iter().enumerate() {
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
            assert_eq!(*row, brute, "query {q}");
        }
    }

    #[test]
    fn halves_built_side_by_side_equal_the_serial_tree() {
        let inst = random_instance(PARALLEL_MIN_SLOTS + 901, 7);
        let tree = KdTree::build(&inst);
        let mut slots: Vec<Slot> = (0u32..)
            .zip(inst.points())
            .map(|(c, &p)| Slot { p, c })
            .collect();
        let mut nodes = Vec::new();
        KdTree::build_rec(&mut slots, 0, &mut nodes);
        let shape = |nodes: &[Node]| -> Vec<(u64, u8, u32, u32)> {
            nodes
                .iter()
                .map(|n| (n.split.to_bits(), n.axis, n.lo, n.hi))
                .collect()
        };
        assert_eq!(shape(&tree.nodes), shape(&nodes));
        let cities = |slots: &[Slot]| slots.iter().map(|s| s.c).collect::<Vec<_>>();
        assert_eq!(cities(&tree.slots), cities(&slots));
    }

    #[test]
    fn node_count_is_the_size_of_the_built_tree() {
        let sizes = (1..=LEAF_SIZE + 1).chain([4_095, 4_096, 4_097, 12_500, 50_000]);
        for n in sizes {
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
                .collect();
            let mut slots: Vec<Slot> = (0u32..).zip(&pts).map(|(c, &p)| Slot { p, c }).collect();
            let mut nodes = Vec::new();
            KdTree::build_rec(&mut slots, 0, &mut nodes);
            assert_eq!(node_count(n), nodes.len(), "n = {n}");
            if n >= 3 {
                // The reservation is exact: the build never reallocates.
                let tree = KdTree::build(&Instance::new("rand", pts, Metric::Euc2d));
                assert_eq!(node_count(n), tree.nodes.len(), "n = {n}");
                assert_eq!(tree.nodes.capacity(), tree.nodes.len(), "n = {n}");
            }
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
        let rows = rows_by_city(&KdTree::build(&inst), 5);
        for row in &rows[..50] {
            for &c in row {
                assert!((c as usize) < 50, "neighbor of cluster-0 city in cluster 1");
            }
        }
    }
}
