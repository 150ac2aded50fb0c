//! Spatial sharding: balanced k-d partition of an instance into regions
//! plus sub-instance views with global↔local city id maps.
//!
//! This is the data layer of the divide-and-optimize pipeline (DualOpt
//! style): [`Partition::build`] recursively splits the city set on the
//! wider axis into `shards` balanced regions, recording the split planes
//! in a merge tree so the stitcher can reconnect sub-tours bottom-up
//! along the same geometry that separated them. [`SubInstance::extract`]
//! then materializes one region as a real [`Instance`] a full
//! `ClkEngine` can run on, with dense local ids and a `globals` map
//! back to parent city ids.
//!
//! Determinism contract: splits compare `(coordinate, city id)` — not
//! the bare float — so the partition is a pure function of the instance
//! and the shard count, independent of platform `select_nth_unstable_by`
//! tie behavior. The same instance and shard count always produce the
//! same regions in the same order.

use crate::instance::{Instance, Point};

/// Regions get no smaller than this; [`Partition::build`] clamps the
/// requested shard count so every shard can still host a real
/// sub-instance (`Instance::new` needs ≥ 3 cities; LK wants headroom).
pub const MIN_SHARD_CITIES: usize = 8;

/// One node of the partition's merge tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionNode {
    /// A leaf region: index into [`Partition::shards`].
    Leaf { shard: u32 },
    /// An internal split: children `lo`/`hi` are node indices; `lo`
    /// holds the cities on the small side of `value` along `axis`
    /// (0 = x, 1 = y).
    Split { axis: u8, lo: u32, hi: u32 },
}

/// A balanced spatial partition of an instance into shards, plus the
/// binary merge tree of split planes that produced it.
#[derive(Debug, Clone)]
pub struct Partition {
    shards: Vec<Vec<u32>>,
    nodes: Vec<PartitionNode>,
    /// Split coordinate per node (unused for leaves; kept parallel to
    /// `nodes` so `PartitionNode` stays `Copy` without an f64 Eq issue).
    split_values: Vec<f64>,
    root: u32,
}

impl Partition {
    /// Partition `inst` into (at most) `shards` balanced regions.
    ///
    /// The effective shard count is clamped to
    /// `max(1, min(shards, n / MIN_SHARD_CITIES))`; callers should use
    /// [`Partition::shard_count`] rather than assume their request was
    /// honored verbatim.
    ///
    /// # Panics
    ///
    /// Panics if the instance metric is not geometric (matrix instances
    /// have no coordinates to split on).
    pub fn build(inst: &Instance, shards: usize) -> Self {
        assert!(
            inst.metric().is_geometric(),
            "spatial partition requires coordinates"
        );
        let n = inst.len();
        let want = shards.clamp(1, (n / MIN_SHARD_CITIES).max(1));
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut part = Partition {
            shards: Vec::with_capacity(want),
            nodes: Vec::with_capacity(2 * want),
            split_values: Vec::with_capacity(2 * want),
            root: 0,
        };
        let root = part.build_rec(inst.points(), &mut ids, want);
        part.root = root;
        part
    }

    fn build_rec(&mut self, pts: &[Point], ids: &mut [u32], want: usize) -> u32 {
        if want <= 1 {
            let shard = self.shards.len() as u32;
            let mut members = ids.to_vec();
            members.sort_unstable();
            self.shards.push(members);
            let me = self.nodes.len() as u32;
            self.nodes.push(PartitionNode::Leaf { shard });
            self.split_values.push(0.0);
            return me;
        }
        // Proportional split: the lo side gets ⌈want/2⌉ of the shards
        // and the matching fraction of the cities, so uneven shard
        // counts still come out balanced.
        let lo_want = want.div_ceil(2);
        let mid = ids.len() * lo_want / want;
        let (mut min_x, mut max_x, mut min_y, mut max_y) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for &i in ids.iter() {
            let p = pts[i as usize];
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let axis = if max_x - min_x >= max_y - min_y {
            0u8
        } else {
            1u8
        };
        // (coordinate, id) keys: bitwise-deterministic even under
        // massive coordinate ties (lattices), unlike the bare float.
        let key = |i: u32| -> (f64, u32) {
            let p = pts[i as usize];
            (if axis == 0 { p.x } else { p.y }, i)
        };
        ids.select_nth_unstable_by(mid, |&a, &b| {
            let (ka, kb) = (key(a), key(b));
            ka.0.partial_cmp(&kb.0).unwrap().then(ka.1.cmp(&kb.1))
        });
        let split = key(ids[mid]).0;
        let me = self.nodes.len() as u32;
        self.nodes.push(PartitionNode::Split { axis, lo: 0, hi: 0 });
        self.split_values.push(split);
        let (lo_ids, hi_ids) = ids.split_at_mut(mid);
        let lo = self.build_rec(pts, lo_ids, lo_want);
        let hi = self.build_rec(pts, hi_ids, want - lo_want);
        if let PartitionNode::Split { lo: l, hi: h, .. } = &mut self.nodes[me as usize] {
            *l = lo;
            *h = hi;
        }
        me
    }

    /// Number of regions actually produced (after clamping).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Member city ids of shard `s`, sorted ascending.
    #[inline]
    pub fn shard(&self, s: usize) -> &[u32] {
        &self.shards[s]
    }

    /// All shards, in deterministic build order.
    #[inline]
    pub fn shards(&self) -> &[Vec<u32>] {
        &self.shards
    }

    /// Size of the largest shard — the per-node working-set bound.
    pub fn max_shard_len(&self) -> usize {
        self.shards.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Root node index of the merge tree.
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Merge-tree node `i`.
    #[inline]
    pub fn node(&self, i: u32) -> PartitionNode {
        self.nodes[i as usize]
    }

    /// Split coordinate of internal node `i` (0.0 for leaves).
    #[inline]
    pub fn split_value(&self, i: u32) -> f64 {
        self.split_values[i as usize]
    }
}

/// One region of a parent instance, materialized as a standalone
/// [`Instance`] with dense local ids `0..m` and a map back to the
/// parent's city ids.
///
/// The local metric is the parent metric over the same coordinates, so
/// a local edge `(i, j)` has exactly the parent weight
/// `parent.dist(globals[i], globals[j])` — sub-tour lengths transfer to
/// the global tour without re-rounding.
#[derive(Debug, Clone)]
pub struct SubInstance {
    instance: Instance,
    globals: Vec<u32>,
}

impl SubInstance {
    /// Extract the cities `globals` (sorted ascending, unique) of
    /// `parent` as a standalone instance named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not geometric, `globals` is not strictly
    /// ascending, or fewer than 3 cities are given.
    pub fn extract(parent: &Instance, globals: &[u32], name: impl Into<String>) -> Self {
        assert!(
            parent.metric().is_geometric(),
            "sub-instance extraction requires coordinates"
        );
        assert!(
            globals.windows(2).all(|w| w[0] < w[1]),
            "sub-instance members must be sorted and unique"
        );
        let pts: Vec<Point> = globals.iter().map(|&g| parent.point(g as usize)).collect();
        SubInstance {
            instance: Instance::new(name, pts, parent.metric().clone()),
            globals: globals.to_vec(),
        }
    }

    /// The standalone instance over local ids `0..len`.
    #[inline]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Number of cities in the region.
    #[inline]
    pub fn len(&self) -> usize {
        self.globals.len()
    }

    /// Whether the region is empty (never true for valid extractions).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.globals.is_empty()
    }

    /// Parent city ids, index = local id.
    #[inline]
    pub fn globals(&self) -> &[u32] {
        &self.globals
    }

    /// Parent id of local city `local`.
    #[inline]
    pub fn global_of(&self, local: usize) -> u32 {
        self.globals[local]
    }

    /// Local id of parent city `global`, if it is in this region.
    pub fn local_of(&self, global: u32) -> Option<usize> {
        self.globals.binary_search(&global).ok()
    }

    /// Translate a local tour order to parent city ids.
    pub fn to_global_order(&self, local_order: &[u32]) -> Vec<u32> {
        local_order
            .iter()
            .map(|&l| self.globals[l as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::uniform;
    use crate::metric::Metric;

    #[test]
    fn covers_all_cities_exactly_once() {
        let inst = uniform(500, 1000.0, 7);
        for shards in [1, 2, 3, 5, 8, 16] {
            let part = Partition::build(&inst, shards);
            assert_eq!(part.shard_count(), shards);
            let mut seen = vec![false; inst.len()];
            for s in part.shards() {
                assert!(s.windows(2).all(|w| w[0] < w[1]), "members sorted");
                for &c in s {
                    assert!(!seen[c as usize], "city {c} in two shards");
                    seen[c as usize] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "city missing from partition");
        }
    }

    #[test]
    fn shards_are_balanced() {
        let inst = uniform(1000, 1000.0, 9);
        for shards in [4, 7, 16] {
            let part = Partition::build(&inst, shards);
            let min = part.shards().iter().map(Vec::len).min().unwrap();
            let max = part.max_shard_len();
            // Proportional splits keep shard sizes within one of each
            // other up to rounding per level.
            assert!(
                max - min <= shards,
                "shards={shards}: sizes spread {min}..{max}"
            );
        }
    }

    #[test]
    fn deterministic_even_on_lattices() {
        // Lattices maximize coordinate ties; the (coord, id) key must
        // give the same partition every time.
        let mut pts = Vec::new();
        for y in 0..20 {
            for x in 0..20 {
                pts.push(Point::new(x as f64, y as f64));
            }
        }
        let inst = Instance::new("lattice", pts, Metric::Euc2d);
        let a = Partition::build(&inst, 8);
        let b = Partition::build(&inst, 8);
        assert_eq!(a.shards(), b.shards());
    }

    #[test]
    fn shard_count_clamped_for_tiny_instances() {
        let inst = uniform(20, 100.0, 1);
        let part = Partition::build(&inst, 64);
        assert_eq!(part.shard_count(), 20 / MIN_SHARD_CITIES);
        assert!(part.shards().iter().all(|s| s.len() >= 3));
    }

    #[test]
    fn merge_tree_spans_all_shards() {
        let inst = uniform(300, 1000.0, 3);
        let part = Partition::build(&inst, 6);
        // Walk the tree and collect leaves; every shard appears once.
        let mut leaves = Vec::new();
        let mut stack = vec![part.root()];
        while let Some(i) = stack.pop() {
            match part.node(i) {
                PartitionNode::Leaf { shard } => leaves.push(shard),
                PartitionNode::Split { lo, hi, .. } => {
                    stack.push(lo);
                    stack.push(hi);
                }
            }
        }
        leaves.sort_unstable();
        assert_eq!(leaves, (0..6u32).collect::<Vec<_>>());
    }

    #[test]
    fn split_separates_sides_geometrically() {
        let inst = uniform(400, 1000.0, 5);
        let part = Partition::build(&inst, 2);
        let (axis, lo, hi) = match part.node(part.root()) {
            PartitionNode::Split { axis, lo, hi } => (axis, lo, hi),
            _ => panic!("root of a 2-shard partition must split"),
        };
        let value = part.split_value(part.root());
        let coord = |c: u32| {
            let p = inst.point(c as usize);
            if axis == 0 {
                p.x
            } else {
                p.y
            }
        };
        let (lo_shard, hi_shard) = match (part.node(lo), part.node(hi)) {
            (PartitionNode::Leaf { shard: a }, PartitionNode::Leaf { shard: b }) => (a, b),
            _ => panic!("2-shard tree has leaf children"),
        };
        for &c in part.shard(lo_shard as usize) {
            assert!(coord(c) <= value);
        }
        for &c in part.shard(hi_shard as usize) {
            assert!(coord(c) >= value);
        }
    }

    #[test]
    fn sub_instance_maps_round_trip() {
        let inst = uniform(200, 500.0, 11);
        let part = Partition::build(&inst, 4);
        for s in 0..part.shard_count() {
            let sub = SubInstance::extract(&inst, part.shard(s), "sub");
            assert_eq!(sub.len(), part.shard(s).len());
            for local in 0..sub.len() {
                let g = sub.global_of(local);
                assert_eq!(sub.local_of(g), Some(local));
                assert_eq!(sub.instance().point(local), inst.point(g as usize));
            }
            // Distances transfer exactly.
            let m = sub.len();
            for (i, j) in [(0, 1), (0, m - 1), (m / 2, m - 1)] {
                assert_eq!(
                    sub.instance().dist(i, j),
                    inst.dist(sub.global_of(i) as usize, sub.global_of(j) as usize)
                );
            }
            // Order translation.
            let local_order: Vec<u32> = (0..m as u32).rev().collect();
            let global_order = sub.to_global_order(&local_order);
            assert_eq!(global_order.len(), m);
            assert_eq!(global_order[0], sub.global_of(m - 1));
        }
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_members_rejected() {
        let inst = uniform(10, 100.0, 2);
        SubInstance::extract(&inst, &[3, 1, 2], "bad");
    }
}
