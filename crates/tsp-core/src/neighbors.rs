//! k-nearest-neighbor candidate lists.
//!
//! Lin-Kernighan style searches never scan all `n` cities when extending
//! a move; they consult a fixed-size candidate list per city (Concorde's
//! default is 10–12 quadrant/nearest neighbors). [`NeighborLists`] stores
//! the lists in one flat array (CSR-like, `k` entries per city) for cache
//! friendliness, built from the k-d tree for geometric instances and by
//! brute force for explicit-matrix ones.
//!
//! Next to each neighbor id the structure caches the exact metric
//! distance in a parallel `i64` array, so candidate scans in the LK
//! inner loops read a precomputed value instead of recomputing sqrt
//! (EUC_2D) or trig (GEO) per probe. On a geometric instance the rows
//! are made in the k-d tree's leaf order: [`fan_out`] gets chunks of
//! consecutive slots, each answered by one batch kernel
//! (`KdTree::k_nearest_rows`) whose neighbouring queries share a warm
//! path through the tree, and each chunk's finished rows are then
//! scattered to their cities.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Mutex;

use crate::fan_out::fan_out;
use crate::instance::Instance;
use crate::kdtree::KdTree;

/// Cities per k-NN work item. A smaller instance is one item, so its
/// build stays serial: thread spawn overhead would dominate the k-NN
/// work.
const PARALLEL_MIN_CITIES: usize = 2_048;

/// Flat `k`-nearest-neighbor lists for every city, with the metric
/// distance to each neighbor cached alongside.
#[derive(Debug, Clone)]
pub struct NeighborLists {
    k: usize,
    flat: Vec<u32>,
    /// `dists[c*k + j] == inst.dist(c, flat[c*k + j])`, CSR-parallel to
    /// `flat`. For α-nearness lists the *order* follows α, but the
    /// cached values are still true metric distances.
    dists: Vec<i64>,
    /// Whether every row is the `k` nearest cities by (squared distance
    /// of the coordinates, id), nearest first; see [`Self::is_nearest`].
    nearest: bool,
}

impl NeighborLists {
    /// The one width contract of every candidate-list builder: a row
    /// holds at least one city (`k` above `n − 1` is clamped to it).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, naming `k` and the instance size `n`.
    pub fn assert_k(k: usize, n: usize) {
        assert!(
            k >= 1,
            "candidate lists need k >= 1, got k = {k} for n = {n} cities"
        );
    }

    /// Build lists of `k` nearest neighbors per city using the k-d tree
    /// (exact, robust on clustered data).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` ([`Self::assert_k`]).
    pub fn build(inst: &Instance, k: usize) -> Self {
        let n = inst.len();
        Self::assert_k(k, n);
        let k = k.min(n - 1);
        if !inst.metric().is_geometric() {
            return Self::build_brute_force(inst, k);
        }
        let tree = KdTree::build(inst);
        // Rows are made in the tree's slot order.
        Self::build_rows(inst, k, true, &|s| tree.city_in_slot(s), &|first, ids| {
            tree.k_nearest_rows(first, k, ids)
        })
    }

    /// O(n²) fallback, ordered by the instance metric itself for
    /// explicit matrices and by unrounded squared Euclidean distance for
    /// geometric instances — the latter matches the `(dist, id)` order
    /// of the k-d tree queries exactly, so both builders produce
    /// identical candidate ids.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` ([`Self::assert_k`]).
    pub fn build_brute_force(inst: &Instance, k: usize) -> Self {
        let n = inst.len();
        Self::assert_k(k, n);
        let k = k.min(n - 1);
        let geometric = inst.metric().is_geometric();
        let row = |c: usize| {
            let others = (0..n as u32).filter(|&o| o as usize != c);
            if geometric {
                let p = inst.point(c);
                let keyed = others.map(|o| (inst.point(o as usize).sq_dist(&p), o));
                k_smallest(keyed.collect(), k, |a, b| {
                    a.partial_cmp(b).expect("squared distances are never NaN")
                })
            } else {
                let keyed = others.map(|o| (inst.dist(c, o as usize), o));
                k_smallest(keyed.collect(), k, Ord::cmp)
            }
        };
        Self::build_rows(inst, k, geometric, &|c| c, &|first, ids| {
            for (c, out) in (first..).zip(ids.chunks_exact_mut(k)) {
                out.copy_from_slice(&row(c));
            }
        })
    }

    /// Shared builder: `fill(first, ids)` writes the `k` ids of every
    /// row from `first` on into `ids`, and row `r` belongs to city
    /// `city(r)`. Chunks of [`PARALLEL_MIN_CITIES`] rows are fanned
    /// out; each then scatters its ids to their cities and caches the
    /// metric distances there, so no row but a chunk's ids is held
    /// twice. `nearest` records whether the rows are the
    /// coordinate-nearest cities.
    fn build_rows<C, F>(inst: &Instance, k: usize, nearest: bool, city: &C, fill: &F) -> Self
    where
        C: Fn(usize) -> usize + Sync,
        F: Fn(usize, &mut [u32]) + Sync,
    {
        let n = inst.len();
        let mut flat = vec![0u32; n * k];
        let mut dists = vec![0i64; n * k];
        let out = Mutex::new((&mut flat[..], &mut dists[..]));
        let mut chunks: Vec<Range<usize>> = (0..n)
            .step_by(PARALLEL_MIN_CITIES)
            .map(|first| first..n.min(first + PARALLEL_MIN_CITIES))
            .collect();
        fan_out(&mut chunks, |_, rows| {
            let mut ids = vec![0u32; rows.len() * k];
            fill(rows.start, &mut ids);
            let mut out = out.lock().expect("no chunk panics holding the lists");
            let (flat, dists) = &mut *out;
            for (r, row) in rows.clone().zip(ids.chunks_exact(k)) {
                let c = city(r);
                flat[c * k..(c + 1) * k].copy_from_slice(row);
                for (d, &o) in dists[c * k..(c + 1) * k].iter_mut().zip(row) {
                    *d = inst.dist(c, o as usize);
                }
            }
        });
        NeighborLists {
            k,
            flat,
            dists,
            nearest,
        }
    }

    /// Construct from precomputed flat lists (used by the α-nearness
    /// builder in the `heldkarp` crate). Distances are cached from the
    /// instance metric — the list *order* may follow another key (α),
    /// but the cached values are always `inst.dist`. The rows count as
    /// any order ([`Self::is_nearest`] is `false`), whatever they hold.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` ([`Self::assert_k`]) or
    /// `flat.len() != inst.len() * k`.
    pub fn from_flat(inst: &Instance, k: usize, flat: Vec<u32>) -> Self {
        Self::assert_k(k, inst.len());
        assert!(flat.len() == inst.len() * k, "flat length must be n*k");
        let mut dists = vec![0i64; flat.len()];
        for c in 0..inst.len() {
            for j in 0..k {
                dists[c * k + j] = inst.dist(c, flat[c * k + j] as usize);
            }
        }
        NeighborLists {
            k,
            flat,
            dists,
            nearest: false,
        }
    }

    /// Whether every row is the `k` nearest other cities by (squared
    /// Euclidean distance of the coordinates, id), nearest first — what
    /// [`Self::build`] and [`Self::build_brute_force`] make on a
    /// geometric instance. Then a row proves which city is nearest to
    /// its owner among any set it holds a closer member of, which is
    /// what tour construction reads rows for; rows in any other order
    /// (α-nearness, hybrid, a matrix metric) prove nothing of the kind.
    #[inline]
    pub fn is_nearest(&self) -> bool {
        self.nearest
    }

    /// Candidates of city `c`, nearest first.
    #[inline(always)]
    pub fn of(&self, c: usize) -> &[u32] {
        &self.flat[c * self.k..(c + 1) * self.k]
    }

    /// Candidates of city `c` with their cached metric distances.
    #[inline(always)]
    pub fn of_with_dists(&self, c: usize) -> (&[u32], &[i64]) {
        let range = c * self.k..(c + 1) * self.k;
        (&self.flat[range.clone()], &self.dists[range])
    }

    /// Cached distances to the candidates of city `c` (parallel to
    /// [`Self::of`]).
    #[inline(always)]
    pub fn dists_of(&self, c: usize) -> &[i64] {
        &self.dists[c * self.k..(c + 1) * self.k]
    }

    /// List length `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cities covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.flat.len() / self.k
    }

    /// Never empty for valid instances.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }
}

/// The ids of the `k` smallest `(key, id)` pairs under `cmp`, smallest
/// first. `cmp` must be a total order (ids are distinct, so a total
/// order on keys makes one): then the survivors and their order equal
/// a full sort's prefix, at a selection's cost.
fn k_smallest<K>(
    mut keyed: Vec<(K, u32)>,
    k: usize,
    cmp: impl Fn(&(K, u32), &(K, u32)) -> Ordering,
) -> Vec<u32> {
    if k < keyed.len() {
        keyed.select_nth_unstable_by(k, &cmp);
        keyed.truncate(k);
    }
    keyed.sort_unstable_by(&cmp);
    keyed.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Point;
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
    fn kdtree_and_brute_force_agree_on_ids() {
        // Stronger than distance agreement: the candidate *ids* must be
        // identical between the k-d tree and the brute-force oracle.
        let inst = random_instance(150, 8);
        let a = NeighborLists::build(&inst, 6);
        let b = NeighborLists::build_brute_force(&inst, 6);
        for c in 0..150 {
            assert_eq!(a.of(c), b.of(c), "kdtree vs brute, city {c}");
        }
    }

    #[test]
    fn builders_agree_on_ids_under_heavy_ties() {
        // A lattice is all ties: each city has 4 neighbors at d, 4 at
        // d√2, 4 at 2d... Both builders must resolve them to the same
        // (dist, id)-sorted prefix.
        let mut pts = Vec::new();
        for y in 0..11 {
            for x in 0..11 {
                pts.push(Point::new(x as f64 * 7.0, y as f64 * 7.0));
            }
        }
        let inst = Instance::new("lattice", pts, Metric::Euc2d);
        let tree = NeighborLists::build(&inst, 6);
        let brute = NeighborLists::build_brute_force(&inst, 6);
        for c in 0..121 {
            assert_eq!(tree.of(c), brute.of(c), "kdtree vs brute, city {c}");
        }
    }

    #[test]
    fn lists_sorted_by_distance() {
        let inst = random_instance(100, 9);
        let nl = NeighborLists::build(&inst, 8);
        for c in 0..100 {
            let ds: Vec<f64> = nl
                .of(c)
                .iter()
                .map(|&o| inst.point(o as usize).sq_dist(&inst.point(c)))
                .collect();
            for w in ds.windows(2) {
                assert!(w[0] <= w[1], "city {c} list not sorted");
            }
        }
    }

    #[test]
    fn cached_distances_match_instance_metric() {
        // One scalar loop caches the distances for every metric variant
        // (GEO coordinates stay inside the DDD.MM range).
        let pts = random_instance(120, 14).points().to_vec();
        let geo_pts = pts.iter().map(|p| Point::new(p.x / 12.0, p.y / 6.0));
        let euc = Instance::new("euc", pts.clone(), Metric::Euc2d);
        let matrix: Vec<i64> = (0..120 * 120)
            .map(|i| euc.dist(i / 120, i % 120) * 3 + 1)
            .collect();
        let insts = [
            euc,
            Instance::new("ceil", pts.clone(), Metric::Ceil2d),
            Instance::new("att", pts.clone(), Metric::Att),
            Instance::new("geo", geo_pts.collect(), Metric::Geo),
            Instance::new("max", pts.clone(), Metric::Max2d),
            Instance::new("man", pts, Metric::Man2d),
            Instance::explicit("explicit", matrix, 120),
        ];
        for inst in &insts {
            let nl = NeighborLists::build(inst, 7);
            for c in 0..120 {
                let (ids, ds) = nl.of_with_dists(c);
                assert_eq!(ids.len(), ds.len());
                for (j, (&o, &d)) in ids.iter().zip(ds).enumerate() {
                    assert_eq!(d, inst.dist(c, o as usize), "city {c} cand {j}");
                }
                assert_eq!(nl.dists_of(c), ds);
            }
        }
    }

    #[test]
    fn rows_in_leaf_order_reach_their_cities() {
        // Two chunks of slots, each scattered to its cities.
        let inst = random_instance(3_000, 21);
        let nl = NeighborLists::build(&inst, 5);
        let brute = NeighborLists::build_brute_force(&inst, 5);
        assert_eq!(nl.len(), 3_000);
        assert_eq!(nl.flat, brute.flat);
        assert_eq!(nl.dists, brute.dists);
    }

    #[test]
    fn rows_record_whether_they_are_the_nearest() {
        let inst = random_instance(40, 12);
        assert!(NeighborLists::build(&inst, 5).is_nearest());
        assert!(NeighborLists::build_brute_force(&inst, 5).is_nearest());
        let flat = NeighborLists::build(&inst, 5).flat;
        assert!(!NeighborLists::from_flat(&inst, 5, flat).is_nearest());
        let m = (0..16usize)
            .map(|i| (i / 4).abs_diff(i % 4) as i64)
            .collect();
        assert!(!NeighborLists::build(&Instance::explicit("m4", m, 4), 2).is_nearest());
    }

    #[test]
    #[should_panic(expected = "candidate lists need k >= 1, got k = 0 for n = 30 cities")]
    fn tree_lists_of_width_zero_are_refused() {
        NeighborLists::build(&random_instance(30, 1), 0);
    }

    #[test]
    #[should_panic(expected = "candidate lists need k >= 1, got k = 0 for n = 30 cities")]
    fn brute_force_lists_of_width_zero_are_refused() {
        NeighborLists::build_brute_force(&random_instance(30, 1), 0);
    }

    #[test]
    #[should_panic(expected = "candidate lists need k >= 1, got k = 0 for n = 3 cities")]
    fn flat_lists_of_width_zero_are_refused() {
        NeighborLists::from_flat(&random_instance(3, 2), 0, Vec::new());
    }

    #[test]
    fn k_clamped_to_n_minus_1() {
        let inst = random_instance(5, 1);
        let nl = NeighborLists::build(&inst, 50);
        assert_eq!(nl.k(), 4);
        assert_eq!(nl.len(), 5);
    }

    #[test]
    fn brute_force_for_explicit() {
        #[rustfmt::skip]
        let m = vec![
            0, 5, 2, 9,
            5, 0, 4, 1,
            2, 4, 0, 7,
            9, 1, 7, 0,
        ];
        let inst = Instance::explicit("m4", m, 4);
        let nl = NeighborLists::build(&inst, 2);
        assert_eq!(nl.of(0), &[2, 1]);
        assert_eq!(nl.of(1), &[3, 2]);
        assert_eq!(nl.of(3), &[1, 2]);
        assert_eq!(nl.dists_of(0), &[2, 5]);
    }

    #[test]
    fn no_self_loops() {
        let inst = random_instance(80, 10);
        let nl = NeighborLists::build(&inst, 10);
        for c in 0..80 {
            assert!(!nl.of(c).contains(&(c as u32)));
        }
    }

    #[test]
    fn from_flat_roundtrip() {
        let inst = random_instance(3, 2);
        let nl = NeighborLists::from_flat(&inst, 2, vec![1, 2, 0, 2, 0, 1]);
        assert_eq!(nl.len(), 3);
        assert_eq!(nl.of(1), &[0, 2]);
        assert_eq!(nl.dists_of(1)[0], inst.dist(1, 0));
        assert_eq!(nl.dists_of(1)[1], inst.dist(1, 2));
    }
}
