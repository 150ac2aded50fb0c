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
//! (EUC_2D) or trig (GEO) per probe. Construction hands chunks of
//! per-city k-NN queries to [`fan_out`] — the serial pass is a visible
//! startup cost at pla85900 scale.

use std::cmp::Ordering;

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
    /// Build lists of `k` nearest neighbors per city using the k-d tree
    /// (exact, robust on clustered data).
    pub fn build(inst: &Instance, k: usize) -> Self {
        let n = inst.len();
        let k = k.min(n - 1);
        if !inst.metric().is_geometric() {
            return Self::build_brute_force(inst, k);
        }
        let tree = KdTree::build(inst);
        Self::build_with(inst, k, true, &|c| tree.k_nearest(c, k))
    }

    /// O(n²) fallback, ordered by the instance metric itself for
    /// explicit matrices and by unrounded squared Euclidean distance for
    /// geometric instances — the latter matches the `(dist, id)` order
    /// of the k-d tree queries exactly, so both builders produce
    /// identical candidate ids.
    pub fn build_brute_force(inst: &Instance, k: usize) -> Self {
        let n = inst.len();
        let k = k.min(n - 1);
        let geometric = inst.metric().is_geometric();
        Self::build_with(inst, k, geometric, &|c| {
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
        })
    }

    /// Shared builder: run `query` for every city (chunks of
    /// [`PARALLEL_MIN_CITIES`] fanned out) and cache the metric
    /// distance of each returned neighbor. `nearest` records whether
    /// `query` returns the coordinate-nearest cities.
    fn build_with<F>(inst: &Instance, k: usize, nearest: bool, query: &F) -> Self
    where
        F: Fn(usize) -> Vec<u32> + Sync,
    {
        let n = inst.len();
        let mut flat = vec![0u32; n * k];
        let mut dists = vec![0i64; n * k];
        let mut chunks: Vec<_> = flat
            .chunks_mut(PARALLEL_MIN_CITIES * k)
            .zip(dists.chunks_mut(PARALLEL_MIN_CITIES * k))
            .collect();
        fan_out(&mut chunks, |i, (fc, dc)| {
            Self::fill_chunk(inst, k, i * PARALLEL_MIN_CITIES, fc, dc, query)
        });
        NeighborLists {
            k,
            flat,
            dists,
            nearest,
        }
    }

    /// Fill the lists for cities `base .. base + chunk_len/k`.
    fn fill_chunk<F>(
        inst: &Instance,
        k: usize,
        base: usize,
        flat: &mut [u32],
        dists: &mut [i64],
        query: &F,
    ) where
        F: Fn(usize) -> Vec<u32>,
    {
        for i in 0..flat.len() / k {
            let c = base + i;
            let nn = query(c);
            debug_assert_eq!(nn.len(), k);
            flat[i * k..(i + 1) * k].copy_from_slice(&nn);
            for (j, &o) in nn.iter().enumerate() {
                dists[i * k + j] = inst.dist(c, o as usize);
            }
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
    /// Panics if `flat.len() != inst.len() * k`.
    pub fn from_flat(inst: &Instance, k: usize, flat: Vec<u32>) -> Self {
        assert!(
            k > 0 && flat.len() == inst.len() * k,
            "flat length must be n*k"
        );
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
    fn parallel_build_matches_serial_semantics() {
        // Large enough to cross PARALLEL_MIN_CITIES on multi-core hosts.
        let inst = random_instance(3_000, 21);
        let nl = NeighborLists::build(&inst, 5);
        assert_eq!(nl.len(), 3_000);
        let tree = KdTree::build(&inst);
        for c in (0..3_000).step_by(97) {
            assert_eq!(nl.of(c), &tree.k_nearest(c, 5)[..], "city {c}");
            for (&o, &d) in nl.of(c).iter().zip(nl.dists_of(c)) {
                assert_eq!(d, inst.dist(c, o as usize));
            }
        }
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
