//! Initial tour construction heuristics.
//!
//! The paper's CLK engine constructs its starting tour with
//! **Quick-Borůvka** (Applegate, Cook & Rohe), which gives the
//! subsequent CLK optimization better starts than the far costlier
//! Held-Karp-based alternative it was compared against (§2.1). The
//! other constructions serve as baselines and as cheap restart tours
//! for the distributed algorithm's `c_r` restart rule.

mod greedy;
mod nearest;
mod quick_boruvka;
mod space_filling;

pub use greedy::greedy_matching;
pub use nearest::nearest_neighbor;
pub use quick_boruvka::quick_boruvka;
pub(crate) use space_filling::hilbert_order;
pub use space_filling::space_filling;

use rand::Rng;
use tsp_core::{Instance, NeighborLists, Tour};

/// The available construction heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    /// Quick-Borůvka (the `linkern` default).
    QuickBoruvka,
    /// Nearest-neighbor chain from a random start.
    NearestNeighbor,
    /// Greedy shortest-edge matching.
    Greedy,
    /// Hilbert space-filling-curve order.
    SpaceFilling,
}

/// Where Quick-Borůvka answered its "nearest eligible city" queries: by
/// a k-d tree search, or from the asking city's candidate row. Exact
/// counts, the same for every tour representation and label space of
/// the engine that asked. The other constructions count nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Queries {
    /// k-d tree searches.
    pub tree_searches: u64,
    /// Queries a candidate row answered without a search.
    pub row_answers: u64,
}

/// Build an initial tour with the chosen heuristic. Quick-Borůvka reads
/// `rows` (the candidate lists of `inst`) where they prove an answer;
/// the tour is the same with or without them.
///
/// Non-geometric (explicit-matrix) instances fall back to
/// nearest-neighbor for the geometric heuristics.
pub fn construct<R: Rng>(
    inst: &Instance,
    which: Construction,
    rows: Option<&NeighborLists>,
    rng: &mut R,
) -> (Tour, Queries) {
    let geometric = inst.metric().is_geometric();
    match which {
        Construction::QuickBoruvka if geometric => quick_boruvka(inst, rows),
        Construction::Greedy if geometric => (greedy_matching(inst), Queries::default()),
        Construction::SpaceFilling if geometric => (space_filling(inst), Queries::default()),
        // NearestNeighbor, and the fallback for geometric-only
        // constructions on non-geometric instances.
        _ => {
            let start = rng.gen_range(0..inst.len());
            (nearest_neighbor(inst, start), Queries::default())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use tsp_core::generate;

    #[test]
    fn all_constructions_yield_valid_tours() {
        let inst = generate::uniform(120, 10_000.0, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        for which in [
            Construction::QuickBoruvka,
            Construction::NearestNeighbor,
            Construction::Greedy,
            Construction::SpaceFilling,
        ] {
            let (t, _) = construct(&inst, which, None, &mut rng);
            assert!(t.is_valid(), "{which:?}");
            assert_eq!(t.len(), 120);
        }
    }

    #[test]
    fn heuristic_tours_beat_random() {
        let inst = generate::uniform(200, 10_000.0, 5);
        let mut rng = SmallRng::seed_from_u64(2);
        let random_len = Tour::random(inst.len(), &mut rng).length(&inst);
        for which in [
            Construction::QuickBoruvka,
            Construction::NearestNeighbor,
            Construction::Greedy,
            Construction::SpaceFilling,
        ] {
            let len = construct(&inst, which, None, &mut rng).0.length(&inst);
            assert!(
                len < random_len,
                "{which:?}: {len} not better than random {random_len}"
            );
        }
    }

    #[test]
    fn explicit_matrix_falls_back() {
        let geo = generate::uniform(20, 1000.0, 6);
        let n = geo.len();
        let mut m = vec![0i64; n * n];
        for i in 0..n {
            for j in 0..n {
                m[i * n + j] = geo.dist(i, j);
            }
        }
        let inst = tsp_core::Instance::explicit("m", m, n);
        let mut rng = SmallRng::seed_from_u64(3);
        let (t, _) = construct(&inst, Construction::QuickBoruvka, None, &mut rng);
        assert!(t.is_valid());
    }
}
