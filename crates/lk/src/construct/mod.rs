//! Initial tour construction.
//!
//! The paper's CLK engine constructs its starting tour with
//! **Quick-Borůvka** (Applegate, Cook & Rohe), which gives the
//! subsequent CLK optimization better starts than the far costlier
//! Held-Karp-based alternative it was compared against (§2.1).
//! Quick-Borůvka needs coordinates; on explicit-matrix instances the
//! engine builds a nearest-neighbor chain instead.

mod hilbert;
mod nearest;
mod quick_boruvka;

pub(crate) use hilbert::hilbert_order;
pub use nearest::nearest_neighbor;
pub use quick_boruvka::quick_boruvka;

use rand::Rng;
use tsp_core::{Instance, NeighborLists, Tour};

/// Where Quick-Borůvka answered its "nearest eligible city" queries: by
/// a k-d tree search, or from the asking city's candidate row. Exact
/// counts, the same for every tour representation and label space of
/// the engine that asked. Nearest-neighbor counts nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Queries {
    /// k-d tree searches.
    pub tree_searches: u64,
    /// Queries a candidate row answered without a search.
    pub row_answers: u64,
}

/// Build the initial tour: Quick-Borůvka on geometric instances, which
/// reads `rows` (the candidate lists of `inst`) where they prove an
/// answer and draws nothing from `rng`, so the tour is the same with or
/// without rows and for every seed. Explicit-matrix instances get a
/// nearest-neighbor chain from a start city drawn from `rng`.
pub fn construct<R: Rng>(
    inst: &Instance,
    rows: Option<&NeighborLists>,
    rng: &mut R,
) -> (Tour, Queries) {
    if inst.metric().is_geometric() {
        quick_boruvka(inst, rows)
    } else {
        let start = rng.gen_range(0..inst.len());
        (nearest_neighbor(inst, start), Queries::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use tsp_core::generate;

    #[test]
    fn constructions_yield_valid_tours_that_beat_random() {
        let inst = generate::uniform(200, 10_000.0, 5);
        let mut rng = SmallRng::seed_from_u64(2);
        let random_len = Tour::random(inst.len(), &mut rng).length(&inst);
        let qb = construct(&inst, None, &mut rng).0;
        let nn = nearest_neighbor(&inst, 0);
        for (which, t) in [("Quick-Borůvka", qb), ("nearest neighbor", nn)] {
            assert!(t.is_valid(), "{which}");
            let len = t.length(&inst);
            assert!(
                len < random_len,
                "{which}: {len} not better than random {random_len}"
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
        let (t, _) = construct(&inst, None, &mut rng);
        assert!(t.is_valid());
    }
}
