//! Property tests for the two-level tour list: under arbitrary flip
//! sequences it stays a valid permutation, agrees with its own
//! flattened form on every query, and each flip matches the array
//! reference applied in the list's own orientation.

use proptest::prelude::*;
use tsp_core::{Tour, TourOps, TourRep, TwoLevelList};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flip_sequences_preserve_all_invariants(
        n in 10usize..150,
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 1..40),
    ) {
        let mut tl = TwoLevelList::from_order_slice(&(0..n as u32).collect::<Vec<_>>());
        for (ra, rb) in ops {
            let a = ra as usize % n;
            let b = rb as usize % n;
            if a == b {
                continue;
            }
            // Reference: flatten, flip with the array implementation in
            // the SAME orientation, compare undirected cycles.
            let mut reference = tl.to_tour();
            reference.reverse_segment(reference.position(a), reference.position(b));
            tl.flip(a, b);
            prop_assert!(tl.check_invariants());
            let want: std::collections::HashSet<(usize, usize)> = reference
                .edges().map(|(x, y)| (x.min(y), x.max(y))).collect();
            let got: std::collections::HashSet<(usize, usize)> = tl
                .to_tour().edges().map(|(x, y)| (x.min(y), x.max(y))).collect();
            prop_assert_eq!(want, got);
        }
        // Still a permutation of 0..n.
        let mut order = tl.to_order();
        order.sort_unstable();
        prop_assert_eq!(order, (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn queries_agree_with_flattened_tour(
        n in 10usize..120,
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 0..25),
        probes in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..40),
    ) {
        let mut tl = TwoLevelList::from_order_slice(&(0..n as u32).collect::<Vec<_>>());
        for (ra, rb) in ops {
            let a = ra as usize % n;
            let b = rb as usize % n;
            if a != b {
                tl.flip(a, b);
            }
        }
        let flat: Tour = tl.to_tour();
        for c in 0..n {
            prop_assert_eq!(tl.next(c), flat.next(c));
            prop_assert_eq!(tl.prev(c), flat.prev(c));
        }
        for (x, y, z) in probes {
            let (a, b, c) = (x as usize % n, y as usize % n, z as usize % n);
            prop_assert_eq!(tl.between(a, b, c), flat.between(a, b, c));
        }
    }
}

/// Conversion round-trips for every construction size.
#[test]
fn conversion_roundtrips() {
    use rand::{rngs::SmallRng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(9);
    for n in [3usize, 4, 8, 9, 64, 1000, 4097] {
        let t = Tour::random(n, &mut rng);
        let tl = TwoLevelList::from_tour(&t);
        assert!(tl.check_invariants(), "n={n}");
        assert_eq!(tl.to_order(), TourOps::to_order(&t), "n={n}");
    }
}

/// `TourOps::index` numbers the cities consecutively along `next` on
/// both representations, whatever the flips did to the structure
/// underneath: in-place reversals, segment splits and merges, and (at
/// n = 150) a full rebuild.
#[test]
fn index_counts_along_next_after_flips() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    fn check<T: TourOps>(tour: &T, what: &str) {
        let n = tour.len();
        let mut seen = vec![false; n];
        for c in 0..n {
            let i = tour.index(c);
            assert!(i < n && !seen[i], "{what}: index({c}) = {i}");
            seen[i] = true;
            assert_eq!(tour.index(tour.next(c)), (i + 1) % n, "{what}: city {c}");
        }
    }
    let mut rng = SmallRng::seed_from_u64(21);
    for n in [7usize, 150, 5_000] {
        let mut t = Tour::random(n, &mut rng);
        let mut tl = TwoLevelList::from_tour(&t);
        // A rebuild shows as the segment directory collapsing at once.
        let mut rebuilt = false;
        for step in 0..400 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            let segments = tl.segment_count();
            TourOps::flip(&mut t, a, b);
            TourOps::flip(&mut tl, a, b);
            rebuilt |= tl.segment_count() < segments / 2;
            check(&t, &format!("array n={n} step {step}"));
            check(&tl, &format!("twolevel n={n} step {step}"));
        }
        assert!(
            rebuilt || n != 150,
            "400 flips at n = 150 no longer force a rebuild"
        );
    }
}
