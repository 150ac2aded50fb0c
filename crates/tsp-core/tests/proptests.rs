//! Property-based tests on the core data structures.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tsp_core::{generate, Instance, Metric, NeighborLists, Point, Tour};

/// Strategy: a permutation of 0..n encoded as a seed + size.
fn tour_strategy() -> impl Strategy<Value = Tour> {
    (8usize..64, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tour::random(n, &mut rng)
    })
}

proptest! {
    /// Any sequence of reversals keeps the permutation invariant.
    #[test]
    fn reversals_preserve_validity(
        mut tour in tour_strategy(),
        ops in prop::collection::vec((0usize..64, 0usize..64), 0..40),
    ) {
        let n = tour.len();
        for (a, b) in ops {
            tour.reverse_segment(a % n, b % n);
            prop_assert!(tour.is_valid());
        }
    }

    /// Double-bridge moves keep the permutation invariant and change at
    /// most 4 edges.
    #[test]
    fn double_bridge_preserves_validity(
        mut tour in tour_strategy(),
        seeds in prop::collection::vec(any::<u64>(), 0..20),
    ) {
        for s in seeds {
            let mut rng = SmallRng::seed_from_u64(s);
            let before: std::collections::HashSet<(usize, usize)> = tour
                .edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
            tour.random_double_bridge(&mut rng);
            prop_assert!(tour.is_valid());
            let after: std::collections::HashSet<(usize, usize)> = tour
                .edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
            prop_assert!(before.difference(&after).count() <= 4);
        }
    }

    /// Tour length is invariant under rotation of the order and reversal
    /// of the whole tour (symmetric TSP).
    #[test]
    fn length_is_cycle_invariant(n in 8usize..40, seed in any::<u64>()) {
        let inst = generate::uniform(n, 1000.0, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead);
        let tour = Tour::random(n, &mut rng);
        let len = tour.length(&inst);

        // Rotate.
        let mut rotated: Vec<u32> = tour.order().to_vec();
        rotated.rotate_left(n / 3);
        prop_assert_eq!(Tour::from_order(rotated).length(&inst), len);

        // Reverse.
        let mut reversed: Vec<u32> = tour.order().to_vec();
        reversed.reverse();
        prop_assert_eq!(Tour::from_order(reversed).length(&inst), len);
    }

    /// next/prev are inverse bijections.
    #[test]
    fn next_prev_inverse(tour in tour_strategy()) {
        for c in 0..tour.len() {
            prop_assert_eq!(tour.prev(tour.next(c)), c);
            prop_assert_eq!(tour.next(tour.prev(c)), c);
        }
    }

    /// between(a, b, c) matches a brute-force walk.
    #[test]
    fn between_matches_walk(tour in tour_strategy(), picks in any::<u64>()) {
        let n = tour.len();
        let mut rng = SmallRng::seed_from_u64(picks);
        use rand::Rng;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        // Walk forward from a; does b appear strictly before c?
        let mut walk_says = false;
        let mut cur = tour.next(a);
        while cur != c && cur != a {
            if cur == b {
                walk_says = true;
                break;
            }
            cur = tour.next(cur);
        }
        if a == b || b == c || a == c {
            // Degenerate triples: between() is false for pa==pb or pb==pc.
            if b == a || b == c {
                walk_says = false;
            }
        }
        prop_assert_eq!(tour.between(a, b, c), walk_says && a != c);
    }

    /// Neighbor lists never contain the city itself and are sorted by
    /// metric distance.
    #[test]
    fn neighbor_lists_well_formed(n in 10usize..80, seed in any::<u64>(), k in 2usize..8) {
        let inst = generate::uniform(n, 10_000.0, seed);
        let nl = NeighborLists::build(&inst, k);
        for c in 0..n {
            let list = nl.of(c);
            prop_assert!(!list.contains(&(c as u32)));
            let ds: Vec<f64> = list.iter()
                .map(|&o| inst.point(o as usize).sq_dist(&inst.point(c)))
                .collect();
            for w in ds.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }

    /// The top-k brute-force builder keeps exactly a full sort's
    /// prefix on explicit matrices full of repeated values (one pair
    /// pinned at the seam windows' `-PIN`, `-2^40`).
    #[test]
    fn brute_force_matches_full_sort_on_explicit_matrices(
        n in 3usize..40,
        values in prop::collection::vec(0i64..4, 1_600..1_601),
        pin in (0usize..40, 0usize..40),
        k in 1usize..12,
    ) {
        let mut m = vec![0i64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                m[i * n + j] = values[i * 40 + j];
                m[j * n + i] = values[i * 40 + j];
            }
        }
        let (a, b) = (pin.0 % n, pin.1 % n);
        if a != b {
            m[a * n + b] = -(1 << 40);
            m[b * n + a] = -(1 << 40);
        }
        let inst = Instance::explicit("repeats", m, n);
        let nl = NeighborLists::build_brute_force(&inst, k);
        for c in 0..n {
            let mut want: Vec<u32> = (0..n as u32).filter(|&o| o as usize != c).collect();
            want.sort_by_key(|&o| (inst.dist(c, o as usize), o));
            want.truncate(nl.k());
            prop_assert_eq!(nl.of(c), &want[..], "city {}", c);
        }
    }

    /// The same on geometric sets whose points repeat: equal squared
    /// distances fall back to ids, as in the full sort.
    #[test]
    fn brute_force_matches_full_sort_on_duplicate_points(
        coords in prop::collection::vec((0u8..4, 0u8..4), 3..60),
        k in 1usize..12,
    ) {
        let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect();
        let n = pts.len();
        let inst = Instance::new("duplicates", pts, Metric::Euc2d);
        let nl = NeighborLists::build_brute_force(&inst, k);
        for c in 0..n {
            let p = inst.point(c);
            let mut want: Vec<u32> = (0..n as u32).filter(|&o| o as usize != c).collect();
            want.sort_by(|&a, &b| {
                inst.point(a as usize).sq_dist(&p)
                    .partial_cmp(&inst.point(b as usize).sq_dist(&p))
                    .unwrap()
                    .then(a.cmp(&b))
            });
            want.truncate(nl.k());
            prop_assert_eq!(nl.of(c), &want[..], "city {}", c);
        }
    }

    /// TSPLIB round-trip preserves distances.
    #[test]
    fn tsplib_roundtrip(n in 4usize..30, seed in any::<u64>()) {
        let inst = generate::uniform(n, 1000.0, seed);
        let text = tsp_core::tsplib::write_instance(&inst);
        let back = tsp_core::tsplib::parse_instance(&text).unwrap();
        prop_assert_eq!(back.len(), inst.len());
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(back.dist(i, j), inst.dist(i, j));
            }
        }
    }
}

/// Explicit-matrix instances behave like their geometric counterparts.
#[test]
fn explicit_matches_geometric() {
    let geo = generate::uniform(25, 1000.0, 5);
    let n = geo.len();
    let mut m = vec![0i64; n * n];
    for i in 0..n {
        for j in 0..n {
            m[i * n + j] = geo.dist(i, j);
        }
    }
    let exp = Instance::explicit("as-matrix", m, n);
    let mut rng = SmallRng::seed_from_u64(77);
    for _ in 0..10 {
        let tour = Tour::random(n, &mut rng);
        assert_eq!(tour.length(&geo), tour.length(&exp));
    }
}
