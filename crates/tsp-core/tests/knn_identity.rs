//! The k-d tree's batch k-nearest kernel against the brute-force oracle
//! across fan-out chunk edges, list widths and geometries: every row's
//! ids and cached distances must be identical, so no run can depend on
//! which builder made its lists or how the build was split over cores.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use tsp_core::{fan_out, generate, Instance, Metric, NeighborLists, Point};

/// Cities on an 11-column lattice: every distance comes in ties of 4.
fn lattice(n: usize) -> Instance {
    let pts = (0..n)
        .map(|i| Point::new((i % 11) as f64 * 7.0, (i / 11) as f64 * 7.0))
        .collect();
    Instance::new("lattice", pts, Metric::Euc2d)
}

/// Cities drawn from 37 positions: most distances are zero.
fn duplicates(n: usize, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let spots: Vec<Point> = (0..37)
        .map(|_| Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)))
        .collect();
    let pts = (0..n)
        .map(|_| spots[rng.gen_range(0..spots.len())])
        .collect();
    Instance::new("duplicates", pts, Metric::Euc2d)
}

/// Cities on one line at integer steps, some repeated.
fn collinear(n: usize, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts = (0..n)
        .map(|_| {
            let t = rng.gen_range(0..n as u32) as f64;
            Point::new(3.0 * t, 2.0 * t + 1.0)
        })
        .collect();
    Instance::new("collinear", pts, Metric::Euc2d)
}

fn geometries(n: usize) -> Vec<Instance> {
    vec![
        generate::uniform(n, 1e6, n as u64),
        generate::clustered(n, 1e6, 12, 8_000.0, n as u64),
        generate::drill_plate(n, n as u64),
        lattice(n),
        duplicates(n, n as u64),
        collinear(n, n as u64),
    ]
}

fn assert_lists_equal(got: &NeighborLists, want: &NeighborLists, what: &str) {
    assert_eq!((got.k(), got.len()), (want.k(), want.len()), "{what}");
    assert_eq!(got.is_nearest(), want.is_nearest(), "{what}");
    for c in 0..want.len() {
        assert_eq!(got.of(c), want.of(c), "{what}: ids of city {c}");
        assert_eq!(
            got.dists_of(c),
            want.dists_of(c),
            "{what}: dists of city {c}"
        );
    }
}

fn assert_tree_equals_brute_force(inst: &Instance, k: usize) {
    let what = format!("{} n={} k={k}", inst.name(), inst.len());
    let tree = NeighborLists::build(inst, k);
    assert_lists_equal(&tree, &NeighborLists::build_brute_force(inst, k), &what);
}

/// 2 048 cities are one fan-out chunk: the sizes around it and past the
/// second chunk's end split the slot order at every kind of edge.
#[test]
fn tree_lists_equal_brute_force_across_chunk_edges() {
    for n in [2_047, 2_048, 2_049, 4_097] {
        for inst in geometries(n) {
            for k in [1, 10] {
                assert_tree_equals_brute_force(&inst, k);
            }
        }
    }
}

#[test]
fn tree_lists_equal_brute_force_at_full_width() {
    for inst in [
        generate::uniform(40, 1_000.0, 3),
        lattice(121),
        duplicates(60, 5),
        collinear(50, 6),
    ] {
        assert_tree_equals_brute_force(&inst, inst.len() - 1);
    }
}

/// A build inside another fan-out runs inline on one thread; its lists
/// equal the top-level build's, which spreads over the cores.
#[test]
fn nested_build_equals_top_level_build() {
    for inst in [
        generate::uniform(4_097, 1e6, 9),
        generate::drill_plate(4_097, 9),
    ] {
        let top = NeighborLists::build(&inst, 10);
        let mut nested: Vec<Option<NeighborLists>> = vec![None, None];
        fan_out(&mut nested, |_, slot| {
            *slot = Some(NeighborLists::build(&inst, 10));
        });
        for lists in nested {
            assert_lists_equal(&lists.expect("built"), &top, inst.name());
        }
    }
}

/// Ten chunks and a drill plate's empty regions; release builds only
/// (`cargo test -p tsp-core --release -- --ignored`): the oracle is
/// O(n²).
#[test]
#[ignore]
fn tree_lists_equal_brute_force_at_20k() {
    for inst in [
        generate::uniform(20_000, 1e6, 20),
        generate::drill_plate(20_000, 20),
    ] {
        assert_tree_equals_brute_force(&inst, 10);
    }
}
