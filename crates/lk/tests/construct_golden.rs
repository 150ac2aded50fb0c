//! Golden construction tours: FNV-1a-64 digests of the Quick-Borůvka
//! and nearest-neighbor orders, recorded before Quick-Borůvka read
//! candidate rows, the k-d tree kept each city next to its coordinates
//! and the coordinate sort became an unstable keyed sort. Every digest must
//! come out the same whatever rows Quick-Borůvka is handed — k-NN rows
//! (read), hybrid rows (ignored: not the k nearest) or none — so a
//! change that claims to leave construction as it is must leave these
//! constants exactly as they are.
//!
//! The instances hold the ties that make a k-d tree's visiting order
//! matter: a lattice, every city on one point, and cities evenly spaced
//! on a line, next to the four generator families. Sizes run from the
//! smallest instance there is (3 cities: `Instance::new` refuses 2) to
//! 12 500. Hybrid rows need a Held-Karp ascent, seconds per instance at
//! 12 500 cities, so they are built up to 2 000.

use lk::construct::{nearest_neighbor, quick_boruvka};
use lk::CandidateKind;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use tsp_core::{generate, Instance, Metric, NeighborLists, Point, Tour};

/// `(instance, FNV(Quick-Borůvka order), FNV(nearest-neighbor order))`.
const GOLDEN: [(&str, u64, u64); 25] = [
    ("uniform3", 0x9f19854a6eada506, 0x756241e1be8c9396),
    ("drill3", 0x756241e1be8c9396, 0x756241e1be8c9396),
    ("dimacs3", 0x9f19854a6eada506, 0xf26292e3dcb93c46),
    ("road3", 0x9f19854a6eada506, 0xf26292e3dcb93c46),
    ("dup3", 0x756241e1be8c9396, 0x756241e1be8c9396),
    ("line3", 0xf26292e3dcb93c46, 0xf26292e3dcb93c46),
    ("uniform50", 0xd024100bda9ea984, 0x58d7ef1e34581d54),
    ("drill50", 0xcefd9ec6e0b56814, 0x62ea9989c9665004),
    ("dimacs50", 0x51ed797a99282af4, 0xd5e2ceeacedbbe84),
    ("road50", 0x7436de556d0f9944, 0x5d7caeab2188b254),
    ("dup50", 0x54955dd9d0da2b14, 0xaccc293e5850e774),
    ("line50", 0x6960b41bd0cdca14, 0x35d92983be5f9c34),
    ("uniform2000", 0x578f41431cedb6e9, 0xc3ba9f9ca9442d3d),
    ("drill2000", 0x44542306e84ac7fd, 0x0ba241c94c0d709d),
    ("dimacs2000", 0xb32b2acc2c63f5a5, 0x55377644caa99fc1),
    ("road2000", 0x2ab0869b74b1da69, 0x81472ce4a01f8775),
    ("dup2000", 0x1c7b8c986cc1ba05, 0x31564a343fa08431),
    ("line2000", 0x73495ccd6d326bed, 0xdc5a2752181f6161),
    ("uniform12500", 0xaffabdf4015fffc5, 0x2599a746adaf65f1),
    ("drill12500", 0x2d0302a2636439f9, 0x90a49e1ebb3c0c41),
    ("dimacs12500", 0xc50d50a2df83f9b9, 0x5bd1356601bc39dd),
    ("road12500", 0x1f335d7627e136d1, 0x5ad11aa4c73a579d),
    ("dup12500", 0xf1282126280c55f5, 0xa3e8c9a080bd3325),
    ("line12500", 0x81f7a1917654996d, 0x244ecf5c90f28c11),
    ("grid8x8", 0x961aab2cfc28fa05, 0x2b64ba2fa31167e5),
];

/// FNV-1a-64 over the little-endian bytes of a tour order.
fn fnv1a64(order: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in order.iter().flat_map(|c| c.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `n` cities on one point.
fn duplicates(n: usize) -> Instance {
    Instance::new("dup", vec![Point::new(250.0, 750.0); n], Metric::Euc2d)
}

/// `n` cities evenly spaced on a line, numbered out of order.
fn collinear(n: usize) -> Instance {
    let pts = (0..n)
        .map(|i| {
            let x = ((i * 7919) % n) as f64 * 3.0;
            Point::new(x, 0.5 * x + 100.0)
        })
        .collect();
    Instance::new("line", pts, Metric::Euc2d)
}

/// The instances of [`GOLDEN`], in its order.
fn instances() -> Vec<(String, Instance)> {
    let mut cases = Vec::new();
    for n in [3usize, 50, 2_000, 12_500] {
        cases.push((format!("uniform{n}"), generate::uniform(n, 1e6, 11)));
        cases.push((format!("drill{n}"), generate::drill_plate(n, 12)));
        cases.push((format!("dimacs{n}"), generate::clustered_dimacs(n, 13)));
        cases.push((format!("road{n}"), generate::road_like(n, 14)));
        cases.push((format!("dup{n}"), duplicates(n)));
        cases.push((format!("line{n}"), collinear(n)));
    }
    cases.push(("grid8x8".into(), generate::grid_known_optimum(8, 8, 100.0)));
    cases
}

/// The order Quick-Borůvka builds on `rows`.
fn qb_order(inst: &Instance, rows: Option<&NeighborLists>) -> Vec<u32> {
    let (tour, _) = quick_boruvka(inst, rows);
    assert!(tour.is_valid());
    tour.order().to_vec()
}

/// The nearest-neighbor order from the start city a fixed RNG draws.
fn nn_order(inst: &Instance) -> Vec<u32> {
    let start = SmallRng::seed_from_u64(7).gen_range(0..inst.len());
    let tour = nearest_neighbor(inst, start);
    assert!(tour.is_valid());
    tour.order().to_vec()
}

#[test]
fn construction_orders_are_pinned_with_any_rows() {
    let cases = instances();
    assert_eq!(cases.len(), GOLDEN.len());
    for ((name, inst), &(golden, qb, nn)) in cases.iter().zip(&GOLDEN) {
        assert_eq!(name, golden);
        let knn = NeighborLists::build(inst, 10);
        let hybrid = (inst.len() <= 2_000).then(|| CandidateKind::Hybrid.build(inst, 10));
        let rows = [
            ("none", None),
            ("knn", Some(&knn)),
            ("hybrid", hybrid.as_ref()),
        ];
        for (label, rows) in rows {
            if label == "hybrid" && rows.is_none() {
                continue;
            }
            let got = fnv1a64(&qb_order(inst, rows));
            assert_eq!(got, qb, "{name}: Quick-Borůvka on {label} rows");
            let got = fnv1a64(&nn_order(inst));
            assert_eq!(got, nn, "{name}: nearest neighbor on {label} rows");
        }
    }
}

/// A small instance whose cities sit on a few lattice points, so most
/// of them share a point with another and distance ties are the rule.
fn crowded(rng: &mut SmallRng) -> Instance {
    let n = rng.gen_range(3..60);
    let side = rng.gen_range(1..7);
    let pts: Vec<Point> = (0..n)
        .map(|_| {
            let x = rng.gen_range(0..side) as f64 * 10.0;
            let y = rng.gen_range(0..side) as f64 * 10.0;
            Point::new(x, y)
        })
        .collect();
    Instance::new("crowded", pts, Metric::Euc2d)
}

#[test]
fn rows_first_equals_tree_only_on_duplicated_points() {
    let mut rng = SmallRng::seed_from_u64(2024);
    for case in 0..300 {
        let inst = crowded(&mut rng);
        let k = rng.gen_range(1..12usize).min(inst.len() - 1);
        let tree_only = qb_order(&inst, None);
        for rows in [
            NeighborLists::build(&inst, k),
            NeighborLists::build_brute_force(&inst, k),
        ] {
            let listed = qb_order(&inst, Some(&rows));
            assert_eq!(listed, tree_only, "case {case}: n {} k {k}", inst.len());
        }
        let tour = Tour::from_order(tree_only);
        assert!(tour.is_valid(), "case {case}");
    }
}
