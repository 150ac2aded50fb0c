//! Deterministic synthetic instance generators.
//!
//! The paper's testbed (TSPLIB, DIMACS random instances, national TSPs)
//! is not redistributable here, so these generators produce instances
//! with the same *structure* (see DESIGN.md §3):
//!
//! - [`uniform`] — DIMACS `E…` recipe: cities uniform in a square.
//! - [`clustered`] — DIMACS `C…` recipe: cities normally distributed
//!   around 10 cluster centers.
//! - [`grid_known_optimum`] — rectangular unit grid whose optimal tour
//!   length is provably `w*h` (boustrophedon cycle), enabling exact
//!   "found the optimum" counting as in the paper's Table 3.
//! - [`drill_plate`] — `fl…`-style drilling instances: points along part
//!   outlines with large empty regions, the structure that traps plain
//!   CLK in deep local optima (fl1577, fl3795).
//! - [`road_like`] — national-TSP-style: towns scattered along a sparse
//!   web of "roads" between population centers (fi10639, sw24978 analog).
//!
//! All generators take an explicit seed and are fully reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::instance::{Instance, Point};
use crate::metric::Metric;

/// Standard normal sample via Box-Muller (avoids a distribution dep).
fn normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Uniform random instance: `n` cities i.i.d. uniform in a
/// `side × side` square (the DIMACS `E<n>.k` recipe; the challenge used
/// side `1_000_000` with `EUC_2D`).
pub fn uniform(n: usize, side: f64, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts = (0..n)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    Instance::new(format!("E{n}.s{seed}"), pts, Metric::Euc2d)
}

/// Clustered random instance: `n` cities normally distributed around
/// `clusters` uniformly placed centers (DIMACS `C<n>.k` uses 10 clusters
/// in a `1_000_000` square with std-dev `side / (clusters * 3.16...)`;
/// we expose the std-dev directly).
pub fn clustered(n: usize, side: f64, clusters: usize, stddev: f64, seed: u64) -> Instance {
    assert!(clusters >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let centers: Vec<Point> = (0..clusters)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let pts = (0..n)
        .map(|_| {
            let c = centers[rng.gen_range(0..clusters)];
            Point::new(
                c.x + stddev * normal(&mut rng),
                c.y + stddev * normal(&mut rng),
            )
        })
        .collect();
    Instance::new(format!("C{n}.s{seed}"), pts, Metric::Euc2d)
}

/// Clustered instance with the DIMACS defaults (10 clusters, std-dev
/// side/31.62).
pub fn clustered_dimacs(n: usize, seed: u64) -> Instance {
    let side = 1_000_000.0;
    clustered(n, side, 10, side / 31.622, seed)
}

/// Rectangular unit grid with **provably known optimum**.
///
/// Cities sit at integer coordinates `(i, j)` for `0 ≤ i < w`,
/// `0 ≤ j < h`, scaled by `spacing`. When `w*h` is even (and both
/// dimensions ≥ 2) the grid graph is Hamiltonian via a boustrophedon
/// cycle in which every step has length `spacing`, and since each of the
/// `w*h` tour edges must have length ≥ `spacing`, the optimal tour
/// length is exactly `w*h*spacing` — recorded via
/// [`Instance::known_optimum`].
///
/// # Panics
///
/// Panics unless `w ≥ 2`, `h ≥ 2`, and `w*h` is even.
pub fn grid_known_optimum(w: usize, h: usize, spacing: f64) -> Instance {
    assert!(w >= 2 && h >= 2, "grid must be at least 2x2");
    assert!(
        (w * h).is_multiple_of(2),
        "odd grids have no unit-step Hamiltonian cycle"
    );
    let mut pts = Vec::with_capacity(w * h);
    for j in 0..h {
        for i in 0..w {
            pts.push(Point::new(i as f64 * spacing, j as f64 * spacing));
        }
    }
    let opt = (w * h) as i64 * spacing.round() as i64;
    Instance::new(format!("grid{}x{}", w, h), pts, Metric::Euc2d).with_known_optimum(opt)
}

/// The boustrophedon optimal tour of a [`grid_known_optimum`] instance
/// (useful for tests and for seeding "stuck at optimum" scenarios).
///
/// Requires `w` even *or* `h` even; the construction snakes along rows
/// and returns along the first column.
pub fn grid_optimal_tour(w: usize, h: usize) -> crate::tour::Tour {
    assert!(w >= 2 && h >= 2 && (w.is_multiple_of(2) || h.is_multiple_of(2)));
    let idx = |i: usize, j: usize| (j * w + i) as u32;
    let mut order = Vec::with_capacity(w * h);
    if h.is_multiple_of(2) {
        // Snake over columns 1..w within each row pair, return down column 0.
        for j in 0..h {
            if j % 2 == 0 {
                for i in 1..w {
                    order.push(idx(i, j));
                }
            } else {
                for i in (1..w).rev() {
                    order.push(idx(i, j));
                }
            }
        }
        for j in (0..h).rev() {
            order.push(idx(0, j));
        }
    } else {
        // w must be even: snake over rows within each column, return along row 0.
        for i in 0..w {
            if i % 2 == 0 {
                for j in 1..h {
                    order.push(idx(i, j));
                }
            } else {
                for j in (1..h).rev() {
                    order.push(idx(i, j));
                }
            }
        }
        for i in (0..w).rev() {
            order.push(idx(i, 0));
        }
    }
    crate::tour::Tour::from_order(order)
}

/// Drill-plate instance (`fl…`-style): points are laid out along the
/// outlines of rectangular "parts" placed on a board, with a few dense
/// hole fields, leaving large empty regions between parts. This is the
/// geometry of the TSPLIB `fl1577`/`fl3795` drilling problems, whose
/// clustered-but-collinear structure creates the deep local optima that
/// plain CLK cannot escape (paper §4.1).
pub fn drill_plate(n: usize, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let side = 100_000.0;
    // Place parts until we have n points.
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    while pts.len() < n {
        let cx = rng.gen_range(0.05 * side..0.95 * side);
        let cy = rng.gen_range(0.05 * side..0.95 * side);
        let w = rng.gen_range(0.02 * side..0.12 * side);
        let h = rng.gen_range(0.02 * side..0.12 * side);
        if rng.gen_bool(0.3) {
            // Dense hole field: a small grid of drill points.
            let gw = rng.gen_range(3..10usize);
            let gh = rng.gen_range(3..10usize);
            for j in 0..gh {
                for i in 0..gw {
                    if pts.len() >= n {
                        break;
                    }
                    pts.push(Point::new(
                        cx + i as f64 * w / gw as f64,
                        cy + j as f64 * h / gh as f64,
                    ));
                }
            }
        } else {
            // Part outline: points along the rectangle perimeter.
            let per_side = rng.gen_range(2..12usize);
            let step_x = w / per_side as f64;
            let step_y = h / per_side as f64;
            for i in 0..per_side {
                if pts.len() + 4 > n {
                    break;
                }
                pts.push(Point::new(cx + i as f64 * step_x, cy));
                pts.push(Point::new(cx + i as f64 * step_x, cy + h));
                pts.push(Point::new(cx, cy + i as f64 * step_y));
                pts.push(Point::new(cx + w, cy + i as f64 * step_y));
            }
        }
    }
    pts.truncate(n);
    Instance::new(format!("fl{n}.s{seed}"), pts, Metric::Euc2d)
}

/// Road-network-like instance (national-TSP-style): a handful of large
/// population centers connected by noisy "roads" along which most towns
/// lie, plus scattered rural towns. Mimics the elongated, corridor-heavy
/// structure of fi10639/sw24978.
pub fn road_like(n: usize, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let side = 1_000_000.0;
    let ncenters = 8.max(n / 500).min(24);
    let centers: Vec<Point> = (0..ncenters)
        .map(|_| {
            Point::new(
                rng.gen_range(0.0..side),
                rng.gen_range(0.1 * side..0.9 * side),
            )
        })
        .collect();
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    // 25% of towns cluster at centers, 55% along roads between random
    // center pairs, 20% rural scatter.
    let n_center = n / 4;
    let n_road = n * 55 / 100;
    for _ in 0..n_center {
        let c = centers[rng.gen_range(0..ncenters)];
        pts.push(Point::new(
            c.x + 0.01 * side * normal(&mut rng),
            c.y + 0.01 * side * normal(&mut rng),
        ));
    }
    for _ in 0..n_road {
        let a = centers[rng.gen_range(0..ncenters)];
        let b = centers[rng.gen_range(0..ncenters)];
        let t: f64 = rng.gen_range(0.0..1.0);
        pts.push(Point::new(
            a.x + t * (b.x - a.x) + 0.005 * side * normal(&mut rng),
            a.y + t * (b.y - a.y) + 0.005 * side * normal(&mut rng),
        ));
    }
    while pts.len() < n {
        pts.push(Point::new(
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
        ));
    }
    pts.truncate(n);
    Instance::new(format!("road{n}.s{seed}"), pts, Metric::Euc2d)
}

/// The paper's testbed, scaled: the stand-in for a TSPLIB/DIMACS name
/// at `size` cities (see DESIGN.md §3). The family is the name's
/// letters before its first digit (`E1k.1` → `E`, `pr2392` → `pr`);
/// `road` names the road-like generator itself. `None` for an unknown
/// family.
pub fn testbed_instance(paper_name: &str, size: usize, seed: u64) -> Option<Instance> {
    let family = paper_name.split(|c: char| c.is_ascii_digit()).next();
    Some(match family? {
        "E" | "fnl" => uniform(size, 1_000_000.0, seed),
        "C" => clustered_dimacs(size, seed),
        "fl" => drill_plate(size, seed),
        // Printed-circuit-board style: semi-regular rows with jitter.
        "pcb" | "pr" | "pla" => pcb_like(size, seed),
        "fi" | "sw" | "usa" | "road" => road_like(size, seed),
        _ => return None,
    })
}

/// PCB-drilling style instance: points on semi-regular rows/columns with
/// jitter and gaps (pr2392/pcb3038/pla* analog).
pub fn pcb_like(n: usize, seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cols = (n as f64).sqrt().ceil() as usize;
    let spacing = 1000.0;
    let mut pts = Vec::with_capacity(n);
    let mut placed = 0usize;
    let mut row = 0usize;
    while placed < n {
        for i in 0..cols {
            if placed >= n {
                break;
            }
            // Leave gaps like unpopulated board regions.
            if rng.gen_bool(0.15) {
                continue;
            }
            let jitter_x = rng.gen_range(-0.2..0.2) * spacing;
            let jitter_y = rng.gen_range(-0.05..0.05) * spacing;
            pts.push(Point::new(
                i as f64 * spacing + jitter_x,
                row as f64 * spacing + jitter_y,
            ));
            placed += 1;
        }
        row += 1;
    }
    Instance::new(format!("pcb{n}.s{seed}"), pts, Metric::Euc2d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_reproducible() {
        let a = uniform(50, 1000.0, 7);
        let b = uniform(50, 1000.0, 7);
        let c = uniform(50, 1000.0, 8);
        assert_eq!(a.points(), b.points());
        assert_ne!(a.points(), c.points());
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn uniform_in_bounds() {
        let inst = uniform(200, 500.0, 1);
        for p in inst.points() {
            assert!(p.x >= 0.0 && p.x < 500.0);
            assert!(p.y >= 0.0 && p.y < 500.0);
        }
    }

    #[test]
    fn clustered_has_structure() {
        // Mean pairwise distance in a clustered instance is much smaller
        // than in a uniform instance of the same extent when measured to
        // the nearest neighbor.
        let cl = clustered(300, 1_000_000.0, 10, 10_000.0, 3);
        let un = uniform(300, 1_000_000.0, 3);
        let mean_nn = |inst: &Instance| -> f64 {
            let tree = crate::kdtree::KdTree::build(inst);
            (0..inst.len())
                .map(|c| {
                    let nn = tree.nearest_excluding(inst.point(c), c).unwrap();
                    inst.point(c).sq_dist(&inst.point(nn)).sqrt()
                })
                .sum::<f64>()
                / inst.len() as f64
        };
        assert!(mean_nn(&cl) < mean_nn(&un) * 0.8);
    }

    #[test]
    fn grid_optimum_is_achieved_by_boustrophedon() {
        for (w, h) in [(4, 4), (6, 3), (3, 6), (5, 4), (4, 5), (10, 8)] {
            let inst = grid_known_optimum(w, h, 100.0);
            let tour = grid_optimal_tour(w, h);
            assert!(tour.is_valid(), "{w}x{h}");
            assert_eq!(
                tour.length(&inst),
                inst.known_optimum().unwrap(),
                "boustrophedon not optimal-length on {w}x{h}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "odd grids")]
    fn odd_grid_rejected() {
        grid_known_optimum(3, 5, 1.0);
    }

    #[test]
    fn drill_plate_exact_size() {
        let inst = drill_plate(500, 11);
        assert_eq!(inst.len(), 500);
    }

    #[test]
    fn road_like_exact_size_and_reproducible() {
        let a = road_like(400, 2);
        let b = road_like(400, 2);
        assert_eq!(a.len(), 400);
        assert_eq!(a.points(), b.points());
    }

    #[test]
    fn pcb_like_exact_size() {
        let inst = pcb_like(333, 5);
        assert_eq!(inst.len(), 333);
    }

    #[test]
    fn testbed_dispatch() {
        let name = |paper: &str| testbed_instance(paper, 100, 1).unwrap().name().to_string();
        assert!(name("E1k.1").starts_with('E'));
        assert!(name("fnl4461*").starts_with('E'));
        assert!(name("C1k.1").starts_with('C'));
        assert!(name("fl1577").starts_with("fl"));
        assert!(name("sw24978").starts_with("road"));
        assert!(name("road300").starts_with("road"));
        assert!(name("pr2392").starts_with("pcb"));
        assert_eq!(
            testbed_instance("fi10639", 100, 7).unwrap().points(),
            road_like(100, 7).points()
        );
        for unknown in ["unknown", "grid1024", "Ex300", "1000"] {
            assert!(testbed_instance(unknown, 64, 1).is_none(), "{unknown}");
        }
    }
}
