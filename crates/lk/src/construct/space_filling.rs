//! Hilbert space-filling-curve construction.
//!
//! Orders cities along a Hilbert curve over the bounding box — an
//! O(n log n) construction with a worst-case constant-factor guarantee
//! on uniform data, handy as a very fast restart tour.

use tsp_core::{Instance, Tour};

/// Map `(x, y)` in `[0, 2^order)²` to its Hilbert curve index.
fn hilbert_d(order: u32, mut x: u32, mut y: u32) -> u64 {
    let n: u32 = 1 << order;
    let mut d: u64 = 0;
    let mut s: u32 = n / 2;
    while s > 0 {
        let rx = u32::from((x & s) > 0);
        let ry = u32::from((y & s) > 0);
        d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
        // Rotate quadrant (classic Wikipedia formulation).
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Build a tour by sorting cities along a Hilbert curve.
///
/// # Panics
///
/// Panics on non-geometric instances.
pub fn space_filling(inst: &Instance) -> Tour {
    Tour::from_order(hilbert_order(inst))
}

/// The cities sorted by their Hilbert index over the bounding box, ties
/// (cities in one grid cell) by id: a permutation of `0..n` that depends
/// on the coordinates alone.
///
/// # Panics
///
/// Panics on non-geometric instances.
pub(crate) fn hilbert_order(inst: &Instance) -> Vec<u32> {
    assert!(inst.metric().is_geometric(), "needs coordinates");
    const ORDER: u32 = 16;
    let side = (1u32 << ORDER) - 1;
    let pts = inst.points();
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in pts {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    let sx = side as f64 / (max_x - min_x).max(1e-9);
    let sy = side as f64 / (max_y - min_y).max(1e-9);
    let mut keyed: Vec<(u64, u32)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let gx = ((p.x - min_x) * sx) as u32;
            let gy = ((p.y - min_y) * sy) as u32;
            (hilbert_d(ORDER, gx.min(side), gy.min(side)), i as u32)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    #[test]
    fn hilbert_indices_distinct_for_distinct_cells() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..16u32 {
            for y in 0..16u32 {
                assert!(seen.insert(hilbert_d(4, x, y)), "collision at ({x},{y})");
            }
        }
    }

    #[test]
    fn hilbert_is_continuous() {
        // Consecutive indices map to adjacent cells: verify by inverting
        // over a small grid.
        let mut cells = vec![(0u32, 0u32); 256];
        for x in 0..16u32 {
            for y in 0..16u32 {
                cells[hilbert_d(4, x, y) as usize] = (x, y);
            }
        }
        for w in cells.windows(2) {
            let dx = (w[0].0 as i64 - w[1].0 as i64).abs();
            let dy = (w[0].1 as i64 - w[1].1 as i64).abs();
            assert_eq!(dx + dy, 1, "curve jumps from {:?} to {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn produces_valid_tour() {
        let inst = generate::uniform(500, 10_000.0, 11);
        let t = space_filling(&inst);
        assert!(t.is_valid());
    }

    #[test]
    fn locality_beats_random() {
        let inst = generate::uniform(400, 10_000.0, 12);
        let sfc = space_filling(&inst).length(&inst);
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(13);
        let r = Tour::random(400, &mut rng).length(&inst);
        assert!((sfc as f64) < 0.4 * r as f64);
    }
}
