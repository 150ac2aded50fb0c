//! TSPLIB edge-weight functions.
//!
//! All metrics produce integral distances (`i64`) following the rounding
//! rules in Reinelt's TSPLIB 95 specification, so tour lengths are exact
//! integers, portable across platforms, and free of floating-point
//! accumulation drift — which matters because the distributed algorithm
//! compares tour lengths received over the network against locally
//! computed ones.

use crate::instance::Point;

/// Mean earth radius used by TSPLIB's `GEO` metric (kilometres).
const GEO_EARTH_RADIUS: f64 = 6378.388;

/// Edge-weight function of an instance.
///
/// The variants mirror TSPLIB's `EDGE_WEIGHT_TYPE` values that occur in
/// the paper's testbed, plus `Explicit` for matrix-specified instances.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Euclidean distance rounded to the nearest integer (`EUC_2D`).
    Euc2d,
    /// Euclidean distance rounded *up* (`CEIL_2D`), used by the `pla*`
    /// instances (pla33810, pla85900).
    Ceil2d,
    /// Pseudo-Euclidean distance (`ATT`), used by att-series instances.
    Att,
    /// Geographical distance on the earth sphere (`GEO`): coordinates are
    /// DDD.MM degree/minute latitude/longitude pairs.
    Geo,
    /// Explicit full symmetric distance matrix, stored row-major.
    ///
    /// The second field is the dimension `n`; the vector holds `n * n`
    /// entries.
    Explicit(Vec<i64>, usize),
    /// Maximum-coordinate-difference distance (`MAX_2D`).
    Max2d,
    /// Manhattan distance rounded to the nearest integer (`MAN_2D`).
    Man2d,
}

impl Metric {
    /// TSPLIB keyword naming this metric, as written in
    /// `EDGE_WEIGHT_TYPE`.
    pub fn tsplib_name(&self) -> &'static str {
        match self {
            Metric::Euc2d => "EUC_2D",
            Metric::Ceil2d => "CEIL_2D",
            Metric::Att => "ATT",
            Metric::Geo => "GEO",
            Metric::Explicit(..) => "EXPLICIT",
            Metric::Max2d => "MAX_2D",
            Metric::Man2d => "MAN_2D",
        }
    }

    /// Distance between two points under this metric.
    ///
    /// For [`Metric::Explicit`] the *indices* must be supplied via
    /// [`Metric::explicit_distance`]; this method panics if called on an
    /// explicit metric because the coordinates carry no information.
    #[inline]
    pub fn distance(&self, a: Point, b: Point) -> i64 {
        match self {
            Metric::Euc2d => euc_2d(a, b),
            Metric::Ceil2d => ceil_2d(a, b),
            Metric::Att => att(a, b),
            Metric::Geo => geo(a, b),
            Metric::Max2d => max_2d(a, b),
            Metric::Man2d => man_2d(a, b),
            Metric::Explicit(..) => {
                panic!("explicit metric requires index-based lookup, not coordinates")
            }
        }
    }

    /// Distance between two cities of an explicit-matrix metric.
    #[inline]
    pub fn explicit_distance(&self, i: usize, j: usize) -> i64 {
        match self {
            Metric::Explicit(m, n) => m[i * n + j],
            _ => panic!("explicit_distance called on coordinate metric"),
        }
    }

    /// Whether distances are derived from 2-D coordinates (true for all
    /// variants except [`Metric::Explicit`]).
    pub fn is_geometric(&self) -> bool {
        !matches!(self, Metric::Explicit(..))
    }
}

/// TSPLIB `nint`: round half away from zero.
///
/// Every input in this module is a nonnegative distance, where
/// `floor(x + 0.5)` equals truncation — and `as i64` is a single
/// `cvttsd2si` where `floor` is a libm call on baseline x86-64, which
/// makes this the difference between a rounding instruction and a
/// function call on the engine's hottest path.
#[inline(always)]
fn nint(x: f64) -> i64 {
    debug_assert!(x >= 0.0, "nint is truncation-based, nonnegative only");
    (x + 0.5) as i64
}

/// `EUC_2D`: Euclidean distance rounded to nearest integer.
#[inline(always)]
pub fn euc_2d(a: Point, b: Point) -> i64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    nint((dx * dx + dy * dy).sqrt())
}

/// `CEIL_2D`: Euclidean distance rounded up.
#[inline(always)]
pub fn ceil_2d(a: Point, b: Point) -> i64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    (dx * dx + dy * dy).sqrt().ceil() as i64
}

/// `MAX_2D`: Chebyshev (L∞) distance.
#[inline(always)]
pub fn max_2d(a: Point, b: Point) -> i64 {
    let dx = nint((a.x - b.x).abs());
    let dy = nint((a.y - b.y).abs());
    dx.max(dy)
}

/// `MAN_2D`: Manhattan (L1) distance rounded to nearest integer.
#[inline(always)]
pub fn man_2d(a: Point, b: Point) -> i64 {
    nint((a.x - b.x).abs() + (a.y - b.y).abs())
}

/// `ATT`: the pseudo-Euclidean metric of TSPLIB (att48, att532).
#[inline(always)]
pub fn att(a: Point, b: Point) -> i64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    let r = ((dx * dx + dy * dy) / 10.0).sqrt();
    let t = nint(r);
    if (t as f64) < r {
        t + 1
    } else {
        t
    }
}

/// Convert a TSPLIB DDD.MM coordinate to radians per the GEO rules.
#[inline]
fn geo_radians(coord: f64) -> f64 {
    let deg = coord.trunc();
    let min = coord - deg;
    std::f64::consts::PI * (deg + 5.0 * min / 3.0) / 180.0
}

/// `GEO`: geographical distance in kilometres on the idealized sphere.
#[inline]
pub fn geo(a: Point, b: Point) -> i64 {
    let lat_a = geo_radians(a.x);
    let lon_a = geo_radians(a.y);
    let lat_b = geo_radians(b.x);
    let lon_b = geo_radians(b.y);
    let q1 = (lon_a - lon_b).cos();
    let q2 = (lat_a - lat_b).cos();
    let q3 = (lat_a + lat_b).cos();
    (GEO_EARTH_RADIUS * (0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)).acos() + 1.0) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point { x, y }
    }

    #[test]
    fn euc_2d_rounds_to_nearest() {
        assert_eq!(euc_2d(p(0.0, 0.0), p(3.0, 4.0)), 5);
        // sqrt(2) = 1.414... rounds to 1
        assert_eq!(euc_2d(p(0.0, 0.0), p(1.0, 1.0)), 1);
        // sqrt(8) = 2.828... rounds to 3
        assert_eq!(euc_2d(p(0.0, 0.0), p(2.0, 2.0)), 3);
        assert_eq!(euc_2d(p(0.0, 0.0), p(0.0, 0.0)), 0);
    }

    #[test]
    fn ceil_2d_rounds_up() {
        assert_eq!(ceil_2d(p(0.0, 0.0), p(1.0, 1.0)), 2);
        assert_eq!(ceil_2d(p(0.0, 0.0), p(3.0, 4.0)), 5);
        assert_eq!(ceil_2d(p(0.0, 0.0), p(0.0, 0.0)), 0);
    }

    #[test]
    fn max_and_man() {
        assert_eq!(max_2d(p(0.0, 0.0), p(3.0, 4.0)), 4);
        assert_eq!(man_2d(p(0.0, 0.0), p(3.0, 4.0)), 7);
    }

    #[test]
    fn att_is_at_least_scaled_euclidean() {
        // ATT distance is ceil-like on sqrt(d^2/10).
        let d = att(p(0.0, 0.0), p(10.0, 0.0));
        // sqrt(100/10) = sqrt(10) = 3.162..., nint = 3, 3 < 3.162 -> 4
        assert_eq!(d, 4);
    }

    #[test]
    fn att_exact_integer_not_bumped() {
        // dx = 10 => sqrt(1000/10) = 10 exactly; nint(10)=10, not bumped.
        let d = att(p(0.0, 0.0), p(0.0, 31.622_776_601_683_793));
        // sqrt(31.62..^2/10) = sqrt(99.999..) ~ 10.0 (slightly below),
        // nint = 10, 10 >= r -> stays 10
        assert_eq!(d, 10);
    }

    #[test]
    fn geo_matches_tsplib_reference_shape() {
        // Two identical points: distance 1 km (the +1.0 in the formula
        // truncates acos(1)=0 to 0, +1.0 -> 1). TSPLIB's own reference
        // code produces 0 only via acos rounding; accept 0 or 1 here and
        // pin symmetry instead.
        let a = p(49.45, 7.75); // Kaiserslautern-ish, DDD.MM
        let b = p(52.30, 13.25); // Berlin-ish
        let d1 = geo(a, b);
        let d2 = geo(b, a);
        assert_eq!(d1, d2);
        assert!(
            d1 > 300 && d1 < 600,
            "Kaiserslautern-Berlin ~ 400-450 km, got {d1}"
        );
    }

    #[test]
    fn metric_dispatch() {
        let m = Metric::Euc2d;
        assert_eq!(m.distance(p(0.0, 0.0), p(3.0, 4.0)), 5);
        assert_eq!(m.tsplib_name(), "EUC_2D");
        assert!(m.is_geometric());
    }

    #[test]
    fn explicit_lookup() {
        let m = Metric::Explicit(vec![0, 2, 2, 0], 2);
        assert_eq!(m.explicit_distance(0, 1), 2);
        assert_eq!(m.explicit_distance(1, 1), 0);
        assert!(!m.is_geometric());
        assert_eq!(m.tsplib_name(), "EXPLICIT");
    }

    #[test]
    #[should_panic(expected = "explicit metric requires index-based lookup")]
    fn explicit_coordinate_distance_panics() {
        Metric::Explicit(vec![0], 1).distance(p(0.0, 0.0), p(1.0, 1.0));
    }

    #[test]
    fn symmetry_across_metrics() {
        let pts = [p(1.5, 2.5), p(-3.0, 4.0), p(100.25, -7.75)];
        for m in [
            Metric::Euc2d,
            Metric::Ceil2d,
            Metric::Att,
            Metric::Max2d,
            Metric::Man2d,
        ] {
            for &a in &pts {
                for &b in &pts {
                    assert_eq!(m.distance(a, b), m.distance(b, a), "{m:?}");
                }
            }
        }
    }
}
