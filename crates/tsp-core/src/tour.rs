//! Array-based tour representation.
//!
//! A [`Tour`] is a cyclic permutation of the cities `0..n`, stored as
//!
//! - `order[p]` — the city at position `p`, and
//! - `pos[c]` — the position of city `c`,
//!
//! with the invariant `order[pos[c]] == c` for every city. This is the
//! classic "array + position index" structure used by Concorde's
//! `linkern` for mid-size instances: `next`/`prev`/`between` are O(1),
//! and a 2-opt reconnection is a segment reversal of the shorter side
//! (≤ n/2 swaps).

use rand::Rng;

use crate::instance::Instance;

/// A cyclic permutation of cities with O(1) position queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tour {
    order: Vec<u32>,
    pos: Vec<u32>,
}

impl Tour {
    /// The identity tour `0, 1, …, n-1`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `n > u32::MAX as usize`.
    pub fn identity(n: usize) -> Self {
        assert!(n >= 3, "a tour needs at least 3 cities");
        assert!(n <= u32::MAX as usize, "city indices must fit in u32");
        let order: Vec<u32> = (0..n as u32).collect();
        let pos = order.clone();
        Tour { order, pos }
    }

    /// Build a tour from an explicit visiting order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_order(order: Vec<u32>) -> Self {
        match Self::try_from_order(order) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build a tour from an explicit visiting order, returning an
    /// error instead of panicking when `order` is not a permutation of
    /// `0..order.len()` — the entry point for orders received from the
    /// network, which must never be able to crash a node.
    pub fn try_from_order(order: Vec<u32>) -> Result<Self, String> {
        let n = order.len();
        if n < 3 {
            return Err(format!("a tour needs at least 3 cities, got {n}"));
        }
        let mut pos = vec![u32::MAX; n];
        for (p, &c) in order.iter().enumerate() {
            let c = c as usize;
            if c >= n {
                return Err(format!("city {c} out of range 0..{n}"));
            }
            if pos[c] != u32::MAX {
                return Err(format!("city {c} appears twice"));
            }
            pos[c] = p as u32;
        }
        Ok(Tour { order, pos })
    }

    /// A uniformly random tour.
    pub fn random<R: Rng>(n: usize, rng: &mut R) -> Self {
        let mut t = Tour::identity(n);
        // Fisher-Yates over the order array, keeping pos in sync at the end.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            t.order.swap(i, j);
        }
        for (p, &c) in t.order.iter().enumerate() {
            t.pos[c as usize] = p as u32;
        }
        t
    }

    /// Number of cities.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Tours are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The visiting order as a slice (`order[p]` = city at position `p`).
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Position of city `c` in the tour.
    #[inline(always)]
    pub fn position(&self, c: usize) -> usize {
        self.pos[c] as usize
    }

    /// City at position `p`.
    #[inline(always)]
    pub fn city_at(&self, p: usize) -> usize {
        self.order[p] as usize
    }

    /// Successor of city `c` in tour direction.
    #[inline(always)]
    pub fn next(&self, c: usize) -> usize {
        let p = self.pos[c] as usize;
        let p1 = if p + 1 == self.order.len() { 0 } else { p + 1 };
        self.order[p1] as usize
    }

    /// Predecessor of city `c` in tour direction.
    #[inline(always)]
    pub fn prev(&self, c: usize) -> usize {
        let p = self.pos[c] as usize;
        let p1 = if p == 0 { self.order.len() - 1 } else { p - 1 };
        self.order[p1] as usize
    }

    /// Whether city `b` lies on the directed path from `a` to `c`
    /// (exclusive of `a`, inclusive of nothing special at `c`): true iff
    /// walking forward from `a` meets `b` strictly before `c`.
    #[inline]
    pub fn between(&self, a: usize, b: usize, c: usize) -> bool {
        let (pa, pb, pc) = (self.pos[a], self.pos[b], self.pos[c]);
        if pa <= pc {
            pa < pb && pb < pc
        } else {
            pb > pa || pb < pc
        }
    }

    /// Exact tour length under the instance metric.
    ///
    /// # Panics
    ///
    /// Panics if the instance dimension differs from the tour length.
    pub fn length(&self, inst: &Instance) -> i64 {
        assert_eq!(inst.len(), self.len(), "instance/tour size mismatch");
        let n = self.order.len();
        let mut total = 0i64;
        for p in 0..n {
            let a = self.order[p] as usize;
            let b = self.order[if p + 1 == n { 0 } else { p + 1 }] as usize;
            total += inst.dist(a, b);
        }
        total
    }

    /// Check the permutation invariant `order[pos[c]] == c` for all `c`.
    pub fn is_valid(&self) -> bool {
        self.order.len() == self.pos.len()
            && self.pos.iter().enumerate().all(|(c, &p)| {
                (p as usize) < self.order.len() && self.order[p as usize] == c as u32
            })
    }

    /// Number of forward positions from `a` to `b` (cyclic distance in
    /// tour direction; 0 iff `a == b`).
    #[inline]
    fn forward_gap(&self, pa: usize, pb: usize) -> usize {
        let n = self.order.len();
        if pb >= pa {
            pb - pa
        } else {
            pb + n - pa
        }
    }

    /// The stretch of positions [`Tour::reverse_segment`]`(from, to)`
    /// rewrites: its first position and its length. It is the shorter
    /// side of the cycle (ties to the forward segment) and may run past
    /// position `n - 1` into position 0.
    #[inline]
    pub fn reversal(&self, from: usize, to: usize) -> (usize, usize) {
        let n = self.order.len();
        let inner = self.forward_gap(from, to) + 1;
        if inner * 2 <= n {
            (from, inner)
        } else {
            // The complementary segment: same cycle.
            ((to + 1) % n, n - inner)
        }
    }

    /// Reverse the cyclic segment of positions from `from` to `to`
    /// (inclusive, walking forward). Always reverses the *shorter* side
    /// of the cycle, which yields the same undirected tour in at most
    /// `n/2` swaps; a side that does not wrap position 0 is one slice
    /// reversal plus a position fix-up.
    pub fn reverse_segment(&mut self, from: usize, to: usize) {
        let n = self.order.len();
        debug_assert!(from < n && to < n);
        let (i, len) = self.reversal(from, to);
        if i + len <= n {
            let side = &mut self.order[i..i + len];
            side.reverse();
            for (p, &c) in (i..).zip(side.iter()) {
                self.pos[c as usize] = p as u32;
            }
            return;
        }
        let (mut i, mut j, mut m) = (i, (i + len - 1) % n, len / 2);
        while m > 0 {
            let (ci, cj) = (self.order[i], self.order[j]);
            self.order[i] = cj;
            self.order[j] = ci;
            self.pos[cj as usize] = i as u32;
            self.pos[ci as usize] = j as u32;
            i = if i + 1 == n { 0 } else { i + 1 };
            j = if j == 0 { n - 1 } else { j - 1 };
            m -= 1;
        }
    }

    /// Overwrite the positions from `lo` on with `cities`, which must be
    /// the cities those positions hold now in some order, and fix their
    /// positions: how a saved stretch of the array is put back.
    pub fn write_window(&mut self, lo: usize, cities: &[u32]) {
        self.order[lo..lo + cities.len()].copy_from_slice(cities);
        for (p, &c) in (lo..).zip(cities) {
            self.pos[c as usize] = p as u32;
        }
    }

    /// Double-bridge move: cut the tour at four positions and reconnect
    /// the quarters `A B C D` as `A C B D`. This is the 4-exchange kick
    /// of Martin, Otto & Felten used by Chained LK; it cannot be undone
    /// by any single 2-opt move and requires no segment reversal.
    ///
    /// `cuts` are tour *positions*; they are sorted internally and must
    /// be pairwise distinct.
    pub fn double_bridge_at(&mut self, mut cuts: [usize; 4]) {
        let n = self.order.len();
        cuts.sort_unstable();
        let [a, b, c, d] = cuts;
        assert!(
            a < b && b < c && c < d && d < n,
            "cuts must be distinct positions"
        );
        // Segments (by position, inclusive of the left cut's successor):
        //   S1 = (a+1..=b), S2 = (b+1..=c), S3 = (c+1..=d), S4 = (d+1..=a)
        // New order: S4 S2 S1 S3 rotated — equivalently the standard
        // A C B D reconnection of the quarters between cuts.
        let mut new_order = Vec::with_capacity(n);
        new_order.extend_from_slice(&self.order[..=a]);
        new_order.extend_from_slice(&self.order[c + 1..=d]);
        new_order.extend_from_slice(&self.order[b + 1..=c]);
        new_order.extend_from_slice(&self.order[a + 1..=b]);
        new_order.extend_from_slice(&self.order[d + 1..]);
        debug_assert_eq!(new_order.len(), n);
        self.order = new_order;
        for (p, &city) in self.order.iter().enumerate() {
            self.pos[city as usize] = p as u32;
        }
    }

    /// Apply one uniformly random double-bridge move. A tour of fewer
    /// than 8 cities is too small for a meaningful 4-exchange: it is
    /// left untouched, no random number is drawn, and the return value
    /// says so (`false`).
    pub fn random_double_bridge<R: Rng>(&mut self, rng: &mut R) -> bool {
        let n = self.len();
        if n < 8 {
            return false;
        }
        loop {
            let mut cuts = [0usize; 4];
            for c in cuts.iter_mut() {
                *c = rng.gen_range(0..n);
            }
            let mut sorted = cuts;
            sorted.sort_unstable();
            if sorted[0] < sorted[1] && sorted[1] < sorted[2] && sorted[2] < sorted[3] {
                self.double_bridge_at(sorted);
                return true;
            }
        }
    }

    /// Whether the undirected edge `(a, b)` is on the tour.
    #[inline]
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.next(a) == b || self.prev(a) == b
    }

    /// Iterate the undirected tour edges `(city, next_city)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.order.len();
        (0..n).map(move |p| {
            (
                self.order[p] as usize,
                self.order[if p + 1 == n { 0 } else { p + 1 }] as usize,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Point;
    use crate::metric::Metric;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn square() -> Instance {
        Instance::new(
            "square4",
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(0.0, 10.0),
            ],
            Metric::Euc2d,
        )
    }

    #[test]
    fn identity_and_accessors() {
        let t = Tour::identity(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.city_at(3), 3);
        assert_eq!(t.position(3), 3);
        assert_eq!(t.next(4), 0);
        assert_eq!(t.prev(0), 4);
        assert!(t.is_valid());
        assert!(!t.is_empty());
    }

    #[test]
    fn from_order_validates() {
        let t = Tour::from_order(vec![2, 0, 1, 3]);
        assert_eq!(t.position(2), 0);
        assert_eq!(t.next(3), 2);
        assert!(t.is_valid());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_city_rejected() {
        Tour::from_order(vec![0, 1, 1, 2]);
    }

    #[test]
    fn try_from_order_errors_instead_of_panicking() {
        assert!(Tour::try_from_order(vec![0, 1]).is_err());
        assert!(Tour::try_from_order(vec![0, 1, 1, 2]).is_err());
        assert!(Tour::try_from_order(vec![0, 1, 7, 2]).is_err());
        let t = Tour::try_from_order(vec![2, 0, 1, 3]).unwrap();
        assert!(t.is_valid());
    }

    #[test]
    fn length_square() {
        let inst = square();
        let t = Tour::identity(4);
        assert_eq!(t.length(&inst), 40);
        // Crossing tour 0-2-1-3 is longer: two diagonals (14each) + two sides
        let crossing = Tour::from_order(vec![0, 2, 1, 3]);
        assert_eq!(crossing.length(&inst), 14 + 10 + 14 + 10);
    }

    #[test]
    fn between_wraps() {
        let t = Tour::from_order(vec![0, 1, 2, 3, 4, 5]);
        assert!(t.between(1, 3, 5));
        assert!(!t.between(1, 5, 3));
        // Wrapping: from 4 forward, 0 comes before 2.
        assert!(t.between(4, 0, 2));
        assert!(!t.between(4, 2, 0));
    }

    #[test]
    fn reverse_segment_simple() {
        let mut t = Tour::from_order(vec![0, 1, 2, 3, 4, 5]);
        t.reverse_segment(1, 3); // reverse cities 1,2,3
        assert_eq!(t.order(), &[0, 3, 2, 1, 4, 5]);
        assert!(t.is_valid());
    }

    #[test]
    fn reverse_segment_wrapping_uses_short_side() {
        let mut t = Tour::from_order(vec![0, 1, 2, 3, 4, 5]);
        // Segment from position 4 to position 1 (cities 4,5,0,1) is length
        // 4 > 6/2, so the complement (2,3) is reversed instead; the cycle
        // is unchanged as an undirected tour.
        t.reverse_segment(4, 1);
        assert_eq!(t.order(), &[0, 1, 3, 2, 4, 5]);
        assert!(t.is_valid());
    }

    #[test]
    fn slice_and_wrapped_reversals_match_the_swap_loop() {
        // Reference: the pairwise swap loop, run on a copy.
        fn swapped(t: &Tour, from: usize, to: usize) -> Vec<u32> {
            let n = t.len();
            let (i, len) = t.reversal(from, to);
            let mut order = t.order().to_vec();
            let (mut i, mut j) = (i, (i + len + n - 1) % n);
            for _ in 0..len / 2 {
                order.swap(i, j);
                i = (i + 1) % n;
                j = (j + n - 1) % n;
            }
            order
        }
        let mut rng = SmallRng::seed_from_u64(8);
        for n in [3usize, 4, 8, 9, 64] {
            let mut t = Tour::random(n, &mut rng);
            for _ in 0..200 {
                let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let want = swapped(&t, from, to);
                t.reverse_segment(from, to);
                assert_eq!(t.order(), &want[..], "n={n} {from}..{to}");
                assert!(t.is_valid());
            }
        }
    }

    #[test]
    fn write_window_puts_a_stretch_back() {
        let mut t = Tour::from_order(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let saved = t.order()[2..6].to_vec();
        t.reverse_segment(2, 5);
        t.reverse_segment(3, 4);
        t.write_window(2, &saved);
        assert_eq!(t, Tour::from_order(vec![0, 1, 2, 3, 4, 5, 6, 7]));
    }

    #[test]
    fn double_bridge_keeps_permutation() {
        let mut t = Tour::identity(12);
        t.double_bridge_at([2, 5, 7, 10]);
        assert!(t.is_valid());
        // A double bridge changes exactly 4 edges.
        let orig = Tour::identity(12);
        let orig_edges: std::collections::HashSet<(usize, usize)> =
            orig.edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
        let new_edges: std::collections::HashSet<(usize, usize)> =
            t.edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
        let removed = orig_edges.difference(&new_edges).count();
        assert_eq!(removed, 4);
    }

    #[test]
    fn random_double_bridge_valid() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut t = Tour::identity(50);
        for _ in 0..100 {
            t.random_double_bridge(&mut rng);
            assert!(t.is_valid());
        }
    }

    #[test]
    fn random_double_bridge_small_tour_noop() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut t = Tour::identity(5);
        assert!(!t.random_double_bridge(&mut rng));
        assert_eq!(t.order(), &[0, 1, 2, 3, 4]);
        // ... and without touching the RNG.
        assert_eq!(rng.gen::<u64>(), SmallRng::seed_from_u64(7).gen::<u64>());
    }

    #[test]
    fn random_tour_is_valid() {
        let mut rng = SmallRng::seed_from_u64(123);
        for _ in 0..20 {
            let t = Tour::random(64, &mut rng);
            assert!(t.is_valid());
        }
    }

    #[test]
    fn has_edge() {
        let t = Tour::from_order(vec![3, 1, 4, 0, 2]);
        assert!(t.has_edge(3, 1));
        assert!(t.has_edge(1, 3));
        assert!(t.has_edge(2, 3)); // wrap
        assert!(!t.has_edge(3, 0));
    }

    #[test]
    fn edges_cover_all_cities_twice() {
        let t = Tour::random(30, &mut SmallRng::seed_from_u64(5));
        let mut deg = vec![0usize; 30];
        for (a, b) in t.edges() {
            deg[a] += 1;
            deg[b] += 1;
        }
        assert!(deg.iter().all(|&d| d == 2));
    }
}
