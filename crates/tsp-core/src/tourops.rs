//! Representation-independent tour operations.
//!
//! [`TourOps`] is the hot-path interface shared by the array [`Tour`]
//! and the [`TwoLevelList`]: O(1)-ish `next`/`prev`/`between` queries
//! plus `flip`, the single mutation primitive that every
//! 2-opt-decomposable move (LK steps, Or-opt reinsertion, the
//! double-bridge kick) reduces to. Local search written against this
//! trait runs unchanged on either structure (array flips are O(n),
//! two-level flips O(√n)); `lk::ClkEngine` picks one for the caller.
//!
//! Both implementations choose the reversed side of a `flip` by the
//! same city-count rule (reverse the side with fewer cities, ties to
//! the forward path). That makes identical move traces keep the two
//! structures in *directed-orientation lockstep* — not merely equal as
//! undirected cycles — which is what the cross-representation property
//! tests in `crates/lk` assert.

use crate::instance::Instance;
use crate::tour::Tour;
use crate::twolevel::TwoLevelList;

/// Hot-path tour operations, implemented by [`Tour`] and
/// [`TwoLevelList`].
pub trait TourOps {
    /// Number of cities.
    fn len(&self) -> usize;

    /// Tours are never empty (both representations require n >= 3).
    fn is_empty(&self) -> bool {
        false
    }

    /// Successor of city `c` in tour direction.
    fn next(&self, c: usize) -> usize;

    /// Predecessor of city `c` in tour direction.
    fn prev(&self, c: usize) -> usize;

    /// Whether walking forward from `a` meets `b` strictly before `c`.
    fn between(&self, a: usize, b: usize, c: usize) -> bool;

    /// O(1) tour index of city `c` in `0..len()`: the origin is
    /// arbitrary but `index(next(c)) == (index(c) + 1) % len()` holds for
    /// every city, so index differences are walking distances. Stable
    /// only until the next `flip`.
    fn index(&self, c: usize) -> usize;

    /// Reverse the directed path `a … b` (inclusive, walking forward).
    ///
    /// Implementations reverse whichever side of the cycle holds fewer
    /// cities, with ties going to the forward path — exactly the rule
    /// of [`Tour::reverse_segment`] — so that identical flip sequences
    /// keep every implementation on the same directed cycle.
    fn flip(&mut self, a: usize, b: usize);

    /// Flatten to a visiting order, canonically: the walk starts at
    /// city 0 and follows `next`. Canonicalization makes the output
    /// depend only on the directed cycle, never on an implementation's
    /// internal linearization, so orders from different representations
    /// of the same tour compare equal.
    fn to_order(&self) -> Vec<u32> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        let mut c = 0usize;
        for _ in 0..n {
            out.push(c as u32);
            c = self.next(c);
        }
        out
    }

    /// Whether the undirected edge `(a, b)` is on the tour.
    #[inline]
    fn has_edge(&self, a: usize, b: usize) -> bool {
        self.next(a) == b || self.prev(a) == b
    }

    /// Exact tour length under the instance metric, by walking
    /// successor links once around the cycle.
    fn tour_length(&self, inst: &Instance) -> i64 {
        assert_eq!(inst.len(), self.len(), "instance/tour size mismatch");
        let mut total = 0i64;
        let mut c = 0usize;
        loop {
            let d = self.next(c);
            total += inst.dist(c, d);
            c = d;
            if c == 0 {
                return total;
            }
        }
    }
}

/// A [`TourOps`] implementation that can be constructed from and
/// converted back to a plain visiting order — what the Chained-LK
/// driver needs to move tours across the representation boundary.
pub trait TourRep: TourOps + Clone {
    /// Short human-readable name ("array" / "twolevel"), used by
    /// diagnostics.
    const NAME: &'static str;

    /// Build from a visiting order (must be a permutation of `0..n`).
    fn from_order_slice(order: &[u32]) -> Self;

    /// Build from an array tour.
    fn from_tour(tour: &Tour) -> Self {
        Self::from_order_slice(tour.order())
    }

    /// Convert to an array tour (canonical rotation, like
    /// [`TourOps::to_order`]).
    fn to_tour(&self) -> Tour {
        Tour::from_order(self.to_order())
    }

    /// The array tour itself, when this representation is one: its
    /// positions are storage slots, so a caller can save and restore a
    /// stretch of them ([`Tour::reversal`], [`Tour::write_window`]).
    fn as_array(&self) -> Option<&Tour> {
        None
    }

    /// [`TourRep::as_array`], mutably.
    fn as_array_mut(&mut self) -> Option<&mut Tour> {
        None
    }
}

impl TourOps for Tour {
    #[inline(always)]
    fn len(&self) -> usize {
        Tour::len(self)
    }

    #[inline(always)]
    fn next(&self, c: usize) -> usize {
        Tour::next(self, c)
    }

    #[inline(always)]
    fn prev(&self, c: usize) -> usize {
        Tour::prev(self, c)
    }

    #[inline]
    fn between(&self, a: usize, b: usize, c: usize) -> bool {
        Tour::between(self, a, b, c)
    }

    #[inline(always)]
    fn index(&self, c: usize) -> usize {
        self.position(c)
    }

    #[inline]
    fn flip(&mut self, a: usize, b: usize) {
        let (pa, pb) = (self.position(a), self.position(b));
        self.reverse_segment(pa, pb);
    }

    fn to_order(&self) -> Vec<u32> {
        // Same canonical rotation as the default, but via two slice
        // copies instead of n successor chases.
        let p = self.position(0);
        let o = self.order();
        let mut out = Vec::with_capacity(o.len());
        out.extend_from_slice(&o[p..]);
        out.extend_from_slice(&o[..p]);
        out
    }

    #[inline]
    fn has_edge(&self, a: usize, b: usize) -> bool {
        Tour::has_edge(self, a, b)
    }

    fn tour_length(&self, inst: &Instance) -> i64 {
        self.length(inst)
    }
}

impl TourRep for Tour {
    const NAME: &'static str = "array";

    fn from_order_slice(order: &[u32]) -> Self {
        Tour::from_order(order.to_vec())
    }

    #[inline(always)]
    fn as_array(&self) -> Option<&Tour> {
        Some(self)
    }

    #[inline(always)]
    fn as_array_mut(&mut self) -> Option<&mut Tour> {
        Some(self)
    }
}

impl TourOps for TwoLevelList {
    #[inline(always)]
    fn len(&self) -> usize {
        TwoLevelList::len(self)
    }

    #[inline(always)]
    fn next(&self, c: usize) -> usize {
        TwoLevelList::next(self, c)
    }

    #[inline(always)]
    fn prev(&self, c: usize) -> usize {
        TwoLevelList::prev(self, c)
    }

    #[inline]
    fn between(&self, a: usize, b: usize, c: usize) -> bool {
        TwoLevelList::between(self, a, b, c)
    }

    #[inline(always)]
    fn index(&self, c: usize) -> usize {
        TwoLevelList::index(self, c)
    }

    #[inline]
    fn flip(&mut self, a: usize, b: usize) {
        TwoLevelList::flip(self, a, b)
    }
}

impl TourRep for TwoLevelList {
    const NAME: &'static str = "twolevel";

    fn from_order_slice(order: &[u32]) -> Self {
        TwoLevelList::from_order_slice(order)
    }

    fn from_tour(tour: &Tour) -> Self {
        TwoLevelList::from_tour(tour)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The lockstep guarantee: identical flip traces keep both
    /// representations on the same *directed* cycle (same order vector,
    /// up to the array's fixed position frame).
    #[test]
    fn flip_traces_stay_in_directed_lockstep() {
        let n = 150usize;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut t = Tour::random(n, &mut rng);
        let mut tl = TwoLevelList::from_tour(&t);
        for step in 0..400 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            TourOps::flip(&mut t, a, b);
            TourOps::flip(&mut tl, a, b);
            // Compare directed successor of every city, which pins the
            // orientation, not just the undirected edge set.
            for c in 0..n {
                assert_eq!(
                    TourOps::next(&tl, c),
                    TourOps::next(&t, c),
                    "directed divergence at step {step} (flip {a},{b}), city {c}"
                );
            }
        }
    }

    /// The list's index is the array's position after any flips,
    /// across rebuilds too (n = 1000 and 5000 rebuild within 3000 flips).
    #[test]
    fn two_level_index_is_the_array_position() {
        for n in [10usize, 64, 1000, 5000] {
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let mut t = Tour::random(n, &mut rng);
            let mut tl = TwoLevelList::from_tour(&t);
            for step in 0..3000 {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                TourOps::flip(&mut t, a, b);
                TourOps::flip(&mut tl, a, b);
                for c in 0..n {
                    assert_eq!(TourOps::index(&tl, c), t.position(c), "n={n} step {step}");
                }
            }
        }
    }

    #[test]
    fn trait_queries_agree_with_inherent() {
        let mut rng = SmallRng::seed_from_u64(12);
        let t = Tour::random(40, &mut rng);
        let tl = TwoLevelList::from_tour(&t);
        for c in 0..40 {
            assert_eq!(TourOps::next(&t, c), TourOps::next(&tl, c));
            assert_eq!(TourOps::prev(&t, c), TourOps::prev(&tl, c));
        }
        assert_eq!(TourOps::to_order(&t), TourOps::to_order(&tl));
        assert!(TourOps::has_edge(&tl, t.city_at(0), t.city_at(1)));
    }

    #[test]
    fn tour_length_walk_matches_array_length() {
        use crate::generate;
        let inst = generate::uniform(60, 1_000.0, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let t = Tour::random(60, &mut rng);
        let tl = TwoLevelList::from_tour(&t);
        assert_eq!(TourOps::tour_length(&tl, &inst), t.length(&inst));
        assert_eq!(TourOps::tour_length(&t, &inst), t.length(&inst));
    }

    #[test]
    fn rep_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(9);
        let t = Tour::random(33, &mut rng);
        let tl = <TwoLevelList as TourRep>::from_tour(&t);
        // Canonical conversions agree between representations ...
        assert_eq!(TourRep::to_tour(&tl).order(), TourOps::to_order(&t));
        assert_eq!(TourRep::to_tour(&t).order(), TourOps::to_order(&t));
        // ... and canonicalization preserves the directed cycle.
        let back = TourRep::to_tour(&tl);
        for c in 0..33 {
            assert_eq!(back.next(c), t.next(c));
        }
        let t2 = <Tour as TourRep>::from_order_slice(t.order());
        assert_eq!(t2, t);
        assert_eq!(<Tour as TourRep>::NAME, "array");
        assert_eq!(<TwoLevelList as TourRep>::NAME, "twolevel");
    }
}
