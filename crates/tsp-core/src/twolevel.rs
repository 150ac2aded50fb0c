//! Two-level doubly-linked tour representation.
//!
//! Concorde's `linkern` uses a two-level list for large instances: the
//! tour is split into ~√n *segments*; each segment stores its cities in
//! an array plus a `reversed` flag. `next`/`prev`/`between` stay O(1)
//! while a 2-opt flip becomes O(√n) (split at the two cut cities, then
//! reverse a *run of segment handles* instead of the cities
//! themselves). The array representation of [`crate::tour::Tour`]
//! reverses O(n) cities per flip, which dominates the runtime on the
//! paper's largest instances (pla33810/pla85900-class); this structure
//! is the substrate that removes that bottleneck.
//!
//! The structure maintains:
//!
//! - `segments`: arena of segments (stable ids),
//! - `order`: segment ids in tour order,
//! - `seg_pos[id]`: position of segment `id` in `order`,
//! - `city_seg[c]` / `city_off[c]`: segment id and *physical* offset of
//!   city `c` inside that segment.
//!
//! Invariant: walking `order`, expanding each segment in logical
//! direction (`reversed` flips the physical array), yields the tour.

use crate::tour::Tour;

/// Target number of cities per segment, as a function of n.
fn target_seg_len(n: usize) -> usize {
    (2 * (n as f64).sqrt() as usize).clamp(4, 4096)
}

/// Reduce a tour index into `[0, n)`; `x` is always `< 2n`.
#[inline]
fn wrap_pos(x: u32, n: usize) -> u32 {
    if x >= n as u32 {
        x - n as u32
    } else {
        x
    }
}

#[derive(Debug, Clone)]
struct Segment {
    cities: Vec<u32>,
    reversed: bool,
}

impl Segment {
    #[inline]
    fn len(&self) -> usize {
        self.cities.len()
    }

    /// Logical index of physical offset `off`.
    #[inline]
    fn logical(&self, off: usize) -> usize {
        if self.reversed {
            self.len() - 1 - off
        } else {
            off
        }
    }
}

/// A two-level doubly-linked tour over cities `0..n`.
#[derive(Debug, Clone)]
pub struct TwoLevelList {
    segments: Vec<Segment>,
    /// Segment ids in tour order.
    order: Vec<u32>,
    /// Position of each segment id in `order` (`u32::MAX` for retired ids).
    seg_pos: Vec<u32>,
    /// Tour index (mod n, arbitrary but consistent origin) of each
    /// segment's logical first city: walking `order`, each segment's
    /// start is the previous start plus the previous length (mod n).
    /// Gives O(1) city counts between two segment heads, which is how
    /// [`Self::flip`] picks the shorter side without walking segments.
    seg_start: Vec<u32>,
    city_seg: Vec<u32>,
    city_off: Vec<u32>,
    n: usize,
    /// Rebuild threshold: when `order.len()` exceeds this, group sizes
    /// have degenerated (too many splits) and the structure re-groups.
    max_segments: usize,
    /// Largest segment a neighbor merge may produce (2x the build-time
    /// target length).
    merge_cap: usize,
}

impl TwoLevelList {
    /// Build from a tour.
    pub fn from_tour(tour: &Tour) -> Self {
        Self::from_order_slice(tour.order())
    }

    /// Build from a visiting order.
    pub fn from_order_slice(order_slice: &[u32]) -> Self {
        let n = order_slice.len();
        assert!(n >= 3, "a tour needs at least 3 cities");
        let seg_len = target_seg_len(n);
        let nsegs = n.div_ceil(seg_len);
        let mut tl = TwoLevelList {
            segments: Vec::with_capacity(nsegs * 2),
            order: Vec::with_capacity(nsegs * 2),
            seg_pos: Vec::new(),
            seg_start: Vec::with_capacity(nsegs * 2),
            city_seg: vec![0; n],
            city_off: vec![0; n],
            n,
            // Rebuilds are O(n); with the in-place flip fast path the
            // directory grows slowly, so a roomy threshold (16x) trades
            // slightly longer handle runs for far fewer rebuilds —
            // measured fastest on 100k-200k first passes (8x and 32x
            // are both slower).
            max_segments: 16 * nsegs + 8,
            merge_cap: 2 * seg_len,
        };
        let mut start = 0u32;
        for chunk in order_slice.chunks(seg_len) {
            let id = tl.segments.len() as u32;
            for (off, &c) in chunk.iter().enumerate() {
                tl.city_seg[c as usize] = id;
                tl.city_off[c as usize] = off as u32;
            }
            tl.segments.push(Segment {
                cities: chunk.to_vec(),
                reversed: false,
            });
            tl.order.push(id);
            tl.seg_start.push(start);
            start += chunk.len() as u32;
        }
        tl.seg_pos = vec![u32::MAX; tl.segments.len()];
        for (pos, &id) in tl.order.iter().enumerate() {
            tl.seg_pos[id as usize] = pos as u32;
        }
        tl
    }

    /// Number of cities.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Tours are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Current number of segments (diagnostics / tests).
    pub fn segment_count(&self) -> usize {
        self.order.len()
    }

    #[inline]
    fn seg(&self, id: u32) -> &Segment {
        &self.segments[id as usize]
    }

    /// Global logical coordinates of a city: `(segment position in
    /// order, logical index in segment)`.
    #[inline]
    fn coords(&self, c: usize) -> (usize, usize) {
        let id = self.city_seg[c];
        let seg = self.seg(id);
        (
            self.seg_pos[id as usize] as usize,
            seg.logical(self.city_off[c] as usize),
        )
    }

    /// Tour index of city `c`: its segment's start plus its logical
    /// offset (mod n), so `index(next(c)) == (index(c) + 1) % n`. Built
    /// from an order, the index is the position in it; flips reverse
    /// the shorter side in place and rebuilds keep every index, so it
    /// stays the position an array tour given the same flips holds `c`
    /// at.
    #[inline]
    pub fn index(&self, c: usize) -> usize {
        let id = self.city_seg[c] as usize;
        let logical = self.segments[id].logical(self.city_off[c] as usize);
        wrap_pos(self.seg_start[id] + logical as u32, self.n) as usize
    }

    /// Successor of city `c` in tour direction.
    ///
    /// Works in *physical* offsets: within a segment the successor is
    /// the adjacent array slot (direction given by `reversed`), so the
    /// common case is one branch and one load past the metadata lookups
    /// — this is the hottest operation in candidate scans.
    #[inline]
    pub fn next(&self, c: usize) -> usize {
        let id = self.city_seg[c] as usize;
        let seg = &self.segments[id];
        let off = self.city_off[c] as usize;
        if seg.reversed {
            if off > 0 {
                return seg.cities[off - 1] as usize;
            }
        } else if off + 1 < seg.cities.len() {
            return seg.cities[off + 1] as usize;
        }
        // Segment boundary: logical first city of the following segment.
        let pos = self.seg_pos[id] as usize + 1;
        let pos = if pos == self.order.len() { 0 } else { pos };
        let nseg = &self.segments[self.order[pos] as usize];
        let first = if nseg.reversed {
            nseg.cities.len() - 1
        } else {
            0
        };
        nseg.cities[first] as usize
    }

    /// Predecessor of city `c` in tour direction.
    #[inline]
    pub fn prev(&self, c: usize) -> usize {
        let id = self.city_seg[c] as usize;
        let seg = &self.segments[id];
        let off = self.city_off[c] as usize;
        if seg.reversed {
            if off + 1 < seg.cities.len() {
                return seg.cities[off + 1] as usize;
            }
        } else if off > 0 {
            return seg.cities[off - 1] as usize;
        }
        // Segment boundary: logical last city of the preceding segment.
        let pos = self.seg_pos[id] as usize;
        let pos = if pos == 0 {
            self.order.len() - 1
        } else {
            pos - 1
        };
        let pseg = &self.segments[self.order[pos] as usize];
        let last = if pseg.reversed {
            0
        } else {
            pseg.cities.len() - 1
        };
        pseg.cities[last] as usize
    }

    /// Whether walking forward from `a` meets `b` strictly before `c`
    /// (same semantics as [`Tour::between`]).
    #[inline]
    pub fn between(&self, a: usize, b: usize, c: usize) -> bool {
        let pa = self.coords(a);
        let pb = self.coords(b);
        let pc = self.coords(c);
        if pa <= pc {
            pa < pb && pb < pc
        } else {
            pb > pa || pb < pc
        }
    }

    /// Split the segment containing `c` so that `c` becomes the
    /// *logical first* city of its segment. No-op if it already is.
    ///
    /// Always detaches the *physical suffix* of the segment: the kept
    /// cities never move, so only the detached cities need metadata
    /// fixups (one loop, no offset re-shuffle of the kept side). For a
    /// forward segment the suffix is the logical run starting at `c`
    /// (new segment goes after); for a reversed one it is the logical
    /// prefix ending before `c` (new segment goes before).
    fn split_before(&mut self, c: usize) {
        self.split_before_protected(c, None);
    }

    /// [`Self::split_before`], refusing to merge the detached run into
    /// segment `protect`: a prepend-merge makes the run's first city the
    /// new logical head of the target, which would silently demote
    /// `protect`'s current head — and `flip` needs the head it
    /// established with the *first* split to stay put.
    fn split_before_protected(&mut self, c: usize, protect: Option<u32>) {
        let id = self.city_seg[c] as usize;
        let seg = &self.segments[id];
        let off = self.city_off[c] as usize;
        let (cut, before) = if seg.reversed {
            if off + 1 == seg.cities.len() {
                return; // already logical first
            }
            (off + 1, true)
        } else {
            if off == 0 {
                return;
            }
            (off, false)
        };
        let moved_len = self.segments[id].cities.len() - cut;
        let old_start = self.seg_start[id];
        let m = self.order.len();
        let pos_id = self.seg_pos[id] as usize;

        // Absorb the detached run into the logically adjacent neighbor
        // when orientations line up: in both directions the run lands at
        // the neighbor's *physical tail* in reverse physical order — an
        // O(|moved|) extend with no new segment, which keeps the segment
        // count (and thus flip's handle-run length) flat between
        // rebuilds.
        if m >= 2 {
            let npos = if before {
                if pos_id == 0 {
                    m - 1
                } else {
                    pos_id - 1
                }
            } else if pos_id + 1 == m {
                0
            } else {
                pos_id + 1
            };
            let nid = self.order[npos] as usize;
            let nseg = &self.segments[nid];
            // before → neighbor precedes and must be forward; otherwise
            // neighbor follows and must be reversed.
            let oriented = nseg.reversed != before;
            // A protected head must stay a segment head. A `before`
            // merge moves this segment's logical prefix — whose first
            // city is its head — into the neighbor's tail; the other
            // direction prepends the detached run ahead of the
            // neighbor's head. Either way the named segment's head
            // would stop being one.
            let safe = protect != Some(if before { id } else { nid } as u32);
            if oriented && safe && nseg.cities.len() + moved_len <= self.merge_cap {
                let TwoLevelList {
                    segments,
                    city_seg,
                    city_off,
                    ..
                } = self;
                let (i, j) = (id.min(nid), id.max(nid));
                let (lo, hi) = segments.split_at_mut(j);
                let (seg_ref, nseg_ref) = if id < nid {
                    (&mut lo[i], &mut hi[0])
                } else {
                    (&mut hi[0], &mut lo[i])
                };
                let base = nseg_ref.cities.len();
                nseg_ref.cities.extend(seg_ref.cities[cut..].iter().rev());
                seg_ref.cities.truncate(cut);
                for (k, &city) in nseg_ref.cities[base..].iter().enumerate() {
                    city_seg[city as usize] = nid as u32;
                    city_off[city as usize] = (base + k) as u32;
                }
                if before {
                    self.seg_start[id] = wrap_pos(old_start + moved_len as u32, self.n);
                } else {
                    self.seg_start[nid] = wrap_pos(old_start + cut as u32, self.n);
                }
                return;
            }
        }

        let moved = self.segments[id].cities.split_off(cut);
        let new_id = self.segments.len() as u32;
        for (o, &city) in moved.iter().enumerate() {
            self.city_seg[city as usize] = new_id;
            self.city_off[city as usize] = o as u32;
        }
        let reversed = self.segments[id].reversed;
        let new_start = if before {
            // New segment is the logical prefix: it takes the old start
            // and the old segment begins after it.
            self.seg_start[id] = wrap_pos(old_start + moved.len() as u32, self.n);
            old_start
        } else {
            // New segment is the logical suffix: it starts after the
            // kept cities.
            wrap_pos(old_start + cut as u32, self.n)
        };
        self.segments.push(Segment {
            cities: moved,
            reversed,
        });
        self.seg_start.push(new_start);
        let pos = self.seg_pos[id] as usize + usize::from(!before);
        self.order.insert(pos, new_id);
        self.seg_pos.push(pos as u32);
        for p in pos..self.order.len() {
            self.seg_pos[self.order[p] as usize] = p as u32;
        }
    }

    /// Reverse the logical path from city `a` to city `b` (inclusive,
    /// walking forward). Reverses whichever side of the cycle holds
    /// fewer *cities* (ties go to the forward path), the same rule as
    /// [`Tour::reverse_segment`] — so a sequence of identical flips
    /// keeps both representations in directed-orientation lockstep, not
    /// merely equal as undirected cycles.
    pub fn flip(&mut self, a: usize, b: usize) {
        // Fast path: the whole forward path a..b lies inside one
        // segment and is the smaller side of the cycle. Reverse the
        // cities in place (O(path), like the array tour but bounded by
        // the segment length) — no splits, no directory growth, so the
        // common short LK flips never force a rebuild.
        let id = self.city_seg[a] as usize;
        if id == self.city_seg[b] as usize {
            let seg = &self.segments[id];
            let (oa, ob) = (self.city_off[a] as usize, self.city_off[b] as usize);
            let (la, lb) = (seg.logical(oa), seg.logical(ob));
            if la <= lb && 2 * (lb - la + 1) <= self.n {
                let (plo, phi) = if seg.reversed { (ob, oa) } else { (oa, ob) };
                let seg = &mut self.segments[id];
                seg.cities[plo..=phi].reverse();
                for (k, &city) in seg.cities[plo..=phi].iter().enumerate() {
                    self.city_off[city as usize] = (plo + k) as u32;
                }
                return;
            }
        }
        // Make a the head of its segment and next(b) the head of the
        // following segment (i.e. b a segment tail).
        self.split_before(a);
        let after_b = self.next(b);
        if after_b == a {
            // Whole-tour flip: the array rule reverses the empty
            // complement, i.e. a no-op.
            return;
        }
        self.split_before_protected(after_b, Some(self.city_seg[a]));
        let pa = self.seg_pos[self.city_seg[a] as usize] as usize;
        let pb = self.seg_pos[self.city_seg[b] as usize] as usize;
        let m = self.order.len();
        // Run of segment handles covering the path a..b (cyclic, may
        // wrap). Both `a` and `after_b` are segment heads, so the city
        // count of the path a..b is the seg_start difference — O(1), no
        // walk over the run.
        let run = (pb + m - pa) % m + 1;
        let sa = self.seg_start[self.order[pa] as usize];
        let sab = self.seg_start[self.city_seg[after_b] as usize];
        let cities = wrap_pos(sab + self.n as u32 - sa, self.n) as usize;
        debug_assert!(cities > 0);
        let (start, count) = if cities * 2 <= self.n {
            (pa, run)
        } else {
            // Complement: pb+1 ..= pa-1.
            ((pb + 1) % m, m - run)
        };
        if count == 0 {
            return;
        }
        // Reverse the run of segment handles, toggle their flags, and
        // re-derive seg_pos/seg_start cumulatively from the run's first
        // tour index (unchanged by the reversal).
        let mut cum = self.seg_start[self.order[start] as usize];
        let (mut i, mut j) = (start, start + count - 1);
        while i < j {
            self.order.swap(i % m, j % m);
            i += 1;
            j -= 1;
        }
        for p in start..start + count {
            let p = p % m;
            let id = self.order[p] as usize;
            self.seg_pos[id] = p as u32;
            self.seg_start[id] = cum;
            cum = wrap_pos(cum + self.segments[id].cities.len() as u32, self.n);
            self.segments[id].reversed = !self.segments[id].reversed;
        }
        if self.order.len() > self.max_segments {
            self.rebuild();
        }
    }

    /// Re-group into balanced segments (amortizes split cost). Every
    /// city keeps its [`TwoLevelList::index`], so the index stays the
    /// position an array tour given the same flips would hold the city
    /// at.
    fn rebuild(&mut self) {
        let mut flat = self.layout_order();
        flat.rotate_right(self.seg_start[self.order[0] as usize] as usize);
        *self = TwoLevelList::from_order_slice(&flat);
    }

    /// Flatten in the order of the segment layout: the tour's cycle from
    /// wherever the layout starts. Callers get the canonical rotation
    /// from [`TourOps::to_order`](crate::TourOps::to_order) and
    /// [`TourRep::to_tour`](crate::TourRep::to_tour).
    fn layout_order(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.n);
        for &id in &self.order {
            let seg = self.seg(id);
            if seg.reversed {
                out.extend(seg.cities.iter().rev());
            } else {
                out.extend(seg.cities.iter());
            }
        }
        out
    }

    /// Validate every internal invariant (tests / debug).
    pub fn check_invariants(&self) -> bool {
        if self.order.len()
            != self
                .order
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
        {
            return false;
        }
        let mut seen = vec![false; self.n];
        let mut total = 0usize;
        // seg_start must be cumulative (mod n) along `order`.
        let mut cum = self.seg_start[self.order[0] as usize];
        for (pos, &id) in self.order.iter().enumerate() {
            if self.seg_pos[id as usize] as usize != pos {
                return false;
            }
            if self.seg_start[id as usize] != cum {
                return false;
            }
            cum = wrap_pos(cum + self.seg(id).len() as u32, self.n);
            let seg = self.seg(id);
            if seg.cities.is_empty() {
                return false;
            }
            total += seg.len();
            for (off, &c) in seg.cities.iter().enumerate() {
                if seen[c as usize] {
                    return false;
                }
                seen[c as usize] = true;
                if self.city_seg[c as usize] != id || self.city_off[c as usize] as usize != off {
                    return false;
                }
            }
        }
        total == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tourops::{TourOps, TourRep};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn roundtrip(order: &[u32]) -> TwoLevelList {
        let tl = TwoLevelList::from_order_slice(order);
        assert!(tl.check_invariants());
        assert_eq!(tl.layout_order(), order);
        tl
    }

    #[test]
    fn construction_roundtrip() {
        roundtrip(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut rng = SmallRng::seed_from_u64(1);
        let t = Tour::random(137, &mut rng);
        let tl = TwoLevelList::from_tour(&t);
        assert_eq!(tl.layout_order(), t.order());
        assert_eq!(tl.to_order(), TourOps::to_order(&t));
        assert_eq!(tl.to_tour().order(), TourOps::to_order(&t));
        assert!(tl.check_invariants());
    }

    #[test]
    fn next_prev_match_array_tour() {
        let mut rng = SmallRng::seed_from_u64(2);
        let t = Tour::random(200, &mut rng);
        let tl = TwoLevelList::from_tour(&t);
        for c in 0..200 {
            assert_eq!(tl.next(c), t.next(c), "next({c})");
            assert_eq!(tl.prev(c), t.prev(c), "prev({c})");
        }
    }

    #[test]
    fn between_matches_array_tour() {
        let mut rng = SmallRng::seed_from_u64(3);
        let t = Tour::random(80, &mut rng);
        let tl = TwoLevelList::from_tour(&t);
        for _ in 0..500 {
            let a = rng.gen_range(0..80);
            let b = rng.gen_range(0..80);
            let c = rng.gen_range(0..80);
            assert_eq!(
                tl.between(a, b, c),
                t.between(a, b, c),
                "between({a},{b},{c})"
            );
        }
    }

    #[test]
    fn split_preserves_tour() {
        let mut tl = roundtrip(&(0..50u32).collect::<Vec<_>>());
        for c in [0usize, 7, 24, 49, 13] {
            tl.split_before(c);
            assert!(tl.check_invariants(), "after split_before({c})");
            assert_eq!(tl.to_order().len(), 50);
        }
        // Order as a cycle unchanged: normalize rotation.
        let order = tl.to_order();
        let zero = order.iter().position(|&c| c == 0).unwrap();
        let rotated: Vec<u32> = order[zero..]
            .iter()
            .chain(&order[..zero])
            .copied()
            .collect();
        assert_eq!(rotated, (0..50u32).collect::<Vec<_>>());
    }

    /// Every flip reverses exactly the arc a→b of the list's *own*
    /// current orientation (flip is inherently orientation-dependent:
    /// both this structure and the array tour may flip orientation via
    /// shorter-side complement reversal, so the reference is re-derived
    /// from the list before each operation).
    #[test]
    fn flips_match_array_reference() {
        let n = 120usize;
        let mut rng = SmallRng::seed_from_u64(4);
        let mut tl = TwoLevelList::from_order_slice(&(0..n as u32).collect::<Vec<_>>());
        for step in 0..300 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            // Reference: the list's own cycle, flipped in its own
            // orientation by the array implementation.
            let mut reference = tl.to_tour();
            reference.reverse_segment(reference.position(a), reference.position(b));
            tl.flip(a, b);
            assert!(tl.check_invariants(), "step {step}");
            let want: std::collections::HashSet<(usize, usize)> = reference
                .edges()
                .map(|(x, y)| (x.min(y), x.max(y)))
                .collect();
            let got: std::collections::HashSet<(usize, usize)> = tl
                .to_tour()
                .edges()
                .map(|(x, y)| (x.min(y), x.max(y)))
                .collect();
            assert_eq!(want, got, "cycle diverged at step {step} (flip {a},{b})");
        }
    }

    /// next/prev/between stay consistent with the flattened order after
    /// long flip sequences.
    #[test]
    fn queries_consistent_after_flips() {
        let n = 90usize;
        let mut rng = SmallRng::seed_from_u64(6);
        let mut tl = TwoLevelList::from_order_slice(&(0..n as u32).collect::<Vec<_>>());
        for _ in 0..120 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            tl.flip(a, b);
        }
        let flat = tl.to_tour();
        for c in 0..n {
            assert_eq!(tl.next(c), flat.next(c), "next({c})");
            assert_eq!(tl.prev(c), flat.prev(c), "prev({c})");
        }
        for _ in 0..300 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            let c = rng.gen_range(0..n);
            assert_eq!(tl.between(a, b, c), flat.between(a, b, c));
        }
    }

    #[test]
    fn rebuild_keeps_cycle() {
        let n = 64usize;
        let mut rng = SmallRng::seed_from_u64(5);
        let mut tl = TwoLevelList::from_order_slice(&(0..n as u32).collect::<Vec<_>>());
        // Force many splits to trigger a rebuild.
        for _ in 0..200 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            tl.flip(a, b);
        }
        assert!(tl.check_invariants());
        assert!(
            tl.segment_count() <= tl.max_segments,
            "rebuild never triggered: {} segments",
            tl.segment_count()
        );
        // Still a permutation.
        let mut order = tl.to_order();
        order.sort_unstable();
        assert_eq!(order, (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn segment_count_scales_with_sqrt_n() {
        let n = 10_000usize;
        let tl = TwoLevelList::from_order_slice(&(0..n as u32).collect::<Vec<_>>());
        let s = tl.segment_count();
        assert!((50..=200).contains(&s), "unexpected segment count {s}");
    }
}
