//! Shared local-search context: don't-look bits, the active-city queue
//! and the orientation-independent move primitives every search builds
//! on. The primitives are generic over [`TourOps`], so the same search
//! code drives both the array [`Tour`] and the two-level list.

use tsp_core::{Instance, NeighborLists, TourOps};

/// Apply the unique non-identity 2-opt reconnection that removes the
/// two undirected tour edges `e1` and `e2`.
///
/// Removing two edges from a cycle leaves two arcs; there is exactly one
/// way to reconnect them into a different cycle (the "crossing" pair),
/// so callers only name the removed edges. This helper derives the
/// orientation from the current tour, which makes it immune to the
/// orientation flips that shorter-side segment reversal can introduce
/// in either representation.
///
/// # Panics
///
/// Debug-panics if either pair is not a current tour edge, or the edges
/// share an endpoint.
pub fn two_opt_by_edges<T: TourOps>(tour: &mut T, e1: (usize, usize), e2: (usize, usize)) {
    let (a, b) = orient(tour, e1);
    let (c, d) = orient(tour, e2);
    debug_assert!(a != c && a != d && b != c && b != d, "edges must be disjoint");
    // With b = next(a) and d = next(c), flipping the path b…c removes
    // (a,b), (c,d) and adds (a,c), (b,d).
    let _ = (a, d);
    tour.flip(b, c);
}

/// Orient an undirected tour edge so that `.1 == next(.0)`.
#[inline]
fn orient<T: TourOps>(tour: &T, (x, y): (usize, usize)) -> (usize, usize) {
    if tour.next(x) == y {
        (x, y)
    } else {
        debug_assert_eq!(tour.next(y), x, "({x},{y}) is not a tour edge");
        (y, x)
    }
}

/// Relocate the segment `s … e` (which currently sits between `p` and
/// `q`) so that it follows `c` instead (before `d = next(c)`), as one
/// to three 2-opt flips — the representation-independent form of the
/// Or-opt move.
///
/// `reversed` inserts the segment as `c → e … s → d`; forward as
/// `c → s … e → d`. Callers guarantee: `next(p) == s`, `next(e) == q`,
/// `next(c) == d`, `c` outside the segment, `c != p`, `d != s`,
/// `p != q` and `p != e` (segment plus destination don't cover the
/// whole tour).
#[allow(clippy::too_many_arguments)] // the args are the six edge endpoints
pub fn or_opt_move_by_edges<T: TourOps>(
    tour: &mut T,
    s: usize,
    e: usize,
    p: usize,
    q: usize,
    c: usize,
    d: usize,
    reversed: bool,
) {
    debug_assert_eq!(tour.next(p), s);
    debug_assert_eq!(tour.next(e), q);
    debug_assert_eq!(tour.next(c), d);
    debug_assert!(c != p && d != s && p != q && p != e);
    debug_assert!(!(c == q && d == p), "segment + destination cover the tour");
    // Build the reversed insertion c → e…s → d first; it takes a single
    // 2-opt when the destination edge touches the segment boundary, two
    // otherwise.
    if c == q {
        two_opt_by_edges(tour, (p, s), (c, d));
    } else if d == p {
        two_opt_by_edges(tour, (e, q), (c, p));
    } else {
        two_opt_by_edges(tour, (p, s), (c, d));
        two_opt_by_edges(tour, (p, c), (q, e));
    }
    // One more 2-opt un-reverses the segment in place.
    if !reversed && s != e {
        two_opt_by_edges(tour, (c, e), (s, d));
    }
    debug_assert!(tour.has_edge(p, q));
    debug_assert!(if reversed || s == e {
        tour.has_edge(c, e) && tour.has_edge(s, d)
    } else {
        tour.has_edge(c, s) && tour.has_edge(e, d)
    });
}

/// Local-search context: the instance, candidate lists, don't-look bits
/// and the active-city queue. All buffers are allocated once and reused
/// across passes (nothing allocates on the hot path).
pub struct Optimizer<'a> {
    inst: &'a Instance,
    neighbors: &'a NeighborLists,
    /// Don't-look bits: `true` = city is quiescent.
    dont_look: Vec<bool>,
    /// Number of cities whose don't-look bit is clear.
    awake: usize,
    /// FIFO of active cities (those whose neighborhood may contain an
    /// improving move).
    queue: std::collections::VecDeque<u32>,
    in_queue: Vec<bool>,
}

impl<'a> Optimizer<'a> {
    /// Create a context; all cities start active.
    pub fn new(inst: &'a Instance, neighbors: &'a NeighborLists) -> Self {
        let n = inst.len();
        Optimizer {
            inst,
            neighbors,
            dont_look: vec![false; n],
            awake: n,
            queue: (0..n as u32).collect(),
            in_queue: vec![true; n],
        }
    }

    /// The instance being optimized.
    #[inline]
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// The candidate lists steering the search.
    #[inline]
    pub fn neighbors(&self) -> &'a NeighborLists {
        self.neighbors
    }

    /// Distance shorthand.
    #[inline(always)]
    pub fn dist(&self, i: usize, j: usize) -> i64 {
        self.inst.dist(i, j)
    }

    /// Re-activate every city (used after a restart or a fresh tour).
    pub fn activate_all(&mut self) {
        self.queue.clear();
        for c in 0..self.inst.len() as u32 {
            self.queue.push_back(c);
            self.in_queue[c as usize] = true;
            self.dont_look[c as usize] = false;
        }
        self.awake = self.inst.len();
    }

    /// Deactivate every city (used before seeding a targeted queue,
    /// e.g. after a kick only the kicked cities are active). O(1) when
    /// nothing is active — the state every drained pass leaves behind —
    /// and a full O(n) clear otherwise.
    pub fn deactivate_all(&mut self) {
        if self.awake == 0 && self.queue.is_empty() {
            return;
        }
        self.queue.clear();
        self.in_queue.iter_mut().for_each(|b| *b = false);
        self.dont_look.iter_mut().for_each(|b| *b = true);
        self.awake = 0;
    }

    /// Mark a city active (idempotent).
    #[inline]
    pub fn activate(&mut self, c: usize) {
        self.awake += usize::from(self.dont_look[c]);
        self.dont_look[c] = false;
        if !self.in_queue[c] {
            self.in_queue[c] = true;
            self.queue.push_back(c as u32);
        }
    }

    /// Pop the next active city, if any.
    #[inline]
    pub fn pop_active(&mut self) -> Option<usize> {
        while let Some(c) = self.queue.pop_front() {
            let c = c as usize;
            self.in_queue[c] = false;
            if !self.dont_look[c] {
                return Some(c);
            }
        }
        None
    }

    /// Set the don't-look bit of `c` (the city found no improving move).
    #[inline]
    pub fn set_dont_look(&mut self, c: usize) {
        self.awake -= usize::from(!self.dont_look[c]);
        self.dont_look[c] = true;
    }

    /// Number of currently queued cities (diagnostics).
    pub fn active_count(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::{generate, Tour};

    #[test]
    fn two_opt_by_edges_any_orientation() {
        let inst = generate::uniform(10, 1000.0, 1);
        let mut tour = Tour::identity(10);
        let before = tour.length(&inst);
        // Remove (2,3) and (7,8), passing endpoints in scrambled order.
        two_opt_by_edges(&mut tour, (3, 2), (7, 8));
        assert!(tour.is_valid());
        assert!(!tour.has_edge(2, 3));
        assert!(!tour.has_edge(7, 8));
        // The crossing pair appears.
        assert!(tour.has_edge(2, 7) || tour.has_edge(2, 8));
        // Re-applying on the added edges restores the original tour.
        let (e1, e2) = if tour.has_edge(2, 7) {
            ((2, 7), (3, 8))
        } else {
            ((2, 8), (3, 7))
        };
        two_opt_by_edges(&mut tour, e1, e2);
        assert_eq!(tour.length(&inst), before);
        assert!(tour.has_edge(2, 3));
        assert!(tour.has_edge(7, 8));
    }

    #[test]
    fn queue_discipline() {
        let inst = generate::uniform(5, 100.0, 2);
        let nl = NeighborLists::build(&inst, 3);
        let mut opt = Optimizer::new(&inst, &nl);
        assert_eq!(opt.active_count(), 5);
        let first = opt.pop_active().unwrap();
        assert_eq!(first, 0);
        opt.set_dont_look(1);
        assert_eq!(opt.pop_active(), Some(2)); // 1 is skipped
        opt.activate(1);
        opt.activate(1); // idempotent
        // Drain: 3, 4, then 1.
        assert_eq!(opt.pop_active(), Some(3));
        assert_eq!(opt.pop_active(), Some(4));
        assert_eq!(opt.pop_active(), Some(1));
        assert_eq!(opt.pop_active(), None);
    }

    /// `deactivate_all` takes its O(1) exit only from the all-quiet
    /// state; anything active — queued or merely awake — gets the full
    /// clear.
    #[test]
    fn deactivate_all_full_clear_and_fast_exit() {
        let inst = generate::uniform(6, 100.0, 3);
        let nl = NeighborLists::build(&inst, 3);
        let mut opt = Optimizer::new(&inst, &nl);
        // Fresh context: everything awake and queued.
        assert_eq!(opt.awake, 6);
        opt.deactivate_all();
        assert_eq!((opt.awake, opt.active_count()), (0, 0));
        assert!(opt.dont_look.iter().all(|&b| b) && opt.in_queue.iter().all(|&b| !b));
        // All quiet: the early return must leave the same state.
        opt.deactivate_all();
        assert_eq!(opt.pop_active(), None);
        // Queued and awake.
        opt.activate(3);
        assert_eq!((opt.awake, opt.active_count()), (1, 1));
        opt.deactivate_all();
        assert_eq!(opt.pop_active(), None);
        assert!(opt.dont_look[3] && !opt.in_queue[3]);
        // Awake but no longer queued (popped, verdict pending).
        opt.activate(4);
        assert_eq!(opt.pop_active(), Some(4));
        assert_eq!((opt.awake, opt.active_count()), (1, 0));
        opt.deactivate_all();
        assert!(opt.dont_look[4]);
        assert_eq!(opt.awake, 0);
        // A drained pass (every popped city gets its bit set) ends quiet.
        opt.activate(1);
        opt.activate(1);
        opt.activate(2);
        while let Some(c) = opt.pop_active() {
            opt.set_dont_look(c);
            opt.set_dont_look(c); // idempotent
        }
        assert_eq!((opt.awake, opt.active_count()), (0, 0));
    }

    #[test]
    fn deactivate_then_seed() {
        let inst = generate::uniform(6, 100.0, 3);
        let nl = NeighborLists::build(&inst, 3);
        let mut opt = Optimizer::new(&inst, &nl);
        opt.deactivate_all();
        assert_eq!(opt.pop_active(), None);
        opt.activate(4);
        opt.activate(2);
        assert_eq!(opt.pop_active(), Some(4));
        assert_eq!(opt.pop_active(), Some(2));
        assert_eq!(opt.pop_active(), None);
    }
}
