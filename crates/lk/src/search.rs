//! Shared local-search context: don't-look bits, the active-city queue
//! and the orientation-independent move primitives every search builds
//! on. The primitives are generic over [`TourOps`], so the same search
//! code drives both the array [`Tour`] and the two-level list.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tsp_core::{Instance, NeighborLists, Tour, TourOps, TourRep};

use crate::spatial::Spatial;

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
    debug_assert!(
        a != c && a != d && b != c && b != d,
        "edges must be disjoint"
    );
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
///
/// The search runs either on the caller's city labels or, built with
/// `Optimizer::spatial`, on the cities renumbered along a Hilbert
/// curve (module `spatial`). Every city a search method takes or
/// returns is in the search's labels; the engine maps tours across. The
/// LK and Or-opt passes are compiled once per label space (`dist_in`,
/// `candidates_in`), so the caller-label path reads its instance and
/// rows without a check.
pub struct Optimizer<'a> {
    inst: &'a Instance,
    neighbors: &'a NeighborLists,
    /// The relabeled space the search runs on, if any; shared by every
    /// lane of one engine (module `lanes`).
    spatial: Option<Arc<Spatial>>,
    /// Don't-look bits: `true` = city is quiescent.
    dont_look: Vec<bool>,
    /// Number of cities whose don't-look bit is clear.
    awake: usize,
    /// FIFO of active cities (those whose neighborhood may contain an
    /// improving move).
    queue: std::collections::VecDeque<u32>,
    in_queue: Vec<bool>,
    /// Or-opt destination probes since [`Optimizer::take_or_probes`].
    pub(crate) or_probes: u64,
    /// While a lane runs a step ahead of its turn (module `lanes`): the
    /// committed tour's version and the one the step runs against. Once
    /// they differ the step's result is thrown away, so no further
    /// anchor is popped.
    pub(crate) stale_after: Option<(Arc<AtomicU64>, u64)>,
}

impl<'a> Optimizer<'a> {
    /// Create a context on the caller's labels; all cities start active.
    pub fn new(inst: &'a Instance, neighbors: &'a NeighborLists) -> Self {
        Self::with_space(inst, neighbors, None)
    }

    /// Create a context on spatial labels (module `spatial`): the same
    /// search, decision for decision, on Hilbert-ordered cities.
    /// `inst` must be geometric.
    pub(crate) fn spatial(inst: &'a Instance, neighbors: &'a NeighborLists) -> Self {
        Self::with_space(
            inst,
            neighbors,
            Some(Arc::new(Spatial::new(inst, neighbors))),
        )
    }

    /// A context in the same label space as `self`, sharing its spatial
    /// instance and rows, with scratch of its own; all cities active.
    pub(crate) fn fresh(&self) -> Self {
        Self::with_space(self.inst, self.neighbors, self.spatial.clone())
    }

    fn with_space(
        inst: &'a Instance,
        neighbors: &'a NeighborLists,
        spatial: Option<Arc<Spatial>>,
    ) -> Self {
        let n = inst.len();
        let mut opt = Optimizer {
            inst,
            neighbors,
            spatial,
            dont_look: vec![false; n],
            awake: n,
            queue: std::collections::VecDeque::with_capacity(n),
            in_queue: vec![true; n],
            or_probes: 0,
            stale_after: None,
        };
        opt.activate_all();
        opt
    }

    /// The instance being optimized, in the search's labels.
    #[inline(always)]
    pub fn instance(&self) -> &Instance {
        match &self.spatial {
            Some(s) => s.instance(),
            None => self.inst,
        }
    }

    /// The caller's instance and candidate lists, in the caller's labels.
    #[inline]
    pub(crate) fn caller(&self) -> (&'a Instance, &'a NeighborLists) {
        (self.inst, self.neighbors)
    }

    /// The search's city of the caller's label `l`.
    #[inline(always)]
    pub(crate) fn city(&self, l: usize) -> usize {
        match &self.spatial {
            Some(s) => s.city(l),
            None => l,
        }
    }

    /// Whether the search runs on spatial labels.
    pub(crate) fn is_spatial(&self) -> bool {
        self.spatial.is_some()
    }

    /// The candidates of city `c`, nearest first, with their cached
    /// metric distances — the rows that steer the search.
    #[inline(always)]
    pub fn candidates(&self, c: usize) -> (&[u32], &'a [i64]) {
        match &self.spatial {
            Some(s) => (s.row(c), self.neighbors.dists_of(s.label(c))),
            None => self.neighbors.of_with_dists(c),
        }
    }

    /// Distance shorthand.
    #[inline(always)]
    pub fn dist(&self, i: usize, j: usize) -> i64 {
        self.instance().dist(i, j)
    }

    /// [`Optimizer::dist`] for a pass compiled for one label space
    /// (`SPATIAL`): on the caller's labels it reads the caller's
    /// instance with no check, as if there were no other space.
    #[inline(always)]
    pub(crate) fn dist_in<const SPATIAL: bool>(&self, i: usize, j: usize) -> i64 {
        match &self.spatial {
            Some(s) if SPATIAL => s.instance().dist(i, j),
            _ => self.inst.dist(i, j),
        }
    }

    /// [`Optimizer::candidates`] for a pass compiled for one label space.
    #[inline(always)]
    pub(crate) fn candidates_in<const SPATIAL: bool>(&self, c: usize) -> (&[u32], &'a [i64]) {
        match &self.spatial {
            Some(s) if SPATIAL => (s.row(c), self.neighbors.dists_of(s.label(c))),
            _ => self.neighbors.of_with_dists(c),
        }
    }

    /// `tour` (caller labels) as representation `R` in the search's
    /// labels, every city at its position.
    pub(crate) fn rep_in<R: TourRep>(&self, tour: &Tour) -> R {
        match &self.spatial {
            Some(s) => R::from_order_slice(&s.order_in(tour)),
            None => R::from_tour(tour),
        }
    }

    /// The array tour `rep` (search labels) in caller labels, every city
    /// at its position.
    pub(crate) fn array_out(&self, rep: &Tour) -> Tour {
        match &self.spatial {
            Some(s) => Tour::from_order(s.order_out(rep)),
            None => rep.clone(),
        }
    }

    /// The tour `rep` (search labels) holds, in caller labels and the
    /// canonical rotation of [`TourRep::to_tour`].
    pub(crate) fn tour_out<R: TourRep>(&self, rep: &R) -> Tour {
        match &self.spatial {
            Some(s) => s.tour_out(rep),
            None => rep.to_tour(),
        }
    }

    /// Re-activate every city (used after a restart or a fresh tour),
    /// queued in caller-label order whatever labels the search runs on.
    pub fn activate_all(&mut self) {
        self.queue.clear();
        for l in 0..self.inst.len() {
            let c = self.city(l);
            self.queue.push_back(c as u32);
            self.in_queue[c] = true;
            self.dont_look[c] = false;
        }
        self.awake = self.inst.len();
    }

    /// Or-opt destination probes since the last call, and reset.
    pub(crate) fn take_or_probes(&mut self) -> u64 {
        std::mem::take(&mut self.or_probes)
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
        if let Some((now, base)) = &self.stale_after {
            if now.load(Ordering::Relaxed) != *base {
                return None;
            }
        }
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

    /// The `k`-th queued city: the one [`Optimizer::pop_active`] returns
    /// `k` pops from now unless it skips a queued city put to rest
    /// meanwhile. Waking a city only appends to the queue, so the cities
    /// queued now are popped in this order whatever happens before.
    pub(crate) fn queued(&self, k: usize) -> Option<usize> {
        self.queue.get(k).map(|&c| c as usize)
    }

    /// Take over `other`'s queue and don't-look bits; both contexts must
    /// be on the same instance.
    pub(crate) fn copy_queue(&mut self, other: &Optimizer<'_>) {
        self.dont_look.clone_from(&other.dont_look);
        self.in_queue.clone_from(&other.in_queue);
        self.queue.clone_from(&other.queue);
        self.awake = other.awake;
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
