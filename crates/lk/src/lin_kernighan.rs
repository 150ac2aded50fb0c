//! Variable-depth Lin-Kernighan search.
//!
//! ## Formulation
//!
//! We use the classic Hamiltonian-path view (Lin & Kernighan 1973;
//! Johnson & McGeoch's implementation notes): after removing the edge
//! `(t1, t2)` the tour becomes a path anchored at `t1` with moving
//! endpoint `last`. Each step adds `y_i = (last, c)` to a candidate `c`
//! and removes the (forced) edge `x_{i+1} = (c, v)` where `v` is `c`'s
//! path-neighbor on the `last` side; `v` becomes the new endpoint.
//!
//! ## Searching on a virtual path
//!
//! The search never touches the tour. [`VPath`] holds the open path
//! `t1 … last` as a list of ≤ depth + 1 runs of the *unmodified* tour;
//! an LK step `(c, v)` — remove `(c, v)`, add `(last, c)`, new endpoint
//! `v` — reverses the tail of that list in O(depth), independent of n
//! and of the tour structure. Closing up is always possible (add
//! `(last, t1)`), so every depth corresponds to a valid tour whose length
//! the search tracks exactly.
//!
//! Only the first levels, where the breadth is > 1, ever come back to a
//! path: such a level marks it on entry (a copy of its ≤ depth + 1 runs)
//! and rewinds to the mark after each failed candidate, which undoes the
//! candidate's step and every step below it at once. A level of breadth
//! 1 never undoes its own step — no other candidate will be tried from
//! there (linkern's `step_noback`).
//!
//! Only a chain that *commits* reaches the tour: its steps are replayed,
//! in order, as the 2-opt moves `remove {(c, v), (last, t1)}` through
//! [`two_opt_by_edges`]. A failed search has, by type, changed nothing.
//!
//! The search keeps the LK positive-gain criterion
//! `G_i = Σ d(x_j) − Σ d(y_j) > 0`, breadth limits per level with
//! rewinding on the first levels, and commits to the most improving
//! prefix of the chain. Its tabu rule — never remove an added edge, never
//! add a removed one — needs no edge lists: skip `c` when `(last, c)` is
//! a tour edge, skip `(c, v)` when it is not one. Exact, because every
//! removed edge is a tour edge (`x₁ = (t1, last0)` is one, later removals
//! are path edges that were not added) and no added edge is one (a tour
//! edge `(last, c)` is removed already or the path edge at `last`), so a
//! path edge was added iff it is not a tour edge. On the virtual path
//! that is one flag of the successor query: the added edges are exactly
//! the run boundaries, so `(c, v)` is not a tour edge iff `v` lies
//! across one.

use tsp_core::TourOps;

use crate::search::{two_opt_by_edges, Optimizer};
use crate::vpath::VPath;

/// Tuning parameters for the LK search.
#[derive(Debug, Clone)]
pub struct LkConfig {
    /// Maximum chain depth (number of sequential edge exchanges).
    pub max_depth: usize,
    /// Breadth (candidates tried, the path rewound to its mark after each
    /// failure) per level; levels beyond the vector use 1 (greedy: the
    /// one step is never undone on its own level).
    pub breadth: Vec<usize>,
}

impl Default for LkConfig {
    fn default() -> Self {
        LkConfig {
            max_depth: 50,
            breadth: vec![5, 3, 2],
        }
    }
}

impl LkConfig {
    /// Restricted configuration equivalent to a sequential 3-opt
    /// (chains of length ≤ 2).
    pub fn three_opt() -> Self {
        LkConfig {
            max_depth: 2,
            breadth: vec![8, 8],
        }
    }

    #[inline]
    fn breadth_at(&self, depth: usize) -> usize {
        self.breadth.get(depth - 1).copied().unwrap_or(1).max(1)
    }
}

/// Reusable scratch state for one LK chain.
struct Chain {
    /// The step `(c, v, last)` taken at each depth of the current chain;
    /// when the search succeeds, the steps to commit.
    steps: Vec<(usize, usize, usize)>,
    /// The open path the chain is being evaluated on.
    path: VPath,
}

impl Chain {
    fn new() -> Self {
        Chain {
            steps: Vec::with_capacity(64),
            path: VPath::default(),
        }
    }

    /// Whether the tabu rule as edge lists, rebuilt from `steps` and
    /// `x₁ = (t1, last0)`, rejects `c` at `last`: what the adjacency tests
    /// in [`LinKernighan::step`] must agree with on every debug-build probe.
    fn list_tabu<T: TourOps>(&self, tour: &T, t1: usize, last: usize, c: usize) -> bool {
        let same = |a: (usize, usize), b: (usize, usize)| a == b || a == (b.1, b.0);
        let last0 = self.steps.first().map_or(last, |s| s.2);
        let removed = |e| same(e, (t1, last0)) || self.steps.iter().any(|s| same(e, (s.0, s.1)));
        if removed((last, c)) {
            return true;
        }
        let v = self.path.succ(tour, c).city;
        v == last || self.steps.iter().any(|s| same((c, v), (s.2, s.0)))
    }
}

/// Exact work counts of the LK search: what a change that claims to
/// leave the search alone must leave alone, and what a faster search
/// is measured per.
#[derive(Debug, Default)]
pub(crate) struct LkWork {
    /// Anchors taken from the active queue.
    pub(crate) anchors: u64,
    /// Candidates that passed the gain and adjacency tests and had
    /// their path successor looked up.
    pub(crate) probes: u64,
    /// Steps of committed chains (each one 2-opt move on the tour).
    pub(crate) steps: u64,
}

/// The Lin-Kernighan searcher. Owns its scratch buffers so repeated
/// calls allocate nothing.
pub struct LinKernighan {
    cfg: LkConfig,
    chain: Chain,
    work: LkWork,
}

impl LinKernighan {
    /// Create a searcher with the given configuration.
    pub fn new(cfg: LkConfig) -> Self {
        LinKernighan {
            cfg,
            chain: Chain::new(),
            work: LkWork::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &LkConfig {
        &self.cfg
    }

    /// The work counted since the last call, and reset.
    pub(crate) fn take_work(&mut self) -> LkWork {
        std::mem::take(&mut self.work)
    }

    /// Try to improve the tour starting from anchor `t1`.
    ///
    /// Returns the gain (> 0, tour already updated and the chain's
    /// endpoint cities re-activated in `opt`) or 0 (tour unchanged).
    pub fn improve_from<T: TourOps>(
        &mut self,
        opt: &mut Optimizer<'_>,
        tour: &mut T,
        t1: usize,
    ) -> i64 {
        if opt.is_spatial() {
            self.improve::<T, true>(opt, tour, t1)
        } else {
            self.improve::<T, false>(opt, tour, t1)
        }
    }

    /// [`LinKernighan::improve_from`] compiled for one label space
    /// (`SPATIAL` must say whether `opt` runs on spatial labels).
    fn improve<T: TourOps, const SPATIAL: bool>(
        &mut self,
        opt: &mut Optimizer<'_>,
        tour: &mut T,
        t1: usize,
    ) -> i64 {
        // Try both tour edges at t1 as the first removed edge.
        for first_side in 0..2 {
            self.chain.steps.clear();
            let last0 = self.chain.path.reset(tour, t1, first_side == 0);
            let g0 = opt.dist_in::<SPATIAL>(t1, last0);
            let gain = self.step::<T, SPATIAL>(opt, tour, t1, last0, g0, g0, 0, 1);
            if gain > 0 {
                // Commit: each step is the 2-opt move that closes the
                // path it produced.
                self.work.steps += self.chain.steps.len() as u64;
                for &(c, v, last) in &self.chain.steps {
                    debug_assert!(!tour.has_edge(last, c));
                    two_opt_by_edges(tour, (c, v), (last, t1));
                    debug_assert!(tour.has_edge(last, c) && tour.has_edge(v, t1));
                }
                // Re-activate everything the chain touched, deepest
                // step first.
                for &(c, v, last) in self.chain.steps.iter().rev() {
                    opt.activate(c);
                    opt.activate(v);
                    opt.activate(last);
                }
                opt.activate(t1);
                opt.activate(last0);
                return gain;
            }
        }
        0
    }

    /// Recursive LK step on the virtual path. `last` is the path
    /// endpoint, `d_last_t1` the length of the edge that closes the path,
    /// `g` the LK gain `Σd(x) − Σd(y)` so far (always > 0 on entry),
    /// `l_delta` the tour length change vs. the original tour (the
    /// improvement when stopping here is `-l_delta`). Returns the
    /// committed improvement (> 0, with `chain.steps` holding the steps
    /// to apply) or 0. On 0, a level with breadth > 1 has put path and
    /// chain back as they were at entry (it marked the path, rewound after
    /// each failed candidate and released the mark); a level with breadth
    /// 1 leaves its step and whatever lies below it applied, and the
    /// caller's rewind, or the next `reset`, undoes them (linkern's
    /// `step_noback`).
    #[allow(clippy::too_many_arguments)]
    fn step<T: TourOps, const SPATIAL: bool>(
        &mut self,
        opt: &Optimizer<'_>,
        tour: &T,
        t1: usize,
        last: usize,
        d_last_t1: i64,
        g: i64,
        l_delta: i64,
        depth: usize,
    ) -> i64 {
        // Candidate ids and their cached metric distances: the pruning
        // test below never recomputes a distance from coordinates.
        let (cands, cdists) = opt.candidates_in::<SPATIAL>(last);
        let breadth = self.cfg.breadth_at(depth);
        // Only a level that may try another candidate comes back to this
        // path; a one-candidate level leaves its failed step to its caller.
        let mark = (breadth > 1).then(|| self.chain.path.mark());
        let mut tried = 0usize;
        // Probes of this level, counted in a register and added to the
        // work counter on the way out.
        let mut probes = 0u64;
        let (last_next, last_prev) = (tour.next(last), tour.prev(last));

        for ci in 0..cands.len() {
            if tried >= breadth {
                break;
            }
            let c = cands[ci] as usize;
            if c == t1 || c == last {
                continue;
            }
            let d_last_c = cdists[ci];
            // Positive-gain pruning (candidates sorted by distance).
            if d_last_c >= g {
                break;
            }
            // Tabu by adjacency (module docs): add no tour edge, ...
            if c == last_next || c == last_prev {
                debug_assert!(self.chain.list_tabu(tour, t1, last, c));
                continue;
            }
            // ... and remove only tour edges: (c, v), v being c's path
            // neighbour on the `last` side, is one iff it lies inside a
            // run (this also skips v == last).
            probes += 1;
            let succ = self.chain.path.succ(tour, c);
            debug_assert_eq!(succ.across, self.chain.list_tabu(tour, t1, last, c));
            if succ.across {
                continue;
            }
            let v = succ.city;

            let d_c_v = opt.dist_in::<SPATIAL>(c, v);
            let d_v_t1 = opt.dist_in::<SPATIAL>(v, t1);
            let new_g = g + d_c_v - d_last_c;
            let new_l = l_delta + d_last_c + d_v_t1 - d_c_v - d_last_t1;

            // Take the step: t1 … c v … last becomes t1 … c last … v.
            self.chain.path.step(c, succ);
            self.chain.steps.push((c, v, last));
            tried += 1;

            // Recurse while the gain criterion holds.
            if new_g > 0 && depth < self.cfg.max_depth {
                let deeper =
                    self.step::<T, SPATIAL>(opt, tour, t1, v, d_v_t1, new_g, new_l, depth + 1);
                if deeper > 0 {
                    self.work.probes += probes;
                    return deeper;
                }
            }
            // No deeper commit: accept here if this prefix improves,
            // dropping the failed steps a breadth-1 level below left.
            if new_l < 0 {
                self.chain.steps.truncate(depth);
                self.work.probes += probes;
                return -new_l;
            }
            if let Some(mark) = mark {
                self.chain.path.rewind(mark);
                self.chain.steps.truncate(depth - 1);
            }
        }
        if let Some(mark) = mark {
            self.chain.path.release(mark);
        }
        self.work.probes += probes;
        0
    }
}

/// Run LK to local optimality over the active queue: every active city
/// is used as anchor until no anchor yields an improving chain.
/// Returns the total gain.
pub fn lk_pass<T: TourOps>(lk: &mut LinKernighan, opt: &mut Optimizer<'_>, tour: &mut T) -> i64 {
    if opt.is_spatial() {
        pass::<T, true>(lk, opt, tour)
    } else {
        pass::<T, false>(lk, opt, tour)
    }
}

/// [`lk_pass`] compiled for one label space.
fn pass<T: TourOps, const SPATIAL: bool>(
    lk: &mut LinKernighan,
    opt: &mut Optimizer<'_>,
    tour: &mut T,
) -> i64 {
    let mut total = 0i64;
    while let Some(t1) = opt.pop_active() {
        lk.work.anchors += 1;
        let gain = lk.improve::<T, SPATIAL>(opt, tour, t1);
        if gain > 0 {
            total += gain;
        } else {
            opt.set_dont_look(t1);
        }
    }
    total
}

/// Convenience: full LK optimization from scratch.
pub fn lin_kernighan<T: TourOps>(
    lk: &mut LinKernighan,
    opt: &mut Optimizer<'_>,
    tour: &mut T,
) -> i64 {
    opt.activate_all();
    lk_pass(lk, opt, tour)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use tsp_core::{generate, NeighborLists, Tour};

    fn optimize(inst: &tsp_core::Instance, tour: &mut Tour, k: usize) -> i64 {
        let nl = NeighborLists::build(inst, k);
        let mut opt = Optimizer::new(inst, &nl);
        let mut lk = LinKernighan::new(LkConfig::default());
        lin_kernighan(&mut lk, &mut opt, tour)
    }

    #[test]
    fn length_bookkeeping_is_exact() {
        let inst = generate::uniform(120, 10_000.0, 41);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut tour = Tour::random(120, &mut rng);
        let before = tour.length(&inst);
        let gain = optimize(&inst, &mut tour, 8);
        assert!(tour.is_valid());
        assert_eq!(tour.length(&inst), before - gain);
    }

    #[test]
    fn beats_two_opt() {
        let inst = generate::uniform(250, 10_000.0, 42);
        let nl = NeighborLists::build(&inst, 10);
        let mut rng = SmallRng::seed_from_u64(2);
        let start = Tour::random(250, &mut rng);

        let mut t2 = start.clone();
        let mut opt = Optimizer::new(&inst, &nl);
        crate::two_opt::two_opt(&mut opt, &mut t2);

        let mut tlk = start.clone();
        let mut opt2 = Optimizer::new(&inst, &nl);
        let mut lk = LinKernighan::new(LkConfig::default());
        lin_kernighan(&mut lk, &mut opt2, &mut tlk);

        assert!(
            tlk.length(&inst) <= t2.length(&inst),
            "LK {} worse than 2-opt {}",
            tlk.length(&inst),
            t2.length(&inst)
        );
    }

    #[test]
    fn finds_grid_optimum_from_good_start() {
        let inst = generate::grid_known_optimum(6, 6, 100.0);
        let mut tour = crate::construct::quick_boruvka(&inst);
        optimize(&inst, &mut tour, 8);
        // LK from a QB start should usually reach the optimum on a tiny
        // grid; allow 2% slack to avoid flakiness.
        let opt = inst.known_optimum().unwrap();
        assert!(
            tour.length(&inst) as f64 <= 1.02 * opt as f64,
            "LK got {} vs optimum {}",
            tour.length(&inst),
            opt
        );
    }

    #[test]
    fn no_gain_at_local_optimum_second_pass() {
        let inst = generate::uniform(100, 10_000.0, 44);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut tour = Tour::random(100, &mut rng);
        let nl = NeighborLists::build(&inst, 8);
        let mut opt = Optimizer::new(&inst, &nl);
        let mut lk = LinKernighan::new(LkConfig::default());
        lin_kernighan(&mut lk, &mut opt, &mut tour);
        let len = tour.length(&inst);
        let gain2 = lin_kernighan(&mut lk, &mut opt, &mut tour);
        assert_eq!(gain2, 0);
        assert_eq!(tour.length(&inst), len);
    }

    /// A search that finds nothing must not move a single array slot.
    /// Even n matters: a tentative step whose two sides hold n/2 cities
    /// each was, when it was still applied to the tour and undone by the
    /// inverse move, undone on the *other* half — same cycle, reversed
    /// orientation.
    #[test]
    fn failed_search_leaves_the_array_untouched() {
        // Such a step is a 1-in-n coincidence, hence many small runs
        // (the apply-and-undo engine failed 7 of these 40).
        let cases = [12usize, 30, 64, 200]
            .into_iter()
            .flat_map(|n| (0..10u64).map(move |seed| (n, seed)));
        for (n, seed) in cases {
            let inst = generate::uniform(n, 10_000.0, 47 + seed);
            let nl = NeighborLists::build(&inst, 8);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut tour = Tour::random(n, &mut rng);
            let mut opt = Optimizer::new(&inst, &nl);
            let mut lk = LinKernighan::new(LkConfig::default());
            lin_kernighan(&mut lk, &mut opt, &mut tour);
            let mut failed = 0;
            for t1 in 0..n {
                let before = tour.clone();
                if lk.improve_from(&mut opt, &mut tour, t1) == 0 {
                    failed += 1;
                    assert_eq!(tour.order(), before.order(), "n={n} seed {seed} anchor {t1}");
                }
            }
            assert!(failed > n / 2, "n={n} seed {seed}: only {failed} failing searches");
        }
    }

    #[test]
    fn three_opt_config_also_improves() {
        let inst = generate::uniform(150, 10_000.0, 45);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut tour = Tour::random(150, &mut rng);
        let mut two = tour.clone();
        let before = tour.length(&inst);
        let nl = NeighborLists::build(&inst, 8);
        let mut opt = Optimizer::new(&inst, &nl);
        let mut lk = LinKernighan::new(LkConfig::three_opt());
        let gain = lin_kernighan(&mut lk, &mut opt, &mut tour);
        assert!(gain > 0);
        assert_eq!(tour.length(&inst), before - gain);
        // Depth 3 searches a superset of the 2-opt moves; the order of
        // first improvements differs, hence the tolerance.
        crate::two_opt::two_opt(&mut Optimizer::new(&inst, &nl), &mut two);
        assert!(tour.length(&inst) as f64 <= 1.03 * two.length(&inst) as f64);
    }

    #[test]
    fn deterministic_given_same_start() {
        let inst = generate::uniform(80, 10_000.0, 46);
        let mut rng = SmallRng::seed_from_u64(5);
        let start = Tour::random(80, &mut rng);
        let mut a = start.clone();
        let mut b = start.clone();
        optimize(&inst, &mut a, 8);
        optimize(&inst, &mut b, 8);
        assert_eq!(a.length(&inst), b.length(&inst));
        assert_eq!(a.order(), b.order());
    }
}
