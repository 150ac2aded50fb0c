//! Chained Lin-Kernighan (Martin, Otto & Felten 1991; Applegate, Cook &
//! Rohe's `linkern`).
//!
//! Instead of restarting LK from fresh tours, CLK perturbates the
//! current LK-optimum with a double-bridge kick and re-optimizes only
//! around the kicked cities, following a simulated-annealing-at-zero-
//! temperature acceptance rule: keep the new tour iff it is no worse.
//!
//! This is the "ABCC-CLK" engine of the paper's §2.1/§4.1, with the
//! kicking strategy injectable — exactly the knob the paper sweeps in
//! Tables 3–5.
//!
//! Every search method is generic over [`TourOps`], so the whole chain
//! (construct → LK → kick → re-optimize) runs on either the array
//! [`Tour`] or the [`TwoLevelList`]; [`ClkEngine`] picks the
//! representation by instance size and hides the dispatch.

use obs_api::{Counter, Histogram, Obs};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tsp_core::{Instance, NeighborLists, Tour, TourOps, TourRep, TwoLevelList};

use crate::budget::{Budget, Stopwatch, Trace};
use crate::candidates::CandidateKind;
use crate::construct::{construct, Construction};
use crate::kick::{kick, KickStrategy};
use crate::lin_kernighan::{lk_pass, lin_kernighan, LinKernighan, LkConfig};
use crate::or_opt::or_opt_pass;
use crate::search::{two_opt_by_edges, Optimizer};

/// Configuration of a Chained LK run.
#[derive(Debug, Clone)]
pub struct ChainedLkConfig {
    /// Kicking strategy (the paper's default and `linkern`'s is
    /// Random-walk).
    pub kick: KickStrategy,
    /// LK search parameters.
    pub lk: LkConfig,
    /// Initial tour construction (QB is the `linkern` default).
    pub construction: Construction,
    /// Candidate list width.
    pub neighbor_k: usize,
    /// How the candidate lists are constructed (k-NN, α-nearness, or
    /// hybrid). Part of the wire-level config of a distributed run:
    /// every node builds its lists from this knob, so all nodes must
    /// agree on it (see [`ChainedLkConfig::build_neighbors`]).
    pub candidates: CandidateKind,
    /// Instance size at which [`ClkEngine::auto`] switches from the
    /// array tour to the two-level list. Array flips are O(n) but
    /// cache-friendly, two-level flips O(√n). The default dates from the
    /// engine that flipped every tentative LK step (break-even near 20k
    /// cities then). Now that only committed chains flip there is no
    /// clean crossover: the array runs the first pass 10–35 % faster up
    /// to 200k cities, the two-level list has the cheaper kick-step tail
    /// (p90 1.3–1.5× lower) from 50k — EXPERIMENTS.md, "Array vs
    /// two-level after the virtual-path search". Moving the constant is
    /// ROADMAP item 1's open decision, deliberately not taken with the
    /// engine change.
    pub tl_threshold: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChainedLkConfig {
    fn default() -> Self {
        ChainedLkConfig {
            kick: KickStrategy::RandomWalk(50),
            lk: LkConfig::default(),
            construction: Construction::QuickBoruvka,
            neighbor_k: 10,
            candidates: CandidateKind::Knn,
            tl_threshold: 50_000,
            seed: 0,
        }
    }
}

impl ChainedLkConfig {
    /// Build the candidate lists this configuration asks for
    /// ([`ChainedLkConfig::candidates`] of width
    /// [`ChainedLkConfig::neighbor_k`]). Deterministic in the config
    /// alone: distributed nodes that share the wire-level config build
    /// bit-identical lists without exchanging them.
    pub fn build_neighbors(&self, inst: &Instance) -> NeighborLists {
        self.candidates.build(inst, self.neighbor_k)
    }
}

/// Outcome of a Chained LK run.
#[derive(Debug, Clone)]
pub struct ClkResult {
    /// Best tour found.
    pub tour: Tour,
    /// Its length.
    pub length: i64,
    /// Number of kicks performed.
    pub kicks: u64,
    /// Wall time used.
    pub seconds: f64,
    /// Best-so-far convergence trace: one point per [`Progress`] the run
    /// reported, so every point is a tour the caller was offered. The
    /// first is the construction tour.
    pub trace: Trace,
}

/// A tour a run holds, reported the moment it exists: the construction
/// tour, the result of the first LK pass, then every improving kick.
/// Lengths strictly decrease from one report to the next.
pub struct Progress<'a> {
    /// Seconds since the run started.
    pub secs: f64,
    /// Kick attempts spent so far.
    pub kicks: u64,
    /// Length of the tour.
    pub length: i64,
    tour: &'a dyn Fn() -> Tour,
}

impl Progress<'_> {
    /// The tour itself. Built on request — O(n) on the two-level list —
    /// so a consumer that only watches lengths pays nothing for it.
    pub fn tour(&self) -> Tour {
        (self.tour)()
    }
}

/// A reusable Chained LK engine bound to one instance.
///
/// The distributed algorithm calls [`ChainedLk::optimize`] on tours it
/// perturbated itself (paper Fig. 1: `CHAINEDLINKERNIGHAN(PERTURBATE(s))`),
/// and [`ChainedLk::run`] reproduces the standalone `linkern` behaviour.
///
/// ```
/// use tsp_core::{generate, NeighborLists};
/// use lk::{Budget, ChainedLk, ChainedLkConfig};
///
/// let inst = generate::uniform(200, 100_000.0, 7);
/// let neighbors = NeighborLists::build(&inst, 10);
/// let mut engine = ChainedLk::new(&inst, &neighbors, ChainedLkConfig::default());
/// let result = engine.run(&Budget::kicks(50));
/// assert!(result.tour.is_valid());
/// assert_eq!(result.tour.length(&inst), result.length);
/// ```
pub struct ChainedLk<'a> {
    inst: &'a Instance,
    neighbors: &'a NeighborLists,
    opt: Optimizer<'a>,
    lk: LinKernighan,
    cfg: ChainedLkConfig,
    rng: SmallRng,
    obs: Obs,
    probes: Probes,
    /// The flips of the chained iteration in progress (see
    /// [`Journaled`]); kept here so a step allocates nothing.
    journal: Vec<[u32; 4]>,
}

/// A tour that forwards every query and logs every flip on its way
/// through: `flip(b, c)` is recorded as `[prev(b), b, c, next(c)]`, the
/// two edges it removes. Replaying the log backwards as the 2-opt moves
/// that remove `(a, c)` and `(b, d)` — the edges each flip added —
/// restores the tour: each replayed move reverses the same cities its
/// flip did (ties included), so the array gets its positions back and
/// the two-level list its directed cycle.
struct Journaled<'t, T> {
    tour: &'t mut T,
    log: &'t mut Vec<[u32; 4]>,
}

impl<T: TourOps> TourOps for Journaled<'_, T> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.tour.len()
    }

    #[inline(always)]
    fn next(&self, c: usize) -> usize {
        self.tour.next(c)
    }

    #[inline(always)]
    fn prev(&self, c: usize) -> usize {
        self.tour.prev(c)
    }

    #[inline(always)]
    fn between(&self, a: usize, b: usize, c: usize) -> bool {
        self.tour.between(a, b, c)
    }

    #[inline(always)]
    fn index(&self, c: usize) -> usize {
        self.tour.index(c)
    }

    #[inline]
    fn flip(&mut self, b: usize, c: usize) {
        let (a, d) = (self.tour.prev(b), self.tour.next(c));
        self.log.push([a as u32, b as u32, c as u32, d as u32]);
        TourOps::flip(self.tour, b, c);
    }

}

/// Metric handles resolved once at attach time so the hot loop never
/// touches the registry map. All no-ops until [`ChainedLk::attach_obs`]
/// is called with a live handle.
struct Probes {
    /// Full-optimize call duration (ns) and gain.
    h_call_ns: Histogram,
    h_call_gain: Histogram,
    /// Chained-iteration duration (ns).
    h_step_ns: Histogram,
    /// Flips a chained iteration applied to the tour (kick plus
    /// committed LK and Or-opt moves; the undo of a rejected kick
    /// replays as many again).
    h_step_flips: Histogram,
    /// Initial-tour construction duration (ns).
    h_construct_ns: Histogram,
    /// Kicks attempted / kicks whose result was kept.
    c_kicks: Counter,
    c_accepts: Counter,
}

impl Probes {
    fn resolve(obs: &Obs) -> Self {
        Probes {
            h_call_ns: obs.histogram("clk.call.ns"),
            h_call_gain: obs.histogram("clk.call.gain"),
            h_step_ns: obs.histogram("clk.step.ns"),
            h_step_flips: obs.histogram("clk.step.flips"),
            h_construct_ns: obs.histogram("clk.construct.ns"),
            c_kicks: obs.counter("clk.kicks"),
            c_accepts: obs.counter("clk.accepts"),
        }
    }
}

impl<'a> ChainedLk<'a> {
    /// Create an engine. `neighbors` must cover the same instance.
    /// Observability is off until [`ChainedLk::attach_obs`].
    pub fn new(inst: &'a Instance, neighbors: &'a NeighborLists, cfg: ChainedLkConfig) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let obs = Obs::disabled();
        let probes = Probes::resolve(&obs);
        ChainedLk {
            inst,
            neighbors,
            opt: Optimizer::new(inst, neighbors),
            lk: LinKernighan::new(cfg.lk.clone()),
            cfg,
            rng,
            obs,
            probes,
            journal: Vec::new(),
        }
    }

    /// Attach an observability handle: call durations, gains, and
    /// kick-acceptance counters flow into its registry from now on.
    /// Instrumentation never touches the RNG, so attaching cannot
    /// change the search trajectory.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.probes = Probes::resolve(&obs);
        self.obs = obs;
    }

    /// The engine's observability handle (disabled unless attached).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The engine's instance.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ChainedLkConfig {
        &self.cfg
    }

    /// Borrow the RNG (the distributed node drives perturbation with
    /// the same stream for reproducibility).
    pub fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Construct the configured initial tour.
    pub fn construct_tour(&mut self) -> Tour {
        let t = self.obs.timer();
        let tour = construct(self.inst, self.cfg.construction, &mut self.rng);
        t.observe_into(&self.probes.h_construct_ns);
        tour
    }

    /// Fully LK-optimize `tour` (all cities active), then run an Or-opt
    /// pass (LK again if it gained). Returns the gain.
    pub fn optimize<T: TourOps>(&mut self, tour: &mut T) -> i64 {
        let t = self.obs.timer();
        let mut gain = lin_kernighan(&mut self.lk, &mut self.opt, tour);
        self.opt.activate_all();
        let g2 = or_opt_pass(&mut self.opt, tour);
        if g2 > 0 {
            self.opt.activate_all();
            gain += g2 + lk_pass(&mut self.lk, &mut self.opt, tour);
        }
        t.observe_into(&self.probes.h_call_ns);
        self.probes.h_call_gain.observe(gain.max(0) as u64);
        gain
    }

    /// LK-optimize, then Or-opt, only around the given seed cities (after
    /// a kick the paper's engine re-optimizes locally; this is what makes
    /// chained iterations cheap).
    pub fn optimize_around<T: TourOps>(&mut self, tour: &mut T, seeds: &[usize]) -> i64 {
        self.opt.deactivate_all();
        for &s in seeds {
            self.opt.activate(s);
            self.opt.activate(tour.next(s));
            self.opt.activate(tour.prev(s));
        }
        let gain = lk_pass(&mut self.lk, &mut self.opt, tour);
        for &s in seeds {
            self.opt.activate(s);
        }
        gain + or_opt_pass(&mut self.opt, tour)
    }

    /// One chained iteration on `tour` (assumed LK-optimal, of length
    /// `current_len`): kick, re-optimize around the kick, keep iff not
    /// worse. Returns the new length.
    ///
    /// Length bookkeeping is exact-delta (`kick.delta` minus the
    /// optimization gain) and a rejected kick is undone by replaying the
    /// step's flip journal backwards, so a chained iteration costs only
    /// the local search: nothing in it walks, copies or rebuilds the
    /// tour.
    pub fn chain_step<R: TourRep>(&mut self, tour: &mut R, current_len: i64) -> i64 {
        let t = self.obs.timer();
        // Out of `self` for the step: the logged tour goes through
        // `&mut self` methods.
        let mut journal = std::mem::take(&mut self.journal);
        journal.clear();
        let mut logged = Journaled {
            tour: &mut *tour,
            log: &mut journal,
        };
        let Some(k) = kick(self.cfg.kick, self.inst, &mut logged, self.neighbors, &mut self.rng)
        else {
            self.journal = journal;
            return current_len;
        };
        self.probes.c_kicks.incr();
        let opt_gain = self.optimize_around(&mut logged, &k.cities);
        let new_len = current_len + k.delta - opt_gain;
        debug_assert_eq!(new_len, tour.tour_length(self.inst));
        self.probes.h_step_flips.observe(journal.len() as u64);
        if new_len <= current_len {
            self.probes.c_accepts.incr();
        } else {
            for &[a, b, c, d] in journal.iter().rev() {
                two_opt_by_edges(tour, (a as usize, c as usize), (b as usize, d as usize));
            }
        }
        self.journal = journal;
        t.observe_into(&self.probes.h_step_ns);
        new_len.min(current_len)
    }

    /// One full CLK call on an array tour via representation `R`:
    /// convert, fully optimize, run `kicks` chained iterations (bailing
    /// out as soon as `stop(len)` says so), convert back. Returns the
    /// final length.
    pub fn clk_call<R: TourRep>(
        &mut self,
        tour: &mut Tour,
        kicks: u64,
        stop: &mut dyn FnMut(i64) -> bool,
    ) -> i64 {
        let before = tour.length(self.inst);
        let mut rep = R::from_tour(tour);
        let gain = self.optimize(&mut rep);
        let mut len = before - gain;
        for _ in 0..kicks {
            if stop(len) {
                break;
            }
            len = self.chain_step(&mut rep, len);
        }
        *tour = rep.to_tour();
        len
    }

    /// Full standalone CLK run on representation `R`: construct,
    /// optimize, chain kicks until the budget is exhausted.
    pub fn run_rep<R: TourRep>(&mut self, budget: &Budget) -> ClkResult {
        self.run_rep_with::<R>(budget, &mut |_| {})
    }

    /// [`ChainedLk::run_rep`] that also hands `sink` every tour the run
    /// obtains, as it obtains it: a caller holds a tour once construction
    /// is done, not once the first LK pass is.
    pub fn run_rep_with<R: TourRep>(
        &mut self,
        budget: &Budget,
        sink: &mut dyn FnMut(&Progress<'_>),
    ) -> ClkResult {
        let watch = Stopwatch::start();
        let mut trace = Trace::new();
        // The one place a run reports a tour; the trace is its first
        // consumer.
        let mut report = |kicks: u64, length: i64, tour: &dyn Fn() -> Tour| {
            let secs = watch.secs();
            trace.record(secs, kicks, length);
            sink(&Progress {
                secs,
                kicks,
                length,
                tour,
            });
        };
        let start = self.construct_tour();
        let before = start.length(self.inst);
        report(0, before, &|| start.clone());
        let mut rep = R::from_tour(&start);
        let mut best_len = before - self.optimize(&mut rep);
        if best_len < before {
            report(0, best_len, &|| rep.to_tour());
        }
        let mut kicks = 0u64;

        while !budget.exhausted(watch.elapsed(), kicks, best_len) {
            let new_len = self.chain_step(&mut rep, best_len);
            kicks += 1;
            if new_len < best_len {
                best_len = new_len;
                report(kicks, best_len, &|| rep.to_tour());
            }
        }
        let tour = rep.to_tour();
        debug_assert_eq!(tour.length(self.inst), best_len);
        ClkResult {
            length: best_len,
            tour,
            kicks,
            seconds: watch.secs(),
            trace,
        }
    }

    /// Full standalone CLK run on the array representation.
    pub fn run(&mut self, budget: &Budget) -> ClkResult {
        self.run_rep::<Tour>(budget)
    }
}

/// A [`ChainedLk`] plus a tour-representation choice.
///
/// Callers that should not care about the array-vs-two-level decision
/// (the distributed node driver, benchmarks, pipelines) go through this
/// wrapper: [`ClkEngine::auto`] picks the two-level list for instances
/// of at least [`ChainedLkConfig::tl_threshold`] cities, and every
/// method dispatches to the chosen representation internally while
/// keeping an array-`Tour` interface at the boundary.
pub struct ClkEngine<'a> {
    inner: ChainedLk<'a>,
    two_level: bool,
}

impl<'a> ClkEngine<'a> {
    /// Create an engine, selecting the representation by instance size.
    pub fn auto(inst: &'a Instance, neighbors: &'a NeighborLists, cfg: ChainedLkConfig) -> Self {
        let two_level = inst.len() >= cfg.tl_threshold;
        ClkEngine {
            inner: ChainedLk::new(inst, neighbors, cfg),
            two_level,
        }
    }

    /// Create an engine with an explicit representation (benchmarks
    /// force both to measure the crossover).
    pub fn with_representation(
        inst: &'a Instance,
        neighbors: &'a NeighborLists,
        cfg: ChainedLkConfig,
        two_level: bool,
    ) -> Self {
        ClkEngine {
            inner: ChainedLk::new(inst, neighbors, cfg),
            two_level,
        }
    }

    /// Name of the active representation (`"array"` / `"twolevel"`).
    pub fn representation(&self) -> &'static str {
        if self.two_level {
            TwoLevelList::NAME
        } else {
            Tour::NAME
        }
    }

    /// See [`ChainedLk::attach_obs`].
    pub fn attach_obs(&mut self, obs: Obs) {
        self.inner.attach_obs(obs);
    }

    /// See [`ChainedLk::obs`].
    pub fn obs(&self) -> &Obs {
        self.inner.obs()
    }

    /// The engine's instance.
    pub fn instance(&self) -> &'a Instance {
        self.inner.instance()
    }

    /// See [`ChainedLk::rng_mut`].
    pub fn rng_mut(&mut self) -> &mut SmallRng {
        self.inner.rng_mut()
    }

    /// See [`ChainedLk::construct_tour`].
    pub fn construct_tour(&mut self) -> Tour {
        self.inner.construct_tour()
    }

    /// Fully LK-optimize `tour` in the chosen representation. Returns
    /// the new length.
    pub fn optimize_tour(&mut self, tour: &mut Tour) -> i64 {
        let before = tour.length(self.inner.inst);
        if self.two_level {
            let mut rep = TwoLevelList::from_tour(tour);
            let gain = self.inner.optimize(&mut rep);
            *tour = rep.to_tour();
            before - gain
        } else {
            before - self.inner.optimize(tour)
        }
    }

    /// See [`ChainedLk::clk_call`]; dispatches on the representation.
    pub fn clk_call(
        &mut self,
        tour: &mut Tour,
        kicks: u64,
        stop: &mut dyn FnMut(i64) -> bool,
    ) -> i64 {
        if self.two_level {
            self.inner.clk_call::<TwoLevelList>(tour, kicks, stop)
        } else {
            self.inner.clk_call::<Tour>(tour, kicks, stop)
        }
    }

    /// See [`ChainedLk::run`]; dispatches on the representation.
    pub fn run(&mut self, budget: &Budget) -> ClkResult {
        self.run_with(budget, &mut |_| {})
    }

    /// See [`ChainedLk::run_rep_with`]; dispatches on the representation.
    pub fn run_with(&mut self, budget: &Budget, sink: &mut dyn FnMut(&Progress<'_>)) -> ClkResult {
        if self.two_level {
            self.inner.run_rep_with::<TwoLevelList>(budget, sink)
        } else {
            self.inner.run_rep_with::<Tour>(budget, sink)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    fn run_clk(inst: &Instance, kicks: u64, seed: u64) -> ClkResult {
        let nl = NeighborLists::build(inst, 10);
        let cfg = ChainedLkConfig {
            seed,
            ..Default::default()
        };
        let mut clk = ChainedLk::new(inst, &nl, cfg);
        clk.run(&Budget::kicks(kicks))
    }

    #[test]
    fn chaining_improves_over_plain_lk() {
        let inst = generate::uniform(200, 10_000.0, 71);
        let zero_kicks = run_clk(&inst, 0, 1);
        let many_kicks = run_clk(&inst, 200, 1);
        assert!(
            many_kicks.length <= zero_kicks.length,
            "kicks made things worse: {} vs {}",
            many_kicks.length,
            zero_kicks.length
        );
        assert_eq!(many_kicks.kicks, 200);
        assert!(many_kicks.tour.is_valid());
        assert_eq!(many_kicks.tour.length(&inst), many_kicks.length);
    }

    #[test]
    fn solves_small_grid_to_optimality() {
        let inst = generate::grid_known_optimum(8, 8, 100.0);
        let nl = NeighborLists::build(&inst, 8);
        let cfg = ChainedLkConfig {
            seed: 3,
            ..Default::default()
        };
        let mut clk = ChainedLk::new(&inst, &nl, cfg);
        let budget = Budget::kicks(3000).with_target(inst.known_optimum().unwrap());
        let res = clk.run(&budget);
        assert_eq!(
            res.length,
            inst.known_optimum().unwrap(),
            "CLK failed to solve an 8x8 grid within 3000 kicks"
        );
    }

    #[test]
    fn target_terminates_early() {
        let inst = generate::uniform(100, 10_000.0, 72);
        let nl = NeighborLists::build(&inst, 8);
        let mut clk = ChainedLk::new(&inst, &nl, ChainedLkConfig::default());
        // Absurdly easy target: any tour meets it.
        let res = clk.run(&Budget::kicks(10_000).with_target(i64::MAX / 2));
        assert_eq!(res.kicks, 0);
    }

    #[test]
    fn all_kick_strategies_work_end_to_end() {
        let inst = generate::uniform(120, 10_000.0, 73);
        let nl = NeighborLists::build(&inst, 10);
        for strategy in KickStrategy::ALL {
            let cfg = ChainedLkConfig {
                kick: strategy,
                seed: 9,
                ..Default::default()
            };
            let mut clk = ChainedLk::new(&inst, &nl, cfg);
            let res = clk.run(&Budget::kicks(30));
            assert!(res.tour.is_valid(), "{strategy:?}");
            assert_eq!(res.tour.length(&inst), res.length, "{strategy:?}");
        }
    }

    #[test]
    fn trace_is_monotone_decreasing() {
        let inst = generate::uniform(150, 10_000.0, 74);
        let res = run_clk(&inst, 100, 5);
        let lens: Vec<i64> = res.trace.points().iter().map(|&(_, _, l)| l).collect();
        for w in lens.windows(2) {
            assert!(w[1] < w[0], "trace not strictly improving: {lens:?}");
        }
    }

    #[test]
    fn deterministic_under_kick_budget() {
        let inst = generate::uniform(100, 10_000.0, 75);
        let a = run_clk(&inst, 50, 11);
        let b = run_clk(&inst, 50, 11);
        assert_eq!(a.length, b.length);
        assert_eq!(a.tour.order(), b.tour.order());
    }

    #[test]
    fn representations_agree_on_full_runs() {
        // The same seed must drive the exact same search on both
        // representations: identical kick sequence, identical final
        // tour. The even n = 2000 is there for its ties: flips whose two
        // sides hold n/2 cities each, which both structures must break
        // alike.
        let cfg = ChainedLkConfig {
            seed: 13,
            ..Default::default()
        };
        for (n, kicks) in [(300, 60), (2000, 120)] {
            let inst = generate::uniform(n, 10_000.0, 76);
            let nl = NeighborLists::build(&inst, 10);
            let mut array = ChainedLk::new(&inst, &nl, cfg.clone());
            let mut twolevel = ChainedLk::new(&inst, &nl, cfg.clone());
            let a = array.run_rep::<Tour>(&Budget::kicks(kicks));
            let b = twolevel.run_rep::<TwoLevelList>(&Budget::kicks(kicks));
            assert_eq!(a.length, b.length, "n={n}");
            assert_eq!(a.tour.order(), b.tour.order(), "n={n}");
            assert_eq!(a.kicks, b.kicks, "n={n}");
        }
    }

    /// Snapshot `tour`, run 200 chained iterations, and after every
    /// rejected kick demand the snapshot back, bit for bit.
    fn rejected_kicks_restore<R: TourRep>(snap: impl Fn(&R) -> Vec<u32>) {
        // Even n: flips with n/2 cities on either side occur, the case
        // where "undo by the inverse move" and "undo the same cities"
        // differ.
        let inst = generate::uniform(200, 10_000.0, 85);
        let nl = NeighborLists::build(&inst, 10);
        let cfg = ChainedLkConfig {
            seed: 29,
            ..Default::default()
        };
        let mut clk = ChainedLk::new(&inst, &nl, cfg);
        clk.attach_obs(Obs::for_node(0));
        let start = clk.construct_tour();
        let mut tour = R::from_tour(&start);
        let mut len = start.length(&inst) - clk.optimize(&mut tour);
        let mut rejected = 0;
        for step in 0..200 {
            let before = snap(&tour);
            let accepts = clk.probes.c_accepts.get();
            len = clk.chain_step(&mut tour, len);
            if clk.probes.c_accepts.get() == accepts {
                rejected += 1;
                assert_eq!(snap(&tour), before, "{} step {step}", R::NAME);
            }
        }
        assert!(rejected >= 50, "{}: only {rejected} rejected kicks", R::NAME);
        assert_eq!(tour.tour_length(&inst), len);
    }

    #[test]
    fn rejected_kick_is_undone_exactly_on_both_representations() {
        // The array gets every position back ...
        rejected_kicks_restore::<Tour>(|t| t.order().to_vec());
        // ... the two-level list its directed cycle.
        rejected_kicks_restore::<TwoLevelList>(|t| {
            let mut cycle = TourOps::to_order(t);
            cycle.push(t.next(0) as u32);
            cycle
        });
    }

    #[test]
    fn optimize_around_ignores_cities_activated_behind_its_back() {
        // A random tour: every city has an improving move.
        let inst = generate::uniform(120, 10_000.0, 86);
        let nl = NeighborLists::build(&inst, 8);
        let mut clk = ChainedLk::new(&inst, &nl, ChainedLkConfig::default());
        let mut tour = Tour::random(120, &mut SmallRng::seed_from_u64(6));
        let start = tour.clone();
        // First call clears the fresh all-active state; nothing seeded,
        // nothing done, and the context is left all-quiet.
        assert_eq!(clk.optimize_around(&mut tour, &[]), 0);
        // Someone else wakes a city up: the next call must not take the
        // all-quiet shortcut and search from it.
        clk.opt.activate(5);
        assert_eq!(clk.optimize_around(&mut tour, &[]), 0);
        assert_eq!(tour, start);
        // The move was there to be found.
        assert!(clk.optimize_around(&mut tour, &[5]) > 0);
    }

    #[test]
    fn engine_auto_selects_by_threshold() {
        let inst = generate::uniform(100, 10_000.0, 77);
        let nl = NeighborLists::build(&inst, 8);
        let small = ClkEngine::auto(&inst, &nl, ChainedLkConfig::default());
        assert_eq!(small.representation(), "array");
        let cfg = ChainedLkConfig {
            tl_threshold: 50,
            ..Default::default()
        };
        let big = ClkEngine::auto(&inst, &nl, cfg);
        assert_eq!(big.representation(), "twolevel");
    }

    #[test]
    fn engine_results_match_plain_chained_lk() {
        let inst = generate::uniform(150, 10_000.0, 78);
        let nl = NeighborLists::build(&inst, 10);
        let cfg = ChainedLkConfig {
            seed: 21,
            ..Default::default()
        };
        let mut plain = ChainedLk::new(&inst, &nl, cfg.clone());
        let want = plain.run(&Budget::kicks(40));
        for two_level in [false, true] {
            let mut engine = ClkEngine::with_representation(&inst, &nl, cfg.clone(), two_level);
            let got = engine.run(&Budget::kicks(40));
            assert_eq!(got.length, want.length, "two_level={two_level}");
            assert_eq!(got.tour.order(), want.tour.order(), "two_level={two_level}");
        }
    }

    #[test]
    fn engine_clk_call_matches_across_representations() {
        let inst = generate::uniform(200, 10_000.0, 79);
        let nl = NeighborLists::build(&inst, 10);
        let cfg = ChainedLkConfig {
            seed: 33,
            ..Default::default()
        };
        let mut results = Vec::new();
        for two_level in [false, true] {
            let mut engine = ClkEngine::with_representation(&inst, &nl, cfg.clone(), two_level);
            let mut tour = engine.construct_tour();
            let len = engine.clk_call(&mut tour, 25, &mut |_| false);
            assert_eq!(tour.length(&inst), len);
            results.push((len, tour.order().to_vec()));
        }
        assert_eq!(results[0], results[1]);
    }
}
