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
//! [`Tour`] or the [`TwoLevelList`], and on the caller's city labels or
//! on cities renumbered along a Hilbert curve (module `spatial`);
//! [`ClkEngine`] picks by instance size and hides the dispatch.

use obs::{kinds, Counter, Histogram, Obs};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tsp_core::{Instance, NeighborLists, Tour, TourOps, TourRep, TwoLevelList};

use crate::budget::{Budget, Stopwatch, Trace};
use crate::candidates::CandidateKind;
use crate::construct::construct;
use crate::kick::KickStrategy;
use crate::lin_kernighan::{lk_pass, LinKernighan, LkConfig};
use crate::or_opt::or_opt_pass;
use crate::search::Optimizer;

mod lanes;
mod passes;

use lanes::{
    kick_loop, kick_loop_alone, Engine, Lane, Report, SendReport, SendStop, Stop, Window, LANES,
};
use passes::{Counted, LkPass, OrPass, Spare};

/// Configuration of a Chained LK run.
#[derive(Debug, Clone)]
pub struct ChainedLkConfig {
    /// Kicking strategy (the paper's default and `linkern`'s is
    /// Random-walk).
    pub kick: KickStrategy,
    /// LK search parameters.
    pub lk: LkConfig,
    /// Candidate list width.
    pub neighbor_k: usize,
    /// How the candidate lists are constructed (k-NN, α-nearness, or
    /// hybrid). Part of the wire-level config of a distributed run:
    /// every node builds its lists from this knob, so all nodes must
    /// agree on it (see [`ChainedLkConfig::build_neighbors`]).
    pub candidates: CandidateKind,
    /// Instance size at which [`ClkEngine::auto`] moves the search to
    /// spatial labels: a geometric instance of at least this many cities
    /// runs on the array tour over cities renumbered along a Hilbert
    /// curve (module `spatial`), every decision unchanged; a matrix
    /// instance that large runs on the two-level list. Below it the
    /// search runs on the array tour in the caller's labels. At 50k
    /// uniform cities the renumbering takes 13–17 % off the solve and
    /// 21–26 % off the time to a 103 % tour against the two-level list —
    /// EXPERIMENTS.md, "Spatial city labels".
    pub tl_threshold: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChainedLkConfig {
    fn default() -> Self {
        ChainedLkConfig {
            kick: KickStrategy::RandomWalk(50),
            lk: LkConfig::default(),
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
    /// The tour itself, in the caller's labels. Built on request — an
    /// O(n) walk, which also maps spatial labels back — so a consumer
    /// that only watches lengths pays nothing for it.
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
    opt: Optimizer<'a>,
    lk: LinKernighan,
    cfg: ChainedLkConfig,
    rng: SmallRng,
    obs: Obs,
    probes: Probes,
    /// The flip journal and the position window of lane 0's step in
    /// progress (module `lanes`); kept here so a step allocates nothing.
    journal: Vec<[u32; 4]>,
    window: Window,
    /// Lanes of the kick loop and the full passes, when set; otherwise
    /// as many as [`lanes::LANES`] and the cores allow on an array engine
    /// at or above `tl_threshold`, and one below it.
    lanes: Option<usize>,
    /// The search state of lanes 1 and up, made by the first run on
    /// lanes: the passes' helpers and the kick loop's spare lanes.
    spares: Vec<Spare<'a>>,
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
    /// committed LK and Or-opt moves).
    h_step_flips: Histogram,
    /// Initial-tour construction duration (ns).
    h_construct_ns: Histogram,
    /// Where construction answered its nearest-city queries.
    c_tree_searches: Counter,
    c_row_answers: Counter,
    /// Kicks attempted / kicks whose result was kept.
    c_kicks: Counter,
    c_accepts: Counter,
    /// Exact search work (LK anchors, probes and committed steps, Or-opt
    /// probes), flushed once per [`ChainedLk::optimize`] and
    /// [`ChainedLk::chain_step`].
    c_lk_anchors: Counter,
    c_lk_probes: Counter,
    c_lk_steps: Counter,
    c_or_probes: Counter,
    /// Flips of the full passes, and lane results they refused (module
    /// `passes`).
    c_pass_flips: Counter,
    c_pass_redone: Counter,
    /// Flips of retired steps, array slots written in kick steps, and
    /// speculative steps thrown away (module `lanes`).
    c_flips: Counter,
    c_moved: Counter,
    c_discarded: Counter,
}

impl Probes {
    fn resolve(obs: &Obs) -> Self {
        Probes {
            h_call_ns: obs.histogram("clk.call.ns"),
            h_call_gain: obs.histogram("clk.call.gain"),
            h_step_ns: obs.histogram("clk.step.ns"),
            h_step_flips: obs.histogram("clk.step.flips"),
            h_construct_ns: obs.histogram("clk.construct.ns"),
            c_tree_searches: obs.counter(kinds::C_CONSTRUCT_TREE_SEARCHES),
            c_row_answers: obs.counter(kinds::C_CONSTRUCT_ROW_ANSWERS),
            c_kicks: obs.counter("clk.kicks"),
            c_accepts: obs.counter("clk.accepts"),
            c_lk_anchors: obs.counter(kinds::C_LK_ANCHORS),
            c_lk_probes: obs.counter(kinds::C_LK_PROBES),
            c_lk_steps: obs.counter(kinds::C_LK_STEPS),
            c_or_probes: obs.counter(kinds::C_OROPT_PROBES),
            c_pass_flips: obs.counter(kinds::C_PASS_FLIPS),
            c_pass_redone: obs.counter(kinds::C_PASS_REDONE),
            c_flips: obs.counter(kinds::C_FLIPS),
            c_moved: obs.counter(kinds::C_FLIP_MOVED),
            c_discarded: obs.counter(kinds::C_KICK_DISCARDED),
        }
    }
}

impl<'a> ChainedLk<'a> {
    /// Create an engine. `neighbors` must cover the same instance.
    /// Observability is off until [`ChainedLk::attach_obs`].
    pub fn new(inst: &'a Instance, neighbors: &'a NeighborLists, cfg: ChainedLkConfig) -> Self {
        Self::on(inst, cfg, Optimizer::new(inst, neighbors))
    }

    /// An engine whose search runs in `opt`'s labels.
    fn on(inst: &'a Instance, cfg: ChainedLkConfig, opt: Optimizer<'a>) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let obs = Obs::disabled();
        let probes = Probes::resolve(&obs);
        ChainedLk {
            inst,
            opt,
            lk: LinKernighan::new(cfg.lk.clone()),
            cfg,
            rng,
            obs,
            probes,
            journal: Vec::new(),
            window: Window::default(),
            lanes: None,
            spares: Vec::new(),
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

    /// Construct the initial tour ([`construct`]: Quick-Borůvka, or
    /// nearest-neighbor on an explicit matrix), on the caller's instance
    /// and candidate rows.
    pub fn construct_tour(&mut self) -> Tour {
        let t = self.obs.timer();
        let (inst, rows) = self.opt.caller();
        let (tour, queries) = construct(inst, Some(rows), &mut self.rng);
        t.observe_into(&self.probes.h_construct_ns);
        self.probes.c_tree_searches.add(queries.tree_searches);
        self.probes.c_row_answers.add(queries.row_answers);
        tour
    }

    /// Fully LK-optimize `tour` (all cities active), then run an Or-opt
    /// pass (LK again if it gained). Returns the gain. On the lanes the
    /// kick loop would run, the passes run there too (module `passes`).
    pub fn optimize<T: TourRep>(&mut self, tour: &mut T) -> i64 {
        let t = self.obs.timer();
        let lanes = self.lane_count(tour.as_array().is_some());
        let (gain, flips, redone) = if lanes > 1 {
            let array = tour.as_array_mut().expect("lanes run on the array");
            self.optimize_on_lanes(array, lanes)
        } else {
            let mut counted = Counted { tour, flips: 0 };
            let (lk, opt) = (&mut self.lk, &mut self.opt);
            let gain = full_passes(&mut counted, |pass, counted| {
                opt.activate_all();
                match pass {
                    Pass::Lk => lk_pass(lk, opt, counted),
                    Pass::OrOpt => or_opt_pass(opt, counted),
                }
            });
            (gain, counted.flips, 0)
        };
        self.probes.c_pass_flips.add(flips);
        self.probes.c_pass_redone.add(redone);
        self.flush_work();
        t.observe_into(&self.probes.h_call_ns);
        self.probes.h_call_gain.observe(gain.max(0) as u64);
        gain
    }

    /// [`ChainedLk::optimize`] on `lanes` lanes: returns the gain, the
    /// flips and the helpers' results lane 0 refused.
    fn optimize_on_lanes(&mut self, tour: &mut Tour, lanes: usize) -> (i64, u64, u64) {
        self.ensure_spares(tour, lanes - 1);
        let spares = &mut self.spares[..lanes - 1];
        let mut counted = Counted { tour, flips: 0 };
        let mut redone = 0;
        let (lk, opt) = (&mut self.lk, &mut self.opt);
        let gain = full_passes(&mut counted, |pass, counted| {
            opt.activate_all();
            let (gain, refused) = match pass {
                Pass::Lk => passes::sweep_on_lanes(LkPass, lk, opt, counted, spares),
                Pass::OrOpt => passes::sweep_on_lanes(OrPass, lk, opt, counted, spares),
            };
            redone += refused;
            gain
        });
        // The helpers' replays counted work that lane 0 counted already.
        for (_, opt, lk) in spares.iter_mut() {
            lk.take_work();
            opt.take_or_probes();
        }
        (gain, counted.flips, redone)
    }

    /// Make sure there are `count` spare lanes.
    fn ensure_spares(&mut self, tour: &Tour, count: usize) {
        while self.spares.len() < count {
            let lk = LinKernighan::new(self.cfg.lk.clone());
            self.spares.push((tour.clone(), self.opt.fresh(), lk));
        }
    }

    /// Lanes for the kick loop and the full passes on a tour that is an
    /// array or not.
    fn lane_count(&self, array: bool) -> usize {
        match (self.lanes, array) {
            (_, false) => 1,
            (Some(lanes), _) => lanes,
            (None, _) if self.inst.len() >= self.cfg.tl_threshold => {
                tsp_core::fan_out::width(LANES)
            }
            (None, _) => 1,
        }
    }

    /// Move the work counted since the last flush into the counters.
    fn flush_work(&mut self) {
        let work = self.lk.take_work();
        self.probes.c_lk_anchors.add(work.anchors);
        self.probes.c_lk_probes.add(work.probes);
        self.probes.c_lk_steps.add(work.steps);
        self.probes.c_or_probes.add(self.opt.take_or_probes());
    }

    /// One chained iteration on `tour` (assumed LK-optimal, of length
    /// `current_len`): kick, re-optimize around the kick, keep iff not
    /// worse. Returns the new length.
    ///
    /// Length bookkeeping is exact-delta (`kick.delta` minus the
    /// optimization gain) and a rejected kick is undone in place — the
    /// array copies back the window of positions the step changed, the
    /// two-level list replays the step's flips backwards — so a chained
    /// iteration costs only the local search: nothing in it walks,
    /// copies or rebuilds the tour. It is the kick loop of module
    /// `lanes`, one step long, on one lane.
    ///
    /// `tour` is in the labels of the engine's search: the caller's for
    /// an engine from [`ChainedLk::new`].
    pub fn chain_step<R: TourRep>(&mut self, tour: &mut R, current_len: i64) -> i64 {
        self.chain_alone(
            tour,
            current_len,
            &mut |kicks, _| kicks >= 1,
            &mut |_, _, _| {},
        )
        .1
    }

    /// Chained iterations on `rep` (of length `len`) until `stop(kicks,
    /// len)` says so before a step, handing `report` every improvement;
    /// on several lanes when the engine may use them. Returns the steps
    /// taken and the final length.
    fn chain<R: TourRep>(
        &mut self,
        rep: &mut R,
        len: i64,
        stop: &mut SendStop<'_>,
        report: &mut SendReport<'_>,
    ) -> (u64, i64) {
        let lanes = self.lane_count(rep.as_array().is_some());
        let Some(tour) = rep.as_array_mut().filter(|_| lanes > 1) else {
            return self.chain_alone(rep, len, stop, report);
        };
        self.ensure_spares(tour, lanes - 1);
        let spares = &mut self.spares[..lanes - 1];
        for (t, _, _) in spares.iter_mut() {
            t.clone_from(tour);
        }
        let mut all = vec![Lane::new(
            tour,
            &mut self.opt,
            &mut self.lk,
            std::mem::take(&mut self.journal),
            std::mem::take(&mut self.window),
        )];
        all.extend(
            spares
                .iter_mut()
                .map(|(t, o, l)| Lane::new(t, o, l, Vec::new(), Window::default())),
        );
        let engine = Engine {
            strategy: self.cfg.kick,
            probes: &self.probes,
            obs: &self.obs,
        };
        let res = kick_loop(engine, &mut all, &mut self.rng, len, stop, report);
        let lane0 = &mut all[0];
        (self.journal, self.window) = (
            std::mem::take(&mut lane0.journal),
            std::mem::take(&mut lane0.window),
        );
        res
    }

    /// [`ChainedLk::chain`] on one lane, on this thread.
    fn chain_alone<R: TourRep>(
        &mut self,
        rep: &mut R,
        len: i64,
        stop: &mut Stop<'_>,
        report: &mut Report<'_>,
    ) -> (u64, i64) {
        let mut lane = Lane::new(
            rep,
            &mut self.opt,
            &mut self.lk,
            std::mem::take(&mut self.journal),
            std::mem::take(&mut self.window),
        );
        let engine = Engine {
            strategy: self.cfg.kick,
            probes: &self.probes,
            obs: &self.obs,
        };
        let res = kick_loop_alone(engine, &mut lane, &mut self.rng, len, stop, report);
        (self.journal, self.window) = (lane.journal, lane.window);
        res
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
        let mut rep: R = self.opt.rep_in(tour);
        let gain = self.optimize(&mut rep);
        let mut done = |k: u64, len: i64| k >= kicks || stop(len);
        let (_, len) = self.chain_alone(&mut rep, before - gain, &mut done, &mut |_, _, _| {});
        *tour = self.opt.tour_out(&rep);
        len
    }

    /// Full standalone CLK run on representation `R`: construct,
    /// optimize, chain kicks until the budget is exhausted.
    pub fn run_rep<R: TourRep>(&mut self, budget: &Budget) -> ClkResult {
        self.run_rep_with::<R>(budget, &mut |_| {})
    }

    /// [`ChainedLk::run_rep`] that also hands `sink` every tour the run
    /// obtains, as it obtains it: a caller holds a tour once construction
    /// is done, not once the first LK pass is. On several lanes the sink
    /// runs on the thread that retires the improving step.
    pub fn run_rep_with<R: TourRep>(
        &mut self,
        budget: &Budget,
        sink: &mut (dyn FnMut(&Progress<'_>) + Send),
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
        // Constructed on the caller's instance and reported before the
        // search's labels are even looked at.
        let start = self.construct_tour();
        let before = start.length(self.inst);
        report(0, before, &|| start.clone());
        let mut rep: R = self.opt.rep_in(&start);
        let first = before - self.optimize(&mut rep);
        if first < before {
            report(0, first, &|| self.opt.tour_out(&rep));
        }
        let mut stop = |kicks: u64, len: i64| budget.exhausted(watch.elapsed(), kicks, len);
        let (kicks, best_len) = self.chain(&mut rep, first, &mut stop, &mut report);
        let tour = self.opt.tour_out(&rep);
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

/// The passes of one full optimization.
enum Pass {
    Lk,
    OrOpt,
}

/// A full optimization as `pass` runs its passes on `tour`: LK, Or-opt,
/// and LK again if Or-opt gained, each from every city (`pass` wakes
/// them).
fn full_passes<T>(tour: &mut T, mut pass: impl FnMut(Pass, &mut T) -> i64) -> i64 {
    let mut gain = pass(Pass::Lk, tour);
    let g2 = pass(Pass::OrOpt, tour);
    if g2 > 0 {
        gain += g2 + pass(Pass::Lk, tour);
    }
    gain
}

/// LK-optimize, then Or-opt, only around the given seed cities (after
/// a kick the paper's engine re-optimizes locally; this is what makes
/// chained iterations cheap), on the search state of one lane.
fn optimize_around<T: TourOps>(
    lk: &mut LinKernighan,
    opt: &mut Optimizer<'_>,
    tour: &mut T,
    seeds: &[usize],
) -> i64 {
    opt.deactivate_all();
    for &s in seeds {
        opt.activate(s);
        opt.activate(tour.next(s));
        opt.activate(tour.prev(s));
    }
    let gain = lk_pass(lk, opt, tour);
    for &s in seeds {
        opt.activate(s);
    }
    gain + or_opt_pass(opt, tour)
}

/// A [`ChainedLk`] plus a tour-representation choice.
///
/// Callers that should not care about the representation (the
/// distributed node driver, benchmarks, pipelines) go through this
/// wrapper. [`ClkEngine::auto`] keeps instances below
/// [`ChainedLkConfig::tl_threshold`] cities on the array tour in the
/// caller's labels. A geometric instance at or above it runs on the
/// array tour over Hilbert-ordered cities (module `spatial`), a matrix
/// instance on the two-level list. Every method keeps an array-`Tour`
/// interface in the caller's labels at the boundary, and the three
/// choices take the same decisions: tours, lengths, kicks and traces are
/// identical whichever runs.
pub struct ClkEngine<'a> {
    inner: ChainedLk<'a>,
    two_level: bool,
}

impl<'a> ClkEngine<'a> {
    /// Create an engine, selecting the representation by instance size.
    pub fn auto(inst: &'a Instance, neighbors: &'a NeighborLists, cfg: ChainedLkConfig) -> Self {
        if inst.len() < cfg.tl_threshold {
            return Self::with_representation(inst, neighbors, cfg, false);
        }
        if !inst.metric().is_geometric() {
            return Self::with_representation(inst, neighbors, cfg, true);
        }
        ClkEngine {
            inner: ChainedLk::on(inst, cfg, Optimizer::spatial(inst, neighbors)),
            two_level: false,
        }
    }

    /// Create an engine on the caller's labels with an explicit
    /// representation (benchmarks force both to measure the crossover).
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

    /// Name of the active representation: `"array"`, `"twolevel"`, or
    /// `"spatial"` for the array on Hilbert-ordered cities.
    pub fn representation(&self) -> &'static str {
        if self.two_level {
            TwoLevelList::NAME
        } else if self.inner.opt.is_spatial() {
            "spatial"
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
    /// the new length. Every city ends where the flips put it on the
    /// array, in either label space; the two-level list's indices are
    /// those positions too, so all three hand back the same `tour`.
    pub fn optimize_tour(&mut self, tour: &mut Tour) -> i64 {
        let before = tour.length(self.inner.inst);
        if self.two_level {
            let mut rep = TwoLevelList::from_tour(tour);
            let gain = self.inner.optimize(&mut rep);
            // The list's indices are the positions the array would hold.
            let mut order = vec![0u32; rep.len()];
            for c in 0..rep.len() {
                order[rep.index(c)] = c as u32;
            }
            *tour = Tour::from_order(order);
            before - gain
        } else if self.inner.opt.is_spatial() {
            let mut rep: Tour = self.inner.opt.rep_in(tour);
            let gain = self.inner.optimize(&mut rep);
            *tour = self.inner.opt.array_out(&rep);
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
    pub fn run_with(
        &mut self,
        budget: &Budget,
        sink: &mut (dyn FnMut(&Progress<'_>) + Send),
    ) -> ClkResult {
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
        assert!(
            rejected >= 50,
            "{}: only {rejected} rejected kicks",
            R::NAME
        );
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
        let around = |clk: &mut ChainedLk, tour: &mut Tour, seeds: &[usize]| {
            optimize_around(&mut clk.lk, &mut clk.opt, tour, seeds)
        };
        assert_eq!(around(&mut clk, &mut tour, &[]), 0);
        // Someone else wakes a city up: the next call must not take the
        // all-quiet shortcut and search from it.
        clk.opt.activate(5);
        assert_eq!(around(&mut clk, &mut tour, &[]), 0);
        assert_eq!(tour, start);
        // The move was there to be found.
        assert!(around(&mut clk, &mut tour, &[5]) > 0);
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
        let big = ClkEngine::auto(&inst, &nl, cfg.clone());
        assert_eq!(big.representation(), "spatial");
        // A matrix has no coordinates to order along a curve.
        let n = inst.len();
        let matrix = (0..n * n).map(|i| inst.dist(i / n, i % n)).collect();
        let explicit = Instance::explicit("m", matrix, n);
        let nl = NeighborLists::build(&explicit, 8);
        let big = ClkEngine::auto(&explicit, &nl, cfg);
        assert_eq!(big.representation(), "twolevel");
    }

    /// Order, length, kicks, trace, flip and work counters, and the next
    /// draw of the RNG a run leaves.
    type Decided = (Vec<u32>, i64, u64, Vec<(u64, i64)>, [u64; 6], u64);

    /// Everything a run decides, the RNG state after it included.
    fn lane_run(engine: &mut ClkEngine<'_>, obs: &Obs, budget: &Budget) -> Decided {
        let res = engine.run(budget);
        let work = [
            "clk.step.flips",
            kinds::C_FLIPS,
            kinds::C_LK_ANCHORS,
            kinds::C_LK_PROBES,
            kinds::C_LK_STEPS,
            kinds::C_OROPT_PROBES,
        ]
        .map(|name| match name {
            "clk.step.flips" => obs.histogram(name).snapshot().sum,
            _ => obs.counter(name).get(),
        });
        let trace = res.trace.points().iter().map(|&(_, k, l)| (k, l)).collect();
        let mut rng = engine.rng_mut().clone();
        (
            res.tour.order().to_vec(),
            res.length,
            res.kicks,
            trace,
            work,
            rand::Rng::gen(&mut rng),
        )
    }

    #[test]
    fn lanes_run_tour_for_tour_like_one() {
        // The drill plate of `tests/pinned.rs` and its array constants
        // `(seed, final length, Σ clk.step.flips)` of a 60-kick run.
        const CLK_ARRAY: [(u64, i64, u64); 3] = [
            (1, 543_120, 12_048),
            (2, 542_420, 13_870),
            (3, 542_420, 13_985),
        ];
        let inst = generate::drill_plate(300, 7);
        let base = ChainedLkConfig {
            candidates: CandidateKind::Hybrid,
            ..Default::default()
        };
        let nl = base.build_neighbors(&inst);
        let kicks = Budget::kicks(60);
        for (seed, length, flips) in CLK_ARRAY {
            for spatial in [false, true] {
                let engine = |lanes| {
                    let cfg = ChainedLkConfig {
                        seed,
                        tl_threshold: if spatial { 0 } else { usize::MAX },
                        ..base.clone()
                    };
                    let mut engine = ClkEngine::auto(&inst, &nl, cfg);
                    engine.inner.lanes = Some(lanes);
                    let obs = Obs::for_node(0);
                    engine.attach_obs(obs.clone());
                    (engine, obs)
                };
                // A target the second run reaches halfway: a run that
                // stops on it may have drawn steps it never retires.
                let target = {
                    let (mut one, obs) = engine(1);
                    lane_run(&mut one, &obs, &kicks);
                    let trace = one.run(&kicks).trace;
                    trace.points()[trace.points().len() / 2].2
                };
                let budgets = [
                    kicks.clone(),
                    kicks.clone().with_target(target),
                    Budget::kicks(20),
                ];
                let mut runs = Vec::new();
                for lanes in [1, 2, 3] {
                    let (mut engine, obs) = engine(lanes);
                    // Each run starts from the RNG the one before left.
                    let decided = budgets.each_ref().map(|b| lane_run(&mut engine, &obs, b));
                    assert_eq!(decided[0].1, length, "seed {seed} lanes {lanes}");
                    assert_eq!(decided[1].1, target, "seed {seed} lanes {lanes}");
                    assert_eq!(decided[0].4[0], flips, "seed {seed} lanes {lanes}");
                    assert_eq!(
                        decided[0].4[0], decided[0].4[1],
                        "seed {seed} lanes {lanes}"
                    );
                    runs.push((lanes, decided));
                }
                for (lanes, decided) in &runs[1..] {
                    assert_eq!(
                        decided, &runs[0].1,
                        "seed {seed} spatial {spatial} lanes {lanes}"
                    );
                }
            }
        }
    }

    /// The instances the full passes on lanes are held to one lane on:
    /// `pinned.rs`'s plate, a 12×12 grid, a lattice whose every point
    /// holds two cities, and 301 uniform cities on spatial labels.
    fn pass_instances() -> Vec<(&'static str, Instance, ChainedLkConfig)> {
        let base = ChainedLkConfig {
            seed: 5,
            tl_threshold: usize::MAX,
            ..Default::default()
        };
        let lattice = (0..2 * 64)
            .map(|i| tsp_core::Point::new((i % 64 % 8) as f64 * 100.0, (i % 64 / 8) as f64 * 100.0))
            .collect();
        vec![
            (
                "plate",
                generate::drill_plate(300, 7),
                ChainedLkConfig {
                    candidates: CandidateKind::Hybrid,
                    ..base.clone()
                },
            ),
            (
                "grid",
                generate::grid_known_optimum(12, 12, 100.0),
                base.clone(),
            ),
            (
                "lattice",
                Instance::new("lattice", lattice, tsp_core::Metric::Euc2d),
                base.clone(),
            ),
            (
                "uniform",
                generate::uniform(301, 1e6, 8),
                ChainedLkConfig {
                    tl_threshold: 0,
                    ..base
                },
            ),
        ]
    }

    /// The flips and exact work counters of the full passes.
    fn pass_counts(obs: &Obs) -> [u64; 5] {
        [
            kinds::C_PASS_FLIPS,
            kinds::C_LK_ANCHORS,
            kinds::C_LK_PROBES,
            kinds::C_LK_STEPS,
            kinds::C_OROPT_PROBES,
        ]
        .map(|name| obs.counter(name).get())
    }

    #[test]
    fn passes_on_lanes_optimize_tour_for_tour_like_one() {
        for (name, inst, cfg) in pass_instances() {
            let nl = cfg.build_neighbors(&inst);
            let mut runs = Vec::new();
            for lanes in [1, 2, 3] {
                let mut engine = ClkEngine::auto(&inst, &nl, cfg.clone());
                engine.inner.lanes = Some(lanes);
                let obs = Obs::for_node(0);
                engine.attach_obs(obs.clone());
                // A random tour, where a tenth of the anchors and more
                // commit, then a whole run from the construction tour.
                let mut tour = Tour::random(inst.len(), &mut SmallRng::seed_from_u64(9));
                let len = engine.optimize_tour(&mut tour);
                assert_eq!(tour.length(&inst), len, "{name} lanes {lanes}");
                let optimized = (tour.order().to_vec(), len, pass_counts(&obs));
                let decided = lane_run(&mut engine, &obs, &Budget::kicks(30));
                runs.push((lanes, optimized, decided, pass_counts(&obs)));
            }
            for (lanes, optimized, decided, counts) in &runs[1..] {
                assert_eq!(optimized, &runs[0].1, "{name} optimize, lanes {lanes}");
                assert_eq!(decided, &runs[0].2, "{name} run, lanes {lanes}");
                assert_eq!(counts, &runs[0].3, "{name} counters, lanes {lanes}");
            }
        }
    }

    /// A fan-out inside another runs its items one after another, so
    /// lane 0 must finish the loop before the other lanes even start.
    #[test]
    fn lanes_inside_a_fan_out_finish_on_lane_zero() {
        let inst = generate::uniform(500, 1e6, 5);
        let nl = NeighborLists::build(&inst, 8);
        let run = |lanes| {
            let cfg = ChainedLkConfig {
                seed: 3,
                tl_threshold: 0,
                ..Default::default()
            };
            let mut engine = ClkEngine::auto(&inst, &nl, cfg);
            engine.inner.lanes = Some(lanes);
            engine.run(&Budget::kicks(80)).tour
        };
        let want = run(1);
        let mut nested = vec![None; 3];
        tsp_core::fan_out(&mut nested, |_, slot| *slot = Some(run(3)));
        assert!(nested.into_iter().all(|tour| tour.as_ref() == Some(&want)));
    }

    /// The same for the full passes: lane 0 runs them alone, so no
    /// helper posts a result and none is refused.
    #[test]
    fn passes_inside_a_fan_out_finish_on_lane_zero() {
        let inst = generate::uniform(500, 1e6, 6);
        let nl = NeighborLists::build(&inst, 8);
        let optimize = |lanes| {
            let cfg = ChainedLkConfig {
                tl_threshold: 0,
                ..Default::default()
            };
            let mut engine = ClkEngine::auto(&inst, &nl, cfg);
            engine.inner.lanes = Some(lanes);
            let obs = Obs::for_node(0);
            engine.attach_obs(obs.clone());
            let mut tour = Tour::random(inst.len(), &mut SmallRng::seed_from_u64(4));
            engine.optimize_tour(&mut tour);
            (
                tour,
                pass_counts(&obs),
                obs.counter(kinds::C_PASS_REDONE).get(),
            )
        };
        let want = optimize(1);
        let mut nested = vec![None; 3];
        tsp_core::fan_out(&mut nested, |_, slot| *slot = Some(optimize(3)));
        assert!(nested.into_iter().all(|got| got.as_ref() == Some(&want)));
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
