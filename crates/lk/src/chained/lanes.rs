//! The kick loop of [`ChainedLk`]: chained iterations on one lane or on
//! several, tour for tour the same.
//!
//! A *step* is one chained iteration: kick the committed tour,
//! re-optimize around the kick, keep the result iff it is no worse. A
//! step's kick is drawn from the engine's RNG, and drawing never reads
//! the tour (`kick::draw_kick_cities`), so later steps can run before an
//! earlier one is decided:
//!
//! - A lane is one `tsp_core::fan_out` item with its own tour copy,
//!   `Optimizer` scratch and `LinKernighan`. Lane 0 works on the
//!   engine's own; every lane shares the engine's one `Spatial`.
//! - A lane claims the lowest step nobody is running. A step that is
//!   claimed for the first time draws its kick then, so draws happen
//!   once per step, in step order. The lane runs the step against the
//!   last committed tour it holds, notes the window of positions the
//!   step changed, and rolls the step back.
//! - Results retire strictly in step order, under one lock, by whichever
//!   lane finds them ready. A lane that finishes the oldest open step
//!   retires it at once and, if it is accepted, keeps it on its tour. An
//!   accepted step becomes the next committed tour: its window goes to
//!   every lane, and every later result, computed against the old tour,
//!   is thrown away and its step re-run with the same draws.
//! - Only retired steps are counted and reported, and the engine's RNG
//!   ends in the state after the last retired step's draw.
//!
//! So tours, lengths, kick counts, trace points and the search's work
//! counters are what one lane computes, and one lane alone is the plain
//! chained loop: claim, run, retire, in order. No lane ever waits for a
//! step that no running lane holds, so lane 0 finishes the loop alone
//! when a nested `fan_out` runs the lanes one after another.
//!
//! The full passes of `ChainedLk::optimize` run on the same lanes (the
//! same count, the same spare lanes) by another rule, in module
//! `passes`: lane 0 retires every anchor itself and keeps a helper's
//! probe only if every tour query the probe made still gets the same
//! answer on lane 0's tour. A version counter like this loop's
//! `stale_after` would refuse every result behind any commit.
//!
//! Rolling back: the logged tour keeps the original contents of the
//! array positions its flips touch, one window extended lazily, and a
//! rejected step copies them back instead of replaying its flips. A
//! window that would wrap position 0 or span more than n/2 positions
//! falls back to replaying the flip journal backwards, as the two-level
//! list always does.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use obs::Obs;
use rand::rngs::SmallRng;
use tsp_core::{fan_out, Instance, NeighborLists, Tour, TourOps, TourRep};

use super::{optimize_around, Probes};
use crate::kick::{apply_kick, draw_kick_cities, KickStrategy};
use crate::lin_kernighan::{LinKernighan, LkWork};
use crate::search::{two_opt_by_edges, Optimizer};

/// The lanes an engine above `tl_threshold` runs when the cores are
/// there: two, the count the measurements cover (EXPERIMENTS.md,
/// "Chained LK on lanes"). With ≈ 37 % of the steps accepted at 50k
/// cities, a third step in flight would go stale more often than not.
pub(super) const LANES: usize = 2;

/// The original contents of the array positions a step's flips have
/// touched so far: `orig[lo..hi]`, indexed by position.
#[derive(Default)]
pub(super) struct Window {
    orig: Vec<u32>,
    lo: usize,
    hi: usize,
    /// Whether the step's flips fit one unwrapped window of at most n/2
    /// positions; once they do not, the step rolls back by its journal.
    fits: bool,
}

impl Window {
    fn start(&mut self) {
        self.lo = 0;
        self.hi = 0;
        self.fits = true;
    }

    /// Cover positions `i .. i + len` of `tour` before a flip rewrites
    /// them; positions outside the window still hold their originals.
    fn cover(&mut self, tour: &Tour, i: usize, len: usize) {
        let n = tour.len();
        if !self.fits || len < 2 {
            return;
        }
        if i + len > n {
            self.fits = false;
            return;
        }
        if self.lo == self.hi {
            (self.lo, self.hi) = (i, i);
        }
        let (lo, hi) = (i.min(self.lo), (i + len).max(self.hi));
        if (hi - lo) * 2 > n {
            self.fits = false;
            return;
        }
        if self.orig.len() != n {
            self.orig.resize(n, 0);
        }
        let order = tour.order();
        self.orig[lo..self.lo].copy_from_slice(&order[lo..self.lo]);
        self.orig[self.hi..hi].copy_from_slice(&order[self.hi..hi]);
        (self.lo, self.hi) = (lo, hi);
    }
}

/// A tour that forwards every query and, on the array, counts the slots
/// each flip writes. While a step runs it also logs every flip:
/// `flip(b, c)` is recorded as `[prev(b), b, c, next(c)]`, the two edges
/// it removes, and the array's window takes the positions the flip is
/// about to rewrite. Replaying the log backwards as the 2-opt moves
/// that remove `(a, c)` and `(b, d)` — the edges each flip added —
/// restores the tour: each replayed move reverses the same cities its
/// flip did (ties included), so the array gets its positions back and
/// the two-level list its directed cycle.
pub(super) struct Journaled<'t, T> {
    tour: &'t mut T,
    log: Option<(&'t mut Vec<[u32; 4]>, &'t mut Window)>,
    moved: &'t mut u64,
}

impl<T: TourRep> TourOps for Journaled<'_, T> {
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
        if let Some((log, _)) = &mut self.log {
            let (a, d) = (self.tour.prev(b), self.tour.next(c));
            log.push([a as u32, b as u32, c as u32, d as u32]);
        }
        if let Some(t) = self.tour.as_array() {
            let (i, len) = t.reversal(t.position(b), t.position(c));
            if let Some((_, window)) = &mut self.log {
                window.cover(t, i, len);
            }
            *self.moved += (len & !1) as u64;
        }
        TourOps::flip(self.tour, b, c);
    }
}

/// What a step computed, before the accept rule.
pub(super) struct Outcome {
    /// Whether a kick was applied (tiny tours and degenerate kicks
    /// leave the tour as it is).
    kicked: bool,
    /// Length after the step.
    len: i64,
    /// Flips the step made.
    flips: u64,
    /// Duration (ns; 0 without observability).
    ns: u64,
    work: LkWork,
    or_probes: u64,
}

/// How an accepted step reaches the other lanes' tours, which are
/// identical arrays: the window's new contents, or the step's flips
/// replayed forward.
enum Payload {
    Window { lo: usize, cities: Vec<u32> },
    Flips(Vec<[u32; 2]>),
}

/// One lane: a tour at some committed version plus the search scratch
/// to run steps on it.
pub(super) struct Lane<'l, 'a, R> {
    pub(super) tour: &'l mut R,
    pub(super) opt: &'l mut Optimizer<'a>,
    pub(super) lk: &'l mut LinKernighan,
    pub(super) journal: Vec<[u32; 4]>,
    pub(super) window: Window,
    /// Accepted steps the tour holds.
    version: u64,
    /// Array slots written since the last flush.
    moved: u64,
}

impl<'l, 'a, R: TourRep> Lane<'l, 'a, R> {
    pub(super) fn new(
        tour: &'l mut R,
        opt: &'l mut Optimizer<'a>,
        lk: &'l mut LinKernighan,
        journal: Vec<[u32; 4]>,
        window: Window,
    ) -> Self {
        Lane {
            tour,
            opt,
            lk,
            journal,
            window,
            version: 0,
            moved: 0,
        }
    }

    /// Apply the drawn kick and re-optimize around it, logging every
    /// flip; the step stays on the tour.
    fn run(&mut self, obs: &Obs, drawn: Option<[usize; 4]>, base: i64) -> Outcome {
        let t = obs.timer();
        self.journal.clear();
        self.window.start();
        let mut logged = Journaled {
            tour: &mut *self.tour,
            log: Some((&mut self.journal, &mut self.window)),
            moved: &mut self.moved,
        };
        let kick = drawn.and_then(|d| apply_kick(self.opt, &mut logged, d));
        let len = match kick {
            Some(k) => base + k.delta - optimize_around(self.lk, self.opt, &mut logged, &k.cities),
            None => base,
        };
        debug_assert_eq!(len, self.tour.tour_length(self.opt.instance()));
        Outcome {
            kicked: kick.is_some(),
            len,
            flips: self.journal.len() as u64,
            ns: t.elapsed_ns(),
            work: self.lk.take_work(),
            or_probes: self.opt.take_or_probes(),
        }
    }

    /// Undo the step on the tour: copy the window back, or replay the
    /// journal backwards.
    pub(super) fn roll_back(&mut self) {
        if let (Some(t), true) = (self.tour.as_array_mut(), self.window.fits) {
            let (lo, hi) = (self.window.lo, self.window.hi);
            t.write_window(lo, &self.window.orig[lo..hi]);
            self.moved += (hi - lo) as u64;
            return;
        }
        let mut plain = Journaled {
            tour: &mut *self.tour,
            log: None,
            moved: &mut self.moved,
        };
        for &[a, b, c, d] in self.journal.iter().rev() {
            two_opt_by_edges(
                &mut plain,
                (a as usize, c as usize),
                (b as usize, d as usize),
            );
        }
    }

    /// The step on the tour, for the other lanes.
    fn payload(&self) -> Payload {
        match self.tour.as_array() {
            Some(t) if self.window.fits => Payload::Window {
                lo: self.window.lo,
                cities: t.order()[self.window.lo..self.window.hi].to_vec(),
            },
            _ => Payload::Flips(self.journal.iter().map(|&[_, b, c, _]| [b, c]).collect()),
        }
    }

    /// Put another lane's accepted step on this lane's tour.
    fn apply(&mut self, payload: &Payload) {
        match payload {
            Payload::Window { lo, cities } => {
                let t = self
                    .tour
                    .as_array_mut()
                    .expect("a window payload comes from an array");
                t.write_window(*lo, cities);
                self.moved += cities.len() as u64;
            }
            Payload::Flips(flips) => {
                let mut plain = Journaled {
                    tour: &mut *self.tour,
                    log: None,
                    moved: &mut self.moved,
                };
                for &[b, c] in flips {
                    plain.flip(b as usize, c as usize);
                }
            }
        }
    }
}

/// A drawn step that has not retired yet.
struct Slot {
    drawn: Option<[usize; 4]>,
    /// The engine's RNG right after this step's draw.
    rng_after: SmallRng,
    state: State,
}

enum State {
    /// Drawn; nobody is running it (new, or its result went stale).
    Free,
    Running,
    /// Computed against the current committed tour; the payload is
    /// there iff the step is accepted.
    Done(Outcome, Option<Payload>),
}

/// The committer's state, behind the loop's lock.
struct Line<'s, S: ?Sized, K: ?Sized> {
    /// Draws the next new step.
    rng: SmallRng,
    /// The RNG after the last retired step's draw.
    committed_rng: SmallRng,
    /// Steps `retired ..`, in step order.
    slots: VecDeque<Slot>,
    retired: u64,
    /// Length of the committed tour.
    len: i64,
    /// Accepted steps so far: the committed tour's version.
    version: u64,
    /// Accepted steps some lane has yet to apply, by version.
    log: VecDeque<(u64, Payload)>,
    lane_versions: Vec<u64>,
    done: bool,
    discarded: u64,
    /// Whether the run ends before step `kicks` on a tour of length `len`.
    stop: &'s mut S,
    /// Hand over an improved committed tour: `(kicks, len, tour)`.
    report: &'s mut K,
}

/// What every lane reads and nobody changes.
struct Ctx<'s, 'a> {
    strategy: KickStrategy,
    inst: &'a Instance,
    neighbors: &'a NeighborLists,
    n: usize,
    probes: &'s Probes,
    obs: &'s Obs,
    lanes: usize,
    /// Most drawn, unretired steps at a time: two per lane, so a lane
    /// that finished a step ahead of an earlier, unfinished one takes
    /// another instead of waiting.
    depth: usize,
    wake: Condvar,
    /// The committed tour's version, for steps running ahead of their
    /// turn to notice that they went stale (`Optimizer::stale_after`).
    /// Read and written `Relaxed`: it publishes no other data, and
    /// whether a result is stale is decided under the lock.
    version: Arc<AtomicU64>,
}

/// Why a kick loop stops and where its improvements go; see
/// [`Line::stop`] and [`Line::report`]. On several lanes they run on
/// whichever lane's thread retires a step, hence the `Send` pair.
pub(super) type Stop<'s> = dyn FnMut(u64, i64) -> bool + 's;
pub(super) type Report<'s> = dyn FnMut(u64, i64, &dyn Fn() -> Tour) + 's;
pub(super) type SendStop<'s> = dyn FnMut(u64, i64) -> bool + Send + 's;
pub(super) type SendReport<'s> = dyn FnMut(u64, i64, &dyn Fn() -> Tour) + Send + 's;

/// The engine's parts a kick loop reads.
pub(super) struct Engine<'s> {
    pub(super) strategy: KickStrategy,
    pub(super) probes: &'s Probes,
    pub(super) obs: &'s Obs,
}

/// Run chained iterations on `lanes` (lane 0 holds the committed tour of
/// length `len` and ends with the final one) from the RNG `rng` until
/// `stop` says so. Returns the steps retired and the final length, and
/// leaves `rng` in the state after the last retired step's draw.
pub(super) fn kick_loop<R: TourRep + Send>(
    engine: Engine<'_>,
    lanes: &mut [Lane<'_, '_, R>],
    rng: &mut SmallRng,
    len: i64,
    stop: &mut SendStop<'_>,
    report: &mut SendReport<'_>,
) -> (u64, i64) {
    let (line, ctx) = line(engine, &*lanes[0].opt, lanes.len(), rng, len, stop, report);
    fan_out(lanes, |id, lane| lane_loop(lane, id, &ctx, &line));
    finish(line, &ctx, &mut lanes[0], rng)
}

/// [`kick_loop`] on one lane, on this thread: closures need not be
/// `Send`.
pub(super) fn kick_loop_alone<R: TourRep>(
    engine: Engine<'_>,
    lane: &mut Lane<'_, '_, R>,
    rng: &mut SmallRng,
    len: i64,
    stop: &mut Stop<'_>,
    report: &mut Report<'_>,
) -> (u64, i64) {
    let (line, ctx) = line(engine, &*lane.opt, 1, rng, len, stop, report);
    lane_loop(lane, 0, &ctx, &line);
    finish(line, &ctx, lane, rng)
}

#[allow(clippy::type_complexity)]
fn line<'s, 'a, S: ?Sized, K: ?Sized>(
    engine: Engine<'s>,
    opt: &Optimizer<'a>,
    lanes: usize,
    rng: &SmallRng,
    len: i64,
    stop: &'s mut S,
    report: &'s mut K,
) -> (Mutex<Line<'s, S, K>>, Ctx<'s, 'a>) {
    let (inst, neighbors) = opt.caller();
    let line = Line {
        rng: rng.clone(),
        committed_rng: rng.clone(),
        slots: VecDeque::new(),
        retired: 0,
        len,
        version: 0,
        log: VecDeque::new(),
        lane_versions: vec![0; lanes],
        done: false,
        discarded: 0,
        stop,
        report,
    };
    let ctx = Ctx {
        strategy: engine.strategy,
        inst,
        neighbors,
        n: inst.len(),
        probes: engine.probes,
        obs: engine.obs,
        lanes,
        depth: 2 * lanes,
        wake: Condvar::new(),
        version: Arc::new(AtomicU64::new(0)),
    };
    (Mutex::new(line), ctx)
}

/// Bring lane 0 to the final tour, flush the counters, hand back the RNG.
fn finish<R: TourRep, S: ?Sized, K: ?Sized>(
    line: Mutex<Line<'_, S, K>>,
    ctx: &Ctx<'_, '_>,
    lane0: &mut Lane<'_, '_, R>,
    rng: &mut SmallRng,
) -> (u64, i64) {
    let mut st = line.into_inner().expect("kick loop lock");
    sync(lane0, 0, &mut st);
    let computed = st
        .slots
        .iter()
        .filter(|s| matches!(s.state, State::Done(..)));
    let discarded = st.discarded + computed.count() as u64;
    ctx.probes.c_discarded.add(discarded);
    *rng = st.committed_rng;
    (st.retired, st.len)
}

fn lane_loop<R, S, K>(
    lane: &mut Lane<'_, '_, R>,
    id: usize,
    ctx: &Ctx<'_, '_>,
    line: &Mutex<Line<'_, S, K>>,
) where
    R: TourRep,
    S: FnMut(u64, i64) -> bool + ?Sized,
    K: FnMut(u64, i64, &dyn Fn() -> Tour) + ?Sized,
{
    let _end = EndOnPanic(line, &ctx.wake);
    let mut st = line.lock().expect("kick loop lock");
    loop {
        retire_ready(lane, id, ctx, &mut st);
        sync(lane, id, &mut st);
        if st.done {
            break;
        }
        // The lowest step nobody runs, drawing a new one if there is room.
        let free = st.slots.iter().position(|s| matches!(s.state, State::Free));
        let Some(idx) = free.or((st.slots.len() < ctx.depth).then_some(st.slots.len())) else {
            st = ctx.wake.wait(st).expect("kick loop lock");
            continue;
        };
        let step = st.retired + idx as u64;
        let base = st.len;
        if (st.stop)(step, base) {
            if idx == 0 {
                // Nothing runs before it: the loop ends here.
                st.done = true;
                ctx.wake.notify_all();
                break;
            }
            st = ctx.wake.wait(st).expect("kick loop lock");
            continue;
        }
        if idx == st.slots.len() {
            let drawn = draw_kick_cities(ctx.strategy, ctx.inst, ctx.neighbors, ctx.n, &mut st.rng);
            let rng_after = st.rng.clone();
            st.slots.push_back(Slot {
                drawn,
                rng_after,
                state: State::Free,
            });
        }
        st.slots[idx].state = State::Running;
        let (drawn, version) = (st.slots[idx].drawn, st.version);
        // Only a step behind another one can go stale.
        lane.opt.stale_after = (idx > 0).then(|| (Arc::clone(&ctx.version), version));
        drop(st);
        let out = lane.run(ctx.obs, drawn, base);
        st = line.lock().expect("kick loop lock");
        let idx = (step - st.retired) as usize;
        let accepted = out.kicked && out.len <= base;
        if version != st.version {
            // An earlier step changed the tour under this one.
            lane.roll_back();
            st.slots[idx].state = State::Free;
            st.discarded += 1;
        } else if idx == 0 {
            let slot = st.slots.pop_front().expect("the running step's slot");
            if accepted {
                // Keep the step where it is: it is the committed tour.
                let payload = (ctx.lanes > 1).then(|| lane.payload());
                commit(lane, id, ctx, &mut st, slot.rng_after, out, payload, true);
            } else {
                lane.roll_back();
                retire(ctx, &mut st, slot.rng_after, &out);
            }
        } else {
            let payload = accepted.then(|| lane.payload());
            lane.roll_back();
            st.slots[idx].state = State::Done(out, payload);
        }
        ctx.probes.c_moved.add(std::mem::take(&mut lane.moved));
        if ctx.lanes > 1 {
            ctx.wake.notify_all();
        }
    }
    ctx.probes.c_moved.add(std::mem::take(&mut lane.moved));
    lane.opt.stale_after = None;
}

/// Ends the loop for every lane when the lane holding it unwinds, so
/// that no lane waits for a step the unwinding one will never finish;
/// `fan_out` then re-raises the panic.
struct EndOnPanic<'x, 's, S: ?Sized, K: ?Sized>(&'x Mutex<Line<'s, S, K>>, &'x Condvar);

impl<S: ?Sized, K: ?Sized> Drop for EndOnPanic<'_, '_, S, K> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            st.done = true;
            drop(st);
            self.1.notify_all();
        }
    }
}

/// Retire the results waiting at the front, in step order.
fn retire_ready<R, S, K>(
    lane: &mut Lane<'_, '_, R>,
    id: usize,
    ctx: &Ctx<'_, '_>,
    st: &mut Line<'_, S, K>,
) where
    R: TourRep,
    S: ?Sized,
    K: FnMut(u64, i64, &dyn Fn() -> Tour) + ?Sized,
{
    while matches!(
        st.slots.front(),
        Some(Slot {
            state: State::Done(..),
            ..
        })
    ) {
        let slot = st.slots.pop_front().expect("a front slot");
        let State::Done(out, payload) = slot.state else {
            unreachable!("checked above")
        };
        if payload.is_some() {
            commit(lane, id, ctx, st, slot.rng_after, out, payload, false);
        } else {
            retire(ctx, st, slot.rng_after, &out);
        }
    }
}

/// Retire an accepted step: it becomes the committed tour. `in_place`
/// says the step is on `lane`'s tour already (run there, not rolled
/// back); `payload` carries it to the lanes that lack it.
#[allow(clippy::too_many_arguments)] // the step, where it is, and where it goes
fn commit<R, S, K>(
    lane: &mut Lane<'_, '_, R>,
    id: usize,
    ctx: &Ctx<'_, '_>,
    st: &mut Line<'_, S, K>,
    rng_after: SmallRng,
    out: Outcome,
    payload: Option<Payload>,
    in_place: bool,
) where
    R: TourRep,
    S: ?Sized,
    K: FnMut(u64, i64, &dyn Fn() -> Tour) + ?Sized,
{
    let improved = out.len < st.len;
    retire(ctx, st, rng_after, &out);
    st.version += 1;
    ctx.version.store(st.version, Ordering::Relaxed);
    if let Some(p) = payload {
        st.log.push_back((st.version, p));
    }
    if in_place {
        lane.version = st.version;
        st.lane_versions[id] = st.version;
    }
    // Everything computed after it ran against the old tour.
    for slot in st.slots.iter_mut() {
        if matches!(slot.state, State::Done(..)) {
            slot.state = State::Free;
            st.discarded += 1;
        }
    }
    if improved {
        sync(lane, id, st);
        let (tour, opt) = (&*lane.tour, &*lane.opt);
        (st.report)(st.retired, st.len, &|| opt.tour_out(tour));
    }
}

/// Count a step as done: the search's work, the kick, the length.
fn retire<S: ?Sized, K: ?Sized>(
    ctx: &Ctx<'_, '_>,
    st: &mut Line<'_, S, K>,
    rng_after: SmallRng,
    out: &Outcome,
) {
    st.retired += 1;
    st.committed_rng = rng_after;
    if !out.kicked {
        return;
    }
    let p = ctx.probes;
    p.c_kicks.incr();
    p.c_lk_anchors.add(out.work.anchors);
    p.c_lk_probes.add(out.work.probes);
    p.c_lk_steps.add(out.work.steps);
    p.c_or_probes.add(out.or_probes);
    p.c_flips.add(out.flips);
    p.h_step_flips.observe(out.flips);
    p.h_step_ns.observe(out.ns);
    if out.len <= st.len {
        p.c_accepts.incr();
        st.len = out.len;
    }
}

/// Apply the accepted steps the lane's tour lacks, and drop what every
/// lane has.
fn sync<R: TourRep, S: ?Sized, K: ?Sized>(
    lane: &mut Lane<'_, '_, R>,
    id: usize,
    st: &mut Line<'_, S, K>,
) {
    if lane.version == st.version {
        return;
    }
    for (v, payload) in &st.log {
        if *v > lane.version {
            lane.apply(payload);
        }
    }
    lane.version = st.version;
    st.lane_versions[id] = st.version;
    let oldest = st.lane_versions.iter().copied().min().unwrap_or(0);
    while st.log.front().is_some_and(|(v, _)| *v <= oldest) {
        st.log.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lin_kernighan::LkConfig;
    use rand::SeedableRng;
    use tsp_core::generate;

    /// Run random kicks plus `optimize_around` on two lanes in lockstep
    /// from one tour: `window` rolls back as the loop does, `journal` is
    /// made to replay its flips. A rolled-back step must leave both
    /// arrays exactly as they were; a kept one stays on both.
    fn rollbacks_agree(
        inst: &Instance,
        nl: &NeighborLists,
        spatial: bool,
        steps: usize,
    ) -> (u32, u32) {
        let n = inst.len();
        let make = || {
            if spatial {
                Optimizer::spatial(inst, nl)
            } else {
                Optimizer::new(inst, nl)
            }
        };
        let (mut opt_a, mut opt_b) = (make(), make());
        let (mut lk_a, mut lk_b) = (
            LinKernighan::new(LkConfig::default()),
            LinKernighan::new(LkConfig::default()),
        );
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let start: Tour = opt_a.rep_in(&Tour::random(n, &mut rng));
        let (mut ta, mut tb) = (start.clone(), start);
        let mut window = Lane::new(
            &mut ta,
            &mut opt_a,
            &mut lk_a,
            Vec::new(),
            Window::default(),
        );
        let mut journal = Lane::new(
            &mut tb,
            &mut opt_b,
            &mut lk_b,
            Vec::new(),
            Window::default(),
        );
        let obs = Obs::disabled();
        let (mut windows, mut replays) = (0, 0);
        for step in 0..steps {
            let before = window.tour.clone();
            let base = before.length(window.opt.instance());
            let drawn = draw_kick_cities(KickStrategy::Random, inst, nl, n, &mut rng);
            let a = window.run(&obs, drawn, base);
            let b = journal.run(&obs, drawn, base);
            assert_eq!((a.len, a.flips), (b.len, b.flips), "n={n} step {step}");
            assert_eq!(a.flips, window.journal.len() as u64);
            assert_eq!(*window.tour, *journal.tour, "n={n} step {step}");
            // Keep every other accepted step; roll the rest back, so the
            // tiny tours, where almost every step is accepted, roll back
            // too.
            if a.kicked && a.len <= base && step % 2 == 0 {
                continue;
            }
            if window.window.fits {
                windows += 1;
            } else {
                replays += 1;
            }
            window.roll_back();
            journal.window.fits = false;
            journal.roll_back();
            assert_eq!(*window.tour, before, "window, n={n} step {step}");
            assert_eq!(*journal.tour, before, "journal, n={n} step {step}");
        }
        (windows, replays)
    }

    #[test]
    fn window_rollback_equals_journal_replay() {
        for n in [8usize, 9, 64, 2000] {
            let inst = generate::uniform(n, 1e6, 90 + n as u64);
            let nl = NeighborLists::build(&inst, 7.min(n - 1));
            for spatial in [false, true] {
                let (windows, replays) = rollbacks_agree(&inst, &nl, spatial, 60);
                assert!(windows + replays > 10, "n={n}: {windows} + {replays}");
                if n == 2000 {
                    assert!(windows > 0, "n={n} spatial={spatial}: no window rollback");
                }
            }
        }
    }

    /// The two fallbacks, forced: a flip that wraps position 0, and two
    /// flips whose window would span more than n/2 positions.
    #[test]
    fn wrapped_and_wide_windows_fall_back_to_the_journal() {
        let n = 64;
        let inst = generate::uniform(n, 1e6, 91);
        let nl = NeighborLists::build(&inst, 7);
        let mut opt = Optimizer::new(&inst, &nl);
        let mut lk = LinKernighan::new(LkConfig::default());
        let mut tour = Tour::identity(n);
        let mut lane = Lane::new(&mut tour, &mut opt, &mut lk, Vec::new(), Window::default());
        for flips in [
            vec![(60usize, 3usize)],
            vec![(2, 10), (40, 50)],
            vec![(20, 24), (26, 30)],
        ] {
            let before = lane.tour.clone();
            lane.journal.clear();
            lane.window.start();
            let mut logged = Journaled {
                tour: &mut *lane.tour,
                log: Some((&mut lane.journal, &mut lane.window)),
                moved: &mut lane.moved,
            };
            for &(b, c) in &flips {
                logged.flip(b, c);
            }
            // Only the two nearby flips fit one window.
            assert_eq!(lane.window.fits, flips[0] == (20, 24), "{flips:?}");
            assert_ne!(*lane.tour, before);
            lane.roll_back();
            assert_eq!(*lane.tour, before, "{flips:?}");
        }
    }
}
