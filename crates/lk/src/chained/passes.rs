//! The full passes of [`ChainedLk::optimize`](super::ChainedLk::optimize)
//! on lanes: a helper lane probes the anchors the committing lane will
//! pop next, on a replica of the tour, and the committing lane keeps a
//! helper's result only while every tour query the probe made still
//! gets the same answer.
//!
//! A pass pops anchors from the active queue; each anchor is a *probe*,
//! which only reads the tour (LK on its virtual path, Or-opt's
//! evaluation), and, when the probe gains, a *commit*, which flips the
//! tour and wakes cities. On lanes:
//!
//! - Lane 0 runs the serial loop and is the one retirement order: pop an
//!   anchor, take a helper's validated result for it or probe now, then
//!   commit or set the don't-look bit. Queue order, don't-look bits,
//!   tours, lengths and work counters are those of one lane.
//! - A helper lane holds a replica of the array tour and of lane 0's
//!   queue, kept current by replaying lane 0's retirements in order. It
//!   claims a pop between [`LEAD`] (more while lane 0 keeps overtaking
//!   it) and [`AHEAD`] pops ahead of lane 0's, reads that pop's anchor
//!   off its replica queue (commits only append to a queue, so the
//!   anchors queued now are popped in that order), probes it through
//!   [`Recorded`] and posts `(anchor, outcome, the queries it made with
//!   their answers)`.
//! - Lane 0 uses a posted result only if every recorded `index`, `next`
//!   and `prev` (a `between` is recorded as its three `index` queries)
//!   answers the same on its own tour; otherwise it
//!   probes the anchor itself (`clk.pass.redone`). The check is exact: a
//!   probe's control flow depends only on those answers and on static
//!   data (distances, candidate lists, the LK configuration), so equal
//!   answers make the probe lane 0 would run take every decision the
//!   helper's took. A version counter (the kick loop's `stale_after`)
//!   would instead refuse every result behind any commit, about half of
//!   them at a lead of 8 when a tenth of the anchors commit.
//!
//! Lane 0 waits for no one: a pop whose result is not posted yet it
//! probes itself, and the helper's claim lapses. So when a nested
//! `fan_out` runs the lanes one after another, lane 0 finishes the pass
//! alone and the helpers find it done.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use tsp_core::{fan_out, Tour, TourOps};

use crate::lin_kernighan::LinKernighan;
use crate::or_opt::{self, OrMove};
use crate::search::Optimizer;

/// Nearest pop ahead of lane 0's that a helper claims: the pop right
/// after lane 0's is left to lane 0, which will get there before a probe
/// started now is done.
const LEAD: u64 = 2;

/// Farthest pop ahead of lane 0's that a helper claims. At 50k cities an
/// anchor probed 8 pops early read a city an earlier commit moved in
/// 1.9 % of cases, 64 pops early in 5.8 % (EXPERIMENTS.md, "First
/// optimization on lanes").
const AHEAD: u64 = 16;

/// A tour that forwards every query and counts the flips.
pub(super) struct Counted<'t, T> {
    pub(super) tour: &'t mut T,
    pub(super) flips: u64,
}

impl<T: TourOps> TourOps for Counted<'_, T> {
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
        self.flips += 1;
        self.tour.flip(b, c);
    }
}

/// One tour query a probe made and its answer, in a word: the city, the
/// kind (`index`, `next` or `prev`) and the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Query(u64);

impl Query {
    const INDEX: u64 = 0;
    const NEXT: u64 = 1;
    const PREV: u64 = 2;

    #[inline(always)]
    fn new(kind: u64, c: usize, answer: usize) -> Query {
        Query((c as u64) << 34 | kind << 32 | answer as u64)
    }

    /// Whether `tour` gives the recorded answer.
    #[inline]
    fn holds(self, tour: &Tour) -> bool {
        let c = (self.0 >> 34) as usize;
        let answer = self.0 as u32 as usize;
        match self.0 >> 32 & 3 {
            Query::INDEX => tour.position(c) == answer,
            Query::NEXT => tour.next(c) == answer,
            _ => tour.prev(c) == answer,
        }
    }
}

/// A read-only view of an array tour that records every query it
/// answers in `noted`: a query repeating the one before once, a
/// `between` as the three `index` queries it stands for. Past the end of
/// `noted` only the count grows, and such a probe is not posted. Only
/// helper lanes probe through it; a flip is a bug.
pub(super) struct Recorded<'t> {
    tour: &'t Tour,
    noted: &'t [Cell<Query>],
    count: Cell<usize>,
}

impl Recorded<'_> {
    #[inline(always)]
    fn note(&self, q: Query) {
        let i = self.count.get();
        if i > 0 && self.noted.get(i - 1).is_some_and(|last| last.get() == q) {
            return;
        }
        if let Some(slot) = self.noted.get(i) {
            slot.set(q);
        }
        self.count.set(i + 1);
    }
}

impl TourOps for Recorded<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.tour.len()
    }

    #[inline(always)]
    fn next(&self, c: usize) -> usize {
        let d = self.tour.next(c);
        self.note(Query::new(Query::NEXT, c, d));
        d
    }

    #[inline(always)]
    fn prev(&self, c: usize) -> usize {
        let d = self.tour.prev(c);
        self.note(Query::new(Query::PREV, c, d));
        d
    }

    /// On the array, `between` is a function of the three cities'
    /// indices: those are the queries to record.
    #[inline(always)]
    fn between(&self, a: usize, b: usize, c: usize) -> bool {
        for x in [a, b, c] {
            self.index(x);
        }
        self.tour.between(a, b, c)
    }

    #[inline(always)]
    fn index(&self, c: usize) -> usize {
        let i = self.tour.position(c);
        self.note(Query::new(Query::INDEX, c, i));
        i
    }

    fn flip(&mut self, _: usize, _: usize) {
        unreachable!("a probe never flips the tour");
    }
}

/// One kind of full pass, split so that a probe can run on another lane:
/// a probe reads the tour and writes its move to a buffer, a commit
/// applies such a move. Both take the lane's LK searcher, which the
/// Or-opt pass does not use.
pub(super) trait Sweep: Copy + Send + Sync {
    /// Count an anchor taken off the queue.
    fn count_anchor(self, _: &mut LinKernighan) {}

    /// Probe from `t1` without changing the tour, `opt` or the work
    /// counters. Returns the gain, with the move in `mv`, or 0; and the
    /// probes made.
    fn probe<T: TourOps, const SPATIAL: bool>(
        self,
        lk: &mut LinKernighan,
        opt: &Optimizer<'_>,
        tour: &T,
        t1: usize,
        mv: &mut Vec<u32>,
    ) -> (i64, u64);

    /// Apply a move a probe from `t1` found and wake its cities.
    fn commit<T: TourOps>(
        self,
        lk: &mut LinKernighan,
        opt: &mut Optimizer<'_>,
        tour: &mut T,
        t1: usize,
        mv: &[u32],
    );

    /// Count probes made for this pass.
    fn credit(self, lk: &mut LinKernighan, opt: &mut Optimizer<'_>, probes: u64);
}

/// LK's pass: a move is its chain's steps `(c, v, last)`, flattened.
#[derive(Clone, Copy)]
pub(super) struct LkPass;

impl Sweep for LkPass {
    fn count_anchor(self, lk: &mut LinKernighan) {
        lk.count_anchor();
    }

    fn probe<T: TourOps, const SPATIAL: bool>(
        self,
        lk: &mut LinKernighan,
        opt: &Optimizer<'_>,
        tour: &T,
        t1: usize,
        mv: &mut Vec<u32>,
    ) -> (i64, u64) {
        let kept = lk.take_probes();
        let gain = lk.probe::<T, SPATIAL>(opt, tour, t1);
        let probes = lk.take_probes();
        lk.add_probes(kept);
        mv.clear();
        if gain > 0 {
            for &(c, v, last) in lk.found() {
                mv.extend([c as u32, v as u32, last as u32]);
            }
        }
        (gain, probes)
    }

    fn commit<T: TourOps>(
        self,
        lk: &mut LinKernighan,
        opt: &mut Optimizer<'_>,
        tour: &mut T,
        t1: usize,
        mv: &[u32],
    ) {
        lk.commit_words(opt, tour, t1, mv);
    }

    fn credit(self, lk: &mut LinKernighan, _: &mut Optimizer<'_>, probes: u64) {
        lk.add_probes(probes);
    }
}

/// Or-opt's pass: a move is an [`OrMove`] as seven words.
#[derive(Clone, Copy)]
pub(super) struct OrPass;

impl Sweep for OrPass {
    fn probe<T: TourOps, const SPATIAL: bool>(
        self,
        _: &mut LinKernighan,
        opt: &Optimizer<'_>,
        tour: &T,
        t1: usize,
        mv: &mut Vec<u32>,
    ) -> (i64, u64) {
        let mut probes = 0;
        let found = or_opt::probe::<T, SPATIAL>(opt, tour, t1, &mut probes);
        mv.clear();
        let Some((gain, m)) = found else {
            return (0, probes);
        };
        mv.extend([m.s, m.e, m.p, m.q, m.c, m.d].map(|c| c as u32));
        mv.push(u32::from(m.reversed));
        (gain, probes)
    }

    fn commit<T: TourOps>(
        self,
        _: &mut LinKernighan,
        opt: &mut Optimizer<'_>,
        tour: &mut T,
        _: usize,
        mv: &[u32],
    ) {
        let [s, e, p, q, c, d, reversed] =
            <[u32; 7]>::try_from(mv).expect("an Or-opt move is seven words");
        let [s, e, p, q, c, d] = [s, e, p, q, c, d].map(|c| c as usize);
        let reversed = reversed != 0;
        or_opt::apply(
            opt,
            tour,
            &OrMove {
                s,
                e,
                p,
                q,
                c,
                d,
                reversed,
            },
        );
    }

    fn credit(self, _: &mut LinKernighan, opt: &mut Optimizer<'_>, probes: u64) {
        opt.or_probes += probes;
    }
}

/// A helper lane's own state: the replica tour, queue and search, kept
/// by the engine between passes and lent to the kick loop as its spare
/// lane.
pub(super) type Spare<'a> = (Tour, Optimizer<'a>, LinKernighan);

/// A probe a helper posted for one pop.
#[derive(Default)]
struct Posted {
    t1: u32,
    gain: i64,
    probes: u64,
    mv: Vec<u32>,
    /// The queries the probe made, with their answers.
    queries: Vec<Query>,
}

impl Posted {
    /// Whether a probe from `t1` on `tour` reads what this one read.
    fn holds(&self, t1: usize, tour: &Tour) -> bool {
        self.t1 as usize == t1 && self.queries.iter().all(|q| q.holds(tour))
    }
}

/// Claim states of a pop `j`, stored as `(j + 1) << 2 | state` in the
/// pop's slot; a slot holding another pop is open for `j`.
const RUNNING: u64 = 1;
const POSTED: u64 = 2;
const LANE0: u64 = 3;

/// Pop slots: pops `j` and `j + RING` share one. Helpers claim only pops
/// less than [`AHEAD`] past lane 0's, so a slot is reused only once lane
/// 0 is done with its earlier pop.
const RING: usize = 2 * AHEAD as usize;

/// Words of retirements lane 0 collects before it hands them over when
/// none of them committed: pops and don't-look bits only keep the
/// replica queue in step, the tour waits for nothing.
const BATCH: usize = 64;

/// Queries a helper's probe may note; a probe that makes more is not
/// posted.
const NOTED: usize = 1 << 12;

/// What the lanes of one pass share. Lane 0 writes the retirement count
/// and the logs, a helper a pop's claim and result; a helper with nothing
/// to claim spins on the retirement count.
///
/// Orderings: a helper stores a result under its slot's lock, then
/// publishes it with a `Release` exchange of the slot's state that lane
/// 0's `Acquire` load pairs with; `retired`, `handed` and `done` are
/// stored `Release` after what they announce and loaded `Acquire`.
struct Shared {
    /// Pops lane 0 has retired: it is at pop `retired`.
    retired: AtomicU64,
    /// Lane 0 is done, or a lane unwound.
    done: AtomicBool,
    /// Per pop slot, the claim state of its latest pop.
    states: Vec<AtomicU64>,
    results: Vec<Mutex<Posted>>,
    /// Per helper, the retirements it has not replayed yet, each as
    /// `[t1, words, move…]` (no words: no commit).
    logs: Vec<Mutex<Vec<u32>>>,
    /// Retirements handed over to the logs so far.
    handed: AtomicU64,
}

/// Every update under these locks is one swap or one append, so the data
/// is valid whenever a lane unwinds: take it over from a poisoned lock.
fn lock<X>(m: &Mutex<X>) -> MutexGuard<'_, X> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spin until `ready` holds; let the core go now and then in case the
/// lane we wait for is not running.
fn spin_until(mut ready: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(1024) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Ends the pass for everyone when the lane holding it unwinds, so no
/// helper waits for a lane 0 that will never move again; `fan_out` then
/// re-raises the panic.
struct EndOnPanic<'x>(&'x Shared);

impl Drop for EndOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.done.store(true, Ordering::Release);
        }
    }
}

/// One lane's part in a pass: lane 0's own state, or a spare.
enum Role<'x, 'a> {
    Lead {
        lk: &'x mut LinKernighan,
        opt: &'x mut Optimizer<'a>,
        tour: &'x mut Tour,
        /// Gain, flips, refused results.
        out: (i64, u64, u64),
    },
    Help(&'x mut Spare<'a>),
}

/// Run one pass of `sweep` over lane 0's queue on lane 0 plus one helper
/// per spare. Returns the gain and the posted results lane 0 refused.
pub(super) fn sweep_on_lanes<'a, S: Sweep>(
    sweep: S,
    lk: &mut LinKernighan,
    opt: &mut Optimizer<'a>,
    tour: &mut Counted<'_, Tour>,
    spares: &mut [Spare<'a>],
) -> (i64, u64) {
    // Each helper starts from lane 0's tour and queue as they are now.
    for (t, o, _) in spares.iter_mut() {
        t.clone_from(tour.tour);
        o.copy_queue(opt);
    }
    let shared = Shared {
        retired: AtomicU64::new(0),
        done: AtomicBool::new(false),
        states: (0..RING).map(|_| AtomicU64::new(0)).collect(),
        results: (0..RING).map(|_| Mutex::default()).collect(),
        logs: spares.iter().map(|_| Mutex::default()).collect(),
        handed: AtomicU64::new(0),
    };
    let spatial = opt.is_spatial();
    let mut roles = vec![Role::Lead {
        lk,
        opt,
        tour: &mut *tour.tour,
        out: (0, 0, 0),
    }];
    roles.extend(spares.iter_mut().map(Role::Help));
    fan_out(&mut roles, |id, role| {
        let _end = EndOnPanic(&shared);
        match (role, spatial) {
            (Role::Lead { lk, opt, tour, out }, false) => {
                *out = lead::<S, false>(sweep, lk, opt, tour, &shared)
            }
            (Role::Lead { lk, opt, tour, out }, true) => {
                *out = lead::<S, true>(sweep, lk, opt, tour, &shared)
            }
            (Role::Help(spare), false) => help::<S, false>(sweep, spare, id - 1, &shared),
            (Role::Help(spare), true) => help::<S, true>(sweep, spare, id - 1, &shared),
        }
    });
    let Role::Lead {
        out: (gain, flips, redone),
        ..
    } = roles[0]
    else {
        unreachable!("role 0 leads")
    };
    tour.flips += flips;
    (gain, redone)
}

/// Lane 0: the serial pass, taking helpers' results where they hold.
/// Returns the gain, the flips and the refused results.
fn lead<S: Sweep, const SPATIAL: bool>(
    sweep: S,
    lk: &mut LinKernighan,
    opt: &mut Optimizer<'_>,
    tour: &mut Tour,
    shared: &Shared,
) -> (i64, u64, u64) {
    let mut tour = Counted { tour, flips: 0 };
    let (mut total, mut redone) = (0i64, 0u64);
    let (mut mv, mut pending) = (Vec::new(), Vec::new());
    // Lane 0's result buffer, swapped with a posted one to read it.
    let mut posted = Posted::default();
    let mut j = 0u64;
    while let Some(t1) = opt.pop_active() {
        sweep.count_anchor(lk);
        let slot = j as usize % RING;
        let state = &shared.states[slot];
        let mine = (j + 1) << 2;
        // Take the pop for lane 0 unless a helper posted it: lane 0 waits
        // for no one, and a helper still probing it loses its claim.
        let from_helper = loop {
            let v = state.load(Ordering::Acquire);
            if v == mine | POSTED {
                std::mem::swap(&mut posted, &mut *lock(&shared.results[slot]));
                break true;
            }
            if state
                .compare_exchange(v, mine | LANE0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break false;
            }
        };
        let gain = if from_helper && posted.holds(t1, tour.tour) {
            sweep.credit(lk, opt, posted.probes);
            mv.clone_from(&posted.mv);
            posted.gain
        } else {
            redone += u64::from(from_helper);
            let (gain, probes) = sweep.probe::<Tour, SPATIAL>(lk, opt, tour.tour, t1, &mut mv);
            sweep.credit(lk, opt, probes);
            gain
        };
        let words = if gain > 0 { mv.len() } else { 0 };
        if gain > 0 {
            sweep.commit(lk, opt, &mut tour, t1, &mv);
            total += gain;
        } else {
            opt.set_dont_look(t1);
        }
        pending.extend([t1 as u32, words as u32]);
        pending.extend_from_slice(&mv[..words]);
        j += 1;
        if words > 0 || pending.len() >= BATCH {
            hand_over(shared, &mut pending, j);
        }
        shared.retired.store(j, Ordering::Release);
    }
    hand_over(shared, &mut pending, j);
    shared.done.store(true, Ordering::Release);
    (total, tour.flips, redone)
}

/// Append lane 0's `pending` retirements, the last of them pop
/// `retired − 1`, to every helper's log.
fn hand_over(shared: &Shared, pending: &mut Vec<u32>, retired: u64) {
    for log in &shared.logs {
        lock(log).extend_from_slice(pending);
    }
    pending.clear();
    shared.handed.store(retired, Ordering::Release);
}

/// A helper: replay lane 0's retirements, claim a pop ahead, probe its
/// anchor on the replica, post.
fn help<S: Sweep, const SPATIAL: bool>(
    sweep: S,
    (tour, opt, lk): &mut Spare<'_>,
    id: usize,
    shared: &Shared,
) {
    let mut log = Vec::new();
    // Retirements replayed: the replica queue's front is pop `version`.
    let mut version = 0u64;
    let mut p = Posted::default();
    // The queries a probe made.
    let mut noted = vec![Query(0); NOTED];
    // How far ahead of lane 0 to claim: one pop farther each time lane 0
    // got to a claimed pop first, one nearer after eight posts in a row.
    let (mut lead, mut wins) = (LEAD, 0u32);
    while !shared.done.load(Ordering::Acquire) {
        if shared.handed.load(Ordering::Acquire) > version {
            std::mem::swap(&mut log, &mut *lock(&shared.logs[id]));
            version += replay(sweep, lk, opt, tour, &log);
            log.clear();
        }
        // The nearest pop in reach that nobody took and whose anchor the
        // replica queue already holds.
        let now = shared.retired.load(Ordering::Acquire);
        let reach = (now + AHEAD).min(version + opt.active_count() as u64);
        let claim = (now + lead..reach).find_map(|j| {
            let t1 = opt.queued((j - version) as usize)?;
            let state = &shared.states[j as usize % RING];
            let v = state.load(Ordering::Acquire);
            let free = v >> 2 != j + 1;
            let won = free
                && state
                    .compare_exchange(
                        v,
                        (j + 1) << 2 | RUNNING,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok();
            won.then_some((j, t1))
        });
        let Some((j, t1)) = claim else {
            spin_until(|| {
                shared.retired.load(Ordering::Acquire) != now || shared.done.load(Ordering::Acquire)
            });
            continue;
        };
        record::<S, SPATIAL>(sweep, lk, opt, tour, t1, &mut noted, &mut p);
        // Post, unless lane 0 got to the pop first.
        let slot = j as usize % RING;
        std::mem::swap(&mut p, &mut *lock(&shared.results[slot]));
        let running = (j + 1) << 2 | RUNNING;
        let state = &shared.states[slot];
        let won = state
            .compare_exchange(
                running,
                (j + 1) << 2 | POSTED,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok();
        if !won {
            lead = (lead + 1).min(AHEAD / 2);
            wins = 0;
        } else {
            wins += 1;
            if wins.is_multiple_of(8) {
                lead = (lead - 1).max(LEAD);
            }
        }
    }
}

/// Probe from `t1` on `tour` through [`Recorded`] into `p`, with `noted`
/// as the query buffer.
fn record<S: Sweep, const SPATIAL: bool>(
    sweep: S,
    lk: &mut LinKernighan,
    opt: &Optimizer<'_>,
    tour: &Tour,
    t1: usize,
    noted: &mut [Query],
    p: &mut Posted,
) {
    let view = Recorded {
        tour,
        noted: Cell::from_mut(noted).as_slice_of_cells(),
        count: Cell::new(0),
    };
    (p.gain, p.probes) = sweep.probe::<Recorded<'_>, SPATIAL>(lk, opt, &view, t1, &mut p.mv);
    let count = view.count.get();
    p.t1 = t1 as u32;
    p.queries.clear();
    if count > noted.len() {
        // Too many queries to check: a result lane 0 refuses.
        p.t1 = u32::MAX;
    } else {
        p.queries.extend_from_slice(&noted[..count]);
    }
}

/// Put lane 0's retirements on the replica: the same pops, commits and
/// don't-look bits, in the same order.
fn replay<S: Sweep>(
    sweep: S,
    lk: &mut LinKernighan,
    opt: &mut Optimizer<'_>,
    tour: &mut Tour,
    mut log: &[u32],
) -> u64 {
    let mut pops = 0;
    while let [t1, words, rest @ ..] = log {
        pops += 1;
        let (t1, words) = (*t1 as usize, *words as usize);
        let popped = opt.pop_active();
        debug_assert_eq!(popped, Some(t1), "the replica queue pops like lane 0's");
        if words == 0 {
            opt.set_dont_look(t1);
        } else {
            sweep.commit(lk, opt, tour, t1, &rest[..words]);
        }
        log = &rest[words..];
    }
    pops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lin_kernighan::LkConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use tsp_core::{generate, NeighborLists};

    /// Probe `sweep` from random anchors of a tour that random flips keep
    /// changing: whenever a recorded probe holds on the changed tour, it
    /// is the probe of the changed tour, move and probe count included.
    /// Returns the results held and refused.
    fn holds_only_when_exact<S: Sweep>(sweep: S, n: usize, seed: u64, spatial: bool) -> (u32, u32) {
        let inst = generate::uniform(n, 10_000.0, seed);
        let nl = NeighborLists::build(&inst, 7.min(n - 1));
        let mut opt = if spatial {
            Optimizer::spatial(&inst, &nl)
        } else {
            Optimizer::new(&inst, &nl)
        };
        let mut lk = LinKernighan::new(LkConfig::default());
        let mut rng = SmallRng::seed_from_u64(seed);
        // An LK optimum, as the passes mostly probe: most probes fail
        // after a few queries.
        let mut tour: Tour = opt.rep_in(&Tour::random(n, &mut rng));
        crate::lin_kernighan::lin_kernighan(&mut lk, &mut opt, &mut tour);
        let opt = opt;
        let (mut noted, mut p, mut mv) = (vec![Query(0); NOTED], Posted::default(), Vec::new());
        let (mut held, mut refused) = (0, 0);
        for trial in 0..1000 {
            let t1 = rng.gen_range(0..n);
            let probe = |lk: &mut LinKernighan, tour: &Tour, mv: &mut Vec<u32>| {
                if spatial {
                    sweep.probe::<Tour, true>(lk, &opt, tour, t1, mv)
                } else {
                    sweep.probe::<Tour, false>(lk, &opt, tour, t1, mv)
                }
            };
            if spatial {
                record::<S, true>(sweep, &mut lk, &opt, &tour, t1, &mut noted, &mut p);
            } else {
                record::<S, false>(sweep, &mut lk, &opt, &tour, t1, &mut noted, &mut p);
            }
            assert_eq!(
                (p.gain, p.probes),
                probe(&mut lk, &tour, &mut mv),
                "trial {trial}"
            );
            assert_eq!(p.mv, mv, "trial {trial}");
            // One or two short reversals, as a commit near the anchor
            // makes them.
            for _ in 0..rng.gen_range(1..3) {
                let b = rng.gen_range(0..n);
                let c = (0..rng.gen_range(1..6)).fold(b, |c, _| tour.next(c));
                TourOps::flip(&mut tour, b, c);
            }
            let now = probe(&mut lk, &tour, &mut mv);
            if p.holds(t1, &tour) {
                held += 1;
                assert_eq!((p.gain, p.probes), now, "n={n} trial {trial}");
                assert_eq!(p.mv, mv, "n={n} trial {trial}");
            } else {
                refused += 1;
            }
        }
        (held, refused)
    }

    #[test]
    fn a_result_that_holds_is_the_probe_of_the_changed_tour() {
        for (n, seed) in [(60usize, 1u64), (200, 2), (500, 3)] {
            for spatial in [false, true] {
                let lk = holds_only_when_exact(LkPass, n, seed, spatial);
                let or = holds_only_when_exact(OrPass, n, seed, spatial);
                for (kind, (held, refused)) in [("lk", lk), ("or-opt", or)] {
                    assert!(
                        held > 10 && refused > 10,
                        "{kind} n={n}: {held} held, {refused} refused"
                    );
                }
            }
        }
    }
}
