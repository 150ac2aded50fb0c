//! Property tests for the representation-generic search substrate:
//! identical randomized traces of flips, Or-opt relocations, and
//! double-bridge kicks driven purely through [`TourOps`] must leave the
//! array tour and the two-level list on the *same directed cycle* (the
//! canonical linearizations and lengths are compared exactly, not just
//! as undirected edge sets), the virtual path LK searches on must read
//! like a tour that really took the same steps and came back through
//! nested marks, LK searched from every anchor must be exact on
//! degenerate instances, Or-opt must end where its two-scan original
//! does, and the candidate-list distance cache must agree with the
//! metric everywhere.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use tsp_core::{
    generate, Instance, Metric, NeighborLists, Point, Tour, TourOps, TourRep, TwoLevelList,
};

use lk::kick::kick;
use lk::lin_kernighan::LinKernighan;
use lk::or_opt::{or_opt, MAX_SEGMENT};
use lk::search::{or_opt_move_by_edges, two_opt_by_edges};
use lk::vpath::VPath;
use lk::{Budget, ChainedLk, ChainedLkConfig, KickStrategy, LkConfig, Optimizer};

/// One sink-observed run on representation `R`: what the sink was
/// handed must be what a caller could have taken, and the trace must be
/// its record. Returns the reported `(kicks, length)` series.
fn sink_reports_the_run<R: TourRep>(
    inst: &tsp_core::Instance,
    nl: &NeighborLists,
    cfg: &ChainedLkConfig,
    budget: &Budget,
) -> Vec<(u64, i64)> {
    let first = ChainedLk::new(inst, nl, cfg.clone()).construct_tour();
    let mut seen: Vec<(f64, u64, i64, Tour)> = Vec::new();
    let res = ChainedLk::new(inst, nl, cfg.clone()).run_rep_with::<R>(budget, &mut |p| {
        seen.push((p.secs, p.kicks, p.length, p.tour()));
    });
    for (_, _, length, tour) in &seen {
        assert!(tour.is_valid(), "{}: reported a non-permutation", R::NAME);
        assert_eq!(tour.tour_length(inst), *length, "{}", R::NAME);
    }
    for w in seen.windows(2) {
        assert!(
            w[1].2 < w[0].2,
            "{}: lengths must strictly decrease",
            R::NAME
        );
        assert!(
            w[1].0 >= w[0].0 && w[1].1 >= w[0].1,
            "{}: went back in time",
            R::NAME
        );
    }
    assert_eq!(
        seen[0].3,
        first,
        "{}: first report is not the construction tour",
        R::NAME
    );
    // The last report has the result's length; its tour may have been
    // left since by kicks accepted at equal length, which report nothing.
    let last = seen.last().expect("construction is always reported");
    assert_eq!(last.2, res.length, "{}", R::NAME);
    if res.trace.points().last().is_some_and(|p| p.1 == res.kicks) {
        assert_eq!(last.3, res.tour, "{}", R::NAME);
    }
    let series: Vec<(f64, u64, i64)> = seen.iter().map(|(s, k, l, _)| (*s, *k, *l)).collect();
    assert_eq!(
        res.trace.points(),
        &series[..],
        "{}: trace is not the sink's record",
        R::NAME
    );
    series.into_iter().map(|(_, k, l)| (k, l)).collect()
}

/// Both representations of the same random starting permutation.
fn both_reps(n: usize, seed: u64) -> (Tour, TwoLevelList) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tour = Tour::random(n, &mut rng);
    let tl = TwoLevelList::from_tour(&tour);
    (tour, tl)
}

/// Exact directed-cycle equality via the canonical linearization.
fn assert_lockstep(inst: &tsp_core::Instance, tour: &Tour, tl: &TwoLevelList) {
    assert_eq!(
        TourOps::to_order(tour),
        TourOps::to_order(tl),
        "directed cycles diverged"
    );
    assert_eq!(tour.tour_length(inst), tl.tour_length(inst));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary flip traces keep both representations on the same
    /// directed cycle.
    #[test]
    fn flip_traces_stay_in_lockstep(
        n in 8usize..200,
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 1..30),
    ) {
        let inst = generate::uniform(n, 10_000.0, seed ^ 0xA5);
        let (mut tour, mut tl) = both_reps(n, seed);
        for (ra, rb) in ops {
            let a = ra as usize % n;
            let b = rb as usize % n;
            if a == b {
                continue;
            }
            tl.flip(a, b);
            TourOps::flip(&mut tour, a, b);
        }
        prop_assert!(tl.check_invariants());
        assert_lockstep(&inst, &tour, &tl);
    }

    /// 2-opt moves expressed as edge pairs (the LK step primitive)
    /// agree across representations.
    #[test]
    fn two_opt_by_edges_traces_agree(
        n in 8usize..150,
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u32>(), any::<u32>()), 1..25),
    ) {
        let inst = generate::uniform(n, 10_000.0, seed ^ 0xB6);
        let (mut tour, mut tl) = both_reps(n, seed);
        for (ra, rb) in ops {
            let a = ra as usize % n;
            let b = rb as usize % n;
            // Remove (a, next a) and (b, next b): needs four distinct
            // endpoint cities.
            let na = tour.next(a);
            let nb = tour.next(b);
            if a == b || na == b || nb == a {
                continue;
            }
            two_opt_by_edges(&mut tour, (a, na), (b, nb));
            two_opt_by_edges(&mut tl, (a, na), (b, nb));
        }
        prop_assert!(tl.check_invariants());
        assert_lockstep(&inst, &tour, &tl);
    }

    /// Or-opt relocations (segment length 1-3, forward or reversed)
    /// agree across representations.
    #[test]
    fn or_opt_traces_agree(
        n in 12usize..150,
        seed in any::<u64>(),
        ops in prop::collection::vec(
            (any::<u32>(), 1usize..4, any::<u32>(), any::<bool>()),
            1..20,
        ),
    ) {
        let inst = generate::uniform(n, 10_000.0, seed ^ 0xC7);
        let (mut tour, mut tl) = both_reps(n, seed);
        for (rs, seg_len, rc, reversed) in ops {
            let s = rs as usize % n;
            // Walk the segment and its flanks on the current cycle.
            let mut e = s;
            for _ in 1..seg_len {
                e = tour.next(e);
            }
            let p = tour.prev(s);
            let q = tour.next(e);
            let c = rc as usize % n;
            let d = tour.next(c);
            // Validity: c outside the segment and not p; the no-op and
            // whole-tour cases are skipped.
            let mut in_seg = false;
            let mut walk = s;
            for _ in 0..seg_len {
                in_seg |= walk == c;
                walk = tour.next(walk);
            }
            if in_seg || c == p || p == q || p == e || (c == q && d == p) {
                continue;
            }
            or_opt_move_by_edges(&mut tour, s, e, p, q, c, d, reversed);
            or_opt_move_by_edges(&mut tl, s, e, p, q, c, d, reversed);
        }
        prop_assert!(tl.check_invariants());
        assert_lockstep(&inst, &tour, &tl);
    }

    /// Full kicks (selection + double bridge) driven by identical RNGs
    /// produce identical cities, deltas, and cycles on both
    /// representations.
    #[test]
    fn kick_traces_agree(
        n in 16usize..200,
        seed in any::<u64>(),
        strategy_ix in 0usize..4,
        kicks in 1usize..8,
    ) {
        let inst = generate::uniform(n, 10_000.0, seed ^ 0xD8);
        let nl = NeighborLists::build(&inst, 8);
        let opt = Optimizer::new(&inst, &nl);
        let strategy = KickStrategy::ALL[strategy_ix];
        let (mut tour, mut tl) = both_reps(n, seed);
        let mut rng_a = SmallRng::seed_from_u64(seed ^ 0x1234);
        let mut rng_b = SmallRng::seed_from_u64(seed ^ 0x1234);
        for _ in 0..kicks {
            let ka = kick(strategy, &opt, &mut tour, &mut rng_a);
            let kb = kick(strategy, &opt, &mut tl, &mut rng_b);
            match (ka, kb) {
                (Some(ka), Some(kb)) => {
                    prop_assert_eq!(ka.cities, kb.cities);
                    prop_assert_eq!(ka.delta, kb.delta);
                }
                (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
            }
        }
        prop_assert!(tl.check_invariants());
        assert_lockstep(&inst, &tour, &tl);
    }
}

/// Drive a [`VPath`] over the untouched `base` and a really-flipped copy
/// of the same tour through one sequence of LK steps, nested marks,
/// rewinds and releases, comparing the path successor of every city
/// after each operation.
///
/// The marks nest as LK's do: one taken right after the reset that is
/// never released, more taken at random depths. A rewind undoes every
/// step since the newest mark — usually several unmarked steps at once,
/// LK's breadth-1 levels — and then keeps the mark for another try or
/// releases it. The flipped tour undoes the same steps one inverse move
/// at a time.
///
/// The flipped tour is the closed tour `path + (last, t1)`; its path
/// runs along `next` or `prev` depending on which way the flips happened
/// to leave it, so its successor is read off relative to `t1` and
/// `last` and not from its orientation.
fn vpath_matches_flipped_tour<T: TourOps>(
    base: &T,
    t1: usize,
    along_next: bool,
    ops: &[(u32, u32)],
) {
    let n = base.len();
    let mut real = Tour::from_order(base.to_order());
    let mut path = VPath::default();
    let mut last = path.reset(base, t1, along_next);
    // (c, v, last-before) of every step currently applied.
    let mut applied: Vec<(usize, usize, usize)> = Vec::new();
    // (mark, steps applied when it was taken), oldest first.
    let mut marks = vec![(path.mark(), 0usize)];
    for &(pick, dice) in ops {
        if dice == 0 {
            marks.push((path.mark(), applied.len()));
        } else if applied.len() == 50 || dice < 3 {
            // Rewind to the newest mark; every other time also release
            // it (the outermost mark is kept).
            let &(mark, depth) = marks.last().unwrap();
            while applied.len() > depth {
                let (c, v, before) = applied.pop().unwrap();
                assert_eq!(last, v);
                two_opt_by_edges(&mut real, (before, c), (v, t1));
                last = before;
            }
            path.rewind(mark);
            if dice == 1 && marks.len() > 1 {
                path.release(mark);
                marks.pop();
            }
        } else {
            let c = pick as usize % n;
            if c == t1 || c == last {
                continue;
            }
            let s = path.succ(base, c);
            if s.city == last {
                continue; // (last, c) is already a path edge
            }
            path.step(c, s);
            two_opt_by_edges(&mut real, (c, s.city), (last, t1));
            applied.push((c, s.city, last));
            last = s.city;
        }
        let real_runs_along_next = real.prev(t1) == last;
        assert!(real_runs_along_next || real.next(t1) == last);
        for x in (0..n).filter(|&x| x != last) {
            let want = if real_runs_along_next { real.next(x) } else { real.prev(x) };
            let got = path.succ(base, x);
            let depth = applied.len();
            assert_eq!(got.city, want, "succ({x}) at depth {depth}, {} marks", marks.len());
            // Inside a run the successor is the base tour neighbour.
            if !got.across {
                assert!(base.next(x) == want || base.prev(x) == want, "succ({x}) at depth {depth}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The virtual path agrees with a tour that really took the steps:
    /// both sides of `t1`, n even and odd, chains to the depth limit,
    /// nested marks with rewinds and releases interleaved, over an array
    /// base and over a two-level base whose segments earlier flips have
    /// split and reversed.
    #[test]
    fn vpath_reads_like_the_flipped_tour(
        n in 5usize..70,
        seed in any::<u64>(),
        t1 in any::<u32>(),
        along_next in any::<bool>(),
        scramble in prop::collection::vec((any::<u32>(), any::<u32>()), 0..12),
        ops in prop::collection::vec((any::<u32>(), 0u32..10), 1..160),
    ) {
        let (tour, mut tl) = both_reps(n, seed);
        let t1 = t1 as usize % n;
        vpath_matches_flipped_tour(&tour, t1, along_next, &ops);
        for (ra, rb) in scramble {
            let (a, b) = (ra as usize % n, rb as usize % n);
            if a != b {
                tl.flip(a, b);
            }
        }
        vpath_matches_flipped_tour(&tl, t1, along_next, &ops);
    }
}

/// The instance shapes the LK search is exercised on: uniform,
/// clustered, all cities on one line (ties everywhere), and only three
/// distinct locations (most distances zero).
fn lk_shapes(n: usize, seed: u64) -> Vec<(&'static str, Instance)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let collinear = (0..n)
        .map(|_| Point::new(rng.gen_range(0..1_000) as f64, 0.0))
        .collect();
    let spots = [Point::new(0.0, 0.0), Point::new(500.0, 0.0), Point::new(0.0, 300.0)];
    let duplicates = (0..n).map(|_| spots[rng.gen_range(0..spots.len())]).collect();
    vec![
        ("uniform", generate::uniform(n, 10_000.0, seed)),
        ("clustered", generate::clustered(n, 10_000.0, 3, 300.0, seed)),
        ("collinear", Instance::new("collinear", collinear, Metric::Euc2d)),
        ("duplicates", Instance::new("duplicates", duplicates, Metric::Euc2d)),
    ]
}

/// Two sweeps of `improve_from` over every anchor on representation
/// `R`: a gain must be exactly what the tour lost, and a search that
/// finds nothing must leave the tour as it was. Returns the final cycle.
fn improve_from_every_anchor<R: TourRep>(
    inst: &Instance,
    nl: &NeighborLists,
    start: &Tour,
    label: &str,
) -> Vec<u32> {
    let mut tour = R::from_tour(start);
    let mut opt = Optimizer::new(inst, nl);
    let mut lk = LinKernighan::new(LkConfig::default());
    for t1 in (0..inst.len()).chain(0..inst.len()) {
        let (len, order) = (tour.tour_length(inst), tour.to_order());
        let gain = lk.improve_from(&mut opt, &mut tour, t1);
        if gain > 0 {
            assert_eq!(tour.tour_length(inst), len - gain, "{label} {}: anchor {t1}", R::NAME);
        } else {
            assert_eq!(gain, 0, "{label} {}: anchor {t1}", R::NAME);
            assert_eq!(tour.to_order(), order, "{label} {}: anchor {t1}", R::NAME);
        }
    }
    tour.to_order()
}

/// LK from every anchor, on both representations, is exact on
/// degenerate as well as random instances. In debug builds every probe
/// also checks the adjacency tabu tests against the added/removed lists
/// they replace (the `debug_assert!`s in `LinKernighan::step`).
#[test]
fn lk_is_exact_from_every_anchor() {
    for n in [5usize, 8, 13, 64, 200] {
        for seed in 0..3u64 {
            for (shape, inst) in lk_shapes(n, seed) {
                let nl = NeighborLists::build(&inst, 8);
                let start = Tour::random(n, &mut SmallRng::seed_from_u64(seed ^ 0x5EED));
                let label = format!("{shape} n={n} seed {seed}");
                let array = improve_from_every_anchor::<Tour>(&inst, &nl, &start, &label);
                let two_level =
                    improve_from_every_anchor::<TwoLevelList>(&inst, &nl, &start, &label);
                assert_eq!(array, two_level, "{label}: representations diverged");
            }
        }
    }
}

/// Or-opt's segment move as it stood before a one-city segment got a
/// single scan: both candidate lists and both orientations, always.
fn try_segment_both_lists<T: TourOps>(
    opt: &mut Optimizer<'_>,
    tour: &mut T,
    s: usize,
    len: usize,
) -> i64 {
    let n = tour.len();
    if len + 2 >= n {
        return 0;
    }
    let mut e = s;
    for _ in 1..len {
        e = tour.next(e);
    }
    let p = tour.prev(s);
    let q = tour.next(e);
    if p == e || q == s {
        return 0;
    }
    let removed = opt.dist(p, s) + opt.dist(e, q);
    let bridge = opt.dist(p, q);
    let (cands_s, dists_s) = opt.candidates(s);
    let (cands_e, dists_e) = opt.candidates(e);
    let k = cands_s.len();
    for i in 0..k + cands_e.len() {
        let (c, cached) = if i < k {
            (cands_s[i] as usize, dists_s[i])
        } else {
            (cands_e[i - k] as usize, dists_e[i - k])
        };
        if c == p {
            continue;
        }
        let mut inside = false;
        let mut walk = s;
        for _ in 0..len {
            if walk == c {
                inside = true;
                break;
            }
            walk = tour.next(walk);
        }
        if inside {
            continue;
        }
        let d = tour.next(c);
        if d == s {
            continue;
        }
        let broken = opt.dist(c, d);
        let fwd_cost = (if i < k { cached } else { opt.dist(c, s) }) + opt.dist(e, d);
        let rev_cost = (if i < k { opt.dist(c, e) } else { cached }) + opt.dist(s, d);
        let base = removed + broken - bridge;
        let (cost, reversed) = if fwd_cost <= rev_cost {
            (fwd_cost, false)
        } else {
            (rev_cost, true)
        };
        let gain = base - cost;
        if gain > 0 {
            or_opt_move_by_edges(tour, s, e, p, q, c, d, reversed);
            for city in [p, q, s, e, c, d] {
                opt.activate(city);
            }
            return gain;
        }
    }
    0
}

/// `or_opt` over [`try_segment_both_lists`].
fn or_opt_both_lists<T: TourOps>(opt: &mut Optimizer<'_>, tour: &mut T) -> i64 {
    opt.activate_all();
    let mut total = 0i64;
    while let Some(t1) = opt.pop_active() {
        let mut gained = 0;
        for len in 1..=MAX_SEGMENT.min(tour.len() - 3) {
            gained = try_segment_both_lists(opt, tour, t1, len);
            if gained > 0 {
                break;
            }
        }
        if gained > 0 {
            total += gained;
        } else {
            opt.set_dont_look(t1);
        }
    }
    total
}

/// A symmetric explicit matrix over uniform points whose edge
/// `(order[0], order[n − 1])` costs −2⁴⁰ — a shard seam window's pinned
/// closing edge — for a start tour `order` that holds it.
fn pinned_matrix(n: usize, seed: u64, order: &[u32]) -> Instance {
    let pts = generate::uniform(n, 10_000.0, seed);
    let mut mat: Vec<i64> = (0..n * n).map(|ij| pts.dist(ij / n, ij % n)).collect();
    let (a, b) = (order[0] as usize, order[n - 1] as usize);
    mat[a * n + b] = -(1 << 40);
    mat[b * n + a] = -(1 << 40);
    Instance::explicit("pinned", mat, n)
}

/// Or-opt with one scan for a one-city segment ends exactly where the
/// two-scan, two-orientation original does: same gain, same cycle, on
/// degenerate geometry and on a pinned explicit matrix.
#[test]
fn or_opt_matches_the_two_scan_original() {
    let mut cases = 0;
    for n in [6usize, 9, 16, 40, 120] {
        for seed in 0..10u64 {
            let start = Tour::random(n, &mut SmallRng::seed_from_u64(seed ^ 0x0E0E));
            let mut shapes = lk_shapes(n, seed);
            shapes.push(("pinned", pinned_matrix(n, seed, start.order())));
            for (shape, inst) in shapes {
                let nl = NeighborLists::build(&inst, 8.min(n - 1));
                let (mut fast, mut slow) = (start.clone(), start.clone());
                let gain = or_opt(&mut Optimizer::new(&inst, &nl), &mut fast);
                let want = or_opt_both_lists(&mut Optimizer::new(&inst, &nl), &mut slow);
                let label = format!("{shape} n={n} seed {seed}");
                assert_eq!(gain, want, "{label}");
                assert_eq!(fast.to_order(), slow.to_order(), "{label}");
                assert_eq!(fast.tour_length(&inst), start.tour_length(&inst) - gain, "{label}");
                cases += 1;
            }
        }
    }
    assert!(cases >= 200);
}

proptest! {
    // Full CLK runs are comparatively expensive; a few cases suffice on
    // top of the per-primitive traces above.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Whole Chained-LK runs (construction, LK passes, kicks,
    /// accept/reject) are bit-identical across representations.
    #[test]
    fn chained_lk_runs_agree(
        n in 40usize..160,
        seed in any::<u64>(),
        kicks in 5u64..25,
    ) {
        let inst = generate::uniform(n, 10_000.0, seed ^ 0xE9);
        let nl = NeighborLists::build(&inst, 8);
        let cfg = ChainedLkConfig {
            seed,
            ..Default::default()
        };
        let budget = Budget::kicks(kicks);
        let ra = ChainedLk::new(&inst, &nl, cfg.clone()).run_rep::<Tour>(&budget);
        let rb = ChainedLk::new(&inst, &nl, cfg).run_rep::<TwoLevelList>(&budget);
        prop_assert_eq!(ra.length, rb.length);
        prop_assert_eq!(ra.kicks, rb.kicks);
        prop_assert_eq!(TourOps::to_order(&ra.tour), TourOps::to_order(&rb.tour));
    }

    /// Every tour a run holds — construction, first pass, improving
    /// kicks — reaches the progress sink as it is, on either
    /// representation, and both report the same series.
    #[test]
    fn progress_sink_reports_every_tour_the_run_holds(
        n in 40usize..160,
        seed in any::<u64>(),
        kicks in 0u64..25,
    ) {
        let inst = generate::uniform(n, 10_000.0, seed ^ 0xB3);
        let nl = NeighborLists::build(&inst, 8);
        let cfg = ChainedLkConfig {
            seed,
            ..Default::default()
        };
        let budget = Budget::kicks(kicks);
        let array = sink_reports_the_run::<Tour>(&inst, &nl, &cfg, &budget);
        let twolevel = sink_reports_the_run::<TwoLevelList>(&inst, &nl, &cfg, &budget);
        prop_assert_eq!(array, twolevel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The CSR distance cache in the candidate lists is exactly the
    /// metric: `dists_of(c)[i] == dist(c, of(c)[i])` for every slot.
    #[test]
    fn cached_candidate_distances_match_metric(
        n in 8usize..400,
        k in 2usize..12,
        seed in any::<u64>(),
    ) {
        let inst = generate::uniform(n, 100_000.0, seed ^ 0xF1);
        let nl = NeighborLists::build(&inst, k);
        for c in 0..n {
            let (cands, dists) = nl.of_with_dists(c);
            prop_assert_eq!(cands.len(), dists.len());
            prop_assert_eq!(dists, nl.dists_of(c));
            for (i, &nb) in cands.iter().enumerate() {
                prop_assert_eq!(dists[i], inst.dist(c, nb as usize));
            }
        }
    }
}
