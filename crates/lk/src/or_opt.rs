//! Or-opt local search: relocate short segments (1–3 cities).
//!
//! Complements 2-opt: the segment-relocation neighborhood contains
//! moves 2-opt cannot express (it is a restricted 3-opt). Candidates
//! for the new segment location come from the candidate lists of the
//! segment's end cities.

use tsp_core::TourOps;

use crate::search::{or_opt_move_by_edges, Optimizer};

/// Maximum relocated segment length.
pub const MAX_SEGMENT: usize = 3;

/// An improving Or-opt move: the segment `s … e` leaves its place
/// between `p` and `q` for the edge `(c, d)`, reversed or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OrMove {
    pub(crate) s: usize,
    pub(crate) e: usize,
    pub(crate) p: usize,
    pub(crate) q: usize,
    pub(crate) c: usize,
    pub(crate) d: usize,
    pub(crate) reversed: bool,
}

/// Look for an improving relocation of the segment of `len` cities
/// starting at `s` (forward), reading the tour only. Returns its gain and
/// move, or `None`, and counts the destinations probed into `probes`.
pub(crate) fn evaluate<T: TourOps, const SPATIAL: bool>(
    opt: &Optimizer<'_>,
    tour: &T,
    s: usize,
    len: usize,
    probes: &mut u64,
) -> Option<(i64, OrMove)> {
    let n = tour.len();
    if len + 2 >= n {
        return None;
    }
    // Segment s .. e (forward); p precedes it, q follows it.
    let mut e = s;
    for _ in 1..len {
        e = tour.next(e);
    }
    let p = tour.prev(s);
    let q = tour.next(e);
    if p == e || q == s {
        return None; // segment wraps the whole tour
    }
    let dist = |a: usize, b: usize| opt.dist_in::<SPATIAL>(a, b);
    let removed = dist(p, s) + dist(e, q);
    let bridge = dist(p, q);

    // Candidate destinations: after city c (so the segment sits between
    // c and next(c)), with c drawn from the candidate lists of both
    // segment ends. Try both orientations. Each candidate carries its
    // cached metric distance to the list owner (`d(s,c)` in the first
    // half of the scan, `d(e,c)` in the second), saving one coordinate
    // distance per probe. A one-city segment has one list and one
    // orientation: distances are symmetric, so a second scan of the same
    // list, or the reversed insertion, would only repeat a rejected move.
    let single = s == e;
    let (cands_s, dists_s) = opt.candidates_in::<SPATIAL>(s);
    let (cands_e, dists_e) = if single {
        (&[][..], &[][..])
    } else {
        opt.candidates_in::<SPATIAL>(e)
    };
    let k = cands_s.len();
    for i in 0..k + cands_e.len() {
        let (c, cached) = if i < k {
            (cands_s[i] as usize, dists_s[i])
        } else {
            (cands_e[i - k] as usize, dists_e[i - k])
        };
        // c must lie outside the segment and not be p (no-op).
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
        *probes += 1;
        let d = tour.next(c);
        if d == s {
            continue; // inserting right back
        }
        let broken = dist(c, d);
        // Forward orientation: c -> s ... e -> d.
        let fwd_cost = (if i < k { cached } else { dist(c, s) }) + dist(e, d);
        // Reversed: c -> e ... s -> d.
        let rev_cost = if single {
            fwd_cost
        } else {
            (if i < k { dist(c, e) } else { cached }) + dist(s, d)
        };
        let base = removed + broken - bridge;
        let (cost, reversed) = if fwd_cost <= rev_cost {
            (fwd_cost, false)
        } else {
            (rev_cost, true)
        };
        let gain = base - cost;
        if gain > 0 {
            let mv = OrMove {
                s,
                e,
                p,
                q,
                c,
                d,
                reversed,
            };
            return Some((gain, mv));
        }
    }
    None
}

/// Make the move [`evaluate`] found and wake its six end cities.
pub(crate) fn apply<T: TourOps>(opt: &mut Optimizer<'_>, tour: &mut T, mv: &OrMove) {
    let OrMove {
        s,
        e,
        p,
        q,
        c,
        d,
        reversed,
    } = *mv;
    or_opt_move_by_edges(tour, s, e, p, q, c, d, reversed);
    for city in [p, q, s, e, c, d] {
        opt.activate(city);
    }
}

/// The first improving move from anchor `t1`, segments of one city
/// first: what one anchor of an Or-opt pass finds, read-only.
pub(crate) fn probe<T: TourOps, const SPATIAL: bool>(
    opt: &Optimizer<'_>,
    tour: &T,
    t1: usize,
    probes: &mut u64,
) -> Option<(i64, OrMove)> {
    (1..=MAX_SEGMENT.min(tour.len() - 3))
        .find_map(|len| evaluate::<T, SPATIAL>(opt, tour, t1, len, probes))
}

/// Run Or-opt to local optimality over the active queue. Returns the
/// total gain.
pub fn or_opt_pass<T: TourOps>(opt: &mut Optimizer<'_>, tour: &mut T) -> i64 {
    if opt.is_spatial() {
        pass::<T, true>(opt, tour)
    } else {
        pass::<T, false>(opt, tour)
    }
}

/// [`or_opt_pass`] compiled for one label space.
fn pass<T: TourOps, const SPATIAL: bool>(opt: &mut Optimizer<'_>, tour: &mut T) -> i64 {
    let mut total = 0i64;
    while let Some(t1) = opt.pop_active() {
        let mut probes = 0;
        let found = probe::<T, SPATIAL>(opt, tour, t1, &mut probes);
        opt.or_probes += probes;
        match found {
            Some((gain, mv)) => {
                apply(opt, tour, &mv);
                total += gain;
            }
            None => opt.set_dont_look(t1),
        }
    }
    total
}

/// Convenience: full Or-opt optimization from scratch.
pub fn or_opt<T: TourOps>(opt: &mut Optimizer<'_>, tour: &mut T) -> i64 {
    opt.activate_all();
    or_opt_pass(opt, tour)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::or_opt_move_by_edges;
    use rand::{rngs::SmallRng, SeedableRng};
    use tsp_core::{generate, NeighborLists, Tour};

    /// `try_segment` as it stood before it was split into [`evaluate`]
    /// and [`apply`]: search and move in one, on the tour it changes.
    fn try_segment_in_place<T: TourOps>(
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
        let dist = |a: usize, b: usize| opt.dist(a, b);
        let removed = dist(p, s) + dist(e, q);
        let bridge = dist(p, q);
        let single = s == e;
        let (cands_s, dists_s) = opt.candidates(s);
        let (cands_e, dists_e) = if single {
            (&[][..], &[][..])
        } else {
            opt.candidates(e)
        };
        let k = cands_s.len();
        let mut probes = 0u64;
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
            probes += 1;
            let d = tour.next(c);
            if d == s {
                continue;
            }
            let broken = dist(c, d);
            let fwd_cost = (if i < k { cached } else { dist(c, s) }) + dist(e, d);
            let rev_cost = if single {
                fwd_cost
            } else {
                (if i < k { dist(c, e) } else { cached }) + dist(s, d)
            };
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
                opt.or_probes += probes;
                return gain;
            }
        }
        opt.or_probes += probes;
        0
    }

    /// Every segment from every city of random tours, on both label
    /// spaces: evaluating then applying gains, moves, wakes and counts
    /// what the search-and-move in one did.
    #[test]
    fn evaluate_then_apply_equals_the_in_place_move() {
        for (n, seed) in [(12usize, 1u64), (60, 2), (250, 3)] {
            let inst = generate::uniform(n, 10_000.0, 30 + seed);
            let nl = NeighborLists::build(&inst, 8);
            for spatial in [false, true] {
                let make = || {
                    if spatial {
                        Optimizer::spatial(&inst, &nl)
                    } else {
                        Optimizer::new(&inst, &nl)
                    }
                };
                let (mut opt_a, mut opt_b) = (make(), make());
                let start: Tour =
                    opt_a.rep_in(&Tour::random(n, &mut SmallRng::seed_from_u64(seed)));
                let (mut ta, mut tb) = (start.clone(), start);
                opt_a.deactivate_all();
                opt_b.deactivate_all();
                let mut moves = 0;
                for s in 0..n {
                    for len in 1..=MAX_SEGMENT {
                        let want = try_segment_in_place(&mut opt_a, &mut ta, s, len);
                        let mut probes = 0;
                        let found = if spatial {
                            evaluate::<Tour, true>(&opt_b, &tb, s, len, &mut probes)
                        } else {
                            evaluate::<Tour, false>(&opt_b, &tb, s, len, &mut probes)
                        };
                        opt_b.or_probes += probes;
                        let got = found.map_or(0, |(gain, mv)| {
                            apply(&mut opt_b, &mut tb, &mv);
                            gain
                        });
                        moves += usize::from(want > 0);
                        let at = format!("n={n} spatial={spatial} s={s} len={len}");
                        assert_eq!(got, want, "{at}");
                        assert_eq!(tb, ta, "{at}");
                        assert_eq!(opt_b.or_probes, opt_a.or_probes, "{at}");
                        assert_eq!(opt_b.active_count(), opt_a.active_count(), "{at}");
                    }
                }
                assert!(moves > n / 4, "n={n}: only {moves} moves");
                while let Some(c) = opt_a.pop_active() {
                    assert_eq!(opt_b.pop_active(), Some(c), "n={n} wake order");
                }
                assert_eq!(opt_b.pop_active(), None);
            }
        }
    }

    #[test]
    fn fixes_displaced_city() {
        // A line tour with one city moved out of place; Or-opt must
        // relocate it back.
        let pts: Vec<tsp_core::Point> = (0..8)
            .map(|i| tsp_core::Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let inst = tsp_core::Instance::new("line8", pts, tsp_core::Metric::Euc2d);
        let nl = NeighborLists::build(&inst, 5);
        let mut opt = Optimizer::new(&inst, &nl);
        // City 4 displaced between 0 and 1.
        let mut tour = Tour::from_order(vec![0, 4, 1, 2, 3, 5, 6, 7]);
        let before = tour.length(&inst);
        let gain = or_opt(&mut opt, &mut tour);
        assert!(gain > 0);
        assert_eq!(tour.length(&inst), before - gain);
        // Optimal line tour: 0..7 and back = 2*70
        assert_eq!(tour.length(&inst), 140);
    }

    #[test]
    fn improves_random_tours() {
        let inst = generate::uniform(150, 10_000.0, 31);
        let nl = NeighborLists::build(&inst, 8);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut tour = Tour::random(150, &mut rng);
        let before = tour.length(&inst);
        let mut opt = Optimizer::new(&inst, &nl);
        let gain = or_opt(&mut opt, &mut tour);
        assert!(tour.is_valid());
        assert!(gain > 0);
        assert_eq!(tour.length(&inst), before - gain);
    }

    #[test]
    fn gain_exactness_with_reversed_insertions() {
        let inst = generate::clustered_dimacs(100, 8);
        let nl = NeighborLists::build(&inst, 10);
        let mut rng = SmallRng::seed_from_u64(7);
        for seed in 0..5u64 {
            let mut rng2 = SmallRng::seed_from_u64(seed);
            let mut tour = Tour::random(100, &mut rng2);
            let before = tour.length(&inst);
            let mut opt = Optimizer::new(&inst, &nl);
            let gain = or_opt(&mut opt, &mut tour);
            assert_eq!(tour.length(&inst), before - gain);
        }
        let _ = &mut rng;
    }

    #[test]
    fn two_opt_then_or_opt_improves_further() {
        let inst = generate::uniform(200, 10_000.0, 33);
        let nl = NeighborLists::build(&inst, 8);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut tour = Tour::random(200, &mut rng);
        let mut opt = Optimizer::new(&inst, &nl);
        crate::two_opt::two_opt(&mut opt, &mut tour);
        let after_2opt = tour.length(&inst);
        let gain = or_opt(&mut opt, &mut tour);
        assert_eq!(tour.length(&inst), after_2opt - gain);
        // Or-opt usually finds something after plain 2-opt on 200 cities.
        assert!(gain >= 0);
    }
}
