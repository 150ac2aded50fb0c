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

/// Try to relocate the segment of `len` cities starting at `s`
/// (forward). Returns the gain and applies the move, or 0.
fn try_segment<T: TourOps>(opt: &mut Optimizer<'_>, tour: &mut T, s: usize, len: usize) -> i64 {
    let n = tour.len();
    if len + 2 >= n {
        return 0;
    }
    // Segment s .. e (forward); p precedes it, q follows it.
    let mut e = s;
    for _ in 1..len {
        e = tour.next(e);
    }
    let p = tour.prev(s);
    let q = tour.next(e);
    if p == e || q == s {
        return 0; // segment wraps the whole tour
    }
    let removed = opt.dist(p, s) + opt.dist(e, q);
    let bridge = opt.dist(p, q);

    // Candidate destinations: after city c (so the segment sits between
    // c and next(c)), with c drawn from the candidate lists of both
    // segment ends. Try both orientations. Each candidate carries its
    // cached metric distance to the list owner (`d(s,c)` in the first
    // half of the scan, `d(e,c)` in the second), saving one coordinate
    // distance per probe. A one-city segment has one list and one
    // orientation: distances are symmetric, so a second scan of the same
    // list, or the reversed insertion, would only repeat a rejected move.
    let single = s == e;
    let (cands_s, dists_s) = opt.neighbors().of_with_dists(s);
    let (cands_e, dists_e) = if single {
        (&[][..], &[][..])
    } else {
        opt.neighbors().of_with_dists(e)
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
        let d = tour.next(c);
        if d == s {
            continue; // inserting right back
        }
        let broken = opt.dist(c, d);
        // Forward orientation: c -> s ... e -> d.
        let fwd_cost = (if i < k { cached } else { opt.dist(c, s) }) + opt.dist(e, d);
        // Reversed: c -> e ... s -> d.
        let rev_cost = if single {
            fwd_cost
        } else {
            (if i < k { opt.dist(c, e) } else { cached }) + opt.dist(s, d)
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
            return gain;
        }
    }
    0
}

/// Run Or-opt to local optimality over the active queue. Returns the
/// total gain.
pub fn or_opt_pass<T: TourOps>(opt: &mut Optimizer<'_>, tour: &mut T) -> i64 {
    let mut total = 0i64;
    while let Some(t1) = opt.pop_active() {
        let mut gained = 0;
        for len in 1..=MAX_SEGMENT.min(tour.len() - 3) {
            gained = try_segment(opt, tour, t1, len);
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

/// Convenience: full Or-opt optimization from scratch.
pub fn or_opt<T: TourOps>(opt: &mut Optimizer<'_>, tour: &mut T) -> i64 {
    opt.activate_all();
    or_opt_pass(opt, tour)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use tsp_core::{generate, NeighborLists, Tour};

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
