//! 2-opt local search with candidate lists and don't-look bits.
//!
//! For every active city `t1`, both incident tour edges are considered
//! for removal; the replacement endpoint `t3` is drawn from `t1`'s
//! candidate list and pruned as soon as `d(t1,t3) ≥ d(t1,t2)` (lists are
//! sorted). This is the textbook neighbor-list 2-opt of Johnson &
//! McGeoch, used here both standalone (baseline) and as a building
//! block in tests.

use tsp_core::TourOps;

use crate::search::{two_opt_by_edges, Optimizer};

/// One attempt to improve around city `t1`. Applies the first improving
/// move found, re-activates its four endpoints and returns the
/// (positive) gain, or returns 0.
fn improve_city<T: TourOps>(opt: &mut Optimizer<'_>, tour: &mut T, t1: usize) -> i64 {
    // Candidate distances come from the cache, not the metric: the
    // inner loop never recomputes a sqrt/trig distance.
    let (cands, cdists) = opt.candidates(t1);
    // Direction 0: remove (t1, next(t1)); new edge (t1, t3),
    // second removed edge (t3, next(t3)), second new edge (t2, t4).
    // Direction 1 mirrors with prev().
    for dir in 0..2 {
        let t2 = if dir == 0 { tour.next(t1) } else { tour.prev(t1) };
        let d_t1_t2 = opt.dist(t1, t2);
        for (ci, &t3) in cands.iter().enumerate() {
            let t3 = t3 as usize;
            let d_t1_t3 = cdists[ci];
            if d_t1_t3 >= d_t1_t2 {
                break; // sorted candidates: no further gain possible
            }
            if t3 == t2 {
                continue;
            }
            let t4 = if dir == 0 { tour.next(t3) } else { tour.prev(t3) };
            if t4 == t1 {
                continue;
            }
            let gain = d_t1_t2 + opt.dist(t3, t4) - d_t1_t3 - opt.dist(t2, t4);
            if gain > 0 {
                two_opt_by_edges(tour, (t1, t2), (t3, t4));
                debug_assert!(tour.has_edge(t1, t3) && tour.has_edge(t2, t4));
                for c in [t1, t2, t3, t4] {
                    opt.activate(c);
                }
                return gain;
            }
        }
    }
    0
}

/// Run 2-opt to local optimality over the active queue.
///
/// Returns the total gain. On return every city's don't-look bit is set
/// (no improving 2-opt move exists among candidate edges).
pub fn two_opt_pass<T: TourOps>(opt: &mut Optimizer<'_>, tour: &mut T) -> i64 {
    let mut total = 0i64;
    while let Some(t1) = opt.pop_active() {
        let gain = improve_city(opt, tour, t1);
        if gain > 0 {
            total += gain;
        } else {
            opt.set_dont_look(t1);
        }
    }
    total
}

/// Convenience: fully optimize `tour` with 2-opt from scratch.
pub fn two_opt<T: TourOps>(opt: &mut Optimizer<'_>, tour: &mut T) -> i64 {
    opt.activate_all();
    two_opt_pass(opt, tour)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use tsp_core::{generate, NeighborLists, Tour};

    #[test]
    fn uncrosses_square() {
        let inst = tsp_core::Instance::new(
            "sq",
            vec![
                tsp_core::Point::new(0.0, 0.0),
                tsp_core::Point::new(10.0, 0.0),
                tsp_core::Point::new(10.0, 10.0),
                tsp_core::Point::new(0.0, 10.0),
            ],
            tsp_core::Metric::Euc2d,
        );
        let nl = NeighborLists::build(&inst, 3);
        let mut opt = Optimizer::new(&inst, &nl);
        let mut tour = Tour::from_order(vec![0, 2, 1, 3]);
        let before = tour.length(&inst);
        let gain = two_opt(&mut opt, &mut tour);
        assert_eq!(tour.length(&inst), before - gain);
        assert_eq!(tour.length(&inst), 40);
    }

    #[test]
    fn improves_random_tours_substantially() {
        let inst = generate::uniform(200, 10_000.0, 21);
        let nl = NeighborLists::build(&inst, 8);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut tour = Tour::random(200, &mut rng);
        let before = tour.length(&inst);
        let mut opt = Optimizer::new(&inst, &nl);
        let gain = two_opt(&mut opt, &mut tour);
        assert!(tour.is_valid());
        assert_eq!(tour.length(&inst), before - gain);
        assert!(
            (tour.length(&inst) as f64) < 0.35 * before as f64,
            "2-opt should cut a random tour by >65%: {} -> {}",
            before,
            tour.length(&inst)
        );
    }

    #[test]
    fn converges_to_a_fixed_point() {
        // Endpoint-only DLB reactivation means a single sweep may stop
        // slightly short of the true candidate-list local optimum (the
        // standard trade-off); repeated sweeps must reach a fixed point.
        let inst = generate::uniform(100, 10_000.0, 22);
        let nl = NeighborLists::build(&inst, 8);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut tour = Tour::random(100, &mut rng);
        let mut opt = Optimizer::new(&inst, &nl);
        let mut sweeps = 0;
        loop {
            let gain = two_opt(&mut opt, &mut tour);
            sweeps += 1;
            if gain == 0 {
                break;
            }
            assert!(sweeps < 50, "2-opt failed to converge");
        }
        let len = tour.length(&inst);
        assert_eq!(two_opt(&mut opt, &mut tour), 0);
        assert_eq!(tour.length(&inst), len);
    }

    #[test]
    fn gain_accounting_is_exact() {
        let inst = generate::clustered_dimacs(150, 4);
        let nl = NeighborLists::build(&inst, 10);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut tour = Tour::random(150, &mut rng);
        let before = tour.length(&inst);
        let mut opt = Optimizer::new(&inst, &nl);
        let gain = two_opt(&mut opt, &mut tour);
        assert_eq!(before - gain, tour.length(&inst));
    }

    #[test]
    fn two_level_matches_array_quality() {
        use tsp_core::{TourOps, TwoLevelList};
        let inst = generate::uniform(400, 100_000.0, 51);
        let nl = NeighborLists::build(&inst, 8);
        let mut rng = SmallRng::seed_from_u64(1);
        let start = Tour::random(400, &mut rng);

        // Array engine.
        let mut array_tour = start.clone();
        let mut opt = Optimizer::new(&inst, &nl);
        let array_gain = two_opt(&mut opt, &mut array_tour);

        // The same generic engine on a two-level list from the same
        // start: trajectories are identical, so gains and final orders
        // must match exactly.
        let mut tl = TwoLevelList::from_tour(&start);
        let before = start.length(&inst);
        let mut opt = Optimizer::new(&inst, &nl);
        let tl_gain = two_opt(&mut opt, &mut tl);
        let tl_tour = tl.to_tour();
        assert!(tl_tour.is_valid());
        assert_eq!(tl_tour.length(&inst), before - tl_gain);
        assert_eq!(array_gain, tl_gain);
        assert_eq!(TourOps::to_order(&array_tour), TourOps::to_order(&tl));
    }

    #[test]
    fn two_level_gain_accounting_on_families() {
        use tsp_core::TwoLevelList;
        for inst in [
            generate::clustered_dimacs(200, 52),
            generate::drill_plate(200, 53),
        ] {
            let nl = NeighborLists::build(&inst, 8);
            let mut rng = SmallRng::seed_from_u64(2);
            let start = Tour::random(200, &mut rng);
            let before = start.length(&inst);
            let mut tl = TwoLevelList::from_tour(&start);
            let mut opt = Optimizer::new(&inst, &nl);
            let gain = two_opt(&mut opt, &mut tl);
            assert_eq!(tl.to_tour().length(&inst), before - gain, "{}", inst.name());
            assert!(gain > 0);
        }
    }

    #[test]
    fn two_level_large_instance_smoke() {
        use tsp_core::TwoLevelList;
        // 20k cities: array 2-opt from random would be minutes; the
        // two-level engine from a space-filling start finishes fast.
        let inst = generate::uniform(20_000, 1_000_000.0, 54);
        let nl = NeighborLists::build(&inst, 6);
        let start = crate::construct::space_filling(&inst);
        let before = start.length(&inst);
        let mut tl = TwoLevelList::from_tour(&start);
        let mut opt = Optimizer::new(&inst, &nl);
        let gain = two_opt(&mut opt, &mut tl);
        assert!(gain > 0);
        assert_eq!(tl.to_tour().length(&inst), before - gain);
    }
}
