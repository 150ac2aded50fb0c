//! The four double-bridge kicking strategies of Applegate, Cook & Rohe,
//! as described in the paper (§2.1).
//!
//! A kick selects four "relevant" cities and applies the double-bridge
//! 4-exchange between them:
//!
//! - **Random** — all four uniformly at random. Degenerates the tour
//!   but escapes deep optima (best on small instances, Table 3).
//! - **Geometric** — first city `v` random; the other three from the
//!   `k` nearest neighbors of `v` (local kick for small `k`).
//! - **Close** — sample a subset of `⌈β·n⌉` cities, take the six
//!   nearest to `v` from the subset, pick three of them.
//! - **Random-walk** — three independent random walks of fixed length
//!   over the neighbor graph, started at `v`; the walk end points are
//!   the other cities (the paper's best all-rounder and `linkern`'s
//!   default).
//!
//! Kicks are expressed entirely through [`TourOps`] (`between` ordering
//! plus 2-opt flips), so they run on the array tour and the two-level
//! list alike — no tour positions involved.

use rand::Rng;
use tsp_core::{Instance, NeighborLists, TourOps};

use crate::search::{two_opt_by_edges, Optimizer};

/// Which kicking strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KickStrategy {
    /// Uniform random selection of all four cities.
    Random,
    /// Neighborhood of a random city; the field is the candidate pool
    /// size `k` (cities drawn from the `k` nearest of `v`).
    Geometric(usize),
    /// Subset sampling; the field is `β` as per-mille (β·n cities are
    /// sampled, default 100‰ = 0.1).
    Close(u32),
    /// Random walks over the neighbor graph; the field is the walk
    /// length (the paper/linkern use short walks, default 50 steps).
    RandomWalk(usize),
}

impl KickStrategy {
    /// The paper's four strategies with `linkern`-like defaults.
    pub const ALL: [KickStrategy; 4] = [
        KickStrategy::Random,
        KickStrategy::Geometric(16),
        KickStrategy::Close(100),
        KickStrategy::RandomWalk(50),
    ];

    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            KickStrategy::Random => "Random",
            KickStrategy::Geometric(_) => "Geometric",
            KickStrategy::Close(_) => "Close",
            KickStrategy::RandomWalk(_) => "Random-Walk",
        }
    }

    /// Parse a strategy by (case-insensitive) name with default
    /// parameters; `None` for unknown names.
    pub fn by_name(name: &str) -> Option<KickStrategy> {
        match name.to_ascii_lowercase().as_str() {
            "random" => Some(KickStrategy::Random),
            "geometric" => Some(KickStrategy::Geometric(16)),
            "close" => Some(KickStrategy::Close(100)),
            "random-walk" | "randomwalk" | "walk" => Some(KickStrategy::RandomWalk(50)),
            _ => None,
        }
    }
}

/// One applied kick: the four cut cities (in tour order) and the exact
/// tour-length change of the 4-exchange.
#[derive(Debug, Clone, Copy)]
pub struct Kick {
    /// The cut cities, ordered along the tour.
    pub cities: [usize; 4],
    /// Length delta applied by the kick (usually positive — kicks make
    /// the tour worse before re-optimization).
    pub delta: i64,
}

/// Select the four relevant cities for a kick, in tour order; `None` if
/// a distinct quadruple could not be found (tiny instances).
pub fn select_kick_cities<T: TourOps, R: Rng>(
    strategy: KickStrategy,
    inst: &Instance,
    tour: &T,
    neighbors: &NeighborLists,
    rng: &mut R,
) -> Option<[usize; 4]> {
    let drawn = draw_kick_cities(strategy, inst, neighbors, tour.len(), rng)?;
    Some(tour_order_cities(tour, drawn))
}

/// Draw four distinct cities of a tour of `n` cities for a kick, in the
/// labels of `inst` and `neighbors`, in draw order; `None` if a distinct
/// quadruple could not be found (tiny instances).
fn draw_kick_cities<R: Rng>(
    strategy: KickStrategy,
    inst: &Instance,
    neighbors: &NeighborLists,
    n: usize,
    rng: &mut R,
) -> Option<[usize; 4]> {
    if n < 8 {
        return None;
    }
    for _attempt in 0..32 {
        let cities = match strategy {
            KickStrategy::Random => {
                let mut cs = [0usize; 4];
                for c in cs.iter_mut() {
                    *c = rng.gen_range(0..n);
                }
                cs
            }
            KickStrategy::Geometric(k) => {
                let v = rng.gen_range(0..n);
                let pool = neighbors.of(v);
                let k = k.min(pool.len());
                if k < 3 {
                    return None;
                }
                let mut cs = [v, 0, 0, 0];
                for c in cs.iter_mut().skip(1) {
                    *c = pool[rng.gen_range(0..k)] as usize;
                }
                cs
            }
            KickStrategy::Close(beta_permille) => {
                let v = rng.gen_range(0..n);
                let subset_size = ((n as u64 * beta_permille as u64) / 1000).max(6) as usize;
                let six = close_pool(inst, v, n, subset_size, rng);
                if six.len() < 3 {
                    continue;
                }
                let mut cs = [v, 0, 0, 0];
                for c in cs.iter_mut().skip(1) {
                    *c = six[rng.gen_range(0..six.len())].1;
                }
                cs
            }
            KickStrategy::RandomWalk(len) => {
                let v = rng.gen_range(0..n);
                let mut cs = [v, 0, 0, 0];
                for c in cs.iter_mut().skip(1) {
                    let mut cur = v;
                    for _ in 0..len {
                        let nb = neighbors.of(cur);
                        cur = nb[rng.gen_range(0..nb.len())] as usize;
                    }
                    *c = cur;
                }
                cs
            }
        };
        // Distinct cities required for a proper double bridge.
        let distinct = cities
            .iter()
            .all(|&c| cities.iter().filter(|&&o| o == c).count() == 1);
        if distinct {
            return Some(cities);
        }
    }
    None
}

/// The Close strategy's candidate pool: sample `subset_size` random
/// cities, keep the (up to) six *distinct* ones nearest to `v` by the
/// real metric distance. Duplicate draws are deduplicated before the
/// pool is truncated to six — truncating first let repeated samples of
/// the nearest cities crowd out genuinely distinct ones and shrink the
/// pool below six.
fn close_pool<R: Rng>(
    inst: &Instance,
    v: usize,
    n: usize,
    subset_size: usize,
    rng: &mut R,
) -> Vec<(i64, usize)> {
    let mut six: Vec<(i64, usize)> = Vec::with_capacity(subset_size);
    for _ in 0..subset_size {
        let c = rng.gen_range(0..n);
        if c == v {
            continue;
        }
        six.push((inst.dist(v, c), c));
    }
    // Sorted by (dist, city), duplicate samples of a city are adjacent.
    six.sort_unstable();
    six.dedup_by_key(|e| e.1);
    six.truncate(6);
    six
}

/// Order four distinct cities along the tour, starting from the first.
fn tour_order_cities<T: TourOps>(tour: &T, mut cs: [usize; 4]) -> [usize; 4] {
    // Insertion sort of cs[1..] by "comes earlier when walking forward
    // from cs[0]" — `between(a, x, y)` is exactly that comparator.
    let anchor = cs[0];
    for i in 2..4 {
        let mut j = i;
        while j > 1 && tour.between(anchor, cs[j], cs[j - 1]) {
            cs.swap(j, j - 1);
            j -= 1;
        }
    }
    cs
}

/// Apply the double-bridge 4-exchange that cuts the tour after each of
/// the four cities and reconnects the quarters `A B C D` as `A C B D`,
/// expressed as up to four 2-opt flips. Returns the exact length delta,
/// or `None` — leaving the tour untouched — when every quarter between
/// consecutive cuts is empty (only possible for n = 4) and no 4-exchange
/// exists. A `Some` result always means at least one edge changed.
///
/// `cities` must be distinct and ordered along the tour (as returned by
/// [`select_kick_cities`]). The reconnection is invariant under
/// rotation of the quadruple; internally the anchor rotates until the
/// quarter after the last cut is non-empty.
pub fn double_bridge_by_cities<T: TourOps>(
    inst: &Instance,
    tour: &mut T,
    cities: [usize; 4],
) -> Option<i64> {
    let mut x = cities;
    // The decomposition below needs next(x3) != x0 (a non-empty quarter
    // after the last cut). At least one of the four quarters is
    // non-empty for n >= 8, so some rotation works.
    let mut tries = 0;
    while tour.next(x[3]) == x[0] {
        x.rotate_left(1);
        tries += 1;
        if tries == 4 {
            return None;
        }
    }
    let nx = [
        tour.next(x[0]),
        tour.next(x[1]),
        tour.next(x[2]),
        tour.next(x[3]),
    ];
    // Removed: (x_i, next(x_i)); added: (x0,n2), (x3,n1), (x2,n0),
    // (x1,n3). When a quarter is empty the corresponding pair appears
    // on both sides and cancels numerically.
    let delta = inst.dist(x[0], nx[2]) + inst.dist(x[3], nx[1]) + inst.dist(x[2], nx[0])
        + inst.dist(x[1], nx[3])
        - inst.dist(x[0], nx[0])
        - inst.dist(x[1], nx[1])
        - inst.dist(x[2], nx[2])
        - inst.dist(x[3], nx[3]);
    // Step 1 reverses everything between the outer cuts; steps 2-4
    // restore each quarter's direction, skipping empty quarters.
    two_opt_by_edges(tour, (x[0], nx[0]), (x[3], nx[3]));
    if nx[2] != x[3] {
        two_opt_by_edges(tour, (x[0], x[3]), (nx[2], x[2]));
    }
    if nx[1] != x[2] {
        two_opt_by_edges(tour, (x[3], x[2]), (nx[1], x[1]));
    }
    if nx[0] != x[1] {
        two_opt_by_edges(tour, (x[2], x[1]), (nx[0], nx[3]));
    }
    debug_assert!(
        tour.has_edge(x[0], nx[2])
            && tour.has_edge(x[3], nx[1])
            && tour.has_edge(x[2], nx[0])
            && tour.has_edge(x[1], nx[3])
    );
    Some(delta)
}

/// Apply one kick of the given strategy to `tour`, which is in the
/// labels of `opt`'s search. Returns the cut cities and the exact length
/// delta, or `None` if the tour was too small or the 4-exchange
/// degenerated to a no-op. A reported kick always changed at least one
/// tour edge, so acceptance counters and kick-strength histograms never
/// record phantom perturbations.
///
/// The cities are drawn in the caller's labels, from the caller's
/// instance and candidate rows, and only the four drawn cities are
/// mapped into the search's labels: the same RNG stream kicks the same
/// cities whatever labels the search runs on.
pub fn kick<T: TourOps, R: Rng>(
    strategy: KickStrategy,
    opt: &Optimizer<'_>,
    tour: &mut T,
    rng: &mut R,
) -> Option<Kick> {
    let (inst, neighbors) = opt.caller();
    let drawn = draw_kick_cities(strategy, inst, neighbors, tour.len(), rng)?;
    let cities = tour_order_cities(tour, drawn.map(|l| opt.city(l)));
    let delta = double_bridge_by_cities(opt.instance(), tour, cities)?;
    Some(Kick { cities, delta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use tsp_core::{generate, NeighborLists, Tour, TwoLevelList};

    fn setup(n: usize) -> (tsp_core::Instance, NeighborLists, Tour) {
        let inst = generate::uniform(n, 10_000.0, 50);
        let nl = NeighborLists::build(&inst, 10);
        let tour = Tour::identity(n);
        (inst, nl, tour)
    }

    #[test]
    fn all_strategies_produce_valid_kicks() {
        let (inst, nl, mut tour) = setup(100);
        let opt = Optimizer::new(&inst, &nl);
        let mut rng = SmallRng::seed_from_u64(1);
        for strategy in KickStrategy::ALL {
            for _ in 0..20 {
                let before = tour.length(&inst);
                let k = kick(strategy, &opt, &mut tour, &mut rng);
                let k = k.expect("kick on 100 cities");
                assert!(tour.is_valid(), "{strategy:?}");
                assert_eq!(tour.length(&inst), before + k.delta, "{strategy:?}");
            }
        }
    }

    #[test]
    fn kick_changes_exactly_up_to_4_edges() {
        let (inst, nl, mut tour) = setup(64);
        let opt = Optimizer::new(&inst, &nl);
        let mut rng = SmallRng::seed_from_u64(2);
        for strategy in KickStrategy::ALL {
            let before: std::collections::HashSet<(usize, usize)> =
                tour.edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
            kick(strategy, &opt, &mut tour, &mut rng).unwrap();
            let after: std::collections::HashSet<(usize, usize)> =
                tour.edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
            assert!(before.difference(&after).count() <= 4, "{strategy:?}");
        }
    }

    #[test]
    fn geometric_kick_is_local() {
        // With a small pool the four cities are geometric neighbors.
        let inst = generate::uniform(200, 10_000.0, 51);
        let nl = NeighborLists::build(&inst, 12);
        let tour = Tour::identity(200);
        let mut rng = SmallRng::seed_from_u64(3);
        let cities =
            select_kick_cities(KickStrategy::Geometric(8), &inst, &tour, &nl, &mut rng).unwrap();
        let any_is_center = cities.iter().any(|&c| {
            cities
                .iter()
                .filter(|&&o| o != c)
                .all(|&o| nl.of(c)[..8].contains(&(o as u32)))
        });
        assert!(any_is_center, "no city is the center of the others");
    }

    #[test]
    fn tiny_tour_returns_none() {
        let (inst, nl, tour) = setup(100);
        let small = Tour::identity(6);
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(
            select_kick_cities(KickStrategy::Random, &inst, &small, &nl, &mut rng).is_none()
        );
        let _ = tour;
    }

    #[test]
    fn names_and_parsing() {
        assert_eq!(KickStrategy::Random.name(), "Random");
        assert_eq!(KickStrategy::by_name("geometric"), Some(KickStrategy::Geometric(16)));
        assert_eq!(KickStrategy::by_name("Random-Walk"), Some(KickStrategy::RandomWalk(50)));
        assert_eq!(KickStrategy::by_name("nope"), None);
    }

    #[test]
    fn selected_cities_are_distinct_and_tour_ordered() {
        let (inst, nl, tour) = setup(100);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            let cs = select_kick_cities(KickStrategy::RandomWalk(10), &inst, &tour, &nl, &mut rng)
                .unwrap();
            for i in 0..4 {
                for j in i + 1..4 {
                    assert_ne!(cs[i], cs[j]);
                }
            }
            // Walking forward from cs[0], the others appear in order.
            assert!(tour.between(cs[0], cs[1], cs[2]));
            assert!(tour.between(cs[1], cs[2], cs[3]));
        }
    }

    #[test]
    fn double_bridge_matches_position_based_reference() {
        // The generic flip decomposition must produce the same
        // undirected cycle as Tour::double_bridge_at on the same cuts.
        let inst = generate::uniform(60, 10_000.0, 52);
        let mut rng = SmallRng::seed_from_u64(6);
        for trial in 0..40 {
            let base = Tour::random(60, &mut rng);
            let mut cs = [0usize; 4];
            let mut ps = [0usize; 4];
            loop {
                for p in ps.iter_mut() {
                    *p = rng.gen_range(0..60);
                }
                ps.sort_unstable();
                if ps[0] < ps[1] && ps[1] < ps[2] && ps[2] < ps[3] {
                    break;
                }
            }
            for (i, &p) in ps.iter().enumerate() {
                cs[i] = base.city_at(p);
            }

            let mut reference = base.clone();
            reference.double_bridge_at(ps);

            let mut generic = base.clone();
            let before = base.length(&inst);
            let delta =
                double_bridge_by_cities(&inst, &mut generic, cs).expect("n=60 cuts degenerate");
            assert_eq!(generic.length(&inst), before + delta, "trial {trial}");

            let want: std::collections::HashSet<(usize, usize)> = reference
                .edges()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            let got: std::collections::HashSet<(usize, usize)> = generic
                .edges()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            assert_eq!(want, got, "trial {trial}");
        }
    }

    #[test]
    fn close_pool_dedups_before_truncating() {
        // Regression: the pool used to be truncated to six entries
        // *before* deduplication, so duplicate draws of the nearest
        // cities shrank the "six nearest" pool below six distinct ones.
        let inst = generate::uniform(10, 1_000.0, 54);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut saw_duplicates = false;
        for _ in 0..50 {
            // Replay the exact sampling stream to know what was drawn.
            let mut replay = rng.clone();
            let mut sampled: Vec<(i64, usize)> = Vec::new();
            for _ in 0..30 {
                let c = replay.gen_range(0..10);
                if c != 3 {
                    sampled.push((inst.dist(3, c), c));
                }
            }
            let raw = sampled.len();
            sampled.sort_unstable();
            sampled.dedup_by_key(|e| e.1);
            saw_duplicates |= sampled.len() < raw;
            sampled.truncate(6);

            let pool = close_pool(&inst, 3, 10, 30, &mut rng);
            // The pool is the six nearest *distinct* sampled cities.
            assert_eq!(pool, sampled);
            let distinct: std::collections::HashSet<usize> =
                pool.iter().map(|e| e.1).collect();
            assert_eq!(distinct.len(), pool.len(), "pool contains duplicates");
            assert_eq!(pool.len(), sampled.len().min(6));
        }
        assert!(saw_duplicates, "sampling never collided; test is vacuous");
    }

    #[test]
    fn degenerate_double_bridge_is_reported_not_applied() {
        // n = 4 with all four cities cut: every quarter is empty, no
        // 4-exchange exists. The call must return None and leave the
        // tour untouched instead of reporting a zero-delta "kick".
        let inst = generate::uniform(4, 1_000.0, 55);
        let mut tour = Tour::identity(4);
        let before = TourOps::to_order(&tour);
        assert_eq!(double_bridge_by_cities(&inst, &mut tour, [0, 1, 2, 3]), None);
        assert_eq!(TourOps::to_order(&tour), before, "no-op modified the tour");
    }

    #[test]
    fn reported_kicks_change_at_least_one_edge() {
        let (inst, nl, mut tour) = setup(64);
        let opt = Optimizer::new(&inst, &nl);
        let mut rng = SmallRng::seed_from_u64(12);
        for strategy in KickStrategy::ALL {
            for _ in 0..25 {
                let before: std::collections::HashSet<(usize, usize)> =
                    tour.edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
                if kick(strategy, &opt, &mut tour, &mut rng).is_some() {
                    let after: std::collections::HashSet<(usize, usize)> =
                        tour.edges().map(|(a, b)| (a.min(b), a.max(b))).collect();
                    assert_ne!(before, after, "{strategy:?} reported a no-op kick");
                }
            }
        }
    }

    #[test]
    fn kicks_agree_across_representations() {
        let inst = generate::uniform(120, 10_000.0, 53);
        let nl = NeighborLists::build(&inst, 10);
        let opt = Optimizer::new(&inst, &nl);
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        let start = Tour::random(120, &mut SmallRng::seed_from_u64(8));
        let mut array = start.clone();
        let mut tl = TwoLevelList::from_tour(&start);
        for strategy in KickStrategy::ALL {
            for _ in 0..10 {
                let ka = kick(strategy, &opt, &mut array, &mut rng_a).unwrap();
                let kb = kick(strategy, &opt, &mut tl, &mut rng_b).unwrap();
                assert_eq!(ka.cities, kb.cities, "{strategy:?}");
                assert_eq!(ka.delta, kb.delta, "{strategy:?}");
                assert_eq!(
                    TourOps::to_order(&tl),
                    TourOps::to_order(&array),
                    "{strategy:?}"
                );
            }
        }
    }
}
