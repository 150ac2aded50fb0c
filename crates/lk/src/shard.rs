//! Divide-and-optimize sharding: partition → per-shard CLK → stitch →
//! seam refinement.
//!
//! The replicated-search design of the paper caps instance size at what
//! one node can hold; this module trades a bounded tour-quality gap for
//! horizontal data scaling (DualOpt style). The pipeline:
//!
//! 1. **Partition** — [`tsp_core::partition::Partition`] splits the
//!    instance into balanced k-d regions.
//! 2. **Solve** — a full [`ClkEngine`] runs on each region's
//!    [`SubInstance`] with a seed derived from the master seed
//!    ([`shard_seed`]), so any worker solving shard `s` produces the
//!    identical sub-tour. [`shard_solve`] runs the engines in parallel
//!    through [`tsp_core::fan_out`], one core each; an engine's own
//!    k-NN build then stays on its shard's thread.
//! 3. **Stitch** — sub-tours merge pairwise bottom-up along the
//!    partition's split tree: for each split, the cities nearest the
//!    split plane on each side nominate reconnection edges, the
//!    cheapest 2-opt-style reconnection (ties broken by city ids) joins
//!    the two cycles.
//! 4. **Refine** — moving windows centered on the stitch seams are
//!    re-optimized with 2-opt + Or-opt until a round yields no gain.
//!
//! ### Windowed re-optimization with pinned endpoints
//!
//! A window is a contiguous tour segment; its interior may be reordered
//! but its endpoints must keep facing the rest of the tour. We express
//! that as a standard sub-cycle optimization over an explicit-matrix
//! sub-instance where the *virtual* closing edge between the two
//! endpoints has weight `-PIN` (a huge negative constant): no improving
//! 2-opt/Or-opt move can afford to remove it, so the endpoints stay
//! adjacent in the sub-cycle and the sub-cycle minus the virtual edge
//! is exactly a path with fixed endpoints. The generic local-search
//! code runs unmodified.
//!
//! ### Determinism
//!
//! Everything here is a pure function of `(instance, ShardConfig)`,
//! whatever the core count: the partition compares `(coordinate, id)`,
//! shard seeds derive from the master seed, each shard's sub-tour
//! lands in its shard's slot whichever thread solved it, stitching
//! breaks ties by `(delta, city ids)`, and refinement visits seams in
//! sorted order. A 1-shard configuration bypasses the pipeline
//! entirely and is bit-identical to the unsharded engine.

use std::time::Instant;

use obs::Obs;
use tsp_core::partition::{Partition, PartitionNode, SubInstance};
use tsp_core::{fan_out, Instance, NeighborLists, Tour};

use crate::budget::Budget;
use crate::chained::{ChainedLkConfig, ClkEngine};
use crate::or_opt::or_opt;
use crate::search::Optimizer;
use crate::two_opt::two_opt;

/// Virtual-edge pin weight. Large enough that no gain computation can
/// profit from removing a `-PIN` edge, small enough that sums of six
/// such terms stay far from `i64` overflow.
const PIN: i64 = 1 << 40;

/// Configuration of the sharded solve pipeline.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Requested number of regions (clamped by the partitioner; `<= 1`
    /// selects the bit-identical unsharded path).
    pub shards: usize,
    /// Per-shard engine configuration. `clk.seed` is the *master* seed;
    /// each shard engine runs with [`shard_seed`]`(clk.seed, s)`.
    pub clk: ChainedLkConfig,
    /// CLK kick budget per shard.
    pub kicks_per_shard: u64,
    /// Seam window size in cities.
    pub window: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 8,
            clk: ChainedLkConfig::default(),
            kicks_per_shard: 50,
            window: 256,
        }
    }
}

/// Per-shard seed derivation: the same multiplier the distributed
/// driver uses for node seeds, keyed by shard id, so any worker
/// assigned shard `s` reproduces the identical sub-tour.
#[inline]
pub fn shard_seed(master: u64, shard: usize) -> u64 {
    master.wrapping_mul(1_000_003).wrapping_add(shard as u64)
}

/// Counters and timings of one sharded solve.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Effective region count (1 on the unsharded path).
    pub shard_count: usize,
    /// Largest region — the per-worker memory bound.
    pub max_shard_cities: usize,
    /// Sub-tour length per shard, indexed by shard id.
    pub shard_lengths: Vec<i64>,
    /// Global tour length right after stitching, before refinement.
    pub stitched_length: i64,
    /// Total length recovered by seam refinement.
    pub refine_gain: i64,
    /// Refinement rounds executed (the last one gains nothing).
    pub refine_rounds: usize,
    /// Distinct seam cities enqueued for refinement.
    pub seam_cities: usize,
    /// Wall time of the solve phase. [`shard_solve`] runs the shard
    /// engines in parallel, so this is not their sum: per-shard times
    /// are the `shard.solve.ns` histogram.
    pub solve_seconds: f64,
    /// Wall time stitching cycles.
    pub stitch_seconds: f64,
    /// Wall time refining seams.
    pub refine_seconds: f64,
}

/// Outcome of [`shard_solve`].
#[derive(Debug, Clone)]
pub struct ShardSolveResult {
    /// The stitched and refined global tour.
    pub tour: Tour,
    /// Its length under the instance metric.
    pub length: i64,
    /// Pipeline counters.
    pub stats: ShardStats,
}

/// Solve one region of a partition. Returns the sub-tour in *global*
/// city ids plus its length.
///
/// Pure function of `(inst, part, shard, cfg)` — this is what makes
/// distributed shard placement free: any node may solve any shard.
pub fn solve_one_shard(
    inst: &Instance,
    part: &Partition,
    shard: usize,
    cfg: &ShardConfig,
) -> (Vec<u32>, i64) {
    let sub = SubInstance::extract(
        inst,
        part.shard(shard),
        format!("{}[s{shard}]", inst.name()),
    );
    let mut clk_cfg = cfg.clk.clone();
    clk_cfg.seed = shard_seed(cfg.clk.seed, shard);
    // The engine and its lists are freed before the global-id copy is
    // allocated: the copy, which outlives this call, then reuses their
    // space instead of landing above it, where it would keep the
    // allocator from returning that space (1.5 MB of peak RSS at 100k
    // cities in 8 shards on two threads).
    let res = {
        let neighbors = clk_cfg.build_neighbors(sub.instance());
        let mut engine = ClkEngine::auto(sub.instance(), &neighbors, clk_cfg);
        engine.run(&Budget::kicks(cfg.kicks_per_shard))
    };
    (sub.to_global_order(res.tour.order()), res.length)
}

/// Boundary cities per side nominated for stitching at each merge.
const BOUNDARY_CANDS: usize = 24;

/// Stitch per-shard sub-tours into one global tour and refine the
/// seams. `cycles[s]` must be shard `s`'s sub-tour in global ids.
///
/// Shared by the local pipeline and the distributed collector.
pub fn stitch_and_refine(
    inst: &Instance,
    part: &Partition,
    mut cycles: Vec<Option<Vec<u32>>>,
    cfg: &ShardConfig,
    obs: &Obs,
    stats: &mut ShardStats,
) -> Tour {
    let t_stitch = Instant::now();
    let mut seams = Vec::new();
    let mut pos = vec![0u32; inst.len()];
    let order = stitch_rec(
        inst,
        part,
        part.root(),
        &mut cycles,
        BOUNDARY_CANDS,
        &mut seams,
        &mut pos,
    );
    stats.stitch_seconds = t_stitch.elapsed().as_secs_f64();
    obs.histogram("shard.stitch.ns")
        .observe(t_stitch.elapsed().as_nanos() as u64);

    let mut order = order;
    stats.stitched_length = order_length(inst, &order);

    let t_refine = Instant::now();
    seams.sort_unstable();
    seams.dedup();
    stats.seam_cities = seams.len();
    obs.counter(obs::kinds::C_SHARD_SEAM_CITIES)
        .add(seams.len() as u64);
    let (gain, rounds) = refine_seams(inst, &mut order, &seams, cfg);
    stats.refine_gain = gain;
    stats.refine_rounds = rounds;
    stats.refine_seconds = t_refine.elapsed().as_secs_f64();
    obs.histogram("shard.refine.ns")
        .observe(t_refine.elapsed().as_nanos() as u64);
    obs.counter(obs::kinds::C_SHARD_REFINE_GAIN)
        .add(gain as u64);

    let tour = Tour::from_order(order);
    debug_assert!(tour.is_valid());
    tour
}

/// Run the full divide-and-optimize pipeline on `inst`.
pub fn shard_solve(inst: &Instance, cfg: &ShardConfig) -> ShardSolveResult {
    shard_solve_with_obs(inst, cfg, &Obs::disabled())
}

/// [`shard_solve`] with observability probes attached.
pub fn shard_solve_with_obs(inst: &Instance, cfg: &ShardConfig, obs: &Obs) -> ShardSolveResult {
    // Unsharded path: bit-identical to running the engine directly.
    if cfg.shards <= 1 || !inst.metric().is_geometric() {
        return unsharded(inst, cfg);
    }
    let part = Partition::build(inst, cfg.shards);
    if part.shard_count() <= 1 {
        return unsharded(inst, cfg);
    }

    let t_solve = Instant::now();
    let mut stats = ShardStats {
        shard_count: part.shard_count(),
        max_shard_cities: part.max_shard_len(),
        ..ShardStats::default()
    };
    let mut solved = vec![(Vec::new(), 0i64); part.shard_count()];
    fan_out(&mut solved, |s, slot| {
        let t = obs.timer();
        *slot = solve_one_shard(inst, &part, s, cfg);
        t.observe_into(&obs.histogram("shard.solve.ns"));
        obs.counter(obs::kinds::C_SHARDS_SOLVED).incr();
    });
    stats.solve_seconds = t_solve.elapsed().as_secs_f64();
    stats.shard_lengths = solved.iter().map(|&(_, len)| len).collect();
    let cycles = solved.into_iter().map(|(order, _)| Some(order)).collect();

    let tour = stitch_and_refine(inst, &part, cycles, cfg, obs, &mut stats);
    let length = tour.length(inst);
    ShardSolveResult {
        tour,
        length,
        stats,
    }
}

/// The bit-identical fallback: the plain engine on the full instance
/// with the master seed and the same kick budget.
fn unsharded(inst: &Instance, cfg: &ShardConfig) -> ShardSolveResult {
    let neighbors = cfg.clk.build_neighbors(inst);
    let mut engine = ClkEngine::auto(inst, &neighbors, cfg.clk.clone());
    let res = engine.run(&Budget::kicks(cfg.kicks_per_shard));
    let stats = ShardStats {
        shard_count: 1,
        max_shard_cities: inst.len(),
        shard_lengths: vec![res.length],
        stitched_length: res.length,
        solve_seconds: res.seconds,
        ..ShardStats::default()
    };
    ShardSolveResult {
        tour: res.tour,
        length: res.length,
        stats,
    }
}

/// Length of a cyclic order under the instance metric.
fn order_length(inst: &Instance, order: &[u32]) -> i64 {
    let mut total = 0i64;
    for i in 0..order.len() {
        let a = order[i] as usize;
        let b = order[(i + 1) % order.len()] as usize;
        total += inst.dist(a, b);
    }
    total
}

/// Post-order walk of the partition tree, merging child cycles at each
/// split.
fn stitch_rec(
    inst: &Instance,
    part: &Partition,
    node: u32,
    cycles: &mut [Option<Vec<u32>>],
    k: usize,
    seams: &mut Vec<u32>,
    pos: &mut [u32],
) -> Vec<u32> {
    match part.node(node) {
        PartitionNode::Leaf { shard } => cycles[shard as usize]
            .take()
            .expect("shard cycle consumed twice"),
        PartitionNode::Split { axis, lo, hi } => {
            let a = stitch_rec(inst, part, lo, cycles, k, seams, pos);
            let b = stitch_rec(inst, part, hi, cycles, k, seams, pos);
            merge_cycles(inst, a, b, axis, part.split_value(node), k, seams, pos)
        }
    }
}

/// The `k` cities of `cycle` nearest the split plane, ties by id.
fn boundary_candidates(inst: &Instance, cycle: &[u32], axis: u8, value: f64, k: usize) -> Vec<u32> {
    let mut scored: Vec<(f64, u32)> = cycle
        .iter()
        .map(|&c| {
            let p = inst.point(c as usize);
            let coord = if axis == 0 { p.x } else { p.y };
            ((coord - value).abs(), c)
        })
        .collect();
    let k = k.min(scored.len());
    let cmp = |a: &(f64, u32), b: &(f64, u32)| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1));
    if k < scored.len() {
        scored.select_nth_unstable_by(k - 1, cmp);
        scored.truncate(k);
    }
    scored.sort_unstable_by(cmp);
    scored.into_iter().map(|(_, c)| c).collect()
}

/// Greedy boundary reconnection of two cycles separated by a split
/// plane: over all (boundary city of A, boundary city of B) pairs,
/// remove one tour edge on each side and add the cheaper of the two
/// 2-opt-style reconnections. Deterministic: the best move is the
/// minimum of `(delta, a, b, combo)`.
#[allow(clippy::too_many_arguments)]
fn merge_cycles(
    inst: &Instance,
    a: Vec<u32>,
    b: Vec<u32>,
    axis: u8,
    value: f64,
    k: usize,
    seams: &mut Vec<u32>,
    pos: &mut [u32],
) -> Vec<u32> {
    for (i, &c) in a.iter().enumerate() {
        pos[c as usize] = i as u32;
    }
    for (i, &c) in b.iter().enumerate() {
        pos[c as usize] = i as u32;
    }
    let cand_a = boundary_candidates(inst, &a, axis, value, k);
    let cand_b = boundary_candidates(inst, &b, axis, value, k);

    let mut best: Option<(i64, u32, u32, u8)> = None;
    for &x in &cand_a {
        let nx = a[(pos[x as usize] as usize + 1) % a.len()];
        let d_x_nx = inst.dist(x as usize, nx as usize);
        for &y in &cand_b {
            let ny = b[(pos[y as usize] as usize + 1) % b.len()];
            let removed = d_x_nx + inst.dist(y as usize, ny as usize);
            // combo 0: add x–y and nx–ny (traverse B backwards);
            // combo 1: add x–ny and nx–y (traverse B forwards).
            let d0 =
                inst.dist(x as usize, y as usize) + inst.dist(nx as usize, ny as usize) - removed;
            let d1 =
                inst.dist(x as usize, ny as usize) + inst.dist(nx as usize, y as usize) - removed;
            for (combo, delta) in [(0u8, d0), (1u8, d1)] {
                let cand = (delta, x, y, combo);
                if best.is_none_or(|cur| cand < cur) {
                    best = Some(cand);
                }
            }
        }
    }
    let (_, x, y, combo) = best.expect("boundary candidate sets are never empty");
    let nx_pos = (pos[x as usize] as usize + 1) % a.len();
    let nx = a[nx_pos];
    let ny_pos = (pos[y as usize] as usize + 1) % b.len();
    let ny = b[ny_pos];
    seams.extend_from_slice(&[x, nx, y, ny]);

    // Output: A forward from nx around to x, then B joined by the
    // chosen combo. Both wrap edges are exactly the added edges.
    let mut out = Vec::with_capacity(a.len() + b.len());
    for i in 0..a.len() {
        out.push(a[(nx_pos + i) % a.len()]);
    }
    if combo == 0 {
        // x–y, then B backwards y → … → ny, wrap ny–nx.
        let start = pos[y as usize] as usize;
        for i in 0..b.len() {
            out.push(b[(start + b.len() - i) % b.len()]);
        }
    } else {
        // x–ny, then B forwards ny → … → y, wrap y–nx.
        for i in 0..b.len() {
            out.push(b[(ny_pos + i) % b.len()]);
        }
    }
    out
}

/// Hard cap on refinement rounds (the loop stops earlier at the first
/// no-improvement round).
const MAX_REFINE_ROUNDS: usize = 16;

/// Iterate windowed re-optimization over the seam cities (sorted order)
/// until a round yields no improvement or the round cap is hit.
/// Returns `(total gain, rounds executed)`.
fn refine_seams(
    inst: &Instance,
    order: &mut [u32],
    seams: &[u32],
    cfg: &ShardConfig,
) -> (i64, usize) {
    let mut pos = vec![0u32; inst.len()];
    for (i, &c) in order.iter().enumerate() {
        pos[c as usize] = i as u32;
    }
    // Per seam, the window that last came back without a gain.
    let mut settled: Vec<Vec<u32>> = vec![Vec::new(); seams.len()];
    let mut total = 0i64;
    let mut rounds = 0usize;
    while rounds < MAX_REFINE_ROUNDS {
        let mut round_gain = 0i64;
        for (&c, settled) in seams.iter().zip(&mut settled) {
            let center = pos[c as usize] as usize;
            round_gain += refine_window(inst, order, &mut pos, center, cfg.window, settled);
        }
        rounds += 1;
        total += round_gain;
        if round_gain == 0 {
            break;
        }
    }
    (total, rounds)
}

/// Re-optimize the window of `window` consecutive tour cities centered
/// at position `center` as a pinned-endpoint path (see module docs).
/// Splices the improved path back in place and returns the gain.
///
/// The outcome is a function of the window's cities in tour order
/// alone. `settled` holds the window this seam last found nothing in:
/// meeting it again — in the closing round most windows do — is a gain
/// of zero without the search, and a window that gains nothing now is
/// remembered there.
fn refine_window(
    inst: &Instance,
    order: &mut [u32],
    pos: &mut [u32],
    center: usize,
    window: usize,
    settled: &mut Vec<u32>,
) -> i64 {
    let n = order.len();
    // Keep at least one city outside the window so the pinned path has
    // a rest-of-tour to face.
    let m = window.min(n - 1);
    if m < 5 {
        return 0;
    }
    let start = (center + n - m / 2) % n;
    let w: Vec<u32> = (0..m).map(|i| order[(start + i) % n]).collect();
    if w == *settled {
        return 0;
    }
    let old_cost: i64 = w
        .windows(2)
        .map(|p| inst.dist(p[0] as usize, p[1] as usize))
        .sum();

    // Explicit sub-instance over the window with the virtual closing
    // edge pinned at -PIN: local ids are window offsets, the path
    // endpoints are local 0 and m-1.
    let mut mat = vec![0i64; m * m];
    for i in 0..m {
        for j in (i + 1)..m {
            let d = inst.dist(w[i] as usize, w[j] as usize);
            mat[i * m + j] = d;
            mat[j * m + i] = d;
        }
    }
    mat[m - 1] = -PIN;
    mat[(m - 1) * m] = -PIN;
    let sub = Instance::explicit("seam-window", mat, m);
    let neighbors = NeighborLists::build(&sub, 8.min(m - 1));
    let mut opt = Optimizer::new(&sub, &neighbors);
    let mut tour = Tour::identity(m);
    loop {
        let g = two_opt(&mut opt, &mut tour) + or_opt(&mut opt, &mut tour);
        if g <= 0 {
            break;
        }
    }

    // The virtual pair (0, m-1) is still adjacent; unroll the cycle
    // into the path 0 → … → m-1 by walking away from m-1.
    let step_next = tour.next(0) != m - 1;
    debug_assert!(step_next || tour.prev(0) != m - 1 || m == 2);
    let mut path = Vec::with_capacity(m);
    let mut c = 0usize;
    for _ in 0..m {
        path.push(c as u32);
        c = if step_next {
            tour.next(c)
        } else {
            tour.prev(c)
        };
    }
    debug_assert_eq!(path[m - 1] as usize, m - 1, "virtual edge was broken");

    let new_cost: i64 = path
        .windows(2)
        .map(|p| inst.dist(w[p[0] as usize] as usize, w[p[1] as usize] as usize))
        .sum();
    if new_cost >= old_cost {
        *settled = w;
        return 0;
    }
    for (i, &li) in path.iter().enumerate() {
        let slot = (start + i) % n;
        let city = w[li as usize];
        order[slot] = city;
        pos[city as usize] = slot as u32;
    }
    old_cost - new_cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    fn small_cfg(shards: usize, seed: u64) -> ShardConfig {
        let mut cfg = ShardConfig {
            shards,
            kicks_per_shard: 10,
            window: 48,
            ..ShardConfig::default()
        };
        cfg.clk.seed = seed;
        cfg
    }

    #[test]
    fn sharded_solve_yields_valid_tour() {
        let inst = generate::uniform(600, 10_000.0, 31);
        for shards in [2, 4, 7] {
            let res = shard_solve(&inst, &small_cfg(shards, 9));
            assert!(res.tour.is_valid(), "shards={shards}");
            assert_eq!(res.tour.len(), inst.len());
            assert_eq!(res.length, res.tour.length(&inst), "shards={shards}");
            assert_eq!(res.stats.shard_count, shards);
            assert!(res.stats.seam_cities > 0);
            assert!(res.stats.refine_gain >= 0);
        }
    }

    #[test]
    fn fixed_seed_reruns_bit_identical() {
        let inst = generate::uniform(500, 10_000.0, 17);
        let cfg = small_cfg(4, 77);
        let a = shard_solve(&inst, &cfg);
        let b = shard_solve(&inst, &cfg);
        assert_eq!(a.length, b.length);
        assert_eq!(a.tour.order(), b.tour.order());
    }

    #[test]
    fn one_shard_bit_identical_to_unsharded_engine() {
        let inst = generate::uniform(300, 10_000.0, 5);
        let cfg = small_cfg(1, 123);
        let sharded = shard_solve(&inst, &cfg);
        let neighbors = cfg.clk.build_neighbors(&inst);
        let mut engine = ClkEngine::auto(&inst, &neighbors, cfg.clk.clone());
        let direct = engine.run(&Budget::kicks(cfg.kicks_per_shard));
        assert_eq!(sharded.length, direct.length);
        assert_eq!(sharded.tour.order(), direct.tour.order());
    }

    #[test]
    fn refinement_never_loses_length() {
        let inst = generate::uniform(800, 10_000.0, 3);
        let res = shard_solve(&inst, &small_cfg(8, 1));
        assert_eq!(
            res.length,
            res.stats.stitched_length - res.stats.refine_gain,
            "refine gain accounting"
        );
        assert!(res.length <= res.stats.stitched_length);
    }

    #[test]
    fn known_optimum_grid_stays_near_optimal() {
        // 40x40 unit grid, optimum 1600. The sharded pipeline must stay
        // within a few percent — seams cost something, but stitching
        // along k-d planes on a grid is nearly free.
        let inst = generate::grid_known_optimum(40, 40, 10.0);
        let mut cfg = small_cfg(4, 7);
        cfg.kicks_per_shard = 30;
        let res = shard_solve(&inst, &cfg);
        let excess = inst.excess(res.length).unwrap();
        assert!(
            excess <= 0.05,
            "sharded grid gap {excess:.4} above 5% (len {})",
            res.length
        );
    }

    #[test]
    fn refine_window_improves_a_bad_seam() {
        // A tour with a deliberately crossed seam in the middle; one
        // window pass must uncross it without moving the fixed ends.
        let inst = generate::uniform(64, 1_000.0, 21);
        let mut order: Vec<u32> = (0..64u32).collect();
        // Shuffle the middle deterministically to create crossings.
        order[20..44].reverse();
        order.swap(25, 40);
        order.swap(28, 33);
        let mut pos = vec![0u32; 64];
        for (i, &c) in order.iter().enumerate() {
            pos[c as usize] = i as u32;
        }
        let before: i64 = order_length(&inst, &order);
        let mut settled = Vec::new();
        let gain = refine_window(&inst, &mut order, &mut pos, 32, 32, &mut settled);
        let after: i64 = order_length(&inst, &order);
        assert_eq!(before - after, gain);
        assert!(gain >= 0);
        // Still a permutation.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64u32).collect::<Vec<_>>());
    }

    #[test]
    fn skipping_settled_windows_changes_nothing() {
        // Reference: the same rounds with nothing remembered, every
        // window searched every time.
        let inst = generate::uniform(3_000, 10_000.0, 41);
        let cfg = small_cfg(8, 5);
        let part = Partition::build(&inst, cfg.shards);
        let mut cycles: Vec<Option<Vec<u32>>> = (0..part.shard_count())
            .map(|s| Some(solve_one_shard(&inst, &part, s, &cfg).0))
            .collect();
        let mut seams = Vec::new();
        let mut pos = vec![0u32; inst.len()];
        let stitched = stitch_rec(
            &inst,
            &part,
            part.root(),
            &mut cycles,
            24,
            &mut seams,
            &mut pos,
        );
        seams.sort_unstable();
        seams.dedup();

        let mut want = stitched.clone();
        for (i, &c) in want.iter().enumerate() {
            pos[c as usize] = i as u32;
        }
        let (mut want_gain, mut want_rounds) = (0i64, 0usize);
        loop {
            let mut round_gain = 0;
            for &c in &seams {
                let center = pos[c as usize] as usize;
                round_gain += refine_window(
                    &inst,
                    &mut want,
                    &mut pos,
                    center,
                    cfg.window,
                    &mut Vec::new(),
                );
            }
            want_rounds += 1;
            want_gain += round_gain;
            if round_gain == 0 {
                break;
            }
        }
        assert!(
            want_gain > 0 && want_rounds >= 2,
            "nothing to refine: pick another instance"
        );

        let mut got = stitched;
        let (gain, rounds) = refine_seams(&inst, &mut got, &seams, &cfg);
        assert_eq!((gain, rounds), (want_gain, want_rounds));
        assert_eq!(got, want);
    }

    #[test]
    fn merge_cycles_produces_one_cycle() {
        let inst = generate::uniform(40, 1_000.0, 8);
        let part = Partition::build(&inst, 2);
        let a: Vec<u32> = part.shard(0).to_vec();
        let b: Vec<u32> = part.shard(1).to_vec();
        let (axis, value) = match part.node(part.root()) {
            PartitionNode::Split { axis, .. } => (axis, part.split_value(part.root())),
            _ => unreachable!(),
        };
        let mut seams = Vec::new();
        let mut pos = vec![0u32; 40];
        let merged = merge_cycles(&inst, a, b, axis, value, 8, &mut seams, &mut pos);
        assert_eq!(merged.len(), 40);
        let mut sorted = merged.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40u32).collect::<Vec<_>>());
        assert_eq!(seams.len(), 4);
    }
}
