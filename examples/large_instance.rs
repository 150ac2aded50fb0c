//! Large-instance workflow: divide-and-optimize sharding
//! (`lk::shard_solve`) on `n` uniform cities — balanced k-d partition,
//! full CLK per shard (the shards in parallel, one per core), stitch
//! along the partition tree, pinned-edge seam refinement. Shards hold
//! about 16k cities each, so the working set of one engine stays bounded
//! however large `n` gets; this is the recipe behind the 200k → 1M table
//! in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release --example large_instance [n]
//! cargo run --release --example large_instance 1000000   # 64 shards, ~5 s on 2 cores, ~10 s on 1
//! ```

use dist_clk::lk::{shard_solve, ShardConfig};
use dist_clk::tsp_core::generate;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let seed = 4242;
    println!("generating {n} uniform cities…");
    let inst = generate::uniform(n, 1_000_000.0, seed);

    let mut cfg = ShardConfig {
        shards: (n / 15_625).max(1).next_power_of_two(),
        kicks_per_shard: 20,
        ..ShardConfig::default()
    };
    cfg.clk.seed = seed;

    let t = std::time::Instant::now();
    let res = shard_solve(&inst, &cfg);
    let total = t.elapsed().as_secs_f64();
    assert!(res.tour.is_valid(), "sharded tour is not a permutation");

    let s = &res.stats;
    // What `shard_solve` spends outside its three timed phases is the
    // k-d partition (and one closing length recomputation).
    let partition = total - s.solve_seconds - s.stitch_seconds - s.refine_seconds;
    println!(
        "{} shards, largest {} cities, {} seam cities",
        s.shard_count, s.max_shard_cities, s.seam_cities
    );
    println!(
        "partition {partition:.2}s  solve {:.2}s  stitch {:.2}s  refine {:.2}s  total {total:.2}s",
        s.solve_seconds, s.stitch_seconds, s.refine_seconds
    );
    println!(
        "length {} (stitched {}, refinement gained {})",
        res.length, s.stitched_length, s.refine_gain
    );
}
