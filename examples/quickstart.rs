//! Quickstart: solve a TSP instance with Chained Lin-Kernighan.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dist_clk::lk::{Budget, ChainedLk, ChainedLkConfig};
use dist_clk::tsp_core::{generate, NeighborLists};
use std::time::Duration;

fn main() {
    // A 1000-city uniform random instance (the DIMACS E1k recipe).
    let inst = generate::uniform(1000, 1_000_000.0, 42);
    println!("instance: {} ({} cities)", inst.name(), inst.len());

    // Candidate lists: 10 nearest neighbors per city.
    let neighbors = NeighborLists::build(&inst, 10);

    // Chained LK with the default Random-walk kicking strategy.
    let mut engine = ChainedLk::new(&inst, &neighbors, ChainedLkConfig::default());

    // 2 seconds of wall time, like `linkern -t 2`.
    let result = engine.run(&Budget::time(Duration::from_secs(2)));

    println!(
        "best tour: {} after {} kicks in {:.2}s",
        result.length, result.kicks, result.seconds
    );
    // The trace starts at the construction tour: a caller holds a tour
    // long before the first LK pass is through (`run_with` hands them
    // over as they come).
    let (first_secs, _, first_len) = result.trace.points()[0];
    println!(
        "first tour: {first_len} after {:.1} ms (Quick-Borůvka)",
        first_secs * 1e3
    );
    println!("tours reported: {}", result.trace.points().len());

    // Compare against the Held-Karp lower bound.
    let hk =
        dist_clk::heldkarp::held_karp_bound(&inst, &dist_clk::heldkarp::AscentConfig::default());
    let gap = (result.length - hk.bound) as f64 / hk.bound as f64 * 100.0;
    println!("Held-Karp bound: {} (gap {:.2}%)", hk.bound, gap);
}
