//! A kick step's work must not grow with the instance: the LK search
//! runs on a virtual path and only committed chains (and the undo of a
//! rejected kick) flip the tour. `clk.step.flips` counts exactly those
//! flips, and a count repeats where a timing would flake. (A test binary
//! of its own so it does not load the cores under the timing bound in
//! `obs_overhead.rs`.)

use lk::{Budget, ChainedLk, ChainedLkConfig};
use obs::Obs;
use tsp_core::{generate, NeighborLists};

/// Mean of `clk.step.flips` over 200 chained iterations on an n-city
/// uniform instance: the flips one kick step really applies to the tour.
fn mean_flips_per_kick(n: usize) -> f64 {
    let inst = generate::uniform(n, 1_000_000.0, 4242);
    let nl = NeighborLists::build(&inst, 10);
    let mut engine = ChainedLk::new(&inst, &nl, ChainedLkConfig::default());
    let obs = Obs::for_node(0);
    engine.attach_obs(obs.clone());
    engine.run(&Budget::kicks(200));
    let flips = obs.histogram("clk.step.flips").snapshot();
    assert_eq!(flips.count, 200);
    flips.mean()
}

#[test]
fn flips_per_kick_do_not_grow_with_n() {
    let small = mean_flips_per_kick(2_000);
    let large = mean_flips_per_kick(20_000);
    assert!(small > 0.0);
    assert!(
        large <= 1.3 * small,
        "flips per kick step grew from {small:.0} at n = 2 000 to {large:.0} at n = 20 000"
    );
}
