//! Run the distributed algorithm over *real TCP sockets* on localhost:
//! hub bootstrap, hypercube wiring, then the Fig. 1 node loop on every
//! endpoint — the full deployment path of the paper's §2.2, in one
//! process.
//!
//! ```text
//! cargo run --release --example tcp_cluster
//! ```

use dist_clk::distclk::driver::run_over_transports;
use dist_clk::distclk::DistConfig;
use dist_clk::lk::Budget;
use dist_clk::p2p::hub::bootstrap_local;
use dist_clk::p2p::{Topology, Transport};
use dist_clk::tsp_core::{generate, NeighborLists};

fn main() {
    let nodes = 8;
    let inst = generate::uniform(800, 1_000_000.0, 11);
    let neighbors = NeighborLists::build(&inst, 10);
    println!("bootstrapping {} TCP nodes in a hypercube via hub…", nodes);

    let endpoints = bootstrap_local(nodes, Topology::Hypercube).expect("bootstrap");
    // Wait briefly until every reverse edge registered.
    dist_clk::p2p::wait_until(
        || {
            endpoints
                .iter()
                .enumerate()
                .all(|(i, e)| e.neighbors().len() == Topology::Hypercube.neighbors(i, nodes).len())
        },
        std::time::Duration::from_secs(3),
    );
    for (i, e) in endpoints.iter().enumerate() {
        println!(
            "node {i} @ {} — neighbors {:?}",
            e.listen_addr(),
            e.neighbors()
        );
    }

    let cfg = DistConfig {
        nodes,
        topology: Topology::Hypercube,
        clk_kicks_per_call: 20,
        budget: Budget::kicks(10),
        seed: 2,
        ..Default::default()
    };
    let result = run_over_transports(&inst, &neighbors, &cfg, endpoints);

    println!("\nper-node results:");
    for r in &result.nodes {
        println!(
            "  node {}: best {} ({} CLK calls, {} broadcasts, {} received)",
            r.id, r.best_length, r.clk_calls, r.broadcasts, r.received
        );
    }
    println!("\nnetwork best: {}", result.best_length);
}
