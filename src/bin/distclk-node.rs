//! Deployable cluster binary: run the hub or a compute node as
//! separate OS processes, communicating over real TCP — the paper's
//! deployment shape (§2.2: hub + 8 nodes on a switched Ethernet).
//!
//! ```text
//! # terminal 1: the hub for an 8-node hypercube
//! distclk-node hub 127.0.0.1:7000 8
//!
//! # terminals 2..9: the nodes
//! distclk-node node 127.0.0.1:7000 --instance E1000 --seconds 10
//! ```
//!
//! Every node prints its best tour length on exit; collect the minimum
//! (the paper: "the best result … has to be collected from the local
//! output of each node", §2.3). After bootstrap the hub serves `JOB`
//! only (see `p2p::hub`) until the process is killed.

use std::time::Duration;

use dist_clk::distclk::{DistConfig, NodeDriver};
use dist_clk::lk::Budget;
use dist_clk::p2p::hub::{join_via_hub, LifecycleHub};
use dist_clk::p2p::tcp::TcpEndpoint;
use dist_clk::p2p::{Topology, Transport};
use dist_clk::tsp_core::{generate, tsplib, Instance, NeighborLists};

fn usage() -> ! {
    eprintln!(
        "usage:\n  distclk-node hub <bind-addr> <expected-nodes> [topology]\n  \
         distclk-node node <hub-addr> [--instance SPEC] [--seconds N] [--calls N] [--seed N]\n\n\
         SPEC: a .tsp file path, or E<n>/C<n>/fl<n>/pcb<n>/road<n> (e.g. E1000)"
    );
    std::process::exit(2);
}

fn parse_instance(spec: &str) -> Instance {
    if spec.ends_with(".tsp") {
        return tsplib::read_instance(spec).expect("read TSPLIB file");
    }
    let split = spec
        .find(|c: char| c.is_ascii_digit())
        .unwrap_or_else(|| usage());
    let n: usize = spec[split..].parse().unwrap_or_else(|_| usage());
    // Fixed seed: every node must build the *same* instance.
    generate::testbed_instance(spec, n, 1).unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("hub") => {
            let bind = args.get(1).unwrap_or_else(|| usage());
            let expected: usize = args
                .get(2)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage());
            let topology = args
                .get(3)
                .and_then(|s| Topology::by_name(s))
                .unwrap_or(Topology::Hypercube);
            let hub = LifecycleHub::start(bind, expected, topology).expect("start hub");
            println!(
                "hub listening on {} for {expected} nodes ({topology:?})",
                hub.addr()
            );
            // The hub serves on its own threads for the life of the process.
            loop {
                std::thread::park();
            }
        }
        Some("node") => {
            let hub_addr = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage());
            let mut spec = "E1000".to_string();
            let mut seconds: Option<u64> = None;
            let mut calls: u64 = 50;
            let mut seed: u64 = 0;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--instance" => {
                        spec = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--seconds" => {
                        seconds = args.get(i + 1).and_then(|s| s.parse().ok());
                        i += 2;
                    }
                    "--calls" => {
                        calls = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    "--seed" => {
                        seed = args
                            .get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    _ => usage(),
                }
            }

            let inst = parse_instance(&spec);
            eprintln!("node: instance {} ({} cities)", inst.name(), inst.len());
            let neighbors = NeighborLists::build(&inst, 10);

            let mut ep = TcpEndpoint::bind(usize::MAX, "0.0.0.0:0").expect("bind");
            let info = join_via_hub(hub_addr, ep.listen_addr()).expect("join via hub");
            ep.set_id(info.id);
            for (nid, addr) in &info.neighbors {
                ep.connect_to(*nid, *addr).expect("dial neighbor");
            }
            eprintln!(
                "node {} of {} joined; dialed {:?}",
                info.id,
                info.expected,
                info.neighbors.iter().map(|&(i, _)| i).collect::<Vec<_>>()
            );

            let mut budget = Budget::kicks(calls);
            if let Some(s) = seconds {
                budget = budget.with_time_limit(Duration::from_secs(s));
            }
            if let Some(opt) = inst.known_optimum() {
                budget = budget.with_target(opt);
            }
            let cfg = DistConfig {
                nodes: info.expected,
                budget,
                seed,
                ..Default::default()
            };
            let id = ep.node_id();
            let node = NodeDriver::new(&inst, &neighbors, &cfg, ep);
            let res = node.run_to_completion();
            println!(
                "node {id}: best {} after {} CLK calls ({} broadcasts, {} received, {:.1}s)",
                res.best_length, res.clk_calls, res.broadcasts, res.received, res.seconds
            );
        }
        _ => usage(),
    }
}
