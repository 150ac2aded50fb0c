//! The live telemetry plane, end to end.
//!
//! - `live_scrape_over_tcp`: four nodes bootstrap through a
//!   `LifecycleHub` over real sockets and solve a known-optimum grid
//!   while shipping telemetry frames one hop to node 0, which merges
//!   them into the hub's store; meanwhile the test thread scrapes the
//!   hub's `METRICS` and `STATUS` commands mid-run, like an external
//!   Prometheus scraper or a human with `nc`.
//! - `adopted_broadcasts_correlate_round_spans_across_nodes`: a tour
//!   migration shows in the exported trace as `node.round` spans of
//!   several nodes sharing one broadcast id. Checked on a seeded
//!   lockstep run, where it is deterministic: on a small grid every
//!   node can reach the optimum by itself and nothing migrates.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use distclk::{run_lockstep, run_over_transports_telemetry, DistConfig, TelemetryAttach};
use lk::Budget;
use obs::Obs;
use p2p::hub::{join_via_hub, scrape_metrics, scrape_status, LifecycleHub};
use p2p::tcp::TcpEndpoint;
use p2p::{TcpConfig, Topology};
use tsp_core::{generate, NeighborLists};

const NODES: usize = 4;

/// Whether a `STATUS` line has the documented 16-token shape:
/// `NODE id BEST len GAP pct RATE r STALLED s RTT ns OFFSET ns CALLS n`.
fn is_node_line(line: &str) -> bool {
    const KEYS: [&str; 8] = [
        "NODE", "BEST", "GAP", "RATE", "STALLED", "RTT", "OFFSET", "CALLS",
    ];
    let tok: Vec<&str> = line.split_whitespace().collect();
    tok.len() == 16 && KEYS.iter().enumerate().all(|(i, k)| tok[2 * i] == *k)
}

#[test]
fn live_scrape_over_tcp() {
    // Big enough that no node's first CLK pass lands on the optimum,
    // so the solve runs long enough for the scraper to catch it.
    let inst = generate::grid_known_optimum(22, 22, 100.0);
    let optimum = inst.known_optimum().expect("grid optimum is known");
    // Complete graph: telemetry frames are one hop (no routing), so
    // every node needs a direct edge to the hub holder.
    let topology = Topology::Complete;
    let cfg = DistConfig {
        nodes: NODES,
        topology,
        budget: Budget::kicks(150),
        clk_kicks_per_call: 2,
        telemetry_every: 1,
        diversify_construction: true,
        seed: 42,
        ..Default::default()
    };
    let nl = distclk::build_neighbors(&inst, &cfg);

    // The hub's scrape server and the solve share one store: frames
    // cross the node transport to node 0, node 0 ingests into this
    // Arc, and TCP scrapes on the hub port read the same view.
    let mut hub = LifecycleHub::start_with("127.0.0.1:0", NODES, topology, Obs::for_node(1000))
        .expect("start lifecycle hub");
    let store = hub.telemetry();
    store.set_reference(Some(optimum));

    let mut endpoints = Vec::with_capacity(NODES);
    for _ in 0..NODES {
        let mut ep = TcpEndpoint::bind(usize::MAX, "127.0.0.1:0").expect("bind node endpoint");
        let info = join_via_hub(hub.addr(), ep.listen_addr()).expect("join via hub");
        ep.set_id(info.id);
        for (nid, addr) in &info.neighbors {
            ep.connect_to(*nid, *addr).expect("dial neighbor");
        }
        endpoints.push(ep);
    }

    let net_cfg = TcpConfig::default();
    let hub_addr = hub.addr();
    let mut mid_run_scrapes = 0usize;
    let mut full_mid_run_scrapes = 0usize;
    let result = std::thread::scope(|scope| {
        let solver = scope.spawn(|| {
            run_over_transports_telemetry(
                &inst,
                &nl,
                &cfg,
                endpoints,
                Some((Arc::clone(&store), TelemetryAttach::NodeZero)),
            )
        });
        while !solver.is_finished() {
            if let (Ok(_), Ok(status)) = (
                scrape_metrics(hub_addr, &net_cfg),
                scrape_status(hub_addr, &net_cfg),
            ) {
                mid_run_scrapes += 1;
                if status.lines().filter(|l| is_node_line(l)).count() == NODES {
                    full_mid_run_scrapes += 1;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        solver.join().expect("solver thread panicked")
    });

    assert!(
        full_mid_run_scrapes > 0,
        "none of {mid_run_scrapes} mid-run scrapes saw {NODES} NODE lines"
    );
    assert_eq!(
        store.nodes().len(),
        NODES,
        "not every node's frames reached the hub"
    );
    let metrics = scrape_metrics(hub_addr, &net_cfg).expect("final METRICS scrape");
    assert!(
        metrics
            .lines()
            .any(|l| l == format!("telemetry_nodes_reporting {NODES}")),
        "cluster-merged gauge missing from METRICS:\n{metrics}"
    );
    assert!(result.best_tour.is_valid());
    assert_eq!(result.best_tour.length(&inst), result.best_length);
    hub.stop();
}

#[test]
fn adopted_broadcasts_correlate_round_spans_across_nodes() {
    let inst = generate::uniform(300, 100_000.0, 7);
    let nl = NeighborLists::build(&inst, 8);
    let cfg = DistConfig {
        nodes: NODES,
        budget: Budget::kicks(40),
        clk_kicks_per_call: 2,
        // Distinct starting tours: early broadcasts improve peers, who
        // adopt them, so a broadcast id shows up on several nodes.
        diversify_construction: true,
        seed: 1,
        ..Default::default()
    };
    let res = run_lockstep(&inst, &nl, &cfg);
    let per_node: Vec<_> = res.nodes.iter().map(|n| n.obs_events.clone()).collect();
    let events = obs::merge_timelines(&per_node);
    let trace = obs::chrome_trace_json(&events);
    // JSON-array flavor of the trace-event format.
    assert!(trace.trim_start().starts_with('['), "{trace}");
    assert!(trace.trim_end().ends_with(']'), "{trace}");

    let mut by_bcast: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "node.round") {
        if let Some(b) = e.field_u64("bcast") {
            by_bcast.entry(b).or_default().insert(e.node);
        }
    }
    assert!(
        by_bcast.values().any(|nodes| nodes.len() >= 2),
        "no broadcast id on the round spans of two nodes: {by_bcast:?}"
    );
    assert!(trace.contains("\"ph\":\"X\""), "no complete (span) events");
    assert!(trace.contains("node.round"), "no round spans in trace");
}
