//! ISSUE acceptance criterion: the live telemetry plane must cost at
//! most 2% on a fixed-seed distributed CLK run, with bit-identical
//! tours.
//!
//! Methodology as in `lk/tests/obs_overhead.rs` (the PR 2 bound):
//! on/off pairs in alternating order, failing only if every pair is
//! over the bound, so scheduler noise and thermal drift hit both
//! variants equally and cannot fail the test from one side.

use std::sync::Arc;
use std::time::{Duration, Instant};

use distclk::{run_lockstep_telemetry_over, DistConfig, TelemetryAttach};
use lk::Budget;
use p2p::{InMemoryNetwork, TelemetryStore};
use tsp_core::{generate, NeighborLists};

const N_CITIES: usize = 300;
const NODES: usize = 4;
const CALLS: u64 = 8;
const KICKS_PER_CALL: u64 = 12;
const MAX_PAIRS: usize = 7;

fn cfg() -> DistConfig {
    DistConfig {
        nodes: NODES,
        budget: Budget::kicks(CALLS),
        clk_kicks_per_call: KICKS_PER_CALL,
        seed: 4242,
        ..Default::default()
    }
}

/// One lockstep run; `telemetry_every > 0` attaches a live store and
/// ships a frame from every node every round (the heaviest cadence).
fn run_once(
    inst: &tsp_core::Instance,
    nl: &NeighborLists,
    telemetry_every: u64,
) -> (Duration, i64, Vec<u32>) {
    let mut cfg = cfg();
    cfg.telemetry_every = telemetry_every;
    let telemetry =
        (telemetry_every > 0).then(|| (TelemetryStore::shared(), TelemetryAttach::AllNodes));
    let (endpoints, stats) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
    let start = Instant::now();
    let res = run_lockstep_telemetry_over(inst, nl, &cfg, endpoints, Some(stats), telemetry);
    (
        start.elapsed(),
        res.best_length,
        res.best_tour.order().to_vec(),
    )
}

/// Shipping a frame every round must not perturb the search: same
/// seed, same tour, with and without the live plane.
#[test]
fn telemetry_does_not_change_the_search_trajectory() {
    let inst = generate::uniform(N_CITIES, 100_000.0, 4242);
    let nl = NeighborLists::build(&inst, 10);
    let (_, len_off, tour_off) = run_once(&inst, &nl, 0);
    let (_, len_on, tour_on) = run_once(&inst, &nl, 1);
    assert_eq!(len_off, len_on, "telemetry changed the fixed-seed result");
    assert_eq!(tour_off, tour_on, "telemetry changed the fixed-seed tour");
}

/// The headline bound: live telemetry within 2% of a plain run.
#[test]
fn telemetry_overhead_under_two_percent() {
    let inst = generate::uniform(N_CITIES, 100_000.0, 4242);
    let nl = NeighborLists::build(&inst, 10);

    // Warm-up: touch caches, trigger lazy init, page in the code.
    run_once(&inst, &nl, 0);
    run_once(&inst, &nl, 1);

    // Per-pair overhead, then the *minimum* over pairs (the form
    // `zero_churn_overhead_under_two_percent` uses): a systematic cost
    // taxes every pair, while a descheduling spike on one side cannot
    // survive the min unless it hits the "on" run of every pair — so
    // the first pair inside the bound settles it. Two separate minima,
    // as here before, let one quiet "off" run set a bar no "on" run of
    // a busier moment could meet.
    let mut overhead = f64::MAX;
    for round in 0..MAX_PAIRS {
        // Alternate which side runs first, so drift within a pair
        // favours neither.
        let (t_off, t_on) = if round % 2 == 0 {
            let off = run_once(&inst, &nl, 0).0;
            (off, run_once(&inst, &nl, 1).0)
        } else {
            let on = run_once(&inst, &nl, 1).0;
            (run_once(&inst, &nl, 0).0, on)
        };
        // Keep the workload long enough that 2% clears timer
        // resolution; if this fires, raise CALLS/KICKS_PER_CALL rather
        // than loosening the bound.
        assert!(
            t_off > Duration::from_millis(50),
            "workload too short ({t_off:?}) for a meaningful 2% bound; raise the budget"
        );
        let off = t_off.as_secs_f64();
        overhead = overhead.min((t_on.as_secs_f64() - off) / off);
        if overhead <= 0.02 {
            return;
        }
    }
    panic!(
        "telemetry overhead {:.2}% exceeds the 2% budget in every one of {MAX_PAIRS} pairs",
        overhead * 100.0
    );
}

/// A keep-alive for the Arc-sharing contract: the caller's handle sees
/// the frames the run shipped.
#[test]
fn callers_store_handle_sees_the_run() {
    let inst = generate::uniform(120, 100_000.0, 7);
    let nl = NeighborLists::build(&inst, 8);
    let mut c = cfg();
    c.budget = Budget::kicks(3);
    c.telemetry_every = 1;
    let store = TelemetryStore::shared();
    let (endpoints, stats) = InMemoryNetwork::build(c.nodes, c.topology);
    run_lockstep_telemetry_over(
        &inst,
        &nl,
        &c,
        endpoints,
        Some(stats),
        Some((Arc::clone(&store), TelemetryAttach::AllNodes)),
    );
    assert_eq!(store.nodes().len(), NODES);
    assert!(store.merged_snapshot().counter("telemetry.frames") >= NODES as u64);
}
