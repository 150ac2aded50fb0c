//! Golden trajectories: constants recorded from the search as it stood
//! before a change that must not alter a single decision. Every LK probe
//! order, commit, flip and RNG draw feeds these numbers, so a change
//! that claims bit-identity (a faster test, a cheaper data structure)
//! must leave them exactly as they are. A change that means to alter
//! the search re-records them and says so.
//!
//! Small on purpose: a 300-hole drill plate, a few dozen kicks, so the
//! file stays fast in debug builds.

use distclk::{run_lockstep, DistConfig};
use lk::{Budget, CandidateKind, ChainedLkConfig, ClkEngine};
use obs::Obs;
use tsp_core::{generate, Instance, NeighborLists};

const PLATE_N: usize = 300;
const PLATE_SEED: u64 = 7;

/// `(seed, final length, Σ clk.step.flips)` of a 60-kick array run.
const CLK_ARRAY: [(u64, i64, u64); 3] = [
    (1, 543_120, 12_048),
    (2, 542_420, 13_870),
    (3, 542_420, 13_985),
];
/// The same three runs on the two-level list.
const CLK_TWO_LEVEL: [(u64, i64, u64); 3] = [
    (1, 543_120, 12_048),
    (2, 542_420, 13_870),
    (3, 542_420, 13_985),
];

/// Best length and `(messages, wire bytes, tour broadcasts)` of the
/// 8-node lockstep run.
const LOCKSTEP_BEST: i64 = 542_420;
const LOCKSTEP_MESSAGES: (u64, u64, u64) = (32, 24_688, 20);

fn plate() -> (Instance, ChainedLkConfig, NeighborLists) {
    let inst = generate::drill_plate(PLATE_N, PLATE_SEED);
    let cfg = ChainedLkConfig {
        candidates: CandidateKind::Hybrid,
        ..Default::default()
    };
    let nl = cfg.build_neighbors(&inst);
    (inst, cfg, nl)
}

/// How a test builds its engine.
type Build = for<'a> fn(&'a Instance, &'a NeighborLists, ChainedLkConfig) -> ClkEngine<'a>;

fn clk_runs(build: Build) -> Vec<(u64, i64, u64)> {
    let (inst, cfg, nl) = plate();
    (1..=3)
        .map(|seed| {
            let cfg = ChainedLkConfig {
                seed,
                ..cfg.clone()
            };
            let mut engine = build(&inst, &nl, cfg);
            let obs = Obs::for_node(0);
            engine.attach_obs(obs.clone());
            let res = engine.run(&Budget::kicks(60));
            assert_eq!(res.tour.length(&inst), res.length);
            (
                seed,
                res.length,
                obs.histogram("clk.step.flips").snapshot().sum,
            )
        })
        .collect()
}

fn check_clk(build: Build, pinned: &[(u64, i64, u64)]) {
    assert_eq!(clk_runs(build), pinned);
}

#[test]
fn clk_array_trajectories_are_pinned() {
    check_clk(
        |inst, nl, cfg| ClkEngine::with_representation(inst, nl, cfg, false),
        &CLK_ARRAY,
    );
}

#[test]
fn clk_two_level_trajectories_are_pinned() {
    check_clk(
        |inst, nl, cfg| ClkEngine::with_representation(inst, nl, cfg, true),
        &CLK_TWO_LEVEL,
    );
}

/// The array on Hilbert-ordered cities, which `auto` picks at and above
/// the threshold, must hit the array's constants.
#[test]
fn clk_spatial_trajectories_are_pinned() {
    check_clk(
        |inst, nl, cfg| {
            let engine = ClkEngine::auto(
                inst,
                nl,
                ChainedLkConfig {
                    tl_threshold: 0,
                    ..cfg
                },
            );
            assert_eq!(engine.representation(), "spatial");
            engine
        },
        &CLK_ARRAY,
    );
}

#[test]
fn lockstep_run_is_pinned() {
    let (inst, clk, nl) = plate();
    let cfg = DistConfig {
        nodes: 8,
        clk,
        budget: Budget::kicks(4),
        ..Default::default()
    };
    let res = run_lockstep(&inst, &nl, &cfg);
    assert_eq!(
        (res.best_length, res.messages),
        (LOCKSTEP_BEST, LOCKSTEP_MESSAGES)
    );
}
