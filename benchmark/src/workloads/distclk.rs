//! `distclk-drill2k-8n`: the paper's headline configuration — eight
//! DistCLK nodes on a hypercube — on its hardest instance class.
//!
//! A 2 000-hole drill plate (`generate::drill_plate`, the in-tree
//! analogue of fl1577/fl3795) with hybrid α-nearness candidates; each
//! node makes 12 CLK calls of 20 kicks, scheduled by the single-threaded
//! lockstep driver. It uses the `lk` engine *differently* from
//! `clk-e50k` (array tour, small n, 104 full CLK calls instead of one
//! long chain) and is the only workload where `heldkarp`,
//! `distclk::node`/`perturb` and the message fan-out run.

use std::time::Instant;

use dist_clk::distclk::{self, DistConfig, NodeDriver, NodeResult};
use dist_clk::heldkarp::{held_karp_bound, AscentConfig};
use dist_clk::lk::{Budget, CandidateKind, ChainedLkConfig, ClkEngine, Trace};
use dist_clk::p2p::InMemoryNetwork;
use dist_clk::tsp_core::{generate, tsplib, Instance, NeighborLists};

use super::{Rep, Solved, SolverWorkload};
use crate::harness::{Args, Report};
use crate::input::{Quality, INSTANCE_SEED};
use crate::json::Json;
use crate::probes;
use crate::span::Tracer;
use crate::stats::{median, quantile};

const NODES: usize = 8;
const CALLS_PER_NODE: u64 = 12;
const KICKS_PER_CALL: u64 = 20;
/// `held_karp_bound(drill_plate(2000, INSTANCE_SEED), AscentConfig::default())`,
/// committed so that the yardstick stays put when the ascent changes;
/// the traced run recomputes it and notes any difference.
const HELD_KARP_BOUND: f64 = 1_783_102.0;
/// First tour 106.81 %, final 104.55…105.70 % over 320 seeds. The
/// network best falls in a few large steps at lockstep-round boundaries,
/// so the time at which it passes any level below the first tour is
/// mostly seed luck: timed over a run's 8 seeds it spread by 12…30 %
/// (interquartile, of the median) between runs of unchanged code, with
/// the network-best time and with the times pooled over all nodes alike,
/// which no 25 % bound can gate. The timed target is therefore a level
/// the first tour meets — `time_to_target_s` reads `time_to_first_tour_s`
/// here — and progress below it is reported as an exact count instead:
/// `distclk.calls_to_target`, CLK calls to [`LAYER_TARGET_PCT`].
const TARGET_PCT: f64 = 107.0;
const LAYER_TARGET_PCT: f64 = 106.5;

pub struct DistclkDrill2k {
    text: String,
    quality: Quality,
}

pub struct Ready {
    inst: Instance,
    neighbors: NeighborLists,
}

impl DistclkDrill2k {
    pub fn new(args: &Args) -> DistclkDrill2k {
        let n = if args.smoke { 200 } else { 2_000 };
        let inst = generate::drill_plate(n, INSTANCE_SEED);
        let quality = if args.smoke {
            Quality {
                reference: held_karp_bound(&inst, &AscentConfig::default()).bound as f64,
                target_pct: 200.0,
            }
        } else {
            Quality {
                reference: HELD_KARP_BOUND,
                target_pct: TARGET_PCT,
            }
        };
        DistclkDrill2k {
            text: tsplib::write_instance(&inst),
            quality,
        }
    }
}

fn config(seed: u64) -> DistConfig {
    DistConfig {
        nodes: NODES,
        clk: ChainedLkConfig {
            candidates: CandidateKind::Hybrid,
            neighbor_k: 10,
            ..Default::default()
        },
        clk_kicks_per_call: KICKS_PER_CALL,
        budget: Budget::kicks(CALLS_PER_NODE),
        seed,
        ..Default::default()
    }
}

fn fingerprint(messages: (u64, u64, u64)) -> Vec<u64> {
    vec![messages.0, messages.1, messages.2]
}

/// Nanoseconds the nodes' `lk` engines report for themselves: the
/// `clk.call.ns` and `clk.step.ns` histograms an operator scrapes.
fn engine_ns(nodes: &[NodeResult]) -> f64 {
    nodes
        .iter()
        .flat_map(|n| {
            ["clk.call.ns", "clk.step.ns"].map(|h| n.metrics.histogram(h).map_or(0, |h| h.sum))
        })
        .sum::<u64>() as f64
}

impl SolverWorkload for DistclkDrill2k {
    type Ready = Ready;
    const NAME: &'static str = "distclk-drill2k-8n";
    /// The α-nearness ascent makes a set-up cost 60 % of a repetition.
    const SETUP_EVERY: usize = 3;

    fn quality(&self) -> Quality {
        self.quality
    }

    fn instance<'a>(&self, ready: &'a Ready) -> &'a Instance {
        &ready.inst
    }

    fn setup(&self, tr: &mut Tracer) -> Ready {
        let inst = tr.span("tsp_core.parse", 0, |_| {
            tsplib::parse_instance(&self.text).expect("own TSPLIB text parses")
        });
        let neighbors = tr.span("heldkarp.hybrid_build", 0, |_| {
            distclk::build_neighbors(&inst, &config(0))
        });
        Ready { inst, neighbors }
    }

    fn solve(&self, ready: &Ready, seed: u64) -> Solved {
        let res = distclk::run_lockstep(&ready.inst, &ready.neighbors, &config(seed));
        Solved {
            tour: res.best_tour,
            length: res.best_length,
            trace: res.network_trace,
            fingerprint: fingerprint(res.messages),
            details: Vec::new(),
        }
    }

    /// `run_lockstep` with the node loop in the harness: one
    /// `NodeDriver` per in-memory endpoint, stepped round-robin.
    fn replica(&self, ready: &Ready, seed: u64, request: u64, tr: &mut Tracer) -> Solved {
        let cfg = config(seed);
        let (endpoints, stats) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
        let mut live: Vec<Option<NodeDriver<'_, _>>> = endpoints
            .into_iter()
            .map(|ep| {
                Some(tr.span("distclk.node.new", request, |_| {
                    NodeDriver::new(&ready.inst, &ready.neighbors, &cfg, ep)
                }))
            })
            .collect();
        let mut nodes: Vec<NodeResult> = Vec::with_capacity(live.len());
        loop {
            let mut any_live = false;
            for slot in live.iter_mut() {
                let Some(node) = slot else { continue };
                if tr.span("distclk.node.step", request, |_| node.step()) {
                    any_live = true;
                } else {
                    nodes.push(slot.take().expect("just matched Some").finish());
                }
            }
            if !any_live {
                break;
            }
        }
        nodes.sort_by_key(|n| n.id);
        let best = nodes
            .iter()
            .min_by_key(|n| n.best_length)
            .expect("eight nodes");
        let tour = best.best_tour.clone();
        let messages = stats.snapshot();
        let traces: Vec<Trace> = nodes.iter().map(|n| n.trace.clone()).collect();
        Solved {
            length: tour.length(&ready.inst),
            tour,
            trace: Trace::network_best(&traces),
            fingerprint: fingerprint(messages),
            details: vec![
                ("engine_ns", engine_ns(&nodes)),
                (
                    "broadcasts",
                    nodes.iter().map(|n| n.broadcasts).sum::<u64>() as f64,
                ),
                ("messages", messages.0 as f64),
                ("wire_bytes", messages.1 as f64),
            ],
        }
    }

    fn layers(&self, ready: &Ready, replicas: &[Rep], tr: &Tracer, report: &mut Report) {
        report.set("tsp_core.parse_s", tr.total_s("tsp_core.parse"));
        report.set(
            "heldkarp.hybrid_build_s",
            tr.total_s("heldkarp.hybrid_build"),
        );

        let steps_ms: Vec<f64> = tr
            .durations_ns("distclk.node.step")
            .iter()
            .map(|ns| ns * 1e-6)
            .collect();
        report.set("distclk.node_step_ms_p50", median(&steps_ms));
        report.set("distclk.node_step_ms_p90", quantile(&steps_ms, 0.9));
        // Everything a node does around its engine: perturbation, tour
        // selection, message handling, bookkeeping.
        let node_ns = 1e9 * (tr.total_s("distclk.node.new") + tr.total_s("distclk.node.step"));
        let engine: f64 = replicas.iter().map(|r| r.detail("engine_ns")).sum();
        report.set(
            "distclk.step_overhead_pct",
            100.0 * (node_ns - engine) / node_ns,
        );

        // Exact counts of the first seed's run.
        let first = &replicas[0];
        let layer_target = Quality {
            target_pct: LAYER_TARGET_PCT,
            ..self.quality
        };
        report.set(
            "distclk.calls_to_target",
            first
                .trace
                .kicks_to_reach(layer_target.target_length())
                .map_or(0.0, |k| k as f64),
        );
        report.set("distclk.broadcasts", first.detail("broadcasts"));
        report.set("distclk.messages", first.detail("messages"));
        report.set("distclk.wire_bytes", first.detail("wire_bytes"));

        // One bare CLK call of the size a node makes, on a tour that a
        // double bridge just perturbed.
        let mut engine = ClkEngine::auto(&ready.inst, &ready.neighbors, config(0).clk);
        let mut tour = engine.construct_tour();
        engine.optimize_tour(&mut tour);
        let calls_ms: Vec<f64> = (0..20)
            .map(|_| {
                tour.random_double_bridge(engine.rng_mut());
                let started = Instant::now();
                engine.clk_call(&mut tour, KICKS_PER_CALL, &mut |_| false);
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        report.set("lk.a2k.clk_call_ms", median(&calls_ms));
        report.set("tsp_core.flip_array_ns", probes::flip_ns(&mut tour));

        let ascent = held_karp_bound(&ready.inst, &AscentConfig::default());
        report.set("heldkarp.ascent_iters", ascent.iterations as f64);
        report.note("held_karp_bound", Json::Num(ascent.bound as f64));
        report.note(
            "held_karp_bound_is_reference",
            Json::Bool(ascent.bound as f64 == self.quality.reference),
        );
    }
}
