//! `clk-e50k`: one Chained-LK engine on 50 000 uniform cities.
//!
//! The size at which `ClkEngine::auto` switches to the two-level list.
//! About half the time is construction plus the first full LK pass, the
//! other half 400 kick steps that each pay an O(n) snapshot (and, when
//! rejected, rebuild) of the tour — the workload where `lk` and
//! `tsp_core::twolevel` do all the work and `p2p`/`distclk` none.

use dist_clk::lk::{Budget, ChainedLk, ChainedLkConfig, ClkEngine, Stopwatch, Trace};
use dist_clk::tsp_core::{generate, tsplib, Instance, NeighborLists, Tour, TourRep, TwoLevelList};

use super::{Rep, Solved, SolverWorkload};
use crate::harness::{Args, Report};
use crate::input::{Quality, INSTANCE_SEED};
use crate::probes;
use crate::span::Tracer;
use crate::stats::{median, quantile};

const SIDE: f64 = 1e6;
const KICKS: u64 = 400;
/// First tour 103.09 %, final 102.67…102.82 % over 320 seeds; today's
/// engine passes 103.0 % after about 80 of the 400 kicks: late enough
/// that the kick loop, not only the first pass, decides when, and early
/// enough that every seed gets there. Deeper levels cannot be timed:
/// seeds differ by ±0.05 % at any kick, a sixth of all the kicks gain.
const TARGET_PCT: f64 = 103.0;

pub struct ClkE50k {
    text: String,
    quality: Quality,
}

pub struct Ready {
    inst: Instance,
    neighbors: NeighborLists,
}

impl ClkE50k {
    pub fn new(args: &Args) -> ClkE50k {
        let n = if args.smoke { 5_000 } else { 50_000 };
        // Smoke instances have their own quality levels; any tour passes.
        let target_pct = if args.smoke { 200.0 } else { TARGET_PCT };
        ClkE50k {
            text: tsplib::write_instance(&generate::uniform(n, SIDE, INSTANCE_SEED)),
            quality: Quality::uniform(n, SIDE, target_pct),
        }
    }
}

fn config(seed: u64) -> ChainedLkConfig {
    ChainedLkConfig {
        seed,
        ..Default::default()
    }
}

/// `ChainedLk::run_rep` step by step on representation `R`.
fn staged<R: TourRep + Send + Sync>(
    engine: &mut ChainedLk<'_>,
    request: u64,
    tr: &mut Tracer,
) -> Solved {
    let inst = engine.instance();
    let watch = Stopwatch::start();
    let start = tr.span("lk.construct", request, |_| engine.construct_tour());
    let before = start.length(inst);
    let mut rep = tr.span("tsp_core.from_tour", request, |_| R::from_tour(&start));
    let mut best = before - tr.span("lk.first_pass", request, |_| engine.optimize(&mut rep));
    let mut trace = Trace::new();
    trace.record(watch.secs(), 0, best);
    for kick in 1..=KICKS {
        let len = tr.span("lk.chain_step", request, |_| {
            engine.chain_step(&mut rep, best)
        });
        if len < best {
            best = len;
            trace.record(watch.secs(), kick, best);
        }
    }
    let tour = tr.span("tsp_core.to_tour", request, |_| rep.to_tour());
    Solved {
        tour,
        length: best,
        trace,
        fingerprint: Vec::new(),
        details: Vec::new(),
    }
}

impl SolverWorkload for ClkE50k {
    type Ready = Ready;
    const NAME: &'static str = "clk-e50k";
    const SETUP_EVERY: usize = 1;

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
        let neighbors = tr.span("tsp_core.knn_build", 0, |_| {
            config(0).build_neighbors(&inst)
        });
        Ready { inst, neighbors }
    }

    fn solve(&self, ready: &Ready, seed: u64) -> Solved {
        let mut engine = ClkEngine::auto(&ready.inst, &ready.neighbors, config(seed));
        let res = engine.run(&Budget::kicks(KICKS));
        Solved {
            tour: res.tour,
            length: res.length,
            trace: res.trace,
            fingerprint: Vec::new(),
            details: Vec::new(),
        }
    }

    fn replica(&self, ready: &Ready, seed: u64, request: u64, tr: &mut Tracer) -> Solved {
        let cfg = config(seed);
        let two_level = ready.inst.len() >= cfg.tl_threshold;
        let mut engine = ChainedLk::new(&ready.inst, &ready.neighbors, cfg);
        if two_level {
            staged::<TwoLevelList>(&mut engine, request, tr)
        } else {
            staged::<Tour>(&mut engine, request, tr)
        }
    }

    fn layers(&self, ready: &Ready, replicas: &[Rep], tr: &Tracer, report: &mut Report) {
        let per_rep = |name: &str| tr.total_s(name) / replicas.len() as f64;
        report.set("tsp_core.parse_s", tr.total_s("tsp_core.parse"));
        report.set("tsp_core.knn_build_s", tr.total_s("tsp_core.knn_build"));
        report.set("lk.construct_s", per_rep("lk.construct"));
        report.set("lk.first_pass_s", per_rep("lk.first_pass"));
        let steps_us: Vec<f64> = tr
            .durations_ns("lk.chain_step")
            .iter()
            .map(|ns| ns * 1e-3)
            .collect();
        report.set("lk.kick_step_us_p50", median(&steps_us));
        report.set("lk.kick_step_us_p90", quantile(&steps_us, 0.9));

        // Exact counts of the first seed's chain.
        let chain = &replicas[0].trace;
        report.set(
            "lk.kick_improve_ratio",
            (chain.points().len() - 1) as f64 / KICKS as f64,
        );
        report.set(
            "lk.kicks_to_target",
            chain
                .kicks_to_reach(self.quality.target_length())
                .map_or(0.0, |k| k as f64),
        );

        let n = ready.inst.len();
        let order = Tour::identity(n);
        report.set(
            "tsp_core.flip_twolevel_ns",
            probes::flip_ns(&mut TwoLevelList::from_tour(&order)),
        );
        report.set(
            "tsp_core.twolevel_from_order_us",
            probes::twolevel_from_order_us(order.order()),
        );
    }
}
