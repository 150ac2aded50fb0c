//! **Ablations** — the design choices §2.3/§4.2 call out:
//!
//! 1. the four run modes of §4.2: default (8 nodes + DBM), 1 node,
//!    no-DBM, and both restrictions;
//! 2. the network topology (hypercube vs. ring vs. complete vs. star);
//! 3. the perturbation parameters `c_v` / `c_r`;
//! 4. the candidate-list kind (k-NN vs. α-nearness vs. hybrid) through
//!    the full distributed stack.

use distclk::driver::run_over_transports;
use distclk::NodeEvent;
use lk::KickStrategy;
use p2p::delay::DelayedTransport;
use p2p::memory::InMemoryNetwork;
use p2p::Topology;
use tsp_core::NeighborLists;

use crate::experiments::common::{dist_config, mean, mean_best, run_dist_many};
use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new("ablation", "Ablations: DBM, node count, topology, c_v/c_r");
    let inst = scale.stand_in("E1k", 1000, 256, 12).inst;
    let kick = KickStrategy::RandomWalk(50);
    let mut csv = Vec::new();

    // 1. Run modes.
    let mut rows = Vec::new();
    for (label, nodes, use_dbm) in [
        ("8 nodes + DBM (default)", scale.nodes, true),
        ("1 node + DBM", 1usize, true),
        ("8 nodes, no DBM", scale.nodes, false),
        ("1 node, no DBM", 1usize, false),
    ] {
        let mut cfg = dist_config(scale, kick, nodes, 0);
        cfg.use_dbm = use_dbm;
        let m = mean_best(&run_dist_many(&inst, &cfg, scale.runs, 0xB1, None));
        rows.push(vec![label.to_string(), format!("{m:.0}")]);
        csv.push(format!("mode,{label},{m:.1}"));
    }
    report.para("Mean best length per run mode (lower is better):");
    report.table(&["Mode", "Mean best length"], &rows);

    // 2. Topologies.
    let mut rows = Vec::new();
    for topo in [
        Topology::Hypercube,
        Topology::Ring,
        Topology::Complete,
        Topology::Star,
    ] {
        let mut cfg = dist_config(scale, kick, scale.nodes, 0);
        cfg.topology = topo;
        let runs = run_dist_many(&inst, &cfg, scale.runs, 0xB2, None);
        let m = mean_best(&runs);
        let msgs: Vec<f64> = runs.iter().map(|r| r.messages.0 as f64).collect();
        rows.push(vec![
            format!("{topo:?}"),
            format!("{m:.0}"),
            format!("{:.0}", mean(&msgs)),
        ]);
        csv.push(format!("topology,{topo:?},{m:.1}"));
    }
    report.para("Topology (8 nodes): quality vs. message volume:");
    report.table(&["Topology", "Mean best length", "Mean messages"], &rows);

    // 2c. Candidate-list kinds through the distributed stack: the
    // candidate knob is part of the wire config, so the lists every
    // node searches over come from `distclk::build_neighbors` (inside
    // `run_dist_many`), exactly as a deployment would build them.
    let mut rows = Vec::new();
    for kind in lk::CandidateKind::ALL {
        let mut cfg = dist_config(scale, kick, scale.nodes, 0);
        cfg.clk.candidates = kind;
        let m = mean_best(&run_dist_many(&inst, &cfg, scale.runs, 0xB7, None));
        rows.push(vec![kind.name().to_string(), format!("{m:.0}")]);
        csv.push(format!("candidates,{},{m:.1}", kind.name()));
    }
    report.para(
        "Candidate-list kind (k-NN vs. α-nearness vs. hybrid), same \
         width and budget, through the distributed stack:",
    );
    report.table(&["Candidate kind", "Mean best length"], &rows);

    // 2b. Network latency: inject one-way delays to test the paper's
    // "communication cost is negligible" claim directly.
    let nl = NeighborLists::build(&inst, 10);
    let mut rows = Vec::new();
    for delay_ms in [0u64, 10, 100] {
        let delay = std::time::Duration::from_millis(delay_ms);
        let runs: Vec<_> = (0..scale.runs as u64)
            .map(|run| {
                let cfg = dist_config(scale, kick, scale.nodes, 0xB4 + run);
                let (eps, _) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
                let wrapped = eps.into_iter().map(|e| DelayedTransport::new(e, delay));
                run_over_transports(&inst, &nl, &cfg, wrapped.collect())
            })
            .collect();
        let m = mean_best(&runs);
        rows.push(vec![format!("{delay_ms} ms"), format!("{m:.0}")]);
        csv.push(format!("latency,{delay_ms}ms,{m:.1}"));
    }
    report.para(
        "Injected one-way message latency (the paper argues communication cost is \
         negligible; quality should be flat across delays):",
    );
    report.table(&["One-way delay", "Mean best length"], &rows);

    // 3. c_v / c_r sweep. Two knobs differ from the other ablations:
    // the swept pairs sit *below* the paper defaults and the per-node
    // budget has a floor of 160 CLK calls. At quick scale the default
    // budget is ~20 calls — far fewer than the c_v = 64 no-improvement
    // streak needed to change perturbation strength even once, so every
    // variant used to degenerate into the same fixed-strength run and
    // all rows came out identical. The sweep must actually enter the
    // adaptive regime to measure anything.
    let mut rows = Vec::new();
    let mut cvcr_csv = Vec::new();
    for (c_v, c_r) in [(4u32, 16u32), (16, 64), (64, 256)] {
        let mut cfg = dist_config(scale, kick, scale.nodes, 0);
        cfg.c_v = c_v;
        cfg.c_r = c_r;
        cfg.budget = lk::Budget::kicks(scale.dist_calls_per_node().max(160));
        let runs = run_dist_many(&inst, &cfg, scale.runs, 0xB3, None);
        let m = mean_best(&runs);
        let mut restarts_per_run = Vec::new();
        let mut strength_changes_per_run = Vec::new();
        for (r, run) in runs.iter().enumerate() {
            let events = || run.nodes.iter().flat_map(|n| &n.events);
            let restarts = events()
                .filter(|e| matches!(e, NodeEvent::Restart { .. }))
                .count();
            let strength_changes = events()
                .filter(|e| matches!(e, NodeEvent::StrengthChanged { .. }))
                .count();
            restarts_per_run.push(restarts as f64);
            strength_changes_per_run.push(strength_changes as f64);
            cvcr_csv.push(format!(
                "{c_v}/{c_r},{r},{},{restarts},{strength_changes}",
                run.best_length
            ));
        }
        rows.push(vec![
            format!("c_v={c_v}, c_r={c_r}"),
            format!("{m:.0}"),
            format!("{:.1}", mean(&restarts_per_run)),
            format!("{:.1}", mean(&strength_changes_per_run)),
        ]);
        csv.push(format!("cvcr,{c_v}/{c_r},{m:.1}"));
    }
    report.para(
        "Perturbation parameters, swept below the paper defaults (c_v=64, \
         c_r=256) with a floor of 160 CLK calls per node so the adaptive \
         regime is actually reached:",
    );
    report.table(
        &[
            "Parameters",
            "Mean best length",
            "Mean restarts",
            "Mean strength changes",
        ],
        &rows,
    );

    report.series("ablation", "group,variant,mean_length", csv);
    report.series(
        "ablation_cvcr",
        "cv_cr,run,best_length,restarts,strength_changes",
        cvcr_csv,
    );
    report
}
