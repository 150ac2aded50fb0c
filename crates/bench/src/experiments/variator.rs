//! **§4.2.1** — variator strength and restarts case study.
//!
//! The paper walks through two runs on fi10639: run A needs only weak
//! perturbation (strength briefly 2, then a better tour resets it);
//! run B climbs through strengths 2, 3, 4 before a node finds a better
//! tour. We log every strength change and restart of two seeds and
//! print the same narrative timeline.

use distclk::NodeEvent;
use lk::KickStrategy;

use crate::experiments::common::{dist_config, run_dist_many};
use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new("variator", "Variator strength & restarts (paper §4.2.1)");
    let inst = scale.stand_in("fi10639", 2600, 256, 18).inst;

    let mut cfg = dist_config(scale, KickStrategy::RandomWalk(50), scale.nodes, 0);
    // Lower thresholds so strength dynamics are visible at our scaled
    // budgets (the paper's c_v=64 needs thousands of iterations).
    cfg.c_v = 4;
    cfg.c_r = 24;
    let runs = run_dist_many(&inst, &cfg, 2, 0xAB, None);

    let mut csv = Vec::new();
    for (label, run) in ["A", "B"].iter().zip(runs.iter()) {
        let mut rows = Vec::new();
        let mut improvements = 0usize;
        let mut max_strength = 1u32;
        let mut restarts = 0usize;
        for n in &run.nodes {
            for e in &n.events {
                match e {
                    NodeEvent::Improved {
                        secs,
                        length,
                        local,
                    } => {
                        improvements += 1;
                        csv.push(format!(
                            "{label},{},{secs:.4},improved,{length},{}",
                            n.id,
                            if *local { "local" } else { "received" }
                        ));
                    }
                    NodeEvent::StrengthChanged { secs, strength } => {
                        max_strength = max_strength.max(*strength);
                        rows.push(vec![
                            format!("node {}", n.id),
                            format!("{secs:.3}s"),
                            format!("NumPerturbations -> {strength}"),
                        ]);
                        csv.push(format!("{label},{},{secs:.4},strength,{strength},", n.id));
                    }
                    NodeEvent::Restart { secs } => {
                        restarts += 1;
                        rows.push(vec![
                            format!("node {}", n.id),
                            format!("{secs:.3}s"),
                            "restart (c_r exceeded)".into(),
                        ]);
                        csv.push(format!("{label},{},{secs:.4},restart,,", n.id));
                    }
                    _ => {}
                }
            }
        }
        report.para(&format!(
            "**Run {label}**: {improvements} improving tours across the network, \
             max perturbation strength {max_strength}, {restarts} restarts, final \
             length {}.",
            run.best_length
        ));
        if !rows.is_empty() {
            report.table(&["Node", "Time", "Event"], &rows);
        }
    }
    report.series("events", "run,node,secs,event,value,source", csv);
    report
}
