//! **§4 prelude** — message statistics of the distributed runs.
//!
//! The paper reports: ~84.9 broadcasts per 8-node run on sw24978, ~11
//! messages per node, most broadcasts early in the run, negligible
//! total communication. We reproduce every statistic from the shared
//! network counters and the per-node event logs.

use distclk::NodeEvent;
use lk::KickStrategy;

use crate::experiments::common::{dist_config, run_dist_many};
use crate::report::Report;
use crate::testbed::Scale;

pub fn run(scale: &Scale) -> Report {
    let mut report = Report::new("messages", "Message statistics (paper §4 prelude)");
    let inst = scale.stand_in("sw24978", 4000, 256, 19).inst;
    let cfg = dist_config(scale, KickStrategy::RandomWalk(50), scale.nodes, 0x99);
    let runs = run_dist_many(&inst, &cfg, scale.runs, 0x99, None);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut total_broadcasts = 0u64;
    let mut first10_fracs: Vec<f64> = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let broadcasts = r.total_broadcasts();
        total_broadcasts += broadcasts;
        let (msgs, bytes, tours) = r.messages;
        // When (fraction of per-node budget) were the first 10 local
        // improvements broadcast?
        let mut times: Vec<f64> = r
            .nodes
            .iter()
            .flat_map(|n| {
                n.events.iter().filter_map(|e| match e {
                    NodeEvent::Improved {
                        secs, local: true, ..
                    } => Some(*secs),
                    _ => None,
                })
            })
            .collect();
        times.sort_by(f64::total_cmp);
        let horizon = r
            .nodes
            .iter()
            .map(|n| n.seconds)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        times.truncate(10);
        let frac = times.last().map_or(0.0, |t| t / horizon);
        first10_fracs.push(frac);
        rows.push(vec![
            format!("run {i}"),
            broadcasts.to_string(),
            format!("{:.1}", broadcasts as f64 / scale.nodes as f64),
            msgs.to_string(),
            bytes.to_string(),
            format!("{:.1}%", frac * 100.0),
        ]);
        csv.push(format!("{i},{broadcasts},{msgs},{bytes},{tours},{frac:.4}"));
    }

    report.para(&format!(
        "{} runs of {} nodes on a road-like instance (n = {}). 'First-10 point' is \
         the fraction of the run's horizon at which the 10th tour broadcast had \
         happened — the paper observes the first 10 messages within the first ~4% of \
         the budget.",
        runs.len(),
        scale.nodes,
        inst.len()
    ));
    report.table(
        &[
            "Run",
            "Broadcasts",
            "Broadcasts/node",
            "Messages",
            "Wire bytes",
            "First-10 point",
        ],
        &rows,
    );
    report.para(&format!(
        "Average broadcasts per run: {:.1}; average first-10 point: {:.1}% of the run.",
        total_broadcasts as f64 / runs.len() as f64,
        100.0 * first10_fracs.iter().sum::<f64>() / first10_fracs.len().max(1) as f64
    ));
    report.series(
        "stats",
        "run,broadcasts,messages,bytes,tour_msgs,first10_frac",
        csv,
    );
    report
}
