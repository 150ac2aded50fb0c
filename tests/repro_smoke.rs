//! Smoke tests for the experiment library: every `repro` experiment
//! must run end-to-end at micro scale and produce a well-formed report.
//! (The real numbers come from `cargo run --release --bin repro`; this
//! guards the plumbing.)

use std::collections::BTreeSet;

use dist_clk::bench::experiments;
use dist_clk::bench::testbed::Scale;

fn micro() -> Scale {
    Scale {
        runs: 1,
        clk_kicks: 30,
        size_factor: 0.07,
        nodes: 4,
        kicks_per_call: 3,
    }
}

#[test]
fn every_experiment_id_is_known() {
    // Don't run them all here (cost): the ids are distinct, and an id
    // outside the table is refused.
    let ids: BTreeSet<&str> = experiments::ALL.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids.len(), experiments::ALL.len(), "duplicate experiment id");
    assert!(experiments::run("definitely-not-an-experiment", &micro()).is_none());
}

#[test]
fn table4_micro_runs() {
    let report = experiments::run("table4", &micro()).expect("known id");
    assert_eq!(report.id, "table4");
    assert!(report.markdown.contains("| Instance |"));
    assert!(!report.csv.is_empty());
}

#[test]
fn table5_micro_runs() {
    let report = experiments::run("table5", &micro()).expect("known id");
    assert!(report.markdown.contains("Random-Walk"));
}

#[test]
fn messages_micro_runs() {
    let report = experiments::run("messages", &micro()).expect("known id");
    assert!(report.markdown.contains("Broadcasts"));
}

#[test]
fn variator_micro_runs() {
    let report = experiments::run("variator", &micro()).expect("known id");
    assert!(report.markdown.contains("Run A"));
    assert!(report.markdown.contains("Run B"));
}

#[test]
fn figure3_micro_runs() {
    let report = experiments::run("figure3", &micro()).expect("known id");
    // Three configurations per instance.
    assert!(
        report.csv.len() >= 6,
        "expected ≥6 series, got {}",
        report.csv.len()
    );
}
