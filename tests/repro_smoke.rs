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

/// FNV-1a-64 over a report's markdown and every CSV series (name,
/// header, rows), each string closed by a zero byte.
fn digest(report: &dist_clk::bench::Report) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |s: &str| {
        for b in s.bytes().chain([0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(&report.markdown);
    for (name, header, rows) in &report.csv {
        eat(name);
        eat(header);
        for row in rows {
            eat(row);
        }
    }
    h
}

/// The experiments whose reports hold no wall-clock figure are pinned
/// byte for byte: every seed, budget, instance, row and format of
/// Tables 1, 3, 4, 5 and the budget sweep, recorded at micro scale
/// before the experiments shared one runner.
#[test]
fn deterministic_reports_are_pinned() {
    let pinned = [
        ("table1", 0xb8df_6018_b5b5_b193u64),
        ("table3", 0xd140_6794_31ba_258c),
        ("table4", 0x5d9f_467e_5f1e_887d),
        ("table5", 0xa7fd_e709_2737_ad2b),
        ("tune", 0x32f7_db7e_23fb_c086),
    ];
    let got: Vec<(&str, u64)> = pinned
        .iter()
        .map(|&(id, _)| {
            (
                id,
                digest(&experiments::run(id, &micro()).expect("known id")),
            )
        })
        .collect();
    for (&(id, want), &(_, have)) in pinned.iter().zip(&got) {
        assert_eq!(
            have, want,
            "{id}: report digest {have:#018x}, pinned {want:#018x}"
        );
    }
}
