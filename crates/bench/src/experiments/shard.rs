//! `shard` — divide-and-optimize sharding: million-city instances
//! across the cluster.
//!
//! Each size point partitions the instance into balanced k-d regions,
//! runs the full CLK engine per shard across the in-memory star
//! network ([`distclk::run_sharded_threads`]), stitches the sub-tours
//! along the partition tree, and refines the seams with pinned-edge
//! windows. The sweep records, per size: the shard/node counts, the
//! largest shard (the per-node working-set bound), the solve / stitch /
//! refine wall-time split, and the stitched vs refined lengths.
//!
//! Contract checks riding along, all recorded in the `shard` section of
//! `target/repro/BENCH_lk.json`:
//!
//! - **permutations valid** — every stitched tour is a permutation;
//! - **reruns identical** — the fixed-seed pipeline is bit-stable
//!   (checked by rerunning each point up to the rerun cap);
//! - **one-shard identity** — `shards = 1` reproduces the unsharded
//!   engine exactly;
//! - **grid bound** — a known-optimum grid stays within 5% of optimal
//!   through partition + stitch + refine;
//! - **gap bound** — at the gap-check size, sharded vs unsharded
//!   tour quality differs by at most 5%.
//!
//! ```text
//! cargo run --release -p bench -- shard            # 200k → 1M sweep
//! cargo run --release -p bench -- shard --smoke    # CI-fast
//! ```

use std::fmt::Write as _;

use distclk::{run_sharded_threads, ShardDistConfig};
use lk::shard::{shard_solve, ShardConfig};
use lk::{Budget, ClkEngine};
use tsp_core::{generate, Instance};

use crate::report::{fmt_secs, Report};
use crate::testbed::Scale;

/// One sharded size point.
struct ShardPoint {
    n: usize,
    shards: usize,
    nodes: usize,
    max_shard_cities: usize,
    solve_secs: f64,
    stitch_secs: f64,
    refine_secs: f64,
    total_secs: f64,
    stitched_len: i64,
    length: i64,
    refine_gain: i64,
    seam_cities: usize,
    messages: u64,
    wire_bytes: u64,
    /// `None` when the rerun was skipped (above the rerun size cap).
    rerun_identical: Option<bool>,
    permutation_valid: bool,
}

fn shard_cfg(shards: usize, nodes: usize, kicks: u64, seed: u64) -> ShardDistConfig {
    let mut cfg = ShardDistConfig {
        nodes,
        ..ShardDistConfig::default()
    };
    cfg.shard.shards = shards;
    cfg.shard.kicks_per_shard = kicks;
    cfg.shard.clk.seed = seed;
    cfg
}

fn measure(inst: &Instance, shards: usize, nodes: usize, kicks: u64, seed: u64, rerun: bool) -> ShardPoint {
    let cfg = shard_cfg(shards, nodes, kicks, seed);
    let res = run_sharded_threads(inst, &cfg);
    let rerun_identical = rerun.then(|| {
        let again = run_sharded_threads(inst, &cfg);
        again.tour.order() == res.tour.order() && again.length == res.length
    });
    ShardPoint {
        n: inst.len(),
        shards: res.stats.shard_count,
        nodes,
        max_shard_cities: res.stats.max_shard_cities,
        solve_secs: res.stats.solve_seconds,
        stitch_secs: res.stats.stitch_seconds,
        refine_secs: res.stats.refine_seconds,
        total_secs: res.wall_seconds,
        stitched_len: res.stats.stitched_length,
        length: res.length,
        refine_gain: res.stats.refine_gain,
        seam_cities: res.stats.seam_cities,
        messages: res.messages.0,
        wire_bytes: res.messages.1,
        rerun_identical,
        permutation_valid: res.tour.is_valid(),
    }
}

/// Sharded vs unsharded quality at one size, same per-engine kick
/// budget. The acceptance bound is 5%.
struct GapCheck {
    n: usize,
    sharded_len: i64,
    unsharded_len: i64,
}

impl GapCheck {
    /// Fractional quality gap of the sharded tour vs the unsharded one
    /// (negative when sharding wins).
    fn gap(&self) -> f64 {
        (self.sharded_len - self.unsharded_len) as f64 / self.unsharded_len as f64
    }
    fn within_bound(&self) -> bool {
        self.gap() <= 0.05
    }
}

fn gap_check(inst: &Instance, shards: usize, kicks: u64, seed: u64) -> GapCheck {
    let mut sharded = ShardConfig {
        shards,
        kicks_per_shard: kicks,
        ..ShardConfig::default()
    };
    sharded.clk.seed = seed;
    let mut unsharded = sharded.clone();
    unsharded.shards = 1;
    GapCheck {
        n: inst.len(),
        sharded_len: shard_solve(inst, &sharded).length,
        unsharded_len: shard_solve(inst, &unsharded).length,
    }
}

/// `shards = 1` through the full distributed entry point must
/// reproduce the plain engine bit-for-bit.
fn one_shard_identity(n: usize, kicks: u64, seed: u64) -> bool {
    let inst = generate::uniform(n, 1_000_000.0, seed);
    let cfg = shard_cfg(1, 4, kicks, seed);
    let dist = run_sharded_threads(&inst, &cfg);
    let nl = cfg.shard.clk.build_neighbors(&inst);
    let mut engine = ClkEngine::auto(&inst, &nl, cfg.shard.clk.clone());
    let res = engine.run(&Budget::kicks(kicks));
    dist.tour.order() == res.tour.order() && dist.length == res.length
}

/// Dispatcher entry (registry + `bench all`): sweep sized by the scale.
pub fn run(scale: &Scale) -> Report {
    run_mode(scale.size_factor < 1.0)
}

/// Run the sweep. `smoke` keeps sizes CI-friendly; full mode runs the
/// headline 200k → 1M sweep.
pub fn run_mode(smoke: bool) -> Report {
    // (cities, shards, kicks_per_shard, rerun?): shard counts grow with
    // size so the per-node working set stays near ~16k cities; the
    // bit-identity rerun is capped at 200k so the 1M point costs one
    // pipeline pass, not two (the determinism contract is already
    // asserted at every smaller size and in the unit/property suites).
    let points: &[(usize, usize, u64, bool)] = if smoke {
        &[(3_000, 6, 10, true), (6_000, 8, 10, true)]
    } else {
        &[
            (200_000, 16, 30, true),
            (500_000, 32, 25, false),
            (1_000_000, 64, 20, false),
        ]
    };
    let nodes = 4;
    let seed = 4242u64;

    let mut report = Report::new(
        "shard",
        format!(
            "Divide-and-optimize sharding ({} sweep)",
            if smoke { "smoke" } else { "full" }
        ),
    );
    report.para(
        "Balanced k-d partition, full CLK per shard across in-memory \
         nodes, greedy boundary stitch along the partition tree, \
         pinned-edge window refinement over the seams. `max shard` is \
         the per-node working-set bound; solve/stitch/refine split the \
         collector's wall clock.",
    );

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut results = Vec::new();
    for &(n, shards, kicks, rerun) in points {
        let inst = generate::uniform(n, 1_000_000.0, seed);
        let p = measure(&inst, shards, nodes, kicks, seed, rerun);
        rows.push(vec![
            p.n.to_string(),
            p.shards.to_string(),
            p.max_shard_cities.to_string(),
            fmt_secs(p.solve_secs),
            fmt_secs(p.stitch_secs),
            fmt_secs(p.refine_secs),
            fmt_secs(p.total_secs),
            p.length.to_string(),
            p.refine_gain.to_string(),
            p.rerun_identical
                .map_or_else(|| "skipped".into(), |m| m.to_string()),
        ]);
        csv.push(format!(
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{},{},{}",
            p.n,
            p.shards,
            p.max_shard_cities,
            p.solve_secs,
            p.stitch_secs,
            p.refine_secs,
            p.total_secs,
            p.length,
            p.refine_gain,
            p.rerun_identical.map_or_else(String::new, |m| m.to_string())
        ));
        results.push(p);
    }
    report.table(
        &[
            "cities", "shards", "max shard", "solve", "stitch", "refine", "total", "length",
            "refine gain", "rerun identical",
        ],
        &rows,
    );
    report.series(
        "sweep",
        "n,shards,max_shard_cities,solve_secs,stitch_secs,refine_secs,total_secs,len,refine_gain,rerun_identical",
        csv,
    );

    // Known-optimum grid through the full pipeline.
    let grid = generate::grid_known_optimum(40, 40, 10.0);
    let grid_res = run_sharded_threads(&grid, &shard_cfg(4, nodes, 30, 7));
    let grid_excess = grid
        .excess(grid_res.length)
        .expect("grid has a known optimum");
    report.para(&format!(
        "40×40 known-optimum grid: sharded length {} = optimum +{:.2}% \
         (bound 5%).",
        grid_res.length,
        grid_excess * 100.0
    ));

    // Sharded vs unsharded quality gap at the largest rerun-checked
    // size (the acceptance size in full mode).
    let (gap_n, gap_shards, gap_kicks) = if smoke {
        (6_000, 8, 10)
    } else {
        (200_000, 16, 30)
    };
    let gap_inst = generate::uniform(gap_n, 1_000_000.0, seed);
    let gap = gap_check(&gap_inst, gap_shards, gap_kicks, seed);
    report.para(&format!(
        "Quality gap at {} cities: sharded {} vs unsharded {} = {:+.2}% \
         (bound 5%).",
        gap.n,
        gap.sharded_len,
        gap.unsharded_len,
        gap.gap() * 100.0
    ));

    let one_shard_ok = one_shard_identity(2_000, 10, seed);
    report.para(&format!("One-shard identity: {one_shard_ok}."));

    let permutations_valid = results.iter().all(|p| p.permutation_valid);
    let reruns_identical = results
        .iter()
        .all(|p| p.rerun_identical.unwrap_or(true));
    assert!(permutations_valid, "sharded tour is not a permutation");
    assert!(reruns_identical, "fixed-seed sharded rerun diverged");
    assert!(one_shard_ok, "one-shard run diverged from unsharded engine");

    write_bench_json(
        &mut report,
        smoke,
        seed,
        &results,
        grid_excess,
        &gap,
        one_shard_ok,
    );
    report
}

/// Machine-readable `shard` section of `target/repro/BENCH_lk.json`.
fn write_bench_json(
    report: &mut Report,
    smoke: bool,
    seed: u64,
    results: &[ShardPoint],
    grid_excess: f64,
    gap: &GapCheck,
    one_shard_ok: bool,
) {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"experiment\": \"shard\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(
        json,
        "  \"permutations_valid\": {},",
        results.iter().all(|p| p.permutation_valid)
    );
    let _ = writeln!(
        json,
        "  \"reruns_identical\": {},",
        results.iter().all(|p| p.rerun_identical.unwrap_or(true))
    );
    let _ = writeln!(json, "  \"one_shard_identical\": {one_shard_ok},");
    let _ = writeln!(json, "  \"grid_excess\": {grid_excess:.6},");
    let _ = writeln!(
        json,
        "  \"grid_within_bound\": {},",
        grid_excess <= 0.05
    );
    let _ = writeln!(
        json,
        "  \"gap\": {{\"n\": {}, \"sharded_len\": {}, \"unsharded_len\": {}, \
         \"gap_pct\": {:.4}, \"within_bound\": {}}},",
        gap.n,
        gap.sharded_len,
        gap.unsharded_len,
        gap.gap() * 100.0,
        gap.within_bound()
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, p) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"shards\": {}, \"nodes\": {}, \
             \"max_shard_cities\": {}, \"solve_secs\": {:.6}, \
             \"stitch_secs\": {:.6}, \"refine_secs\": {:.6}, \
             \"total_secs\": {:.6}, \"stitched_len\": {}, \"len\": {}, \
             \"refine_gain\": {}, \"seam_cities\": {}, \
             \"messages\": {}, \"wire_bytes\": {}, \
             \"permutation_valid\": {}, \"rerun_identical\": {}}}{}",
            p.n,
            p.shards,
            p.nodes,
            p.max_shard_cities,
            p.solve_secs,
            p.stitch_secs,
            p.refine_secs,
            p.total_secs,
            p.stitched_len,
            p.length,
            p.refine_gain,
            p.seam_cities,
            p.messages,
            p.wire_bytes,
            p.permutation_valid,
            p.rerun_identical
                .map_or_else(|| "null".into(), |m| m.to_string()),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    match crate::report::merge_bench_json("shard", &json) {
        Ok(path) => report.para(&format!(
            "Machine-readable: `{}` (section `shard`).",
            path.display()
        )),
        Err(e) => report.para(&format!("_Failed to write BENCH_lk.json: {e}._")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_runs_and_writes_json() {
        let report = run_mode(true);
        assert!(report.markdown.contains("max shard"));
        assert!(report.csv.iter().any(|(n, _, _)| n == "sweep"));
        let json = std::fs::read_to_string(Report::out_dir().join("BENCH_lk.json"))
            .expect("BENCH_lk.json written");
        assert!(json.contains("\"shard\":"));
        assert!(json.contains("\"permutations_valid\": true"));
        assert!(json.contains("\"reruns_identical\": true"));
        assert!(json.contains("\"one_shard_identical\": true"));
        assert!(json.contains("\"grid_within_bound\": true"));
        assert!(json.contains("\"within_bound\": true"));
    }
}
