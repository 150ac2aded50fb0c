//! Running every workload, each in a process of its own (so that
//! `peak_rss_mb` is that workload's), and `--selfcheck`: two full sets
//! back to back, compared against the bounds of `BENCHMARK.json`.

use std::process::{Command, Stdio};

use crate::harness::{Args, END_TO_END, OUT_DIR, PER_LAYER, WORKLOADS};
use crate::json::Json;

/// Run one workload in a child process; its output is passed through.
/// Returns the child's result object and the file it left in `out/`.
fn child(workload: &str, args: &Args, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()]);
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", out.status))?;
    if !out.status.success() {
        return Err(format!("{workload}: {} with result {result}", out.status));
    }
    let file = format!(
        "{OUT_DIR}/{workload}{}.json",
        if trace { "-layers" } else { "" }
    );
    let full = std::fs::read_to_string(&file)
        .map_err(|e| format!("{file}: {e}"))
        .and_then(|t| Json::parse(&t))?;
    Ok((result, full))
}

fn value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn print_table(title: &str, table: &[(&str, &str)], results: &[(&str, Json)]) {
    println!("\n{title}");
    print!("  {:<40}", "metric");
    for (workload, _) in results {
        print!(" {workload:>20}");
    }
    println!();
    for (metric, unit) in table {
        print!("  {:<40}", format!("{metric} [{unit}]"));
        for (_, result) in results {
            match value(result, metric) {
                Some(v) => print!(" {v:>20.6}"),
                None => print!(" {:>20}", "-"),
            }
        }
        println!();
    }
}

/// One JSON document per workload that ran.
type PerWorkload = Vec<(&'static str, Json)>;

/// One set: every workload end to end, and traced as well with `--trace`.
fn run_set(args: &Args, failures: &mut Vec<String>) -> (PerWorkload, PerWorkload) {
    let mut end_to_end = Vec::new();
    let mut diagnostics = Vec::new();
    let mut layers = Vec::new();
    for workload in WORKLOADS {
        match child(workload, args, false) {
            Ok((result, full)) => {
                end_to_end.push((*workload, result));
                diagnostics.push((*workload, full));
            }
            Err(e) => failures.push(e),
        }
        if args.trace {
            match child(workload, args, true) {
                Ok((result, _)) => layers.push((*workload, result)),
                Err(e) => failures.push(e),
            }
        }
    }
    print_table(
        "end-to-end metrics (medians; all lower-is-better)",
        END_TO_END,
        &end_to_end,
    );
    if args.trace {
        print_table(
            "per-layer metrics (traced run; 0 = layer not on this workload's path)",
            PER_LAYER,
            &layers,
        );
    }
    for (workload, result) in end_to_end.iter().chain(&layers) {
        println!(
            "  {workload}: operations attempted {} failed {}",
            result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            result.get("failed").and_then(Json::as_f64).unwrap_or(0.0)
        );
    }
    (end_to_end, diagnostics)
}

fn report_failures(failures: &[String]) -> bool {
    for f in failures {
        println!("FAILED: {f}");
    }
    failures.is_empty()
}

pub fn run_all(args: &Args) -> bool {
    let mut failures = Vec::new();
    run_set(args, &mut failures);
    report_failures(&failures)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// `(metric, bound)` of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = Json::parse(&text)?;
    spec.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_arr()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Relative difference of two readings of a metric, and whether it
/// stays within `bound` in either direction.
pub fn compare(first: f64, second: f64, bound: f64) -> (f64, bool) {
    let rel = (second - first) / first;
    (rel, rel.abs() <= bound)
}

pub fn selfcheck(args: &Args) -> bool {
    let mut failures = Vec::new();
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => return report_failures(&[e]),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let untraced = Args {
        trace: false,
        ..args.clone()
    };
    let (first, diag_first) = run_set(&untraced, &mut failures);
    let (second, diag_second) = run_set(&untraced, &mut failures);

    println!("\nselfcheck: two sets of the same code, seed {}", args.seed);
    println!(
        "  {:<20} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    let mut rows = Vec::new();
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for (metric, bound) in &bounds {
            let (Some(x), Some(y)) = (value(a, metric), value(b, metric)) else {
                failures.push(format!("{workload}: {metric} missing from a set"));
                continue;
            };
            let (rel, pass) = compare(x, y, *bound);
            println!(
                "  {workload:<20} {metric:<24} {x:>14.6} {y:>14.6} {:>+9.2} {:>7.1}  {}",
                100.0 * rel,
                100.0 * bound,
                if pass { "PASS" } else { "FAIL" }
            );
            if !pass {
                failures.push(format!(
                    "{workload}: {metric} moved {:+.2} % between sets, bound {:.1} %",
                    100.0 * rel,
                    100.0 * bound
                ));
            }
            rows.push(Json::obj([
                ("workload", Json::str(*workload)),
                ("metric", Json::str(metric.clone())),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("relative_difference", Json::Num(rel)),
                ("bound", Json::Num(*bound)),
                ("pass", Json::Bool(pass)),
            ]));
        }
    }
    if first.len() != WORKLOADS.len() || second.len() != WORKLOADS.len() {
        failures.push("a set is incomplete".into());
    }

    // Thread use: CPU seconds over wall seconds of the measured
    // section. The solver workloads must keep one processor busy (a
    // tenth of slack for the 10 ms CPU clock), the service at most all.
    let mut disturbance = Vec::new();
    for (workload, full) in diag_first.iter().chain(&diag_second) {
        let diag = full.get("diagnostics");
        let busy = diag
            .and_then(|d| d.get("cpu_over_wall"))
            .and_then(Json::as_f64);
        let limit = if workload.starts_with("svc") {
            nproc as f64
        } else {
            1.1
        };
        match busy {
            Some(b) if b <= limit => {}
            other => failures.push(format!(
                "{workload}: kept {other:?} processors busy, limit {limit}"
            )),
        }
        disturbance.push(Json::obj([
            ("workload", Json::str(*workload)),
            ("cpu_over_wall", busy.map_or(Json::Null, Json::Num)),
            (
                "solve_s",
                diag.and_then(|d| d.get("solve_s"))
                    .cloned()
                    .unwrap_or(Json::Null),
            ),
        ]));
    }

    let ok = failures.is_empty();
    let rustc = rustc_version();
    let summary = Json::obj([
        ("pass", Json::Bool(ok)),
        ("seed", Json::Num(args.seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(rustc.clone())),
        ("comparisons", Json::Arr(rows)),
        ("disturbance", Json::Arr(disturbance)),
        (
            "failures",
            Json::Arr(failures.iter().map(Json::str).collect()),
        ),
    ]);
    let file = format!("{OUT_DIR}/selfcheck.json");
    if let Err(e) = std::fs::write(&file, summary.to_string()) {
        println!("cannot write {file}: {e}");
    }
    println!(
        "\nselfcheck {} on {nproc} processors ({rustc}); details in {file}",
        if ok { "PASSED" } else { "FAILED" },
    );
    report_failures(&failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_is_relative_to_the_first_reading_and_two_sided() {
        assert!(compare(2.0, 2.1, 0.1).1);
        assert!(!compare(2.0, 2.3, 0.1).1);
        assert!(!compare(2.0, 1.7, 0.1).1);
        let (rel, _) = compare(4.0, 5.0, 0.1);
        assert!((rel - 0.25).abs() < 1e-12);
    }
}
