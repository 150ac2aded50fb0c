//! What every workload shares: the metric tables, command-line
//! arguments, failure accounting, tour validation and the result line.

use std::collections::BTreeMap;

use dist_clk::tsp_core::{Instance, Tour};

use crate::json::Json;
use crate::stats::Summary;

/// `(name, unit)` of every end-to-end metric, all lower-is-better. Each
/// is reported on every workload; `BENCHMARK.json` carries the same
/// list with the regression bounds (a unit test keeps them in step).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("time_to_first_tour_s", "s"),
    ("time_to_target_s", "s"),
    ("final_len_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, prefixed with the crate
/// (and module) it measures. A traced run prints all of them; a layer
/// the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tsp_core.parse_s", "s"),
    ("tsp_core.knn_build_s", "s"),
    ("tsp_core.dist_ns", "ns"),
    ("tsp_core.partition_s", "s"),
    ("tsp_core.flip_twolevel_ns", "ns"),
    ("tsp_core.twolevel_from_order_us", "us"),
    ("tsp_core.flip_array_ns", "ns"),
    ("heldkarp.hybrid_build_s", "s"),
    ("heldkarp.ascent_iters", "count"),
    ("lk.construct_s", "s"),
    ("lk.first_pass_s", "s"),
    ("lk.kick_step_us_p50", "us"),
    ("lk.kick_step_us_p90", "us"),
    ("lk.kick_improve_ratio", "ratio"),
    ("lk.kicks_to_target", "count"),
    ("lk.a12k.first_pass_s", "s"),
    ("lk.a12k.kick_step_us_p50", "us"),
    ("lk.a2k.clk_call_ms", "ms"),
    ("lk.shard.solve_s", "s"),
    ("lk.shard.stitch_s", "s"),
    ("lk.shard.refine_s", "s"),
    ("lk.shard.refine_gain_pct", "%"),
    ("lk.shard.seam_cities", "count"),
    ("distclk.node_step_ms_p50", "ms"),
    ("distclk.node_step_ms_p90", "ms"),
    ("distclk.step_overhead_pct", "%"),
    ("distclk.calls_to_target", "count"),
    ("distclk.broadcasts", "count"),
    ("distclk.messages", "count"),
    ("distclk.wire_bytes", "bytes"),
    ("distclk.shard2n.solve_s", "s"),
    ("distclk.shard2n.wire_bytes", "bytes"),
    ("distclk.shard2n.resolved_locally", "count"),
    ("distclk.service.inproc_latency_ms_p50", "ms"),
    ("distclk.service.accept_ms_p50", "ms"),
    ("distclk.service.overhead_ms", "ms"),
    ("distclk.service.jobs_rejected", "count"),
    ("distclk.service.jobs_failed", "count"),
    ("p2p.hub.submit_rtt_ms_p50", "ms"),
    ("p2p.codec.jobsubmit_roundtrip_us", "us"),
    ("p2p.codec.encode_ns_per_city", "ns"),
    ("p2p.codec.decode_ns_per_city", "ns"),
    ("p2p.tcp.hop_rtt_us", "us"),
    ("p2p.mem.hop_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.span_ns", "ns"),
    ("obs.histogram_observe_ns", "ns"),
    ("harness.rep_spread_pct", "%"),
    ("harness.rep_max_over_median", "ratio"),
];

pub const WORKLOADS: &[&str] = &[
    "clk-e50k",
    "distclk-drill2k-8n",
    "shard-e100k-8s",
    "svc-tcp-50",
];

pub const DEFAULT_SEED: u64 = 4242;
/// Measuring window of one run when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Never fewer repetitions than this, whatever the window.
pub const MIN_REPS: usize = 9;
/// Untraced end-to-end repetitions and traced replica repetitions of a
/// `--trace 1` run.
pub const TRACE_REPS: usize = 3;
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub selfcheck: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut seconds = None;
        let mut args = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
            selfcheck: false,
        };
        let mut it = argv.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let w = value("a workload name")?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!(
                            "unknown workload {w:?}; known: {}",
                            WORKLOADS.join(", ")
                        ));
                    }
                    args.workload = Some(w);
                }
                "--seed" => {
                    args.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let s: f64 = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if s.is_nan() || s <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                // `--trace` alone means on; the driver passes `--trace 0|1`.
                "--trace" => {
                    args.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    }
                }
                "--smoke" => args.smoke = true,
                "--selfcheck" => args.selfcheck = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        // A smoke run is a functional check: a one-second window
        // unless told otherwise.
        args.seconds = seconds.unwrap_or(if args.smoke { 1.0 } else { DEFAULT_SECONDS });
        Ok(args)
    }

    /// Distinct solver seeds of a run: one fewer than the repetitions it
    /// makes at least, so that the last of those repeats the first.
    pub fn seed_slots(&self) -> usize {
        (self.min_reps() - 1).max(1)
    }

    /// Repetitions a run makes at least: [`MIN_REPS`], or 2 in smoke mode.
    pub fn min_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            MIN_REPS
        }
    }
}

/// Operations attempted and failed. An operation is one repetition of a
/// solver workload or one job of the service workload; it fails on an
/// error, a refusal, an invalid permutation, a length that differs from
/// the recomputed one, a repeat of a seed that is not bit-identical, or
/// a missed quality target.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure reasons, for the diagnostics.
    pub notes: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Count a failure of an operation that was already recorded (or of
    /// a check that belongs to no single operation).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// A tour is accepted when it is a permutation of the instance's cities
/// and its claimed length equals the length recomputed from the
/// instance.
pub fn validate_tour(inst: &Instance, tour: &Tour, claimed: i64) -> Result<(), String> {
    if tour.len() != inst.len() {
        return Err(format!(
            "tour has {} cities, instance {}",
            tour.len(),
            inst.len()
        ));
    }
    if !tour.is_valid() {
        return Err("tour is not a permutation".into());
    }
    let actual = tour.length(inst);
    if actual != claimed {
        return Err(format!("claimed length {claimed}, recomputed {actual}"));
    }
    Ok(())
}

/// [`validate_tour`] for a visiting order that arrived as plain data.
pub fn validate_order(inst: &Instance, order: &[u32], claimed: i64) -> Result<(), String> {
    let tour = Tour::try_from_order(order.to_vec())?;
    validate_tour(inst, &tour, claimed)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process (all threads, live or joined) has used.
pub fn cpu_seconds() -> f64 {
    // utime and stime: fields 14 and 15 of /proc/self/stat, counted
    // from after the parenthesised command name, in 100 Hz ticks.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Measures how many processors a section kept busy: CPU seconds over
/// wall seconds. A single-threaded section reads 1 (or less, when the
/// host took the processor away).
pub struct CpuOverWall {
    cpu: f64,
    wall: std::time::Instant,
}

impl CpuOverWall {
    pub fn start() -> CpuOverWall {
        CpuOverWall {
            cpu: cpu_seconds(),
            wall: std::time::Instant::now(),
        }
    }

    pub fn ratio(&self) -> f64 {
        (cpu_seconds() - self.cpu) / self.wall.elapsed().as_secs_f64()
    }
}

/// Metric values by name, plus free-form diagnostics, of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, f64>,
    pub diagnostics: Vec<(String, Json)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.diagnostics.push((key.to_string(), value));
    }

    pub fn note_summary(&mut self, key: &str, s: &Summary) {
        self.note(
            key,
            Json::obj([
                ("n", Json::Num(s.n as f64)),
                ("min", Json::Num(s.min)),
                ("q1", Json::Num(s.q1)),
                ("median", Json::Num(s.median)),
                ("q3", Json::Num(s.q3)),
                ("max", Json::Num(s.max)),
            ]),
        );
    }
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of `table`.
pub fn result_json(table: &[(&str, &str)], report: &Report, ops: &Ops) -> Json {
    let metrics = table.iter().map(|(name, unit)| {
        let value = report.metrics.get(*name).copied().unwrap_or(0.0);
        (
            *name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(ops.correct())),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dist_clk::tsp_core::generate;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_driver_and_human_command_lines() {
        let a = Args::parse(&argv("--workload clk-e50k --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("clk-e50k"), 7, 10.0, true)
        );
        let a = Args::parse(&argv("--trace 0 --smoke")).unwrap();
        assert!(!a.trace && a.smoke && a.workload.is_none());
        assert_eq!(
            (a.seed, a.min_reps(), a.seed_slots(), a.seconds),
            (DEFAULT_SEED, 2, 1, 1.0)
        );
        assert_eq!(
            Args::parse(&argv("--smoke --seconds 3")).unwrap().seconds,
            3.0
        );
        assert_eq!(Args::parse(&[]).unwrap().seed_slots(), MIN_REPS - 1);
        let a = Args::parse(&argv("--trace --workload svc-tcp-50")).unwrap();
        assert!(a.trace && a.workload.is_some());
        assert!(Args::parse(&argv("--workload nope")).is_err());
        assert!(Args::parse(&argv("--seconds 0")).is_err());
        assert!(Args::parse(&argv("--bogus")).is_err());
    }

    #[test]
    fn failure_accounting_counts_each_failed_operation_once() {
        let mut ops = Ops::default();
        assert!(!ops.correct(), "nothing attempted is not a pass");
        ops.record(Ok(()));
        ops.record(Ok(()));
        assert!(ops.correct());
        ops.record(Err("target missed".into()));
        assert_eq!((ops.attempted, ops.failed), (3, 1));
        ops.fail("replica diverged".into());
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert!(!ops.correct());
        assert_eq!(ops.notes, ["target missed", "replica diverged"]);
        let line = result_json(END_TO_END, &Report::default(), &ops).to_string();
        assert!(
            line.starts_with(
                "{\"correct\": false, \"attempted\": 3, \"failed\": 2, \"metrics\": {"
            ),
            "{line}"
        );
    }

    #[test]
    fn validation_rejects_bad_permutations_and_wrong_lengths() {
        let inst = generate::uniform(5, 100.0, 1);
        let tour = Tour::identity(5);
        let len = tour.length(&inst);
        assert!(validate_tour(&inst, &tour, len).is_ok());
        assert!(validate_tour(&inst, &tour, len + 1).is_err());
        assert!(validate_order(&inst, &[0, 1, 2, 3, 4], len).is_ok());
        assert!(validate_order(&inst, &[0, 1, 2, 3, 3], len).is_err());
        assert!(validate_order(&inst, &[0, 1, 2, 3], len).is_err());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let spec = Json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().into(),
                        m.get("unit").map_or("", |u| u.as_str().unwrap()).into(),
                    )
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            spec.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
        assert!(spec.get("end_to_end").unwrap().as_arr().iter().all(|m| m
            .get("better")
            .unwrap()
            .as_str()
            == Some("lower")));
    }
}
