//! The four workloads, and the two drivers the three solver workloads
//! share: the end-to-end run (`--trace 0`) and the traced run
//! (`--trace 1`).

pub mod clk;
pub mod distclk;
pub mod shard;
pub mod svc;

use std::time::Instant;

use dist_clk::lk::Trace;
use dist_clk::tsp_core::{Instance, Tour};

use crate::harness::{
    peak_rss_mb, validate_tour, Args, CpuOverWall, Ops, Report, OUT_DIR, TRACE_REPS,
};
use crate::input::{rep_seed, Quality};
use crate::json::Json;
use crate::probes;
use crate::span::Tracer;
use crate::stats::{median, Summary};

/// What one solve returns to its caller.
pub struct Solved {
    pub tour: Tour,
    pub length: i64,
    /// Best-so-far `(seconds since the call began, effort, length)`
    /// points; the first is the first tour the caller holds.
    pub trace: Trace,
    /// Whatever besides the length must repeat bit-identically when a
    /// seed is repeated (message counters).
    pub fingerprint: Vec<u64>,
    /// Numbers the replica read off the layers it called, for
    /// [`SolverWorkload::layers`].
    pub details: Vec<(&'static str, f64)>,
}

/// A workload whose operation is one single-threaded solve of a fixed
/// instance under a seed.
pub trait SolverWorkload {
    /// What one set-up leaves behind: the parsed instance and whatever
    /// the solve call takes by reference.
    type Ready;
    const NAME: &'static str;
    /// A fresh set-up is made and timed before every `SETUP_EVERY`-th
    /// repetition; `setup_s` is the median over the run.
    const SETUP_EVERY: usize;

    fn quality(&self) -> Quality;
    fn instance<'a>(&self, ready: &'a Self::Ready) -> &'a Instance;

    /// What a caller pays before the first solve: parse the in-memory
    /// TSPLIB text and build what the solve call needs.
    fn setup(&self, tr: &mut Tracer) -> Self::Ready;

    /// The end-to-end path: one call of the public entry point.
    fn solve(&self, ready: &Self::Ready, seed: u64) -> Solved;

    /// The same solve rebuilt from the public functions one layer down,
    /// with a span around each call. Must end on the same length as
    /// [`SolverWorkload::solve`], which shows the decomposition is
    /// faithful.
    fn replica(&self, ready: &Self::Ready, seed: u64, request: u64, tr: &mut Tracer) -> Solved;

    /// The workload's per-layer metrics, from the replica repetitions,
    /// their spans, and probes of the layers this workload leans on.
    fn layers(&self, ready: &Self::Ready, replicas: &[Rep], tr: &Tracer, report: &mut Report);
}

/// What must repeat bit-identically when a seed is solved again: the
/// length and the workload's fingerprint.
type Outcome = (i64, Vec<u64>);

/// Timings and results of one checked repetition.
pub struct Rep {
    pub solve_s: f64,
    pub first_tour_s: f64,
    pub target_s: Option<f64>,
    pub length: i64,
    pub trace: Trace,
    pub details: Vec<(&'static str, f64)>,
}

impl Rep {
    pub fn detail(&self, name: &str) -> f64 {
        self.details
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Time one solve and check its result (untimed). `repeat_of` is the
/// result of an earlier repetition with the same seed, if any.
fn timed_rep(
    inst: &Instance,
    quality: &Quality,
    repeat_of: Option<&Outcome>,
    solve: impl FnOnce() -> Solved,
) -> (Rep, Outcome, Result<(), String>) {
    let started = Instant::now();
    let solved = solve();
    let solve_s = started.elapsed().as_secs_f64();
    let target_s = solved.trace.time_to_reach(quality.target_length());
    let mut outcome = validate_tour(inst, &solved.tour, solved.length);
    if outcome.is_ok() && target_s.is_none() {
        outcome = Err(format!(
            "target {:.3} % missed: final {:.4} %",
            quality.target_pct,
            quality.pct(solved.length)
        ));
    }
    let result = (solved.length, solved.fingerprint);
    if let (Ok(()), Some(earlier)) = (&outcome, repeat_of) {
        if *earlier != result {
            outcome = Err(format!(
                "repeat of a seed returned {result:?}, first time {earlier:?}"
            ));
        }
    }
    let rep = Rep {
        solve_s,
        first_tour_s: solved.trace.points().first().map_or(solve_s, |p| p.0),
        target_s,
        length: solved.length,
        trace: solved.trace,
        details: solved.details,
    };
    (rep, result, outcome)
}

/// `--trace 0`: repeat the solve for the measuring window (at least
/// `min_reps` times), with a fresh timed set-up every `SETUP_EVERY`
/// repetitions, and report medians.
pub fn run_end_to_end<W: SolverWorkload>(w: &W, args: &Args) -> (Report, Ops) {
    let mut report = Report::default();
    let mut ops = Ops::default();
    let quality = w.quality();

    // Set-ups are spread over the run like the repetitions, so that
    // both meet the same moods of the host: this one's speed drifts by
    // tens of percent within seconds, and set-ups bunched at the start
    // of a run would sample a single mood.
    let mut off = Tracer::disabled();
    let mut setups = Vec::new();
    let mut ready: Option<W::Ready> = None;

    let slots = args.seed_slots();
    let mut seen: Vec<Option<Outcome>> = vec![None; slots];
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    let busy = CpuOverWall::start();
    while reps.len() < args.min_reps() || measured < args.seconds {
        if reps.len().is_multiple_of(W::SETUP_EVERY) {
            // One set-up's result at a time, as in a caller's process.
            drop(ready.take());
            let started = Instant::now();
            ready = Some(w.setup(&mut off));
            setups.push(started.elapsed().as_secs_f64());
        }
        let ready = ready.as_ref().expect("repetition 0 sets up");
        let seed = rep_seed(args.seed, W::NAME, reps.len(), slots);
        let slot = reps.len() % slots;
        let (rep, result, outcome) =
            timed_rep(w.instance(ready), &quality, seen[slot].as_ref(), || {
                w.solve(ready, seed)
            });
        ops.record(outcome);
        seen[slot].get_or_insert(result);
        measured += rep.solve_s;
        reps.push(rep);
    }
    report.note("cpu_over_wall", Json::Num(busy.ratio()));

    let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let solve = column(|r| r.solve_s);
    let first = column(|r| r.first_tour_s);
    let target: Vec<f64> = reps.iter().filter_map(|r| r.target_s).collect();
    let pct: Vec<f64> = reps.iter().map(|r| quality.pct(r.length)).collect();
    report.set("setup_s", median(&setups));
    report.set("solve_s", median(&solve));
    report.set("time_to_first_tour_s", median(&first));
    report.set(
        "time_to_target_s",
        if target.is_empty() {
            0.0
        } else {
            median(&target)
        },
    );
    report.set("final_len_pct", median(&pct));
    report.set("peak_rss_mb", peak_rss_mb());
    // An operation here is a whole repetition: with so few of them no
    // percentile above the median has ten samples beyond it, so both
    // latency metrics read the median repetition.
    report.set("job_latency_p50_ms", 1e3 * median(&solve));
    report.set("job_latency_p90_ms", 1e3 * median(&solve));

    report.note("repetitions", Json::Num(reps.len() as f64));
    report.note("distinct_seeds", Json::Num(slots.min(reps.len()) as f64));
    report.note(
        "lengths",
        Json::Arr(reps.iter().map(|r| Json::Num(r.length as f64)).collect()),
    );
    report.note(
        "solve_s_each",
        Json::Arr(solve.iter().map(|&s| Json::Num(s)).collect()),
    );
    report.note(
        "time_to_first_tour_s_each",
        Json::Arr(first.iter().map(|&s| Json::Num(s)).collect()),
    );
    report.note_summary("setup_s", &Summary::of(&setups));
    report.note_summary("solve_s", &Summary::of(&solve));
    report.note_summary("time_to_first_tour_s", &Summary::of(&first));
    if !target.is_empty() {
        report.note_summary("time_to_target_s", &Summary::of(&target));
    }
    report.note_summary("final_len_pct", &Summary::of(&pct));
    (report, ops)
}

/// `--trace 1`: one traced set-up, then `TRACE_REPS` seeds solved twice
/// each — untraced end to end, and through the staged replica with
/// spans on — then the layer probes.
pub fn run_traced<W: SolverWorkload>(w: &W, args: &Args) -> (Report, Ops) {
    let mut report = Report::default();
    let mut ops = Ops::default();
    let quality = w.quality();
    let mut tr = Tracer::new();

    let ready = tr.span("harness.setup", 0, |tr| w.setup(tr));
    let inst = w.instance(&ready);
    let slots = args.seed_slots();
    let reps = TRACE_REPS.min(args.min_reps());

    // End-to-end and replica alternate, so that a slow phase of the
    // host falls on both alike; and since the second solve of a seed
    // finds caches and allocator warmed by the first, so does the order
    // within a pair. The second of a pair must repeat the first's result.
    let mut plain = Vec::new();
    let mut replicas = Vec::new();
    for i in 0..reps {
        let seed = rep_seed(args.seed, W::NAME, i, slots);
        let request = i as u64;
        let end_to_end =
            |first: Option<&Outcome>| timed_rep(inst, &quality, first, || w.solve(&ready, seed));
        let mut replica = |first: Option<&Outcome>| {
            timed_rep(inst, &quality, first, || {
                tr.span("harness.replica", request, |tr| {
                    w.replica(&ready, seed, request, tr)
                })
            })
        };
        let (e, r) = if i % 2 == 0 {
            let e = end_to_end(None);
            let r = replica(Some(&e.1));
            (e, r)
        } else {
            let r = replica(None);
            (end_to_end(Some(&r.1)), r)
        };
        for outcome in [e.2, r.2] {
            ops.record(outcome.map_err(|why| format!("end-to-end path and staged replica: {why}")));
        }
        plain.push(e.0.solve_s);
        replicas.push(r.0);
    }
    let traced: Vec<f64> = replicas.iter().map(|r| r.solve_s).collect();

    report.set(
        "obs.trace_overhead_pct",
        100.0 * (median(&traced) / median(&plain) - 1.0),
    );
    let spread = Summary::of(&plain);
    report.set("harness.rep_spread_pct", spread.spread_pct());
    report.set("harness.rep_max_over_median", spread.max_over_median());
    report.note_summary("solve_s.end_to_end", &spread);
    report.note_summary("solve_s.replica", &Summary::of(&traced));

    w.layers(&ready, &replicas, &tr, &mut report);
    probes::common(&mut report);
    write_trace(W::NAME, &tr, &mut report);
    (report, ops)
}

/// Write the spans to `benchmark/out/trace-<workload>.json`.
pub fn write_trace(workload: &str, tr: &Tracer, report: &mut Report) {
    let path = format!("{OUT_DIR}/trace-{workload}.json");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, tr.to_json(workload).to_string()));
    match written {
        Ok(()) => report.note("trace_file", Json::str(path)),
        Err(e) => report.note("trace_file_error", Json::str(format!("{path}: {e}"))),
    }
    report.note("spans", Json::Num(tr.spans().len() as f64));
}
