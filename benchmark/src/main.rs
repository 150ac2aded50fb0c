//! The repo's benchmark: four fixed-work workloads timed end to end and
//! layer by layer. See `benchmark/README.md`; run through
//! `benchmark/run.sh`.

mod harness;
mod input;
mod json;
mod orchestrate;
mod probes;
mod span;
mod stats;
mod workloads;

use harness::{result_json, Args, Ops, Report, END_TO_END, OUT_DIR, PER_LAYER};
use json::Json;
use workloads::clk::ClkE50k;
use workloads::distclk::DistclkDrill2k;
use workloads::shard::ShardE100k;
use workloads::svc::{self, SvcTcp50};
use workloads::{run_end_to_end, run_traced, SolverWorkload};

fn solver<W: SolverWorkload>(w: W, args: &Args) -> (Report, Ops) {
    if args.trace {
        run_traced(&w, args)
    } else {
        run_end_to_end(&w, args)
    }
}

/// Run one workload in this process and print its metrics; the last
/// line of standard output is the result object.
fn run_workload(name: &str, args: &Args) -> bool {
    let (report, ops) = match name {
        ClkE50k::NAME => solver(ClkE50k::new(args), args),
        DistclkDrill2k::NAME => solver(DistclkDrill2k::new(args), args),
        ShardE100k::NAME => solver(ShardE100k::new(args), args),
        svc::NAME if args.trace => svc::run_traced(&SvcTcp50::new(args), args),
        svc::NAME => svc::run_end_to_end(&SvcTcp50::new(args), args),
        other => unreachable!("Args::parse admits only known workloads, got {other}"),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mode = if args.trace {
        "per-layer (traced run)"
    } else {
        "end-to-end"
    };
    println!(
        "workload {name}  seed {}  window {} s  {mode}{}",
        args.seed,
        args.seconds,
        if args.smoke { "  SMOKE" } else { "" }
    );
    for (metric, unit) in table {
        println!(
            "  {metric:<40} {:>16.6} {unit}",
            report.metrics.get(*metric).copied().unwrap_or(0.0)
        );
    }
    println!(
        "  operations attempted {}  failed {}",
        ops.attempted, ops.failed
    );
    for note in &ops.notes {
        println!("  FAILED: {note}");
    }
    let result = result_json(table, &report, &ops);

    // Diagnostics (quartiles, counts, notes) go to a file, not the
    // result line.
    let file = format!(
        "{OUT_DIR}/{name}{}.json",
        if args.trace { "-layers" } else { "" }
    );
    let full = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("result", result.clone()),
        ("diagnostics", Json::Obj(report.diagnostics)),
        (
            "failures",
            Json::Arr(ops.notes.iter().map(Json::str).collect()),
        ),
    ]);
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&file, full.to_string()))
    {
        eprintln!("cannot write {file}: {e}");
    }
    println!("{result}");
    ops.correct()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--selfcheck]");
            std::process::exit(2);
        }
    };
    let ok = match (&args.workload, args.selfcheck) {
        (Some(name), false) => run_workload(name, &args),
        (None, false) => orchestrate::run_all(&args),
        (_, true) => orchestrate::selfcheck(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
