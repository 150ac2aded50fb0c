//! Experiment driver regenerating the paper's tables and figures.
//!
//! ```text
//! repro all [--full]        # every experiment
//! repro table3 [--full]     # one experiment
//! repro calibrate           # print the machine normalization factor
//! repro list                # list experiment ids
//! ```
//!
//! Reports land in `target/repro/` as markdown + CSV and are echoed to
//! stdout.

use bench::experiments;
use bench::testbed::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::full() } else { Scale::quick() };
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .unwrap_or("list");

    match command {
        "list" => {
            let ids: Vec<&str> = experiments::ALL.iter().map(|(id, _)| *id).collect();
            println!("experiments: {}", ids.join(", "));
            println!("usage: repro <id>|all [--full]");
        }
        "calibrate" => {
            let f = bench::calibrate::normalization_factor();
            println!("normalization factor: {f:.4}");
        }
        "all" => {
            for (id, _) in experiments::ALL {
                run_one(id, &scale);
            }
            println!("all reports written to target/repro/");
        }
        id => run_one(id, &scale),
    }
}

fn run_one(id: &str, scale: &Scale) {
    eprintln!("== running {id} ({} runs) ==", scale.runs);
    let started = std::time::Instant::now();
    match experiments::run(id, scale) {
        Some(report) => {
            report.write().expect("write report");
            eprintln!("== {id} done in {:.1}s ==", started.elapsed().as_secs_f64());
        }
        None => {
            eprintln!("unknown experiment {id:?}; try `repro list`");
            std::process::exit(2);
        }
    }
}
