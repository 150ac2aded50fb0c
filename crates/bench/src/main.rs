//! Experiment CLI for the bench crate. A thin sibling of the root
//! `repro` binary that additionally knows how to pass an instance
//! argument to the `profile` experiment:
//!
//! ```text
//! cargo run -p bench -- profile                      # default stand-in
//! cargo run -p bench -- profile path/to/file.tsp     # TSPLIB file
//! cargo run -p bench -- profile E1k.1 --full         # testbed name
//! cargo run -p bench -- table3                       # any repro id
//! cargo run -p bench -- list
//! ```

use bench::experiments::{self, churn, hub_failover, monitor, profile};
use bench::testbed::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = if full { Scale::full() } else { Scale::quick() };
    let mut positional = args.iter().filter(|a| !a.starts_with("--"));
    let command = positional.next().map(|s| s.as_str()).unwrap_or("list");

    match command {
        "list" => {
            println!("experiments: {}", experiments::ALL.join(", "));
            println!("usage: bench <id>|all [--full]");
            println!("       bench profile [<tsplib-file>|<testbed-name>] [--full]");
            println!("       bench churn [--smoke]  # seeded kill/revive chaos sweep");
            println!("       bench hub-failover [--smoke]  # hub death, election, epoch fencing");
            println!("       bench monitor [--smoke]  # live mid-run telemetry scrape over TCP");
        }
        "all" => {
            for id in experiments::ALL {
                run_one(id, &scale);
            }
            println!("all reports written to target/repro/");
        }
        "churn" => {
            // Seeded kill/revive chaos sweep; --smoke caps it for CI.
            churn::run_mode(smoke).write().expect("write report");
        }
        "hub-failover" => {
            // Hub-death election sweep; --smoke caps it for CI.
            hub_failover::run_mode(smoke).write().expect("write report");
        }
        "monitor" => {
            // Live telemetry plane end-to-end; --smoke caps it for CI.
            monitor::run_mode(smoke).write().expect("write report");
        }
        "profile" => {
            let report = match positional.next() {
                Some(arg) => match profile::resolve_instance(arg, &scale) {
                    Ok(inst) => profile::run_on(&inst, &scale),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                },
                None => profile::run(&scale),
            };
            report.write().expect("write report");
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
            eprintln!("unknown experiment {id:?}; try `bench list`");
            std::process::exit(2);
        }
    }
}
