//! `service` — solver-as-a-service: the multi-tenant job layer over
//! real TCP, under churn, with fairness and conformance contracts.
//!
//! A persistent [`distclk::SolverService`] cluster sits behind the
//! lifecycle hub's `JOB` command. A fleet of tenants submits
//! deadline- and kick-bounded jobs over real sockets (payloads mix
//! van Hemert-style evolver-hardened instances with uniform ones), a
//! worker is killed while every stream is live, and each client
//! records its improving-tour stream shape and terminal verdict.
//!
//! Contract checks riding along, all recorded in the `service` section
//! of `target/repro/BENCH_lk.json`:
//!
//! - **streams monotone** — every client's improvement stream is
//!   strictly decreasing and ends at the terminal tour;
//! - **churn survived** — every accepted job completes (counter
//!   identity `jobs_completed == jobs_accepted`) despite the mid-run
//!   worker kill, with at least one reassignment observed;
//! - **conformant** — a single service job is bit-identical to a
//!   direct [`distclk::run_over_transports`] run with the same
//!   seed/config (the conformance suite's identity, spot-checked
//!   end-to-end over TCP);
//! - **fairness** — a greedy tenant hammering past its flow budget is
//!   rejected at admission (`ERR` on the status line), and the
//!   rejections are exactly the overshoot.
//!
//! ```text
//! cargo run --release -p bench -- service            # full fleet
//! cargo run --release -p bench -- service --smoke    # CI-fast
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use distclk::{
    build_neighbors, hard_suite, points_to_json, run_over_transports, DistConfig, DoneReason,
    EvolveConfig, JobPayload, JobSpec, ServiceConfig, ServiceJobHandler, SolverService,
};
use lk::Budget;
use obs_api::kinds;
use p2p::hub::{submit_job, LifecycleHub};
use p2p::{InMemoryNetwork, Message, TcpConfig, Topology};
use tsp_core::generate;

use crate::report::Report;
use crate::testbed::Scale;

/// One tenant's view of its job: stream shape + terminal verdict.
struct JobRow {
    client: u64,
    job: u64,
    bound: String,
    improvements: usize,
    first_len: i64,
    final_len: i64,
    reason: u8,
    monotone: bool,
    secs: f64,
}

impl JobRow {
    /// Anytime gain: how much the stream improved on the construction
    /// tour before the bound tripped.
    fn gain_pct(&self) -> f64 {
        if self.first_len <= 0 {
            return 0.0;
        }
        (self.first_len - self.final_len) as f64 / self.first_len as f64 * 100.0
    }
}

/// Cheap CLK calls keep the fleet snappy; identical template on the
/// service and the direct conformance reference.
fn engine() -> DistConfig {
    DistConfig {
        clk_kicks_per_call: 3,
        ..Default::default()
    }
}

fn json_payload_of(inst: &tsp_core::Instance) -> JobPayload {
    let pts: Vec<(f64, f64)> = (0..inst.len())
        .map(|i| (inst.point(i).x, inst.point(i).y))
        .collect();
    JobPayload::Json(points_to_json(&pts))
}

/// Submit one job over TCP and drain its stream to the terminal frame.
fn run_client(
    addr: std::net::SocketAddr,
    client: u64,
    spec: JobSpec,
    bound: String,
    tcp: &TcpConfig,
) -> JobRow {
    let started = Instant::now();
    let (job, mut stream) = submit_job(addr, &spec.to_submit(client), tcp).expect("submit");
    let mut lengths: Vec<i64> = Vec::new();
    loop {
        match stream.next_frame().expect("stream frame") {
            Message::JobAccept { .. } => {}
            Message::JobImproved { length, .. } => lengths.push(length),
            Message::JobDone { reason, length, .. } => {
                let monotone = lengths.windows(2).all(|w| w[1] < w[0])
                    && lengths.last().is_some_and(|&l| l == length);
                return JobRow {
                    client,
                    job,
                    bound,
                    improvements: lengths.len(),
                    first_len: lengths.first().copied().unwrap_or(i64::MAX),
                    final_len: length,
                    reason,
                    monotone,
                    secs: started.elapsed().as_secs_f64(),
                };
            }
            other => panic!("client {client}: unexpected frame {other:?}"),
        }
    }
}

/// Single-job identity over the full TCP path: same payload, seed and
/// kick budget as a direct one-node `run_over_transports` run.
fn conformance_check(
    addr: std::net::SocketAddr,
    payload: &JobPayload,
    seed: u64,
    kicks: u64,
    tcp: &TcpConfig,
) -> bool {
    let inst = payload.parse().expect("conformance payload parses");
    let mut cfg = engine();
    cfg.nodes = 1;
    cfg.seed = seed;
    cfg.budget = Budget::kicks(kicks);
    let nl = build_neighbors(&inst, &cfg);
    let (eps, _) = InMemoryNetwork::build(1, cfg.topology);
    let reference = run_over_transports(&inst, &nl, &cfg, eps);

    let spec = JobSpec::new(payload.clone()).seed(seed).kicks(kicks);
    let row = run_client(addr, 500, spec, "conformance".into(), tcp);
    row.reason == DoneReason::Budget.code() && row.final_len == reference.best_length
}

/// Hammer the admission path past one tenant's flow budget; returns
/// `(accepted, rejected)` out of `attempts`.
fn fairness_probe(
    addr: std::net::SocketAddr,
    payload: &JobPayload,
    attempts: u32,
    tcp: &TcpConfig,
) -> (u32, u32) {
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..attempts {
        let spec = JobSpec::new(payload.clone()).seed(i as u64).kicks(1);
        match submit_job(addr, &spec.to_submit(999), tcp) {
            Ok((_, mut stream)) => {
                accepted += 1;
                // Drain to the terminal frame so the cluster is idle
                // again before the next attempt.
                loop {
                    if let Message::JobDone { .. } = stream.next_frame().expect("fairness stream") {
                        break;
                    }
                }
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("job rejected"),
                    "fairness probe failed with a non-admission error: {msg}"
                );
                rejected += 1;
            }
        }
    }
    (accepted, rejected)
}

/// Dispatcher entry (registry + `bench all`): smoke below full scale.
pub fn run(scale: &Scale) -> Report {
    run_mode(scale.size_factor < 1.0)
}

/// Run the fleet. `smoke` keeps instance sizes and deadlines
/// CI-friendly; full mode runs a larger fleet on bigger instances.
pub fn run_mode(smoke: bool) -> Report {
    let (workers, tenants, deadline_ms, kick_budget, kill_at_ms) = if smoke {
        (3usize, 8u64, 900u64, 5u64, 250u64)
    } else {
        (4, 16, 3_000, 12, 800)
    };
    let flow_limit = 3u64;
    let seed = 4242u64;

    // Adversarial fixtures (deterministic under the seed) + a uniform
    // baseline: regressions should surface on the hard ones.
    let evolve = if smoke {
        EvolveConfig {
            cities: 24,
            generations: 2,
            offspring: 2,
            kicks: 3,
            ..Default::default()
        }
    } else {
        EvolveConfig::default()
    };
    let hard = hard_suite(&evolve, 42, 2);
    let uniform = generate::uniform(if smoke { 48 } else { 200 }, 10_000.0, 900);
    let payloads = [
        json_payload_of(&hard[0].0),
        json_payload_of(&hard[1].0),
        json_payload_of(&uniform),
    ];

    let svc = Arc::new(SolverService::start(ServiceConfig {
        workers,
        engine: engine(),
        default_limit: flow_limit,
    }));
    let mut hub = LifecycleHub::start("127.0.0.1:0", 2, Topology::Ring).expect("hub");
    ServiceJobHandler::attach(Arc::clone(&svc), &hub);
    let addr = hub.addr();
    let tcp = TcpConfig::default();

    // The fleet: every third tenant is kick-bounded, the rest ride a
    // wall-clock deadline; payloads rotate over the fixture set.
    let fleet_started = Instant::now();
    let clients: Vec<_> = (0..tenants)
        .map(|client| {
            let payload = payloads[client as usize % payloads.len()].clone();
            let tcp = tcp.clone();
            std::thread::spawn(move || {
                let (spec, bound) = if client % 3 == 2 {
                    (
                        JobSpec::new(payload).seed(client).kicks(kick_budget),
                        format!("kicks({kick_budget})"),
                    )
                } else {
                    (
                        JobSpec::new(payload)
                            .seed(client)
                            .deadline(Duration::from_millis(deadline_ms)),
                        format!("deadline({deadline_ms}ms)"),
                    )
                };
                run_client(addr, client, spec, bound, &tcp)
            })
        })
        .collect();

    // All streams live; crash worker 1 under them. Worker 1 is placed
    // first by the least-loaded scheduler (lowest-id ties), so however
    // the concurrent TCP submissions interleave it is guaranteed to
    // carry deadline-bounded work that is still in flight at the kill.
    // (Killing the *last*-placed worker would be flaky: round-robin
    // placement can alias with the kick-bounded tenants, leaving that
    // worker idle once the fast kick jobs drain.)
    std::thread::sleep(Duration::from_millis(kill_at_ms));
    svc.kill_worker(1);

    let mut rows: Vec<JobRow> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    rows.sort_by_key(|r| r.client);
    let fleet_secs = fleet_started.elapsed().as_secs_f64();

    // Post-churn contracts on the degraded cluster.
    let conformant = conformance_check(addr, &payloads[2], 12_345, 6, &tcp);
    let fairness_attempts = flow_limit as u32 + 2;
    let (fair_accepted, fair_rejected) = fairness_probe(addr, &payloads[2], fairness_attempts, &tcp);

    let snapshot = svc.obs().snapshot();
    let submitted = snapshot.counter(kinds::C_SVC_SUBMITTED);
    let accepted = snapshot.counter(kinds::C_SVC_ACCEPTED);
    let completed = snapshot.counter(kinds::C_SVC_COMPLETED);
    let expired = snapshot.counter(kinds::C_SVC_EXPIRED);
    let reassigned = snapshot.counter(kinds::C_SVC_REASSIGNED);
    let improvements = snapshot.counter(kinds::C_SVC_IMPROVEMENTS);

    let streams_monotone = rows.iter().all(|r| r.monotone);
    let churn_survived = completed == accepted && reassigned >= 1;

    let mut report = Report::new(
        "service",
        format!(
            "Solver-as-a-service: {tenants} tenants over TCP ({} fleet)",
            if smoke { "smoke" } else { "full" }
        ),
    );
    report.para(&format!(
        "{workers}-worker service behind the lifecycle hub's `JOB` \
         command; {tenants} tenants over real sockets (payloads rotate \
         over 2 evolver-hardened instances and a uniform one), worker \
         1 killed at t = {kill_at_ms} ms with every stream live. \
         Fleet drained in {fleet_secs:.2} s."
    ));

    let mut table = Vec::new();
    let mut csv = Vec::new();
    for r in &rows {
        table.push(vec![
            r.client.to_string(),
            r.bound.clone(),
            r.improvements.to_string(),
            r.first_len.to_string(),
            r.final_len.to_string(),
            format!("{:.2}%", r.gain_pct()),
            DoneReason::from_code(r.reason).label().to_string(),
            r.monotone.to_string(),
            format!("{:.2}", r.secs),
        ]);
        csv.push(format!(
            "{},{},{},{},{},{:.4},{},{},{:.4}",
            r.client,
            r.job,
            r.bound,
            r.improvements,
            r.first_len,
            r.gain_pct(),
            r.reason,
            r.monotone,
            r.secs
        ));
    }
    report.table(
        &[
            "client", "bound", "improvements", "first len", "final len", "anytime gain",
            "reason", "monotone", "secs",
        ],
        &table,
    );
    report.series(
        "tenants",
        "client,job,bound,improvements,first_len,gain_pct,reason,monotone,secs",
        csv,
    );
    report.para(&format!(
        "Counters: {submitted} submitted, {accepted} accepted, \
         {completed} completed, {expired} expired, {reassigned} \
         reassigned, {improvements} streamed improvements. Conformance \
         (TCP job vs direct engine, seed 12345): {conformant}. Fairness \
         (limit {flow_limit}, {fairness_attempts} attempts by one \
         tenant): {fair_accepted} accepted, {fair_rejected} rejected."
    ));

    assert!(streams_monotone, "a tenant observed a non-monotone stream");
    assert!(
        churn_survived,
        "accepted-job loss under churn: {completed}/{accepted} completed, {reassigned} reassigned"
    );
    assert!(conformant, "service job diverged from the direct engine");
    assert_eq!(
        fair_rejected,
        fairness_attempts - flow_limit as u32,
        "fairness rejections must be exactly the overshoot"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"experiment\": \"service\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"tenants\": {tenants},");
    let _ = writeln!(json, "  \"jobs_submitted\": {submitted},");
    let _ = writeln!(json, "  \"jobs_accepted\": {accepted},");
    let _ = writeln!(json, "  \"jobs_completed\": {completed},");
    let _ = writeln!(json, "  \"jobs_expired\": {expired},");
    let _ = writeln!(json, "  \"jobs_reassigned\": {reassigned},");
    let _ = writeln!(json, "  \"improvements\": {improvements},");
    let _ = writeln!(json, "  \"streams_monotone\": {streams_monotone},");
    let _ = writeln!(json, "  \"churn_survived\": {churn_survived},");
    let _ = writeln!(json, "  \"conformant\": {conformant},");
    let _ = writeln!(
        json,
        "  \"fairness\": {{\"limit\": {flow_limit}, \"attempts\": {fairness_attempts}, \
         \"accepted\": {fair_accepted}, \"rejections\": {fair_rejected}}},"
    );
    let _ = writeln!(json, "  \"fairness_rejections\": {fair_rejected},");
    let _ = writeln!(json, "  \"fleet_secs\": {fleet_secs:.6},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"client\": {}, \"job\": {}, \"bound\": \"{}\", \
             \"improvements\": {}, \"first_len\": {}, \"final_len\": {}, \
             \"gain_pct\": {:.4}, \"reason\": {}, \"monotone\": {}, \
             \"secs\": {:.6}}}{}",
            r.client,
            r.job,
            r.bound,
            r.improvements,
            r.first_len,
            r.final_len,
            r.gain_pct(),
            r.reason,
            r.monotone,
            r.secs,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    match crate::report::merge_bench_json("service", &json) {
        Ok(path) => report.para(&format!(
            "Machine-readable: `{}` (section `service`).",
            path.display()
        )),
        Err(e) => report.para(&format!("_Failed to write BENCH_lk.json: {e}._")),
    }

    hub.stop();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_runs_and_writes_json() {
        let report = run_mode(true);
        assert!(report.markdown.contains("anytime gain"));
        assert!(report.csv.iter().any(|(n, _, _)| n == "tenants"));
        let json = std::fs::read_to_string(Report::out_dir().join("BENCH_lk.json"))
            .expect("BENCH_lk.json written");
        assert!(json.contains("\"service\":"));
        assert!(json.contains("\"jobs_accepted\""));
        assert!(json.contains("\"jobs_completed\""));
        assert!(json.contains("\"streams_monotone\": true"));
        assert!(json.contains("\"churn_survived\": true"));
        assert!(json.contains("\"conformant\": true"));
        assert!(json.contains("\"fairness_rejections\": 2"));
    }
}
