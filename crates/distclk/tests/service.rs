//! Conformance + adversarial suite for the multi-tenant job service.
//!
//! Three pillars, matching the ISSUE's acceptance criteria:
//!
//! 1. **Conformance** — a job submitted through the service is
//!    bit-identical to a direct [`run_over_transports`] run with the
//!    same seed/config, across 10 seeds (the PR 5/7 lockstep-identity
//!    pattern lifted to the service boundary).
//! 2. **Concurrent tenancy** — many clients, overlapping jobs, mixed
//!    deadlines: least-loaded placement, every job completes or
//!    cleanly deadline-expires, every stream is monotone, and no
//!    accepted job is lost.
//! 3. **TCP front-end** — ≥ 8 concurrent jobs over real sockets
//!    through the lifecycle hub's `JOB` command, streamed improving
//!    tours.
//!
//! The stress fixtures come from the van Hemert-style instance evolver
//! (`distclk::evolve`), so the suite exercises adversarially hard
//! inputs, not just friendly grids.

use std::sync::Arc;
use std::time::Duration;

use distclk::{
    build_neighbors, hard_suite, points_to_json, run_over_transports, DistConfig, DoneReason,
    EvolveConfig, JobPayload, JobSpec, JobUpdate, ServiceConfig, ServiceJobHandler, SolverService,
};
use lk::{Budget, ChainedLkConfig, ClkEngine};
use obs::kinds;
use p2p::hub::LifecycleHub;
use p2p::{InMemoryNetwork, Message, TcpConfig, Topology};
use tsp_core::generate;

/// The engine template shared by the service and the direct reference
/// runs: cheap CLK calls so the suite stays fast.
fn engine_template() -> DistConfig {
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

/// The direct reference for a service job: one node, same seed, same
/// kick budget, no service in between. Returns the config and lists it
/// ran on too.
fn direct_reference(
    inst: &tsp_core::Instance,
    seed: u64,
    kicks: u64,
) -> (DistConfig, tsp_core::NeighborLists, distclk::DistResult) {
    let mut cfg = engine_template();
    cfg.nodes = 1;
    cfg.seed = seed;
    cfg.budget = Budget::kicks(kicks);
    let nl = build_neighbors(inst, &cfg);
    let (eps, _) = InMemoryNetwork::build(1, cfg.topology);
    let result = run_over_transports(inst, &nl, &cfg, eps);
    (cfg, nl, result)
}

/// ISSUE acceptance criterion: the single-job service path is
/// bit-identical to the direct engine across 10 seeds. Both sides
/// parse the *same payload text* (the service has no other input), so
/// any drift would come from scheduling, not parsing.
#[test]
fn conformance_single_job_matches_direct_engine_over_ten_seeds() {
    let base = generate::uniform(60, 10_000.0, 777);
    let text = tsp_core::tsplib::write_instance(&base);
    let payload = JobPayload::Tsplib(text.clone());
    let inst = payload.parse().expect("round-tripped TSPLIB must parse");

    let svc = SolverService::start(ServiceConfig {
        workers: 2,
        engine: engine_template(),
        ..Default::default()
    });
    for seed in 0..10u64 {
        let (cfg, nl, reference) = direct_reference(&inst, seed, 6);

        let handle = svc
            .submit(seed, JobSpec::new(payload.clone()).seed(seed).kicks(6))
            .expect("admission");
        let (reason, length, order, improvements) = handle.wait().expect("terminal update");

        assert_eq!(reason, DoneReason::Budget, "seed {seed}");
        assert_eq!(length, reference.best_length, "seed {seed}");
        assert_eq!(
            order,
            reference.best_tour.order().to_vec(),
            "seed {seed}: tour diverged from the direct engine"
        );
        assert!(
            improvements.windows(2).all(|w| w[1] < w[0]),
            "seed {seed}: stream not strictly improving: {improvements:?}"
        );
        assert_eq!(*improvements.last().unwrap(), length, "seed {seed}");

        // Anytime from construction: the stream opens with the
        // Quick-Borůvka tour itself, before the first LK pass (which
        // improves on it here, so there is a second update at least).
        let node_clk = ChainedLkConfig {
            seed: seed.wrapping_mul(1_000_003),
            ..cfg.clk.clone()
        };
        let constructed = ClkEngine::auto(&inst, &nl, node_clk).construct_tour();
        assert_eq!(improvements[0], constructed.length(&inst), "seed {seed}");
        assert!(improvements.len() >= 2, "seed {seed}: {improvements:?}");
    }
    svc.shutdown();
}

/// Concurrent tenancy: 6 clients × 2 overlapping jobs with mixed
/// bounds (wall-clock deadlines and kick budgets) over both uniform
/// and evolver-hardened instances. Jobs go to the least-loaded worker,
/// and every accepted job must reach a clean terminal state with a
/// monotone stream.
#[test]
fn concurrent_tenancy_with_mixed_deadlines_ends_every_job() {
    // Two adversarially hard fixtures (deterministic under the seed)
    // plus a friendly grid — regressions should surface on the hard
    // ones.
    let hard = hard_suite(
        &EvolveConfig {
            cities: 24,
            generations: 2,
            offspring: 2,
            kicks: 3,
            ..Default::default()
        },
        42,
        2,
    );
    assert_eq!(hard.len(), 2);
    let uniform = generate::uniform(48, 10_000.0, 900);
    let payloads = [
        json_payload_of(&hard[0].0),
        json_payload_of(&hard[1].0),
        json_payload_of(&uniform),
    ];

    let svc = SolverService::start(ServiceConfig {
        workers: 3,
        engine: engine_template(),
        ..Default::default()
    });

    // Deadline-bounded jobs first: they outlive the admissions, so
    // least-loaded placement with lowest-id ties spreads them 1,2,3,1,2,3.
    let mut deadline_jobs = Vec::new();
    for client in 0..6u64 {
        let payload = payloads[client as usize % payloads.len()].clone();
        let handle = svc
            .submit(
                client,
                JobSpec::new(payload)
                    .seed(client)
                    .deadline(Duration::from_millis(1200)),
            )
            .expect("deadline job admission");
        deadline_jobs.push((client, handle));
    }
    let placed: Vec<_> = deadline_jobs
        .iter()
        .map(|(_, handle)| match handle.recv() {
            Some(JobUpdate::Accepted { worker }) => worker,
            other => panic!("first update must be Accepted, got {other:?}"),
        })
        .collect();
    assert_eq!(placed, [1, 2, 3, 1, 2, 3]);
    let mut kick_jobs = Vec::new();
    for client in 0..6u64 {
        let payload = payloads[(client as usize + 1) % payloads.len()].clone();
        let handle = svc
            .submit(client, JobSpec::new(payload).seed(client + 100).kicks(4))
            .expect("kick job admission");
        kick_jobs.push((client, handle));
    }

    let mut ids = std::collections::HashSet::new();
    for (client, handle) in kick_jobs {
        ids.insert(handle.id());
        let (reason, length, order, improvements) = handle
            .wait()
            .unwrap_or_else(|| panic!("client {client}: kick job lost"));
        assert_eq!(reason, DoneReason::Budget, "client {client}");
        assert!(length < i64::MAX, "client {client}");
        assert!(!order.is_empty(), "client {client}");
        assert!(
            improvements.windows(2).all(|w| w[1] < w[0]),
            "client {client}: non-monotone stream {improvements:?}"
        );
    }
    for (client, handle) in deadline_jobs {
        ids.insert(handle.id());
        let (reason, length, order, improvements) = handle
            .wait()
            .unwrap_or_else(|| panic!("client {client}: deadline job lost"));
        assert_eq!(
            reason,
            DoneReason::Deadline,
            "client {client}: unbounded-kick job must expire at its deadline"
        );
        assert!(length < i64::MAX, "client {client}: expired with no tour");
        assert!(!order.is_empty(), "client {client}");
        assert!(
            improvements.windows(2).all(|w| w[1] < w[0]),
            "client {client}: non-monotone stream {improvements:?}"
        );
    }
    assert_eq!(ids.len(), 12, "job ids must be unique across tenants");

    let snapshot = svc.obs().snapshot();
    assert_eq!(snapshot.counter(kinds::C_SVC_ACCEPTED), 12);
    assert_eq!(
        snapshot.counter(kinds::C_SVC_COMPLETED),
        12,
        "zero accepted-job loss"
    );
    assert_eq!(snapshot.counter(kinds::C_SVC_EXPIRED), 6);
    svc.shutdown();
}

/// A persistent service serves ≥ 8 concurrent jobs over real TCP
/// through the lifecycle hub's `JOB` command, streams improving tours
/// to each client, and loses no accepted job.
#[test]
fn tcp_front_end_serves_eight_concurrent_jobs() {
    let inst = generate::uniform(48, 10_000.0, 911);
    let payload = json_payload_of(&inst);

    let svc = Arc::new(SolverService::start(ServiceConfig {
        workers: 3,
        engine: engine_template(),
        ..Default::default()
    }));
    let mut hub = LifecycleHub::start("127.0.0.1:0", 2, Topology::Ring).expect("hub");
    ServiceJobHandler::attach(Arc::clone(&svc), &hub);
    let addr = hub.addr();
    let tcp = TcpConfig::default();

    let clients: Vec<_> = (0..8u64)
        .map(|client| {
            let payload = payload.clone();
            let tcp = tcp.clone();
            std::thread::spawn(move || {
                let spec = JobSpec::new(payload)
                    .seed(client)
                    .deadline(Duration::from_millis(1500));
                let (job, mut stream) =
                    p2p::hub::submit_job(addr, &spec.to_submit(client), &tcp).expect("submit");
                let mut accepted = false;
                let mut lengths = Vec::new();
                loop {
                    match stream.next_frame().expect("stream frame") {
                        Message::JobAccept { job: j, .. } => {
                            assert_eq!(j, job);
                            accepted = true;
                        }
                        Message::JobImproved { length, .. } => lengths.push(length),
                        Message::JobDone {
                            reason,
                            length,
                            order,
                            ..
                        } => {
                            assert!(accepted, "client {client}: Done before Accept");
                            assert_eq!(reason, DoneReason::Deadline.code());
                            assert!(length < i64::MAX, "client {client}: no tour streamed");
                            assert!(!order.is_empty());
                            assert!(
                                lengths.windows(2).all(|w| w[1] < w[0]),
                                "client {client}: non-monotone TCP stream {lengths:?}"
                            );
                            assert_eq!(*lengths.last().unwrap(), length);
                            return job;
                        }
                        other => panic!("client {client}: unexpected frame {other:?}"),
                    }
                }
            })
        })
        .collect();

    let mut jobs = std::collections::HashSet::new();
    for c in clients {
        jobs.insert(c.join().expect("client thread"));
    }
    assert_eq!(jobs.len(), 8, "8 distinct jobs served concurrently");

    let snapshot = svc.obs().snapshot();
    assert_eq!(snapshot.counter(kinds::C_SVC_ACCEPTED), 8);
    assert_eq!(snapshot.counter(kinds::C_SVC_COMPLETED), 8);
    assert!(snapshot.counter(kinds::C_SVC_IMPROVEMENTS) >= 8);
    hub.stop();
}

/// The service stream also carries cancellation: a client-initiated
/// `JobCancel` over TCP terminates the job with reason 3 and the
/// stream still ends in a terminal `JobDone`.
#[test]
fn tcp_cancel_terminates_stream_cleanly() {
    let inst = generate::uniform(40, 10_000.0, 912);
    let svc = Arc::new(SolverService::start(ServiceConfig {
        workers: 1,
        engine: engine_template(),
        ..Default::default()
    }));
    let mut hub = LifecycleHub::start("127.0.0.1:0", 2, Topology::Ring).expect("hub");
    ServiceJobHandler::attach(Arc::clone(&svc), &hub);
    let tcp = TcpConfig::default();

    let spec = JobSpec::new(json_payload_of(&inst))
        .seed(5)
        .deadline(Duration::from_secs(10));
    let (job, mut stream) =
        p2p::hub::submit_job(hub.addr(), &spec.to_submit(9), &tcp).expect("submit");
    // Wait for the first improvement so the job is demonstrably
    // running, then cancel through a second connection.
    loop {
        match stream.next_frame().expect("frame") {
            Message::JobImproved { .. } => break,
            Message::JobAccept { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    p2p::hub::cancel_job(hub.addr(), job, &tcp).expect("cancel");
    let reason = loop {
        match stream.next_frame().expect("frame") {
            Message::JobDone { reason, .. } => break reason,
            Message::JobImproved { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert_eq!(reason, DoneReason::Cancelled.code());
    let snapshot = svc.obs().snapshot();
    assert_eq!(snapshot.counter(kinds::C_SVC_CANCELLED), 1);
    hub.stop();
}

/// Fairness at the socket: a tenant that submits past its flow budget
/// over TCP is turned away on the status line (`ERR …`), exactly as
/// often as it overshoots, and every job it did get in returns the
/// direct engine's length for its seed.
#[test]
fn tcp_admission_rejects_exactly_the_overshoot() {
    let inst = generate::uniform(40, 10_000.0, 914);
    let payload = json_payload_of(&inst);
    let limit = 3u64;
    let svc = Arc::new(SolverService::start(ServiceConfig {
        workers: 1,
        engine: engine_template(),
        default_limit: limit,
    }));
    let mut hub = LifecycleHub::start("127.0.0.1:0", 2, Topology::Ring).expect("hub");
    ServiceJobHandler::attach(Arc::clone(&svc), &hub);
    let tcp = TcpConfig::default();

    let parsed = payload.parse().expect("payload parses");
    let mut rejected = 0;
    for seed in 0..limit + 2 {
        let spec = JobSpec::new(payload.clone()).seed(seed).kicks(6);
        match p2p::hub::submit_job(hub.addr(), &spec.to_submit(999), &tcp) {
            Ok((_, mut stream)) => {
                assert!(seed < limit, "job {seed} admitted past the limit");
                let length = loop {
                    if let Message::JobDone { length, .. } = stream.next_frame().expect("frame") {
                        break length;
                    }
                };
                let (_, _, direct) = direct_reference(&parsed, seed, 6);
                assert_eq!(length, direct.best_length, "seed {seed}");
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("job rejected: ERR"), "{msg}");
                assert!(msg.contains("flow budget exhausted"), "{msg}");
                rejected += 1;
            }
        }
    }
    assert_eq!(rejected, 2);
    assert_eq!(svc.obs().snapshot().counter(kinds::C_SVC_REJECTED), 2);
    hub.stop();
}

/// A job's `Done` carries the last tour it streamed, also when its last
/// CLK call is the one that improved: 160 jobs of 60 cities at 2, 3, 5
/// and 8 kicks, of which 33 used to end on a tour never streamed.
#[test]
fn done_carries_the_last_streamed_tour_at_every_budget() {
    let svc = SolverService::start(ServiceConfig::default());
    for s in 0..40u64 {
        let payload = json_payload_of(&generate::uniform(60, 10_000.0, 1000 + s));
        for kicks in [2, 3, 5, 8] {
            let (_, length, _, improvements) = svc
                .submit(s, JobSpec::new(payload.clone()).seed(s).kicks(kicks))
                .expect("admission")
                .wait()
                .expect("terminal update");
            assert_eq!(
                improvements.last(),
                Some(&length),
                "seed {s}, {kicks} kicks: Done carries a tour never streamed"
            );
        }
    }
    svc.shutdown();
}

/// Block until the job has streamed at least one tour, returning the
/// last length seen so far.
fn first_improvement(handle: &distclk::JobHandle) -> i64 {
    loop {
        match handle.recv().expect("stream closed before any tour") {
            JobUpdate::Improved { length, .. } => return length,
            JobUpdate::Accepted { .. } => {}
            done => panic!("job ended before it could be interrupted: {done:?}"),
        }
    }
}

/// Drain a stream to its end; `(reason, final length, last streamed
/// length)`. The stream must end in exactly one `Done`.
fn drain(handle: distclk::JobHandle, mut last: i64) -> (DoneReason, i64, i64) {
    let mut done = None;
    while let Some(update) = handle.recv() {
        assert!(done.is_none(), "update after Done: {update:?}");
        match update {
            JobUpdate::Improved { length, .. } => last = length,
            JobUpdate::Done {
                reason,
                length,
                order,
            } => {
                assert!(!order.is_empty());
                done = Some((reason, length));
            }
            JobUpdate::Accepted { .. } => panic!("second Accepted"),
        }
    }
    let (reason, length) = done.expect("stream closed without Done");
    (reason, length, last)
}

/// A deadline no clock can represent is no deadline: admission must not
/// panic on it (`Instant + Duration::MAX` overflows), the job ends on
/// its other bound, and the service keeps admitting.
#[test]
fn unrepresentable_deadline_is_no_deadline() {
    let payload = json_payload_of(&generate::uniform(30, 10_000.0, 914));
    let svc = SolverService::start(ServiceConfig {
        workers: 1,
        engine: engine_template(),
        ..Default::default()
    });
    let (reason, length, _, _) = svc
        .submit(
            1,
            JobSpec::new(payload.clone())
                .deadline(Duration::MAX)
                .kicks(1),
        )
        .expect("admission")
        .wait()
        .expect("terminal update");
    assert_eq!(reason, DoneReason::Budget);
    assert!(length < i64::MAX);
    // With no other bound the default kick cap applies, as for any
    // unbounded submission.
    let (reason, ..) = svc
        .submit(1, JobSpec::new(payload).deadline(Duration::MAX))
        .expect("the service still admits after the first job")
        .wait()
        .expect("terminal update");
    assert_eq!(reason, DoneReason::Budget);
    svc.shutdown();
}

/// Shutting down under a running job ends its stream with
/// `Done(Cancelled)` carrying the last streamed tour, promptly — not
/// at the job's 10 s deadline.
#[test]
fn shutdown_cancels_live_jobs_with_their_best_tour() {
    let payload = json_payload_of(&generate::uniform(48, 10_000.0, 915));
    let svc = SolverService::start(ServiceConfig {
        workers: 2,
        engine: engine_template(),
        ..Default::default()
    });
    let handle = svc
        .submit(1, JobSpec::new(payload).deadline(Duration::from_secs(10)))
        .expect("admission");
    let seen = first_improvement(&handle);
    let obs = svc.obs().clone();
    let stopping = std::time::Instant::now();
    svc.shutdown();
    let (reason, length, last) = drain(handle, seen);
    assert!(
        stopping.elapsed() < Duration::from_secs(1),
        "shutdown waited for the job"
    );
    assert_eq!(reason, DoneReason::Cancelled);
    assert_eq!(length, last, "Done must carry the last streamed tour");
    assert_eq!(obs.snapshot().counter(kinds::C_SVC_CANCELLED), 1);
}
