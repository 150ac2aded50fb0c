//! `svc-tcp-50`: many small jobs through the solver service over TCP.
//!
//! A `SolverService` with two workers behind the lifecycle hub's `JOB`
//! command on 127.0.0.1; two closed-loop clients submit 50-city JSON
//! payloads with a budget of one CLK call and drain each result stream
//! to `JobDone`. About 1 ms of solver CPU sits inside a few ms of
//! latency: the hub's text protocol, the codec, TCP connects, admission,
//! dispatch and the 1 ms poll ticks dominate — the workload where
//! service and transport work shows and `lk` work does not.
//!
//! Unlike the solver workloads, the inputs here are many and small, so
//! the 64 payloads are drawn from `--seed` (each measured against its
//! own Held-Karp bound) as well as the job seeds.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use dist_clk::distclk::{
    self, points_to_json, DistConfig, JobPayload, JobSpec, JobUpdate, ServiceConfig,
    ServiceJobHandler, SolverService,
};
use dist_clk::heldkarp::{held_karp_bound, AscentConfig};
use dist_clk::lk::Budget;
use dist_clk::p2p::hub::{submit_job, LifecycleHub};
use dist_clk::p2p::{Message, TcpConfig, Topology};
use dist_clk::tsp_core::{generate, Instance};

use super::write_trace;
use crate::harness::{peak_rss_mb, validate_order, Args, CpuOverWall, Ops, Report, TRACE_REPS};
use crate::input::{derive, Quality};
use crate::json::Json;
use crate::probes;
use crate::span::Tracer;
use crate::stats::{median, quantile, Summary};

pub const NAME: &str = "svc-tcp-50";
/// Enough payloads that their mean gap to the Held-Karp bound moves
/// little from seed to seed (0.26 % interquartile with 64).
const PAYLOADS: usize = 256;
const CITIES: usize = 50;
const SIDE: f64 = 1e4;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const WARMUP_JOBS: usize = 50;
/// Jobs per batch; one batch is one repetition.
const BATCH: usize = 1000;
/// Seeds each payload is solved under; later jobs repeat a `(payload,
/// seed)` pair and must return the bit-identical length.
const SEEDS_PER_PAYLOAD: usize = 8;
/// A set-up takes a few ms, so two are timed before every batch.
const SETUPS_PER_BATCH: usize = 2;
/// Per-job target relative to the payload's Held-Karp bound. The worst
/// job of 30 runs (30 payload sets × 2048 pairs) ended at 108.2 %; a
/// 50-city optimum can itself sit a few percent above the bound, so the
/// level is one every job's stream reaches, usually with its first tour.
const TARGET_PCT: f64 = 112.0;

struct Payload {
    payload: JobPayload,
    inst: Instance,
    quality: Quality,
}

pub struct SvcTcp50 {
    seed: u64,
    payloads: Vec<Payload>,
    batch: usize,
}

/// A running service behind a hub, as a client sees it.
struct Running {
    hub: LifecycleHub,
    service: Arc<SolverService>,
    addr: SocketAddr,
}

impl Running {
    fn stop(mut self) {
        self.hub.stop();
        // The hub held the only other reference (the job handler).
        drop(self.hub);
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
    }
}

/// Client-side timeline of one job, in seconds since submission.
struct JobTimes {
    job: usize,
    submit_rtt_s: f64,
    first_tour_s: f64,
    target_s: f64,
    done_s: f64,
    length: i64,
}

impl SvcTcp50 {
    pub fn new(args: &Args) -> SvcTcp50 {
        let payloads = (0..PAYLOADS)
            .map(|i| {
                let generated =
                    generate::uniform(CITIES, SIDE, derive(args.seed, "svc-payload", i as u64));
                let points: Vec<(f64, f64)> =
                    generated.points().iter().map(|p| (p.x, p.y)).collect();
                let payload = JobPayload::Json(points_to_json(&points));
                let inst = payload.parse().expect("own JSON payload parses");
                let reference = held_karp_bound(&inst, &AscentConfig::default()).bound as f64;
                Payload {
                    payload,
                    inst,
                    quality: Quality {
                        reference,
                        target_pct: TARGET_PCT,
                    },
                }
            })
            .collect();
        SvcTcp50 {
            seed: args.seed,
            payloads,
            batch: if args.smoke { BATCH / 10 } else { BATCH },
        }
    }

    /// Job `job` of the run: its payload index, and its spec.
    fn job(&self, job: usize) -> (usize, JobSpec) {
        let payload = job % PAYLOADS;
        let seed_slot = (job / PAYLOADS) % SEEDS_PER_PAYLOAD;
        let seed = derive(
            self.seed,
            "svc-job",
            (payload * SEEDS_PER_PAYLOAD + seed_slot) as u64,
        );
        (
            payload,
            JobSpec::new(self.payloads[payload].payload.clone())
                .seed(seed)
                .kicks(1),
        )
    }

    /// What a client pays before its first result: start the service
    /// and the hub, attach them, and run one probe job to `JobDone`.
    fn setup(&self, tr: &mut Tracer) -> Result<Running, String> {
        let service = tr.span("distclk.service.start", 0, |_| {
            Arc::new(SolverService::start(ServiceConfig {
                workers: WORKERS,
                // Admission is not what this workload measures.
                default_limit: u64::MAX / 2,
                ..Default::default()
            }))
        });
        let hub = tr
            .span("p2p.hub.start", 0, |_| {
                LifecycleHub::start("127.0.0.1:0", 2, Topology::Ring)
            })
            .map_err(|e| format!("hub start: {e}"))?;
        ServiceJobHandler::attach(Arc::clone(&service), &hub);
        let running = Running {
            addr: hub.addr(),
            hub,
            service,
        };
        tr.span("harness.probe_job", 0, |_| self.tcp_job(running.addr, 0, 0))?;
        Ok(running)
    }

    /// Submit job `job` as `client` over TCP, drain its stream and
    /// check it: frames in order, lengths strictly improving and ending
    /// on the `JobDone` tour, that tour valid, the target reached.
    fn tcp_job(&self, addr: SocketAddr, client: u64, job: usize) -> Result<JobTimes, String> {
        let (payload, spec) = self.job(job);
        let p = &self.payloads[payload];
        let target = p.quality.target_length();
        let tcp = TcpConfig::default();
        let started = Instant::now();
        let (_, mut stream) =
            submit_job(addr, &spec.to_submit(client), &tcp).map_err(|e| format!("submit: {e}"))?;
        let submit_rtt_s = started.elapsed().as_secs_f64();
        let (mut first_tour_s, mut target_s, mut last) = (None, None, i64::MAX);
        loop {
            let frame = stream.next_frame().map_err(|e| format!("stream: {e}"))?;
            let at = started.elapsed().as_secs_f64();
            match frame {
                Message::JobAccept { .. } => {}
                Message::JobImproved { length, .. } => {
                    if length >= last {
                        return Err(format!(
                            "stream not strictly improving: {length} after {last}"
                        ));
                    }
                    last = length;
                    first_tour_s.get_or_insert(at);
                    if length <= target {
                        target_s.get_or_insert(at);
                    }
                }
                Message::JobDone { length, order, .. } => {
                    if length != last {
                        return Err(format!(
                            "JobDone length {length} is not the last streamed length {last}"
                        ));
                    }
                    validate_order(&p.inst, &order, length)?;
                    return Ok(JobTimes {
                        job,
                        submit_rtt_s,
                        first_tour_s: first_tour_s.ok_or("no tour before JobDone")?,
                        target_s: target_s.ok_or_else(|| {
                            format!("target missed: final {:.3} %", p.quality.pct(length))
                        })?,
                        done_s: at,
                        length,
                    });
                }
                other => return Err(format!("unexpected frame {other:?}")),
            }
        }
    }

    /// Jobs `jobs` split over [`CLIENTS`] closed-loop client threads.
    /// Returns the wall time and every job's outcome.
    fn tcp_batch(
        &self,
        addr: SocketAddr,
        jobs: std::ops::Range<usize>,
    ) -> (f64, Vec<Result<JobTimes, String>>) {
        let started = Instant::now();
        let outcomes = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let mine = jobs.clone().filter(move |j| j % CLIENTS == c);
                    scope.spawn(move || {
                        mine.map(|j| self.tcp_job(addr, c as u64 + 1, j))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });
        (started.elapsed().as_secs_f64(), outcomes)
    }
}

/// Book-keeping over all jobs of a run: operations, latencies, lengths,
/// and the bit-identity of repeated `(payload, seed)` pairs.
#[derive(Default)]
struct Jobs {
    ops: Ops,
    times: Vec<JobTimes>,
    first_length: HashMap<usize, i64>,
}

impl Jobs {
    fn record(&mut self, outcome: Result<JobTimes, String>) {
        let outcome = outcome.and_then(|t| {
            let pair = t.job % (PAYLOADS * SEEDS_PER_PAYLOAD);
            let first = *self.first_length.entry(pair).or_insert(t.length);
            if first != t.length {
                return Err(format!(
                    "job {} returned {}, the same payload and seed earlier {first}",
                    t.job, t.length
                ));
            }
            self.times.push(t);
            Ok(())
        });
        self.ops.record(outcome);
    }

    fn column(&self, f: fn(&JobTimes) -> f64) -> Vec<f64> {
        self.times.iter().map(f).collect()
    }
}

pub fn run_end_to_end(w: &SvcTcp50, args: &Args) -> (Report, Ops) {
    let mut report = Report::default();
    let mut jobs = Jobs::default();
    let mut off = Tracer::disabled();

    // The instance the jobs run on; its set-up is the first sample.
    let mut setups = Vec::new();
    let started = Instant::now();
    let running = match w.setup(&mut off) {
        Ok(r) => r,
        Err(e) => {
            jobs.ops.record(Err(format!("set-up: {e}")));
            return (report, jobs.ops);
        }
    };
    setups.push(started.elapsed().as_secs_f64());

    // Warm-up: connection paths, allocator and worker caches.
    let (_, warm) = w.tcp_batch(running.addr, 0..WARMUP_JOBS);
    warm.into_iter().for_each(|o| jobs.record(o));
    jobs.times.clear();

    let mut batches = Vec::new();
    let mut measured = 0.0;
    let busy = CpuOverWall::start();
    while batches.len() < args.min_reps() || measured < args.seconds {
        // More set-ups, spread over the run like the batches so that
        // both meet the same moods of the host: each brings up a second
        // instance on a port of its own, which is stopped untimed.
        for _ in 0..SETUPS_PER_BATCH {
            let started = Instant::now();
            let side = w.setup(&mut off);
            setups.push(started.elapsed().as_secs_f64());
            match side {
                Ok(side) => side.stop(),
                Err(e) => jobs.ops.record(Err(format!("set-up: {e}"))),
            }
        }
        let from = WARMUP_JOBS + batches.len() * w.batch;
        let (secs, outcomes) = w.tcp_batch(running.addr, from..from + w.batch);
        outcomes.into_iter().for_each(|o| jobs.record(o));
        measured += secs;
        batches.push(secs);
    }
    report.note("cpu_over_wall", Json::Num(busy.ratio()));
    running.stop();

    if jobs.times.is_empty() {
        return (report, jobs.ops);
    }
    let latency_ms: Vec<f64> = jobs.column(|t| t.done_s * 1e3);
    let lengths: f64 = jobs.times.iter().map(|t| t.length as f64).sum();
    let references: f64 = jobs
        .times
        .iter()
        .map(|t| w.payloads[t.job % PAYLOADS].quality.reference)
        .sum();
    report.set("setup_s", median(&setups));
    report.set("solve_s", median(&batches));
    report.set(
        "time_to_first_tour_s",
        median(&jobs.column(|t| t.first_tour_s)),
    );
    report.set("time_to_target_s", median(&jobs.column(|t| t.target_s)));
    report.set("final_len_pct", 100.0 * lengths / references);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("job_latency_p50_ms", median(&latency_ms));
    // Thousands of jobs: p90 has far more than ten samples beyond it.
    report.set("job_latency_p90_ms", quantile(&latency_ms, 0.9));

    let worst_job_pct = jobs
        .times
        .iter()
        .map(|t| w.payloads[t.job % PAYLOADS].quality.pct(t.length))
        .fold(0.0, f64::max);
    report.note("worst_job_pct", Json::Num(worst_job_pct));
    report.note("batches", Json::Num(batches.len() as f64));
    report.note("jobs_per_batch", Json::Num(w.batch as f64));
    report.note("jobs_measured", Json::Num(jobs.times.len() as f64));
    report.note_summary("setup_s", &Summary::of(&setups));
    report.note_summary("solve_s", &Summary::of(&batches));
    report.note_summary("job_latency_ms", &Summary::of(&latency_ms));
    report.note_summary(
        "submit_rtt_ms",
        &Summary::of(&jobs.column(|t| t.submit_rtt_s * 1e3)),
    );
    (report, jobs.ops)
}

/// One job through `SolverService::submit` in this process — the TCP
/// path without the hub, the codec and the sockets. With a tracer that
/// records, each phase of the stream becomes a span.
/// Returns `(seconds to Accepted, seconds to Done, final length)`.
fn inproc_job(
    w: &SvcTcp50,
    service: &SolverService,
    job: usize,
    tr: &mut Tracer,
) -> Result<(f64, f64, i64), String> {
    let (_, spec) = w.job(job);
    let request = job as u64;
    let ns = |tr: &Tracer| tr.epoch().elapsed().as_nanos() as u64;
    let started = ns(tr);
    let handle = tr.span("distclk.service.submit", request, |_| {
        service.submit(1, spec)
    })?;
    let mut mark = ns(tr);
    let mut phase = "distclk.service.accept_wait";
    let mut accepted_s = 0.0;
    while let Some(update) = handle.recv() {
        let now = ns(tr);
        tr.record(phase, request, mark, now);
        mark = now;
        match update {
            JobUpdate::Accepted { .. } => {
                accepted_s = (now - started) as f64 * 1e-9;
                phase = "distclk.service.first_tour_wait";
            }
            JobUpdate::Improved { .. } => phase = "distclk.service.stream",
            JobUpdate::Done { length, .. } => {
                return Ok((accepted_s, (now - started) as f64 * 1e-9, length))
            }
        }
    }
    Err("stream closed before Done".into())
}

/// The job solved directly: parse, candidate lists and a one-node
/// lockstep run with the service's engine template.
fn direct_job(w: &SvcTcp50, job: usize) -> (f64, i64) {
    let (_, spec) = w.job(job);
    let started = Instant::now();
    let inst = spec.payload.parse().expect("own JSON payload parses");
    let cfg = DistConfig {
        nodes: 1,
        seed: spec.seed,
        budget: Budget::kicks(spec.kicks.expect("jobs are kick-bounded")),
        ..ServiceConfig::default().engine
    };
    let neighbors = distclk::build_neighbors(&inst, &cfg);
    let length = distclk::run_lockstep(&inst, &neighbors, &cfg).best_length;
    (started.elapsed().as_secs_f64(), length)
}

pub fn run_traced(w: &SvcTcp50, args: &Args) -> (Report, Ops) {
    let mut report = Report::default();
    let mut jobs = Jobs::default();
    let mut tr = Tracer::new();

    let running = match tr.span("harness.setup", 0, |tr| w.setup(tr)) {
        Ok(r) => r,
        Err(e) => {
            jobs.ops.record(Err(format!("set-up: {e}")));
            return (report, jobs.ops);
        }
    };
    report.set("tsp_core.parse_s", {
        let started = Instant::now();
        w.payloads.iter().for_each(|p| drop(p.payload.parse()));
        started.elapsed().as_secs_f64()
    });
    for span in ["distclk.service.start", "p2p.hub.start"] {
        report.note(&format!("{span}_s"), Json::Num(tr.total_s(span)));
    }

    // The end-to-end path: a few short batches over TCP.
    let count = w.batch * TRACE_REPS.min(args.min_reps()) / 4;
    let (_, warm) = w.tcp_batch(running.addr, 0..WARMUP_JOBS);
    warm.into_iter().for_each(|o| jobs.record(o));
    jobs.times.clear();
    let (_, outcomes) = w.tcp_batch(running.addr, WARMUP_JOBS..WARMUP_JOBS + count);
    outcomes.into_iter().for_each(|o| jobs.record(o));
    let tcp_ms = jobs.column(|t| t.done_s * 1e3);
    let tcp_length: HashMap<usize, i64> = jobs.times.iter().map(|t| (t.job, t.length)).collect();
    if !tcp_ms.is_empty() {
        report.set(
            "p2p.hub.submit_rtt_ms_p50",
            median(&jobs.column(|t| t.submit_rtt_s * 1e3)),
        );
        let spread = Summary::of(&tcp_ms);
        report.set("harness.rep_spread_pct", spread.spread_pct());
        report.set("harness.rep_max_over_median", spread.max_over_median());
        report.note_summary("job_latency_ms.tcp", &spread);
    }

    // The staged replica: the same jobs in-process, one at a time,
    // with tracing off and with a span per stream phase. Each must end
    // on the length the TCP path returned, and so must the direct solve.
    let mut off = Tracer::disabled();
    let sample = WARMUP_JOBS..WARMUP_JOBS + count.min(200);
    let check = |what: &str, job: usize, length: i64, ops: &mut Ops| {
        let tcp = tcp_length.get(&job).copied();
        ops.record(if tcp == Some(length) {
            Ok(())
        } else {
            Err(format!(
                "{what} of job {job} ended on {length}, the TCP path on {tcp:?}"
            ))
        });
    };
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut accept_ms = Vec::new();
    for job in sample.clone() {
        // Untraced and traced take turns at going first.
        let mut pair = [(&mut off, &mut plain_ms), (&mut tr, &mut traced_ms)];
        if job % 2 == 1 {
            pair.reverse();
        }
        for (tracer, out) in pair {
            match inproc_job(w, &running.service, job, tracer) {
                Ok((accepted_s, secs, length)) => {
                    accept_ms.push(accepted_s * 1e3);
                    out.push(secs * 1e3);
                    check("in-process replica", job, length, &mut jobs.ops);
                }
                Err(e) => jobs.ops.record(Err(format!("in-process job {job}: {e}"))),
            }
        }
    }
    let mut direct_ms = Vec::new();
    for job in sample.clone() {
        let (secs, length) = tr.span("distclk.direct_solve", job as u64, |_| direct_job(w, job));
        direct_ms.push(secs * 1e3);
        check("direct solve", job, length, &mut jobs.ops);
    }
    if !plain_ms.is_empty() && !traced_ms.is_empty() {
        report.set("distclk.service.inproc_latency_ms_p50", median(&plain_ms));
        report.set(
            "distclk.service.overhead_ms",
            median(&plain_ms) - median(&direct_ms),
        );
        report.set(
            "obs.trace_overhead_pct",
            100.0 * (median(&traced_ms) / median(&plain_ms) - 1.0),
        );
        report.set("distclk.service.accept_ms_p50", median(&accept_ms));
        report.note_summary("direct_solve_ms", &Summary::of(&direct_ms));
    }

    let counters = running.service.obs().snapshot();
    let accepted = counters.counter(obs::kinds::C_SVC_ACCEPTED);
    report.set(
        "distclk.service.jobs_rejected",
        counters.counter(obs::kinds::C_SVC_REJECTED) as f64,
    );
    report.set(
        "distclk.service.jobs_failed",
        accepted.saturating_sub(counters.counter(obs::kinds::C_SVC_COMPLETED)) as f64,
    );
    report.note("svc.jobs_accepted", Json::Num(accepted as f64));
    running.stop();

    probes::p2p(&mut report, &w.job(0).1.to_submit(1));
    probes::common(&mut report);
    write_trace(NAME, &tr, &mut report);
    (report, jobs.ops)
}
