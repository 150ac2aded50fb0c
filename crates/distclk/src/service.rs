//! Solver-as-a-service: a long-lived, multi-tenant job layer over the
//! engine (the ROADMAP's top open item).
//!
//! The paper's system solves one instance per cluster bring-up; this
//! module makes the solver outlive any single job. A persistent
//! [`SolverService`] is one lock over the live jobs and owns no thread:
//! whoever causes an event handles it under that lock — the caller of
//! [`SolverService::submit`] admits its job, each job's solve thread
//! streams to its own client and ends its job. Clients submit a
//! [`JobSpec`] — TSPLIB or JSON payload plus a deadline and/or quality
//! budget — and receive a [`JobHandle`] streaming strictly improving
//! tours back as they are found (anytime semantics), terminated by a
//! single [`JobUpdate::Done`].
//!
//! Design points:
//!
//! - **Per-job engine state.** The [`crate::NodeDriver`] stays borrowed
//!   to one instance for its lifetime; the decoupling happens one layer
//!   up. Every accepted job gets its own solve thread owning the
//!   [`Instance`] admission parsed, its candidate lists, and a fresh
//!   single-node driver — engine state is keyed by `job_id`. A *worker*
//!   is a placement label, not a thread or a process: each job goes to
//!   the least-loaded of `1..=workers`, and `JobAccept` reports which.
//! - **Wire protocol.** The five `Job*` frames (codec tags 12–16) exist
//!   on the TCP boundary only: the front-end ([`ServiceJobHandler`])
//!   rides the lifecycle hub's `JOB` command and translates frames to
//!   and from the in-process [`JobSpec`]/[`JobUpdate`] types. Ids are
//!   minted by [`p2p::job_id`]`(client, seq)` following the PR 2
//!   broadcast-id template.
//! - **No failure domain.** Solve threads share the service's process,
//!   so nothing can fail one of them alone: a job ends by its own
//!   bounds, a cancel, its deadline (the client's [`JobHandle::recv`]
//!   force-finishes it `DEADLINE_GRACE` after), or shutdown. The one
//!   process that runs a service is whoever embeds [`SolverService`] —
//!   tests and the benchmark; `distclk-node hub` attaches no job
//!   handler.
//! - **Fairness.** Each client may have `default_limit` jobs admitted;
//!   the count of its admitted jobs is also its next job's sequence
//!   number. A job over the limit is refused before any effect, and a
//!   refused job costs nothing.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use lk::Budget;
use obs::{kinds, Obs, Value};
use p2p::codec::write_frame;
use p2p::hub::{reply_line, JobHandler};
use p2p::{job_id, InMemoryNetwork, Message, NetError, NodeId};
use tsp_core::{Instance, Point};

use crate::node::{DistConfig, NodeDriver};

// ---------------------------------------------------------------------------
// Terminal reasons
// ---------------------------------------------------------------------------

/// Why a job reached its terminal [`JobUpdate::Done`]. The `u8` codes
/// are the wire values carried by `JobDone`/`JobCancel` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoneReason {
    /// The kick budget ran out (code 0).
    Budget,
    /// The quality target was reached (code 1).
    Target,
    /// The deadline expired (code 2).
    Deadline,
    /// The client cancelled the job (code 3).
    Cancelled,
}

impl DoneReason {
    /// Wire code (must stay within `p2p::codec`'s `MAX_JOB_REASON`).
    pub fn code(self) -> u8 {
        match self {
            DoneReason::Budget => 0,
            DoneReason::Target => 1,
            DoneReason::Deadline => 2,
            DoneReason::Cancelled => 3,
        }
    }

    /// Decode a wire code (total over the codec-validated range).
    pub fn from_code(code: u8) -> DoneReason {
        match code {
            1 => DoneReason::Target,
            2 => DoneReason::Deadline,
            3 => DoneReason::Cancelled,
            _ => DoneReason::Budget,
        }
    }
}

// ---------------------------------------------------------------------------
// Payloads and specs
// ---------------------------------------------------------------------------

/// A job's instance payload, in one of the two accepted formats.
#[derive(Debug, Clone, PartialEq)]
pub enum JobPayload {
    /// TSPLIB text (wire `payload_kind` 1), parsed by
    /// [`tsp_core::tsplib::parse_instance`].
    Tsplib(String),
    /// A bare JSON array of `[x, y]` coordinate pairs (wire
    /// `payload_kind` 2), e.g. `[[0,0],[3.5,1],[2,4]]`. EUC_2D metric.
    Json(String),
}

impl JobPayload {
    /// Wire `payload_kind` code.
    pub fn kind(&self) -> u8 {
        match self {
            JobPayload::Tsplib(_) => 1,
            JobPayload::Json(_) => 2,
        }
    }

    /// Raw payload bytes for the wire frame.
    pub fn bytes(&self) -> &[u8] {
        match self {
            JobPayload::Tsplib(s) | JobPayload::Json(s) => s.as_bytes(),
        }
    }

    /// Rebuild from wire fields.
    pub fn from_wire(kind: u8, payload: &[u8]) -> Result<JobPayload, String> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| "payload is not UTF-8".to_string())?
            .to_string();
        match kind {
            1 => Ok(JobPayload::Tsplib(text)),
            2 => Ok(JobPayload::Json(text)),
            k => Err(format!("unknown payload kind {k}")),
        }
    }

    /// Parse into an [`Instance`]. Total: malformed payloads (including
    /// fewer than 3 cities, which `Instance::new` would panic on) come
    /// back as `Err`, never a panic — this is the admission filter for
    /// adversarial submissions.
    pub fn parse(&self) -> Result<Instance, String> {
        match self {
            JobPayload::Tsplib(text) => {
                tsp_core::tsplib::parse_instance(text).map_err(|e| format!("tsplib: {e}"))
            }
            JobPayload::Json(text) => {
                let pts = parse_json_points(text)?;
                if pts.len() < 3 {
                    return Err(format!("need at least 3 cities, got {}", pts.len()));
                }
                // The TSPLIB parser checks its own instances.
                let inst = Instance::new(
                    "json-job",
                    pts.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
                    tsp_core::Metric::Euc2d,
                );
                inst.check_length_range()?;
                Ok(inst)
            }
        }
    }
}

/// Minimal hand parser for the JSON points payload: a single array of
/// two-element number arrays. No vendored JSON dependency exists, and
/// the grammar is small enough that total, panic-free rejection of
/// garbage is easy to audit.
fn parse_json_points(text: &str) -> Result<Vec<(f64, f64)>, String> {
    let mut chars = text.chars().peekable();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let number = |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<f64, String> {
        let mut buf = String::new();
        while chars
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        {
            buf.push(chars.next().unwrap());
        }
        buf.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("bad number {buf:?}"))
    };
    skip_ws(&mut chars);
    if chars.next() != Some('[') {
        return Err("expected '[' opening the point list".into());
    }
    let mut pts = Vec::new();
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some(']') => {
                chars.next();
                break;
            }
            Some('[') => {
                chars.next();
                skip_ws(&mut chars);
                let x = number(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next() != Some(',') {
                    return Err("expected ',' between coordinates".into());
                }
                skip_ws(&mut chars);
                let y = number(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next() != Some(']') {
                    return Err("expected ']' closing a point".into());
                }
                pts.push((x, y));
                skip_ws(&mut chars);
                match chars.peek() {
                    Some(',') => {
                        chars.next();
                        skip_ws(&mut chars);
                        if chars.peek() != Some(&'[') {
                            return Err("trailing comma in point list".into());
                        }
                    }
                    Some(']') => {}
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
            other => return Err(format!("expected '[' or ']', got {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing garbage after point list".into());
    }
    Ok(pts)
}

/// Serialize points to the JSON payload format (the inverse of
/// [`JobPayload::Json`] parsing; used by tests and the bench client).
pub fn points_to_json(pts: &[(f64, f64)]) -> String {
    let body: Vec<String> = pts.iter().map(|(x, y)| format!("[{x},{y}]")).collect();
    format!("[{}]", body.join(","))
}

/// Everything a client states about a solve job. At least one bound
/// (kicks, deadline, or target) should be set; unbounded submissions
/// are capped at 64 kicks on admission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Engine master seed (bit-reproducible runs; see the conformance
    /// test).
    pub seed: u64,
    /// CLK-call budget (`None` = unbounded on the wire).
    pub kicks: Option<u64>,
    /// Wall-clock deadline, measured from admission.
    pub deadline: Option<Duration>,
    /// Stop as soon as a tour of this length (or shorter) is found.
    pub target: Option<i64>,
    /// The instance.
    pub payload: JobPayload,
}

impl JobSpec {
    /// Spec with no bounds set (admission applies the default cap).
    pub fn new(payload: JobPayload) -> Self {
        JobSpec {
            seed: 0,
            kicks: None,
            deadline: None,
            target: None,
            payload,
        }
    }

    /// Set the engine seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bound the job by CLK calls.
    pub fn kicks(mut self, kicks: u64) -> Self {
        self.kicks = Some(kicks);
        self
    }

    /// Bound the job by wall clock.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Stop at this quality target.
    pub fn target(mut self, length: i64) -> Self {
        self.target = Some(length);
        self
    }

    /// Encode as a `JobSubmit` frame (`from`/`job` zero: the scheduler
    /// assigns the id).
    pub fn to_submit(&self, client: u64) -> Message {
        Message::JobSubmit {
            from: 0,
            job: 0,
            client,
            seed: self.seed,
            kicks: self.kicks.unwrap_or(0),
            // Past `u64::MAX` ms saturates: admission reads that as
            // no deadline, as it reads any deadline past the clock.
            deadline_ms: self
                .deadline
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX).max(1))
                .unwrap_or(0),
            target: self.target.unwrap_or(i64::MIN),
            payload_kind: self.payload.kind(),
            payload: self.payload.bytes().to_vec(),
        }
    }

    /// Decode a `JobSubmit` frame into `(client, spec)`.
    pub fn from_submit(msg: &Message) -> Result<(u64, JobSpec), String> {
        let Message::JobSubmit {
            client,
            seed,
            kicks,
            deadline_ms,
            target,
            payload_kind,
            payload,
            ..
        } = msg
        else {
            return Err("not a JobSubmit frame".into());
        };
        Ok((
            *client,
            JobSpec {
                seed: *seed,
                kicks: (*kicks > 0).then_some(*kicks),
                deadline: (*deadline_ms > 0).then(|| Duration::from_millis(*deadline_ms)),
                target: (*target != i64::MIN).then_some(*target),
                payload: JobPayload::from_wire(*payload_kind, payload)?,
            },
        ))
    }
}

// ---------------------------------------------------------------------------
// Service configuration and client-facing types
// ---------------------------------------------------------------------------

/// Configuration of a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker count: the placement labels jobs are spread over (node
    /// ids `1..=workers`, reported in `JobAccept`).
    pub workers: usize,
    /// Engine template: `clk`, `c_v`/`c_r`, perturbation settings.
    /// Per-job fields (`nodes`, `seed`, `budget`) are overridden from
    /// each [`JobSpec`]; everything else applies to all jobs.
    pub engine: DistConfig,
    /// Fairness: default per-client admission budget, in jobs.
    pub default_limit: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            engine: DistConfig::default(),
            default_limit: 64,
        }
    }
}

/// Kick cap applied to submissions that set no bound at all.
const DEFAULT_KICKS: u64 = 64;
/// How long past a job's deadline [`JobHandle::recv`] waits for the
/// solve thread to end the job before ending it itself (the backstop
/// that guarantees clean expiry even if the thread is wedged).
const DEADLINE_GRACE: Duration = Duration::from_secs(2);

/// One update on a job's result stream. Lengths are monotone
/// non-increasing across the `Improved` updates of one job, and `Done`
/// is terminal.
#[derive(Debug, Clone, PartialEq)]
pub enum JobUpdate {
    /// The scheduler placed the job on a worker.
    Accepted {
        /// Worker node id.
        worker: NodeId,
    },
    /// A strictly better tour was found.
    Improved {
        /// Tour length.
        length: i64,
        /// City order.
        order: Vec<u32>,
    },
    /// Terminal state; no further updates follow.
    Done {
        /// Why the job ended.
        reason: DoneReason,
        /// Best length found (`i64::MAX` if no tour was ever produced).
        length: i64,
        /// Best tour found (empty if none).
        order: Vec<u32>,
    },
}

/// Client half of an accepted job: the assigned id plus the live
/// update stream.
pub struct JobHandle {
    id: u64,
    updates: Receiver<JobUpdate>,
    /// `DEADLINE_GRACE` past the job's deadline (`None` without one, or
    /// past the end of the clock): when [`JobHandle::recv`] stops
    /// waiting and ends the job itself.
    backstop: Option<Instant>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

impl JobHandle {
    /// The scheduler-assigned job id ([`p2p::job_id`] of client and
    /// per-client sequence number).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block for the next update; `None` once the stream is closed
    /// (after `Done`, or if the service shut down). A job still live
    /// `DEADLINE_GRACE` past its deadline is ended here, with
    /// `Done(Deadline)` and its best tour.
    pub fn recv(&self) -> Option<JobUpdate> {
        let Some(at) = self.backstop else {
            return self.updates.recv().ok();
        };
        match self
            .updates
            .recv_timeout(at.saturating_duration_since(Instant::now()))
        {
            Ok(update) => Some(update),
            Err(RecvTimeoutError::Disconnected) => None,
            Err(RecvTimeoutError::Timeout) => {
                self.shared.finish_job(self.id, DoneReason::Deadline);
                // The job is no longer live, so nothing can send on its
                // stream and this does not block.
                self.updates.recv().ok()
            }
        }
    }

    /// Drain the stream to its terminal update, returning
    /// `(reason, best length, best order)` — plus every improvement
    /// seen on the way, for stream-shape assertions.
    #[allow(clippy::type_complexity)]
    pub fn wait(self) -> Option<(DoneReason, i64, Vec<u32>, Vec<i64>)> {
        let mut improvements = Vec::new();
        while let Some(update) = self.recv() {
            match update {
                JobUpdate::Accepted { .. } => {}
                JobUpdate::Improved { length, .. } => improvements.push(length),
                JobUpdate::Done {
                    reason,
                    length,
                    order,
                } => return Some((reason, length, order, improvements)),
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Service internals
// ---------------------------------------------------------------------------

/// Cross-thread cancel slot: 0 = not cancelled, else `reason + 1`.
#[derive(Default)]
struct CancelSlot(AtomicU8);

impl CancelSlot {
    fn set(&self, reason: DoneReason) {
        self.0.store(reason.code() + 1, Ordering::Relaxed);
    }

    fn get(&self) -> Option<DoneReason> {
        match self.0.load(Ordering::Relaxed) {
            0 => None,
            c => Some(DoneReason::from_code(c - 1)),
        }
    }
}

struct JobState {
    worker: NodeId,
    /// Stops the job's solve thread.
    cancel: Arc<CancelSlot>,
    best: Option<(i64, Vec<u32>)>,
    subscriber: Sender<JobUpdate>,
}

/// Everything the service's lock guards.
struct State {
    /// Jobs admitted per client: its next job's sequence number, and
    /// what it has spent against `limit`.
    admitted: HashMap<u64, u64>,
    limit: u64,
    /// Running jobs per worker; worker `w` is `load[w - 1]`.
    load: Vec<usize>,
    /// The live jobs.
    jobs: HashMap<u64, JobState>,
}

impl State {
    /// Mint the client's next job id and place the job on the
    /// least-loaded worker, ties to the lowest id; `None` once the
    /// client is at its limit.
    fn reserve(&mut self, client: u64) -> Option<(u64, NodeId)> {
        let admitted = self.admitted.entry(client).or_insert(0);
        if *admitted >= self.limit {
            return None;
        }
        let job = job_id(client, *admitted as u32);
        *admitted += 1;
        let worker = (1..=self.load.len())
            .min_by_key(|&w| self.load[w - 1])
            .expect("a service has at least one worker");
        self.load[worker - 1] += 1;
        Some((job, worker))
    }

    /// Undo the client's latest [`State::reserve`], whose job never
    /// ran: the client is not charged for it, and the next job gets its
    /// id.
    fn release(&mut self, client: u64, worker: NodeId) {
        self.load[worker - 1] -= 1;
        self.admitted.entry(client).and_modify(|n| *n -= 1);
    }
}

/// What the service, its solve threads and its handles share.
struct Shared {
    state: Mutex<State>,
    obs: Obs,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Track and stream a better tour of a live job. The job's solve
    /// thread sends only strict improvements, so the stream is
    /// strictly monotone.
    fn improved(&self, job: u64, length: i64, order: Vec<u32>) {
        let mut state = self.lock();
        let Some(live) = state.jobs.get_mut(&job) else {
            return;
        };
        live.best = Some((length, order.clone()));
        let _ = live.subscriber.send(JobUpdate::Improved { length, order });
        self.obs.counter(kinds::C_SVC_IMPROVEMENTS).incr();
    }

    /// End a job exactly once: whoever removes it from the live jobs
    /// first books the counters, releases its worker, stops its solve
    /// thread if that still runs and sends `Done` with the tracked
    /// best.
    fn finish_job(&self, job: u64, reason: DoneReason) {
        let mut state = self.lock();
        let Some(live) = state.jobs.remove(&job) else {
            return;
        };
        live.cancel.set(reason);
        state.load[live.worker - 1] -= 1;
        let (length, order) = live.best.unwrap_or((i64::MAX, Vec::new()));
        // Book-keep *before* waking the subscriber: a client that sees
        // the terminal update (possibly across a TCP hop) must also see
        // the completion counters it implies.
        self.obs.counter(kinds::C_SVC_COMPLETED).incr();
        match reason {
            DoneReason::Deadline => self.obs.counter(kinds::C_SVC_EXPIRED).incr(),
            DoneReason::Cancelled => self.obs.counter(kinds::C_SVC_CANCELLED).incr(),
            _ => {}
        }
        self.obs.event(
            kinds::SVC_DONE,
            &[
                ("job", Value::U(job)),
                ("reason", Value::U(reason.code() as u64)),
                ("len", Value::I(length)),
            ],
        );
        let _ = live.subscriber.send(JobUpdate::Done {
            reason,
            length,
            order,
        });
    }
}

/// One job's solve thread: a private single-node engine over its own
/// one-node in-memory network. With no cancellation this is
/// step-for-step the [`crate::run_over_transports`] loop
/// (`while step(); finish()`), which is what the conformance suite
/// pins: same seed and config ⇒ bit-identical tour.
///
/// Streams in the order the node obtains tours: the construction tour
/// as soon as [`NodeDriver::new`] returns, the first LK pass's result
/// after the first step, then every improving step, the last one
/// included — so a job's first `JobImproved` precedes its first LK
/// pass, and its `JobDone` carries the last tour it streamed.
fn solve_job(
    job: u64,
    inst: &Instance,
    engine: &DistConfig,
    deadline: Option<Instant>,
    cancel: &CancelSlot,
    shared: &Shared,
) {
    let neighbors = crate::build_neighbors(inst, engine);
    let (mut eps, _) = InMemoryNetwork::build(1, engine.topology);
    let mut node = NodeDriver::new(inst, &neighbors, engine, eps.remove(0));
    let mut last = i64::MAX;
    let mut ship = |node: &NodeDriver<_>| {
        if node.best_length() < last {
            last = node.best_length();
            shared.improved(job, last, node.best_tour().order().to_vec());
        }
    };
    ship(&node);
    let cancelled = loop {
        if let Some(reason) = cancel.get() {
            break Some(reason);
        }
        // The engine's own time budget normally stops it first.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break Some(DoneReason::Deadline);
        }
        let more = node.step();
        ship(&node);
        if !more {
            break None;
        }
    };
    let result = node.finish();
    // Attribute a natural stop to whichever bound actually tripped:
    // target beats kicks beats deadline when several are set (the
    // engine's own clock includes construction time, so the deadline
    // verdict falls out by elimination rather than re-measuring).
    let budget = &engine.budget;
    let reason = cancelled.unwrap_or_else(|| {
        if budget
            .target_length
            .is_some_and(|t| result.best_length <= t)
        {
            DoneReason::Target
        } else if budget.max_kicks.is_some_and(|k| result.clk_calls >= k) {
            DoneReason::Budget
        } else if budget.time_limit.is_some() {
            DoneReason::Deadline
        } else {
            DoneReason::Budget
        }
    });
    shared.finish_job(job, reason);
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A persistent, multi-tenant solve service: one solve thread per
/// running job and no thread of its own, accepting jobs until
/// [`SolverService::shutdown`] (or drop).
pub struct SolverService {
    shared: Arc<Shared>,
    engine: DistConfig,
}

impl SolverService {
    /// Start accepting jobs.
    pub fn start(cfg: ServiceConfig) -> Self {
        assert!(cfg.workers >= 1, "a service needs at least one worker");
        let state = State {
            admitted: HashMap::new(),
            limit: cfg.default_limit,
            load: vec![0; cfg.workers],
            jobs: HashMap::new(),
        };
        SolverService {
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                obs: Obs::for_node(0),
            }),
            engine: cfg.engine,
        }
    }

    /// Submit a job for `client`. Admission runs on the caller's thread
    /// (payload validation, fairness count, placement, the solve
    /// thread's start); solving streams back on the returned handle.
    pub fn submit(&self, client: u64, spec: JobSpec) -> Result<JobHandle, String> {
        let obs = &self.shared.obs;
        obs.counter(kinds::C_SVC_SUBMITTED).incr();
        let reject = |why: u64| {
            obs.counter(kinds::C_SVC_REJECTED).incr();
            obs.event(
                kinds::SVC_REJECT,
                &[("client", Value::U(client)), ("why", Value::U(why))],
            );
        };
        // Validate before counting: a malformed payload is not the
        // tenant's budget's problem.
        let inst = spec.payload.parse().map_err(|e| {
            reject(0);
            format!("bad payload: {e}")
        })?;
        // A deadline past the end of the clock is no deadline.
        let deadline = spec.deadline.and_then(|d| Instant::now().checked_add(d));
        let unbounded_job = spec.kicks.is_none() && deadline.is_none() && spec.target.is_none();
        let mut engine = self.engine.clone();
        engine.nodes = 1;
        engine.seed = spec.seed;
        engine.budget = Budget {
            time_limit: deadline.map(|d| d.saturating_duration_since(Instant::now())),
            max_kicks: if unbounded_job {
                Some(DEFAULT_KICKS)
            } else {
                spec.kicks
            },
            target_length: spec.target,
        };
        let mut state = self.shared.lock();
        let Some((job, worker)) = state.reserve(client) else {
            reject(1);
            return Err(format!(
                "flow budget exhausted for client {client} (limit {})",
                state.limit
            ));
        };
        // Sent before the solve thread exists, so `Accepted` precedes
        // every `Improved` of the job by construction.
        let (subscriber, updates) = channel();
        let _ = subscriber.send(JobUpdate::Accepted { worker });
        let cancel = Arc::new(CancelSlot::default());
        state.jobs.insert(
            job,
            JobState {
                worker,
                cancel: Arc::clone(&cancel),
                best: None,
                subscriber,
            },
        );
        // The OS may refuse a thread: that fails this admission and
        // costs the client nothing. Started under the lock, so the
        // release cannot interleave with the client's next admission.
        let shared = Arc::clone(&self.shared);
        if let Err(e) = std::thread::Builder::new()
            .name(format!("svc-job-{job:x}"))
            .spawn(move || solve_job(job, &inst, &engine, deadline, &cancel, &shared))
        {
            state.jobs.remove(&job);
            state.release(client, worker);
            obs.counter(kinds::C_SVC_REJECTED).incr();
            return Err(format!("cannot start a solve thread: {e}"));
        }
        // Booked under the lock, so before the job can end.
        obs.counter(kinds::C_SVC_ACCEPTED).incr();
        obs.event(
            kinds::SVC_ACCEPT,
            &[
                ("job", Value::U(job)),
                ("client", Value::U(client)),
                ("worker", Value::U(worker as u64)),
            ],
        );
        drop(state);
        Ok(JobHandle {
            id: job,
            updates,
            backstop: deadline.and_then(|d| d.checked_add(DEADLINE_GRACE)),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Cancel a job (client-initiated, reason code 3): its solve thread
    /// stops before its next step and ends the job.
    pub fn cancel(&self, job: u64) {
        if let Some(live) = self.shared.lock().jobs.get(&job) {
            live.cancel.set(DoneReason::Cancelled);
        }
    }

    /// The service's observability handle (`svc.*` counters/events).
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Stop accepting jobs and end every live one with
    /// `Done(Cancelled)` and its best tour; their solve threads are
    /// told to stop.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        let live: Vec<u64> = self.shared.lock().jobs.keys().copied().collect();
        for job in live {
            self.shared.finish_job(job, DoneReason::Cancelled);
        }
    }
}

// ---------------------------------------------------------------------------
// TCP front-end: the hub's JOB command
// ---------------------------------------------------------------------------

/// Adapter registering a [`SolverService`] as the lifecycle hub's
/// [`JobHandler`]: `p2p::hub::submit_job` connections stream
/// `JobAccept`/`JobImproved*`/`JobDone` frames mirroring the handle's
/// updates. Attach with [`ServiceJobHandler::attach`].
pub struct ServiceJobHandler {
    service: Arc<SolverService>,
}

impl ServiceJobHandler {
    /// Register on a running hub (`hub.set_job_handler`).
    pub fn attach(service: Arc<SolverService>, hub: &p2p::hub::LifecycleHub) {
        hub.set_job_handler(Arc::new(ServiceJobHandler { service }));
    }
}

impl JobHandler for ServiceJobHandler {
    fn handle(&self, first: Message, mut stream: TcpStream) -> Result<(), NetError> {
        match first {
            submit @ Message::JobSubmit { .. } => {
                let (client, spec) = match JobSpec::from_submit(&submit) {
                    Ok(parts) => parts,
                    Err(e) => {
                        reply_line(&mut stream, &format!("ERR {e}"))?;
                        return Ok(());
                    }
                };
                let handle = match self.service.submit(client, spec) {
                    Ok(h) => h,
                    Err(e) => {
                        reply_line(&mut stream, &format!("ERR {e}"))?;
                        return Ok(());
                    }
                };
                let job = handle.id();
                reply_line(&mut stream, &format!("OK {job}"))?;
                while let Some(update) = handle.recv() {
                    let frame = match update {
                        JobUpdate::Accepted { worker } => Message::JobAccept {
                            from: 0,
                            job,
                            worker: worker as u64,
                        },
                        JobUpdate::Improved { length, order } => Message::JobImproved {
                            from: 0,
                            job,
                            length,
                            order,
                        },
                        JobUpdate::Done {
                            reason,
                            length,
                            order,
                        } => Message::JobDone {
                            from: 0,
                            job,
                            reason: reason.code(),
                            length,
                            order,
                        },
                    };
                    let terminal = matches!(frame, Message::JobDone { .. });
                    if write_frame(&mut stream, &frame).is_err() {
                        // Client hung up mid-stream: release its slot.
                        self.service.cancel(job);
                        return Ok(());
                    }
                    if terminal {
                        break;
                    }
                }
                Ok(())
            }
            Message::JobCancel { job, .. } => {
                self.service.cancel(job);
                reply_line(&mut stream, "OK")?;
                Ok(())
            }
            _ => {
                reply_line(&mut stream, "ERR expected JobSubmit or JobCancel")?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_payload(n: usize) -> JobPayload {
        let side = (n as f64).sqrt().ceil() as usize;
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % side) as f64 * 10.0, (i / side) as f64 * 10.0))
            .collect();
        JobPayload::Json(points_to_json(&pts))
    }

    #[test]
    fn json_points_roundtrip_and_rejection() {
        let pts = vec![(0.0, 0.0), (3.5, -1.25), (100.0, 7.0)];
        let text = points_to_json(&pts);
        assert_eq!(parse_json_points(&text).unwrap(), pts);
        assert_eq!(
            parse_json_points(" [ [1 , 2.5] , [3,4] , [5,6] ] ").unwrap(),
            vec![(1.0, 2.5), (3.0, 4.0), (5.0, 6.0)]
        );
        for bad in [
            "",
            "[",
            "[[1,2]",
            "[[1,2],]",
            "[[1]]",
            "[[1,2,3]]",
            "[[1,2]] trailing",
            "[[1,nan]]",
            "[[1,inf]]",
            "{\"pts\": []}",
        ] {
            assert!(parse_json_points(bad).is_err(), "accepted {bad:?}");
        }
        // Too few cities is an admission error, not a panic.
        assert!(JobPayload::Json("[[0,0],[1,1]]".into()).parse().is_err());
    }

    /// 12 cities at `(a·s, b·s)`: at s = 1e18 the construction tour's
    /// length wrapped and the first LK pass never returned; at s = 1e300
    /// the hybrid candidate build indexed out of range. Both payloads
    /// are refused at admission, as JSON and as TSPLIB.
    #[test]
    fn json_payload_whose_lengths_overflow_is_refused() {
        for s in [1e18, 1e300] {
            let pts: Vec<(f64, f64)> = (0..12)
                .map(|i| ((i % 4) as f64 * s, (i / 4) as f64 * s))
                .collect();
            let err = JobPayload::Json(points_to_json(&pts)).parse().unwrap_err();
            assert!(err.contains("overflow"), "{err}");
            let inst = Instance::new(
                "huge",
                pts.iter().map(|&(x, y)| Point::new(x, y)).collect(),
                tsp_core::Metric::Euc2d,
            );
            let text = tsp_core::tsplib::write_instance(&inst);
            let err = JobPayload::Tsplib(text).parse().unwrap_err();
            assert!(err.contains("overflow"), "{err}");
        }
    }

    #[test]
    fn tsplib_payload_parses() {
        let inst = grid_payload(9).parse().unwrap();
        let text = tsp_core::tsplib::write_instance(&inst);
        let reparsed = JobPayload::Tsplib(text).parse().unwrap();
        assert_eq!(reparsed.len(), 9);
    }

    #[test]
    fn spec_submit_roundtrip() {
        let spec = JobSpec::new(grid_payload(16))
            .seed(7)
            .kicks(12)
            .deadline(Duration::from_millis(1500))
            .target(123);
        let msg = spec.to_submit(42);
        let (client, back) = JobSpec::from_submit(&msg).unwrap();
        assert_eq!(client, 42);
        assert_eq!(back.seed, 7);
        assert_eq!(back.kicks, Some(12));
        assert_eq!(back.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(back.target, Some(123));
        assert_eq!(back.payload, spec.payload);

        // Unset bounds map through the wire sentinels.
        let bare = JobSpec::new(grid_payload(16));
        let (_, back) = JobSpec::from_submit(&bare.to_submit(1)).unwrap();
        assert_eq!(back.kicks, None);
        assert_eq!(back.deadline, None);
        assert_eq!(back.target, None);

        // A deadline past `u64::MAX` ms saturates instead of wrapping
        // (this one truncated to 384 ms).
        let far =
            JobSpec::new(grid_payload(16)).deadline(Duration::from_secs(18_446_744_073_709_552));
        let Message::JobSubmit { deadline_ms, .. } = far.to_submit(1) else {
            unreachable!()
        };
        assert_eq!(deadline_ms, u64::MAX);
    }

    #[test]
    fn reserve_counts_per_client_and_release_gives_the_job_back() {
        let mut state = State {
            admitted: HashMap::new(),
            limit: 2,
            load: vec![0; 2],
            jobs: HashMap::new(),
        };
        assert_eq!(state.reserve(1), Some((job_id(1, 0), 1)));
        assert_eq!(state.reserve(1), Some((job_id(1, 1), 2)));
        // The second job's thread was refused: its id is free again and
        // the limit counts the retry once.
        state.release(1, 2);
        assert_eq!(state.load, [1, 0]);
        assert_eq!(state.reserve(1), Some((job_id(1, 1), 2)));
        assert_eq!(
            state.reserve(1),
            None,
            "a third job must bounce off limit 2"
        );
        assert_eq!(state.load, [1, 1], "a refused job takes no worker");
        assert_eq!(
            state.reserve(2),
            Some((job_id(2, 0), 1)),
            "other tenants unaffected"
        );
    }

    #[test]
    fn done_reason_codes_roundtrip() {
        for reason in [
            DoneReason::Budget,
            DoneReason::Target,
            DoneReason::Deadline,
            DoneReason::Cancelled,
        ] {
            assert_eq!(DoneReason::from_code(reason.code()), reason);
        }
    }

    /// A live job whose solve thread never ends it is ended by the
    /// client's `recv`, `DEADLINE_GRACE` after its deadline, with the
    /// tracked best; the job is booked and its worker released once.
    #[test]
    fn recv_ends_a_job_left_live_past_its_deadline() {
        let svc = SolverService::start(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let deadline = Instant::now();
        // Registered as admission does, with no solve thread behind it.
        let (job, worker) = svc.shared.lock().reserve(7).unwrap();
        let (subscriber, updates) = channel();
        let best = (123, vec![0, 2, 1]);
        svc.shared.lock().jobs.insert(
            job,
            JobState {
                worker,
                cancel: Arc::default(),
                best: Some(best.clone()),
                subscriber,
            },
        );
        let handle = JobHandle {
            id: job,
            updates,
            backstop: deadline.checked_add(DEADLINE_GRACE),
            shared: Arc::clone(&svc.shared),
        };
        assert_eq!(
            handle.recv(),
            Some(JobUpdate::Done {
                reason: DoneReason::Deadline,
                length: best.0,
                order: best.1,
            })
        );
        assert!(deadline.elapsed() >= DEADLINE_GRACE);
        assert_eq!(handle.recv(), None, "the stream ends after Done");
        let snapshot = svc.obs().snapshot();
        assert_eq!(snapshot.counter(kinds::C_SVC_COMPLETED), 1);
        assert_eq!(snapshot.counter(kinds::C_SVC_EXPIRED), 1);
        let state = svc.shared.lock();
        assert!(state.jobs.is_empty());
        assert_eq!(state.load, [0, 0], "the worker was not released");
    }

    #[test]
    fn service_runs_one_job_end_to_end() {
        let svc = SolverService::start(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let handle = svc
            .submit(1, JobSpec::new(grid_payload(25)).seed(3).kicks(5))
            .unwrap();
        assert_eq!(handle.id(), job_id(1, 0));
        let (reason, length, order, improvements) = handle.wait().unwrap();
        assert_eq!(reason, DoneReason::Budget);
        assert!(length < i64::MAX);
        assert_eq!(order.len(), 25);
        assert!(!improvements.is_empty(), "anytime stream was empty");
        assert!(
            improvements.windows(2).all(|w| w[1] < w[0]),
            "stream not strictly improving: {improvements:?}"
        );
        assert_eq!(*improvements.last().unwrap(), length);
        svc.shutdown();
    }

    #[test]
    fn fairness_rejects_over_limit_and_bad_payloads() {
        let svc = SolverService::start(ServiceConfig {
            workers: 1,
            default_limit: 1,
            ..Default::default()
        });
        let err = svc
            .submit(5, JobSpec::new(JobPayload::Json("nonsense".into())))
            .unwrap_err();
        assert!(err.contains("bad payload"), "{err}");
        let ok = svc
            .submit(5, JobSpec::new(grid_payload(16)).kicks(2))
            .unwrap();
        let err = svc
            .submit(5, JobSpec::new(grid_payload(16)).kicks(2))
            .unwrap_err();
        assert!(err.contains("flow budget exhausted"), "{err}");
        // A different tenant still gets in.
        assert!(svc
            .submit(6, JobSpec::new(grid_payload(16)).kicks(2))
            .is_ok());
        assert!(ok.wait().is_some());
        let snapshot = svc.obs().snapshot();
        assert_eq!(snapshot.counter(kinds::C_SVC_REJECTED), 2);
        svc.shutdown();
    }
}
