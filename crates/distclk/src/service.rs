//! Solver-as-a-service: a long-lived, multi-tenant job layer over the
//! engine (the ROADMAP's top open item).
//!
//! The paper's system solves one instance per cluster bring-up; this
//! module makes the solver outlive any single job. A persistent
//! [`SolverService`] is one supervisor thread blocked on one channel of
//! events: client calls, and the improvements and verdicts that solve
//! threads report to it directly. It wakes otherwise only when a job
//! deadline comes due — an idle service does nothing at all. Clients
//! submit a [`JobSpec`] — TSPLIB or JSON payload plus a deadline and/or
//! quality budget — and receive a [`JobHandle`] streaming strictly
//! improving tours back as they are found (anytime semantics),
//! terminated by a single [`JobUpdate::Done`].
//!
//! Design points:
//!
//! - **Per-job engine state.** The [`crate::NodeDriver`] stays borrowed
//!   to one instance for its lifetime; the decoupling happens one layer
//!   up. Every accepted job gets its own solve thread owning the
//!   [`Instance`] admission parsed, its candidate lists, and a fresh
//!   single-node driver — engine state is keyed by `job_id`. A *worker*
//!   is a placement-and-failure domain, not a thread: it carries any
//!   number of concurrent jobs, and killing it orphans exactly those.
//! - **Wire protocol.** The five `Job*` frames (codec tags 12–16) exist
//!   on the TCP boundary only: the front-end ([`ServiceJobHandler`])
//!   rides the lifecycle hub's `JOB` command and translates frames to
//!   and from the in-process [`JobSpec`]/[`JobUpdate`] types. Ids are
//!   minted by [`p2p::job_id`]`(client, seq)` following the PR 2
//!   broadcast-id template.
//! - **Churn survival.** The supervisor remembers each job's last
//!   streamed best; when a worker dies the job is restarted on a
//!   survivor with that tour as a checkpoint (PR 4's
//!   [`crate::NodeDriver::restore`] blob — an encoded `TourFound`
//!   frame, revalidated on restore). The kick budget restarts on the
//!   new worker but the absolute deadline is preserved.
//! - **Fairness.** Admission charges a per-client [`FlowBudget`] in a
//!   [`FlowLedger`] before any effect: a job over its tenant's limit is
//!   refused before it is queued, and a refused job costs nothing.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
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

    /// Human-readable name (reports, logs).
    pub fn label(self) -> &'static str {
        match self {
            DoneReason::Budget => "budget",
            DoneReason::Target => "target",
            DoneReason::Deadline => "deadline",
            DoneReason::Cancelled => "cancelled",
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

    /// Encode as a `JobSubmit` frame (fresh submission: `from`/`job`
    /// zero — the scheduler assigns the id — and no checkpoint).
    pub fn to_submit(&self, client: u64) -> Message {
        Message::JobSubmit {
            from: 0,
            job: 0,
            client,
            seed: self.seed,
            kicks: self.kicks.unwrap_or(0),
            deadline_ms: self
                .deadline
                .map(|d| (d.as_millis() as u64).max(1))
                .unwrap_or(0),
            target: self.target.unwrap_or(i64::MIN),
            payload_kind: self.payload.kind(),
            payload: self.payload.bytes().to_vec(),
            checkpoint: Vec::new(),
        }
    }

    /// Decode a `JobSubmit` frame into `(client, spec, checkpoint)`.
    pub fn from_submit(msg: &Message) -> Result<(u64, JobSpec, Vec<u8>), String> {
        let Message::JobSubmit {
            client,
            seed,
            kicks,
            deadline_ms,
            target,
            payload_kind,
            payload,
            checkpoint,
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
            checkpoint.clone(),
        ))
    }
}

// ---------------------------------------------------------------------------
// Fairness ledger (per-tenant flow budget)
// ---------------------------------------------------------------------------

/// One tenant's flow budget: what admission has charged it so far and
/// its ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowBudget {
    /// Cumulative admission cost charged to this tenant.
    pub spent: u64,
    /// Ceiling; admission fails once `spent + cost > limit`.
    pub limit: u64,
}

impl FlowBudget {
    /// Fresh budget with nothing spent.
    pub fn with_limit(limit: u64) -> Self {
        FlowBudget { spent: 0, limit }
    }

    /// Charge `cost` against the budget, *before* any effect of the
    /// admission. `false` leaves the budget untouched.
    pub fn charge(&mut self, cost: u64) -> bool {
        if self.spent.saturating_add(cost) > self.limit {
            return false;
        }
        self.spent += cost;
        true
    }
}

/// The per-client fairness ledger: tenant id → [`FlowBudget`]. Absent
/// tenants are implicitly `{spent: 0, limit: default_limit}`.
#[derive(Debug)]
pub struct FlowLedger {
    entries: BTreeMap<u64, FlowBudget>,
    default_limit: u64,
}

impl FlowLedger {
    /// Empty ledger; unseen tenants get `default_limit`.
    pub fn new(default_limit: u64) -> Self {
        FlowLedger {
            entries: BTreeMap::new(),
            default_limit,
        }
    }

    /// Charge a tenant (materializing its entry on first contact).
    /// Charging happens before the corresponding effect; a `false`
    /// return must abort the admission.
    pub fn charge(&mut self, client: u64, cost: u64) -> bool {
        let default_limit = self.default_limit;
        self.entries
            .entry(client)
            .or_insert_with(|| FlowBudget::with_limit(default_limit))
            .charge(cost)
    }

    /// Read a tenant's budget (the implicit default when unseen).
    pub fn get(&self, client: u64) -> FlowBudget {
        self.entries
            .get(&client)
            .copied()
            .unwrap_or(FlowBudget::with_limit(self.default_limit))
    }
}

// ---------------------------------------------------------------------------
// Service configuration and client-facing types
// ---------------------------------------------------------------------------

/// Configuration of a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker count: the placement-and-failure domains jobs are spread
    /// over (node ids `1..=workers`).
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

/// Admission cost of one job against its tenant's [`FlowBudget`].
const JOB_COST: u64 = 1;
/// Kick cap applied to submissions that set no bound at all.
const DEFAULT_KICKS: u64 = 64;
/// How long past a job's deadline the supervisor waits for the solve
/// thread's own expiry before force-finishing the job itself (the
/// backstop that guarantees clean expiry even if the thread is wedged).
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
    /// (after `Done`, or if the service shut down).
    pub fn recv(&self) -> Option<JobUpdate> {
        self.updates.recv().ok()
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<JobUpdate> {
        self.updates.try_recv().ok()
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
// Supervisor internals
// ---------------------------------------------------------------------------

/// Everything the supervisor reacts to, on one channel so one blocking
/// receive covers it all: client calls, and what solve threads report.
enum Event {
    Submit {
        client: u64,
        spec: JobSpec,
        reply: Sender<Result<(u64, Receiver<JobUpdate>), String>>,
    },
    Cancel {
        job: u64,
    },
    WorkerDead {
        worker: NodeId,
    },
    Shutdown,
    /// A solve thread found a better tour.
    Improved {
        job: u64,
        length: i64,
        order: Vec<u32>,
    },
    /// A solve thread (running under worker `from`) stopped.
    Done {
        from: NodeId,
        job: u64,
        reason: DoneReason,
        length: i64,
        order: Vec<u32>,
    },
}

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
    /// The service's engine template with this job's seed and bounds.
    engine: DistConfig,
    inst: Arc<Instance>,
    deadline: Option<Instant>,
    /// The deadline passed and the solve thread was told so.
    nudged: bool,
    worker: NodeId,
    /// Stops the current assignee's solve thread.
    cancel: Arc<CancelSlot>,
    best: Option<(i64, Vec<u32>)>,
    subscriber: Sender<JobUpdate>,
}

/// When the supervisor must wake although no event arrived, given each
/// job's `(deadline, nudged)`: the earliest deadline still to be
/// announced, or force-finish time of one already announced.
fn next_wake(jobs: impl Iterator<Item = (Option<Instant>, bool)>) -> Option<Instant> {
    jobs.filter_map(|(deadline, nudged)| {
        let deadline = deadline?;
        if nudged {
            deadline.checked_add(DEADLINE_GRACE)
        } else {
            Some(deadline)
        }
    })
    .min()
}

struct Supervisor {
    events: Receiver<Event>,
    /// Handed to every solve thread to report on.
    reports: Sender<Event>,
    engine: DistConfig,
    obs: Obs,
    ledger: FlowLedger,
    jobs: HashMap<u64, JobState>,
    /// Per-client sequence numbers for id minting.
    seqs: HashMap<u64, u32>,
    /// Live workers (dead ones are removed, never revived — the
    /// service keeps running degraded, like the paper's topology
    /// "degenerating" near the end of a run).
    alive: Vec<NodeId>,
    load: HashMap<NodeId, usize>,
}

impl Supervisor {
    fn run(mut self) {
        loop {
            self.check_deadlines();
            let wake = next_wake(self.jobs.values().map(|s| (s.deadline, s.nudged)));
            let event = match wake {
                None => self
                    .events
                    .recv()
                    .map_err(|_| RecvTimeoutError::Disconnected),
                Some(at) => self
                    .events
                    .recv_timeout(at.saturating_duration_since(Instant::now())),
            };
            match event {
                Ok(event) => {
                    if !self.on_event(event) {
                        break;
                    }
                }
                // A deadline came due: the top of the loop handles it.
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Terminal updates for anything still in flight, so client
        // streams end cleanly instead of hanging on a dropped channel.
        let jobs: Vec<u64> = self.jobs.keys().copied().collect();
        for job in jobs {
            self.finish_job(job, DoneReason::Cancelled, None);
        }
    }

    /// Handle one event; `false` on shutdown.
    fn on_event(&mut self, event: Event) -> bool {
        match event {
            Event::Submit {
                client,
                spec,
                reply,
            } => {
                let _ = reply.send(self.admit(client, spec));
            }
            Event::Cancel { job } => {
                if let Some(state) = self.jobs.get(&job) {
                    state.cancel.set(DoneReason::Cancelled);
                }
            }
            Event::WorkerDead { worker } => self.on_worker_dead(worker),
            Event::Shutdown => return false,
            Event::Improved { job, length, order } => self.on_improved(job, length, order),
            Event::Done {
                from,
                job,
                reason,
                length,
                order,
            } => {
                let tour = (length < i64::MAX && !order.is_empty()).then_some((length, order));
                match self.jobs.get(&job) {
                    Some(state) if state.worker == from => self.finish_job(job, reason, tour),
                    // A previous assignee that raced the reassignment:
                    // keep its tour, ignore its verdict — the new
                    // worker owns termination now.
                    Some(_) => {
                        if let Some((length, order)) = tour {
                            self.on_improved(job, length, order);
                        }
                    }
                    None => {}
                }
            }
        }
        true
    }

    fn admit(&mut self, client: u64, spec: JobSpec) -> Result<(u64, Receiver<JobUpdate>), String> {
        self.obs.counter(kinds::C_SVC_SUBMITTED).incr();
        let reject = |obs: &Obs, why: u64| {
            obs.counter(kinds::C_SVC_REJECTED).incr();
            obs.event(
                kinds::SVC_REJECT,
                &[("client", Value::U(client)), ("why", Value::U(why))],
            );
        };
        // Validate before charging: a malformed payload is not the
        // tenant's budget's problem.
        let inst = match spec.payload.parse() {
            Ok(inst) => Arc::new(inst),
            Err(e) => {
                reject(&self.obs, 0);
                return Err(format!("bad payload: {e}"));
            }
        };
        // Charge before any effect (the flow-budget discipline).
        if !self.ledger.charge(client, JOB_COST) {
            reject(&self.obs, 1);
            return Err(format!(
                "flow budget exhausted for client {client} (limit {})",
                self.ledger.get(client).limit
            ));
        }
        // A deadline past the end of the clock is no deadline.
        let deadline = spec.deadline.and_then(|d| Instant::now().checked_add(d));
        let unbounded_job = spec.kicks.is_none() && deadline.is_none() && spec.target.is_none();
        let seq = self.seqs.entry(client).or_insert(0);
        let job = job_id(client, *seq);
        *seq += 1;
        let mut engine = self.engine.clone();
        engine.nodes = 1;
        engine.seed = spec.seed;
        engine.budget = Budget {
            // Each placement sets what is left to the deadline.
            time_limit: None,
            max_kicks: if unbounded_job {
                Some(DEFAULT_KICKS)
            } else {
                spec.kicks
            },
            target_length: spec.target,
        };
        let (tx, rx) = channel();
        let state = JobState {
            engine,
            inst,
            deadline,
            nudged: false,
            worker: 0,
            cancel: Arc::default(),
            best: None,
            subscriber: tx,
        };
        self.jobs.insert(job, state);
        let worker = match self.dispatch(job) {
            Ok(worker) => worker,
            Err(e) => {
                self.jobs.remove(&job);
                self.obs.counter(kinds::C_SVC_REJECTED).incr();
                return Err(e);
            }
        };
        self.obs.counter(kinds::C_SVC_ACCEPTED).incr();
        // Sent before the next event is read, so `Accepted` precedes
        // every `Improved` of the job by construction.
        let _ = self.jobs[&job]
            .subscriber
            .send(JobUpdate::Accepted { worker });
        self.obs.event(
            kinds::SVC_ACCEPT,
            &[
                ("job", Value::U(job)),
                ("client", Value::U(client)),
                ("worker", Value::U(worker as u64)),
            ],
        );
        Ok((job, rx))
    }

    /// Place a job (fresh or orphaned) on the least-loaded live worker
    /// (ties to the lowest id) and start its solve thread there, from
    /// the last streamed best if there is one. Returns the worker.
    fn dispatch(&mut self, job: u64) -> Result<NodeId, String> {
        let Some(&worker) = self
            .alive
            .iter()
            .min_by_key(|&&w| (self.load.get(&w).copied().unwrap_or(0), w))
        else {
            return Err("no live workers".into());
        };
        let state = self.jobs.get_mut(&job).expect("dispatching unknown job");
        let mut engine = state.engine.clone();
        engine.budget.time_limit = state
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()));
        let checkpoint = state.best.as_ref().map(|(length, order)| {
            p2p::codec::encode(&Message::TourFound {
                from: 0,
                id: 0,
                length: *length,
                order: order.clone(),
            })
        });
        let inst = Arc::clone(&state.inst);
        let cancel = Arc::new(CancelSlot::default());
        let (stop, reports) = (Arc::clone(&cancel), self.reports.clone());
        // The OS may refuse a thread: that fails this placement, not
        // the supervisor.
        std::thread::Builder::new()
            .name(format!("svc-job-{job:x}"))
            .spawn(move || solve_job(worker, job, &inst, &engine, checkpoint, &stop, &reports))
            .map_err(|e| format!("cannot start a solve thread: {e}"))?;
        state.worker = worker;
        state.cancel = cancel;
        *self.load.entry(worker).or_insert(0) += 1;
        Ok(worker)
    }

    /// Relay only strict improvements over the tracked best: one solve
    /// thread's reports are already strictly improving, but a
    /// reassigned job restarts from its checkpoint and may re-announce
    /// equal-or-worse tours. This filter is what makes the client
    /// stream monotone decreasing unconditionally.
    fn on_improved(&mut self, job: u64, length: i64, order: Vec<u32>) {
        let Some(state) = self.jobs.get_mut(&job) else {
            return;
        };
        if state.best.as_ref().is_none_or(|(l, _)| length < *l) {
            state.best = Some((length, order.clone()));
            let _ = state.subscriber.send(JobUpdate::Improved { length, order });
            self.obs.counter(kinds::C_SVC_IMPROVEMENTS).incr();
        }
    }

    /// Terminal transition: emit `Done` carrying the best tour seen
    /// from any assignee, drop the job, stop its solve thread if that
    /// is still running, release the worker-load slot.
    fn finish_job(&mut self, job: u64, reason: DoneReason, last: Option<(i64, Vec<u32>)>) {
        let Some(mut state) = self.jobs.remove(&job) else {
            return;
        };
        state.cancel.set(reason);
        if let Some((length, order)) = last {
            if state.best.as_ref().is_none_or(|(l, _)| length < *l) {
                state.best = Some((length, order));
            }
        }
        if let Some(load) = self.load.get_mut(&state.worker) {
            *load = load.saturating_sub(1);
        }
        let (length, order) = state.best.unwrap_or((i64::MAX, Vec::new()));
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
        let _ = state.subscriber.send(JobUpdate::Done {
            reason,
            length,
            order,
        });
    }

    /// A worker died: its solve threads stop, and every job it carried
    /// restarts on a survivor from the last tour the supervisor
    /// streamed (the checkpoint/restore path — zero accepted-job loss).
    fn on_worker_dead(&mut self, worker: NodeId) {
        self.alive.retain(|&w| w != worker);
        self.load.remove(&worker);
        let orphans: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, s)| s.worker == worker)
            .map(|(&j, _)| j)
            .collect();
        for job in orphans {
            let state = &self.jobs[&job];
            state.cancel.set(DoneReason::Cancelled);
            if state.deadline.is_some_and(|d| Instant::now() >= d) {
                // Past deadline already: expire cleanly rather than
                // burn a survivor on it.
                self.finish_job(job, DoneReason::Deadline, None);
            } else if let Ok(to) = self.dispatch(job) {
                self.obs.counter(kinds::C_SVC_REASSIGNED).incr();
                self.obs.event(
                    kinds::SVC_REASSIGN,
                    &[
                        ("job", Value::U(job)),
                        ("from_worker", Value::U(worker as u64)),
                        ("to_worker", Value::U(to as u64)),
                    ],
                );
            } else {
                self.finish_job(job, DoneReason::Cancelled, None);
            }
        }
    }

    /// Deadline enforcement: at expiry, tell the solve thread (its own
    /// time budget normally fires first); [`DEADLINE_GRACE`] later,
    /// force-finish from the supervisor — the guarantee that every job
    /// terminates even if its thread is wedged.
    fn check_deadlines(&mut self) {
        let now = Instant::now();
        let mut expired = Vec::new();
        for (&job, state) in self.jobs.iter_mut() {
            let Some(deadline) = state.deadline.filter(|&d| now >= d) else {
                continue;
            };
            if !state.nudged {
                state.nudged = true;
                state.cancel.set(DoneReason::Deadline);
            }
            if deadline
                .checked_add(DEADLINE_GRACE)
                .is_some_and(|g| now >= g)
            {
                expired.push(job);
            }
        }
        for job in expired {
            self.finish_job(job, DoneReason::Deadline, None);
        }
    }
}

/// One job's solve thread: a private single-node engine over its own
/// one-node in-memory network. With no cancellation this is
/// step-for-step the [`crate::run_over_transports`] loop
/// (`while step(); finish()`), which is what the conformance suite
/// pins: same seed and config ⇒ bit-identical tour.
///
/// Reports in the order the node obtains tours: the construction tour
/// as soon as [`NodeDriver::new`] returns, the first LK pass's result
/// after the first step, then every improving iteration — so a job's
/// first `JobImproved` precedes its first LK pass.
fn solve_job(
    worker: NodeId,
    job: u64,
    inst: &Instance,
    engine: &DistConfig,
    checkpoint: Option<Vec<u8>>,
    cancel: &CancelSlot,
    reports: &Sender<Event>,
) {
    let neighbors = crate::build_neighbors(inst, engine);
    let (mut eps, _) = InMemoryNetwork::build(1, engine.topology);
    let mut node = NodeDriver::new(inst, &neighbors, engine, eps.remove(0));
    if let Some(checkpoint) = checkpoint {
        node.restore(&checkpoint);
    }
    // `new` returns with the construction tour (or the checkpoint, if
    // that is better): stream it before the first LK pass, which is the
    // node's first step. Anytime semantics start at acceptance.
    let mut last = i64::MAX;
    let mut ship = |node: &NodeDriver<_>| {
        if node.best_length() < last {
            last = node.best_length();
            let _ = reports.send(Event::Improved {
                job,
                length: last,
                order: node.best_tour().order().to_vec(),
            });
        }
    };
    ship(&node);
    let cancelled = loop {
        if let Some(reason) = cancel.get() {
            break Some(reason);
        }
        if !node.step() {
            break None;
        }
        ship(&node);
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
    let _ = reports.send(Event::Done {
        from: worker,
        job,
        reason,
        length: result.best_length,
        order: result.best_tour.order().to_vec(),
    });
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A persistent, multi-tenant solve service: one supervisor thread,
/// plus one solve thread per running job, accepting jobs until
/// [`SolverService::shutdown`] (or drop).
pub struct SolverService {
    events: Sender<Event>,
    supervisor: Option<JoinHandle<()>>,
    obs: Obs,
}

impl SolverService {
    /// Start accepting jobs.
    pub fn start(cfg: ServiceConfig) -> Self {
        assert!(cfg.workers >= 1, "a service needs at least one worker");
        let obs = Obs::for_node(0);
        let (events_tx, events_rx) = channel();
        let supervisor = Supervisor {
            events: events_rx,
            reports: events_tx.clone(),
            alive: (1..=cfg.workers as NodeId).collect(),
            load: HashMap::new(),
            ledger: FlowLedger::new(cfg.default_limit),
            jobs: HashMap::new(),
            seqs: HashMap::new(),
            obs: obs.clone(),
            engine: cfg.engine,
        };
        let supervisor = std::thread::Builder::new()
            .name("svc-supervisor".into())
            .spawn(move || supervisor.run())
            .expect("spawn supervisor");
        SolverService {
            events: events_tx,
            supervisor: Some(supervisor),
            obs,
        }
    }

    /// Submit a job for `client`. Blocks only for admission (payload
    /// validation, fairness charge, placement); solving streams back on
    /// the returned handle.
    pub fn submit(&self, client: u64, spec: JobSpec) -> Result<JobHandle, String> {
        let (reply_tx, reply_rx) = channel();
        self.events
            .send(Event::Submit {
                client,
                spec,
                reply: reply_tx,
            })
            .map_err(|_| "service shut down".to_string())?;
        let (id, updates) = reply_rx
            .recv()
            .map_err(|_| "service shut down".to_string())??;
        Ok(JobHandle { id, updates })
    }

    /// Cancel a job (client-initiated, reason code 3).
    pub fn cancel(&self, job: u64) {
        let _ = self.events.send(Event::Cancel { job });
    }

    /// Crash worker `worker` (1-based node id): it takes no more jobs,
    /// its solve threads stop, and the supervisor restarts every job it
    /// carried from the last streamed checkpoints.
    pub fn kill_worker(&self, worker: NodeId) {
        assert!(worker >= 1, "worker ids start at 1");
        let _ = self.events.send(Event::WorkerDead { worker });
    }

    /// The service's observability handle (`svc.*` counters/events).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Stop accepting jobs, finish terminal updates for anything in
    /// flight (their solve threads are told to stop), and join the
    /// supervisor.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let _ = self.events.send(Event::Shutdown);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        self.shutdown_inner();
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
    /// Wrap a service for hub registration.
    pub fn new(service: Arc<SolverService>) -> Self {
        ServiceJobHandler { service }
    }

    /// Register on a running hub (`hub.set_job_handler`).
    pub fn attach(service: Arc<SolverService>, hub: &p2p::hub::LifecycleHub) {
        hub.set_job_handler(Arc::new(ServiceJobHandler::new(service)));
    }
}

impl JobHandler for ServiceJobHandler {
    fn handle(&self, first: Message, mut stream: TcpStream) -> Result<(), NetError> {
        match first {
            submit @ Message::JobSubmit { .. } => {
                let (client, spec, _) = match JobSpec::from_submit(&submit) {
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
        let (client, back, checkpoint) = JobSpec::from_submit(&msg).unwrap();
        assert_eq!(client, 42);
        assert_eq!(back.seed, 7);
        assert_eq!(back.kicks, Some(12));
        assert_eq!(back.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(back.target, Some(123));
        assert_eq!(back.payload, spec.payload);
        assert!(checkpoint.is_empty());

        // Unset bounds map through the wire sentinels.
        let bare = JobSpec::new(grid_payload(16));
        let (_, back, _) = JobSpec::from_submit(&bare.to_submit(1)).unwrap();
        assert_eq!(back.kicks, None);
        assert_eq!(back.deadline, None);
        assert_eq!(back.target, None);
    }

    #[test]
    fn flow_ledger_charges_per_tenant() {
        let mut ledger = FlowLedger::new(2);
        assert!(ledger.charge(1, 1));
        assert!(ledger.charge(1, 1));
        assert!(!ledger.charge(1, 1), "third job must bounce off limit 2");
        assert!(ledger.charge(2, 1), "other tenants unaffected");
        assert_eq!(ledger.get(1), FlowBudget { spent: 2, limit: 2 });
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

    #[test]
    fn next_wake_is_the_earliest_pending_deadline_action() {
        let t = Instant::now();
        let (soon, later) = (t + Duration::from_secs(1), t + Duration::from_secs(5));
        // No job, or none with a deadline: block until an event.
        assert_eq!(next_wake([].into_iter()), None);
        assert_eq!(next_wake([(None, false)].into_iter()), None);
        // Before expiry: the deadline itself.
        assert_eq!(next_wake([(Some(soon), false)].into_iter()), Some(soon));
        // Once the solve thread was told: the force-finish time.
        assert_eq!(
            next_wake([(Some(soon), true)].into_iter()),
            Some(soon + DEADLINE_GRACE)
        );
        // The earliest job wins, whichever kind of wake it needs.
        assert_eq!(
            next_wake([(Some(later), false), (None, false), (Some(soon), true)].into_iter()),
            Some(soon + DEADLINE_GRACE)
        );
        assert_eq!(
            next_wake([(Some(later), true), (Some(soon), false)].into_iter()),
            Some(soon)
        );
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
