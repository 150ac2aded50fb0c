//! The hub (paper §2.2).
//!
//! The hub is the only central component. During network
//! initialization each node connects, announces its listen address, and
//! receives its hypercube position plus the list of neighbors that have
//! already joined. The joining node then dials those neighbors
//! directly; nodes joining later dial it, and the TCP layer registers
//! the reverse edges — so early nodes start with sparse lists that fill
//! in as the cube completes, exactly as the paper describes.
//!
//! After bootstrap the same [`LifecycleHub`] keeps serving membership
//! changes (`DOWN`/`REJOIN`/`HUBCLAIM`), the telemetry plane
//! (`TELEMETRY`/`METRICS`/`STATUS`) and job admission (`JOB`).
//!
//! The hub protocol is a one-request/one-response text exchange
//! (`JOIN <addr>` → `ID <id> EXPECT <n> NEIGHBORS <id>@<addr>;…`),
//! deliberately separate from the binary peer protocol.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError};
use obs_api::{Obs, Value};
use parking_lot::Mutex;

use crate::codec::{read_frame, write_frame};
use crate::election::{MembershipLog, Replica};
use crate::message::{Message, NodeId};
use crate::tcp::{TcpConfig, TcpEndpoint};
use crate::telemetry::TelemetryStore;
use crate::topology::{Membership, Topology};
use crate::NetError;

/// A node's view after bootstrap: its id and the already-joined
/// neighbors to dial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinInfo {
    /// Assigned hypercube position.
    pub id: NodeId,
    /// Total network size.
    pub expected: usize,
    /// Neighbors that joined earlier: `(id, address)`.
    pub neighbors: Vec<(NodeId, SocketAddr)>,
}

/// Parse one token of a hub request or reply.
fn field<T: std::str::FromStr>(what: &str, token: &str) -> Result<T, NetError> {
    token
        .parse()
        .map_err(|_| NetError::Codec(format!("bad {what} {token:?}")))
}

/// The `id@addr;…` list carried by `ID … NEIGHBORS` and `REPAIR`.
fn format_peers(peers: &[(NodeId, SocketAddr)]) -> String {
    let items: Vec<String> = peers.iter().map(|(id, a)| format!("{id}@{a}")).collect();
    items.join(";")
}

/// Inverse of [`format_peers`].
fn parse_peers(list: &str) -> Result<Vec<(NodeId, SocketAddr)>, NetError> {
    let mut peers = Vec::new();
    for item in list.split(';').filter(|s| !s.is_empty()) {
        let (id, addr) = item
            .split_once('@')
            .ok_or_else(|| NetError::Codec(format!("bad peer {item:?}")))?;
        peers.push((field("peer id", id)?, field("peer address", addr)?));
    }
    Ok(peers)
}

fn parse_join_reply(line: &str) -> Result<JoinInfo, NetError> {
    let tokens: Vec<&str> = line.trim().split(' ').collect();
    if tokens.len() < 5 || tokens[0] != "ID" || tokens[2] != "EXPECT" || tokens[4] != "NEIGHBORS" {
        return Err(NetError::Codec(format!("bad hub reply {line:?}")));
    }
    Ok(JoinInfo {
        id: field("id", tokens[1])?,
        expected: field("network size", tokens[3])?,
        neighbors: parse_peers(tokens.get(5).copied().unwrap_or(""))?,
    })
}

fn parse_repair_reply(line: &str) -> Result<Vec<(NodeId, SocketAddr)>, NetError> {
    let rest = line
        .trim()
        .strip_prefix("REPAIR")
        .ok_or_else(|| NetError::Codec(format!("bad repair reply {line:?}")))?;
    parse_peers(rest.trim())
}

/// Convenience for tests and examples: bootstrap a full TCP network of
/// `n` [`crate::tcp::TcpEndpoint`]s through a hub on localhost, wiring
/// all topology edges, and wait until every edge is live. The hub is
/// stopped on return.
pub fn bootstrap_local(n: usize, topology: Topology) -> Result<Vec<crate::tcp::TcpEndpoint>, NetError> {
    let hub = LifecycleHub::start("127.0.0.1:0", n, topology)?;
    let hub_addr = hub.addr();
    let mut endpoints = Vec::with_capacity(n);
    for _ in 0..n {
        // Bind first so we can announce a real listen address, then let
        // the hub assign the id.
        let mut ep = crate::tcp::TcpEndpoint::bind(usize::MAX, "127.0.0.1:0")?;
        let info = join_via_hub(hub_addr, ep.listen_addr())?;
        ep.set_id(info.id);
        for (nid, addr) in &info.neighbors {
            ep.connect_to(*nid, *addr)?;
        }
        endpoints.push(ep);
    }
    Ok(endpoints)
}

/// Shared state of a [`LifecycleHub`].
struct LifecycleState {
    /// Listen addresses by node id; `None` until the id has joined.
    joined: Vec<Option<SocketAddr>>,
    /// Live membership + repaired adjacency (the repair rule lives in
    /// [`Membership`], shared with the in-memory churn driver).
    membership: Membership,
    /// Repair group per dead node, remembered so every reporter of the
    /// same death — not just the first — receives its assignments.
    repair_memo: HashMap<NodeId, Vec<NodeId>>,
    expected: usize,
    complete: bool,
    /// Election epoch this hub serves under (0 for the bootstrap hub).
    epoch: u64,
    /// Set when a newer `HUBCLAIM` fenced this hub out of the role:
    /// lifecycle requests are answered `MOVED <epoch>` from then on,
    /// so clients fail over instead of acting on a stale membership
    /// view.
    stepped_down: bool,
}

impl LifecycleState {
    /// `(id, address)` of every node of `ids` whose listen address is
    /// known.
    fn located(&self, ids: impl IntoIterator<Item = NodeId>) -> Vec<(NodeId, SocketAddr)> {
        ids.into_iter()
            .filter_map(|m| self.joined[m].map(|a| (m, a)))
            .collect()
    }

    /// Answer a `JOIN`/`REJOIN` of node `id` with the neighbors it must
    /// dial, then record its listen address. The slot is committed only
    /// after the reply went out: a client that disconnected
    /// mid-handshake never joined and its id is reused.
    fn admit(
        &mut self,
        w: &mut TcpStream,
        id: NodeId,
        listen: SocketAddr,
    ) -> Result<usize, NetError> {
        let neighbors = self.located(self.membership.neighbors(id));
        writeln!(
            w,
            "ID {id} EXPECT {} NEIGHBORS {}",
            self.expected,
            format_peers(&neighbors)
        )?;
        w.flush()?;
        self.joined[id] = Some(listen);
        Ok(neighbors.len())
    }
}

/// Receiver of solve jobs arriving on the hub's `JOB` command: the
/// job layer (e.g. `distclk::service`) registers one via
/// [`LifecycleHub::set_job_handler`] and the hub hands it every job
/// frame together with the still-open client connection, on which the
/// handler streams its binary reply frames (`JobAccept`,
/// `JobImproved`…, terminated by `JobDone`). The hub stays protocol-
/// agnostic: fencing (`MOVED` after a newer `HUBCLAIM`) happens before
/// dispatch, exactly like the `METRICS`/`STATUS` scrapes.
pub trait JobHandler: Send + Sync {
    /// Serve one job connection. `first` is the frame that followed
    /// the `JOB` line (a `JobSubmit` or `JobCancel`); the handler owns
    /// `stream` from here on and replies with one `OK …`/`ERR …` text
    /// line, then (for submissions) a stream of codec frames.
    fn handle(&self, first: Message, stream: TcpStream) -> Result<(), NetError>;
}

/// Shared slot for the registered job handler (empty until the job
/// layer attaches).
type JobHandlerSlot = Arc<Mutex<Option<Arc<dyn JobHandler>>>>;

/// A hub promoted from one-shot bootstrapper to lifecycle manager: it
/// keeps serving after bootstrap, answering eight commands, one text
/// request line per connection:
///
/// - `JOIN <addr>` — bootstrap join: the node is assigned the lowest
///   free id and told which of its topology neighbors already joined;
/// - `DOWN <reporter> <dead>` — a node reports a dead peer; the hub
///   rewires the topology around the hole (dimension-neighbor
///   fallback, see [`Membership::fail`]) and answers
///   `REPAIR <id>@<addr>;…` with the links the *reporter* must dial.
///   Only higher-id group members are assigned to a reporter, so each
///   repair edge is dialed from exactly one side;
/// - `REJOIN <id> <addr>` — a restarted node rejoins under its old id;
///   the hub marks it alive again and answers with the standard
///   `ID … EXPECT … NEIGHBORS …` reply listing the alive neighbors to
///   dial;
/// - `TELEMETRY` — followed by one `Telemetry` codec frame, folded into
///   the cluster-merged store; answered `OK <hub clock>`;
/// - `METRICS` / `STATUS` — scrapes of that store (Prometheus text and
///   the per-node status table);
/// - `JOB` — followed by one `JobSubmit` or `JobCancel` codec frame; the
///   connection is handed to the registered [`JobHandler`];
/// - `HUBCLAIM <epoch>` — see below.
///
/// Every connection is served on its own short-lived thread under a
/// read deadline, so a malformed, truncated, or wedged request can
/// neither consume a join slot nor stall the hub for everyone else.
///
/// The hub role is *migratable* (DESIGN.md §9 "hub migration"):
/// `HUBCLAIM <epoch>` lets an elected successor fence this hub out of
/// the role. A claim with an epoch strictly greater than the hub's own
/// is accepted (`OK STEPDOWN <epoch>`); from then on every other
/// command is answered `MOVED <epoch>` so clients fail over to the
/// successor. Stale claims are answered `STALE <epoch>`. A successor
/// reconstructs its serving state from a replicated [`MembershipLog`]
/// via [`LifecycleHub::start_from_log`].
pub struct LifecycleHub {
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    state: Arc<Mutex<LifecycleState>>,
    telemetry: Arc<TelemetryStore>,
    jobs: JobHandlerSlot,
    obs: Obs,
}

impl LifecycleHub {
    /// Start a lifecycle hub on `addr` (port 0 for ephemeral) for a
    /// network of `expected` nodes.
    pub fn start(addr: &str, expected: usize, topology: Topology) -> Result<Self, NetError> {
        Self::start_with(addr, expected, topology, Obs::disabled())
    }

    /// [`LifecycleHub::start`] with an observability handle: joins,
    /// rejections, deaths (`hub.down`), repairs (`hub.repair`), and
    /// rejoins (`hub.rejoin`) are recorded as structured events.
    pub fn start_with(
        addr: &str,
        expected: usize,
        topology: Topology,
        obs: Obs,
    ) -> Result<Self, NetError> {
        Self::spawn(
            addr,
            LifecycleState {
                joined: vec![None; expected],
                membership: Membership::new(topology, expected),
                repair_memo: HashMap::new(),
                expected,
                complete: false,
                epoch: 0,
                stepped_down: false,
            },
            obs,
        )
    }

    /// Start a *successor* hub at `epoch`, reconstructing membership
    /// and repair memos by replaying a replicated [`MembershipLog`]
    /// (the same fold [`Replica`] performs on every node, so the
    /// successor's view agrees with the gossiped consensus). Listen
    /// addresses are not in the log — the promoted node supplies what
    /// it knows in `addrs` (typically its own connection table);
    /// unknown addresses simply yield fewer repair assignments until
    /// the node re-announces itself via `REJOIN`.
    pub fn start_from_log(
        addr: &str,
        expected: usize,
        topology: Topology,
        log: &MembershipLog,
        epoch: u64,
        addrs: Vec<Option<SocketAddr>>,
        obs: Obs,
    ) -> Result<Self, NetError> {
        let replica = Replica::from_entries(topology, expected, log.entries());
        let mut joined = addrs;
        joined.resize(expected, None);
        let repair_memo: HashMap<NodeId, Vec<NodeId>> = replica
            .repair_groups()
            .iter()
            .map(|(&dead, group)| (dead, group.clone()))
            .collect();
        let complete = joined.iter().all(|a| a.is_some());
        Self::spawn(
            addr,
            LifecycleState {
                joined,
                membership: replica.view().clone(),
                repair_memo,
                expected,
                complete,
                epoch,
                stepped_down: false,
            },
            obs,
        )
    }

    fn spawn(addr: &str, state: LifecycleState, obs: Obs) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(state));
        let telemetry = TelemetryStore::shared();
        let jobs: JobHandlerSlot = Arc::new(Mutex::new(None));
        let loop_state = Arc::clone(&state);
        let loop_stop = Arc::clone(&stop);
        let loop_telemetry = Arc::clone(&telemetry);
        let loop_jobs = Arc::clone(&jobs);
        let loop_obs = obs.clone();
        let thread = std::thread::Builder::new()
            .name("p2p-hub-lifecycle".into())
            .spawn(move || {
                lifecycle_loop(
                    listener,
                    loop_state,
                    loop_stop,
                    loop_telemetry,
                    loop_jobs,
                    loop_obs,
                )
            })
            .expect("spawn hub thread");
        Ok(LifecycleHub {
            addr,
            thread: Some(thread),
            stop,
            state,
            telemetry,
            jobs,
            obs,
        })
    }

    /// Address nodes should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The election epoch this hub currently serves (or last served)
    /// under — bumped when a newer `HUBCLAIM` is accepted.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Whether a newer claim has fenced this hub out of the role.
    pub fn stepped_down(&self) -> bool {
        self.state.lock().stepped_down
    }

    /// The hub's live telemetry registry: `TELEMETRY` frames land
    /// here, and `METRICS`/`STATUS` scrapes read from it. In-process
    /// runs can clone the `Arc` and ingest directly, bypassing the
    /// wire — the scrape commands then serve exactly the same view.
    pub fn telemetry(&self) -> Arc<TelemetryStore> {
        Arc::clone(&self.telemetry)
    }

    /// Register (or replace) the handler behind the `JOB` command.
    /// Until one is attached, job submissions are answered
    /// `ERR no job service`. The handler outlives individual
    /// connections — it is shared by every job-serving thread.
    pub fn set_job_handler(&self, handler: Arc<dyn JobHandler>) {
        *self.jobs.lock() = Some(handler);
    }

    /// Stop serving and join the hub thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for LifecycleHub {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lifecycle_loop(
    listener: TcpListener,
    state: Arc<Mutex<LifecycleState>>,
    stop: Arc<AtomicBool>,
    telemetry: Arc<TelemetryStore>,
    jobs: JobHandlerSlot,
    obs: Obs,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let (stream, _) = match listener.accept() {
            Ok(x) => x,
            Err(_) => break,
        };
        if stop.load(Ordering::Acquire) {
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
        let conn_state = Arc::clone(&state);
        let conn_telemetry = Arc::clone(&telemetry);
        let conn_jobs = Arc::clone(&jobs);
        let conn_obs = obs.clone();
        let spawned = std::thread::Builder::new()
            .name("p2p-hub-conn".into())
            .spawn(move || {
                if let Err(e) =
                    serve_lifecycle(stream, &conn_state, &conn_telemetry, &conn_jobs, &conn_obs)
                {
                    reject(&conn_obs, &e);
                }
            });
        conns.retain(|h| !h.is_finished());
        match spawned {
            Ok(handle) => conns.push(handle),
            // Out of threads (a connection flood): the closure was
            // dropped and the stream with it, so this client sees a
            // closed connection and the hub keeps serving.
            Err(e) => reject(&obs, &e),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Count and log a connection that was dropped without being served.
fn reject(obs: &Obs, error: &dyn std::fmt::Display) {
    obs.counter("hub.rejects").incr();
    obs.event("hub.reject", &[("error", Value::S(error.to_string()))]);
}

/// Cap on the request line, a few hundred bytes above the longest legal
/// one (`REJOIN <id> <ipv6 address>`, under 100 bytes). The read timeout
/// is per read, not per line, so without a cap a client that streams
/// bytes and no newline grows the line without bound.
const MAX_REQUEST_LINE: u64 = 512;

/// Serve one lifecycle request (`JOIN` / `DOWN` / `REJOIN` /
/// `HUBCLAIM` / `TELEMETRY` / `METRICS` / `STATUS` / `JOB`) under
/// read and write deadlines (a `JOB` connection is handed to the
/// registered [`JobHandler`], which manages its own deadlines from
/// then on — result streams legitimately outlive the handshake
/// timeout).
fn serve_lifecycle(
    stream: TcpStream,
    state: &Mutex<LifecycleState>,
    telemetry: &TelemetryStore,
    jobs: &JobHandlerSlot,
    obs: &Obs,
) -> Result<(), NetError> {
    let deadline = TcpConfig::default().handshake_timeout;
    stream.set_read_timeout(Some(deadline)).ok();
    stream.set_write_timeout(Some(deadline)).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    (&mut reader).take(MAX_REQUEST_LINE).read_line(&mut line)?;
    if line.len() as u64 == MAX_REQUEST_LINE && !line.ends_with('\n') {
        return Err(NetError::Codec(format!(
            "request line over {MAX_REQUEST_LINE} bytes"
        )));
    }
    let tokens: Vec<&str> = line.trim().split(' ').collect();
    let mut w = stream;
    // A fenced-out hub must not act on its now-stale membership view:
    // everything except further claims is redirected.
    if !matches!(tokens.first(), Some(&"HUBCLAIM")) {
        let st = state.lock();
        if st.stepped_down {
            let epoch = st.epoch;
            drop(st);
            writeln!(w, "MOVED {epoch}")?;
            w.flush()?;
            return Ok(());
        }
    }
    match tokens.as_slice() {
        ["JOIN", addr] => {
            let listen: SocketAddr = field("address", addr)?;
            let mut st = state.lock();
            let id = st
                .joined
                .iter()
                .position(|a| a.is_none())
                .ok_or_else(|| NetError::Codec("network full".into()))?;
            let neighbors = st.admit(&mut w, id, listen)?;
            obs.counter("hub.joins").incr();
            obs.event(
                "hub.join",
                &[
                    ("id", Value::U(id as u64)),
                    ("neighbors", Value::U(neighbors as u64)),
                ],
            );
            if !st.complete && st.joined.iter().all(|a| a.is_some()) {
                st.complete = true;
                obs.event("hub.complete", &[("nodes", Value::U(st.expected as u64))]);
            }
            Ok(())
        }
        ["DOWN", reporter, dead] => {
            let reporter: NodeId = field("reporter id", reporter)?;
            let dead: NodeId = field("dead id", dead)?;
            let mut st = state.lock();
            if reporter >= st.expected || dead >= st.expected || reporter == dead {
                return Err(NetError::Codec(format!(
                    "bad DOWN {reporter} {dead} in network of {}",
                    st.expected
                )));
            }
            if st.membership.is_alive(dead) {
                let group = st.membership.fail(dead);
                obs.counter("hub.downs").incr();
                obs.event(
                    "hub.down",
                    &[
                        ("dead", Value::U(dead as u64)),
                        ("reporter", Value::U(reporter as u64)),
                        ("repair_group", Value::U(group.len() as u64)),
                    ],
                );
                st.repair_memo.insert(dead, group);
            }
            // Each repair edge is dialed by its lower-id endpoint, so
            // a reporter is assigned only the higher-id group members
            // (the reverse edge registers automatically on accept).
            let group = st.repair_memo.get(&dead).cloned().unwrap_or_default();
            let assignments = if group.contains(&reporter) {
                st.located(group.into_iter().filter(|&m| m > reporter))
            } else {
                Vec::new()
            };
            writeln!(w, "REPAIR {}", format_peers(&assignments))?;
            w.flush()?;
            if !assignments.is_empty() {
                obs.event(
                    "hub.repair",
                    &[
                        ("reporter", Value::U(reporter as u64)),
                        ("assignments", Value::U(assignments.len() as u64)),
                    ],
                );
            }
            Ok(())
        }
        ["REJOIN", id, addr] => {
            let id: NodeId = field("rejoin id", id)?;
            let listen: SocketAddr = field("address", addr)?;
            let mut st = state.lock();
            if id >= st.expected {
                return Err(NetError::Codec(format!(
                    "rejoin id {id} out of 0..{}",
                    st.expected
                )));
            }
            st.membership.rejoin(id);
            st.repair_memo.remove(&id);
            let neighbors = st.admit(&mut w, id, listen)?;
            obs.counter("hub.rejoins").incr();
            obs.event(
                "hub.rejoin",
                &[
                    ("id", Value::U(id as u64)),
                    ("neighbors", Value::U(neighbors as u64)),
                ],
            );
            Ok(())
        }
        ["TELEMETRY"] => {
            // The text line is followed by one binary codec frame on
            // the same stream; the reply carries the hub store clock
            // at ingest so the shipper can measure its own RTT.
            let msg = read_frame(&mut reader)?;
            let Some(hub_t) = telemetry.ingest(&msg) else {
                return Err(NetError::Codec("TELEMETRY frame was not Telemetry".into()));
            };
            writeln!(w, "OK {hub_t}")?;
            w.flush()?;
            obs.counter("hub.telemetry_frames").incr();
            Ok(())
        }
        ["JOB"] => {
            // The text line is followed by one binary codec frame (a
            // `JobSubmit` or `JobCancel`) on the same stream, like
            // `TELEMETRY`. The connection is then handed to the job
            // layer, which replies with a status line and streams
            // result frames back on it. Fencing already happened
            // above: a stepped-down holder answered `MOVED` before the
            // frame was read, so a failed-over client resubmits to the
            // successor instead of landing a job on a stale scheduler.
            let msg = read_frame(&mut reader)?;
            if !matches!(msg, Message::JobSubmit { .. } | Message::JobCancel { .. }) {
                return Err(NetError::Codec("JOB frame was not a job frame".into()));
            }
            let handler = jobs.lock().clone();
            match handler {
                Some(h) => {
                    obs.counter("hub.jobs").incr();
                    h.handle(msg, w)
                }
                None => {
                    writeln!(w, "ERR no job service")?;
                    w.flush()?;
                    Ok(())
                }
            }
        }
        ["METRICS"] => {
            // Prometheus text exposition of the cluster-merged view;
            // the body ends when the hub closes the connection.
            w.write_all(telemetry.prometheus_text().as_bytes())?;
            w.flush()?;
            obs.counter("hub.scrapes").incr();
            Ok(())
        }
        ["STATUS"] => {
            w.write_all(telemetry.status_text().as_bytes())?;
            w.flush()?;
            obs.counter("hub.scrapes").incr();
            Ok(())
        }
        ["HUBCLAIM", epoch] => {
            let claimed: u64 = field("claim epoch", epoch)?;
            let mut st = state.lock();
            if claimed > st.epoch {
                st.epoch = claimed;
                st.stepped_down = true;
                obs.counter("hub.step_downs").incr();
                obs.event("hub.step_down", &[("epoch", Value::U(claimed))]);
                writeln!(w, "OK STEPDOWN {claimed}")?;
            } else {
                obs.counter("hub.stale_claims").incr();
                obs.event(
                    "hub.stale_claim",
                    &[
                        ("claimed", Value::U(claimed)),
                        ("epoch", Value::U(st.epoch)),
                    ],
                );
                writeln!(w, "STALE {}", st.epoch)?;
            }
            w.flush()?;
            Ok(())
        }
        _ => Err(NetError::Codec(format!("bad hub request {line:?}"))),
    }
}

/// One client exchange with the hub: connect, bound the request write
/// and the reply read by the handshake timeout, send `line` (followed by
/// one codec frame for `TELEMETRY`/`JOB`), and return the first reply
/// line together with the still-open connection. A fenced-out hub's
/// `MOVED <epoch>` redirect surfaces as a `hub moved: …` error.
fn request(
    hub: SocketAddr,
    line: &str,
    frame: Option<&Message>,
    cfg: &TcpConfig,
) -> Result<(String, BufReader<TcpStream>), NetError> {
    let mut stream = TcpStream::connect_timeout(&hub, cfg.connect_timeout)?;
    stream.set_write_timeout(Some(cfg.handshake_timeout)).ok();
    stream.set_read_timeout(Some(cfg.handshake_timeout)).ok();
    writeln!(stream, "{line}")?;
    stream.flush()?;
    if let Some(frame) = frame {
        write_frame(&mut stream, frame)?;
    }
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    if reply.starts_with("MOVED") {
        return Err(NetError::Codec(format!("hub moved: {}", reply.trim())));
    }
    Ok((reply, reader))
}

/// Run `attempt` up to `1 + cfg.connect_retries` times with exponential
/// backoff (the hub may simply not be up yet during cluster bring-up).
fn retry_request<T>(
    cfg: &TcpConfig,
    mut attempt: impl FnMut() -> Result<T, NetError>,
) -> Result<T, NetError> {
    let mut backoff = cfg.backoff_base;
    let mut last_err = NetError::Closed;
    for n in 0..=cfg.connect_retries {
        if n > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(cfg.backoff_max);
        }
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Join a network: contact the hub, announce our listen address, and
/// parse the assigned position and neighbor list. Uses the default
/// timeout/retry policy (see [`join_via_hub_with`]).
pub fn join_via_hub(hub: SocketAddr, listen: SocketAddr) -> Result<JoinInfo, NetError> {
    join_via_hub_with(hub, listen, &TcpConfig::default())
}

/// [`join_via_hub`] with an explicit timeout/retry policy: every
/// attempt bounds the connect, the request write, and the reply read;
/// failed attempts are retried with exponential backoff.
pub fn join_via_hub_with(
    hub: SocketAddr,
    listen: SocketAddr,
    cfg: &TcpConfig,
) -> Result<JoinInfo, NetError> {
    retry_request(cfg, || {
        parse_join_reply(&request(hub, &format!("JOIN {listen}"), None, cfg)?.0)
    })
}

/// Report a dead peer to the hub and parse the repair assignments the
/// reporter must dial. Retries with backoff like [`join_via_hub_with`].
pub fn report_down(
    hub: SocketAddr,
    reporter: NodeId,
    dead: NodeId,
    cfg: &TcpConfig,
) -> Result<Vec<(NodeId, SocketAddr)>, NetError> {
    retry_request(cfg, || {
        parse_repair_reply(&request(hub, &format!("DOWN {reporter} {dead}"), None, cfg)?.0)
    })
}

/// Rejoin a network under a previously assigned id after a restart.
/// The reply lists the alive neighbors to dial (same format as a
/// bootstrap join).
pub fn rejoin_via_hub(
    hub: SocketAddr,
    id: NodeId,
    listen: SocketAddr,
    cfg: &TcpConfig,
) -> Result<JoinInfo, NetError> {
    retry_request(cfg, || {
        parse_join_reply(&request(hub, &format!("REJOIN {id} {listen}"), None, cfg)?.0)
    })
}

/// Tell a (presumed stale) hub that the caller now holds the role at
/// `epoch`. Returns `Ok(true)` when the hub stepped down, `Ok(false)`
/// when it rejected the claim as stale, and `Err` when it could not be
/// reached — which, for a claim, usually means it is simply dead and
/// there is nothing left to fence.
///
/// Deliberately single-attempt: the retry/backoff machinery of the
/// other helpers exists to ride out a hub that is *not up yet*,
/// whereas a claim targets a hub that is suspected down already.
pub fn claim_hub(hub: SocketAddr, epoch: u64, cfg: &TcpConfig) -> Result<bool, NetError> {
    let (line, _) = request(hub, &format!("HUBCLAIM {epoch}"), None, cfg)?;
    let tokens: Vec<&str> = line.trim().split(' ').collect();
    match tokens.as_slice() {
        ["OK", "STEPDOWN", _] => Ok(true),
        ["STALE", _] => Ok(false),
        _ => Err(NetError::Codec(format!("bad claim reply {line:?}"))),
    }
}

/// Ship one [`Message::Telemetry`] frame to the hub's `TELEMETRY`
/// command and return the hub store clock (ns) at ingest. The caller
/// measures the wall time of this call to obtain the RTT fed into its
/// *next* frame. Deliberately single-attempt: telemetry is lossy by
/// design and the next periodic shipment supersedes a dropped one.
pub fn ship_telemetry(
    hub: SocketAddr,
    frame: &Message,
    cfg: &TcpConfig,
) -> Result<u64, NetError> {
    let (line, _) = request(hub, "TELEMETRY", Some(frame), cfg)?;
    let tokens: Vec<&str> = line.trim().split(' ').collect();
    match tokens.as_slice() {
        ["OK", t] => field("hub clock", t),
        _ => Err(NetError::Codec(format!("bad telemetry reply {line:?}"))),
    }
}

/// A live job-result stream: the client half of a `JOB` connection
/// after the hub's registered [`JobHandler`] accepted the submission.
/// Frames arrive in order: one `JobAccept`, zero or more
/// `JobImproved` (strictly improving lengths — anytime semantics),
/// and a terminal `JobDone`.
#[derive(Debug)]
pub struct JobStream {
    reader: BufReader<TcpStream>,
}

impl JobStream {
    /// Block for the next frame of the stream. After a `JobDone` the
    /// hub closes the connection and further calls return an error.
    pub fn next_frame(&mut self) -> Result<Message, NetError> {
        read_frame(&mut self.reader)
    }
}

/// Submit a solve job to the hub's `JOB` command and return the
/// assigned job id plus the live result stream. The submission frame's
/// `job` field is ignored — the scheduler assigns the id (returned in
/// the `OK <id>` status line and echoed on every stream frame).
///
/// Errors distinguish a fenced-out hub (`hub moved: MOVED <epoch>` —
/// resubmit to the successor) from an admission rejection
/// (`job rejected: …`, e.g. the tenant's flow budget is exhausted).
pub fn submit_job(
    hub: SocketAddr,
    submit: &Message,
    cfg: &TcpConfig,
) -> Result<(u64, JobStream), NetError> {
    let (line, reader) = request(hub, "JOB", Some(submit), cfg)?;
    let tokens: Vec<&str> = line.trim().split(' ').collect();
    match tokens.as_slice() {
        ["OK", id] => {
            let job = field("job id", id)?;
            // The status line came under the handshake deadline; the
            // result stream is event-driven (improvements arrive
            // whenever the engine finds them), so reads block without
            // one.
            reader.get_ref().set_read_timeout(None).ok();
            Ok((job, JobStream { reader }))
        }
        ["ERR", ..] => Err(NetError::Codec(format!("job rejected: {}", line.trim()))),
        _ => Err(NetError::Codec(format!("bad job reply {line:?}"))),
    }
}

/// Cancel an in-flight job via the hub's `JOB` command. The job's
/// result stream (on its original connection) still terminates with a
/// `JobDone` carrying the best tour found up to the cancellation.
pub fn cancel_job(hub: SocketAddr, job: u64, cfg: &TcpConfig) -> Result<(), NetError> {
    let cancel = Message::JobCancel {
        from: 0,
        job,
        reason: 3,
    };
    let (line, _) = request(hub, "JOB", Some(&cancel), cfg)?;
    match line.trim() {
        "OK" => Ok(()),
        other => Err(NetError::Codec(format!("bad cancel reply {other:?}"))),
    }
}

/// Scrape the hub's cluster-merged metrics (`METRICS`): the body is
/// Prometheus text exposition, terminated by connection close.
pub fn scrape_metrics(hub: SocketAddr, cfg: &TcpConfig) -> Result<String, NetError> {
    scrape(hub, "METRICS", cfg)
}

/// Scrape the hub's per-node convergence view (`STATUS`): one
/// `NODE …` line per reporting node.
pub fn scrape_status(hub: SocketAddr, cfg: &TcpConfig) -> Result<String, NetError> {
    scrape(hub, "STATUS", cfg)
}

fn scrape(hub: SocketAddr, cmd: &str, cfg: &TcpConfig) -> Result<String, NetError> {
    let (mut body, mut rest) = request(hub, cmd, None, cfg)?;
    rest.read_to_string(&mut body)?;
    Ok(body)
}

/// A self-healing attachment on a [`TcpEndpoint`]: whenever the
/// endpoint declares a peer down (liveness timeout or connection
/// loss), a background thread reports the death to the lifecycle hub
/// and dials the repair assignments it gets back — so `NodeDriver`
/// sees its neighbor list heal live without knowing about the hub.
/// Dropping (or [`SelfHealing::stop`]-ping) the guard detaches it.
pub struct SelfHealing {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Attach self-healing to an endpoint (see [`SelfHealing`]). Never
/// fails over: a dead hub means deaths go unreported, exactly as
/// pre-migration builds.
pub fn attach_self_healing(ep: &TcpEndpoint, hub: SocketAddr, cfg: TcpConfig) -> SelfHealing {
    attach_self_healing_with_failover(ep, hub, cfg, |_| None)
}

/// [`attach_self_healing`] with hub-failover: when a death report
/// fails and the last successful hub exchange is older than
/// [`TcpConfig::hub_liveness_timeout`], the hub is declared silent and
/// `on_hub_silent` is consulted for a successor address (typically the
/// announced `HUB_CLAIM` winner, or the next entry of a pre-agreed
/// address table). A returned address replaces the hub for this and
/// all subsequent reports; `None` keeps waiting on the old one. With
/// `hub_liveness_timeout: None` the callback is never invoked.
pub fn attach_self_healing_with_failover<F>(
    ep: &TcpEndpoint,
    hub: SocketAddr,
    cfg: TcpConfig,
    on_hub_silent: F,
) -> SelfHealing
where
    F: Fn(NodeId) -> Option<SocketAddr> + Send + 'static,
{
    let handle = ep.handle();
    let (tx, rx) = unbounded::<NodeId>();
    ep.set_peer_down_hook(move |dead| {
        let _ = tx.send(dead);
    });
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("p2p-self-heal".into())
        .spawn(move || {
            let mut hub = hub;
            let mut last_ok = Instant::now();
            while !thread_stop.load(Ordering::Acquire) {
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(dead) => {
                        let mut report = report_down(hub, handle.node_id(), dead, &cfg);
                        let hub_silent = || {
                            cfg.hub_liveness_timeout
                                .is_some_and(|t| last_ok.elapsed() >= t)
                        };
                        if report.is_err() && hub_silent() {
                            if let Some(next) = on_hub_silent(dead) {
                                hub = next;
                                report = report_down(hub, handle.node_id(), dead, &cfg);
                            }
                        }
                        if let Ok(assignments) = report {
                            last_ok = Instant::now();
                            for (nid, addr) in assignments {
                                let _ = handle.connect_to(nid, addr);
                            }
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        })
        .expect("spawn self-healing thread");
    SelfHealing {
        stop,
        thread: Some(thread),
    }
}

impl SelfHealing {
    /// Detach: stop reporting deaths and join the thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SelfHealing {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    /// Minimal job handler for protocol tests: acknowledges the
    /// submission under a fixed id and immediately streams one
    /// improvement plus the terminal frame.
    struct EchoJobs;

    impl JobHandler for EchoJobs {
        fn handle(&self, first: Message, mut stream: TcpStream) -> Result<(), NetError> {
            match first {
                Message::JobSubmit { client, .. } => {
                    let job = crate::message::job_id(client, 0);
                    writeln!(stream, "OK {job}")?;
                    stream.flush()?;
                    write_frame(
                        &mut stream,
                        &Message::JobAccept {
                            from: 0,
                            job,
                            worker: 1,
                        },
                    )?;
                    write_frame(
                        &mut stream,
                        &Message::JobImproved {
                            from: 1,
                            job,
                            length: 10,
                            order: vec![0, 1, 2],
                        },
                    )?;
                    write_frame(
                        &mut stream,
                        &Message::JobDone {
                            from: 1,
                            job,
                            reason: 0,
                            length: 10,
                            order: vec![0, 1, 2],
                        },
                    )?;
                    Ok(())
                }
                Message::JobCancel { .. } => {
                    writeln!(stream, "OK")?;
                    stream.flush()?;
                    Ok(())
                }
                _ => Err(NetError::Codec("unexpected frame".into())),
            }
        }
    }

    fn sample_submit(client: u64) -> Message {
        Message::JobSubmit {
            from: 0,
            job: 0,
            client,
            seed: 1,
            kicks: 4,
            deadline_ms: 0,
            target: i64::MIN,
            payload_kind: 2,
            payload: b"[[0,0],[1,0],[1,1],[0,1]]".to_vec(),
            checkpoint: vec![],
        }
    }

    #[test]
    fn job_command_streams_frames_and_is_moved_fenced() {
        let cfg = TcpConfig::default();
        let hub = LifecycleHub::start("127.0.0.1:0", 2, Topology::Ring).unwrap();
        // Before a handler is attached the command answers ERR.
        let err = submit_job(hub.addr(), &sample_submit(9), &cfg).unwrap_err();
        assert!(err.to_string().contains("no job service"), "{err}");

        hub.set_job_handler(Arc::new(EchoJobs));
        let (job, mut stream) = submit_job(hub.addr(), &sample_submit(9), &cfg).unwrap();
        assert_eq!(job, crate::message::job_id(9, 0));
        assert!(matches!(
            stream.next_frame().unwrap(),
            Message::JobAccept { job: j, .. } if j == job
        ));
        assert!(matches!(
            stream.next_frame().unwrap(),
            Message::JobImproved { length: 10, .. }
        ));
        assert!(matches!(
            stream.next_frame().unwrap(),
            Message::JobDone { reason: 0, .. }
        ));
        cancel_job(hub.addr(), job, &cfg).unwrap();

        // A junk frame after the JOB line must not reach the handler.
        let mut raw = TcpStream::connect(hub.addr()).unwrap();
        writeln!(raw, "JOB").unwrap();
        write_frame(&mut raw, &Message::Ping { from: 0 }).unwrap();
        let mut line = String::new();
        let _ = BufReader::new(raw).read_line(&mut line);
        assert!(line.is_empty(), "non-job frame must be dropped, got {line:?}");

        // After a newer HUBCLAIM the holder is fenced: job admission is
        // redirected exactly like METRICS/STATUS, before any frame is
        // read or scheduled.
        assert!(claim_hub(hub.addr(), 1, &cfg).unwrap());
        let err = submit_job(hub.addr(), &sample_submit(9), &cfg).unwrap_err();
        assert!(err.to_string().contains("hub moved"), "{err}");
        let err = cancel_job(hub.addr(), job, &cfg).unwrap_err();
        assert!(err.to_string().contains("hub moved"), "{err}");
    }

    #[test]
    fn parse_reply_with_neighbors() {
        let info =
            parse_join_reply("ID 3 EXPECT 8 NEIGHBORS 1@127.0.0.1:9001;2@127.0.0.1:9002\n")
                .unwrap();
        assert_eq!(info.id, 3);
        assert_eq!(info.expected, 8);
        assert_eq!(info.neighbors.len(), 2);
        assert_eq!(info.neighbors[0].0, 1);
    }

    #[test]
    fn parse_reply_empty_neighbors() {
        let info = parse_join_reply("ID 0 EXPECT 8 NEIGHBORS \n").unwrap();
        assert_eq!(info.id, 0);
        assert!(info.neighbors.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_join_reply("HELLO WORLD").is_err());
        assert!(parse_join_reply("ID x EXPECT 8 NEIGHBORS ").is_err());
    }

    #[test]
    fn hub_assigns_sequential_ids_and_earlier_neighbors() {
        let hub = LifecycleHub::start("127.0.0.1:0", 4, Topology::Ring).unwrap();
        let addr = hub.addr();
        let mut infos = Vec::new();
        for i in 0..4 {
            let listen: SocketAddr = format!("127.0.0.1:{}", 40000 + i).parse().unwrap();
            infos.push(join_via_hub(addr, listen).unwrap());
        }
        assert_eq!(infos[0].id, 0);
        assert!(infos[0].neighbors.is_empty());
        // Ring: node 1 neighbors {0, 2}, but 2 has not joined yet.
        assert_eq!(
            infos[1].neighbors,
            vec![(0, "127.0.0.1:40000".parse().unwrap())]
        );
        // Ring: node 3 neighbors {2, 0}, both already joined.
        assert_eq!(infos[3].id, 3);
        let ids: Vec<NodeId> = infos[3].neighbors.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&2) && ids.contains(&0));
    }

    #[test]
    fn hub_records_join_and_reject_events() {
        let obs = Obs::for_node(u32::MAX);
        let mut hub =
            LifecycleHub::start_with("127.0.0.1:0", 2, Topology::Ring, obs.clone()).unwrap();
        let addr = hub.addr();
        // A garbage request first: must be rejected, not crash the hub.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            writeln!(s, "NONSENSE").unwrap();
        }
        join_via_hub(addr, "127.0.0.1:40020".parse().unwrap()).unwrap();
        join_via_hub(addr, "127.0.0.1:40021".parse().unwrap()).unwrap();
        // Joins every connection thread, so the counters are final.
        hub.stop();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hub.joins"), 2);
        assert_eq!(snap.counter("hub.rejects"), 1);
        if obs_api::ENABLED {
            let events = obs.events();
            assert_eq!(events.iter().filter(|e| e.kind == "hub.join").count(), 2);
            assert_eq!(events.iter().filter(|e| e.kind == "hub.reject").count(), 1);
            assert_eq!(
                events.iter().filter(|e| e.kind == "hub.complete").count(),
                1
            );
        }
    }

    #[test]
    fn newline_less_request_is_cut_off_at_the_cap() {
        let obs = Obs::for_node(u32::MAX);
        let mut hub =
            LifecycleHub::start_with("127.0.0.1:0", 1, Topology::Ring, obs.clone()).unwrap();
        let addr = hub.addr();
        // 1 MiB and no newline, on a connection that stays open: the hub
        // must hang up once the cap is read, not buffer the stream until
        // its read timeout. The write itself may fail half-way — the
        // hub has gone by then.
        let patience = TcpConfig::default().handshake_timeout / 2;
        let mut flood = TcpStream::connect(addr).unwrap();
        flood.set_write_timeout(Some(patience)).unwrap();
        flood.set_read_timeout(Some(patience)).unwrap();
        let _ = flood.write_all(&vec![b'A'; 1 << 20]);
        let hung_up = match flood.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
        };
        assert!(hung_up, "hub kept reading a request line with no end");
        // The hub still serves.
        let info = join_via_hub(addr, "127.0.0.1:40030".parse().unwrap()).unwrap();
        assert_eq!(info.id, 0);
        // Joins every connection thread, so the counters are final.
        hub.stop();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hub.rejects"), 1);
        assert_eq!(snap.counter("hub.joins"), 1);
    }

    #[test]
    fn join_dead_hub_fails_within_retry_budget() {
        // Grab a port that was live and is now certainly dead.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let cfg = TcpConfig::fast_fail();
        let start = std::time::Instant::now();
        let res = join_via_hub_with(dead, "127.0.0.1:40000".parse().unwrap(), &cfg);
        assert!(res.is_err(), "joined a dead hub");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "dead-hub join took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn silent_connector_does_not_wedge_hub() {
        let mut hub = LifecycleHub::start("127.0.0.1:0", 2, Topology::Ring).unwrap();
        let addr = hub.addr();
        // Connect and say nothing: the joins behind it are served at
        // once (well inside the silent connector's read deadline), on
        // their own connection threads.
        let silent = TcpStream::connect(addr).unwrap();
        let cfg = TcpConfig::fast_fail();
        let a = join_via_hub_with(addr, "127.0.0.1:40010".parse().unwrap(), &cfg).unwrap();
        let b = join_via_hub_with(addr, "127.0.0.1:40011".parse().unwrap(), &cfg).unwrap();
        assert_eq!((a.id, b.id), (0, 1));
        drop(silent);
        hub.stop();
    }

    /// Satellite bugfix: malformed and truncated JOIN lines, and a
    /// client that disconnects mid-handshake, must not consume any of
    /// the `expected` slots — the full network still bootstraps.
    #[test]
    fn bad_handshakes_do_not_consume_slots() {
        let hub = LifecycleHub::start("127.0.0.1:0", 3, Topology::Ring).unwrap();
        let addr = hub.addr();
        {
            // Truncated request (no newline), then disconnect.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"JOI").unwrap();
        }
        {
            // Disconnect before sending anything.
            let _s = TcpStream::connect(addr).unwrap();
        }
        {
            // Malformed but complete line.
            let mut s = TcpStream::connect(addr).unwrap();
            writeln!(s, "JOIN not-an-address").unwrap();
        }
        // All three expected nodes still get ids 0..3.
        let mut ids = Vec::new();
        for i in 0..3 {
            let listen: SocketAddr = format!("127.0.0.1:{}", 40030 + i).parse().unwrap();
            ids.push(join_via_hub(addr, listen).unwrap().id);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    /// The lifecycle protocol at the wire level: bootstrap, a death
    /// with repair assignments for every reporter, and a rejoin.
    #[test]
    fn lifecycle_hub_serves_down_and_rejoin() {
        let obs = Obs::for_node(u32::MAX - 1);
        let mut hub =
            LifecycleHub::start_with("127.0.0.1:0", 4, Topology::Ring, obs.clone()).unwrap();
        let addr = hub.addr();
        let cfg = TcpConfig::default();
        let listens: Vec<SocketAddr> = (0..4)
            .map(|i| format!("127.0.0.1:{}", 40040 + i).parse().unwrap())
            .collect();
        for (i, &l) in listens.iter().enumerate() {
            assert_eq!(join_via_hub(addr, l).unwrap().id, i);
        }

        // Node 2 dies; ring neighbors 1 and 3 both report. The repair
        // edge 1–3 is dialed by its lower endpoint only.
        let from_1 = report_down(addr, 1, 2, &cfg).unwrap();
        assert_eq!(from_1, vec![(3, listens[3])]);
        let from_3 = report_down(addr, 3, 2, &cfg).unwrap();
        assert!(from_3.is_empty());
        // A duplicate report is idempotent.
        assert_eq!(report_down(addr, 1, 2, &cfg).unwrap(), vec![(3, listens[3])]);
        // A bystander that never knew the dead node gets nothing.
        assert!(report_down(addr, 0, 2, &cfg).unwrap().is_empty());

        // Node 2 rejoins from a new port and is told its alive
        // static-topology neighbors.
        let new_listen: SocketAddr = "127.0.0.1:40049".parse().unwrap();
        let info = rejoin_via_hub(addr, 2, new_listen, &cfg).unwrap();
        assert_eq!(info.id, 2);
        let mut back: Vec<NodeId> = info.neighbors.iter().map(|&(i, _)| i).collect();
        back.sort_unstable();
        assert_eq!(back, vec![1, 3]);

        // Garbage is rejected without wedging the hub.
        assert!(report_down(addr, 9, 9, &TcpConfig::fast_fail()).is_err());
        hub.stop();

        let snap = obs.snapshot();
        assert_eq!(snap.counter("hub.joins"), 4);
        assert_eq!(snap.counter("hub.downs"), 1);
        assert_eq!(snap.counter("hub.rejoins"), 1);
        if obs_api::ENABLED {
            let events = obs.events();
            assert!(events.iter().any(|e| e.kind == "hub.down"));
            assert!(events.iter().any(|e| e.kind == "hub.repair"));
            assert!(events.iter().any(|e| e.kind == "hub.rejoin"));
            assert!(events.iter().any(|e| e.kind == "hub.complete"));
        }
    }

    /// End-to-end self-healing over real sockets: a 4-ring loses node
    /// 2; liveness detects it, the hub hands out the 1–3 repair edge,
    /// and the survivors' neighbor lists heal without any manual
    /// rewiring. The dead node then rejoins and is rewired in.
    #[test]
    fn self_healing_ring_survives_kill_and_rejoin() {
        let mut hub = LifecycleHub::start("127.0.0.1:0", 4, Topology::Ring).unwrap();
        let hub_addr = hub.addr();
        let cfg = TcpConfig::fast_fail().with_liveness(Duration::from_millis(400));

        let mut eps: Vec<TcpEndpoint> = Vec::new();
        let mut healers = Vec::new();
        for _ in 0..4 {
            let mut ep = TcpEndpoint::bind_with(usize::MAX, "127.0.0.1:0", cfg.clone()).unwrap();
            let info = join_via_hub(hub_addr, ep.listen_addr()).unwrap();
            ep.set_id(info.id);
            for (nid, addr) in &info.neighbors {
                ep.connect_to(*nid, *addr).unwrap();
            }
            healers.push(attach_self_healing(&ep, hub_addr, cfg.clone()));
            eps.push(ep);
        }
        assert!(crate::util::wait_until(
            || eps.iter().all(|e| e.neighbors().len() == 2),
            Duration::from_secs(5)
        ));

        // Kill node 2 without a Leave (crash semantics).
        let mut dead = eps.remove(2);
        healers.remove(2).stop();
        dead.shutdown();

        // Ring neighbors 1 and 3 must detect the death and acquire the
        // repair edge 1–3; node 0 keeps its original neighbors.
        assert!(
            crate::util::wait_until(
                || {
                    let n1 = eps[1].neighbors();
                    let n3 = eps[2].neighbors();
                    n1.contains(&3) && n3.contains(&1) && !n1.contains(&2) && !n3.contains(&2)
                },
                Duration::from_secs(10)
            ),
            "repair edge 1-3 never appeared: 1->{:?} 3->{:?}",
            eps[1].neighbors(),
            eps[2].neighbors()
        );

        // Node 2 rejoins under its old id from a fresh socket.
        let mut back = TcpEndpoint::bind_with(usize::MAX, "127.0.0.1:0", cfg.clone()).unwrap();
        let info = rejoin_via_hub(hub_addr, 2, back.listen_addr(), &cfg).unwrap();
        assert_eq!(info.id, 2);
        back.set_id(2);
        for (nid, addr) in &info.neighbors {
            back.connect_to(*nid, *addr).unwrap();
        }
        assert!(crate::util::wait_until(
            || {
                back.neighbors().len() == 2
                    && eps[1].neighbors().contains(&2)
                    && eps[2].neighbors().contains(&2)
            },
            Duration::from_secs(5)
        ));

        for h in &mut healers {
            h.stop();
        }
        back.shutdown();
        for e in &mut eps {
            e.shutdown();
        }
        hub.stop();
    }

    /// The live telemetry plane over real sockets: nodes ship frames
    /// to the hub's `TELEMETRY` command mid-run; `METRICS` returns the
    /// cluster-merged Prometheus view and `STATUS` the per-node
    /// convergence lines; a stepped-down hub redirects both.
    #[test]
    fn telemetry_ship_and_scrape_over_sockets() {
        let mut hub = LifecycleHub::start("127.0.0.1:0", 4, Topology::Ring).unwrap();
        let addr = hub.addr();
        let cfg = TcpConfig::default();
        hub.telemetry().set_reference(Some(100));

        let f0 = Message::Telemetry {
            from: 0,
            t_ns: 10,
            rtt_ns: 0,
            best_len: 110,
            clk_calls: 42,
            stalled: false,
            counters: vec![("clk.calls".into(), 42)],
            gauges: vec![("node.best".into(), 110)],
            events_jsonl: vec![],
        };
        let t0 = ship_telemetry(addr, &f0, &cfg).unwrap();
        let f1 = Message::Telemetry {
            from: 1,
            t_ns: 11,
            rtt_ns: 5,
            best_len: 100,
            clk_calls: 8,
            stalled: true,
            counters: vec![("clk.calls".into(), 8)],
            gauges: vec![("node.best".into(), 100)],
            events_jsonl: vec![],
        };
        let t1 = ship_telemetry(addr, &f1, &cfg).unwrap();
        assert!(t1 >= t0, "hub clock went backwards: {t0} -> {t1}");

        let metrics = scrape_metrics(addr, &cfg).unwrap();
        assert!(metrics.contains("clk_calls 50"), "{metrics}");
        assert!(metrics.contains("node_best 210"), "{metrics}");
        assert!(metrics.contains("telemetry_nodes_reporting 2"), "{metrics}");
        assert!(metrics.contains("telemetry_nodes_stalled 1"), "{metrics}");
        let status = scrape_status(addr, &cfg).unwrap();
        assert!(status.contains("NODE 0 BEST 110 GAP 10.0000"), "{status}");
        assert!(status.contains("NODE 1 BEST 100 GAP 0.0000"), "{status}");
        assert!(status.lines().any(|l| l.starts_with("NODE 1") && l.contains("STALLED 1")));

        // The in-process view is the same store the wire serves.
        assert_eq!(hub.telemetry().nodes(), vec![0, 1]);

        // A fenced-out hub redirects telemetry traffic like any other
        // lifecycle request.
        assert!(claim_hub(addr, 1, &cfg).unwrap());
        assert!(scrape_metrics(addr, &cfg).is_err());
        assert!(ship_telemetry(addr, &f0, &cfg).is_err());
        hub.stop();
    }

    #[test]
    fn parse_repair_replies() {
        assert_eq!(parse_repair_reply("REPAIR \n").unwrap(), vec![]);
        assert_eq!(
            parse_repair_reply("REPAIR 3@127.0.0.1:9003;5@127.0.0.1:9005\n").unwrap(),
            vec![
                (3, "127.0.0.1:9003".parse().unwrap()),
                (5, "127.0.0.1:9005".parse().unwrap()),
            ]
        );
        assert!(parse_repair_reply("NOPE").is_err());
        assert!(parse_repair_reply("REPAIR x@y").is_err());
    }

    /// `HUBCLAIM` epoch fencing over real sockets: a newer claim makes
    /// the hub step down and redirect lifecycle traffic; equal or
    /// older claims are rejected as stale.
    #[test]
    fn hubclaim_fences_by_epoch_over_sockets() {
        let obs = Obs::for_node(u32::MAX - 2);
        let mut hub =
            LifecycleHub::start_with("127.0.0.1:0", 4, Topology::Ring, obs.clone()).unwrap();
        let addr = hub.addr();
        let cfg = TcpConfig::fast_fail();

        assert_eq!(hub.epoch(), 0);
        assert!(!hub.stepped_down());
        assert!(claim_hub(addr, 1, &cfg).unwrap(), "first claim must win");
        assert_eq!(hub.epoch(), 1);
        assert!(hub.stepped_down());
        // Re-delivery and older epochs are fenced.
        assert!(!claim_hub(addr, 1, &cfg).unwrap());
        assert!(!claim_hub(addr, 0, &cfg).unwrap());
        // A stepped-down hub redirects lifecycle requests (`MOVED`),
        // which clients surface as an error and treat as failover.
        assert!(report_down(addr, 1, 2, &cfg).is_err());
        assert!(rejoin_via_hub(addr, 2, "127.0.0.1:41000".parse().unwrap(), &cfg).is_err());
        // Claims keep working after step-down: a yet-newer claimer can
        // still fence the epoch forward.
        assert!(claim_hub(addr, 5, &cfg).unwrap());
        assert_eq!(hub.epoch(), 5);
        hub.stop();

        let snap = obs.snapshot();
        assert_eq!(snap.counter("hub.step_downs"), 2);
        assert_eq!(snap.counter("hub.stale_claims"), 2);
        if obs_api::ENABLED {
            assert!(obs.events().iter().any(|e| e.kind == "hub.step_down"));
        }
    }

    /// A successor started from a replicated membership log serves
    /// DOWN and REJOIN exactly where the dead hub left off: the repair
    /// memo survives the migration, and a rejoiner re-announces its
    /// address to the new hub.
    #[test]
    fn successor_hub_restores_state_from_log() {
        // What every node's replica would hold after node 2 died.
        let mut replica = Replica::bootstrap(Topology::Ring, 4);
        replica.note_down(2);
        let listens: Vec<Option<SocketAddr>> = (0..4)
            .map(|i| format!("127.0.0.1:{}", 41010 + i).parse().ok())
            .collect();

        let mut hub = LifecycleHub::start_from_log(
            "127.0.0.1:0",
            4,
            Topology::Ring,
            replica.log(),
            1,
            listens.clone(),
            Obs::disabled(),
        )
        .unwrap();
        let addr = hub.addr();
        let cfg = TcpConfig::fast_fail();
        assert_eq!(hub.epoch(), 1);

        // The death of 2 predates the migration, yet reporters still
        // receive their repair assignments from the replayed memo.
        assert_eq!(
            report_down(addr, 1, 2, &cfg).unwrap(),
            vec![(3, listens[3].unwrap())]
        );
        assert!(report_down(addr, 3, 2, &cfg).unwrap().is_empty());

        // The rejoin path also works post-migration.
        let back: SocketAddr = "127.0.0.1:41019".parse().unwrap();
        let info = rejoin_via_hub(addr, 2, back, &cfg).unwrap();
        assert_eq!(info.id, 2);
        let mut ids: Vec<NodeId> = info.neighbors.iter().map(|&(i, _)| i).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
        hub.stop();
    }

    /// End-to-end hub failover over real sockets: the original hub
    /// dies, a node death goes unreportable, the healer declares the
    /// hub silent past `hub_liveness_timeout`, fails over to the
    /// successor (started from the replicated log), and the repair
    /// edge still appears — the topology heals with no hub downtime
    /// visible to the search layer.
    #[test]
    fn failover_healer_switches_to_successor_hub() {
        let mut hub = LifecycleHub::start("127.0.0.1:0", 4, Topology::Ring).unwrap();
        let hub_addr = hub.addr();
        let cfg = TcpConfig::fast_fail()
            .with_liveness(Duration::from_millis(400))
            .with_hub_liveness(Duration::from_millis(1));

        // The successor hub every healer fails over to, primed with
        // the replicated bootstrap log (4 joins, no deaths yet).
        let replica = Replica::bootstrap(Topology::Ring, 4);

        let mut eps: Vec<TcpEndpoint> = Vec::new();
        for _ in 0..4 {
            let mut ep = TcpEndpoint::bind_with(usize::MAX, "127.0.0.1:0", cfg.clone()).unwrap();
            let info = join_via_hub(hub_addr, ep.listen_addr()).unwrap();
            ep.set_id(info.id);
            for (nid, addr) in &info.neighbors {
                ep.connect_to(*nid, *addr).unwrap();
            }
            eps.push(ep);
        }
        let listens: Vec<Option<SocketAddr>> = eps.iter().map(|e| Some(e.listen_addr())).collect();
        let mut successor = LifecycleHub::start_from_log(
            "127.0.0.1:0",
            4,
            Topology::Ring,
            replica.log(),
            1,
            listens,
            Obs::disabled(),
        )
        .unwrap();
        let successor_addr = successor.addr();
        let mut healers: Vec<SelfHealing> = eps
            .iter()
            .map(|ep| {
                attach_self_healing_with_failover(ep, hub_addr, cfg.clone(), move |_| {
                    Some(successor_addr)
                })
            })
            .collect();
        assert!(crate::util::wait_until(
            || eps.iter().all(|e| e.neighbors().len() == 2),
            Duration::from_secs(5)
        ));

        // The original hub dies first, then node 2 crashes: deaths can
        // only be served by the successor.
        hub.stop();
        let mut dead = eps.remove(2);
        healers.remove(2).stop();
        dead.shutdown();

        assert!(
            crate::util::wait_until(
                || {
                    let n1 = eps[1].neighbors();
                    let n3 = eps[2].neighbors();
                    n1.contains(&3) && n3.contains(&1) && !n1.contains(&2) && !n3.contains(&2)
                },
                Duration::from_secs(10)
            ),
            "repair edge 1-3 never appeared after failover: 1->{:?} 3->{:?}",
            eps[1].neighbors(),
            eps[2].neighbors()
        );

        for h in &mut healers {
            h.stop();
        }
        for e in &mut eps {
            e.shutdown();
        }
        successor.stop();
    }

    #[test]
    fn bootstrap_local_wires_full_topology() {
        let mut eps = bootstrap_local(4, Topology::Ring).unwrap();
        // Give reverse edges a moment to register.
        crate::util::wait_until(
            || eps.iter().all(|e| e.neighbors().len() == 2),
            std::time::Duration::from_secs(3),
        );
        for (i, e) in eps.iter().enumerate() {
            let mut nb = e.neighbors();
            nb.sort_unstable();
            let mut want = Topology::Ring.neighbors(i, 4);
            want.sort_unstable();
            assert_eq!(nb, want, "node {i}");
        }
        for e in &mut eps {
            e.shutdown();
        }
    }

    /// The bootstrap hub is the lifecycle hub: after the last `JOIN` it
    /// keeps answering scrapes and death reports instead of retiring.
    #[test]
    fn bootstrap_hub_keeps_serving_after_last_join() {
        let mut hub = LifecycleHub::start("127.0.0.1:0", 3, Topology::Ring).unwrap();
        let addr = hub.addr();
        let cfg = TcpConfig::fast_fail();
        let listens: Vec<SocketAddr> = (0..3)
            .map(|i| format!("127.0.0.1:{}", 40050 + i).parse().unwrap())
            .collect();
        for (i, &l) in listens.iter().enumerate() {
            assert_eq!(join_via_hub(addr, l).unwrap().id, i);
        }
        // A fourth join finds the network full and is refused.
        assert!(join_via_hub_with(addr, "127.0.0.1:40059".parse().unwrap(), &cfg).is_err());

        // No node has shipped telemetry yet, so the view is empty — but
        // the scrape itself is served.
        assert_eq!(scrape_status(addr, &cfg).unwrap(), "");
        // Node 1 dies: its lower-id survivor is told to dial the other.
        assert_eq!(
            report_down(addr, 0, 1, &cfg).unwrap(),
            vec![(2, listens[2])]
        );
        hub.stop();
    }
}
