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
//! After bootstrap the same [`LifecycleHub`] keeps serving job admission
//! (`JOB`); it serves `JOIN` and `JOB` only. Nobody repairs the topology
//! after a death, the hub included (DESIGN.md §9).
//!
//! The hub protocol is a one-request/one-response text exchange
//! (`JOIN <addr>` → `ID <id> EXPECT <n> NEIGHBORS <id>@<addr>;…`),
//! deliberately separate from the binary peer protocol.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use obs::{Obs, Value};

use crate::codec::{encode, read_frame};
use crate::message::{Message, NodeId};
use crate::tcp::TcpConfig;
use crate::topology::Topology;
use crate::util::accept_loop;
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

/// The `id@addr;…` list carried by `ID … NEIGHBORS`.
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

/// Convenience for tests and examples: bootstrap a full TCP network of
/// `n` [`crate::tcp::TcpEndpoint`]s through a hub on localhost, wiring
/// all topology edges, and wait until every edge is live. The hub is
/// stopped on return.
pub fn bootstrap_local(
    n: usize,
    topology: Topology,
) -> Result<Vec<crate::tcp::TcpEndpoint>, NetError> {
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

/// Bootstrap state of a [`LifecycleHub`].
struct JoinState {
    /// Listen addresses by node id; `None` until the id has joined.
    joined: Vec<Option<SocketAddr>>,
    /// The static topology `JOIN` reads a node's neighbors from.
    topology: Topology,
    expected: usize,
    complete: bool,
}

/// Receiver of solve jobs arriving on the hub's `JOB` command: the
/// job layer (e.g. `distclk::service`) registers one via
/// [`LifecycleHub::set_job_handler`] and the hub hands it every job
/// frame together with the still-open client connection, on which the
/// handler streams its binary reply frames (`JobAccept`,
/// `JobImproved`…, terminated by `JobDone`). The hub stays protocol-
/// agnostic.
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

/// The hub: it bootstraps the network and keeps serving after
/// bootstrap, answering two commands, one text request line per
/// connection:
///
/// - `JOIN <addr>` — bootstrap join: the node is assigned the lowest
///   free id and told which of its topology neighbors already joined;
/// - `JOB` — followed by one `JobSubmit` or `JobCancel` codec frame; the
///   connection is handed to the registered [`JobHandler`].
///
/// Every connection is served on its own short-lived thread under a
/// read deadline, so a malformed, truncated, or wedged request can
/// neither consume a join slot nor stall the hub for everyone else.
/// The hub does not migrate: it lives at one address for the life of
/// the network.
pub struct LifecycleHub {
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    jobs: JobHandlerSlot,
    obs: Obs,
}

impl LifecycleHub {
    /// Start a lifecycle hub on `addr` (port 0 for ephemeral) for a
    /// network of `expected` nodes.
    pub fn start(addr: &str, expected: usize, topology: Topology) -> Result<Self, NetError> {
        Self::start_with(addr, expected, topology, Obs::disabled())
    }

    /// [`LifecycleHub::start`] with an observability handle: joins
    /// (`hub.join`), rejected connections (`hub.reject`) and the
    /// completed bootstrap (`hub.complete`) are recorded as structured
    /// events.
    pub fn start_with(
        addr: &str,
        expected: usize,
        topology: Topology,
        obs: Obs,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Mutex::new(JoinState {
            joined: vec![None; expected],
            topology,
            expected,
            complete: false,
        });
        let jobs: JobHandlerSlot = Arc::new(Mutex::new(None));
        let loop_stop = Arc::clone(&stop);
        let conn_jobs = Arc::clone(&jobs);
        let conn_obs = obs.clone();
        let loop_obs = obs.clone();
        let thread = std::thread::Builder::new()
            .name("p2p-hub-lifecycle".into())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &loop_stop,
                    "p2p-hub-conn",
                    move |stream| {
                        if let Err(e) = serve_lifecycle(stream, &state, &conn_jobs, &conn_obs) {
                            reject(&conn_obs, &e);
                        }
                    },
                    |e| reject(&loop_obs, e),
                )
            })
            .expect("spawn hub thread");
        Ok(LifecycleHub {
            addr,
            thread: Some(thread),
            stop,
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

    /// Register (or replace) the handler behind the `JOB` command.
    /// Until one is attached, job submissions are answered
    /// `ERR no job service`. The handler outlives individual
    /// connections — it is shared by every job-serving thread.
    pub fn set_job_handler(&self, handler: Arc<dyn JobHandler>) {
        *self.jobs.lock().unwrap_or_else(PoisonError::into_inner) = Some(handler);
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

/// Count and log a connection that was dropped without being served.
fn reject(obs: &Obs, error: &dyn std::fmt::Display) {
    obs.counter("hub.rejects").incr();
    obs.event("hub.reject", &[("error", Value::S(error.to_string()))]);
}

/// Cap on the request line, a few hundred bytes above the longest legal
/// one (`JOIN <ipv6 address>`, under 100 bytes). The read timeout is
/// per read, not per line, so without a cap a client that streams bytes
/// and no newline grows the line without bound.
const MAX_REQUEST_LINE: u64 = 512;

/// Serve one request (`JOIN` / `JOB`) under read and write deadlines (a
/// `JOB` connection is handed to the registered [`JobHandler`], which
/// manages its own deadlines from then on — result streams legitimately
/// outlive the handshake timeout).
fn serve_lifecycle(
    stream: TcpStream,
    state: &Mutex<JoinState>,
    jobs: &JobHandlerSlot,
    obs: &Obs,
) -> Result<(), NetError> {
    let deadline = TcpConfig::default().handshake_timeout;
    stream.set_read_timeout(Some(deadline)).ok();
    stream.set_write_timeout(Some(deadline)).ok();
    // Every reply is one write of a whole line or frame: nothing for
    // Nagle's algorithm to wait for.
    stream.set_nodelay(true).ok();
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
    match tokens.as_slice() {
        ["JOIN", addr] => {
            let listen: SocketAddr = field("address", addr)?;
            let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
            let id = st
                .joined
                .iter()
                .position(|a| a.is_none())
                .ok_or_else(|| NetError::Codec("network full".into()))?;
            // Neighbors are listed in ascending id order (a topology's
            // own lists need not be: a ring's node 0 names n-1 first).
            let mut ids = st.topology.neighbors(id, st.expected);
            ids.sort_unstable();
            let neighbors: Vec<(NodeId, SocketAddr)> = ids
                .into_iter()
                .filter_map(|m| st.joined[m].map(|a| (m, a)))
                .collect();
            reply_line(
                &mut w,
                &format!(
                    "ID {id} EXPECT {} NEIGHBORS {}",
                    st.expected,
                    format_peers(&neighbors)
                ),
            )?;
            // The slot is committed only after the reply went out: a
            // client that disconnected mid-handshake never joined and
            // its id is reused.
            st.joined[id] = Some(listen);
            obs.counter("hub.joins").incr();
            obs.event(
                "hub.join",
                &[
                    ("id", Value::U(id as u64)),
                    ("neighbors", Value::U(neighbors.len() as u64)),
                ],
            );
            if !st.complete && st.joined.iter().all(|a| a.is_some()) {
                st.complete = true;
                obs.event("hub.complete", &[("nodes", Value::U(st.expected as u64))]);
            }
            Ok(())
        }
        ["JOB"] => {
            // The text line is followed by one binary codec frame (a
            // `JobSubmit` or `JobCancel`) on the same stream. The
            // connection is then handed to the job layer, which replies with a status line and streams
            // result frames back on it.
            let msg = read_frame(&mut reader)?;
            if !matches!(msg, Message::JobSubmit { .. } | Message::JobCancel { .. }) {
                return Err(NetError::Codec("JOB frame was not a job frame".into()));
            }
            let handler = jobs.lock().unwrap_or_else(PoisonError::into_inner).clone();
            match handler {
                Some(h) => {
                    obs.counter("hub.jobs").incr();
                    h.handle(msg, w)
                }
                None => {
                    reply_line(&mut w, "ERR no job service")?;
                    Ok(())
                }
            }
        }
        _ => Err(NetError::Codec(format!("bad hub request {line:?}"))),
    }
}

/// Send one text line (a status reply or a request) as a single write:
/// `writeln!` on a raw stream would send the pieces of its format
/// string as separate segments.
pub fn reply_line(stream: &mut TcpStream, line: &str) -> Result<(), NetError> {
    let mut out = String::with_capacity(line.len() + 1);
    out.push_str(line);
    out.push('\n');
    stream.write_all(out.as_bytes())?;
    Ok(())
}

/// One client exchange with the hub: connect, bound the request write
/// and the reply read by the handshake timeout, send `line` (followed by
/// one codec frame for `JOB`) in one write, and return the
/// first reply line together with the still-open connection.
fn request(
    hub: SocketAddr,
    line: &str,
    frame: Option<&Message>,
    cfg: &TcpConfig,
) -> Result<(String, BufReader<TcpStream>), NetError> {
    let mut stream = TcpStream::connect_timeout(&hub, cfg.connect_timeout)?;
    stream.set_write_timeout(Some(cfg.handshake_timeout)).ok();
    stream.set_read_timeout(Some(cfg.handshake_timeout)).ok();
    stream.set_nodelay(true).ok();
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    if let Some(frame) = frame {
        out.extend_from_slice(&encode(frame));
    }
    stream.write_all(&out)?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    Ok((reply, reader))
}

/// Join a network: contact the hub, announce our listen address, and
/// parse the assigned position and neighbor list. Uses the default
/// timeout/retry policy (see [`join_via_hub_with`]).
pub fn join_via_hub(hub: SocketAddr, listen: SocketAddr) -> Result<JoinInfo, NetError> {
    join_via_hub_with(hub, listen, &TcpConfig::default())
}

/// [`join_via_hub`] with an explicit timeout/retry policy: every
/// attempt bounds the connect, the request write, and the reply read;
/// failed attempts are retried `cfg.connect_retries` times with
/// exponential backoff (the hub may simply not be up yet during cluster
/// bring-up).
pub fn join_via_hub_with(
    hub: SocketAddr,
    listen: SocketAddr,
    cfg: &TcpConfig,
) -> Result<JoinInfo, NetError> {
    let mut backoff = cfg.backoff_base;
    let mut last_err = NetError::Closed;
    for n in 0..=cfg.connect_retries {
        if n > 0 {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(cfg.backoff_max);
        }
        match request(hub, &format!("JOIN {listen}"), None, cfg)
            .and_then(|(line, _)| parse_join_reply(&line))
        {
            Ok(info) => return Ok(info),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
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
/// An admission rejection surfaces as a `job rejected: …` error (e.g.
/// the tenant's flow budget is exhausted).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_frame;
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
                    reply_line(&mut stream, &format!("OK {job}"))?;
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
                    reply_line(&mut stream, "OK")?;
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
    fn job_command_streams_frames() {
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
        assert!(
            line.is_empty(),
            "non-job frame must be dropped, got {line:?}"
        );
    }

    #[test]
    fn parse_reply_with_neighbors() {
        let info = parse_join_reply("ID 3 EXPECT 8 NEIGHBORS 1@127.0.0.1:9001;2@127.0.0.1:9002\n")
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
        // Garbage requests first — including the retired membership
        // verbs, which are refused like any other unknown line: each
        // must be rejected, not crash the hub or take a slot.
        for garbage in ["NONSENSE", "DOWN 1 0", "REJOIN 0 127.0.0.1:1", "HUBCLAIM 1"] {
            let mut s = TcpStream::connect(addr).unwrap();
            writeln!(s, "{garbage}").unwrap();
        }
        // The retired telemetry commands are refused the same way, and
        // none of them gets a reply body.
        for retired in ["TELEMETRY\n", "METRICS\n", "STATUS\n"] {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(retired.as_bytes()).unwrap();
            let mut reply = String::new();
            let _ = s.read_to_string(&mut reply);
            assert_eq!(reply, "", "the hub answered {retired:?}");
        }
        let a = join_via_hub(addr, "127.0.0.1:40020".parse().unwrap()).unwrap();
        let b = join_via_hub(addr, "127.0.0.1:40021".parse().unwrap()).unwrap();
        assert_eq!((a.id, b.id), (0, 1));
        // Joins every connection thread, so the counters are final.
        hub.stop();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("hub.joins"), 2);
        assert_eq!(snap.counter("hub.rejects"), 7);
        let events = obs.events();
        assert_eq!(events.iter().filter(|e| e.kind == "hub.join").count(), 2);
        assert_eq!(events.iter().filter(|e| e.kind == "hub.reject").count(), 7);
        assert_eq!(
            events.iter().filter(|e| e.kind == "hub.complete").count(),
            1
        );
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
    /// keeps answering `JOB` instead of retiring.
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

        // No job service is attached, but the command itself is served.
        let err = submit_job(addr, &sample_submit(1), &cfg).unwrap_err();
        assert!(err.to_string().contains("no job service"), "{err}");
        hub.stop();
    }
}
