//! Real TCP transport.
//!
//! Each node binds a listener; peer links are ordinary TCP connections
//! carrying the length-prefixed binary frames of [`crate::codec`]. A
//! connecting peer first sends its 8-byte node id, so the accepting
//! side can register the reverse edge — this implements the paper's
//! "if the contacted node did not know the contacting node before, the
//! contacting node is added to the contacted node's neighbor list"
//! (§2.2).
//!
//! The endpoint is hardened against misbehaving links and peers (see
//! DESIGN.md §6, "Fault model"):
//!
//! - `connect_to` uses a connect timeout and bounded retries with
//!   exponential backoff;
//! - the id handshake on both sides is bounded by a timeout, so a
//!   silent connector cannot wedge the accept path (handshakes run on
//!   their own short-lived threads);
//! - every peer has a bounded outbound queue drained by a dedicated
//!   writer thread, so `send` never performs socket I/O — a stalled
//!   peer fills its own queue ([`crate::NetError::Backpressure`])
//!   without blocking sends to anyone else;
//! - `shutdown` closes all sockets and joins the accept, reader, and
//!   writer threads within bounded time.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::{Counter, Gauge, Obs, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::codec::{read_frame, write_frame};
use crate::message::{Message, NodeId};
use crate::transport::Transport;
use crate::util::accept_loop;
use crate::NetError;

/// Timeouts and retry policy of a [`TcpEndpoint`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Timeout for establishing an outbound connection.
    pub connect_timeout: Duration,
    /// Timeout for the 8-byte id handshake (both directions).
    pub handshake_timeout: Duration,
    /// Timeout for one frame write; a peer that stalls longer is
    /// dropped.
    pub write_timeout: Duration,
    /// Extra connection attempts after the first failure.
    pub connect_retries: u32,
    /// Initial backoff between attempts (doubles per retry).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Per-peer outbound queue capacity (0 is treated as 1); a full
    /// queue makes `send` return [`NetError::Backpressure`] instead of
    /// blocking.
    pub outbound_queue: usize,
    /// Liveness timeout: a peer from which no frame (of any kind) has
    /// arrived for this long is declared down — the link is closed,
    /// `tcp.peer_down` is emitted, and the death is surfaced through
    /// [`crate::Transport::take_peer_downs`]. `None` (the default)
    /// disables the failure detector entirely: no prober thread is
    /// spawned and behavior is identical to pre-liveness builds.
    ///
    /// When enabled, a prober thread sends [`Message::Ping`] probes at
    /// a jittered interval of ¼–½ the timeout, so idle-but-responsive
    /// peers refresh their clocks (pongs are answered at the reader
    /// level and never reach the application inbox).
    pub liveness_timeout: Option<Duration>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(2),
            handshake_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(10),
            connect_retries: 4,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(1),
            outbound_queue: 256,
            liveness_timeout: None,
        }
    }
}

impl TcpConfig {
    /// A tight-deadline profile for tests: small timeouts, one retry.
    pub fn fast_fail() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_millis(200),
            handshake_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_millis(500),
            connect_retries: 1,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(50),
            ..Default::default()
        }
    }

    /// Enable the failure detector with the given timeout.
    pub fn with_liveness(mut self, timeout: Duration) -> Self {
        self.liveness_timeout = Some(timeout);
        self
    }
}

/// A live peer link: the queue feeding its writer thread and the
/// socket handle used to force-close the link. `gen` identifies this
/// particular link: when a link is replaced (a second dial to the same
/// peer), the old link's reader/writer threads die with a stale
/// generation and must not tear down the replacement.
struct Peer {
    tx: SyncSender<Message>,
    stream: TcpStream,
    writer: JoinHandle<()>,
    gen: u64,
}

/// Shared mutable state of one TCP endpoint.
struct Shared {
    /// This node's id. Atomic because the hub assigns the real id
    /// after bind ([`TcpEndpoint::set_id`]) while the prober and
    /// reader threads are already running.
    id: AtomicUsize,
    /// Live peer links, keyed by peer id.
    peers: Mutex<HashMap<NodeId, Peer>>,
    /// Known neighbor ids (order = connection order).
    neighbors: RwLock<Vec<NodeId>>,
    /// Per-peer last-seen clock, refreshed on every inbound frame.
    last_seen: Mutex<HashMap<NodeId, Instant>>,
    /// Peers declared down since the last `take_peer_downs` drain.
    peer_downs: Mutex<Vec<NodeId>>,
    /// Monotonic link-generation counter (see [`Peer::gen`]).
    link_gen: AtomicU64,
    /// Set on shutdown; accept, handshake, prober, reader, and writer
    /// threads exit.
    shutdown: AtomicBool,
    inbox_tx: Sender<Message>,
    /// Reader threads, joined on shutdown.
    readers: Mutex<Vec<JoinHandle<()>>>,
    cfg: TcpConfig,
    obs: Obs,
    probes: TcpProbes,
}

/// Wire-level metric handles, resolved once at bind time. All no-ops
/// unless the endpoint was created with [`TcpEndpoint::bind_with_obs`].
struct TcpProbes {
    /// Frame bytes written to / read from sockets (incl. the 4-byte
    /// length prefix).
    c_bytes_out: Counter,
    c_bytes_in: Counter,
    /// Messages sent / received at the transport surface.
    c_msgs_out: Counter,
    c_msgs_in: Counter,
    /// Extra connection attempts after a first failure.
    c_retries: Counter,
    /// Sends refused because a peer's outbound queue was full.
    c_backpressure: Counter,
    /// Failed accepts and handshake threads that could not be spawned
    /// (each costs one incoming connection, never the listener).
    c_accept_errors: Counter,
    /// Current total outbound-queue depth across peers.
    g_queue: Gauge,
}

impl TcpProbes {
    fn resolve(obs: &Obs) -> Self {
        TcpProbes {
            c_bytes_out: obs.counter("tcp.bytes_out"),
            c_bytes_in: obs.counter("tcp.bytes_in"),
            c_msgs_out: obs.counter("tcp.msgs_out"),
            c_msgs_in: obs.counter("tcp.msgs_in"),
            c_retries: obs.counter("tcp.retries"),
            c_backpressure: obs.counter("tcp.backpressure"),
            c_accept_errors: obs.counter("tcp.accept_errors"),
            g_queue: obs.gauge("tcp.queue_depth"),
        }
    }
}

/// A TCP-backed [`Transport`].
pub struct TcpEndpoint {
    id: NodeId,
    listen_addr: SocketAddr,
    inbox_rx: Receiver<Message>,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    probe_thread: Option<JoinHandle<()>>,
}

impl TcpEndpoint {
    /// Bind a listener on `addr` (use port 0 for an ephemeral port) and
    /// start accepting peer connections, with default timeouts.
    pub fn bind(id: NodeId, addr: &str) -> Result<Self, NetError> {
        Self::bind_with(id, addr, TcpConfig::default())
    }

    /// Bind with an explicit timeout/retry configuration.
    pub fn bind_with(id: NodeId, addr: &str, cfg: TcpConfig) -> Result<Self, NetError> {
        Self::bind_with_obs(id, addr, cfg, Obs::disabled())
    }

    /// [`TcpEndpoint::bind_with`] plus an observability handle: bytes
    /// in/out, send-queue depth, retry counts, and peer up/down events
    /// flow into its registry.
    pub fn bind_with_obs(
        id: NodeId,
        addr: &str,
        cfg: TcpConfig,
        obs: Obs,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let listen_addr = listener.local_addr()?;
        let (inbox_tx, inbox_rx) = channel();
        let probes = TcpProbes::resolve(&obs);
        let shared = Arc::new(Shared {
            id: AtomicUsize::new(id),
            peers: Mutex::new(HashMap::new()),
            neighbors: RwLock::new(Vec::new()),
            last_seen: Mutex::new(HashMap::new()),
            peer_downs: Mutex::new(Vec::new()),
            link_gen: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            inbox_tx,
            readers: Mutex::new(Vec::new()),
            cfg,
            obs,
            probes,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("p2p-accept-{id}"))
            .spawn(move || {
                // Handshakes run on their own threads with a read
                // timeout: a silent connector can neither wedge the
                // loop nor hang forever.
                let hs_shared = Arc::clone(&accept_shared);
                accept_loop(
                    &listener,
                    &accept_shared.shutdown,
                    "p2p-handshake",
                    move |stream| handshake_incoming(stream, &hs_shared),
                    |_| accept_shared.probes.c_accept_errors.incr(),
                )
            })
            .expect("spawn accept thread");
        let probe_thread = shared.cfg.liveness_timeout.map(|timeout| {
            let probe_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("p2p-probe-{id}"))
                .spawn(move || probe_loop(probe_shared, timeout))
                .expect("spawn probe thread")
        });
        Ok(TcpEndpoint {
            id,
            listen_addr,
            inbox_rx,
            shared,
            accept_thread: Some(accept_thread),
            probe_thread,
        })
    }

    /// The address peers should connect to.
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Set the node id after bootstrap (the hub assigns ids, but the
    /// listener must exist *before* joining so the node can announce a
    /// real address — bind with a placeholder, then call this before
    /// any [`TcpEndpoint::connect_to`]).
    pub fn set_id(&mut self, id: NodeId) {
        self.id = id;
        self.shared.id.store(id, Ordering::Relaxed);
    }

    /// Open a link to a peer (the hub told us its id and address),
    /// retrying with exponential backoff on failure. A link that
    /// already exists to `peer` is replaced.
    pub fn connect_to(&self, peer: NodeId, addr: SocketAddr) -> Result<(), NetError> {
        let shared = &self.shared;
        let cfg = &shared.cfg;
        let id = shared.id.load(Ordering::Relaxed);
        let mut backoff = cfg.backoff_base;
        let mut last_err = NetError::Closed;
        for attempt in 0..=cfg.connect_retries {
            if attempt > 0 {
                shared.probes.c_retries.incr();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(cfg.backoff_max);
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return Err(NetError::Closed);
            }
            match dial(id, addr, cfg) {
                Ok(stream) => {
                    register_peer(shared, peer, stream);
                    return Ok(());
                }
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Stop all threads and drop connections. Bounded even with
    /// stalled peers: sockets are force-closed, which unblocks any
    /// reader or writer parked in the kernel.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect_timeout(&self.listen_addr, Duration::from_millis(500));
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.probe_thread.take() {
            let _ = h.join();
        }
        // Close every socket first (unblocks reads and stalled writes),
        // then drop the senders (stops idle writers) and join.
        let peers: Vec<Peer> = self
            .shared
            .peers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain()
            .map(|(_, p)| p)
            .collect();
        for p in &peers {
            let _ = p.stream.shutdown(Shutdown::Both);
        }
        for p in peers {
            drop(p.tx);
            let _ = p.writer.join();
        }
        let readers = std::mem::take(
            &mut *self
                .shared
                .readers
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for h in readers {
            let _ = h.join();
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Establish one outbound connection and run the id handshake, both
/// under timeouts.
fn dial(id: NodeId, addr: SocketAddr, cfg: &TcpConfig) -> Result<TcpStream, NetError> {
    let mut stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)?;
    stream.set_nodelay(true).ok();
    stream.set_write_timeout(Some(cfg.handshake_timeout)).ok();
    // Identify ourselves so the peer registers the reverse edge.
    stream.write_all(&(id as u64).to_le_bytes())?;
    stream.flush()?;
    stream.set_write_timeout(None).ok();
    Ok(stream)
}

/// Register a connected peer: spawn its writer (draining a bounded
/// queue) and reader threads, add to the neighbor list if new. An
/// existing link to the same peer is force-closed and replaced.
fn register_peer(shared: &Arc<Shared>, peer: NodeId, stream: TcpStream) {
    let gen = shared.link_gen.fetch_add(1, Ordering::Relaxed);
    let read_half = stream.try_clone().expect("clone tcp stream");
    let write_half = stream.try_clone().expect("clone tcp stream");
    write_half
        .set_write_timeout(Some(shared.cfg.write_timeout))
        .ok();
    let (tx, rx) = sync_channel(shared.cfg.outbound_queue.max(1));
    let writer_shared = Arc::clone(shared);
    let writer = std::thread::Builder::new()
        .name(format!("p2p-write-{peer}"))
        .spawn(move || writer_loop(write_half, rx, peer, gen, writer_shared))
        .expect("spawn writer thread");
    if let Some(old) = shared
        .peers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(
            peer,
            Peer {
                tx,
                stream,
                writer,
                gen,
            },
        )
    {
        let _ = old.stream.shutdown(Shutdown::Both);
    }
    {
        let mut nb = shared
            .neighbors
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if !nb.contains(&peer) {
            nb.push(peer);
        }
    }
    shared
        .last_seen
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(peer, Instant::now());
    let reader_shared = Arc::clone(shared);
    let reader = std::thread::Builder::new()
        .name(format!("p2p-read-{peer}"))
        .spawn(move || reader_loop(read_half, peer, gen, reader_shared))
        .expect("spawn reader thread");
    shared
        .readers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(reader);
    shared
        .obs
        .event("tcp.peer_up", &[("peer", Value::U(peer as u64))]);
}

/// Forget a peer (liveness timeout, connection error, or departure).
/// The socket is closed, which terminates its reader and writer
/// threads; the death is queued for [`Transport::take_peer_downs`] only
/// on the first drop of a link, so concurrent detection paths (prober,
/// reader, writer) report each death once.
fn drop_peer(shared: &Shared, peer: NodeId) {
    let known = shared
        .peers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&peer)
        .map(|p| {
            let _ = p.stream.shutdown(Shutdown::Both);
        });
    shared
        .neighbors
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .retain(|&n| n != peer);
    shared
        .last_seen
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&peer);
    if known.is_some() {
        shared
            .peer_downs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(peer);
        shared
            .obs
            .event("tcp.peer_down", &[("peer", Value::U(peer as u64))]);
    }
}

/// Like [`drop_peer`], but only if the current link to `peer` still
/// has generation `gen` — the reader/writer threads of a replaced
/// link must not tear down the replacement.
fn drop_peer_if(shared: &Shared, peer: NodeId, gen: u64) {
    {
        let peers = shared.peers.lock().unwrap_or_else(PoisonError::into_inner);
        if peers.get(&peer).map(|p| p.gen) != Some(gen) {
            return;
        }
    }
    drop_peer(shared, peer);
}

/// Failure-detector thread: probes every peer at a jittered interval
/// (¼–½ of `timeout`) and declares peers silent past `timeout` down.
fn probe_loop(shared: Arc<Shared>, timeout: Duration) {
    let seed = shared.id.load(Ordering::Relaxed) as u64 ^ 0x9e37_79b9_7f4a_7c15;
    let mut rng = SmallRng::seed_from_u64(seed);
    loop {
        let base = (timeout / 4).max(Duration::from_millis(5));
        let jitter = rng.gen_range(0..base.as_millis().max(1) as u64);
        let tick = base + Duration::from_millis(jitter);
        let end = Instant::now() + tick;
        while Instant::now() < end {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let self_id = shared.id.load(Ordering::Relaxed);
        let peers: Vec<(NodeId, SyncSender<Message>)> = shared
            .peers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&p, peer)| (p, peer.tx.clone()))
            .collect();
        let now = Instant::now();
        for (p, tx) in peers {
            let stale = shared
                .last_seen
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&p)
                .is_none_or(|t| now.duration_since(*t) > timeout);
            if stale {
                drop_peer(&shared, p);
            } else if tx.try_send(Message::Ping { from: self_id }).is_ok() {
                shared.probes.g_queue.add(1);
            }
            // A full queue means the peer is stalled; skip the probe —
            // the silence will trip the timeout by itself.
        }
    }
}

/// Accept-side id handshake; times out instead of blocking forever.
fn handshake_incoming(mut stream: TcpStream, shared: &Arc<Shared>) {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(shared.cfg.handshake_timeout))
        .ok();
    // First 8 bytes: the connecting peer's id.
    let mut id_buf = [0u8; 8];
    if stream.read_exact(&mut id_buf).is_err() {
        return; // silent or dead connector: discard
    }
    stream.set_read_timeout(None).ok();
    if shared.shutdown.load(Ordering::Acquire) {
        return;
    }
    let peer = u64::from_le_bytes(id_buf) as NodeId;
    register_peer(shared, peer, stream);
}

/// Drain one peer's outbound queue onto its socket. Exits when the
/// queue disconnects (endpoint shutdown or peer dropped) or a write
/// fails (stall past the write timeout, or connection loss).
fn writer_loop(
    mut stream: TcpStream,
    rx: Receiver<Message>,
    peer: NodeId,
    gen: u64,
    shared: Arc<Shared>,
) {
    while let Ok(msg) = rx.recv() {
        shared.probes.g_queue.add(-1);
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let frame_bytes = (msg.wire_size() + 4) as u64;
        if write_frame(&mut stream, &msg).is_err() {
            drop_peer_if(&shared, peer, gen);
            break;
        }
        shared.probes.c_bytes_out.add(frame_bytes);
        shared.probes.c_msgs_out.incr();
    }
}

fn reader_loop(mut stream: TcpStream, peer: NodeId, gen: u64, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match read_frame(&mut stream) {
            Ok(msg) => {
                shared.probes.c_bytes_in.add((msg.wire_size() + 4) as u64);
                shared.probes.c_msgs_in.incr();
                // Any frame proves the peer alive.
                shared
                    .last_seen
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(peer, Instant::now());
                match msg {
                    // Liveness traffic is handled here at the wire
                    // level and never reaches the application inbox,
                    // so enabling the detector cannot change what the
                    // node loop observes.
                    Message::Ping { .. } => {
                        let self_id = shared.id.load(Ordering::Relaxed);
                        let tx = shared
                            .peers
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get(&peer)
                            .map(|p| p.tx.clone());
                        if let Some(tx) = tx {
                            if tx.try_send(Message::Pong { from: self_id }).is_ok() {
                                shared.probes.g_queue.add(1);
                            }
                        }
                    }
                    // A pong's only job was refreshing `last_seen` above.
                    Message::Pong { .. } => {}
                    other => {
                        let leaving = matches!(other, Message::Leave { .. });
                        if shared.inbox_tx.send(other).is_err() {
                            break;
                        }
                        if leaving {
                            drop_peer_if(&shared, peer, gen);
                            break;
                        }
                    }
                }
            }
            Err(_) => {
                // Connection dropped or corrupt stream: forget the peer.
                drop_peer_if(&shared, peer, gen);
                break;
            }
        }
    }
}

impl Transport for TcpEndpoint {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn neighbors(&self) -> Vec<NodeId> {
        self.shared
            .neighbors
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Enqueue for the peer's writer thread. Never performs socket
    /// I/O and never blocks: a stalled peer surfaces as
    /// [`NetError::Backpressure`] once its queue fills.
    fn send(&mut self, to: NodeId, msg: Message) -> Result<(), NetError> {
        let tx = {
            let peers = self
                .shared
                .peers
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            peers.get(&to).ok_or(NetError::UnknownPeer(to))?.tx.clone()
        };
        match tx.try_send(msg) {
            Ok(()) => {
                self.shared.probes.g_queue.add(1);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.shared.probes.c_backpressure.incr();
                Err(NetError::Backpressure(to))
            }
            Err(TrySendError::Disconnected(_)) => Err(NetError::UnknownPeer(to)),
        }
    }

    fn try_recv(&mut self) -> Option<Message> {
        self.inbox_rx.try_recv().ok()
    }

    fn take_peer_downs(&mut self) -> Vec<NodeId> {
        std::mem::take(
            &mut *self
                .shared
                .peer_downs
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::wait_until;
    use std::time::{Duration, Instant};

    fn recv_with_timeout(ep: &mut TcpEndpoint, millis: u64) -> Option<Message> {
        let mut got = None;
        wait_until(
            || {
                got = ep.try_recv();
                got.is_some()
            },
            Duration::from_millis(millis),
        );
        got
    }

    fn wait_for_neighbors(ep: &TcpEndpoint, want: usize, millis: u64) {
        wait_until(
            || ep.neighbors().len() >= want,
            Duration::from_millis(millis),
        );
    }

    #[test]
    fn two_nodes_exchange_tours() {
        let mut a = TcpEndpoint::bind(0, "127.0.0.1:0").unwrap();
        let mut b = TcpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        a.connect_to(1, b.listen_addr()).unwrap();
        // Wait for b to register the reverse edge.
        wait_for_neighbors(&b, 1, 2000);
        assert_eq!(b.neighbors(), vec![0]);
        assert_eq!(a.neighbors(), vec![1]);

        let msg = Message::TourFound {
            from: 0,
            id: 7,
            length: 1234,
            order: (0..100).collect(),
        };
        a.send(1, msg.clone()).unwrap();
        assert_eq!(recv_with_timeout(&mut b, 2000), Some(msg));

        // And the reverse direction over the same socket pair.
        let reply = Message::OptimumFound { from: 1, length: 9 };
        b.send(0, reply.clone()).unwrap();
        assert_eq!(recv_with_timeout(&mut a, 2000), Some(reply));
    }

    #[test]
    fn obs_counts_bytes_and_messages_both_directions() {
        let obs_a = Obs::for_node(0);
        let obs_b = Obs::for_node(1);
        let mut a =
            TcpEndpoint::bind_with_obs(0, "127.0.0.1:0", TcpConfig::default(), obs_a.clone())
                .unwrap();
        let mut b =
            TcpEndpoint::bind_with_obs(1, "127.0.0.1:0", TcpConfig::default(), obs_b.clone())
                .unwrap();
        a.connect_to(1, b.listen_addr()).unwrap();
        wait_for_neighbors(&b, 1, 2000);

        let msg = Message::TourFound {
            from: 0,
            id: 1,
            length: 10,
            order: (0..50).collect(),
        };
        let frame_bytes = (msg.wire_size() + 4) as u64;
        a.send(1, msg.clone()).unwrap();
        assert_eq!(recv_with_timeout(&mut b, 2000), Some(msg));

        // The writer thread records bytes after the write completes;
        // give it a moment.
        wait_until(
            || obs_a.snapshot().counter("tcp.bytes_out") >= frame_bytes,
            Duration::from_secs(2),
        );
        let sa = obs_a.snapshot();
        let sb = obs_b.snapshot();
        assert_eq!(sa.counter("tcp.bytes_out"), frame_bytes);
        assert_eq!(sa.counter("tcp.msgs_out"), 1);
        assert_eq!(sb.counter("tcp.bytes_in"), frame_bytes);
        assert_eq!(sb.counter("tcp.msgs_in"), 1);
        // The queue drained back to zero once the frame was written.
        assert_eq!(sa.gauges.get("tcp.queue_depth").copied(), Some(0));
        assert!(obs_b.events().iter().any(|e| e.kind == "tcp.peer_up"));
    }

    #[test]
    fn leave_removes_peer() {
        let mut a = TcpEndpoint::bind(0, "127.0.0.1:0").unwrap();
        let mut b = TcpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        a.connect_to(1, b.listen_addr()).unwrap();
        wait_for_neighbors(&b, 1, 2000);
        a.leave();
        let got = recv_with_timeout(&mut b, 2000);
        assert_eq!(got, Some(Message::Leave { from: 0 }));
        assert!(wait_until(
            || b.neighbors().is_empty(),
            Duration::from_secs(2)
        ));
    }

    /// A thread that panics while it holds the endpoint's locks must not
    /// take the endpoint down with it: every lock site recovers the
    /// poisoned lock, so the accept loop, reader, writer and prober
    /// keep serving the link.
    #[test]
    fn poisoned_locks_leave_the_endpoint_working() {
        let cfg = TcpConfig::fast_fail().with_liveness(Duration::from_millis(300));
        let mut a = TcpEndpoint::bind_with(0, "127.0.0.1:0", cfg.clone()).unwrap();
        let mut b = TcpEndpoint::bind_with(1, "127.0.0.1:0", cfg).unwrap();
        a.connect_to(1, b.listen_addr()).unwrap();
        wait_for_neighbors(&b, 1, 2000);
        let shared = Arc::clone(&a.shared);
        let poisoner = std::thread::spawn(move || {
            let _peers = shared.peers.lock();
            let _neighbors = shared.neighbors.write();
            let _seen = shared.last_seen.lock();
            let _downs = shared.peer_downs.lock();
            let _readers = shared.readers.lock();
            panic!("a peer thread dies holding every lock");
        });
        assert!(poisoner.join().is_err());
        assert!(a.shared.peers.is_poisoned() && a.shared.neighbors.is_poisoned());

        let msg = Message::OptimumFound { from: 0, length: 5 };
        a.send(1, msg.clone()).unwrap();
        assert_eq!(recv_with_timeout(&mut b, 2000), Some(msg));
        let reply = Message::OptimumFound { from: 1, length: 4 };
        b.send(0, reply.clone()).unwrap();
        assert_eq!(recv_with_timeout(&mut a, 2000), Some(reply));
        assert_eq!(a.neighbors(), vec![1]);

        b.shutdown();
        let mut downs = Vec::new();
        assert!(wait_until(
            || {
                downs.extend(a.take_peer_downs());
                !downs.is_empty()
            },
            Duration::from_secs(5)
        ));
        assert_eq!(downs, vec![1]);
        assert!(a.neighbors().is_empty());
        a.shutdown();
    }

    #[test]
    fn unknown_peer_errors() {
        let mut a = TcpEndpoint::bind(0, "127.0.0.1:0").unwrap();
        let err = a.send(9, Message::Leave { from: 0 }).unwrap_err();
        assert!(matches!(err, NetError::UnknownPeer(9)));
    }

    /// Satellite bugfix test: connecting to a dead address fails
    /// within the configured timeout/retry budget instead of hanging.
    #[test]
    fn connect_to_dead_address_fails_within_timeout() {
        let a = TcpEndpoint::bind_with(0, "127.0.0.1:0", TcpConfig::fast_fail()).unwrap();
        // Grab a port that was live and is now certainly dead.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let start = Instant::now();
        let res = a.connect_to(7, dead);
        assert!(res.is_err(), "connected to a dead address");
        // fast_fail: 2 attempts x 200 ms connect timeout + 10 ms
        // backoff, plus slack for a slow CI host.
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dead connect took {:?}",
            start.elapsed()
        );
        assert!(a.neighbors().is_empty());
    }

    /// Satellite bugfix test: a connector that never sends its id no
    /// longer wedges the accept path — later peers still get through.
    #[test]
    fn silent_connector_does_not_block_accepts() {
        let mut b = TcpEndpoint::bind_with(1, "127.0.0.1:0", TcpConfig::fast_fail()).unwrap();
        // A silent connection that never completes the handshake.
        let _silent = TcpStream::connect(b.listen_addr()).unwrap();
        // A real peer connecting right after must still be accepted.
        let mut a = TcpEndpoint::bind_with(0, "127.0.0.1:0", TcpConfig::fast_fail()).unwrap();
        a.connect_to(1, b.listen_addr()).unwrap();
        wait_for_neighbors(&b, 1, 2000);
        assert_eq!(b.neighbors(), vec![0]);
        a.send(1, Message::Leave { from: 0 }).unwrap();
        assert_eq!(
            recv_with_timeout(&mut b, 2000),
            Some(Message::Leave { from: 0 })
        );
    }

    /// A stalled peer (never reads, kernel buffers full) cannot block
    /// sends to other peers, and shutdown still completes quickly.
    #[test]
    fn stalled_peer_does_not_block_other_sends_or_shutdown() {
        let mut cfg = TcpConfig::fast_fail();
        cfg.outbound_queue = 4;
        let mut a = TcpEndpoint::bind_with(0, "127.0.0.1:0", cfg.clone()).unwrap();
        let mut healthy = TcpEndpoint::bind_with(1, "127.0.0.1:0", cfg.clone()).unwrap();
        a.connect_to(1, healthy.listen_addr()).unwrap();

        // The "stalled" peer: accepts the connection, then never reads.
        let stall_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stall_addr = stall_listener.local_addr().unwrap();
        let stall_thread = std::thread::spawn(move || {
            let (s, _) = stall_listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(3));
            drop(s);
        });
        a.connect_to(2, stall_addr).unwrap();

        // Flood the stalled peer with big frames until backpressure.
        let big = Message::TourFound {
            from: 0,
            id: 0,
            length: 1,
            order: (0..200_000).collect(),
        };
        let mut saw_backpressure = false;
        for _ in 0..64 {
            match a.send(2, big.clone()) {
                Err(NetError::Backpressure(2)) => {
                    saw_backpressure = true;
                    break;
                }
                Err(_) => break,
                Ok(()) => {}
            }
        }
        assert!(saw_backpressure, "queue to the stalled peer never filled");

        // Sends to the healthy peer are instant despite the stall.
        let start = Instant::now();
        a.send(1, Message::OptimumFound { from: 0, length: 1 })
            .unwrap();
        assert!(start.elapsed() < Duration::from_millis(100));
        assert!(recv_with_timeout(&mut healthy, 2000).is_some());

        // Shutdown joins every thread in bounded time.
        let start = Instant::now();
        a.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown took {:?} with a stalled peer",
            start.elapsed()
        );
        let _ = stall_thread.join();
    }

    #[test]
    fn shutdown_is_idempotent_and_bounded() {
        let mut a = TcpEndpoint::bind(0, "127.0.0.1:0").unwrap();
        let b = TcpEndpoint::bind(1, "127.0.0.1:0").unwrap();
        a.connect_to(1, b.listen_addr()).unwrap();
        let start = Instant::now();
        a.shutdown();
        a.shutdown();
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    /// Half-open connection: the peer's socket stays open but it never
    /// reads or writes. The liveness timeout must declare it down,
    /// emit `tcp.peer_down`, surface it via `take_peer_downs`, and the
    /// outbound queue depth must stay bounded the whole time.
    #[test]
    fn half_open_peer_trips_liveness_timeout() {
        let mut cfg = TcpConfig::fast_fail().with_liveness(Duration::from_millis(400));
        cfg.outbound_queue = 8;
        let queue_bound = cfg.outbound_queue as i64;
        let obs = Obs::for_node(0);
        let mut a = TcpEndpoint::bind_with_obs(0, "127.0.0.1:0", cfg, obs.clone()).unwrap();

        // The frozen peer: accepts, then neither reads nor writes.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let frozen_addr = listener.local_addr().unwrap();
        let frozen = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(4));
            drop(s);
        });
        a.connect_to(2, frozen_addr).unwrap();
        assert_eq!(a.neighbors(), vec![2]);

        // Keep some application traffic flowing at the frozen peer so
        // the queue has every chance to grow while we wait.
        let big = Message::TourFound {
            from: 0,
            id: 0,
            length: 1,
            order: (0..50_000).collect(),
        };
        let died = wait_until(
            || {
                let _ = a.send(2, big.clone());
                let depth = obs.snapshot().gauges.get("tcp.queue_depth").copied();
                assert!(
                    depth.unwrap_or(0) <= queue_bound,
                    "queue depth {depth:?} exceeded bound {queue_bound}"
                );
                a.neighbors().is_empty()
            },
            Duration::from_secs(5),
        );
        assert!(died, "frozen peer was never declared down");
        assert_eq!(a.take_peer_downs(), vec![2]);
        assert!(a.take_peer_downs().is_empty(), "downs reported twice");
        assert!(obs.events().iter().any(|e| e.kind == "tcp.peer_down"));
        let _ = frozen.join();
    }

    /// Idle but responsive peers must NOT be declared down: ping/pong
    /// keeps the last-seen clocks fresh without any application
    /// traffic, and none of it reaches the inbox.
    #[test]
    fn idle_responsive_peers_survive_liveness_timeout() {
        let cfg = TcpConfig::fast_fail().with_liveness(Duration::from_millis(300));
        let mut a = TcpEndpoint::bind_with(0, "127.0.0.1:0", cfg.clone()).unwrap();
        let mut b = TcpEndpoint::bind_with(1, "127.0.0.1:0", cfg).unwrap();
        a.connect_to(1, b.listen_addr()).unwrap();
        wait_for_neighbors(&b, 1, 2000);

        // Sit idle for several timeouts.
        std::thread::sleep(Duration::from_millis(1200));
        assert_eq!(a.neighbors(), vec![1]);
        assert_eq!(b.neighbors(), vec![0]);
        assert!(a.take_peer_downs().is_empty());
        assert!(b.take_peer_downs().is_empty());
        // The liveness chatter stayed below the application surface.
        assert!(a.try_recv().is_none());
        assert!(b.try_recv().is_none());

        // The link still works for real traffic.
        a.send(1, Message::OptimumFound { from: 0, length: 5 })
            .unwrap();
        assert_eq!(
            recv_with_timeout(&mut b, 2000),
            Some(Message::OptimumFound { from: 0, length: 5 })
        );

        // Now b really dies. a's reader and its liveness prober may
        // race to detect the same death; it is still reported once.
        b.shutdown();
        assert!(wait_until(
            || a.neighbors().is_empty(),
            Duration::from_secs(5)
        ));
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(a.take_peer_downs(), vec![1]);
        assert!(a.take_peer_downs().is_empty(), "downs reported twice");
    }
}
