//! In-process transport over `std::sync::mpsc` channels.
//!
//! Semantically identical to the TCP transport (asynchronous,
//! unordered across peers, ordered per peer) but runs the whole
//! network inside one process — the harness the simulation driver and
//! the deterministic tests use. Message counts and byte volumes are
//! tracked so the message-statistics experiment (§4 prelude) works on
//! either backend. A node can be killed, crash-stop like a TCP peer
//! whose process died; it never comes back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, PoisonError, RwLock};

use crate::message::{Message, NodeId};
use crate::topology::Topology;
use crate::transport::Transport;
use crate::NetError;

/// Shared counters for network statistics.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Messages sent across the whole network.
    pub messages: AtomicU64,
    /// Total wire bytes (per [`Message::wire_size`]).
    pub bytes: AtomicU64,
    /// Tour broadcasts specifically (the paper reports these).
    pub tour_broadcasts: AtomicU64,
}

impl NetStats {
    fn record(&self, msg: &Message) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(msg.wire_size() as u64, Ordering::Relaxed);
        if matches!(msg, Message::TourFound { .. }) {
            self.tour_broadcasts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot `(messages, bytes, tour_broadcasts)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.messages.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.tour_broadcasts.load(Ordering::Relaxed),
        )
    }
}

/// One node's endpoint in an in-memory network.
pub struct MemoryEndpoint {
    id: NodeId,
    neighbors: Vec<NodeId>,
    inbox: Receiver<Message>,
    /// Senders to every node (index = node id); `None` once that node
    /// left.
    peers: Arc<RwLock<Vec<Option<Sender<Message>>>>>,
    stats: Arc<NetStats>,
    /// Peers declared dead since the last [`Transport::take_peer_downs`]
    /// call. The churn driver fills this on survivors so the node loop
    /// observes failures the same way it would over TCP liveness probes.
    pending_downs: Vec<NodeId>,
}

impl MemoryEndpoint {
    /// Declare `peer` dead: drop the link and queue a peer-down
    /// notification for the next [`Transport::take_peer_downs`]. This is
    /// the in-memory analogue of the TCP liveness timeout firing.
    pub fn note_peer_down(&mut self, peer: NodeId) {
        self.neighbors.retain(|&n| n != peer);
        if !self.pending_downs.contains(&peer) {
            self.pending_downs.push(peer);
        }
    }
}

impl Transport for MemoryEndpoint {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn neighbors(&self) -> Vec<NodeId> {
        self.neighbors.clone()
    }

    fn send(&mut self, to: NodeId, msg: Message) -> Result<(), NetError> {
        let peers = self.peers.read().unwrap_or_else(PoisonError::into_inner);
        let tx = peers
            .get(to)
            .and_then(|p| p.as_ref())
            .ok_or(NetError::UnknownPeer(to))?;
        self.stats.record(&msg);
        tx.send(msg).map_err(|_| NetError::Closed)
    }

    fn try_recv(&mut self) -> Option<Message> {
        self.inbox.try_recv().ok()
    }

    fn leave(&mut self) {
        let id = self.node_id();
        self.broadcast(Message::Leave { from: id });
        // Unregister so senders get UnknownPeer instead of piling up
        // messages nobody will read.
        self.peers.write().unwrap_or_else(PoisonError::into_inner)[id] = None;
    }

    fn take_peer_downs(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.pending_downs)
    }
}

/// Factory and churn controller for a whole in-memory network.
///
/// [`InMemoryNetwork::build`] is the classic stateless entry point;
/// [`InMemoryNetwork::create`] additionally returns the network handle,
/// which can [`kill`](InMemoryNetwork::kill) a node (unregister its
/// sender so peers get [`NetError::UnknownPeer`], like a crashed
/// process) — the substrate of the crash-stop churn driver. A killed
/// node never comes back.
///
/// ```
/// use p2p::{InMemoryNetwork, Message, Topology, Transport};
///
/// let (mut eps, stats) = InMemoryNetwork::build(8, Topology::Hypercube);
/// let sent = eps[0].broadcast(Message::Leave { from: 0 });
/// assert_eq!(sent, 3); // hypercube degree at n = 8
/// assert_eq!(stats.snapshot().0, 3);
/// ```
pub struct InMemoryNetwork {
    peers: Arc<RwLock<Vec<Option<Sender<Message>>>>>,
    stats: Arc<NetStats>,
}

impl InMemoryNetwork {
    /// Build an `n`-node network with the given topology, returning the
    /// network handle (which can kill nodes) plus one endpoint per node.
    pub fn create(n: usize, topology: Topology) -> (Self, Vec<MemoryEndpoint>) {
        let stats = Arc::new(NetStats::default());
        let mut senders: Vec<Option<Sender<Message>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Message>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(Some(tx));
            receivers.push(rx);
        }
        let peers = Arc::new(RwLock::new(senders));
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(id, inbox)| MemoryEndpoint {
                id,
                neighbors: topology.neighbors(id, n),
                inbox,
                peers: Arc::clone(&peers),
                stats: Arc::clone(&stats),
                pending_downs: Vec::new(),
            })
            .collect();
        (InMemoryNetwork { peers, stats }, endpoints)
    }

    /// Build an `n`-node network with the given topology, returning one
    /// endpoint per node (move each onto its own thread).
    pub fn build(n: usize, topology: Topology) -> (Vec<MemoryEndpoint>, Arc<NetStats>) {
        let (net, endpoints) = Self::create(n, topology);
        (endpoints, net.stats)
    }

    /// The shared message counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    /// Crash node `id`: unregister its sender so every subsequent send
    /// to it fails with [`NetError::UnknownPeer`]. Unlike
    /// [`Transport::leave`] no notice is sent — peers only learn of the
    /// death through failure detection (crash semantics).
    pub fn kill(&self, id: NodeId) {
        self.peers.write().unwrap_or_else(PoisonError::into_inner)[id] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_flow_between_neighbors() {
        let (mut eps, stats) = InMemoryNetwork::build(8, Topology::Hypercube);
        let msg = Message::TourFound {
            from: 0,
            id: 1,
            length: 42,
            order: vec![0, 1, 2],
        };
        let sent = eps[0].broadcast(msg.clone());
        assert_eq!(sent, 3); // hypercube degree at n=8
                             // Node 1 is a neighbor of 0.
        let got = eps[1].try_recv().unwrap();
        assert_eq!(got, msg);
        // Node 7 (111) is not adjacent to 0 (000).
        assert!(eps[7].try_recv().is_none());
        let (m, b, t) = stats.snapshot();
        assert_eq!(m, 3);
        assert_eq!(t, 3);
        assert!(b > 0);
    }

    #[test]
    fn drain_collects_everything() {
        let (mut eps, _) = InMemoryNetwork::build(4, Topology::Complete);
        for ep in eps.iter_mut().skip(1) {
            let m = Message::OptimumFound {
                from: ep.node_id(),
                length: 7,
            };
            // Send directly to node 0.
            ep.send(0, m).unwrap();
        }
        let got = eps[0].drain();
        assert_eq!(got.len(), 3);
        assert!(eps[0].drain().is_empty());
    }

    #[test]
    fn leave_unregisters_node() {
        let (mut eps, _) = InMemoryNetwork::build(4, Topology::Ring);
        let mut e1 = eps.remove(1);
        e1.leave();
        // Neighbors received the leave notice.
        let notices = eps[0].drain(); // old index 0
        assert!(notices
            .iter()
            .any(|m| matches!(m, Message::Leave { from: 1 })));
        // Sending to the departed node now fails.
        let err = eps[0].send(1, Message::Leave { from: 0 }).unwrap_err();
        assert!(matches!(err, NetError::UnknownPeer(1)));
    }

    #[test]
    fn per_peer_ordering_preserved() {
        let (mut eps, _) = InMemoryNetwork::build(2, Topology::Ring);
        for i in 0..10i64 {
            eps[0]
                .send(1, Message::OptimumFound { from: 0, length: i })
                .unwrap();
        }
        let got = eps[1].drain();
        let lens: Vec<i64> = got
            .iter()
            .map(|m| match m {
                Message::OptimumFound { length, .. } => *length,
                _ => panic!(),
            })
            .collect();
        assert_eq!(lens, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn endpoints_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MemoryEndpoint>();
    }

    #[test]
    fn kill_fails_sends_without_notice() {
        let (net, mut eps) = InMemoryNetwork::create(4, Topology::Ring);
        net.kill(1);
        let err = eps[0].send(1, Message::Leave { from: 0 }).unwrap_err();
        assert!(matches!(err, NetError::UnknownPeer(1)));
        // Crash semantics: no Leave or any other notice was delivered.
        assert!(eps[0].drain().is_empty());
        assert!(eps[2].drain().is_empty());
    }

    #[test]
    fn note_peer_down_drops_the_link_and_reports_once() {
        let (_net, mut eps) = InMemoryNetwork::create(4, Topology::Ring);
        let mut e0 = eps.remove(0);
        assert_eq!(e0.neighbors(), vec![3, 1]);
        e0.note_peer_down(1);
        e0.note_peer_down(1); // duplicate reports collapse
        assert_eq!(e0.neighbors(), vec![3]);
        assert_eq!(e0.take_peer_downs(), vec![1]);
        assert!(e0.take_peer_downs().is_empty());
    }
}
