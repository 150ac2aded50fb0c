//! # p2p
//!
//! The peer-to-peer substrate of the distributed algorithm (paper §2.2):
//! a structured network of compute nodes bootstrapped by a central
//! **hub** that assigns each joining node its position in a **hypercube
//! topology** and hands out neighbor lists; after bootstrap all traffic
//! flows directly between peers over TCP.
//!
//! The crate provides two interchangeable transports behind one trait:
//!
//! - [`memory::InMemoryNetwork`] — `std::sync::mpsc` channels between threads in
//!   one process. Used by the simulation driver and by deterministic
//!   tests; message *semantics* are identical to TCP.
//! - [`tcp`] — real TCP sockets with length-prefixed frames and a
//!   hand-rolled binary codec ([`codec`]), plus the hub ([`hub`]): it
//!   bootstraps the network (`JOIN`) and afterwards serves only job
//!   admission (`JOB`). This is the deployment path the paper's Java
//!   system used.
//!
//! Topologies beyond the paper's hypercube (ring, complete, star) are in
//! [`topology`] for the ablation experiments. As in the paper, the
//! node set is fixed: a node that crashes is not replaced, nobody
//! rewires around it, and the nodes elect no hub among themselves.

pub mod codec;
pub mod delay;
pub mod fault;
pub mod hub;
pub mod memory;
pub mod message;
pub mod tcp;
pub mod topology;
pub mod transport;
pub mod util;

pub use fault::{FaultConfig, FaultyTransport};
pub use memory::InMemoryNetwork;
pub use message::{broadcast_id, job_id, Message, NodeId};
pub use tcp::TcpConfig;
pub use topology::Topology;
pub use transport::Transport;
pub use util::wait_until;

/// Networking error type.
#[derive(Debug)]
pub enum NetError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The peer is unknown or has left the network.
    UnknownPeer(NodeId),
    /// A frame failed to decode (corrupt or truncated).
    Codec(String),
    /// The peer's bounded outbound queue is full (the peer is stalled
    /// or too slow); the message was not enqueued.
    Backpressure(NodeId),
    /// The transport was shut down.
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::UnknownPeer(id) => write!(f, "unknown peer {id}"),
            NetError::Codec(msg) => write!(f, "codec error: {msg}"),
            NetError::Backpressure(id) => write!(f, "outbound queue to peer {id} full"),
            NetError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}
