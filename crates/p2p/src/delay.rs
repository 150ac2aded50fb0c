//! Latency injection: wrap any [`Transport`] and hold received
//! messages for a fixed delay before the node sees them.
//!
//! The paper claims communication costs are negligible because tours
//! are exchanged rarely (§4 prelude). This wrapper lets experiments
//! *test* that claim: run the same distributed configuration with
//! 0 ms / 10 ms / 100 ms one-way delays and compare convergence.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::message::{Message, NodeId};
use crate::transport::Transport;
use crate::NetError;

/// A [`Transport`] decorator that delays *inbound* delivery.
///
/// Sends pass through unchanged (delaying one side of every link is
/// equivalent to a symmetric one-way delay for the algorithm's
/// semantics, since nodes only react to what they receive).
pub struct DelayedTransport<T: Transport> {
    inner: T,
    delay: Duration,
    holding: VecDeque<(Instant, Message)>,
}

impl<T: Transport> DelayedTransport<T> {
    /// Wrap `inner`, delaying every received message by `delay`.
    pub fn new(inner: T, delay: Duration) -> Self {
        DelayedTransport {
            inner,
            delay,
            holding: VecDeque::new(),
        }
    }

    /// The configured one-way delay.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// Pull everything pending from the inner transport into the
    /// holding queue, stamping arrival times.
    fn ingest(&mut self) {
        let now = Instant::now();
        while let Some(m) = self.inner.try_recv() {
            self.holding.push_back((now + self.delay, m));
        }
    }
}

impl<T: Transport> Transport for DelayedTransport<T> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn neighbors(&self) -> Vec<NodeId> {
        self.inner.neighbors()
    }

    fn send(&mut self, to: NodeId, msg: Message) -> Result<(), NetError> {
        self.inner.send(to, msg)
    }

    fn try_recv(&mut self) -> Option<Message> {
        self.ingest();
        match self.holding.front() {
            Some(&(due, _)) if Instant::now() >= due => self.holding.pop_front().map(|(_, m)| m),
            _ => None,
        }
    }

    fn leave(&mut self) {
        self.inner.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryNetwork;
    use crate::topology::Topology;

    #[test]
    fn zero_delay_passes_through() {
        let (mut eps, _) = InMemoryNetwork::build(2, Topology::Ring);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut b = DelayedTransport::new(b, Duration::ZERO);
        a.send(1, Message::Leave { from: 0 }).unwrap();
        // Zero delay: visible immediately.
        assert_eq!(b.try_recv(), Some(Message::Leave { from: 0 }));
    }

    #[test]
    fn messages_held_for_the_delay() {
        let (mut eps, _) = InMemoryNetwork::build(2, Topology::Ring);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut b = DelayedTransport::new(b, Duration::from_millis(30));
        a.send(1, Message::OptimumFound { from: 0, length: 1 })
            .unwrap();
        assert_eq!(b.try_recv(), None, "message leaked before the delay");
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.try_recv().is_some());
    }

    #[test]
    fn ordering_preserved_under_delay() {
        let (mut eps, _) = InMemoryNetwork::build(2, Topology::Ring);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut b = DelayedTransport::new(b, Duration::from_millis(5));
        for i in 0..5i64 {
            a.send(1, Message::OptimumFound { from: 0, length: i })
                .unwrap();
        }
        // The delay clock starts at the first poll (lazy ingestion), so
        // poll until everything drained.
        let mut got = Vec::new();
        crate::util::wait_until(
            || {
                match b.try_recv() {
                    Some(Message::OptimumFound { length, .. }) => got.push(length),
                    Some(_) => panic!("unexpected message"),
                    None => {}
                }
                got.len() >= 5
            },
            Duration::from_millis(500),
        );
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn id_and_neighbors_delegate() {
        let (mut eps, _) = InMemoryNetwork::build(4, Topology::Hypercube);
        let d = DelayedTransport::new(eps.remove(2), Duration::from_millis(1));
        assert_eq!(d.node_id(), 2);
        assert_eq!(d.neighbors().len(), 2);
        assert_eq!(d.delay(), Duration::from_millis(1));
    }
}
