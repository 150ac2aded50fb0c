//! Fault injection: wrap any [`Transport`] and subject inbound
//! messages to message drop, duplication, reordering, and wire-level
//! byte corruption, driven by a seeded RNG.
//!
//! The paper's P2P network (§2.2) must keep cooperating when real
//! links misbehave. This wrapper — the sibling of
//! [`crate::delay::DelayedTransport`] — lets experiments and tests
//! measure exactly how gracefully tour quality degrades as the link
//! gets worse, and exercises the receive-side validation paths
//! (codec rejection, tour validation in the node loop).
//!
//! Faults are applied on the *inbound* side so that a lockstep
//! simulation stays deterministic: each endpoint owns its own RNG
//! (derived from the fault seed and the node id) and perturbs only
//! what it receives.
//!
//! Corruption is modelled at the wire level: the message is encoded
//! with the real codec, a few payload bytes are flipped, and the
//! result is decoded again. If the codec catches the damage the
//! message is discarded (that is what a real endpoint would do); if
//! the flip survives decoding, the *corrupted* message is delivered —
//! which is precisely the case the node-level tour validation exists
//! for.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::codec::{decode, encode};
use crate::message::{Message, NodeId};
use crate::transport::Transport;
use crate::NetError;

/// Fault probabilities (each in `[0, 1]`) and the RNG seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability an inbound message is silently dropped.
    pub drop: f64,
    /// Probability an inbound message is delivered twice.
    pub duplicate: f64,
    /// Probability an inbound message is inserted at a random
    /// position of the pending queue instead of the back.
    pub reorder: f64,
    /// Probability an inbound message has 1–4 payload bytes flipped.
    pub corrupt: f64,
    /// Seed for the per-endpoint RNG (combined with the node id so
    /// every endpoint draws an independent stream).
    pub seed: u64,
}

impl FaultConfig {
    /// A fault-free configuration (useful as a baseline).
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            seed,
        }
    }

    /// Drop-only faults at rate `p`.
    pub fn drop_rate(p: f64, seed: u64) -> Self {
        FaultConfig {
            drop: p,
            ..FaultConfig::none(seed)
        }
    }

    /// Corruption-only faults at rate `p`.
    pub fn corrupt_rate(p: f64, seed: u64) -> Self {
        FaultConfig {
            corrupt: p,
            ..FaultConfig::none(seed)
        }
    }

    fn assert_valid(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("corrupt", self.corrupt),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability {name}={p} outside [0, 1]"
            );
        }
    }
}

/// Counters of injected faults (per endpoint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages silently dropped.
    pub dropped: u64,
    /// Extra deliveries injected by duplication.
    pub duplicated: u64,
    /// Messages inserted out of order.
    pub reordered: u64,
    /// Messages delivered with surviving byte corruption.
    pub corrupted_delivered: u64,
    /// Corrupted messages the codec rejected (discarded).
    pub corrupted_discarded: u64,
}

/// A [`Transport`] decorator that injects faults on inbound delivery.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    cfg: FaultConfig,
    rng: SmallRng,
    pending: VecDeque<Message>,
    stats: FaultStats,
    probes: FaultProbes,
}

/// Injected-fault counters mirrored into an obs registry (no-ops
/// unless created via [`FaultyTransport::with_obs`]). Kept in sync
/// with [`FaultStats`] at injection time, not copied after the fact.
struct FaultProbes {
    c_dropped: obs::Counter,
    c_duplicated: obs::Counter,
    c_reordered: obs::Counter,
    c_corrupted_delivered: obs::Counter,
    c_corrupted_discarded: obs::Counter,
}

impl FaultProbes {
    fn resolve(obs: &obs::Obs) -> Self {
        FaultProbes {
            c_dropped: obs.counter("fault.dropped"),
            c_duplicated: obs.counter("fault.duplicated"),
            c_reordered: obs.counter("fault.reordered"),
            c_corrupted_delivered: obs.counter("fault.corrupted_delivered"),
            c_corrupted_discarded: obs.counter("fault.corrupted_discarded"),
        }
    }
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner`, deriving the RNG from `cfg.seed` and the node id.
    pub fn new(inner: T, cfg: FaultConfig) -> Self {
        Self::with_obs(inner, cfg, obs::Obs::disabled())
    }

    /// [`FaultyTransport::new`] plus an observability handle: every
    /// injected fault also increments a `fault.*` counter in its
    /// registry.
    pub fn with_obs(inner: T, cfg: FaultConfig, obs: obs::Obs) -> Self {
        cfg.assert_valid();
        let seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(inner.node_id() as u64);
        FaultyTransport {
            inner,
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            pending: VecDeque::new(),
            stats: FaultStats::default(),
            probes: FaultProbes::resolve(&obs),
        }
    }

    /// Fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The active fault configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Mutable access to the wrapped transport (for tests and chaos
    /// drivers that need to reach through the decorator, e.g. to
    /// inject a peer-down notification on an in-memory endpoint).
    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Flip 1–4 random payload bytes and re-decode. `None` means the
    /// codec caught the damage and the message is lost.
    fn corrupt(&mut self, msg: &Message) -> Option<Message> {
        let frame = encode(msg);
        let mut payload = frame[4..].to_vec();
        let flips = self.rng.gen_range(1..=4usize.min(payload.len()));
        for _ in 0..flips {
            let at = self.rng.gen_range(0..payload.len());
            payload[at] ^= self.rng.gen_range(1..=u8::MAX);
        }
        decode(&payload).ok()
    }

    /// Pull everything from the inner transport, applying faults.
    fn ingest(&mut self) {
        while let Some(msg) = self.inner.try_recv() {
            if self.rng.gen_bool(self.cfg.drop) {
                self.stats.dropped += 1;
                self.probes.c_dropped.incr();
                continue;
            }
            let msg = if self.rng.gen_bool(self.cfg.corrupt) {
                match self.corrupt(&msg) {
                    Some(m) => {
                        self.stats.corrupted_delivered += 1;
                        self.probes.c_corrupted_delivered.incr();
                        m
                    }
                    None => {
                        self.stats.corrupted_discarded += 1;
                        self.probes.c_corrupted_discarded.incr();
                        continue;
                    }
                }
            } else {
                msg
            };
            let copies = if self.rng.gen_bool(self.cfg.duplicate) {
                self.stats.duplicated += 1;
                self.probes.c_duplicated.incr();
                2
            } else {
                1
            };
            for _ in 0..copies {
                if !self.pending.is_empty() && self.rng.gen_bool(self.cfg.reorder) {
                    self.stats.reordered += 1;
                    self.probes.c_reordered.incr();
                    let at = self.rng.gen_range(0..self.pending.len());
                    self.pending.insert(at, msg.clone());
                } else {
                    self.pending.push_back(msg.clone());
                }
            }
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
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
        self.pending.pop_front()
    }

    fn leave(&mut self) {
        self.inner.leave();
    }

    // Liveness observations must pass through: without this the
    // decorator inherited the trait's empty default and silently
    // swallowed the inner transport's peer-down notifications, so a
    // node behind fault injection could never see a peer die.
    fn take_peer_downs(&mut self) -> Vec<NodeId> {
        self.inner.take_peer_downs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryNetwork;
    use crate::topology::Topology;

    fn pair() -> (crate::memory::MemoryEndpoint, crate::memory::MemoryEndpoint) {
        let (mut eps, _) = InMemoryNetwork::build(2, Topology::Ring);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        (a, b)
    }

    fn flood(a: &mut impl Transport, n: i64) {
        for i in 0..n {
            a.send(1, Message::OptimumFound { from: 0, length: i })
                .unwrap();
        }
    }

    #[test]
    fn peer_downs_pass_through_the_decorator() {
        let (a, _b) = pair();
        let mut a = FaultyTransport::new(a, FaultConfig::drop_rate(1.0, 3));
        a.inner_mut().note_peer_down(1);
        assert_eq!(a.take_peer_downs(), vec![1]);
        assert!(a.take_peer_downs().is_empty(), "drained once");
    }

    #[test]
    fn fault_free_passes_everything_in_order() {
        let (mut a, b) = pair();
        let mut b = FaultyTransport::new(b, FaultConfig::none(7));
        flood(&mut a, 20);
        let got = b.drain();
        assert_eq!(got.len(), 20);
        let lens: Vec<i64> = got
            .iter()
            .map(|m| match m {
                Message::OptimumFound { length, .. } => *length,
                _ => panic!("unexpected {m:?}"),
            })
            .collect();
        assert_eq!(lens, (0..20).collect::<Vec<_>>());
        assert_eq!(b.stats(), FaultStats::default());
    }

    #[test]
    fn obs_counters_mirror_fault_stats() {
        let (mut a, b) = pair();
        let obs = obs::Obs::for_node(1);
        let cfg = FaultConfig {
            drop: 0.3,
            duplicate: 0.2,
            reorder: 0.2,
            corrupt: 0.0,
            seed: 99,
        };
        let mut b = FaultyTransport::with_obs(b, cfg, obs.clone());
        flood(&mut a, 300);
        let _ = b.drain();
        let stats = b.stats();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("fault.dropped"), stats.dropped);
        assert_eq!(snap.counter("fault.duplicated"), stats.duplicated);
        assert_eq!(snap.counter("fault.reordered"), stats.reordered);
        assert!(stats.dropped > 0 && stats.duplicated > 0, "{stats:?}");
    }

    #[test]
    fn drop_rate_loses_roughly_that_fraction() {
        let (mut a, b) = pair();
        let mut b = FaultyTransport::new(b, FaultConfig::drop_rate(0.5, 42));
        flood(&mut a, 400);
        let got = b.drain();
        let dropped = b.stats().dropped;
        assert_eq!(got.len() as u64 + dropped, 400);
        assert!(
            (120..=280).contains(&dropped),
            "dropped {dropped}/400 at p=0.5"
        );
    }

    #[test]
    fn full_drop_loses_everything() {
        let (mut a, b) = pair();
        let mut b = FaultyTransport::new(b, FaultConfig::drop_rate(1.0, 1));
        flood(&mut a, 10);
        assert!(b.drain().is_empty());
        assert_eq!(b.stats().dropped, 10);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let (mut a, b) = pair();
        let cfg = FaultConfig {
            duplicate: 1.0,
            ..FaultConfig::none(3)
        };
        let mut b = FaultyTransport::new(b, cfg);
        flood(&mut a, 5);
        assert_eq!(b.drain().len(), 10);
        assert_eq!(b.stats().duplicated, 5);
    }

    #[test]
    fn reordering_permutes_but_preserves_multiset() {
        let (mut a, b) = pair();
        let cfg = FaultConfig {
            reorder: 1.0,
            ..FaultConfig::none(9)
        };
        let mut b = FaultyTransport::new(b, cfg);
        flood(&mut a, 50);
        let mut lens: Vec<i64> = b
            .drain()
            .iter()
            .map(|m| match m {
                Message::OptimumFound { length, .. } => *length,
                _ => panic!(),
            })
            .collect();
        assert!(b.stats().reordered > 0);
        lens.sort_unstable();
        assert_eq!(lens, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn corruption_mangles_or_discards_but_never_panics() {
        let (mut a, b) = pair();
        let mut b = FaultyTransport::new(b, FaultConfig::corrupt_rate(1.0, 5));
        for _ in 0..50 {
            a.send(
                1,
                Message::TourFound {
                    from: 0,
                    id: 3,
                    length: 1000,
                    order: (0..40).collect(),
                },
            )
            .unwrap();
        }
        let got = b.drain();
        let s = b.stats();
        assert_eq!(got.len() as u64, s.corrupted_delivered);
        assert_eq!(s.corrupted_delivered + s.corrupted_discarded, 50);
        // Something must have been visibly mangled: either the codec
        // discarded it, or a delivered message differs from the original.
        let pristine = Message::TourFound {
            from: 0,
            id: 3,
            length: 1000,
            order: (0..40).collect(),
        };
        assert!(
            s.corrupted_discarded > 0 || got.iter().any(|m| *m != pristine),
            "corruption at p=1 left every message intact"
        );
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = || {
            let (mut a, b) = pair();
            let mut b = FaultyTransport::new(
                b,
                FaultConfig {
                    drop: 0.3,
                    duplicate: 0.2,
                    reorder: 0.4,
                    corrupt: 0.1,
                    seed: 77,
                },
            );
            flood(&mut a, 100);
            (b.drain(), b.stats())
        };
        let (m1, s1) = run();
        let (m2, s2) = run();
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn sends_pass_through_unfaulted() {
        let (a, mut b) = pair();
        let mut a = FaultyTransport::new(a, FaultConfig::drop_rate(1.0, 2));
        a.send(1, Message::Leave { from: 0 }).unwrap();
        assert_eq!(b.try_recv(), Some(Message::Leave { from: 0 }));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_probability_rejected() {
        let (_, b) = pair();
        let _ = FaultyTransport::new(b, FaultConfig::drop_rate(1.5, 0));
    }
}
