//! The per-node driver: the paper's Figure 1 loop over any transport.

use std::time::{Duration, Instant};

use lk::{Budget, ChainedLkConfig, ClkEngine, Stopwatch, Trace};
use obs::{Counter, Histogram, MetricsSnapshot, Obs, Span, Value};
use p2p::{broadcast_id, Message, NodeId, Topology, Transport};
use tsp_core::{Instance, NeighborLists, Tour};

use crate::perturb::{PerturbAction, Perturbator};

/// Configuration of a distributed run (shared by every node).
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of nodes (the paper uses 8).
    pub nodes: usize,
    /// Network topology (the paper uses the hypercube).
    pub topology: Topology,
    /// The underlying CLK engine configuration (kick strategy,
    /// candidate-list kind, etc.). Each node derives its
    /// own RNG seed from `seed` and its id; everything else — notably
    /// `clk.candidates` / `clk.neighbor_k`, which the candidate lists
    /// are built from (see [`crate::build_neighbors`]) — must be
    /// identical across the cluster for nodes to agree.
    pub clk: ChainedLkConfig,
    /// Perturbation strength divisor `c_v` (paper default 64).
    pub c_v: u32,
    /// Restart threshold `c_r` (paper default 256).
    pub c_r: u32,
    /// Enable the variable-strength double-bridge perturbation (§2.3);
    /// `false` reproduces the "without DBMs" ablation.
    pub use_dbm: bool,
    /// Internal kicks per CLK call (the engine's own chained
    /// iterations; `linkern`'s default scales with n — ours is explicit
    /// so effort budgets are exact).
    pub clk_kicks_per_call: u64,
    /// Per-node budget. `max_kicks` counts CLK *calls* here; the target
    /// length doubles as the "known optimum" termination criterion.
    pub budget: Budget,
    /// Master seed; node `i` uses `seed * 1000003 + i`.
    pub seed: u64,
}

/// Consecutive non-improving rounds before a node flags itself stalled:
/// it fires one `clk.stall` event, bumps the `clk.stalls` counter, and
/// stays flagged until the next improvement clears it.
const STALL_WINDOW: u32 = 128;

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            nodes: 8,
            topology: Topology::Hypercube,
            clk: ChainedLkConfig::default(),
            c_v: 64,
            c_r: 256,
            use_dbm: true,
            clk_kicks_per_call: 20,
            budget: Budget::kicks(50),
            seed: 0,
        }
    }
}

/// Notable events logged by a node (drives the §4.2.1 variator case
/// study and the message-statistics experiment).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEvent {
    /// A new best tour, found locally (`local == true`) or received.
    Improved { secs: f64, length: i64, local: bool },
    /// The perturbation strength the next kick will use changed.
    StrengthChanged { secs: f64, strength: u32 },
    /// `c_r` exceeded: tour discarded, fresh construction.
    Restart { secs: f64 },
    /// The local engine hit the target (known-optimum) length.
    FoundOptimum { secs: f64, length: i64 },
    /// A peer announced the optimum; node terminated.
    PeerFoundOptimum { secs: f64, from: NodeId },
}

/// Final state of one node after a run.
#[derive(Debug, Clone)]
pub struct NodeResult {
    /// Node id (hypercube position).
    pub id: NodeId,
    /// Best tour seen by this node (local or received).
    pub best_tour: Tour,
    /// Its length.
    pub best_length: i64,
    /// CLK calls performed.
    pub clk_calls: u64,
    /// Tours broadcast by this node.
    pub broadcasts: u64,
    /// Tour messages received.
    pub received: u64,
    /// Received tours rejected by validation (wrong city count, not a
    /// permutation, or a claimed length that misstates the recomputed
    /// one on a corrupted order).
    pub rejected: u64,
    /// Wall time since the node was constructed: in lockstep runs it
    /// spans the whole run, rounds the node spent waiting included.
    pub seconds: f64,
    /// Time spent in this node's own work: its construction and every
    /// `search` and `settle` half of its steps (the paper's per-node
    /// CPU time, whichever driver scheduled the node).
    pub busy_seconds: f64,
    /// Best-so-far trace (time axis = this node's clock).
    pub trace: Trace,
    /// Event log.
    pub events: Vec<NodeEvent>,
    /// Snapshot of the node's metrics registry at finish time. The
    /// counter fields above are read from this registry, so the two
    /// can never drift.
    pub metrics: MetricsSnapshot,
    /// Structured observability events (empty when the node ran on
    /// [`obs::Obs::disabled`]).
    pub obs_events: Vec<obs::Event>,
    /// The node did not finish cleanly: it was killed by the churn
    /// driver or its thread panicked. Aborted records are excluded from
    /// the aggregate best-tour selection.
    pub aborted: bool,
}

impl NodeResult {
    /// Placeholder record for a node whose thread panicked (or was
    /// killed) before producing a result: no usable tour, zero effort.
    /// `n_cities` sizes the dummy identity tour.
    pub fn aborted_placeholder(id: NodeId, n_cities: usize) -> Self {
        NodeResult {
            id,
            best_tour: Tour::identity(n_cities),
            best_length: i64::MAX,
            clk_calls: 0,
            broadcasts: 0,
            received: 0,
            rejected: 0,
            seconds: 0.0,
            busy_seconds: 0.0,
            trace: Trace::new(),
            events: Vec::new(),
            metrics: MetricsSnapshot::default(),
            obs_events: Vec::new(),
            aborted: true,
        }
    }
}

/// One node of the distributed algorithm.
pub struct NodeDriver<'a, T: Transport> {
    id: NodeId,
    engine: ClkEngine<'a>,
    transport: T,
    perturb: Perturbator,
    budget: Budget,
    clk_kicks_per_call: u64,
    watch: Stopwatch,
    /// Time spent in construction, `search` and `settle` so far.
    busy: Duration,

    best_tour: Tour,
    best_len: i64,
    /// The Fig. 1 preamble `s_best := CLK(INITIALTOUR)` is still owed:
    /// the first [`NodeDriver::step`] runs it on `best_tour`, which
    /// holds the construction tour until then.
    preamble_owed: bool,

    // Counters live in the obs registry (the single source of truth
    // NodeResult reads from); these are the resolved handles.
    obs: Obs,
    c_clk_calls: Counter,
    c_broadcasts: Counter,
    c_received: Counter,
    c_rejected: Counter,
    h_kick_strength: Histogram,
    broadcast_seq: u32,
    last_strength: u32,
    terminated: bool,
    stalled: bool,

    trace: Trace,
    events: Vec<NodeEvent>,
}

impl<'a, T: Transport> NodeDriver<'a, T> {
    /// Create a node. It returns as soon as the initial tour is
    /// constructed, with [`NodeDriver::best_tour`] and the trace holding
    /// that tour; the paper's Fig. 1 preamble `s_best := CLK(INITIALTOUR)`
    /// is the node's first [`NodeDriver::step`] (CLK call 1: no
    /// perturbation, no broadcast, the inbox stays unread). The node
    /// gets its own live [`Obs`] registry — `NodeResult` counters are
    /// read from it.
    pub fn new(
        inst: &'a Instance,
        neighbors: &'a NeighborLists,
        cfg: &DistConfig,
        transport: T,
    ) -> Self {
        let started = Instant::now();
        let id = transport.node_id();
        let obs = Obs::for_node(id as u32);
        let mut clk_cfg = cfg.clk.clone();
        clk_cfg.seed = cfg.seed.wrapping_mul(1_000_003).wrapping_add(id as u64);
        // The engine picks the representation by instance size: the
        // array in the node's labels below `tl_threshold`, the array on
        // Hilbert-ordered cities at or above it (same decisions, fewer
        // cache misses), with no per-call-site opt-in.
        let mut engine = ClkEngine::auto(inst, neighbors, clk_cfg);
        engine.attach_obs(obs.clone());
        let watch = Stopwatch::start();

        let c_clk_calls = obs.counter("node.clk_calls");
        let c_broadcasts = obs.counter("node.broadcasts");
        let c_received = obs.counter("node.received");
        let c_rejected = obs.counter("node.rejected");
        let h_kick_strength = obs.histogram("node.kick_strength");

        let tour = engine.construct_tour();
        let len = tour.length(inst);

        let mut trace = Trace::new();
        trace.record(watch.secs(), 0, len);
        let events = vec![NodeEvent::Improved {
            secs: watch.secs(),
            length: len,
            local: true,
        }];

        NodeDriver {
            id,
            engine,
            transport,
            perturb: Perturbator::new(cfg.c_v, cfg.c_r, cfg.use_dbm),
            budget: cfg.budget.clone(),
            clk_kicks_per_call: cfg.clk_kicks_per_call,
            watch,
            busy: started.elapsed(),
            preamble_owed: true,
            best_tour: tour,
            best_len: len,
            obs,
            c_clk_calls,
            c_broadcasts,
            c_received,
            c_rejected,
            h_kick_strength,
            broadcast_seq: 0,
            last_strength: 1,
            terminated: false,
            stalled: false,
            trace,
            events,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Best length so far.
    pub fn best_length(&self) -> i64 {
        self.best_len
    }

    /// Best tour so far.
    pub fn best_tour(&self) -> &Tour {
        &self.best_tour
    }

    /// Whether the node has decided to stop.
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// Whether the budget (or the target) stops further iterations.
    pub fn budget_exhausted(&self) -> bool {
        self.budget
            .exhausted(self.watch.elapsed(), self.c_clk_calls.get(), self.best_len)
    }

    /// This node's observability handle (shared with its CLK engine).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable access to the underlying transport — the churn driver
    /// uses it to inject peer-down notices between lockstep rounds.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Whether the stall detector currently flags this node (no
    /// improvement for [`STALL_WINDOW`] consecutive rounds; cleared by
    /// the next improvement, local or received).
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// One CLK call: full LK optimization plus the engine's internal
    /// chained kicks, all in the engine's chosen representation.
    fn clk_call(&mut self, tour: &mut Tour) -> i64 {
        let budget = &self.budget;
        let watch = &self.watch;
        let len = self
            .engine
            .clk_call(tour, self.clk_kicks_per_call, &mut |len| {
                budget.target_met(len) || budget.time_limit.is_some_and(|t| watch.elapsed() >= t)
            });
        self.c_clk_calls.incr();
        len
    }

    /// The Fig. 1 preamble `s_best := CLK(INITIALTOUR)` on the
    /// construction tour: one full LK optimization, counted as a CLK
    /// call, nothing perturbed, nothing sent or read.
    fn preamble(&mut self) {
        self.preamble_owed = false;
        let mut tour = self.best_tour.clone();
        let len = self.engine.optimize_tour(&mut tour);
        self.c_clk_calls.incr();
        self.obs
            .event("node.initial", &[("len", Value::U(len.max(0) as u64))]);
        if len < self.best_len {
            self.install_best(tour, len, true);
        }
    }

    /// Run one unit of work: the preamble on a fresh node's first call,
    /// one iteration of the Fig. 1 loop afterwards. Returns `false`
    /// when the node has terminated (budget, target, or peer
    /// notification).
    pub fn step(&mut self) -> bool {
        let searched = self.search();
        self.settle(searched)
    }

    /// The node-local half of a step, everything before the inbox is
    /// read: the termination, target and budget checks, then the
    /// preamble or the perturbation and the CLK call. It reads and
    /// writes only this node's own state, so the lockstep driver runs
    /// the searches of all nodes in parallel. Whether the step runs a
    /// CLK call or exits early is decided here, once.
    pub(crate) fn search(&mut self) -> Searched {
        let started = Instant::now();
        let searched = if self.terminated {
            Searched::Stopped
        } else if self.preamble_owed {
            self.preamble();
            Searched::Preamble
        } else if self.budget.target_met(self.best_len) {
            // Known-optimum reached already (possibly by the preamble):
            // announce before stopping.
            Searched::TargetMet
        } else if self.budget_exhausted() {
            Searched::Exhausted
        } else {
            self.kick_and_clk()
        };
        self.busy += started.elapsed();
        searched
    }

    /// The other half of a step, everything from reading the inbox on:
    /// select, broadcast, termination — or the
    /// early exit [`NodeDriver::search`] chose. Returns what
    /// [`NodeDriver::step`] returns.
    pub(crate) fn settle(&mut self, searched: Searched) -> bool {
        let started = Instant::now();
        let live = match searched {
            Searched::Stopped => false,
            Searched::Preamble => true,
            Searched::TargetMet => {
                self.announce_optimum();
                false
            }
            Searched::Exhausted => {
                self.finishing_touches();
                false
            }
            Searched::Candidate { tour, len, span } => self.select(tour, len, span),
        };
        self.busy += started.elapsed();
        live
    }

    /// `s := CHAINEDLINKERNIGHAN(PERTURBATE(s_best))`.
    fn kick_and_clk(&mut self) -> Searched {
        // One span per Fig. 1 round. When the round produces (or
        // adopts) a broadcast tour it is correlated with that tour's
        // broadcast id, so the exported trace shows a tour's migration
        // as one group of spans across nodes (inert when obs is off).
        let span = self.obs.span("node.round");

        let mut s = self.best_tour.clone();
        let no_imp_before = self.perturb.no_improvements();
        match self.perturb.perturbate(&mut s, self.engine.rng_mut()) {
            PerturbAction::Restart => {
                self.events.push(NodeEvent::Restart {
                    secs: self.watch.secs(),
                });
                self.obs.event(
                    "node.restart",
                    &[("no_improvements", Value::U(no_imp_before as u64))],
                );
                s = self.engine.construct_tour();
            }
            PerturbAction::Kicked(strength) => {
                self.h_kick_strength.observe(strength as u64);
            }
        }
        let s_len = self.clk_call(&mut s);
        self.obs.event(
            "node.iter",
            &[
                (
                    "no_improvements",
                    Value::U(self.perturb.no_improvements() as u64),
                ),
                ("strength", Value::U(self.perturb.strength() as u64)),
                ("s_len", Value::I(s_len)),
                ("best_len", Value::I(self.best_len)),
            ],
        );
        Searched::Candidate {
            tour: s,
            len: s_len,
            span,
        }
    }

    /// Fold the inbox into the round's candidate `s` and act on the
    /// winner (Fig. 1 from `SELECTBESTTOUR` on).
    fn select(&mut self, s: Tour, s_len: i64, mut round_span: Span) -> bool {
        // Merge in everything received meanwhile.
        let best_received = self.drain_inbox();

        // SELECTBESTTOUR(S_received ∪ {s} ∪ {s_prev}); s_prev is the
        // best tour this round started from, still in `best_tour`.
        // Strictly-better wins; ties keep the earlier candidate
        // (s_prev ≼ s ≼ received) so non-improvement is detected.
        let mut best_so_far = self.best_len;
        let mut source = Source::Prev;
        if s_len < best_so_far {
            best_so_far = s_len;
            source = Source::Local;
        }
        if let Some((len, _, _, _)) = &best_received {
            if *len < best_so_far {
                source = Source::Received;
            }
        }

        match source {
            Source::Prev => {
                // LENGTH(s_best) = LENGTH(s_prev): no improvement.
                self.perturb.record_no_improvement();
                // Stall detector: fires once per episode (the flag is
                // cleared only by an improvement), touching nothing but
                // the obs plane — a stalled search trajectory is
                // bit-identical to pre-detector builds.
                if !self.stalled && self.perturb.no_improvements() >= STALL_WINDOW {
                    self.stalled = true;
                    self.obs.counter(obs::kinds::C_STALLS).incr();
                    self.obs.event(
                        obs::kinds::CLK_STALL,
                        &[
                            ("window", Value::U(STALL_WINDOW as u64)),
                            ("best_len", Value::I(self.best_len)),
                        ],
                    );
                }
                let strength = self.perturb.strength();
                if strength != self.last_strength {
                    self.last_strength = strength;
                    self.events.push(NodeEvent::StrengthChanged {
                        secs: self.watch.secs(),
                        strength,
                    });
                    self.obs
                        .event("node.strength", &[("strength", Value::U(strength as u64))]);
                }
            }
            Source::Local => {
                self.perturb.record_improvement();
                self.stalled = false;
                self.reset_strength_event();
                self.install_best(s, s_len, true);
                // Only locally-produced bests are broadcast (Fig. 1);
                // count only broadcasts that actually reached a peer.
                let tour_id = broadcast_id(self.id, self.broadcast_seq);
                self.broadcast_seq += 1;
                round_span.correlate_broadcast(tour_id);
                let sent = self.transport.broadcast(Message::TourFound {
                    from: self.id,
                    id: tour_id,
                    length: s_len,
                    order: self.best_tour.order().to_vec(),
                });
                if sent > 0 {
                    self.c_broadcasts.incr();
                    self.obs.event(
                        "node.broadcast",
                        &[
                            ("tour_id", Value::U(tour_id)),
                            ("len", Value::I(s_len)),
                            ("peers", Value::U(sent as u64)),
                        ],
                    );
                }
            }
            Source::Received => {
                let (len, tour, from, tour_id) =
                    best_received.expect("source=Received implies Some");
                round_span.correlate_broadcast(tour_id);
                self.perturb.record_improvement();
                self.stalled = false;
                self.reset_strength_event();
                self.install_best(tour, len, false);
                self.obs.event(
                    "node.adopt",
                    &[
                        ("tour_id", Value::U(tour_id)),
                        ("from", Value::U(from as u64)),
                        ("len", Value::I(len)),
                    ],
                );
            }
        }

        // Known-optimum termination (criterion 1): announce and stop.
        if self.budget.target_met(self.best_len) {
            self.announce_optimum();
            return false;
        }

        if self.terminated || self.budget_exhausted() {
            self.finishing_touches();
            return false;
        }
        round_span.end();
        true
    }

    /// Drain the inbox, handling control traffic in place, and return
    /// the best *validated* received tour (carried by `TourFound`), if
    /// any. Received tours are untrusted input: the order must be a
    /// permutation of the instance's cities and the sender-claimed
    /// length must match the locally recomputed one — anything else is
    /// dropped so a corrupted frame can never poison `best_len` or panic
    /// the node (and a bogus length is never rebroadcast). Also surfaces
    /// transport-detected peer deaths as `node.peer_down` events.
    fn drain_inbox(&mut self) -> Option<(i64, Tour, NodeId, u64)> {
        for dead in self.transport.take_peer_downs() {
            self.obs
                .event("node.peer_down", &[("peer", Value::U(dead as u64))]);
        }
        let mut best_received: Option<(i64, Tour, NodeId, u64)> = None;
        for msg in self.transport.drain() {
            match msg {
                Message::TourFound {
                    from,
                    id,
                    length,
                    order,
                } => {
                    self.c_received.incr();
                    self.obs.event(
                        "node.recv",
                        &[
                            ("tour_id", Value::U(id)),
                            ("from", Value::U(from as u64)),
                            ("len", Value::I(length)),
                        ],
                    );
                    match self.validate_received(length, order) {
                        Some((true_len, tour)) => {
                            if best_received
                                .as_ref()
                                .is_none_or(|(l, _, _, _)| true_len < *l)
                            {
                                best_received = Some((true_len, tour, from, id));
                            }
                        }
                        None => {
                            self.c_rejected.incr();
                            self.obs.event(
                                "node.reject",
                                &[
                                    ("tour_id", Value::U(id)),
                                    ("from", Value::U(from as u64)),
                                    ("claimed_len", Value::I(length)),
                                ],
                            );
                        }
                    }
                }
                Message::OptimumFound { from, .. } => {
                    self.events.push(NodeEvent::PeerFoundOptimum {
                        secs: self.watch.secs(),
                        from,
                    });
                    self.obs
                        .event("node.peer_optimum", &[("from", Value::U(from as u64))]);
                    self.terminated = true;
                }
                Message::Leave { .. } => {}
                // Over TCP, pings are answered inside the endpoint's
                // reader thread and never reach this loop; in-memory
                // transports surface them here, so answer for parity.
                Message::Ping { from } => {
                    let _ = self.transport.send(from, Message::Pong { from: self.id });
                }
                Message::Pong { .. } => {}
                // Shard results belong to the sharded driver's
                // collector loop (`crate::shard`); a replicated-search
                // node receiving one ignores it.
                Message::ShardResult { .. } => {}
                // Job frames belong to the service layer
                // (`crate::service`); a replicated-search node
                // receiving one ignores it, like shard results.
                Message::JobSubmit { .. }
                | Message::JobAccept { .. }
                | Message::JobImproved { .. }
                | Message::JobDone { .. }
                | Message::JobCancel { .. } => {}
            }
        }
        best_received
    }

    /// Validate one received tour against the local instance: right
    /// city count, a real permutation, and a truthful length claim.
    /// Returns the recomputed length and the tour, or `None` when the
    /// message is malformed (the caller counts it as rejected).
    fn validate_received(&self, claimed: i64, order: Vec<u32>) -> Option<(i64, Tour)> {
        let inst = self.engine.instance();
        if order.len() != inst.len() {
            return None;
        }
        let tour = Tour::try_from_order(order).ok()?;
        let true_len = tour.length(inst);
        if true_len != claimed {
            // A mismatched claim means the frame (length or order) was
            // corrupted in flight; don't trust any of it.
            return None;
        }
        Some((true_len, tour))
    }

    /// Broadcast the optimum-found notification and terminate.
    fn announce_optimum(&mut self) {
        self.events.push(NodeEvent::FoundOptimum {
            secs: self.watch.secs(),
            length: self.best_len,
        });
        self.obs
            .event("node.optimum", &[("len", Value::I(self.best_len))]);
        self.transport.broadcast(Message::OptimumFound {
            from: self.id,
            length: self.best_len,
        });
        self.terminated = true;
    }

    /// Install a strictly better tour as the node's best, with the
    /// trace point and `Improved` event every adoption path records.
    fn install_best(&mut self, tour: Tour, len: i64, local: bool) {
        self.best_tour = tour;
        self.best_len = len;
        self.trace
            .record(self.watch.secs(), self.c_clk_calls.get(), len);
        self.events.push(NodeEvent::Improved {
            secs: self.watch.secs(),
            length: len,
            local,
        });
    }

    fn reset_strength_event(&mut self) {
        if self.last_strength != 1 {
            self.last_strength = 1;
            self.events.push(NodeEvent::StrengthChanged {
                secs: self.watch.secs(),
                strength: 1,
            });
        }
    }

    fn finishing_touches(&mut self) {
        if !self.terminated {
            self.terminated = true;
            self.transport.leave();
        }
    }

    /// Consume the driver, producing the node's result record. The
    /// counter fields are read back from the obs registry — the
    /// registry is the single source of truth, so `NodeResult` and
    /// the exported metrics can never disagree.
    pub fn finish(mut self) -> NodeResult {
        self.finishing_touches();
        self.into_result(false)
    }

    /// Consume the driver as a *crash*: unlike [`NodeDriver::finish`]
    /// no `Leave` is sent — peers learn of the death only through
    /// failure detection, exactly like a killed process. The partial
    /// result is returned with [`NodeResult::aborted`] set.
    pub fn abort(mut self) -> NodeResult {
        self.terminated = true;
        self.into_result(true)
    }

    fn into_result(self, aborted: bool) -> NodeResult {
        NodeResult {
            id: self.id,
            best_length: self.best_len,
            best_tour: self.best_tour,
            clk_calls: self.c_clk_calls.get(),
            broadcasts: self.c_broadcasts.get(),
            received: self.c_received.get(),
            rejected: self.c_rejected.get(),
            seconds: self.watch.secs(),
            busy_seconds: self.busy.as_secs_f64(),
            trace: self.trace,
            events: self.events,
            metrics: self.obs.snapshot(),
            obs_events: self.obs.events(),
            aborted,
        }
    }

    /// Run the loop to completion (used by the threaded driver).
    pub fn run_to_completion(mut self) -> NodeResult {
        while self.step() {}
        self.finish()
    }
}

/// What [`NodeDriver::search`] hands to [`NodeDriver::settle`].
pub(crate) enum Searched {
    /// The node had already terminated.
    Stopped,
    /// The Fig. 1 preamble ran; nothing is left to settle.
    Preamble,
    /// The target length is met: announce the optimum and stop.
    TargetMet,
    /// The budget is spent: stop.
    Exhausted,
    /// The round's candidate tour `s`, its length and the open
    /// `node.round` span.
    Candidate { tour: Tour, len: i64, span: Span },
}

enum Source {
    Prev,
    Local,
    Received,
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p::memory::{InMemoryNetwork, MemoryEndpoint};
    use tsp_core::generate;

    /// A node fresh from `new` with its preamble step behind it.
    fn started_node<'a>(
        inst: &'a Instance,
        nl: &'a NeighborLists,
        cfg: &DistConfig,
        ep: MemoryEndpoint,
    ) -> NodeDriver<'a, MemoryEndpoint> {
        let mut node = NodeDriver::new(inst, nl, cfg, ep);
        node.step();
        node
    }

    #[test]
    fn single_node_improves_like_clk() {
        let inst = generate::uniform(120, 10_000.0, 201);
        let nl = NeighborLists::build(&inst, 8);
        let (mut eps, _) = InMemoryNetwork::build(1, Topology::Hypercube);
        let cfg = DistConfig {
            nodes: 1,
            budget: Budget::kicks(5),
            clk_kicks_per_call: 5,
            ..Default::default()
        };
        let node = NodeDriver::new(&inst, &nl, &cfg, eps.remove(0));
        let res = node.run_to_completion();
        assert!(res.best_tour.is_valid());
        assert_eq!(res.best_tour.length(&inst), res.best_length);
        assert!(res.clk_calls >= 5);
        assert_eq!(res.broadcasts, 0, "no neighbors to broadcast to");
    }

    /// A one-node network's only node over `inst`, fresh from `new`.
    fn lone_node<'a>(
        inst: &'a Instance,
        nl: &'a NeighborLists,
        cfg: &DistConfig,
    ) -> NodeDriver<'a, MemoryEndpoint> {
        let (mut eps, _) = InMemoryNetwork::build(1, cfg.topology);
        NodeDriver::new(inst, nl, cfg, eps.remove(0))
    }

    #[test]
    fn new_holds_the_construction_tour_and_the_first_step_is_the_preamble() {
        use lk::CandidateKind;
        // `(instance and run seed, candidates, best_length() right after
        // new)` at the commit where `new` still ran the preamble itself.
        const PARENT_NEW: [(u64, CandidateKind, i64); 6] = [
            (1, CandidateKind::Knn, 483_948),
            (2, CandidateKind::Knn, 421_027),
            (3, CandidateKind::Knn, 437_670),
            (1, CandidateKind::Hybrid, 444_839),
            (2, CandidateKind::Hybrid, 424_433),
            (3, CandidateKind::Hybrid, 442_432),
        ];
        for (seed, candidates, parent_new) in PARENT_NEW {
            let inst = generate::drill_plate(300, seed);
            let cfg = DistConfig {
                nodes: 1,
                seed,
                clk: ChainedLkConfig {
                    candidates,
                    ..Default::default()
                },
                budget: Budget::kicks(3),
                ..Default::default()
            };
            let nl = crate::build_neighbors(&inst, &cfg);
            let mut node = lone_node(&inst, &nl, &cfg);
            let node_clk = ChainedLkConfig {
                seed: seed.wrapping_mul(1_000_003),
                ..cfg.clk.clone()
            };
            let constructed = ClkEngine::auto(&inst, &nl, node_clk).construct_tour();
            assert_eq!(node.best_tour(), &constructed, "seed {seed} {candidates:?}");
            assert_eq!(node.best_length(), constructed.length(&inst));
            assert_eq!(node.c_clk_calls.get(), 0);
            assert!(matches!(node.trace.points(), &[(_, 0, l)] if l == node.best_length()));

            assert!(node.step());
            assert_eq!(node.best_length(), parent_new, "seed {seed} {candidates:?}");
            assert_eq!(node.c_clk_calls.get(), 1);
            assert_eq!(node.c_broadcasts.get(), 0);
            assert_eq!(node.perturb.no_improvements(), 0);
            assert_eq!(node.trace.points().len(), 2);
        }
    }

    #[test]
    fn received_better_tour_is_adopted_not_rebroadcast() {
        // A grid large enough that node 1's single initial LK pass does
        // not land on the known optimum; node 0 then sends the optimal
        // boustrophedon tour with its honest length.
        let inst = generate::grid_known_optimum(14, 14, 100.0);
        let nl = NeighborLists::build(&inst, 8);
        let (mut eps, _) = InMemoryNetwork::build(2, Topology::Ring);
        let ep1 = eps.remove(1);
        let mut ep0 = eps.remove(0);

        let mut cfg = DistConfig {
            nodes: 2,
            topology: Topology::Ring,
            budget: Budget::kicks(3),
            clk_kicks_per_call: 0,
            ..Default::default()
        };
        // Weaken local search: the test exercises adoption of a better
        // *received* tour, so node 1 must not solve the grid by itself.
        cfg.clk.lk = lk::LkConfig {
            max_depth: 2,
            breadth: vec![1],
        };
        let mut node1 = started_node(&inst, &nl, &cfg, ep1);
        let opt_tour = generate::grid_optimal_tour(14, 14);
        let opt_len = opt_tour.length(&inst);
        assert_eq!(Some(opt_len), inst.known_optimum());
        assert!(
            node1.best_length() > opt_len,
            "node 1 found the optimum locally; pick a larger grid"
        );
        use p2p::Transport as _;
        ep0.send(
            1,
            Message::TourFound {
                from: 0,
                id: broadcast_id(0, 0),
                length: opt_len,
                order: opt_tour.order().to_vec(),
            },
        )
        .unwrap();
        node1.step();
        assert_eq!(node1.best_length(), opt_len);
        // It was received, not locally found: node 1 must not rebroadcast.
        let res = node1.finish();
        assert!(res
            .events
            .iter()
            .any(|e| matches!(e, NodeEvent::Improved { local: false, .. })));
        assert_eq!(res.broadcasts, 0);
        assert_eq!(res.rejected, 0);
        assert!(ep0
            .try_recv()
            .is_none_or(|m| !matches!(m, Message::TourFound { .. })));
    }

    #[test]
    fn malformed_received_tours_rejected_without_changing_best() {
        let inst = generate::uniform(60, 10_000.0, 202);
        let nl = NeighborLists::build(&inst, 8);
        let (mut eps, _) = InMemoryNetwork::build(2, Topology::Ring);
        let ep1 = eps.remove(1);
        let mut ep0 = eps.remove(0);

        let cfg = DistConfig {
            nodes: 2,
            topology: Topology::Ring,
            budget: Budget::kicks(10),
            clk_kicks_per_call: 0,
            ..Default::default()
        };
        let mut node1 = started_node(&inst, &nl, &cfg, ep1);
        let before = node1.best_length();
        use p2p::Transport as _;
        // Wrong city count (would have panicked Tour::from_order).
        ep0.send(
            1,
            Message::TourFound {
                from: 0,
                id: broadcast_id(0, 0),
                length: 1,
                order: (0..40).collect(),
            },
        )
        .unwrap();
        // Not a permutation.
        ep0.send(
            1,
            Message::TourFound {
                from: 0,
                id: broadcast_id(0, 1),
                length: 1,
                order: vec![0; 60],
            },
        )
        .unwrap();
        // Valid permutation but a lying length claim (corrupted length
        // field): must not be adopted at face value.
        ep0.send(
            1,
            Message::TourFound {
                from: 0,
                id: broadcast_id(0, 2),
                length: 1,
                order: Tour::identity(60).order().to_vec(),
            },
        )
        .unwrap();
        node1.step();
        assert!(
            node1.best_length() <= before,
            "best_len got worse after malformed input"
        );
        assert_ne!(node1.best_length(), 1, "adopted a lying length claim");
        let res = node1.finish();
        assert_eq!(
            res.rejected, 3,
            "all three malformed tours must be rejected"
        );
        assert!(
            !res.events
                .iter()
                .any(|e| matches!(e, NodeEvent::Improved { local: false, .. })),
            "a malformed tour was recorded as a received improvement"
        );
    }

    #[test]
    fn optimum_notification_terminates_peer() {
        let inst = generate::uniform(60, 10_000.0, 203);
        let nl = NeighborLists::build(&inst, 8);
        let (mut eps, _) = InMemoryNetwork::build(2, Topology::Ring);
        let ep1 = eps.remove(1);
        let mut ep0 = eps.remove(0);
        use p2p::Transport as _;

        let cfg = DistConfig {
            nodes: 2,
            topology: Topology::Ring,
            budget: Budget::kicks(1000),
            clk_kicks_per_call: 0,
            ..Default::default()
        };
        let mut node1 = started_node(&inst, &nl, &cfg, ep1);
        ep0.send(
            1,
            Message::OptimumFound {
                from: 0,
                length: 42,
            },
        )
        .unwrap();
        // The step that drains the message must be the last.
        let cont = node1.step();
        assert!(!cont);
        let res = node1.finish();
        assert!(res
            .events
            .iter()
            .any(|e| matches!(e, NodeEvent::PeerFoundOptimum { from: 0, .. })));
    }

    #[test]
    fn finding_target_broadcasts_optimum() {
        let inst = generate::grid_known_optimum(6, 6, 100.0);
        let nl = NeighborLists::build(&inst, 8);
        let (mut eps, _) = InMemoryNetwork::build(2, Topology::Ring);
        let ep1 = eps.remove(1);
        let ep0 = eps.remove(0);
        let mut ep1_keeper = ep1;

        let cfg = DistConfig {
            nodes: 2,
            topology: Topology::Ring,
            budget: Budget::kicks(4000).with_target(inst.known_optimum().unwrap()),
            clk_kicks_per_call: 50,
            seed: 5,
            ..Default::default()
        };
        let node0 = NodeDriver::new(&inst, &nl, &cfg, ep0);
        let res = node0.run_to_completion();
        assert_eq!(res.best_length, inst.known_optimum().unwrap());
        // Node 1's inbox must contain the OptimumFound announcement.
        use p2p::Transport as _;
        let msgs = ep1_keeper.drain();
        assert!(
            msgs.iter()
                .any(|m| matches!(m, Message::OptimumFound { .. })),
            "no optimum announcement in {msgs:?}"
        );
    }

    #[test]
    fn stall_detector_fires_once_per_episode() {
        // A tour that is already optimal can never improve: the stall
        // detector must trip exactly once (the flag stays set, so the
        // counter must not climb with every further non-improvement).
        let inst = generate::grid_known_optimum(4, 4, 100.0);
        let nl = NeighborLists::build(&inst, 8);
        let (mut eps, _) = InMemoryNetwork::build(1, Topology::Hypercube);
        let calls = 2 * STALL_WINDOW as u64;
        let cfg = DistConfig {
            nodes: 1,
            c_v: 2,
            c_r: 1000, // keep restarts out of the episode
            budget: Budget::kicks(calls),
            clk_kicks_per_call: 0,
            ..Default::default()
        };
        let mut node = NodeDriver::new(&inst, &nl, &cfg, eps.remove(0));
        assert!(!node.stalled());
        while node.step() {}
        assert_eq!(node.c_clk_calls.get(), calls);
        assert!(
            node.perturb.no_improvements() > STALL_WINDOW,
            "the episode must run past the window"
        );
        assert!(
            node.stalled(),
            "an unimprovable tour must trip the detector"
        );
        let res = node.finish();
        assert_eq!(res.metrics.counter(obs::kinds::C_STALLS), 1);
        assert!(
            res.obs_events
                .iter()
                .any(|e| e.kind == obs::kinds::CLK_STALL),
            "no clk.stall event in the log"
        );
    }

    #[test]
    fn every_node_starts_from_the_common_construction_tour() {
        // Quick-Borůvka draws nothing from the RNG, so on a geometric
        // instance the 8 nodes start from one tour although each runs
        // its own seed, and a `c_r` restart, however far the node's RNG
        // has moved, rebuilds that same tour.
        let inst = generate::uniform(200, 10_000.0, 205);
        let nl = NeighborLists::build(&inst, 8);
        let cfg = DistConfig {
            budget: Budget::kicks(3),
            clk_kicks_per_call: 5,
            seed: 11,
            ..Default::default()
        };
        let (eps, _) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
        let mut nodes: Vec<_> = eps
            .into_iter()
            .map(|ep| NodeDriver::new(&inst, &nl, &cfg, ep))
            .collect();
        let common = nodes[0].best_tour().clone();
        for node in &nodes {
            assert_eq!(node.best_tour(), &common, "node {}", node.id());
        }
        for node in &mut nodes {
            while node.step() {}
            assert_eq!(node.engine.construct_tour(), common, "node {}", node.id());
        }

        // The exception: an explicit matrix has no coordinates, so each
        // node builds a nearest-neighbor chain from a start city its own
        // RNG draws, and the nodes start apart.
        let n = 50;
        let geo = generate::uniform(n, 10_000.0, 206);
        let m = (0..n * n).map(|ij| geo.dist(ij / n, ij % n)).collect();
        let inst = Instance::explicit("m", m, n);
        let nl = NeighborLists::build(&inst, 8);
        let (eps, _) = InMemoryNetwork::build(cfg.nodes, cfg.topology);
        let starts: std::collections::HashSet<_> = eps
            .into_iter()
            .map(|ep| {
                NodeDriver::new(&inst, &nl, &cfg, ep)
                    .best_tour()
                    .order()
                    .to_vec()
            })
            .collect();
        assert!(starts.len() > 1, "every node drew the same start city");
    }

    #[test]
    fn no_improvement_grows_strength() {
        // A tour that is already optimal cannot improve: strength must
        // climb and eventually trigger a restart.
        let inst = generate::grid_known_optimum(4, 4, 100.0);
        let nl = NeighborLists::build(&inst, 8);
        let (mut eps, _) = InMemoryNetwork::build(1, Topology::Hypercube);
        let cfg = DistConfig {
            nodes: 1,
            c_v: 2,
            c_r: 6,
            budget: Budget::kicks(30),
            clk_kicks_per_call: 0,
            ..Default::default()
        };
        let node = NodeDriver::new(&inst, &nl, &cfg, eps.remove(0));
        let res = node.run_to_completion();
        assert!(
            res.events
                .iter()
                .any(|e| matches!(e, NodeEvent::StrengthChanged { strength, .. } if *strength > 1)),
            "strength never grew: {:?}",
            res.events
        );
        assert!(
            res.events
                .iter()
                .any(|e| matches!(e, NodeEvent::Restart { .. })),
            "no restart in {:?}",
            res.events
        );
    }
}
