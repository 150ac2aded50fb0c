//! Live cluster telemetry: the hub-side merged registry and the
//! node-side shipper.
//!
//! Nodes periodically build a [`Message::Telemetry`] frame — metric
//! *deltas* since the previous shipment, recent events, and anytime
//! convergence state — and send it to the hub (node 0). The hub folds
//! every frame into a [`TelemetryStore`]: counters accumulate, gauges
//! are replaced per node, events are re-stamped onto the hub's
//! timeline using a clock offset estimated from the frame's send
//! timestamp and the sender's last measured RTT
//! (`offset = t_send + rtt/2 - t_hub_recv`, node clock minus hub
//! clock — the same half-RTT model the TCP prober uses for
//! Ping/Pong). The store renders two live
//! views: Prometheus text (`METRICS`) and per-node convergence lines
//! (`STATUS`). See DESIGN.md §8 "Live telemetry plane".

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use obs::{Event, MetricsSnapshot, Obs};

use crate::message::{Message, NodeId};

/// Aligned-event backlog cap: beyond this the oldest events are
/// discarded (counted in `telemetry.events_dropped`), so a chatty
/// cluster cannot grow the hub without bound.
const MAX_EVENTS: usize = 65_536;

/// Live per-node convergence state, updated by each Telemetry frame.
#[derive(Debug, Clone)]
pub struct NodeTelemetry {
    /// Anytime best tour length reported by the node.
    pub best_len: i64,
    /// Cumulative CLK calls reported by the node.
    pub clk_calls: u64,
    /// Whether the node's stall detector is currently tripped.
    pub stalled: bool,
    /// RTT the node last measured to the hub (ns; 0 when unknown).
    pub rtt_ns: u64,
    /// Estimated clock offset: the node's obs clock minus the hub
    /// store clock, in ns. Adding `-offset_ns` to a node timestamp
    /// lands it on the hub timeline.
    pub offset_ns: i64,
    /// CLK calls per second, from the two most recent frames (0 until
    /// the second frame arrives).
    pub iter_rate: f64,
    /// Hub store clock at the last ingest (ns).
    pub last_ingest_ns: u64,
    /// Frames ingested from this node.
    pub frames: u64,
}

#[derive(Default)]
struct StoreState {
    nodes: BTreeMap<NodeId, NodeTelemetry>,
    /// Cluster-cumulative counters (sum of all ingested deltas).
    counters: BTreeMap<String, u64>,
    /// Latest absolute gauge readings, per node.
    gauges: BTreeMap<NodeId, BTreeMap<String, i64>>,
    /// Shipped events, re-stamped onto the hub timeline, in arrival
    /// order (sort with `obs::merge_timelines` keys for replay).
    events: Vec<Event>,
    events_dropped: u64,
    /// Known optimum for gap reporting (`None` → no GAP column).
    reference: Option<i64>,
}

/// The hub's cluster-merged live telemetry registry. Shared (via
/// `Arc`) between the lifecycle hub's scrape commands and whatever
/// ingests frames — the hub's own TCP handler, or the node driver it
/// is attached to (node 0, or every node in an in-process run).
pub struct TelemetryStore {
    start: Instant,
    state: Mutex<StoreState>,
}

impl Default for TelemetryStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryStore {
    /// An empty store; its clock starts now.
    pub fn new() -> Self {
        TelemetryStore {
            start: Instant::now(),
            state: Mutex::new(StoreState::default()),
        }
    }

    /// A shared handle, ready to hand to a hub and several ingesters.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The hub store clock: ns since the store was created. All
    /// shipped timestamps are aligned onto this timeline.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Set the known optimum used for the `STATUS` gap column.
    pub fn set_reference(&self, optimum: Option<i64>) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reference = optimum;
    }

    /// Fold one [`Message::Telemetry`] frame into the store; returns
    /// the hub store clock at ingest. Non-telemetry messages are
    /// ignored (`None`).
    pub fn ingest(&self, msg: &Message) -> Option<u64> {
        let Message::Telemetry {
            from,
            t_ns,
            rtt_ns,
            best_len,
            clk_calls,
            stalled,
            counters,
            gauges,
            events_jsonl,
        } = msg
        else {
            return None;
        };
        let hub_t = self.now_ns();
        // Half-RTT clock model: the frame left the sender rtt/2 ago.
        let offset_ns = (*t_ns as i128 + *rtt_ns as i128 / 2 - hub_t as i128)
            .clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = st.nodes.get(from);
        let iter_rate = match prev {
            Some(p) if hub_t > p.last_ingest_ns && *clk_calls >= p.clk_calls => {
                (*clk_calls - p.clk_calls) as f64 * 1e9 / (hub_t - p.last_ingest_ns) as f64
            }
            _ => 0.0,
        };
        let frames = prev.map_or(0, |p| p.frames) + 1;
        st.nodes.insert(
            *from,
            NodeTelemetry {
                best_len: *best_len,
                clk_calls: *clk_calls,
                stalled: *stalled,
                rtt_ns: *rtt_ns,
                offset_ns,
                iter_rate,
                last_ingest_ns: hub_t,
                frames,
            },
        );
        for (name, v) in counters {
            *st.counters.entry(name.clone()).or_insert(0) += v;
        }
        st.gauges.insert(*from, gauges.iter().cloned().collect());
        if let Ok(text) = std::str::from_utf8(events_jsonl) {
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                match Event::from_jsonl(line) {
                    Ok(mut e) => {
                        // Re-stamp onto the hub timeline.
                        e.t_ns =
                            (e.t_ns as i128 - offset_ns as i128).clamp(0, u64::MAX as i128) as u64;
                        st.events.push(e);
                    }
                    Err(_) => st.events_dropped += 1,
                }
            }
        }
        if st.events.len() > MAX_EVENTS {
            let excess = st.events.len() - MAX_EVENTS;
            st.events.drain(..excess);
            st.events_dropped += excess as u64;
        }
        Some(hub_t)
    }

    /// Ids of all nodes that have shipped at least one frame.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .nodes
            .keys()
            .copied()
            .collect()
    }

    /// Live state of one node, if it has reported.
    pub fn node(&self, id: NodeId) -> Option<NodeTelemetry> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .nodes
            .get(&id)
            .cloned()
    }

    /// Estimated per-node clock offsets keyed for
    /// [`obs::align_timeline`]: adding the returned offset to a
    /// node-local timestamp lands it on the hub timeline.
    pub fn offsets(&self) -> BTreeMap<u32, i64> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .nodes
            .iter()
            .map(|(&id, n)| (id as u32, -n.offset_ns))
            .collect()
    }

    /// All shipped events, already re-stamped onto the hub timeline,
    /// sorted causally (`(t_ns, node, seq)` — same order as
    /// `obs::merge_timelines`).
    pub fn events(&self) -> Vec<Event> {
        let mut events = self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .events
            .clone();
        events.sort_by_key(|e| (e.t_ns, e.node, e.seq));
        events
    }

    /// The cluster-merged metrics view: counters accumulate across all
    /// frames, gauges sum the latest per-node readings, and the
    /// store's own ingest health rides along (`telemetry.frames`,
    /// `telemetry.nodes_reporting`, `telemetry.events_dropped`).
    pub fn merged_snapshot(&self) -> MetricsSnapshot {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut snap = MetricsSnapshot {
            counters: st.counters.clone(),
            ..Default::default()
        };
        for per_node in st.gauges.values() {
            for (name, v) in per_node {
                *snap.gauges.entry(name.clone()).or_insert(0) += v;
            }
        }
        snap.counters.insert(
            "telemetry.frames".into(),
            st.nodes.values().map(|n| n.frames).sum(),
        );
        snap.counters
            .insert("telemetry.events_dropped".into(), st.events_dropped);
        snap.gauges
            .insert("telemetry.nodes_reporting".into(), st.nodes.len() as i64);
        snap.gauges.insert(
            "telemetry.nodes_stalled".into(),
            st.nodes.values().filter(|n| n.stalled).count() as i64,
        );
        snap
    }

    /// The `METRICS` scrape body: the merged view in Prometheus text
    /// exposition format.
    pub fn prometheus_text(&self) -> String {
        self.merged_snapshot().prometheus_text()
    }

    /// The `STATUS` scrape body: one line per reporting node,
    /// `NODE <id> BEST <len> GAP <pct|-> RATE <calls/s> STALLED <0|1>
    /// RTT <ns> OFFSET <ns> CALLS <n>`.
    pub fn status_text(&self) -> String {
        use std::fmt::Write as _;
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (id, n) in &st.nodes {
            let gap = match st.reference {
                Some(opt) if opt > 0 => {
                    format!("{:.4}", (n.best_len - opt) as f64 * 100.0 / opt as f64)
                }
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "NODE {id} BEST {} GAP {gap} RATE {:.2} STALLED {} RTT {} OFFSET {} CALLS {}",
                n.best_len,
                n.iter_rate,
                u8::from(n.stalled),
                n.rtt_ns,
                n.offset_ns,
                n.clk_calls,
            );
        }
        out
    }
}

/// Node-side shipment builder: tracks the previously shipped metrics
/// snapshot and event sequence number, so each frame carries only the
/// change since the last one.
pub struct TelemetryShipper {
    obs: Obs,
    base: MetricsSnapshot,
    /// Events with `seq >= next_seq` have not been shipped yet.
    next_seq: u64,
    /// RTT to feed into the next frame (measured by the caller from
    /// its previous shipment round trip, or taken from the transport's
    /// Ping/Pong probe).
    pub rtt_ns: u64,
}

impl TelemetryShipper {
    /// A shipper for this node's observability handle. The first frame
    /// carries everything recorded so far.
    pub fn new(obs: Obs) -> Self {
        TelemetryShipper {
            obs,
            base: MetricsSnapshot::default(),
            next_seq: 0,
            rtt_ns: 0,
        }
    }

    /// Build the next Telemetry frame: counter deltas (zero deltas are
    /// elided), absolute gauges, and the events recorded since the
    /// previous call.
    pub fn frame(&mut self, from: NodeId, best_len: i64, clk_calls: u64, stalled: bool) -> Message {
        let snap = self.obs.snapshot();
        let delta = snap.delta(&self.base);
        self.base = snap;
        let counters: Vec<(String, u64)> =
            delta.counters.into_iter().filter(|&(_, v)| v > 0).collect();
        let gauges: Vec<(String, i64)> = delta.gauges.into_iter().collect();
        let mut events_jsonl = Vec::new();
        for e in self.obs.events() {
            if e.seq >= self.next_seq {
                self.next_seq = e.seq + 1;
                events_jsonl.extend_from_slice(e.to_jsonl().as_bytes());
                events_jsonl.push(b'\n');
            }
        }
        Message::Telemetry {
            from,
            t_ns: self.obs.t_ns(),
            rtt_ns: self.rtt_ns,
            best_len,
            clk_calls,
            stalled,
            counters,
            gauges,
            events_jsonl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Value;

    fn frame(from: NodeId, t_ns: u64, clk_calls: u64, best: i64) -> Message {
        frame_with_events(from, t_ns, clk_calls, best, vec![])
    }

    fn frame_with_events(
        from: NodeId,
        t_ns: u64,
        clk_calls: u64,
        best: i64,
        events_jsonl: Vec<u8>,
    ) -> Message {
        Message::Telemetry {
            from,
            t_ns,
            rtt_ns: 0,
            best_len: best,
            clk_calls,
            stalled: false,
            counters: vec![("clk.calls".into(), clk_calls)],
            gauges: vec![("node.best".into(), best)],
            events_jsonl,
        }
    }

    #[test]
    fn ingest_merges_counters_and_replaces_gauges() {
        let store = TelemetryStore::new();
        assert!(store.ingest(&frame(0, 0, 10, 100)).is_some());
        assert!(store.ingest(&frame(1, 0, 5, 90)).is_some());
        // Node 0 ships a second delta; its gauge is replaced, not added.
        assert!(store.ingest(&frame(0, 1, 7, 80)).is_some());
        let snap = store.merged_snapshot();
        assert_eq!(snap.counter("clk.calls"), 22);
        assert_eq!(snap.gauges["node.best"], 80 + 90);
        assert_eq!(snap.counter("telemetry.frames"), 3);
        assert_eq!(snap.gauges["telemetry.nodes_reporting"], 2);
        assert_eq!(store.nodes(), vec![0, 1]);
        assert_eq!(store.node(0).unwrap().clk_calls, 7);
        assert_eq!(store.node(0).unwrap().frames, 2);
        // Non-telemetry messages are ignored.
        assert!(store.ingest(&Message::Leave { from: 0 }).is_none());
    }

    #[test]
    fn shipped_events_are_restamped_onto_hub_timeline() {
        let store = TelemetryStore::new();
        let hub_before = store.now_ns();
        // A node whose clock runs 1 s ahead of the hub ships an event
        // stamped on its own timeline.
        let node_t = hub_before + 1_000_000_000;
        let ev = Event {
            t_ns: node_t,
            node: 3,
            seq: 0,
            kind: "clk.stall".into(),
            fields: vec![("window".into(), Value::U(128))],
        };
        let msg = Message::Telemetry {
            from: 3,
            t_ns: node_t,
            rtt_ns: 0,
            best_len: 0,
            clk_calls: 0,
            stalled: true,
            counters: vec![],
            gauges: vec![],
            events_jsonl: format!("{}\n", ev.to_jsonl()).into_bytes(),
        };
        let hub_at = store.ingest(&msg).unwrap();
        let events = store.events();
        assert_eq!(events.len(), 1);
        // The ~1 s skew is compensated: the re-stamped time is the hub
        // clock at ingest, not a second in the future.
        assert!(
            events[0].t_ns <= hub_at + 1_000_000,
            "event not aligned: {} vs hub {}",
            events[0].t_ns,
            hub_at
        );
        // offsets() inverts the estimate for align_timeline.
        let n = store.node(3).unwrap();
        assert_eq!(store.offsets()[&3], -n.offset_ns);
        // Garbage JSONL is counted, not propagated.
        let bad = frame_with_events(3, node_t, 1, 0, b"not json\n".to_vec());
        store.ingest(&bad);
        assert_eq!(
            store.merged_snapshot().counter("telemetry.events_dropped"),
            1
        );
    }

    #[test]
    fn iter_rate_derives_from_successive_frames() {
        let store = TelemetryStore::new();
        store.ingest(&frame(0, 0, 100, 50));
        // Wait long enough that the store clock visibly advances.
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.ingest(&frame(0, 1, 300, 40));
        let n = store.node(0).unwrap();
        assert!(n.iter_rate > 0.0, "rate {}", n.iter_rate);
        // 200 calls in >= 20 ms → at most 10k calls/s.
        assert!(n.iter_rate <= 10_000.0, "rate {}", n.iter_rate);
    }

    #[test]
    fn status_reports_gap_against_reference() {
        let store = TelemetryStore::new();
        store.ingest(&frame(0, 0, 1, 110));
        store.ingest(&frame(1, 0, 1, 100));
        let no_ref = store.status_text();
        assert!(no_ref.contains("NODE 0 BEST 110 GAP -"), "{no_ref}");
        store.set_reference(Some(100));
        let text = store.status_text();
        assert!(text.contains("NODE 0 BEST 110 GAP 10.0000"), "{text}");
        assert!(text.contains("NODE 1 BEST 100 GAP 0.0000"), "{text}");
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn event_backlog_is_bounded() {
        let store = TelemetryStore::new();
        let ev = Event {
            t_ns: 1,
            node: 0,
            seq: 0,
            kind: "x".into(),
            fields: vec![],
        };
        let line = format!("{}\n", ev.to_jsonl());
        let chunk = line.repeat(1000);
        for _ in 0..(MAX_EVENTS / 1000 + 2) {
            let msg = frame_with_events(0, 0, 0, 0, chunk.clone().into_bytes());
            store.ingest(&msg);
        }
        let st = store.state.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(st.events.len() <= MAX_EVENTS);
        assert!(st.events_dropped > 0);
    }

    #[test]
    fn shipper_sends_deltas_and_only_new_events() {
        let obs = Obs::for_node(7);
        let c = obs.counter("clk.calls");
        c.add(5);
        obs.event("node.iter", &[("round", Value::U(0))]);
        let mut shipper = TelemetryShipper::new(obs.clone());
        let f1 = shipper.frame(7, 123, 5, false);
        let Message::Telemetry {
            counters,
            events_jsonl,
            best_len,
            ..
        } = &f1
        else {
            panic!("not a telemetry frame")
        };
        assert_eq!(*best_len, 123);
        assert!(counters.contains(&("clk.calls".to_string(), 5)));
        // Second frame: only the increment and the new event.
        c.add(2);
        obs.event("node.iter", &[("round", Value::U(1))]);
        let first_events = events_jsonl.clone();
        let f2 = shipper.frame(7, 120, 7, true);
        let Message::Telemetry {
            counters,
            events_jsonl,
            stalled,
            ..
        } = &f2
        else {
            panic!("not a telemetry frame")
        };
        assert!(*stalled);
        assert!(
            counters.contains(&("clk.calls".to_string(), 2)),
            "{counters:?}"
        );
        assert_eq!(String::from_utf8(first_events).unwrap().lines().count(), 1);
        let second = String::from_utf8(events_jsonl.clone()).unwrap();
        assert_eq!(second.lines().count(), 1, "{second}");
        assert!(second.contains("\"round\":1"), "{second}");
        // Round trip through the store: totals match the node counter.
        let store = TelemetryStore::new();
        store.ingest(&f1);
        store.ingest(&f2);
        assert_eq!(store.merged_snapshot().counter("clk.calls"), 7);
        assert_eq!(store.events().len(), 2);
    }
}
