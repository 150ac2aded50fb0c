//! # obs
//!
//! The observability spine of the workspace: a vendor-free stand-in
//! for `tracing` + `prometheus`, written from scratch against `std`.
//!
//! Three layers, one handle:
//!
//! - [`metrics`] — a lock-free registry of atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s, with
//!   [`MetricsSnapshot`] merge for cross-node aggregation and a
//!   Prometheus text exposition writer.
//! - [`event`] — per-node ring-buffered structured [`Event`]s
//!   (`t_ns`, `node`, `kind`, fields) with a JSONL sink.
//! - [`Obs`] — the per-node handle the search and P2P layers carry:
//!   cheap to clone, resolves metric handles once, stamps events with
//!   nanoseconds since creation.
//!
//! ## Switching it off
//!
//! There is one build. The off switch is a run-time one:
//! [`Obs::disabled`] carries no storage, so every operation on it (and
//! on the handles resolved from it) is a no-op, which is what the
//! overhead tests compare a live handle against. On a live handle
//! counters and gauges are part of the algorithm's contract, not
//! optional telemetry: algorithm results (`NodeResult::broadcasts`, the
//! message statistics of §4) are derived from them, and each is a
//! single relaxed atomic add.
//!
//! ```
//! use obs::{Obs, Value};
//!
//! let obs = Obs::for_node(3);
//! let calls = obs.counter("clk.calls");
//! let ns = obs.histogram("clk.call.ns");
//! let t = obs.timer();
//! calls.incr();
//! ns.observe(t.elapsed_ns());
//! obs.event("broadcast", &[("tour_id", Value::U(7)), ("len", Value::U(1234))]);
//! assert_eq!(obs.snapshot().counter("clk.calls"), 1);
//! ```

pub mod event;
pub mod metrics;

/// Well-known event kinds and counter names of the node driver, the
/// sharded pipeline and the job service, shared between the emitting
/// code and the tests (a typo'd string would silently assert on an
/// event that never fires).
pub mod kinds {
    /// The stall detector fired: no improvement for a window of loop
    /// rounds. Fields: `window`, `best_len`. Counter:
    /// [`C_STALLS`].
    pub const CLK_STALL: &str = "clk.stall";
    /// Counter: stall-detector firings.
    pub const C_STALLS: &str = "clk.stalls";
    /// Counter: subregions solved by the sharded pipeline. Histograms:
    /// `shard.solve.ns`, `shard.stitch.ns`, `shard.refine.ns`.
    pub const C_SHARDS_SOLVED: &str = "shard.solved";
    /// Counter: distinct seam cities enqueued for windowed refinement.
    pub const C_SHARD_SEAM_CITIES: &str = "shard.seam_cities";
    /// Counter: total tour length recovered by seam refinement.
    pub const C_SHARD_REFINE_GAIN: &str = "shard.refine_gain";
    /// Counter: shard results rejected by the collector's validation
    /// (bad membership, wrong length, out-of-range shard id).
    pub const C_SHARD_REJECTS: &str = "shard.rejects";
    /// A job was admitted by the service scheduler. Fields: `job`,
    /// `client`, `worker`. Counter: [`C_SVC_ACCEPTED`].
    pub const SVC_ACCEPT: &str = "svc.accept";
    /// A job submission was rejected at admission (fairness ledger
    /// exhausted or malformed payload). Fields: `client`, `why`.
    /// Counter: [`C_SVC_REJECTED`].
    pub const SVC_REJECT: &str = "svc.reject";
    /// An accepted job reached a terminal state. Fields: `job`,
    /// `reason`, `len`. Counter: [`C_SVC_COMPLETED`].
    pub const SVC_DONE: &str = "svc.done";
    /// Counter: jobs submitted to the service (accepted or not).
    pub const C_SVC_SUBMITTED: &str = "svc.jobs_submitted";
    /// Counter: jobs admitted by the scheduler.
    pub const C_SVC_ACCEPTED: &str = "svc.jobs_accepted";
    /// Counter: submissions rejected at admission.
    pub const C_SVC_REJECTED: &str = "svc.jobs_rejected";
    /// Counter: jobs that reached a terminal `JobDone`.
    pub const C_SVC_COMPLETED: &str = "svc.jobs_completed";
    /// Counter: jobs whose terminal reason was a deadline expiry.
    pub const C_SVC_EXPIRED: &str = "svc.jobs_expired";
    /// Counter: jobs cancelled by their client.
    pub const C_SVC_CANCELLED: &str = "svc.jobs_cancelled";
    /// Counter: strictly-improving tour updates streamed to clients.
    pub const C_SVC_IMPROVEMENTS: &str = "svc.improvements";
    /// Counter: LK anchors taken from the active queue. Like the three
    /// below, an exact work count of the CLK engine, flushed once per
    /// full optimization and once per chained iteration; equal on every
    /// tour representation and label space for one seed.
    pub const C_LK_ANCHORS: &str = "clk.lk.anchors";
    /// Counter: LK candidate probes that passed the gain and adjacency
    /// tests and looked up their path successor.
    pub const C_LK_PROBES: &str = "clk.lk.probes";
    /// Counter: steps of committed LK chains (one 2-opt move each).
    pub const C_LK_STEPS: &str = "clk.lk.steps";
    /// Counter: Or-opt destinations probed for a segment.
    pub const C_OROPT_PROBES: &str = "clk.oropt.probes";
    /// Counter: flips of retired kick steps (kick plus LK and Or-opt
    /// moves; the undo of a rejected step is not a flip of its own).
    pub const C_FLIPS: &str = "clk.flips";
    /// Counter: flips committed by the full passes of an optimization
    /// (the LK passes and the Or-opt pass of `ChainedLk::optimize`);
    /// equal on every lane count, representation and label space.
    pub const C_PASS_FLIPS: &str = "clk.pass.flips";
    /// Counter: results a lane probed ahead in a full pass that the
    /// committing lane refused because a tour query the probe made now
    /// answers differently, and probed again itself. 0 on one lane.
    pub const C_PASS_REDONE: &str = "clk.pass.redone";
    /// Counter: array tour slots written during kick steps — by flips,
    /// by rolling a rejected step back and by copying an accepted
    /// step's window into the other lanes' tours.
    pub const C_FLIP_MOVED: &str = "clk.flip.moved";
    /// Counter: kick steps computed speculatively and thrown away (an
    /// earlier step changed the tour they ran on, or the budget ran out
    /// before they were due).
    pub const C_KICK_DISCARDED: &str = "clk.kick.discarded";
    /// Counter: k-d tree searches of the initial-tour construction
    /// (Quick-Borůvka only; the other constructions count nothing).
    pub const C_CONSTRUCT_TREE_SEARCHES: &str = "clk.construct.tree_searches";
    /// Counter: nearest-city queries of the initial-tour construction
    /// that a candidate row answered without a search (Quick-Borůvka on
    /// rows that are the k nearest cities). With the tree searches, an
    /// exact count: equal on every tour representation and label space.
    pub const C_CONSTRUCT_ROW_ANSWERS: &str = "clk.construct.row_answers";
}

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

pub use event::{write_jsonl, Event, EventRing, Value};
pub use metrics::{
    bucket_of, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    Registry, HIST_BUCKETS,
};

/// Default event-ring capacity per node.
pub const DEFAULT_EVENT_CAPACITY: usize = 16 * 1024;

#[derive(Debug)]
struct ObsInner {
    node: u32,
    registry: Registry,
    events: EventRing,
    start: Instant,
    /// Next span sequence number; span ids are `(node << 32) | seq`,
    /// unique across the cluster like broadcast ids.
    span_seq: std::sync::atomic::AtomicU64,
}

/// Per-node observability handle: a registry plus an event ring plus a
/// start instant. Cloning shares the underlying storage. A *disabled*
/// handle ([`Obs::disabled`]) carries no storage at all — every
/// operation on it (and on handles resolved from it) is a no-op, which
/// is what the overhead test compares against.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// A handle that records nothing (all resolved metric handles are
    /// no-ops too).
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A live handle for `node` with the default event capacity.
    pub fn for_node(node: u32) -> Self {
        Self::with_capacity(node, DEFAULT_EVENT_CAPACITY)
    }

    /// A live handle for `node` with an explicit event-ring capacity.
    pub fn with_capacity(node: u32, event_capacity: usize) -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner {
                node,
                registry: Registry::new(),
                events: EventRing::with_capacity(event_capacity),
                start: Instant::now(),
                span_seq: std::sync::atomic::AtomicU64::new(0),
            })),
        }
    }

    /// The node id (0 for a disabled handle).
    pub fn node(&self) -> u32 {
        self.inner.as_ref().map_or(0, |i| i.node)
    }

    /// Resolve (get-or-create) a counter handle. Do this once at
    /// attach time, not in a loop.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .as_ref()
            .map_or_else(Counter::noop, |i| i.registry.counter(name))
    }

    /// Resolve a gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .as_ref()
            .map_or_else(Gauge::noop, |i| i.registry.gauge(name))
    }

    /// Resolve a histogram handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .as_ref()
            .map_or_else(Histogram::noop, |i| i.registry.histogram(name))
    }

    /// Nanoseconds since this handle was created (0 when disabled).
    pub fn t_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.start.elapsed().as_nanos() as u64)
    }

    /// Start a duration measurement. Reads the clock only when live.
    pub fn timer(&self) -> Timer {
        if self.inner.is_some() {
            Timer(Some(Instant::now()))
        } else {
            Timer(None)
        }
    }

    /// Record a structured event, stamped with [`Obs::t_ns`].
    pub fn event(&self, kind: &'static str, fields: &[(&'static str, Value)]) {
        if let Some(i) = &self.inner {
            i.events.record(Event {
                t_ns: i.start.elapsed().as_nanos() as u64,
                node: i.node,
                // The ring stamps the real per-node sequence number.
                seq: 0,
                kind: Cow::Borrowed(kind),
                fields: fields
                    .iter()
                    .map(|(k, v)| (Cow::Borrowed(*k), v.clone()))
                    .collect(),
            });
        }
    }

    /// Snapshot the metrics registry (empty when disabled). The event
    /// ring's eviction count is exported as the `obs.events_dropped`
    /// counter, so overflow is visible in the Prometheus text and in
    /// merged snapshots, not only via the Rust API.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(i) = self.inner.as_ref() else {
            return MetricsSnapshot::default();
        };
        let mut snap = i.registry.snapshot();
        snap.counters
            .insert("obs.events_dropped".to_string(), i.events.dropped());
        snap
    }

    /// Copy out the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.events.events())
    }

    /// Render the registry in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.snapshot().prometheus_text()
    }

    /// Open a span named `kind`. The span records one event on
    /// [`Span::end`] (or drop) carrying its id, duration, and optional
    /// broadcast-id correlation. No-op (id 0) when this handle is
    /// disabled.
    pub fn span(&self, kind: &'static str) -> Span {
        let Some(i) = self.inner.as_ref() else {
            return Span {
                obs: Obs::disabled(),
                kind,
                id: 0,
                bcast: None,
                t0_ns: 0,
                done: true,
            };
        };
        let seq = i
            .span_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Span {
            obs: self.clone(),
            kind,
            id: ((i.node as u64) << 32) | (seq & 0xFFFF_FFFF),
            bcast: None,
            t0_ns: self.t_ns(),
            done: false,
        }
    }
}

/// An open span from [`Obs::span`]: a named duration with an id and an
/// optional broadcast-id correlation so the same logical tour
/// migration can be followed across nodes. The span is recorded as a
/// regular [`Event`] (kind = span name, fields `span`, `dur_ns`, and
/// `bcast` when correlated) when
/// [`Span::end`] is called or the guard drops.
#[derive(Debug)]
pub struct Span {
    obs: Obs,
    kind: &'static str,
    id: u64,
    bcast: Option<u64>,
    t0_ns: u64,
    done: bool,
}

impl Span {
    /// This span's cluster-unique id (0 when observability is off).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Correlate this span with a broadcast id (`p2p::broadcast_id`):
    /// spans sharing a `bcast` field across nodes' merged timelines are
    /// how a tour's hub-to-leaf migration is followed.
    pub fn correlate_broadcast(&mut self, bcast: u64) {
        self.bcast = Some(bcast);
    }

    /// Close the span, recording its event. Equivalent to dropping it,
    /// but explicit at call sites where the scope is not the lifetime.
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let dur_ns = self.obs.t_ns().saturating_sub(self.t0_ns);
        let mut fields = vec![("span", Value::U(self.id)), ("dur_ns", Value::U(dur_ns))];
        if let Some(b) = self.bcast {
            fields.push(("bcast", Value::U(b)));
        }
        self.obs.event(self.kind, &fields);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A pending duration measurement from [`Obs::timer`].
#[derive(Debug, Clone, Copy)]
pub struct Timer(Option<Instant>);

impl Timer {
    /// Nanoseconds since the timer started (0 for a disabled timer).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.0.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }

    /// Observe the elapsed nanoseconds into `hist` (no-op when the
    /// timer is disabled, so the clock is never read twice for
    /// nothing).
    #[inline]
    pub fn observe_into(&self, hist: &Histogram) {
        if self.0.is_some() {
            hist.observe(self.elapsed_ns());
        }
    }
}

/// Merge many per-node event logs into one timeline sorted by
/// `(t_ns, node, seq)`. The full triple is a total order: two events
/// with the same timestamp — a coarse clock, or two nodes observing
/// the same instant — still land in one deterministic sequence (node
/// id first, then the per-ring emission order). Timestamps from
/// different nodes are each node's own monotonic clock.
pub fn merge_timelines(per_node: &[Vec<Event>]) -> Vec<Event> {
    let mut all: Vec<Event> = per_node.iter().flatten().cloned().collect();
    all.sort_by_key(|e| (e.t_ns, e.node, e.seq));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        let c = obs.counter("x");
        c.incr();
        assert_eq!(c.get(), 0);
        obs.event("e", &[]);
        assert!(obs.events().is_empty());
        assert_eq!(obs.t_ns(), 0);
        assert_eq!(obs.timer().elapsed_ns(), 0);
        assert!(obs.snapshot().counters.is_empty());
    }

    #[test]
    fn live_handle_counts() {
        let obs = Obs::for_node(5);
        assert_eq!(obs.node(), 5);
        obs.counter("a").add(3);
        assert_eq!(obs.snapshot().counter("a"), 3);
        let text = obs.prometheus_text();
        assert!(text.contains("a 3"));
    }

    #[test]
    fn events_record_and_merge() {
        let a = Obs::with_capacity(0, 8);
        let b = Obs::with_capacity(1, 8);
        a.event("x", &[("v", Value::U(1))]);
        b.event("y", &[]);
        a.event("z", &[]);
        let merged = merge_timelines(&[a.events(), b.events()]);
        assert_eq!(merged.len(), 3);
        for w in merged.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns || w[0].node <= w[1].node);
        }
        assert_eq!(a.snapshot().counter("obs.events_dropped"), 0);
    }

    /// Regression for the tie-breaking satellite: equal-`t_ns` events
    /// from different nodes (and several from the *same* node) must
    /// order deterministically by `(t_ns, node, seq)` regardless of
    /// input order.
    #[test]
    fn merge_timelines_breaks_ties_by_node_then_seq() {
        use std::borrow::Cow;
        let mk = |t_ns, node, seq, kind: &'static str| Event {
            t_ns,
            node,
            seq,
            kind: Cow::Borrowed(kind),
            fields: vec![],
        };
        // Same timestamp everywhere; shuffled input order.
        let a = vec![mk(100, 1, 1, "a1"), mk(100, 1, 0, "a0")];
        let b = vec![mk(100, 0, 5, "b5"), mk(100, 2, 0, "c0")];
        let merged = merge_timelines(&[a.clone(), b.clone()]);
        let kinds: Vec<&str> = merged.iter().map(|e| e.kind.as_ref()).collect();
        assert_eq!(kinds, ["b5", "a0", "a1", "c0"]);
        // Deterministic under any per-node input permutation.
        let merged2 = merge_timelines(&[b, a]);
        assert_eq!(merged, merged2);
    }

    #[test]
    fn spans_record_ids_and_broadcast_correlation() {
        let obs = Obs::for_node(3);
        let mut first = obs.span("node.round");
        first.correlate_broadcast(0xBEEF);
        let first_id = first.id();
        assert_eq!(first_id >> 32, 3, "span id embeds the node");
        let second = obs.span("node.round");
        let second_id = second.id();
        assert_ne!(second_id, first_id);
        second.end();
        first.end();
        let events = obs.events();
        assert_eq!(events.len(), 2, "one event per closed span");
        // The second span closed first.
        assert_eq!(events[0].field_u64("span"), Some(second_id));
        assert_eq!(events[0].field_u64("bcast"), None);
        assert_eq!(events[1].kind, "node.round");
        assert_eq!(events[1].field_u64("span"), Some(first_id));
        assert_eq!(events[1].field_u64("bcast"), Some(0xBEEF));
        assert!(events[1].field_u64("dur_ns").is_some());
    }

    #[test]
    fn disabled_spans_are_inert() {
        let obs = Obs::disabled();
        let s = obs.span("x");
        assert_eq!(s.id(), 0);
        s.end();
        assert!(obs.events().is_empty());
    }

    #[test]
    fn events_dropped_exported_as_counter() {
        let obs = Obs::with_capacity(0, 2);
        for _ in 0..5 {
            obs.event("tick", &[]);
        }
        assert_eq!(obs.events().len(), 2);
        assert_eq!(obs.snapshot().counter("obs.events_dropped"), 3);
        assert!(obs.prometheus_text().contains("obs_events_dropped 3"));
    }

    #[test]
    fn timer_feeds_histogram() {
        let obs = Obs::for_node(0);
        let h = obs.histogram("ns");
        let t = obs.timer();
        std::hint::black_box(42);
        t.observe_into(&h);
        assert_eq!(h.snapshot().count, 1);
    }
}
