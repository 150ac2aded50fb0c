//! # obs
//!
//! The observability spine of the workspace: a vendor-free stand-in
//! for `tracing` + `prometheus` (this build environment is offline, so
//! like the PR-1 transport stand-ins everything here is written from
//! scratch against `std`).
//!
//! Three layers, one handle:
//!
//! - [`metrics`] — a lock-free registry of atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s, with
//!   [`MetricsSnapshot`] merge for cross-node aggregation and a
//!   Prometheus text exposition writer.
//! - [`event`] — per-node ring-buffered structured [`Event`]s
//!   (`t_ns`, `node`, `kind`, fields) with a JSONL sink and parser.
//! - [`Obs`] — the per-node handle the search and P2P layers carry:
//!   cheap to clone, resolves metric handles once, stamps events with
//!   nanoseconds since creation.
//!
//! ## Feature gating
//!
//! The `enabled` feature (default-on, forwarded from each consumer
//! crate's `obs` feature) gates everything with measurable cost: the
//! event ring, histograms, and timers all compile to no-ops when it is
//! off. Counters and gauges stay live in both modes because algorithm
//! results (`NodeResult::broadcasts`, the message statistics of §4)
//! are derived from them — they are part of the algorithm's contract,
//! and each is a single relaxed atomic add.
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

pub mod chrome;
pub mod event;
pub mod metrics;

/// Well-known event kinds and counter names of the node driver, the
/// sharded pipeline and the job service, shared between the emitting
/// code and the tests (a typo'd string would silently assert on an
/// event that never fires).
pub mod kinds {
    /// The stall detector fired: no improvement for the configured
    /// window of loop rounds. Fields: `rounds`, `best_len`. Counter:
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
    /// An in-flight job was reassigned to a surviving worker after its
    /// worker died, restored from the last streamed checkpoint.
    /// Fields: `job`, `from_worker`, `to_worker`. Counter:
    /// [`C_SVC_REASSIGNED`].
    pub const SVC_REASSIGN: &str = "svc.reassign";
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
    /// Counter: jobs reassigned after a worker death.
    pub const C_SVC_REASSIGNED: &str = "svc.jobs_reassigned";
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
}

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

pub use chrome::chrome_trace_json;
pub use event::{parse_jsonl, write_jsonl, Event, EventRing, Value};
pub use metrics::{
    bucket_of, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    Registry, HIST_BUCKETS,
};

/// Whether the `enabled` feature is compiled in (events, histograms,
/// timers). Counters/gauges work regardless.
pub const ENABLED: bool = cfg!(feature = "enabled");

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

    /// Whether this handle records anything at all.
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
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

    /// Nanoseconds since this handle was created (0 when disabled or
    /// when the `enabled` feature is off).
    pub fn t_ns(&self) -> u64 {
        if !ENABLED {
            return 0;
        }
        self.inner
            .as_ref()
            .map_or(0, |i| i.start.elapsed().as_nanos() as u64)
    }

    /// Start a duration measurement. Reads the clock only when live
    /// and compiled in.
    pub fn timer(&self) -> Timer {
        if ENABLED && self.inner.is_some() {
            Timer(Some(Instant::now()))
        } else {
            Timer(None)
        }
    }

    /// Record a structured event, stamped with [`Obs::t_ns`].
    pub fn event(&self, kind: &'static str, fields: &[(&'static str, Value)]) {
        if !ENABLED {
            return;
        }
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

    /// Snapshot the metrics registry (empty when disabled). When the
    /// event ring is compiled in, the ring's eviction count is exported
    /// as the `obs.events_dropped` counter, so overflow is visible in
    /// scrapes and merged cluster views, not only via the Rust API.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(i) = self.inner.as_ref() else {
            return MetricsSnapshot::default();
        };
        let mut snap = i.registry.snapshot();
        if ENABLED {
            snap.counters
                .insert("obs.events_dropped".to_string(), i.events.dropped());
        }
        snap
    }

    /// Copy out the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.events.events())
    }

    /// How many events were evicted because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.events.dropped())
    }

    /// Render the registry in the Prometheus text exposition format.
    pub fn prometheus_text(&self) -> String {
        self.snapshot().prometheus_text()
    }

    /// Write the buffered events as JSONL.
    pub fn write_events_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        write_jsonl(w, &self.events())
    }

    /// Open a root span named `kind`. The span records one event on
    /// [`Span::end`] (or drop) carrying its id, parent id, duration,
    /// and optional broadcast-id correlation — see the [`chrome`]
    /// module for the Perfetto-loadable export. No-op (id 0) when this
    /// handle is disabled or the `enabled` feature is off.
    pub fn span(&self, kind: &'static str) -> Span {
        self.span_with_parent(kind, 0)
    }

    fn span_with_parent(&self, kind: &'static str, parent: u64) -> Span {
        if !ENABLED || self.inner.is_none() {
            return Span {
                obs: Obs::disabled(),
                kind,
                id: 0,
                parent: 0,
                bcast: None,
                t0_ns: 0,
                done: true,
            };
        }
        let i = self.inner.as_ref().expect("checked live above");
        let seq = i
            .span_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Span {
            obs: self.clone(),
            kind,
            id: ((i.node as u64) << 32) | (seq & 0xFFFF_FFFF),
            parent,
            bcast: None,
            t0_ns: self.t_ns(),
            done: false,
        }
    }
}

/// An open span from [`Obs::span`]: a named duration with an id, a
/// parent id (0 = root), and an optional broadcast-id correlation so
/// the same logical tour migration can be followed across nodes. The
/// span is recorded as a regular [`Event`] (kind = span name, fields
/// `span`, `parent`, `dur_ns`, and `bcast` when correlated) when
/// [`Span::end`] is called or the guard drops.
#[derive(Debug)]
pub struct Span {
    obs: Obs,
    kind: &'static str,
    id: u64,
    parent: u64,
    bcast: Option<u64>,
    t0_ns: u64,
    done: bool,
}

impl Span {
    /// This span's cluster-unique id (0 when observability is off).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Open a child span: same node, `parent` set to this span's id.
    pub fn child(&self, kind: &'static str) -> Span {
        self.obs.span_with_parent(kind, self.id)
    }

    /// Correlate this span with a broadcast id (`p2p::broadcast_id`):
    /// the exported trace groups spans sharing a `bcast` field across
    /// nodes, which is how a tour's hub-to-leaf migration is followed.
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
        let mut fields = vec![
            ("span", Value::U(self.id)),
            ("parent", Value::U(self.parent)),
            ("dur_ns", Value::U(dur_ns)),
        ];
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
/// different nodes are each node's own monotonic clock; align them
/// first with [`align_timeline`] when cross-node offsets are known.
pub fn merge_timelines(per_node: &[Vec<Event>]) -> Vec<Event> {
    let mut all: Vec<Event> = per_node.iter().flatten().cloned().collect();
    all.sort_by_key(|e| (e.t_ns, e.node, e.seq));
    all
}

/// Shift event timestamps by per-node clock offsets: `offsets[node]`
/// is the signed nanosecond correction to *add* to that node's local
/// `t_ns` to land on the reference (hub) timeline. Nodes without an
/// entry are left untouched; corrected values clamp at 0.
pub fn align_timeline(events: &mut [Event], offsets: &std::collections::BTreeMap<u32, i64>) {
    for e in events.iter_mut() {
        if let Some(&off) = offsets.get(&e.node) {
            e.t_ns = (e.t_ns as i128 + off as i128).clamp(0, u64::MAX as i128) as u64;
        }
    }
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
        assert!(!obs.is_live());
    }

    #[test]
    fn live_handle_counts_in_both_modes() {
        let obs = Obs::for_node(5);
        assert_eq!(obs.node(), 5);
        obs.counter("a").add(3);
        assert_eq!(obs.snapshot().counter("a"), 3);
        let text = obs.prometheus_text();
        assert!(text.contains("a 3"));
    }

    #[cfg(feature = "enabled")]
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
        assert_eq!(a.events_dropped(), 0);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn events_are_noops_when_disabled() {
        let a = Obs::for_node(0);
        a.event("x", &[]);
        assert!(a.events().is_empty());
        assert_eq!(a.t_ns(), 0);
        // Counters still work.
        a.counter("c").incr();
        assert_eq!(a.snapshot().counter("c"), 1);
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
    fn align_timeline_applies_signed_offsets() {
        use std::borrow::Cow;
        use std::collections::BTreeMap;
        let mut events = vec![
            Event {
                t_ns: 1_000,
                node: 0,
                seq: 0,
                kind: Cow::Borrowed("x"),
                fields: vec![],
            },
            Event {
                t_ns: 1_000,
                node: 1,
                seq: 0,
                kind: Cow::Borrowed("y"),
                fields: vec![],
            },
        ];
        let mut offsets = BTreeMap::new();
        offsets.insert(1u32, -400i64);
        align_timeline(&mut events, &offsets);
        assert_eq!(events[0].t_ns, 1_000, "no offset entry: untouched");
        assert_eq!(events[1].t_ns, 600);
        // Underflow clamps at zero instead of wrapping.
        offsets.insert(1, -10_000);
        align_timeline(&mut events, &offsets);
        assert_eq!(events[1].t_ns, 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_record_ids_parents_and_broadcast_correlation() {
        let obs = Obs::for_node(3);
        let mut root = obs.span("clk.call");
        root.correlate_broadcast(0xBEEF);
        let root_id = root.id();
        assert_eq!(root_id >> 32, 3, "span id embeds the node");
        let child = root.child("clk.kick");
        let child_id = child.id();
        assert_ne!(child_id, root_id);
        child.end();
        root.end();
        let events = obs.events();
        assert_eq!(events.len(), 2, "one event per closed span");
        // Child closed first.
        assert_eq!(events[0].kind, "clk.kick");
        assert_eq!(events[0].field_u64("span"), Some(child_id));
        assert_eq!(events[0].field_u64("parent"), Some(root_id));
        assert_eq!(events[1].kind, "clk.call");
        assert_eq!(events[1].field_u64("parent"), Some(0));
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

    #[cfg(feature = "enabled")]
    #[test]
    fn events_dropped_exported_as_counter() {
        let obs = Obs::with_capacity(0, 2);
        for _ in 0..5 {
            obs.event("tick", &[]);
        }
        assert_eq!(obs.events_dropped(), 3);
        assert_eq!(obs.snapshot().counter("obs.events_dropped"), 3);
        assert!(obs.prometheus_text().contains("obs_events_dropped 3"));
    }

    #[cfg(feature = "enabled")]
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
