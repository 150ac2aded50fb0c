//! Lock-free metrics: counters, gauges, and fixed-bucket log2
//! histograms, collected in a [`Registry`].
//!
//! Design constraints (see DESIGN.md §8):
//!
//! - **Hot-path cost is one atomic RMW.** Handles ([`Counter`],
//!   [`Gauge`], [`Histogram`]) are resolved by name *once* at
//!   instrumentation-attach time; the LK inner loop never touches the
//!   registry map or a lock.
//! - **No vendored deps.** Everything is `std::sync::atomic` plus a
//!   `Mutex<BTreeMap>` that is only taken at registration and snapshot
//!   time.
//! - **Mergeable.** [`MetricsSnapshot`]s from different nodes merge by
//!   name (counters and histogram buckets add, gauges sum), which is
//!   how the distributed driver aggregates a whole network run.
//!
//! Handles resolved from a disabled `Obs` (or made with `noop()`) carry
//! no cell, and every operation on them is a no-op.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets: bucket `i` counts values `v` with
/// `bit_width(v) == i`, i.e. bucket 0 holds only `v = 0`, bucket `i`
/// holds `2^(i-1) <= v < 2^i`. `u64::MAX` lands in bucket 64.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index of a value: `0` for `0`, else `64 - leading_zeros`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing counter handle. Cloning is cheap (an
/// `Option<Arc>`); a handle detached from any registry (from
/// [`crate::Obs::disabled`]) is a no-op that reads zero.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter (reads 0, ignores increments).
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a value that can go up and down (queue depths, live
/// peer counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A no-op gauge.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log2 histogram handle. `observe` is three relaxed
/// atomic adds — cheap enough for the LK inner loop — and a no-op on
/// [`Histogram::noop`].
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramInner>>);

impl Histogram {
    /// A no-op histogram.
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Record one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Snapshot the current bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::default(),
            Some(h) => HistogramSnapshot {
                buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
            },
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_of`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (wraps only after ~580 years of ns).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Merge another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]` —
    /// a log2-resolution estimate (`None` when empty).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(bucket_upper(i));
            }
        }
        Some(u64::MAX)
    }
}

/// A named collection of metrics. Registration takes a short lock;
/// recording through the returned handles is lock-free.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("counter map poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Some(Arc::clone(cell)))
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("gauge map poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Some(Arc::clone(cell)))
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramInner::new()));
        Histogram(Some(Arc::clone(cell)))
    }

    /// Copy every metric out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Histogram(Some(Arc::clone(v))).snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time copy of a whole [`Registry`], mergeable across
/// nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merge `other` into this snapshot: counters and histogram buckets
    /// add; gauges sum (a merged gauge is a network-wide total, e.g.
    /// total queued messages).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Render in the Prometheus text exposition format. Metric names
    /// are sanitized (`.` and `-` become `_`); histograms come out as
    /// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
    pub fn prometheus_text(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 && i != 0 {
                    continue; // keep the exposition compact
                }
                cum += b;
                let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", bucket_upper(i));
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of((1 << 20) - 1), 20);
        assert_eq!(bucket_of(1 << 20), 21);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn counter_and_gauge_work() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name -> same underlying cell.
        assert_eq!(reg.counter("x").get(), 5);
        let g = reg.gauge("q");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        assert_eq!(reg.snapshot().counter("x"), 5);
    }

    #[test]
    fn noop_handles_do_nothing() {
        let c = Counter::noop();
        c.incr();
        assert_eq!(c.get(), 0);
        let h = Histogram::noop();
        h.observe(5);
        assert_eq!(h.snapshot().count, 0);
        let g = Gauge::noop();
        g.set(9);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_observes_edge_values() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        h.observe(0);
        h.observe(1);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.sum, u64::MAX.wrapping_add(1).wrapping_add(0)); // 0+1+MAX wraps
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn merge_of_disjoint_snapshots() {
        let a = Registry::new();
        a.counter("only_a").add(2);
        a.histogram("ha").observe(3);
        let b = Registry::new();
        b.counter("only_b").add(5);
        b.gauge("gb").set(-1);
        b.histogram("hb").observe(1 << 40);

        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("only_a"), 2);
        assert_eq!(m.counter("only_b"), 5);
        assert_eq!(m.gauges["gb"], -1);
        assert_eq!(m.histogram("ha").unwrap().count, 1);
        assert_eq!(m.histogram("hb").unwrap().buckets[41], 1);
        // Merging the same names adds.
        let mut again = m.clone();
        again.merge(&m);
        assert_eq!(again.counter("only_a"), 4);
        assert_eq!(again.histogram("hb").unwrap().count, 2);
    }

    #[test]
    fn quantile_estimates_from_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for v in [1u64, 2, 2, 3, 100, 100, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        // Median falls in the bucket of 2..=3 (upper bound 3).
        assert_eq!(s.quantile(0.5), Some(3));
        assert!(s.quantile(0.99).unwrap() >= 1000);
        assert!((s.mean() - 1308.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn prometheus_text_renders() {
        let reg = Registry::new();
        reg.counter("tcp.bytes_out").add(10);
        reg.gauge("tcp.queue-depth").set(3);
        reg.histogram("clk.call.ns").observe(5);
        let text = reg.snapshot().prometheus_text();
        assert!(text.contains("# TYPE tcp_bytes_out counter"));
        assert!(text.contains("tcp_bytes_out 10"));
        assert!(text.contains("# TYPE tcp_queue_depth gauge"));
        assert!(text.contains("# TYPE clk_call_ns histogram"));
        assert!(text.contains("clk_call_ns_count"));
        assert!(text.contains("le=\"+Inf\""));
    }

    /// Every non-alphanumeric character maps to `_`, and the result is
    /// a valid Prometheus metric name even for hostile inputs.
    #[test]
    fn prometheus_sanitizes_metric_names() {
        let reg = Registry::new();
        reg.counter("node.clk-calls/total µ").add(1);
        reg.counter("0weird").add(2);
        let text = reg.snapshot().prometheus_text();
        assert!(text.contains("# TYPE node_clk_calls_total__ counter"));
        assert!(text.contains("node_clk_calls_total__ 1"));
        // Sanitized output contains no characters outside [A-Za-z0-9_]
        // on metric lines (label values like +Inf are quoted).
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "unsanitized name in {line:?}"
            );
        }
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_monotone() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for v in [0u64, 1, 2, 3, 5, 9, 1000, 1 << 40] {
            h.observe(v);
        }
        let text = reg.snapshot().prometheus_text();
        // Collect the bucket series in emission order.
        let mut uppers: Vec<f64> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("h_bucket{le=\"") {
                let (le, cnt) = rest.split_once("\"} ").unwrap();
                uppers.push(if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                });
                counts.push(cnt.parse().unwrap());
            }
        }
        assert!(uppers.len() >= 4, "expected several buckets:\n{text}");
        // `le` bounds strictly increase and end at +Inf.
        for w in uppers.windows(2) {
            assert!(w[0] < w[1], "le bounds not increasing: {uppers:?}");
        }
        assert_eq!(*uppers.last().unwrap(), f64::INFINITY);
        // Cumulative counts are monotone non-decreasing, and +Inf
        // equals the total observation count.
        for w in counts.windows(2) {
            assert!(w[0] <= w[1], "buckets not cumulative: {counts:?}");
        }
        assert_eq!(*counts.last().unwrap(), 8);
        assert!(text.contains("h_count 8"));
    }

    #[test]
    fn snapshot_merge_is_commutative_on_totals() {
        let a = Registry::new();
        a.counter("c").add(1);
        let b = Registry::new();
        b.counter("c").add(9);
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, ba);
    }
}
